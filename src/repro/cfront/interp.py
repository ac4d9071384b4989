"""Tree-walking interpreter for the C subset (host side).

The OMPi compilation chain produces a *transformed host program* in which
every OpenMP construct has been replaced by plain C plus runtime calls.  On
the Jetson board that program is compiled with gcc; here it is executed by
this interpreter.  Runtime libraries (the `ort` host runtime, the simulated
CUDA runtime API, libc) plug in as *native functions*.

Memory is real: every variable lives at a byte address in a
:class:`repro.mem.LinearMemory`, pointers are integer addresses, and
pointer values can refer to any registered memory space (host heap or
simulated device global memory — the spaces occupy disjoint address
ranges, mirroring how a CUDA process sees distinct host/device pointers).

Loops of the recognised subset, each a nest of depth one or two, and
whole functions built from them run as vectorized numpy plans
(:mod:`repro.cfront.hostcompile`, the host fast path: one dependence
rule and one pass-by-pass executor for every loop); everything else
tree-walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.cfront import astnodes as A
from repro.cfront.builtins import default_natives
from repro.cfront.ctypes_ import (
    ArrayType, BasicType, CType, DOUBLE, FLOAT, FunctionType, INT,
    PointerType, StructType, LONG,
)
from repro.cfront.errors import InterpError, SourceLoc
from repro.mem import LinearMemory
from repro.settings import Settings


class ProgramExit(Exception):
    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit({code})")


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__("return")


@dataclass
class Ptr:
    """A typed pointer value: ``addr`` within ``mem``, pointing at ``ctype``."""

    mem: LinearMemory
    addr: int
    ctype: CType

    def __add__(self, n: int) -> "Ptr":
        return Ptr(self.mem, self.addr + int(n) * self.ctype.sizeof(), self.ctype)

    def __bool__(self) -> bool:
        return self.addr != 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ptr({self.mem.name}+{self.addr:#x} -> {self.ctype})"


@dataclass
class StructInstance:
    """A struct lvalue (or by-value copy) living in memory."""

    mem: LinearMemory
    addr: int
    stype: StructType

    def get(self, field: str):
        offsets, _, _ = self.stype.layout()
        ftype = self.stype.field_type(field)
        assert isinstance(ftype, BasicType)
        return self.mem.load(self.addr + offsets[field], ftype.dtype())


@dataclass
class PyStruct:
    """A struct rvalue built in Python (e.g. ``dim3(4, 2)``)."""

    stype: StructType
    fields: dict

    def get(self, field: str):
        return self.fields[field]


@dataclass
class FuncValue:
    name: str
    defn: Optional[A.FuncDef]
    native: Optional[Callable] = None


@dataclass
class VarBinding:
    addr: int
    ctype: CType
    mem: LinearMemory


#: native signature
NativeFn = Callable[["Machine", list, SourceLoc], object]

_HOST_BASE = 0x10000
_DEVICE_BASE_HINT = 0x2_0000_0000

_UNSEEN_CONST = object()
_NOT_CONST = object()


def _literal_node(n: A.Node) -> bool:
    """Whether node ``n`` may be part of a literal-only subtree."""
    if isinstance(n, (A.IntLit, A.FloatLit, A.CharLit, A.Cond, A.Binary)):
        return True
    if isinstance(n, A.Unary):
        return n.op in ("-", "+", "!", "~")
    if isinstance(n, A.Cast):
        return isinstance(n.type, BasicType) and not n.type.is_void
    return False


def _const_foldable(expr: A.Expr) -> bool:
    """True when ``expr`` is built purely from literals (no environment,
    memory, or side effects) — its value can be memoized per AST node."""
    return all(map(_literal_node, expr.walk()))


class Machine:
    """Executes one translation unit."""

    def __init__(
        self,
        unit: A.TranslationUnit,
        heap_capacity: int = 1 << 30,
        host_fastpath: str | None = None,
        plans=None,
    ):
        from repro.cfront.hostcompile import HostPlans, resolve_host_fastpath

        if host_fastpath is None:
            host_fastpath = Settings.from_env().host_fastpath
        self.unit = unit
        #: the program's host plans (:class:`HostPlans`): shared by every
        #: Machine of one program, or built for this one
        self.plans = plans if plans is not None else HostPlans(unit)
        self.heap = LinearMemory(heap_capacity, base=_HOST_BASE, name="host")
        self.spaces: list[LinearMemory] = [self.heap]
        self.natives: dict[str, NativeFn] = default_natives()
        self.stdout: list[str] = []
        self.globals: dict[str, object] = {}
        self._string_pool: dict[str, Ptr] = {}
        self._rand_state = 1
        self.host_fastpath = resolve_host_fastpath(host_fastpath)
        self.host_stats: dict[str, int] = {
            "loop_fast": 0, "loop_fallback": 0, "loop_unplanned": 0,
            "fn_fast": 0, "fn_fallback": 0, "verified_regions": 0,
            "nest_whole": 0, "nest_rows": 0,
        }
        self._load_globals()

    # -- setup -------------------------------------------------------------
    def register_space(self, mem: LinearMemory) -> None:
        """Register an additional memory space (e.g. device global memory)."""
        self.spaces.append(mem)

    def space_of(self, addr: int) -> LinearMemory:
        for mem in self.spaces:
            if mem.base <= addr < mem.base + mem.capacity:
                return mem
        raise InterpError(f"address {addr:#x} is in no registered memory space")

    def make_ptr(self, addr: int, pointee: CType) -> Ptr | int:
        if addr == 0:
            return 0
        return Ptr(self.space_of(addr), addr, pointee)

    def _load_globals(self) -> None:
        for node in self.unit.decls:
            if isinstance(node, A.FuncDef):
                self.globals[node.name] = FuncValue(node.name, node)
            elif isinstance(node, A.FuncProto):
                self.globals.setdefault(node.name, FuncValue(node.name, None))
            elif isinstance(node, A.GlobalDecl):
                for d in node.decls:
                    if d.storage == "extern":
                        continue
                    addr = self.heap.alloc(max(d.type.sizeof(), 1), d.type.alignof())
                    self.heap.view(addr, d.type.sizeof(), "u1")[:] = 0
                    self.globals[d.name] = VarBinding(addr, d.type, self.heap)
                    if d.init is not None:
                        value = self.eval(d.init, [{}])
                        self.store_value(self.heap, addr, d.type, value)

    # -- public API ---------------------------------------------------------
    def run(self, argv: list[str] | None = None) -> int:
        """Execute ``main`` and return the exit code."""
        main = self.globals.get("main")
        if not isinstance(main, FuncValue) or main.defn is None:
            raise InterpError("program has no main()")
        try:
            result = self.call_function(main, [])
        except ProgramExit as exc:
            return exc.code
        return int(result) if result is not None else 0

    def call(self, name: str, *args) -> object:
        fn = self.globals.get(name)
        if not isinstance(fn, FuncValue):
            raise InterpError(f"no such function {name!r}")
        return self.call_function(fn, list(args))

    def global_binding(self, name: str) -> VarBinding:
        binding = self.globals.get(name)
        if not isinstance(binding, VarBinding):
            raise InterpError(f"no such global variable {name!r}")
        return binding

    def global_array(self, name: str) -> np.ndarray:
        """A writable numpy view of a global array (benchmark seeding)."""
        binding = self.global_binding(name)
        ctype = binding.ctype
        dims: list[int] = []
        while isinstance(ctype, ArrayType):
            if ctype.length is None:
                raise InterpError(f"global {name!r} has incomplete array type")
            dims.append(ctype.length)
            ctype = ctype.elem
        if not isinstance(ctype, BasicType):
            raise InterpError(f"global {name!r} is not a numeric array")
        count = int(np.prod(dims)) if dims else 1
        view = binding.mem.view(binding.addr, count, ctype.dtype())
        return view.reshape(dims) if dims else view

    def output(self) -> str:
        return "".join(self.stdout)

    def read_cstring(self, ptr) -> str:
        if isinstance(ptr, str):
            return ptr
        if not isinstance(ptr, Ptr):
            raise InterpError("expected a char* value")
        chars = []
        addr = ptr.addr
        while True:
            b = int(ptr.mem.load(addr, np.uint8))
            if b == 0:
                return "".join(chars)
            chars.append(chr(b))
            addr += 1

    def rand(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rand_state >> 16

    def srand(self, seed: int) -> int:
        self._rand_state = seed & 0x7FFFFFFF
        return 0

    # -- values --------------------------------------------------------------
    def store_value(self, mem: LinearMemory, addr: int, ctype: CType, value) -> None:
        if isinstance(ctype, BasicType):
            mem.store(addr, ctype.dtype(), self._as_number(value, ctype))
        elif isinstance(ctype, PointerType):
            a = value.addr if isinstance(value, Ptr) else int(value)
            mem.store(addr, np.uint64, a)
        elif isinstance(ctype, StructType):
            if isinstance(value, PyStruct):
                offsets, _, _ = ctype.layout()
                for fname, ftype in ctype.fields_:
                    if fname in value.fields:
                        self.store_value(mem, addr + offsets[fname], ftype, value.fields[fname])
            elif isinstance(value, StructInstance):
                mem.copy_in(addr, value.mem.copy_out(value.addr, ctype.sizeof()))
            else:
                raise InterpError(f"cannot store {type(value).__name__} into {ctype}")
        elif isinstance(ctype, ArrayType):
            raise InterpError("cannot assign to an array")
        else:
            raise InterpError(f"cannot store into type {ctype}")

    def load_value(self, mem: LinearMemory, addr: int, ctype: CType):
        if isinstance(ctype, BasicType):
            raw = mem.load(addr, ctype.dtype())
            if ctype.is_floating:
                # C99 typed floats: a ``float`` cell loads as np.float32 so
                # float-only expressions round per operation like real
                # hardware (and the simulated GPU); ``double`` stays a
                # Python float.
                return raw if ctype.kind == "float" else float(raw)
            return int(raw)
        if isinstance(ctype, PointerType):
            return self.make_ptr(int(mem.load(addr, np.uint64)), ctype.pointee)
        if isinstance(ctype, ArrayType):
            return Ptr(mem, addr, ctype.elem)
        if isinstance(ctype, StructType):
            return StructInstance(mem, addr, ctype)
        raise InterpError(f"cannot load type {ctype}")

    @staticmethod
    def _as_number(value, ctype: BasicType):
        if isinstance(value, Ptr):
            if ctype.is_integer:
                return value.addr
            raise InterpError("pointer used where arithmetic value expected")
        if isinstance(value, bool):
            return int(value)
        if ctype.is_integer:
            return int(value)
        return float(value)

    # -- environment ------------------------------------------------------------
    def _lookup(self, env: list[dict], name: str):
        for scope in reversed(env):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        if name in self.natives:
            return FuncValue(name, None, self.natives[name])
        raise InterpError(f"undeclared identifier {name!r}")

    # -- function calls ------------------------------------------------------------
    def call_function(self, fn: FuncValue, args: list, loc: SourceLoc | None = None):
        if fn.native is not None:
            return fn.native(self, args, loc)
        if fn.defn is None:
            native = self.natives.get(fn.name)
            if native is not None:
                return native(self, args, loc)
            raise InterpError(f"call to undefined function {fn.name!r}", loc)
        if self.host_fastpath != "off":
            from repro.cfront.hostcompile import maybe_call_compiled

            done, result = maybe_call_compiled(self, fn, args, loc)
            if done:
                return result
        return self._call_interpreted(fn, args, loc)

    def _call_interpreted(self, fn: FuncValue, args: list, loc: SourceLoc | None = None):
        defn = fn.defn
        if len(args) != len(defn.params):
            raise InterpError(
                f"{fn.name}: expected {len(defn.params)} arguments, got {len(args)}", loc
            )
        frame: dict[str, object] = {}
        allocs: list[int] = []
        for param, arg in zip(defn.params, args):
            ctype = param.type.decay()
            addr = self.heap.alloc(max(ctype.sizeof(), 1), ctype.alignof())
            allocs.append(addr)
            self.store_value(self.heap, addr, ctype, arg)
            frame[param.name] = VarBinding(addr, ctype, self.heap)
        env = [frame]
        try:
            self.exec_stmt(defn.body, env)
            result = None
        except _Return as ret:
            result = ret.value
        finally:
            for addr in allocs:
                self.heap.free(addr)
        return result

    # -- statements ------------------------------------------------------------
    def exec_stmt(self, stmt: A.Stmt, env: list[dict]) -> None:
        if isinstance(stmt, A.ExprStmt):
            if stmt.expr is not None:
                self.eval(stmt.expr, env)
        elif isinstance(stmt, A.DeclStmt):
            self._exec_decl(stmt, env)
        elif isinstance(stmt, A.Compound):
            scope: dict[str, object] = {}
            env.append(scope)
            try:
                for inner in stmt.body:
                    self.exec_stmt(inner, env)
            finally:
                env.pop()
                self._free_scope(scope)
        elif isinstance(stmt, A.If):
            if self._truthy(self.eval(stmt.cond, env)):
                self.exec_stmt(stmt.then, env)
            elif stmt.other is not None:
                self.exec_stmt(stmt.other, env)
        elif isinstance(stmt, A.While):
            while self._truthy(self.eval(stmt.cond, env)):
                try:
                    self.exec_stmt(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, A.DoWhile):
            while True:
                try:
                    self.exec_stmt(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self._truthy(self.eval(stmt.cond, env)):
                    break
        elif isinstance(stmt, A.For):
            self._exec_for(stmt, env)
        elif isinstance(stmt, A.Return):
            raise _Return(self.eval(stmt.value, env) if stmt.value is not None else None)
        elif isinstance(stmt, A.Break):
            raise _Break()
        elif isinstance(stmt, A.Continue):
            raise _Continue()
        elif isinstance(stmt, A.PragmaStmt):
            if stmt.text.strip().startswith("omp"):
                raise InterpError(
                    f"untranslated OpenMP directive reached the interpreter: "
                    f"#pragma {stmt.text}", stmt.loc
                )
            if stmt.body is not None:
                self.exec_stmt(stmt.body, env)
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}", getattr(stmt, "loc", None))

    def _free_scope(self, scope: dict) -> None:
        for binding in scope.values():
            if isinstance(binding, VarBinding) and binding.mem is self.heap:
                self.heap.free(binding.addr)

    def _exec_decl(self, stmt: A.DeclStmt, env: list[dict]) -> None:
        scope = env[-1]
        for d in stmt.decls:
            size = max(d.type.sizeof(), 1)
            addr = self.heap.alloc(size, d.type.alignof())
            self.heap.view(addr, size, "u1")[:] = 0
            if d.name in scope:
                raise InterpError(f"redeclaration of {d.name!r}", d.loc)
            scope[d.name] = VarBinding(addr, d.type, self.heap)
            if d.init is not None:
                value = self.eval(d.init, env)
                self.store_value(self.heap, addr, d.type, value)

    def _exec_for(self, stmt: A.For, env: list[dict]) -> None:
        from repro.cfront.hostcompile import exec_for_fastpath

        scope: dict[str, object] = {}
        env.append(scope)
        try:
            if stmt.init is not None:
                self.exec_stmt(stmt.init, env)
            if self.host_fastpath != "off" and exec_for_fastpath(self, stmt, env):
                return
            self.run_for_loop(stmt, env)
        finally:
            env.pop()
            self._free_scope(scope)

    def run_for_loop(self, stmt: A.For, env: list[dict]) -> None:
        """Tree-walk an initialised ``for``: condition, body, step."""
        while stmt.cond is None or self._truthy(self.eval(stmt.cond, env)):
            try:
                self.exec_stmt(stmt.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if stmt.step is not None:
                self.eval(stmt.step, env)

    @staticmethod
    def _truthy(value) -> bool:
        if isinstance(value, Ptr):
            return value.addr != 0
        return bool(value)

    # -- lvalues ------------------------------------------------------------
    def lvalue(self, expr: A.Expr, env: list[dict]) -> tuple[LinearMemory, int, CType]:
        if isinstance(expr, A.Ident):
            binding = self._lookup(env, expr.name)
            if not isinstance(binding, VarBinding):
                raise InterpError(f"{expr.name!r} is not a variable", expr.loc)
            return binding.mem, binding.addr, binding.ctype
        if isinstance(expr, A.Index):
            base = self.eval(expr.base, env)
            if not isinstance(base, Ptr):
                raise InterpError("subscripted value is not a pointer/array", expr.loc)
            idx = int(self.eval(expr.index, env))
            return base.mem, base.addr + idx * base.ctype.sizeof(), base.ctype
        if isinstance(expr, A.Unary) and expr.op == "*":
            ptr = self.eval(expr.operand, env)
            if not isinstance(ptr, Ptr):
                raise InterpError("dereference of non-pointer", expr.loc)
            return ptr.mem, ptr.addr, ptr.ctype
        if isinstance(expr, A.Member):
            if expr.arrow:
                base = self.eval(expr.base, env)
                if not isinstance(base, Ptr) or not isinstance(base.ctype, StructType):
                    raise InterpError("-> on non-struct-pointer", expr.loc)
                mem, addr, stype = base.mem, base.addr, base.ctype
            else:
                mem, addr, stype = self.lvalue(expr.base, env)
                if not isinstance(stype, StructType):
                    raise InterpError(". on non-struct", expr.loc)
            offsets, _, _ = stype.layout()
            return mem, addr + offsets[expr.name], stype.field_type(expr.name)
        raise InterpError(f"expression is not an lvalue: {type(expr).__name__}", expr.loc)

    # -- expressions ------------------------------------------------------------
    def eval(self, expr: A.Expr, env: list[dict]):
        method = _EVAL_DISPATCH.get(type(expr))
        if method is None:
            raise InterpError(f"cannot evaluate {type(expr).__name__}", getattr(expr, "loc", None))
        return method(self, expr, env)

    def _eval_ident(self, expr: A.Ident, env: list[dict]):
        binding = self._lookup(env, expr.name)
        if isinstance(binding, VarBinding):
            return self.load_value(binding.mem, binding.addr, binding.ctype)
        return binding

    def _eval_const_memo(self, expr: A.Expr, env: list[dict], raw):
        """Memoize literal-only subtrees by node identity, once per program
        (the plans hold the unit, so ids are stable while they live)."""
        memo = self.plans.consts
        key = id(expr)
        cached = memo.get(key, _UNSEEN_CONST)
        if cached is _UNSEEN_CONST:
            if _const_foldable(expr):
                value = raw(expr, env)
                memo[key] = value
                return value
            memo[key] = _NOT_CONST
            return raw(expr, env)
        if cached is _NOT_CONST:
            return raw(expr, env)
        return cached

    def _eval_unary(self, expr: A.Unary, env: list[dict]):
        return self._eval_const_memo(expr, env, self._eval_unary_raw)

    def _eval_unary_raw(self, expr: A.Unary, env: list[dict]):
        op = expr.op
        if op == "&":
            mem, addr, ctype = self.lvalue(expr.operand, env)
            return Ptr(mem, addr, ctype)
        if op == "*":
            mem, addr, ctype = self.lvalue(expr, env)
            return self.load_value(mem, addr, ctype)
        if op in ("++", "--", "p++", "p--"):
            mem, addr, ctype = self.lvalue(expr.operand, env)
            old = self.load_value(mem, addr, ctype)
            delta = 1 if "+" in op else -1
            new = old + delta if not isinstance(old, Ptr) else old + delta
            self.store_value(mem, addr, ctype, new)
            return old if op.startswith("p") else new
        value = self.eval(expr.operand, env)
        if op == "-":
            return -value
        if op == "+":
            return value
        if op == "!":
            return 0 if self._truthy(value) else 1
        if op == "~":
            return ~int(value)
        raise InterpError(f"bad unary operator {op}", expr.loc)

    def _eval_binary(self, expr: A.Binary, env: list[dict]):
        return self._eval_const_memo(expr, env, self._eval_binary_raw)

    def _eval_binary_raw(self, expr: A.Binary, env: list[dict]):
        op = expr.op
        if op == "&&":
            if not self._truthy(self.eval(expr.left, env)):
                return 0
            return 1 if self._truthy(self.eval(expr.right, env)) else 0
        if op == "||":
            if self._truthy(self.eval(expr.left, env)):
                return 1
            return 1 if self._truthy(self.eval(expr.right, env)) else 0
        lhs = self.eval(expr.left, env)
        rhs = self.eval(expr.right, env)
        return apply_binop(op, lhs, rhs, expr.loc)

    def _eval_assign(self, expr: A.Assign, env: list[dict]):
        mem, addr, ctype = self.lvalue(expr.target, env)
        value = self.eval(expr.value, env)
        if expr.op is not None:
            old = self.load_value(mem, addr, ctype)
            value = apply_binop(expr.op, old, value, expr.loc)
        self.store_value(mem, addr, ctype, value)
        return self.load_value(mem, addr, ctype)

    def _eval_cond(self, expr: A.Cond, env: list[dict]):
        if self._truthy(self.eval(expr.cond, env)):
            return self.eval(expr.then, env)
        return self.eval(expr.other, env)

    def _eval_comma(self, expr: A.Comma, env: list[dict]):
        value = None
        for part in expr.parts:
            value = self.eval(part, env)
        return value

    def _eval_call(self, expr: A.Call, env: list[dict]):
        # dim3(x, y, z) constructor-style rvalue
        if isinstance(expr.func, A.Ident) and expr.func.name == "dim3":
            vals = [int(self.eval(a, env)) for a in expr.args]
            vals += [1] * (3 - len(vals))
            from repro.cfront.ctypes_ import DIM3
            return PyStruct(DIM3, {"x": vals[0], "y": vals[1], "z": vals[2]})
        fn = self.eval(expr.func, env)
        if not isinstance(fn, FuncValue):
            raise InterpError("called object is not a function", expr.loc)
        args = [self.eval(a, env) for a in expr.args]
        return self.call_function(fn, args, expr.loc)

    def _eval_kernel_call(self, expr: A.CudaKernelCall, env: list[dict]):
        launcher = self.natives.get("__cuda_launch__")
        if launcher is None:
            raise InterpError(
                "CUDA kernel launch executed without a CUDA runtime "
                "(register repro.cuda.runtimeapi natives)", expr.loc
            )
        name = expr.func.name if isinstance(expr.func, A.Ident) else None
        if name is None:
            raise InterpError("kernel launch target must be a function name", expr.loc)
        grid = self.eval(expr.grid, env)
        block = self.eval(expr.block, env)
        shmem = int(self.eval(expr.shmem, env)) if expr.shmem is not None else 0
        args = [self.eval(a, env) for a in expr.args]
        return launcher(self, [name, grid, block, shmem, args], expr.loc)

    def _eval_index(self, expr: A.Index, env: list[dict]):
        mem, addr, ctype = self.lvalue(expr, env)
        return self.load_value(mem, addr, ctype)

    def _eval_member(self, expr: A.Member, env: list[dict]):
        if not expr.arrow and isinstance(expr.base, A.Ident):
            # could be a PyStruct rvalue bound to a name? members resolve
            # through memory for VarBindings, via .get for Python structs.
            binding = None
            for scope in reversed(env):
                if expr.base.name in scope:
                    binding = scope[expr.base.name]
                    break
            if binding is None:
                binding = self.globals.get(expr.base.name)
            if isinstance(binding, (PyStruct, StructInstance)):
                return binding.get(expr.name)
        try:
            mem, addr, ctype = self.lvalue(expr, env)
        except InterpError:
            # rvalue struct (e.g. function call result): resolve via .get
            base = self.eval(expr.base, env)
            if isinstance(base, (PyStruct, StructInstance)):
                return base.get(expr.name)
            raise
        return self.load_value(mem, addr, ctype)

    def _eval_cast(self, expr: A.Cast, env: list[dict]):
        return self._eval_const_memo(expr, env, self._eval_cast_raw)

    def _eval_cast_raw(self, expr: A.Cast, env: list[dict]):
        value = self.eval(expr.operand, env)
        target = expr.type
        if isinstance(target, PointerType):
            if isinstance(value, Ptr):
                return Ptr(value.mem, value.addr, target.pointee)
            addr = int(value)
            return self.make_ptr(addr, target.pointee) if addr else 0
        if isinstance(target, BasicType):
            if target.is_integer:
                if isinstance(value, Ptr):
                    return value.addr
                return int(value)
            if target.is_floating:
                if target.kind == "float":
                    return np.float32(value)
                return float(value)
            if target.is_void:
                return None
        raise InterpError(f"unsupported cast to {target}", expr.loc)

    def _eval_sizeof_expr(self, expr: A.SizeofExpr, env: list[dict]):
        return self.type_of(expr.operand, env).sizeof()

    def _eval_sizeof_type(self, expr: A.SizeofType, env: list[dict]):
        return expr.type.sizeof()

    # -- static typing (for sizeof) -----------------------------------------
    def type_of(self, expr: A.Expr, env: list[dict]) -> CType:
        if isinstance(expr, A.Ident):
            binding = self._lookup(env, expr.name)
            if isinstance(binding, VarBinding):
                return binding.ctype
            raise InterpError(f"sizeof of non-variable {expr.name!r}", expr.loc)
        if isinstance(expr, A.Index):
            base = self.type_of(expr.base, env).decay()
            assert isinstance(base, PointerType)
            return base.pointee
        if isinstance(expr, A.Unary) and expr.op == "*":
            base = self.type_of(expr.operand, env).decay()
            assert isinstance(base, PointerType)
            return base.pointee
        if isinstance(expr, A.Unary) and expr.op == "&":
            return PointerType(self.type_of(expr.operand, env))
        if isinstance(expr, A.IntLit):
            return INT
        if isinstance(expr, A.FloatLit):
            return FLOAT if expr.single else DOUBLE
        if isinstance(expr, A.Cast):
            return expr.type
        if isinstance(expr, A.Member):
            base_t = self.type_of(expr.base, env)
            if isinstance(base_t, PointerType):
                base_t = base_t.pointee
            assert isinstance(base_t, StructType)
            return base_t.field_type(expr.name)
        if isinstance(expr, A.Binary):
            lt = self.type_of(expr.left, env)
            rt = self.type_of(expr.right, env)
            if lt.is_pointer or lt.is_array:
                return lt.decay()
            if rt.is_pointer or rt.is_array:
                return rt.decay()
            from repro.cfront.ctypes_ import usual_arithmetic
            return usual_arithmetic(lt, rt)
        raise InterpError(f"cannot type {type(expr).__name__} in sizeof", getattr(expr, "loc", None))


def apply_binop(op: str, lhs, rhs, loc=None):
    """``lhs op rhs`` under the interpreter's C rules (no ``&&``/``||``)."""
    if isinstance(lhs, Ptr) or isinstance(rhs, Ptr):
        return _pointer_binop(op, lhs, rhs, loc)
    # usual arithmetic conversions for typed floats: float op float stays
    # np.float32 (numpy semantics), but anything wider on either side
    # promotes both operands to double
    if isinstance(lhs, np.float32) or isinstance(rhs, np.float32):
        if isinstance(lhs, float) or isinstance(rhs, float):
            lhs = float(lhs)
            rhs = float(rhs)
    if op in ("==", "!=", "<", ">", "<=", ">="):
        return int(_COMPARE[op](lhs, rhs))
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if isinstance(lhs, int) and isinstance(rhs, int):
            if rhs == 0:
                raise InterpError("integer division by zero", loc)
            q = abs(lhs) // abs(rhs)
            return q if (lhs < 0) == (rhs < 0) else -q
        if rhs == 0:
            # C's IEEE quotient: +-inf, or nan for 0 / 0
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.true_divide(lhs, rhs)
            return float(q) if type(q) is np.float64 else q
        return lhs / rhs
    if op == "%":
        li, ri = int(lhs), int(rhs)
        if ri == 0:
            raise InterpError("integer modulo by zero", loc)
        r = abs(li) % abs(ri)
        return r if li >= 0 else -r
    if op in ("<<", ">>", "&", "|", "^"):
        li, ri = int(lhs), int(rhs)
        return {"<<": li << ri, ">>": li >> ri, "&": li & ri,
                "|": li | ri, "^": li ^ ri}[op]
    raise InterpError(f"bad binary operator {op}", loc)


def _pointer_binop(op: str, lhs, rhs, loc):
    if op == "+":
        if isinstance(lhs, Ptr):
            return lhs + int(rhs)
        return rhs + int(lhs)
    if op == "-":
        if isinstance(lhs, Ptr) and isinstance(rhs, Ptr):
            return (lhs.addr - rhs.addr) // lhs.ctype.sizeof()
        if isinstance(lhs, Ptr):
            return lhs + (-int(rhs))
        raise InterpError("cannot subtract pointer from integer", loc)
    if op in ("==", "!=", "<", ">", "<=", ">="):
        la = lhs.addr if isinstance(lhs, Ptr) else int(lhs)
        ra = rhs.addr if isinstance(rhs, Ptr) else int(rhs)
        return int(_COMPARE[op](la, ra))
    raise InterpError(f"invalid pointer operation {op}", loc)


_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

_EVAL_DISPATCH = {
    A.IntLit: lambda m, e, env: e.value,
    A.FloatLit: lambda m, e, env: np.float32(e.value) if e.single else e.value,
    A.CharLit: lambda m, e, env: e.value,
    A.StringLit: lambda m, e, env: m._string_literal(e.value),
    A.Ident: Machine._eval_ident,
    A.Unary: Machine._eval_unary,
    A.Binary: Machine._eval_binary,
    A.Assign: Machine._eval_assign,
    A.Cond: Machine._eval_cond,
    A.Comma: Machine._eval_comma,
    A.Call: Machine._eval_call,
    A.CudaKernelCall: Machine._eval_kernel_call,
    A.Index: Machine._eval_index,
    A.Member: Machine._eval_member,
    A.Cast: Machine._eval_cast,
    A.SizeofExpr: Machine._eval_sizeof_expr,
    A.SizeofType: Machine._eval_sizeof_type,
}


def _string_literal(self: Machine, text: str) -> Ptr:
    ptr = self._string_pool.get(text)
    if ptr is None:
        data = text.encode() + b"\0"
        addr = self.heap.alloc(len(data), 1)
        self.heap.copy_in(addr, data)
        from repro.cfront.ctypes_ import CHAR
        ptr = Ptr(self.heap, addr, CHAR)
        self._string_pool[text] = ptr
    return ptr


Machine._string_literal = _string_literal  # type: ignore[attr-defined]
