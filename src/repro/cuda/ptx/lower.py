"""CUDA-C AST -> SIMT IR lowering (the compiling half of the nvcc stand-in).

Supported input is the CUDA C subset that the OMPi CUDA code generator
emits plus what hand-written Polybench CUDA kernels need:

* ``__global__`` kernels and ``__device__`` functions (inlined at their
  call sites, as nvcc aggressively does; recursion is rejected);
* scalar locals in registers, ``__shared__`` variables/structs/arrays in
  block shared memory, local arrays in per-thread local memory;
* ``threadIdx``/``blockIdx``/``blockDim``/``gridDim`` special registers;
* full expression set with C's usual arithmetic conversions;
* control flow (if/while/for/do, break/continue/return);
* calls to the device runtime library (``cudadev_*``, device-side
  ``omp_*``), math builtins, ``__syncthreads``, ``atomicCAS``/``atomicAdd``
  and ``asm`` named barriers via the ``__bar_sync(b, n)`` builtin;
* device ``printf``.

Addresses are *generic*: the engine routes loads/stores to global, shared
or local memory by address range, like CUDA's generic address space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import (
    ArrayType, BasicType, CType, DOUBLE, FLOAT, FunctionType, INT,
    PointerType, StructType, promote, usual_arithmetic,
)
from repro.cfront.errors import CFrontError, SourceLoc
from repro.cuda.ptx.ir import (
    Atom, BarOp, BinOp, BreakOp, CallOp, ContinueOp, Cvt, GlobalAddr, IfOp,
    Imm, KernelIR, KernelParam, Ld, LoopOp, ModuleIR, Mov, Op, Operand,
    PrintfOp, Reg, RegAllocator, RetOp, SelOp, Sreg, St, UnOp,
)

#: Virtual base of each block's shared-memory window (generic addressing).
SHARED_WINDOW_BASE = 0x7000_0000_0000
#: Virtual base of per-thread local-memory windows.
LOCAL_WINDOW_BASE = 0x7800_0000_0000


class LowerError(CFrontError):
    """Unsupported construct in device code."""


def ctype_to_ir(ctype: CType) -> str:
    if isinstance(ctype, (PointerType, ArrayType)):
        return "u64"
    if isinstance(ctype, BasicType):
        table = {
            ("char", True): "s8", ("char", False): "u8",
            ("short", True): "s16", ("short", False): "u16",
            ("int", True): "s32", ("int", False): "u32",
            ("long", True): "s64", ("long", False): "u64",
        }
        if ctype.kind == "float":
            return "f32"
        if ctype.kind == "double":
            return "f64"
        if ctype.kind == "void":
            raise LowerError("void has no IR type")
        return table[(ctype.kind, ctype.signed)]
    raise LowerError(f"no IR type for {ctype}")


_MATH_UNOPS = {
    "sqrtf": "sqrt", "sqrt": "sqrt", "fabsf": "abs", "fabs": "abs",
    "expf": "exp", "exp": "exp", "logf": "log", "log": "log",
    "sinf": "sin", "sin": "sin", "cosf": "cos", "cos": "cos",
    "floorf": "floor", "floor": "floor", "ceilf": "ceil", "ceil": "ceil",
}

_SREGS = {"threadIdx": "tid", "blockIdx": "ctaid", "blockDim": "ntid",
          "gridDim": "nctaid"}

_CMP_OPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}
_ARITH_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
              "<<": "shl", ">>": "shr", "&": "and", "|": "or", "^": "xor"}


@dataclass
class _Var:
    """A device-code variable: either a register (scalar) or memory."""

    ctype: CType
    reg: Optional[Reg] = None
    #: for memory-homed variables: operand holding the byte address
    addr: Optional[Operand] = None
    space: str = "shared"


class KernelLowerer:
    """Compiles one ``__global__`` function (plus reachable ``__device__``
    functions, inlined) to :class:`KernelIR`."""

    def __init__(
        self,
        unit: A.TranslationUnit,
        intrinsic_sigs: dict[str, tuple[tuple[str, ...], Optional[str]]],
        module_globals: dict[str, int] | None = None,
        smem_reserved: int = 0,
    ):
        self.unit = unit
        self.intrinsics = intrinsic_sigs
        self.module_globals = module_globals or {}
        #: declared C types of module-scope __device__ globals
        self.module_global_types: dict[str, CType] = {}
        for d in unit.decls:
            if isinstance(d, A.GlobalDecl):
                for v in d.decls:
                    if v.name in self.module_globals:
                        self.module_global_types[v.name] = v.type
        self.regs = RegAllocator()
        #: static shared-memory layout; the device runtime reserves a
        #: control area at offset 0 (smem_reserved bytes).
        self.smem_offset = smem_reserved
        self.shared_layout: dict[str, tuple[int, int]] = {}
        self.local_offset = 0              # per-thread local memory usage
        self.subfunctions: dict[str, KernelIR] = {}
        self._subfn_ids: dict[str, int] = {}
        self._inline_stack: list[str] = []
        #: loops around the statement being lowered, in the function
        #: being lowered (break and continue need one)
        self._loops = 0
        self._device_fns = {
            d.name: d for d in unit.decls
            if isinstance(d, A.FuncDef) and "__device__" in d.quals
        }

    # ------------------------------------------------------------------ entry
    @staticmethod
    def _address_taken_names(fn: A.FuncDef) -> frozenset[str]:
        """Names of scalar locals whose address is taken (``&i``): these are
        demoted from registers to per-thread local memory, as real compilers
        do — OMPi's generated master/worker code relies on it
        (``cudadev_push_shmem(&i, sizeof(i))``)."""
        names: set[str] = set()
        for node in fn.body.walk():
            if isinstance(node, A.Unary) and node.op == "&" \
                    and isinstance(node.operand, A.Ident):
                names.add(node.operand.name)
        return frozenset(names)

    def lower_kernel(self, fn: A.FuncDef) -> KernelIR:
        self._addr_taken = self._address_taken_names(fn)
        scopes: list[dict[str, _Var]] = [{}]
        params: list[KernelParam] = []
        body: list[Op] = []  # type: ignore[name-defined]
        for p in fn.params:
            ctype = p.type.decay()
            dtype = ctype_to_ir(ctype)
            reg = self.regs.new(dtype, p.name + "_")
            params.append(KernelParam(p.name, dtype, isinstance(ctype, PointerType)))
            scopes[0][p.name] = _Var(ctype, reg=reg)
            body.append(CallOp(reg, "__ldparam", [Imm(len(params) - 1, "s32")]))
        ops = self.lower_block(fn.body, scopes)
        body.extend(ops)
        kernel = KernelIR(
            name=fn.name,
            params=params,
            body=body,
            shared_layout=dict(self.shared_layout),
            smem_static=self.smem_offset,
            local_static=self.local_offset,
            subfunctions=dict(self.subfunctions),
        )
        return kernel

    def lower_subfunction(self, fn: A.FuncDef) -> int:
        """Lower a ``__device__`` function to a callable subfunction (used
        for registered parallel-region bodies) and return its id."""
        if fn.name in self._subfn_ids:
            return self._subfn_ids[fn.name]
        self._addr_taken = getattr(self, "_addr_taken", frozenset()) | \
            self._address_taken_names(fn)
        scopes: list[dict[str, _Var]] = [{}]
        params: list[KernelParam] = []
        body: list = []
        for p in fn.params:
            ctype = p.type.decay()
            dtype = ctype_to_ir(ctype)
            reg = self.regs.new(dtype, p.name + "_")
            params.append(KernelParam(p.name, dtype, isinstance(ctype, PointerType)))
            scopes[0][p.name] = _Var(ctype, reg=reg)
            body.append(CallOp(reg, "__ldarg", [Imm(len(params) - 1, "s32")]))
        body.extend(self.lower_block(fn.body, scopes))
        sub = KernelIR(name=fn.name, params=params, body=body)
        fid = len(self.subfunctions)
        self.subfunctions[fn.name] = sub
        self._subfn_ids[fn.name] = fid
        return fid

    # -------------------------------------------------------------- statements
    def lower_block(self, stmt: A.Stmt, scopes: list[dict[str, _Var]]) -> list:
        ops: list = []
        if isinstance(stmt, A.Compound):
            scopes.append({})
            for inner in stmt.body:
                ops.extend(self.lower_stmt(inner, scopes))
            scopes.pop()
        else:
            ops.extend(self.lower_stmt(stmt, scopes))
        return ops

    def lower_stmt(self, stmt: A.Stmt, scopes: list[dict[str, _Var]]) -> list:
        if isinstance(stmt, A.Compound):
            return self.lower_block(stmt, scopes)
        if isinstance(stmt, A.ExprStmt):
            if stmt.expr is None:
                return []
            ops: list = []
            self.lower_expr_effects(stmt.expr, scopes, ops)
            return ops
        if isinstance(stmt, A.DeclStmt):
            return self._lower_decl(stmt, scopes)
        if isinstance(stmt, A.If):
            ops = []
            cond, _ = self.lower_rvalue(stmt.cond, scopes, ops)
            pred = self._to_pred(cond, ops)
            then_ops = self.lower_block(stmt.then, scopes)
            else_ops = self.lower_block(stmt.other, scopes) if stmt.other else []
            ops.append(IfOp(pred, then_ops, else_ops))
            return ops
        if isinstance(stmt, A.While):
            cond_ops: list = []
            cond, _ = self.lower_rvalue(stmt.cond, scopes, cond_ops)
            pred = self._to_pred(cond, cond_ops)
            body_ops = self._loop_body(stmt.body, scopes)
            return [LoopOp(cond_ops, pred, body_ops)]
        if isinstance(stmt, A.DoWhile):
            # do { B } while (c)  ==  first = 1; while (first || c) { B; first = 0 }
            first = self.regs.new("pred", "dofirst")
            cond_ops: list = []
            cond, _ = self.lower_rvalue(stmt.cond, scopes, cond_ops)
            cpred = self._to_pred(cond, cond_ops)
            merged = self.regs.new("pred", "docond")
            cond_ops.append(BinOp(merged, "or", first, cpred))
            body_ops = self._loop_body(stmt.body, scopes)
            body_ops.append(Mov(first, Imm(False, "pred")))
            return [Mov(first, Imm(True, "pred")), LoopOp(cond_ops, merged, body_ops)]
        if isinstance(stmt, A.For):
            ops = []
            scopes.append({})
            if stmt.init is not None:
                ops.extend(self.lower_stmt(stmt.init, scopes))
            cond_ops: list = []
            if stmt.cond is not None:
                cond, _ = self.lower_rvalue(stmt.cond, scopes, cond_ops)
                pred = self._to_pred(cond, cond_ops)
            else:
                pred = Imm(True, "pred")
            body_ops = self._loop_body(stmt.body, scopes)
            step_ops: list = []
            if stmt.step is not None:
                self.lower_expr_effects(stmt.step, scopes, step_ops)
            ops.append(LoopOp(cond_ops, pred, body_ops, step_ops))
            scopes.pop()
            return ops
        if isinstance(stmt, A.Return):
            ops = []
            if stmt.value is not None:
                # value returns only occur in inlined __device__ functions,
                # which are handled by _inline_call; in a kernel body a value
                # return is ignored (CUDA kernels are void).
                self.lower_rvalue(stmt.value, scopes, ops)
            ops.append(RetOp())
            return ops
        if isinstance(stmt, (A.Break, A.Continue)):
            if not self._loops:
                raise LowerError(f"{type(stmt).__name__.lower()} outside a "
                                 "loop", stmt.loc)
            return [BreakOp() if isinstance(stmt, A.Break) else ContinueOp()]
        if isinstance(stmt, A.PragmaStmt):
            raise LowerError(
                f"unlowered pragma in device code: #pragma {stmt.text}", stmt.loc
            )
        raise LowerError(f"unsupported device statement {type(stmt).__name__}",
                         getattr(stmt, "loc", None))

    def _loop_body(self, body: A.Stmt, scopes) -> list:
        self._loops += 1
        try:
            return self.lower_block(body, scopes)
        finally:
            self._loops -= 1

    def _lower_decl(self, stmt: A.DeclStmt, scopes: list[dict[str, _Var]]) -> list:
        ops: list = []
        for d in stmt.decls:
            shared = "__shared__" in d.quals
            ctype = d.type
            addr_taken = d.name in getattr(self, "_addr_taken", frozenset())
            if addr_taken and not shared and not isinstance(ctype, (ArrayType, StructType)):
                # demote to per-thread local memory so '&name' is meaningful
                size = ctype.sizeof()
                align = max(ctype.alignof(), 4)
                self.local_offset = (self.local_offset + align - 1) // align * align
                offset = self.local_offset
                self.local_offset += size
                addr_reg = self.regs.new("u64", d.name + "_laddr")
                ops.append(CallOp(addr_reg, "__local_base", [Imm(offset, "s64")]))
                scopes[-1][d.name] = _Var(ctype, addr=addr_reg, space="local")
                if d.init is not None:
                    value, vtype = self.lower_rvalue(d.init, scopes, ops)
                    self._store(addr_reg, ctype, "local", value, vtype, ops)
                continue
            if shared or isinstance(ctype, (ArrayType, StructType)):
                size = ctype.sizeof()
                align = max(ctype.alignof(), 4)
                if shared:
                    self.smem_offset = (self.smem_offset + align - 1) // align * align
                    offset = self.smem_offset
                    self.smem_offset += size
                    self.shared_layout[d.name] = (offset, size)
                    addr = Imm(SHARED_WINDOW_BASE + offset, "u64")
                    space = "shared"
                else:
                    self.local_offset = (self.local_offset + align - 1) // align * align
                    offset = self.local_offset
                    self.local_offset += size
                    addr_reg = self.regs.new("u64", d.name + "_laddr")
                    ops.append(CallOp(addr_reg, "__local_base", [Imm(offset, "s64")]))
                    addr = addr_reg
                    space = "local"
                scopes[-1][d.name] = _Var(ctype, addr=addr, space=space)
                if d.init is not None:
                    raise LowerError(
                        f"initializer on memory-homed device variable {d.name!r}", d.loc
                    )
                continue
            dtype = ctype_to_ir(ctype)
            reg = self.regs.new(dtype, d.name + "_")
            scopes[-1][d.name] = _Var(ctype, reg=reg)
            if d.init is not None:
                value, vtype = self.lower_rvalue(d.init, scopes, ops)
                value = self._convert(value, vtype, ctype, ops)
                ops.append(Mov(reg, value))
        return ops

    # -------------------------------------------------------------- expressions
    def lower_expr_effects(self, expr: A.Expr, scopes, ops: list) -> None:
        """Lower an expression evaluated for side effects."""
        self.lower_rvalue(expr, scopes, ops, want_value=False)

    def lower_rvalue(
        self, expr: A.Expr, scopes, ops: list, want_value: bool = True
    ) -> tuple[Operand, CType]:
        if isinstance(expr, A.IntLit):
            return Imm(expr.value, "s32" if -(2**31) <= expr.value < 2**31 else "s64"), INT
        if isinstance(expr, A.FloatLit):
            if expr.single:
                return Imm(float(expr.value), "f32"), FLOAT
            return Imm(float(expr.value), "f64"), DOUBLE
        if isinstance(expr, A.CharLit):
            return Imm(expr.value, "s32"), INT
        if isinstance(expr, A.StringLit):
            raise LowerError("string values only allowed as printf formats", expr.loc)
        if isinstance(expr, A.Ident):
            return self._lower_ident(expr, scopes, ops)
        if isinstance(expr, A.Member):
            return self._lower_member_rvalue(expr, scopes, ops)
        if isinstance(expr, A.Index):
            addr, ctype, space = self.lower_address(expr, scopes, ops)
            return self._load(addr, ctype, space, ops)
        if isinstance(expr, A.Unary):
            return self._lower_unary(expr, scopes, ops)
        if isinstance(expr, A.Binary):
            return self._lower_binary(expr, scopes, ops)
        if isinstance(expr, A.Assign):
            return self._lower_assign(expr, scopes, ops)
        if isinstance(expr, A.Cond):
            return self._lower_cond(expr, scopes, ops)
        if isinstance(expr, A.Comma):
            result: tuple[Operand, CType] = (Imm(0, "s32"), INT)
            for part in expr.parts:
                result = self.lower_rvalue(part, scopes, ops)
            return result
        if isinstance(expr, A.Call):
            return self._lower_call(expr, scopes, ops, want_value)
        if isinstance(expr, A.Cast):
            value, vtype = self.lower_rvalue(expr.operand, scopes, ops)
            if isinstance(expr.type, BasicType) and expr.type.is_void:
                return Imm(0, "s32"), INT
            return self._convert(value, vtype, expr.type, ops), expr.type
        if isinstance(expr, A.SizeofType):
            return Imm(expr.type.sizeof(), "s64"), BasicType("long", False)
        if isinstance(expr, A.SizeofExpr):
            ctype = self._static_type(expr.operand, scopes)
            return Imm(ctype.sizeof(), "s64"), BasicType("long", False)
        raise LowerError(f"unsupported device expression {type(expr).__name__}",
                         getattr(expr, "loc", None))

    # -- identifiers / special registers --------------------------------------
    def _find_var(self, name: str, scopes) -> Optional[_Var]:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def _lower_ident(self, expr: A.Ident, scopes, ops) -> tuple[Operand, CType]:
        var = self._find_var(expr.name, scopes)
        if var is not None:
            if var.reg is not None:
                return var.reg, var.ctype
            # memory-homed: arrays decay, structs yield their address
            if isinstance(var.ctype, ArrayType):
                return var.addr, PointerType(var.ctype.elem)
            if isinstance(var.ctype, StructType):
                return var.addr, PointerType(var.ctype)
            addr = var.addr
            return self._load(addr, var.ctype, var.space, ops)
        if expr.name in self.module_globals:
            gtype = self.module_global_types.get(expr.name)
            if gtype is None:
                return GlobalAddr(expr.name), PointerType(BasicType("char"))
            if isinstance(gtype, ArrayType):
                return GlobalAddr(expr.name), PointerType(gtype.elem)
            if isinstance(gtype, StructType):
                return GlobalAddr(expr.name), PointerType(gtype)
            # scalar device global: load its value
            return self._load(GlobalAddr(expr.name), gtype, "global", ops)
        raise LowerError(f"undeclared identifier {expr.name!r} in device code", expr.loc)

    def _lower_member_rvalue(self, expr: A.Member, scopes, ops) -> tuple[Operand, CType]:
        if isinstance(expr.base, A.Ident) and expr.base.name in _SREGS:
            if expr.name not in ("x", "y", "z"):
                raise LowerError(f"{expr.base.name} has no member "
                                 f"{expr.name!r}", expr.loc)
            reg = self.regs.new("u32", "sr")
            ops.append(Sreg(reg, f"{_SREGS[expr.base.name]}.{expr.name}"))
            return reg, BasicType("int", signed=False)
        addr, ctype, space = self.lower_address(expr, scopes, ops)
        return self._load(addr, ctype, space, ops)

    # -- addresses (lvalues) ------------------------------------------------------
    def lower_address(self, expr: A.Expr, scopes, ops) -> tuple[Operand, CType, str]:
        """Compute the byte address of an lvalue; returns (addr, type, space)."""
        if isinstance(expr, A.Ident):
            var = self._find_var(expr.name, scopes)
            if var is None:
                if expr.name in self.module_globals:
                    gtype = self.module_global_types.get(
                        expr.name, BasicType("char"))
                    return GlobalAddr(expr.name), gtype, "global"
                raise LowerError(f"undeclared identifier {expr.name!r}", expr.loc)
            if var.addr is None:
                raise LowerError(
                    f"cannot take the address of register variable {expr.name!r}"
                    " (device registers have no address)", expr.loc
                )
            return var.addr, var.ctype, var.space
        if isinstance(expr, A.Index):
            base, btype = self.lower_rvalue(expr.base, scopes, ops)
            space = self._space_of(expr.base, scopes)
            if isinstance(btype, ArrayType):
                btype = PointerType(btype.elem)
            if not isinstance(btype, PointerType):
                raise LowerError("subscript of non-pointer in device code", expr.loc)
            elem = btype.pointee
            idx, itype = self.lower_rvalue(expr.index, scopes, ops)
            idx64 = self._convert(idx, itype, BasicType("long"), ops)
            scaled = self.regs.new("s64", "off")
            ops.append(BinOp(scaled, "mul", idx64, Imm(elem.sizeof(), "s64")))
            addr = self.regs.new("u64", "addr")
            ops.append(BinOp(addr, "add", base, scaled))
            return addr, elem, space
        if isinstance(expr, A.Unary) and expr.op == "*":
            ptr, ptype = self.lower_rvalue(expr.operand, scopes, ops)
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.elem)
            if not isinstance(ptype, PointerType):
                raise LowerError("dereference of non-pointer", expr.loc)
            return ptr, ptype.pointee, self._space_of(expr.operand, scopes)
        if isinstance(expr, A.Member):
            if expr.arrow:
                base, btype = self.lower_rvalue(expr.base, scopes, ops)
                if isinstance(btype, PointerType):
                    stype = btype.pointee
                else:
                    raise LowerError("-> on non-pointer", expr.loc)
                space = self._space_of(expr.base, scopes)
            else:
                base, stype, space = self.lower_address(expr.base, scopes, ops)
            if isinstance(stype, PointerType) and isinstance(stype.pointee, StructType):
                stype = stype.pointee
            if not isinstance(stype, StructType):
                raise LowerError("member access on non-struct", expr.loc)
            offsets, _, _ = stype.layout()
            addr = self.regs.new("u64", "faddr")
            ops.append(BinOp(addr, "add", base, Imm(offsets[expr.name], "s64")))
            return addr, stype.field_type(expr.name), space
        raise LowerError(f"expression is not a device lvalue: {type(expr).__name__}",
                         getattr(expr, "loc", None))

    def _space_of(self, expr: A.Expr, scopes) -> str:
        """Best-effort static space classification (stats/ptx text only;
        execution uses generic addressing)."""
        if isinstance(expr, A.Ident):
            var = self._find_var(expr.name, scopes)
            if var is not None and var.addr is not None:
                return var.space
            return "global"
        if isinstance(expr, (A.Index, A.Member)) and not (
            isinstance(expr, A.Member) and expr.arrow
        ):
            base = expr.base
            return self._space_of(base, scopes)
        return "global"

    # -- loads/stores ---------------------------------------------------------
    def _load(self, addr: Operand, ctype: CType, space: str, ops) -> tuple[Operand, CType]:
        if isinstance(ctype, ArrayType):
            return addr, PointerType(ctype.elem)
        if isinstance(ctype, StructType):
            return addr, PointerType(ctype)
        dtype = ctype_to_ir(ctype)
        dst = self.regs.new(dtype, "ld")
        ops.append(Ld(dst, space, addr))
        if isinstance(ctype, PointerType):
            return dst, ctype
        return dst, ctype

    def _store(self, addr: Operand, ctype: CType, space: str, value: Operand,
               vtype: CType, ops) -> Operand:
        value = self._convert(value, vtype, ctype, ops)
        ops.append(St(space, addr, value, ctype_to_ir(ctype)))
        return value

    # -- operators ---------------------------------------------------------------
    def _lower_unary(self, expr: A.Unary, scopes, ops) -> tuple[Operand, CType]:
        op = expr.op
        if op == "&":
            addr, ctype, _space = self.lower_address(expr.operand, scopes, ops)
            return addr, PointerType(ctype)
        if op == "*":
            addr, ctype, space = self.lower_address(expr, scopes, ops)
            return self._load(addr, ctype, space, ops)
        if op in ("++", "--", "p++", "p--"):
            return self._lower_incdec(expr, scopes, ops)
        value, vtype = self.lower_rvalue(expr.operand, scopes, ops)
        if op == "+":
            return value, vtype
        if op == "-":
            vtype2 = promote(vtype)
            value = self._convert(value, vtype, vtype2, ops)
            dst = self.regs.new(ctype_to_ir(vtype2), "neg")
            ops.append(UnOp(dst, "neg", value))
            return dst, vtype2
        if op == "~":
            vtype2 = promote(vtype)
            if vtype2.is_floating:
                raise LowerError("operator ~ requires an integer operand",
                                 expr.loc)
            value = self._convert(value, vtype, vtype2, ops)
            dst = self.regs.new(ctype_to_ir(vtype2), "not")
            ops.append(UnOp(dst, "not", value))
            return dst, vtype2
        if op == "!":
            pred = self._to_pred(value, ops)
            dst = self.regs.new("pred", "ln")
            ops.append(UnOp(dst, "lnot", pred))
            result = self.regs.new("s32", "lnot32")
            ops.append(Cvt(result, dst))
            return result, INT
        raise LowerError(f"unsupported unary {op}", expr.loc)

    def _lower_incdec(self, expr: A.Unary, scopes, ops) -> tuple[Operand, CType]:
        delta = 1 if "+" in expr.op else -1
        target = expr.operand
        old, otype = self.lower_rvalue(target, scopes, ops)
        if isinstance(otype, PointerType):
            step = Imm(delta * otype.pointee.sizeof(), "s64")
        else:
            step = Imm(delta, ctype_to_ir(promote(otype)))
        new_t = otype if isinstance(otype, PointerType) else promote(otype)
        oldc = self._convert(old, otype, new_t, ops) if not isinstance(otype, PointerType) else old
        new = self.regs.new(ctype_to_ir(new_t), "inc")
        ops.append(BinOp(new, "add", oldc, step))
        self._assign_to(target, new, new_t, scopes, ops)
        if expr.op.startswith("p"):
            return old, otype
        return self.lower_rvalue(target, scopes, ops)

    def _lower_binary(self, expr: A.Binary, scopes, ops) -> tuple[Operand, CType]:
        op = expr.op
        if op in ("&&", "||"):
            self._require_pure(expr.right)
            lhs, _ = self.lower_rvalue(expr.left, scopes, ops)
            rhs, _ = self.lower_rvalue(expr.right, scopes, ops)
            lp = self._to_pred(lhs, ops)
            rp = self._to_pred(rhs, ops)
            dst = self.regs.new("pred", "lg")
            ops.append(BinOp(dst, "and" if op == "&&" else "or", lp, rp))
            result = self.regs.new("s32", "lg32")
            ops.append(Cvt(result, dst))
            return result, INT
        lhs, ltype = self.lower_rvalue(expr.left, scopes, ops)
        rhs, rtype = self.lower_rvalue(expr.right, scopes, ops)
        return self._binop(op, lhs, ltype, rhs, rtype, ops, expr.loc)

    def _binop(self, op, lhs, ltype, rhs, rtype, ops, loc) -> tuple[Operand, CType]:
        # pointer arithmetic
        lptr = isinstance(ltype, (PointerType, ArrayType))
        rptr = isinstance(rtype, (PointerType, ArrayType))
        if lptr or rptr:
            lt = ltype.decay() if lptr else ltype
            rt = rtype.decay() if rptr else rtype
            if op == "+" or op == "-":
                if lptr and rptr and op == "-":
                    diff = self.regs.new("s64", "pd")
                    ops.append(BinOp(diff, "sub", lhs, rhs))
                    out = self.regs.new("s64", "pdiv")
                    ops.append(BinOp(out, "div", diff, Imm(lt.pointee.sizeof(), "s64")))
                    return out, BasicType("long")
                ptr, ptype = (lhs, lt) if lptr else (rhs, rt)
                idx, itype = (rhs, rtype) if lptr else (lhs, ltype)
                idx64 = self._convert(idx, itype, BasicType("long"), ops)
                scaled = self.regs.new("s64", "ps")
                ops.append(BinOp(scaled, "mul", idx64, Imm(ptype.pointee.sizeof(), "s64")))
                out = self.regs.new("u64", "pa")
                ops.append(BinOp(out, "add" if op == "+" else "sub", ptr, scaled))
                return out, ptype
            if op in _CMP_OPS:
                dst = self.regs.new("pred", "pc")
                ops.append(BinOp(dst, _CMP_OPS[op], lhs, rhs))
                out = self.regs.new("s32", "pc32")
                ops.append(Cvt(out, dst))
                return out, INT
            raise LowerError(f"invalid pointer operation {op}", loc)
        common = usual_arithmetic(ltype, rtype)
        lhs = self._convert(lhs, ltype, common, ops)
        rhs = self._convert(rhs, rtype, common, ops)
        if op in _CMP_OPS:
            dst = self.regs.new("pred", "cmp")
            ops.append(BinOp(dst, _CMP_OPS[op], lhs, rhs))
            out = self.regs.new("s32", "cmp32")
            ops.append(Cvt(out, dst))
            return out, INT
        if op in _ARITH_OPS:
            if op in ("%", "<<", ">>", "&", "|", "^") and common.is_floating:
                raise LowerError(f"operator {op} requires integer operands", loc)
            dst = self.regs.new(ctype_to_ir(common), "t")
            ops.append(BinOp(dst, _ARITH_OPS[op], lhs, rhs))
            return dst, common
        raise LowerError(f"unsupported binary {op}", loc)

    def _lower_assign(self, expr: A.Assign, scopes, ops) -> tuple[Operand, CType]:
        value, vtype = self.lower_rvalue(expr.value, scopes, ops)
        if expr.op is not None:
            old, otype = self.lower_rvalue(expr.target, scopes, ops)
            value, vtype = self._binop(expr.op, old, otype, value, vtype, ops, expr.loc)
        return self._assign_to(expr.target, value, vtype, scopes, ops)

    def _assign_to(self, target: A.Expr, value: Operand, vtype: CType,
                   scopes, ops) -> tuple[Operand, CType]:
        if isinstance(target, A.Ident):
            var = self._find_var(target.name, scopes)
            if var is not None and var.reg is not None:
                converted = self._convert(value, vtype, var.ctype, ops)
                ops.append(Mov(var.reg, converted))
                return var.reg, var.ctype
        addr, ctype, space = self.lower_address(target, scopes, ops)
        stored = self._store(addr, ctype, space, value, vtype, ops)
        return stored, ctype

    def _lower_cond(self, expr: A.Cond, scopes, ops) -> tuple[Operand, CType]:
        cond, _ = self.lower_rvalue(expr.cond, scopes, ops)
        pred = self._to_pred(cond, ops)
        if self._is_pure(expr.then) and self._is_pure(expr.other):
            a, at = self.lower_rvalue(expr.then, scopes, ops)
            b, bt = self.lower_rvalue(expr.other, scopes, ops)
            common = at if isinstance(at, (PointerType, ArrayType)) else (
                bt if isinstance(bt, (PointerType, ArrayType)) else usual_arithmetic(at, bt)
            )
            a = self._convert(a, at, common, ops) if not isinstance(common, (PointerType, ArrayType)) else a
            b = self._convert(b, bt, common, ops) if not isinstance(common, (PointerType, ArrayType)) else b
            dtype = "u64" if isinstance(common, (PointerType, ArrayType)) else ctype_to_ir(common)
            dst = self.regs.new(dtype, "sel")
            ops.append(SelOp(dst, pred, a, b))
            return dst, common
        # side effects: lower via IfOp writing a temp
        then_ops: list = []
        a, at = self.lower_rvalue(expr.then, scopes, then_ops)
        else_ops: list = []
        b, bt = self.lower_rvalue(expr.other, scopes, else_ops)
        common = usual_arithmetic(at, bt) if at.is_arithmetic and bt.is_arithmetic else at
        dst = self.regs.new(ctype_to_ir(common), "condv")
        then_ops.append(Mov(dst, self._convert(a, at, common, then_ops)))
        else_ops.append(Mov(dst, self._convert(b, bt, common, else_ops)))
        ops.append(IfOp(pred, then_ops, else_ops))
        return dst, common

    # -- calls ---------------------------------------------------------------------
    def _lower_call(self, expr: A.Call, scopes, ops, want_value) -> tuple[Operand, CType]:
        if not isinstance(expr.func, A.Ident):
            raise LowerError("indirect calls unsupported in device code", expr.loc)
        name = expr.func.name
        if name == "printf":
            if not expr.args or not isinstance(expr.args[0], A.StringLit):
                raise LowerError("device printf requires a literal format", expr.loc)
            args = [self.lower_rvalue(a, scopes, ops)[0] for a in expr.args[1:]]
            ops.append(PrintfOp(expr.args[0].value, args))
            return Imm(0, "s32"), INT
        if name == "__syncthreads":
            ops.append(BarOp(Imm(0, "s32"), None))
            return Imm(0, "s32"), INT
        if name == "__bar_sync":
            b, _ = self.lower_rvalue(expr.args[0], scopes, ops)
            count = None
            if len(expr.args) > 1:
                count, _ = self.lower_rvalue(expr.args[1], scopes, ops)
            ops.append(BarOp(b, count))
            return Imm(0, "s32"), INT
        if name in ("atomicCAS", "atomicAdd", "atomicExch", "atomicMax", "atomicMin"):
            return self._lower_atomic(name, expr, scopes, ops)
        if name in ("__shfl_sync", "__shfl_down_sync", "__shfl_up_sync",
                    "__shfl_xor_sync"):
            # warp shuffles are value-polymorphic: the result has the
            # value operand's type, so the fixed-signature intrinsic path
            # does not fit — lower the call directly
            member, _mt = self.lower_rvalue(expr.args[0], scopes, ops)
            value, vtype = self.lower_rvalue(expr.args[1], scopes, ops)
            sel, st = self.lower_rvalue(expr.args[2], scopes, ops)
            sel = self._convert(sel, st, INT, ops)
            dst = self.regs.new(ctype_to_ir(vtype), "shfl")
            ops.append(CallOp(dst, name, [member, value, sel]))
            return dst, vtype
        if name.startswith("cudadev_atomic_red_"):
            # type-generic atomic RMW: like the hardware atomics, the
            # pointee type drives both the value conversion and the
            # returned-old-value type
            addr, ptype = self.lower_rvalue(expr.args[0], scopes, ops)
            if isinstance(ptype, ArrayType):
                ptype = ptype.decay()
            if not isinstance(ptype, PointerType):
                raise LowerError(
                    f"{name}: first argument must be a pointer", expr.loc)
            elem = ptype.pointee
            value, vtype = self.lower_rvalue(expr.args[1], scopes, ops)
            value = self._convert(value, vtype, elem, ops)
            dst = self.regs.new(ctype_to_ir(elem), "ared")
            ops.append(CallOp(dst, name, [addr, value]))
            return dst, elem
        if name in _MATH_UNOPS:
            value, vtype = self.lower_rvalue(expr.args[0], scopes, ops)
            single = name.endswith("f") or name in ("sqrtf",)
            ftype = FLOAT if name.endswith("f") else DOUBLE
            value = self._convert(value, vtype, ftype, ops)
            dst = self.regs.new(ctype_to_ir(ftype), "m")
            ops.append(UnOp(dst, _MATH_UNOPS[name], value))
            return dst, ftype
        if name in ("pow", "powf", "fmin", "fminf", "fmax", "fmaxf", "fmod", "fmodf"):
            ftype = FLOAT if name.endswith("f") else DOUBLE
            a, at = self.lower_rvalue(expr.args[0], scopes, ops)
            b, bt = self.lower_rvalue(expr.args[1], scopes, ops)
            a = self._convert(a, at, ftype, ops)
            b = self._convert(b, bt, ftype, ops)
            dst = self.regs.new(ctype_to_ir(ftype), "m2")
            base = name.rstrip("f") if name not in ("fmodf",) else "fmod"
            op_map = {"pow": "pow", "fmin": "min", "fmax": "max", "fmod": "rem"}
            ops.append(BinOp(dst, op_map[base], a, b))
            return dst, ftype
        if name in self.intrinsics:
            return self._lower_intrinsic(name, expr, scopes, ops)
        if name in self._device_fns:
            return self._inline_call(self._device_fns[name], expr, scopes, ops)
        raise LowerError(f"call to unknown device function {name!r}", expr.loc)

    def _lower_atomic(self, name, expr: A.Call, scopes, ops) -> tuple[Operand, CType]:
        addr, ptype = self.lower_rvalue(expr.args[0], scopes, ops)
        if isinstance(ptype, ArrayType):
            ptype = ptype.decay()
        if not isinstance(ptype, PointerType):
            raise LowerError(f"{name}: first argument must be a pointer", expr.loc)
        elem = ptype.pointee
        dtype = ctype_to_ir(elem)
        a, at = self.lower_rvalue(expr.args[1], scopes, ops)
        a = self._convert(a, at, elem, ops)
        b = None
        if name == "atomicCAS":
            b_val, bt = self.lower_rvalue(expr.args[2], scopes, ops)
            b = self._convert(b_val, bt, elem, ops)
        dst = self.regs.new(dtype, "atom")
        op = {"atomicCAS": "cas", "atomicAdd": "add", "atomicExch": "exch",
              "atomicMax": "max", "atomicMin": "min"}[name]
        ops.append(Atom(dst, op, "global", addr, a, b, dtype))
        return dst, elem

    def _lower_intrinsic(self, name, expr: A.Call, scopes, ops) -> tuple[Operand, CType]:
        param_dtypes, ret_dtype = self.intrinsics[name]
        args: list[Operand] = []
        for i, arg in enumerate(expr.args):
            # function name used as a "function pointer": register-parallel
            if isinstance(arg, A.Ident) and arg.name in self._device_fns:
                fid = self.lower_subfunction(self._device_fns[arg.name])
                args.append(Imm(fid, "s32"))
                continue
            value, vtype = self.lower_rvalue(arg, scopes, ops)
            if i < len(param_dtypes) and param_dtypes[i] != "any":
                want = param_dtypes[i]
                have = value.dtype if isinstance(value, (Reg, Imm)) else "u64"
                if have != want:
                    conv = self.regs.new(want, "cv")
                    ops.append(Cvt(conv, value))
                    value = conv
            args.append(value)
        dst = None
        rtype: CType = INT
        if ret_dtype is not None:
            dst = self.regs.new(ret_dtype, "call")
            rtype = _IR_TO_CTYPE.get(ret_dtype, INT)
        ops.append(CallOp(dst, name, args))
        return (dst if dst is not None else Imm(0, "s32")), rtype

    def _inline_call(self, fn: A.FuncDef, expr: A.Call, scopes, ops) -> tuple[Operand, CType]:
        if fn.name in self._inline_stack:
            raise LowerError(f"recursive device function {fn.name!r} unsupported",
                             expr.loc)
        if len(expr.args) != len(fn.params):
            raise LowerError(f"{fn.name}: wrong argument count", expr.loc)
        self._inline_stack.append(fn.name)
        # the callee's break and continue cannot bind to the caller's loops
        loops, self._loops = self._loops, 0
        try:
            frame: dict[str, _Var] = {}
            for p, arg in zip(fn.params, expr.args):
                ctype = p.type.decay()
                value, vtype = self.lower_rvalue(arg, scopes, ops)
                value = self._convert(value, vtype, ctype, ops)
                reg = self.regs.new(ctype_to_ir(ctype), p.name + "_i")
                ops.append(Mov(reg, value))
                frame[p.name] = _Var(ctype, reg=reg)
            ret_type = fn.return_type
            has_value = not (isinstance(ret_type, BasicType) and ret_type.is_void)
            ret_reg = self.regs.new(ctype_to_ir(ret_type), "ret") if has_value else None
            rewriter = _ReturnRewriter(self, ret_reg, ret_type)
            body = rewriter.lower(fn.body, [frame])
            # single-iteration loop so early returns (lowered to Break) work
            once = self.regs.new("pred", "once")
            if rewriter.returned is not None:
                ops.append(Mov(rewriter.returned, Imm(False, "pred")))
            ops.append(Mov(once, Imm(True, "pred")))
            body.insert(0, Mov(once, Imm(False, "pred")))
            cond_reg = self.regs.new("pred", "oncec")
            loop = LoopOp([Mov(cond_reg, once)], cond_reg, body)
            ops.append(loop)
            if ret_reg is not None:
                return ret_reg, ret_type
            return Imm(0, "s32"), INT
        finally:
            self._inline_stack.pop()
            self._loops = loops

    # -- conversions / predicates -----------------------------------------------
    def _convert(self, value: Operand, from_t: CType, to_t: CType, ops) -> Operand:
        if isinstance(to_t, (PointerType, ArrayType)):
            return value  # addresses are u64 already
        if isinstance(from_t, (PointerType, ArrayType)):
            if isinstance(to_t, BasicType) and to_t.is_integer:
                pass  # fall through to dtype conversion
            else:
                return value
        want = ctype_to_ir(to_t)
        have = value.dtype if isinstance(value, (Reg, Imm, GlobalAddr)) else None
        if have == want:
            return value
        if isinstance(value, Imm):
            import numpy as np
            from repro.cuda.ptx.ir import np_dtype
            return Imm(np_dtype(want).type(value.value).item(), want)
        dst = self.regs.new(want, "cvt")
        ops.append(Cvt(dst, value))
        return dst

    def _to_pred(self, value: Operand, ops) -> Operand:
        if isinstance(value, (Reg, Imm)) and value.dtype == "pred":
            return value
        dst = self.regs.new("pred", "p")
        ops.append(BinOp(dst, "ne", value, Imm(0, value.dtype if isinstance(value, (Reg, Imm)) else "s64")))
        return dst

    # -- purity / typing helpers -----------------------------------------------
    #: calls safe to evaluate eagerly under a wider mask (&&/|| lowering)
    _PURE_CALLS = frozenset(
        {"omp_get_thread_num", "omp_get_num_threads", "omp_get_team_num",
         "omp_get_num_teams", "omp_get_max_threads", "omp_is_initial_device",
         "cudadev_in_masterwarp", "cudadev_is_masterthr"}
        | set(_MATH_UNOPS)
        | {"pow", "powf", "fmin", "fminf", "fmax", "fmaxf", "fmod", "fmodf"}
    )

    @classmethod
    def _is_pure(cls, expr: A.Expr) -> bool:
        for node in expr.walk():
            if isinstance(node, A.Call):
                if not (isinstance(node.func, A.Ident)
                        and node.func.name in cls._PURE_CALLS):
                    return False
            elif isinstance(node, (A.Assign, A.CudaKernelCall)):
                return False
            elif isinstance(node, A.Unary) and node.op in ("++", "--", "p++", "p--"):
                return False
        return True

    def _require_pure(self, expr: A.Expr) -> None:
        if not self._is_pure(expr):
            raise LowerError(
                "side effects in the right operand of &&/|| are unsupported "
                "in device code (SIMT eager evaluation)", expr.loc
            )

    def _static_type(self, expr: A.Expr, scopes) -> CType:
        if isinstance(expr, A.Ident):
            var = self._find_var(expr.name, scopes)
            if var is not None:
                return var.ctype
        ops_scratch: list = []
        _, ctype = self.lower_rvalue(expr, scopes, ops_scratch)
        return ctype


class _ReturnRewriter:
    """Lowers an inlined function body, turning ``return`` into
    (optional value mov; BreakOp) inside the single-iteration loop.

    A ``BreakOp`` leaves only the innermost loop, so a return inside a
    loop of the callee also sets the call's ``returned`` predicate, and
    every callee loop that holds such a return is followed by
    ``if (returned) break``: the lanes that returned leave each enclosing
    loop in turn, up to the wrapper loop."""

    def __init__(self, lowerer: KernelLowerer, ret_reg, ret_type):
        self.lowerer = lowerer
        self.ret_reg = ret_reg
        self.ret_type = ret_type
        #: the ``returned`` predicate, made by the first return in a loop
        self.returned: Optional[Reg] = None
        self._loop_returns = 0

    def lower(self, stmt: A.Stmt, scopes) -> list:
        original = self.lowerer.lower_stmt
        rewriter = self

        def patched(s, sc):
            if isinstance(s, A.Return):
                ops: list = []
                if s.value is not None and rewriter.ret_reg is not None:
                    value, vtype = rewriter.lowerer.lower_rvalue(s.value, sc, ops)
                    value = rewriter.lowerer._convert(value, vtype, rewriter.ret_type, ops)
                    ops.append(Mov(rewriter.ret_reg, value))
                if rewriter.lowerer._loops:
                    if rewriter.returned is None:
                        rewriter.returned = rewriter.lowerer.regs.new(
                            "pred", "returned")
                    rewriter._loop_returns += 1
                    ops.append(Mov(rewriter.returned, Imm(True, "pred")))
                ops.append(BreakOp())
                return ops
            before = rewriter._loop_returns
            ops = original(s, sc)
            if (isinstance(s, (A.For, A.While, A.DoWhile))
                    and rewriter._loop_returns != before):
                ops.append(IfOp(rewriter.returned, [BreakOp()], []))
            return ops

        self.lowerer.lower_stmt = patched  # type: ignore[method-assign]
        try:
            return self.lowerer.lower_block(stmt, scopes)
        finally:
            self.lowerer.lower_stmt = original  # type: ignore[method-assign]


_IR_TO_CTYPE = {
    "s32": INT, "u32": BasicType("int", False), "s64": BasicType("long"),
    "u64": BasicType("long", False), "f32": FLOAT, "f64": DOUBLE,
    "s8": BasicType("char"), "u8": BasicType("char", False),
}


def lower_translation_unit(
    unit: A.TranslationUnit,
    intrinsic_sigs: dict[str, tuple[tuple[str, ...], Optional[str]]],
    module_name: str = "module",
    smem_reserved: int = 0,
    arch: str = "sm_53",
) -> ModuleIR:
    """Compile all ``__global__`` functions in ``unit`` into a ModuleIR."""
    module_globals: dict[str, int] = {}
    for decl in unit.decls:
        if isinstance(decl, A.GlobalDecl):
            for d in decl.decls:
                if "__device__" in d.quals or "__constant__" in d.quals:
                    module_globals[d.name] = d.type.sizeof()
    module = ModuleIR(module_name, arch=arch, globals_=module_globals)
    for decl in unit.decls:
        if isinstance(decl, A.FuncDef) and "__global__" in decl.quals:
            lowerer = KernelLowerer(unit, intrinsic_sigs, module_globals,
                                    smem_reserved=smem_reserved)
            module.kernels[decl.name] = lowerer.lower_kernel(decl)
    return module
