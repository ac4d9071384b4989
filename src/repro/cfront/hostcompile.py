"""Closure-compiled host fast path for the C interpreter.

The host-code analogue of the kernel fast path (``cuda/sim/compile.py``):
whole loop nests and whole functions of the recognised C subset are lowered
to vectorized numpy execution plans instead of being tree-walked cell by
cell.  It generalizes the original single-loop affine vectorizer to

* multi-statement loop bodies (several array assignments + reductions),
* nested loops (outer loops iterate in Python, inner loops run vectorized),
* scalar accumulators (``s += a[i]*b[i]``) and scalar temps/decls,
* whole ``*_hostfn`` twins / init / verify functions, compiled per-function
  with fallback to the tree-walk interpreter when a construct is
  unsupported.

Semantics are *bit-identical* to the tree-walk interpreter by construction:

* all intermediate arithmetic is done in float64 / int64 (the tree-walker
  computes on Python floats/ints), values are rounded to the cell dtype
  only where the tree-walker stores,
* single-cell reductions accumulate exactly like the sequential loop:
  float64 accumulators use ``ufunc.accumulate`` (sequential by definition),
  int ``+,-,*`` accumulate in int64 and wrap once at the store (exact: the
  mod-2^n reduction is a ring homomorphism), float32 and int-division
  accumulators use a sequential fold with per-step rounding,
* vectorized math calls are restricted to functions whose numpy ufunc is
  per-element identical to the scalar libm native (sqrt/fabs/floor/ceil/
  fmin/fmax/fmod); transcendentals (exp/log/sin/cos/tan/pow) may differ in
  the last ulp between numpy's SIMD routines and ``math.*``, so they are
  vectorized only when the mode is not ``verify``.

Modes (``REPRO_HOST_FASTPATH``, mirrored by ``OmpiConfig.host_fastpath``):

* ``on``      (default) compile what is supported, tree-walk the rest
* ``off``     pure tree-walk interpreter (no vectorization at all)
* ``verify``  run every compiled region twice — compiled and tree-walked —
              and require bit-identical memory; the tree-walk result wins.

Safety model: a region is only committed after a *structural validation*
pass that resolves every identifier/type without reading memory, so plans
that cannot execute bail out before any store.  Loops whose vector safety
is data-dependent (non-affine store indices) are only taken at the top
statement level, where a dry pass performs the runtime checks before any
memory is modified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import ArrayType, BasicType, CType, PointerType
from repro.cfront.errors import InterpError
from repro.cfront.unparse import unparse
from repro.settings import parse_mode


class _Bail(Exception):
    """Internal: construct unsupported; fall back to the tree-walker."""


class _BailDry(_Bail):
    """Raised by the runtime-checked dry pass, always before any store."""


class HostFastpathVerifyError(InterpError):
    """verify mode found a divergence between compiled and tree-walk runs."""


def resolve_host_fastpath(value: Optional[str]) -> str:
    """A host fast-path mode (``None`` is the default, ``on``)."""
    return parse_mode(value or "on")


#: numpy ufuncs per-element identical to the scalar natives in builtins.py
_VEC_MATH_EXACT = {
    "sqrt": np.sqrt, "sqrtf": np.sqrt, "fabs": np.abs, "fabsf": np.abs,
    "floor": np.floor, "floorf": np.floor, "ceil": np.ceil, "ceilf": np.ceil,
    "fmin": np.minimum, "fmax": np.maximum, "fmod": np.fmod,
}
#: correct to ~1 ulp but not guaranteed bit-identical to libm
_VEC_MATH_APPROX = {
    "exp": np.exp, "expf": np.exp, "log": np.log, "logf": np.log,
    "sin": np.sin, "sinf": np.sin, "cos": np.cos, "cosf": np.cos,
    "tan": np.tan, "pow": np.power, "powf": np.power,
}
#: pure scalar natives callable from compiled scalar expressions
_PURE_NATIVES = frozenset(_VEC_MATH_EXACT) | frozenset(_VEC_MATH_APPROX)

_SCALAR_OPS = frozenset({"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"})
_REDUCE_OPS = frozenset({"+", "-", "*", "/"})
_REDUCE_UFUNC = {"+": np.add, "-": np.subtract, "*": np.multiply,
                 "/": np.divide}

_UNSEEN = object()
_MISSING = object()


# --------------------------------------------------------------------------
# plan representation
# --------------------------------------------------------------------------

@dataclass
class ArrSpec:
    """``A[f(...)] (op)= expr`` — array store, vector or scalar."""
    target: A.Index
    op: Optional[str]
    value: A.Expr
    dest: str            # 'distinct' | 'cell' | 'general'
    base: str            # outermost base array name
    ttext: str           # unparse of the target (dependence discipline)
    indices: list        # index exprs, innermost first


@dataclass
class SetSpec:
    """``s (op)= expr`` — scalar assignment (reduction when vectorized)."""
    name: str
    op: Optional[str]
    value: A.Expr


@dataclass
class DeclSpec:
    decls: list          # (name, ctype, init expr | None)


@dataclass
class LoopSpec:
    var: str
    init: Optional[tuple]        # ('decl', ctype, expr|None) | ('set', expr)
    cond_op: str                 # '<' | '<='
    bound: A.Expr
    step: int
    items: list                  # ArrSpec | SetSpec | DeclSpec | LoopSpec
    vector: bool
    strict: bool
    written: set = field(default_factory=set)


@dataclass
class FnSpec:
    name: str
    params: list                 # (name, decayed ctype)
    items: list                  # DeclSpec | SetSpec | ArrSpec | LoopSpec
    ret: Optional[A.Expr]        # None = void / no return value
    has_ret: bool = False


# --------------------------------------------------------------------------
# analysis (pure AST, cached per Machine by id(node))
# --------------------------------------------------------------------------

def _mentions(expr: A.Expr, var: str) -> bool:
    return any(isinstance(n, A.Ident) and n.name == var for n in expr.walk())


def _base_key(index: A.Index) -> Optional[str]:
    base = index.base
    while isinstance(base, A.Index):
        base = base.base
    return base.name if isinstance(base, A.Ident) else None


def _expr_ok(expr: A.Expr, allow_approx: bool, vector: bool) -> bool:
    """Structural whitelist for compiled value expressions."""
    for n in expr.walk():
        if isinstance(n, (A.IntLit, A.FloatLit, A.CharLit, A.Ident,
                          A.Index, A.Cond)):
            continue
        if isinstance(n, A.Binary):
            if n.op in ("&&", "||"):
                if vector:
                    return False
                continue
            if n.op in _SCALAR_OPS or n.op in ("<", ">", "<=", ">=", "==", "!="):
                continue
            return False
        if isinstance(n, A.Unary):
            if n.op in ("-", "+", "!", "~"):
                continue
            if n.op == "*" and not vector:
                continue
            return False
        if isinstance(n, A.Cast):
            if isinstance(n.type, BasicType):
                continue
            if isinstance(n.type, PointerType) and not vector:
                continue
            return False
        if isinstance(n, A.Call):
            if not isinstance(n.func, A.Ident):
                return False
            name = n.func.name
            if vector:
                if name in _VEC_MATH_EXACT:
                    continue
                if allow_approx and name in _VEC_MATH_APPROX:
                    continue
                return False
            if name in _PURE_NATIVES:
                continue
            return False
        return False
    # index chains must bottom out in a plain identifier
    for n in expr.walk():
        if isinstance(n, A.Index) and _base_key(n) is None:
            return False
    return True


def _affine_coeff(expr: A.Expr, var: str) -> Optional[int]:
    """Net literal coefficient of ``var`` if ``expr`` is affine in it."""
    if isinstance(expr, A.Ident):
        return 1 if expr.name == var else 0
    if isinstance(expr, (A.IntLit, A.CharLit)):
        return 0
    if isinstance(expr, A.Binary):
        if expr.op in ("+", "-"):
            lc = _affine_coeff(expr.left, var)
            rc = _affine_coeff(expr.right, var)
            if lc is None or rc is None:
                return None
            return lc + rc if expr.op == "+" else lc - rc
        if expr.op == "*":
            lm, rm = _mentions(expr.left, var), _mentions(expr.right, var)
            if not lm and not rm:
                return 0
            if lm and rm:
                return None
            dep, other = (expr.left, expr.right) if lm else (expr.right, expr.left)
            c = _affine_coeff(dep, var)
            if c is None or not isinstance(other, A.IntLit):
                return None
            return c * other.value
        return 0 if not _mentions(expr, var) else None
    if isinstance(expr, A.Unary):
        if expr.op == "-":
            c = _affine_coeff(expr.operand, var)
            return None if c is None else -c
        if expr.op == "+":
            return _affine_coeff(expr.operand, var)
        return 0 if not _mentions(expr, var) else None
    if isinstance(expr, A.Cast):
        if isinstance(expr.type, BasicType) and expr.type.is_integer:
            return _affine_coeff(expr.operand, var)
        return None
    return 0 if not _mentions(expr, var) else None


def _loop_header(stmt: A.For):
    init = stmt.init
    if isinstance(init, A.ExprStmt) and isinstance(init.expr, A.Assign) \
            and init.expr.op is None and isinstance(init.expr.target, A.Ident):
        return init.expr.target.name, ("set", init.expr.value)
    if isinstance(init, A.DeclStmt) and len(init.decls) == 1:
        d = init.decls[0]
        if d.init is not None and isinstance(d.type, BasicType) \
                and d.type.is_integer and d.storage is None:
            return d.name, ("decl", d.type, d.init)
        return None
    if init is None and isinstance(stmt.cond, A.Binary) \
            and isinstance(stmt.cond.left, A.Ident):
        return stmt.cond.left.name, None
    return None


def _loop_step(step: Optional[A.Expr], var: str) -> Optional[int]:
    if step is None:
        return None
    if isinstance(step, A.Unary) and step.op in ("++", "p++") \
            and isinstance(step.operand, A.Ident) and step.operand.name == var:
        return 1
    if isinstance(step, A.Assign) and isinstance(step.target, A.Ident) \
            and step.target.name == var:
        if step.op == "+" and isinstance(step.value, A.IntLit):
            return step.value.value
        if step.op is None and isinstance(step.value, A.Binary) \
                and step.value.op == "+" \
                and isinstance(step.value.left, A.Ident) \
                and step.value.left.name == var \
                and isinstance(step.value.right, A.IntLit):
            return step.value.right.value
    return None


def _invariant_names(expr: A.Expr) -> Optional[set]:
    names = set()
    for n in expr.walk():
        if isinstance(n, (A.Index, A.Call, A.Assign, A.Member, A.Comma,
                          A.StringLit, A.CudaKernelCall, A.SizeofExpr)):
            return None
        if isinstance(n, A.Unary) and n.op not in ("-", "+", "!", "~"):
            return None
        if isinstance(n, A.Ident):
            names.add(n.name)
    return names


def _make_arr_spec(a: A.Assign, var: str, allow_approx: bool) -> Optional[ArrSpec]:
    if a.op is not None and a.op not in _SCALAR_OPS:
        return None
    indices = []
    node = a.target
    while isinstance(node, A.Index):
        if not _expr_ok(node.index, allow_approx, vector=True):
            return None
        indices.append(node.index)
        node = node.base
    if not isinstance(node, A.Ident) or node.name == var:
        return None
    if not _expr_ok(a.value, allow_approx, vector=True):
        return None
    dep = [ix for ix in indices if _mentions(ix, var)]
    if not dep:
        dest = "cell"
    elif len(dep) == 1:
        c = _affine_coeff(dep[0], var)
        if c is None:
            dest = "general"
        elif c == 0:
            dest = "cell"
        else:
            dest = "distinct"
    else:
        dest = "general"
    return ArrSpec(a.target, a.op, a.value, dest, node.name,
                   unparse(a.target).strip(), indices)


def _read_indices(spec: ArrSpec):
    """Index nodes this statement *reads* (value + subscript expressions)."""
    out = [n for n in spec.value.walk() if isinstance(n, A.Index)]
    for ix in spec.indices:
        out.extend(n for n in ix.walk() if isinstance(n, A.Index))
    return out


def _try_vector(items: list, allow_approx: bool):
    """Classify a loop body as one vector pass; None if ineligible."""
    arrs, order = [], []
    red_names = set()
    for it in items:
        if isinstance(it, ArrSpec):
            arrs.append(it)
            order.append(it)
        elif isinstance(it, SetSpec) and it.op in _REDUCE_OPS \
                and _expr_ok(it.value, allow_approx, vector=True):
            if it.name in red_names:
                return None
            red_names.add(it.name)
            order.append(it)
        else:
            return None
    if not order:
        return None
    # reduction accumulators must not be read/written anywhere else
    for name in red_names:
        for it in order:
            exprs = [it.value]
            if isinstance(it, ArrSpec):
                exprs += it.indices
            for e in exprs:
                if _mentions(e, name):
                    return None
    # one write shape per base; reads of a written base must match it exactly
    wtext = {}
    for a2 in arrs:
        if a2.base in wtext and wtext[a2.base] != a2.ttext:
            return None
        wtext[a2.base] = a2.ttext
    reads = []
    for it in order:
        if isinstance(it, ArrSpec):
            reads.extend(_read_indices(it))
        else:
            reads.extend(n for n in it.value.walk() if isinstance(n, A.Index))
    for n in reads:
        k = _base_key(n)
        if k in wtext and unparse(n).strip() != wtext[k]:
            return None
    # single-cell stores: a reduction must be the only statement, and a
    # plain cell store must not be read back (its value evolves with i)
    for a2 in arrs:
        if a2.dest != "cell":
            continue
        if a2.op is not None:
            if a2.op not in _REDUCE_OPS or len(order) != 1:
                return None
        else:
            for n in reads:
                if _base_key(n) == a2.base:
                    return None
    strict = all(a2.dest != "general" for a2 in arrs)
    return order, strict


def _analyze_loop(stmt: A.For, allow_approx: bool, top: bool) -> Optional[LoopSpec]:
    if stmt.cond is None or stmt.body is None:
        return None
    header = _loop_header(stmt)
    if header is None:
        return None
    var, init = header
    cond = stmt.cond
    if not (isinstance(cond, A.Binary) and cond.op in ("<", "<=")):
        return None
    if not (isinstance(cond.left, A.Ident) and cond.left.name == var):
        return None
    bound_names = _invariant_names(cond.right)
    if bound_names is None or var in bound_names:
        return None
    if init is not None and init[0] == "set" \
            and not _expr_ok(init[1], allow_approx, vector=False):
        return None
    if init is not None and init[0] == "decl" and init[2] is not None \
            and not _expr_ok(init[2], allow_approx, vector=False):
        return None
    step = _loop_step(stmt.step, var)
    if step is None or step <= 0:
        return None
    stmts = stmt.body.body if isinstance(stmt.body, A.Compound) else [stmt.body]
    items: list = []
    written: set = set()
    has_loop = False
    for s in stmts:
        if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Assign):
            a = s.expr
            if isinstance(a.target, A.Index):
                arr = _make_arr_spec(a, var, allow_approx)
                if arr is None:
                    return None
                items.append(arr)
            elif isinstance(a.target, A.Ident):
                if a.op is not None and a.op not in _SCALAR_OPS:
                    return None
                if not _expr_ok(a.value, allow_approx, vector=False):
                    return None
                items.append(SetSpec(a.target.name, a.op, a.value))
                written.add(a.target.name)
            else:
                return None
        elif isinstance(s, A.DeclStmt):
            ds = []
            for d in s.decls:
                if d.storage is not None:
                    return None
                if not isinstance(d.type, (BasicType, PointerType)):
                    return None
                if d.init is not None \
                        and not _expr_ok(d.init, allow_approx, vector=False):
                    return None
                ds.append((d.name, d.type, d.init))
                written.add(d.name)
            items.append(DeclSpec(ds))
        elif isinstance(s, A.For):
            inner = _analyze_loop(s, allow_approx, top=False)
            if inner is None or not inner.strict:
                return None
            items.append(inner)
            written |= inner.written
            written.add(inner.var)
            has_loop = True
        else:
            return None
    if not items:
        return None
    if var in written or (bound_names & written):
        return None
    vec = _try_vector(items, allow_approx)
    if vec is not None:
        order, strict = vec
        if strict or top:
            return LoopSpec(var, init, cond.op, cond.right, step, order,
                            vector=True, strict=strict, written=written)
    # iterate mode: only worthwhile (and only exact-cost-safe) when the body
    # contains at least one compiled inner loop; a scalar-only body is
    # cheaper to tree-walk than to re-dispatch per iteration
    if not has_loop:
        return None
    return LoopSpec(var, init, cond.op, cond.right, step, items,
                    vector=False, strict=True, written=written)


def _analyze_fn(defn: A.FuncDef, allow_approx: bool) -> Optional[FnSpec]:
    if defn.body is None or not isinstance(defn.body, A.Compound):
        return None
    params = []
    for p in defn.params:
        ctype = p.type.decay() if p.type is not None else None
        if not isinstance(ctype, (BasicType, PointerType)):
            return None
        params.append((p.name, ctype))
    items: list = []
    ret = None
    has_ret = False
    body = defn.body.body
    for pos, s in enumerate(body):
        if isinstance(s, A.Return):
            if pos != len(body) - 1:
                return None
            if s.value is not None \
                    and not _expr_ok(s.value, allow_approx, vector=False):
                return None
            ret = s.value
            has_ret = True
            break
        if isinstance(s, A.DeclStmt):
            ds = []
            for d in s.decls:
                if d.storage is not None:
                    return None
                if not isinstance(d.type, (BasicType, PointerType)):
                    return None
                if d.init is not None \
                        and not _expr_ok(d.init, allow_approx, vector=False):
                    return None
                ds.append((d.name, d.type, d.init))
            items.append(DeclSpec(ds))
        elif isinstance(s, A.For):
            inner = _analyze_loop(s, allow_approx, top=False)
            if inner is None or not inner.strict:
                return None
            items.append(inner)
        elif isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Assign):
            a = s.expr
            if isinstance(a.target, A.Index):
                arr = _make_arr_spec(a, "\0nosuchvar", allow_approx)
                if arr is None:
                    return None
                items.append(arr)
            elif isinstance(a.target, A.Ident):
                if a.op is not None and a.op not in _SCALAR_OPS:
                    return None
                if not _expr_ok(a.value, allow_approx, vector=False):
                    return None
                items.append(SetSpec(a.target.name, a.op, a.value))
            else:
                return None
        else:
            return None
    return FnSpec(defn.name, params, items, ret, has_ret)


# --------------------------------------------------------------------------
# frames: virtualized scalar bindings over interpreter memory
# --------------------------------------------------------------------------

def _canon(value, ctype: CType):
    """Round a scalar exactly as a store+load through ``ctype`` would."""
    from repro.cfront.interp import Ptr
    if isinstance(ctype, (PointerType, ArrayType)):
        return value
    if not isinstance(ctype, BasicType):
        raise _Bail()
    if ctype.is_floating:
        return np.float32(value) if ctype.kind == "float" else float(value)
    if isinstance(value, Ptr):
        return value.addr
    iv = int(value)
    bits = 8 * ctype.sizeof()
    iv &= (1 << bits) - 1
    if ctype.signed and iv >= 1 << (bits - 1):
        iv -= 1 << bits
    return iv


class Frame:
    """Scalar variables of a compiled region, virtualized in Python.

    Memory-backed scalars are loaded on first use and flushed back on exit;
    loop variables and block-local declarations live purely in the frame.
    """

    __slots__ = ("machine", "env", "values", "ctypes", "bindings",
                 "dirty", "_shadow")

    def __init__(self, machine, env):
        self.machine = machine
        self.env = env
        self.values: dict = {}
        self.ctypes: dict = {}
        self.bindings: dict = {}
        self.dirty: set = set()
        self._shadow: list = []

    def _resolve_binding(self, name):
        for scope in reversed(self.env):
            if name in scope:
                return scope[name]
        return self.machine.globals.get(name)

    def ctype_of(self, name) -> CType:
        ct = self.ctypes.get(name)
        if ct is not None:
            return ct
        from repro.cfront.interp import VarBinding
        b = self._resolve_binding(name)
        if not isinstance(b, VarBinding):
            raise _Bail()
        self.ctypes[name] = b.ctype
        self.bindings[name] = b
        return b.ctype

    def get(self, name):
        if name in self.values:
            return self.values[name]
        self.ctype_of(name)
        b = self.bindings.get(name)
        if b is None:
            raise _Bail()
        v = self.machine.load_value(b.mem, b.addr, b.ctype)
        if not isinstance(v, (int, float, np.floating)) \
                and v.__class__.__name__ != "Ptr":
            raise _Bail()
        self.values[name] = v
        return v

    def set(self, name, value):
        ct = self.ctype_of(name)
        self.values[name] = _canon(value, ct)
        if self.bindings.get(name) is not None:
            self.dirty.add(name)

    def declare(self, name, ctype, value):
        self._shadow.append((
            name,
            self.values.get(name, _MISSING),
            self.ctypes.get(name, _MISSING),
            self.bindings.get(name, _MISSING),
            name in self.dirty,
        ))
        self.ctypes[name] = ctype
        self.bindings[name] = None
        self.dirty.discard(name)
        self.values[name] = _canon(value, ctype)

    def mark(self) -> int:
        return len(self._shadow)

    def release(self, mark: int) -> None:
        while len(self._shadow) > mark:
            name, v, ct, b, dirty = self._shadow.pop()
            for d, key in ((self.values, v), (self.ctypes, ct),
                           (self.bindings, b)):
                if key is _MISSING:
                    d.pop(name, None)
                else:
                    d[name] = key
            if dirty:
                self.dirty.add(name)
            else:
                self.dirty.discard(name)

    def flush(self) -> None:
        m = self.machine
        for name in self.dirty:
            b = self.bindings[name]
            m.store_value(b.mem, b.addr, b.ctype, self.values[name])
        self.dirty.clear()


# --------------------------------------------------------------------------
# validation: type-structural, no memory reads, no side effects
# --------------------------------------------------------------------------

def _vt_lookup(frame: Frame, vt: dict, name: str) -> CType:
    if name in vt:
        return vt[name]
    return frame.ctype_of(name)


def _validate_expr(frame: Frame, vt: dict, expr: A.Expr) -> None:
    """Check that every leaf of ``expr`` resolves to a supported type."""
    from repro.cfront.interp import FuncValue
    if isinstance(expr, (A.IntLit, A.FloatLit, A.CharLit)):
        return
    if isinstance(expr, A.Ident):
        ct = _vt_lookup(frame, vt, expr.name)
        if not isinstance(ct, (BasicType, PointerType, ArrayType)):
            raise _Bail()
        return
    if isinstance(expr, A.Binary):
        _validate_expr(frame, vt, expr.left)
        _validate_expr(frame, vt, expr.right)
        return
    if isinstance(expr, A.Unary):
        _validate_expr(frame, vt, expr.operand)
        return
    if isinstance(expr, A.Cast):
        _validate_expr(frame, vt, expr.operand)
        return
    if isinstance(expr, A.Cond):
        _validate_expr(frame, vt, expr.cond)
        _validate_expr(frame, vt, expr.then)
        _validate_expr(frame, vt, expr.other)
        return
    if isinstance(expr, A.Index):
        _validate_lvalue_chain(frame, vt, expr)
        return
    if isinstance(expr, A.Call):
        name = expr.func.name  # _expr_ok guaranteed Ident + whitelisted name
        if name in vt:
            raise _Bail()
        b = frame._resolve_binding(name)
        if b is not None and not (isinstance(b, FuncValue) and b.defn is None):
            raise _Bail()      # user function shadows the libm native
        if name not in frame.machine.natives:
            raise _Bail()
        for a in expr.args:
            _validate_expr(frame, vt, a)
        return
    raise _Bail()


def _validate_lvalue_chain(frame: Frame, vt: dict, expr: A.Index) -> CType:
    """Resolve the element type of an index chain; validates subscripts."""
    indices = []
    node = expr
    while isinstance(node, A.Index):
        _validate_expr(frame, vt, node.index)
        indices.append(node.index)
        node = node.base
    if not isinstance(node, A.Ident):
        raise _Bail()
    ct = _vt_lookup(frame, vt, node.name)
    for _ in indices:
        ct = ct.decay()
        if isinstance(ct, PointerType):
            ct = ct.pointee
        elif isinstance(ct, ArrayType):
            ct = ct.elem
        else:
            raise _Bail()
    return ct


def _validate_items(frame: Frame, vt: dict, items: list) -> None:
    for it in items:
        if isinstance(it, ArrSpec):
            elem = _validate_lvalue_chain(frame, vt, it.target)
            if not isinstance(elem, BasicType):
                raise _Bail()
            _validate_expr(frame, vt, it.value)
        elif isinstance(it, SetSpec):
            ct = _vt_lookup(frame, vt, it.name)
            if not isinstance(ct, (BasicType, PointerType)):
                raise _Bail()
            _validate_expr(frame, vt, it.value)
        elif isinstance(it, DeclSpec):
            for name, ctype, init in it.decls:
                if init is not None:
                    _validate_expr(frame, vt, init)
                vt[name] = ctype
        elif isinstance(it, LoopSpec):
            _validate_loop(frame, it, vt)
        else:
            raise _Bail()


def _validate_loop(frame: Frame, spec: LoopSpec, vtypes: dict) -> None:
    vt = dict(vtypes)
    if spec.init is not None and spec.init[0] == "decl":
        if spec.init[2] is not None:
            _validate_expr(frame, vt, spec.init[2])
        vt[spec.var] = spec.init[1]
    else:
        if spec.init is not None:
            _validate_expr(frame, vt, spec.init[1])
        ct = _vt_lookup(frame, vt, spec.var)
        if not (isinstance(ct, BasicType) and ct.is_integer):
            raise _Bail()
    _validate_expr(frame, vt, spec.bound)
    _validate_items(frame, vt, spec.items)


def _validate_fn(frame: Frame, spec: FnSpec) -> None:
    vt: dict = {}
    _validate_items(frame, vt, spec.items)
    if spec.ret is not None:
        _validate_expr(frame, vt, spec.ret)


# --------------------------------------------------------------------------
# scalar evaluation on frames (bit-identical to Machine.eval)
# --------------------------------------------------------------------------

def _scalar_eval(frame: Frame, e: A.Expr):
    from repro.cfront.interp import Machine, Ptr
    m = frame.machine
    t = type(e)
    if t is A.IntLit:
        return e.value
    if t is A.FloatLit:
        return np.float32(e.value) if e.single else e.value
    if t is A.CharLit:
        return e.value
    if t is A.Ident:
        return frame.get(e.name)
    if t is A.Binary:
        op = e.op
        if op == "&&":
            if not Machine._truthy(_scalar_eval(frame, e.left)):
                return 0
            return 1 if Machine._truthy(_scalar_eval(frame, e.right)) else 0
        if op == "||":
            if Machine._truthy(_scalar_eval(frame, e.left)):
                return 1
            return 1 if Machine._truthy(_scalar_eval(frame, e.right)) else 0
        return m.apply_binop(op, _scalar_eval(frame, e.left),
                             _scalar_eval(frame, e.right), e.loc)
    if t is A.Unary:
        op = e.op
        if op == "*":
            ptr = _scalar_eval(frame, e.operand)
            if not isinstance(ptr, Ptr):
                raise _Bail()
            return m.load_value(ptr.mem, ptr.addr, ptr.ctype)
        v = _scalar_eval(frame, e.operand)
        if op == "-":
            return -v
        if op == "+":
            return v
        if op == "!":
            return 0 if Machine._truthy(v) else 1
        if op == "~":
            return ~int(v)
        raise _Bail()
    if t is A.Index:
        mem, addr, ctype = _scalar_addr(frame, e)
        return m.load_value(mem, addr, ctype)
    if t is A.Cast:
        v = _scalar_eval(frame, e.operand)
        target = e.type
        if isinstance(target, PointerType):
            if isinstance(v, Ptr):
                return Ptr(v.mem, v.addr, target.pointee)
            addr = int(v)
            return m.make_ptr(addr, target.pointee) if addr else 0
        if isinstance(target, BasicType):
            if target.is_integer:
                return v.addr if isinstance(v, Ptr) else int(v)
            if target.is_floating:
                return np.float32(v) if target.kind == "float" else float(v)
        raise _Bail()
    if t is A.Cond:
        if Machine._truthy(_scalar_eval(frame, e.cond)):
            return _scalar_eval(frame, e.then)
        return _scalar_eval(frame, e.other)
    if t is A.Call:
        native = m.natives[e.func.name]
        args = [_scalar_eval(frame, a) for a in e.args]
        return native(m, args, e.loc)
    raise _Bail()


def _scalar_addr(frame: Frame, expr: A.Index):
    """(mem, addr, elem ctype) of an index chain — mirrors Machine.lvalue."""
    from repro.cfront.interp import Ptr
    base = _scalar_eval(frame, expr.base)
    if not isinstance(base, Ptr):
        raise _Bail()
    idx = int(_scalar_eval(frame, expr.index))
    return base.mem, base.addr + idx * base.ctype.sizeof(), base.ctype


# --------------------------------------------------------------------------
# vector evaluation (float64/int64 intermediates, tree-walk rounding)
# --------------------------------------------------------------------------

class _VecCtx:
    def __init__(self, frame: Frame, var: str, iv: np.ndarray):
        self.frame = frame
        self.var = var
        self.iv = iv

    def addr_vec(self, index: A.Index):
        from repro.cfront.interp import Ptr
        base = index.base
        idx = np.asarray(self.value_vec(index.index), dtype=np.int64)
        if isinstance(base, A.Index):
            mem, addrs, ctype = self.addr_vec(base)
            ctype = ctype.decay() if isinstance(ctype, PointerType) else ctype
            if not isinstance(ctype, ArrayType):
                raise _Bail()
            elem = ctype.elem
            return mem, addrs + idx * elem.sizeof(), elem
        if not isinstance(base, A.Ident) or base.name == self.var:
            raise _Bail()
        ptr = self.frame.get(base.name)
        if not isinstance(ptr, Ptr):
            raise _Bail()
        elem = ptr.ctype
        addrs = ptr.addr + idx * elem.sizeof()
        if np.isscalar(addrs) or getattr(addrs, "ndim", 0) == 0:
            addrs = np.full(self.iv.shape, addrs, dtype=np.int64)
        return ptr.mem, addrs, elem

    def value_vec(self, expr: A.Expr):
        """Typed vector evaluation mirroring the interpreter's C99 value
        semantics: float expressions stay float32 (per-op rounding), double
        is float64, integers are evaluated in int64 (the tree-walker uses
        unbounded Python ints and wraps at the store, which agrees with
        int64 intermediates for any realistic magnitude)."""
        t = type(expr)
        if t is A.IntLit or t is A.CharLit:
            return expr.value
        if t is A.FloatLit:
            return np.float32(expr.value) if expr.single \
                else np.float64(expr.value)
        if t is A.Ident:
            if expr.name == self.var:
                return self.iv
            v = self.frame.get(expr.name)
            if isinstance(v, np.floating):
                return v
            if isinstance(v, float):
                return np.float64(v)
            if isinstance(v, int):
                return v
            raise _Bail()
        if t is A.Binary:
            return _apply_np(expr.op, self.value_vec(expr.left),
                             self.value_vec(expr.right))
        if t is A.Unary:
            if expr.op == "-":
                return -np.asarray(self.value_vec(expr.operand))
            if expr.op == "+":
                return self.value_vec(expr.operand)
            if expr.op == "!":
                v = np.asarray(self.value_vec(expr.operand))
                return (v == 0).astype(np.int64)
            if expr.op == "~":
                return ~np.asarray(self.value_vec(expr.operand),
                                   dtype=np.int64)
            raise _Bail()
        if t is A.Cast:
            target = expr.type
            if not isinstance(target, BasicType):
                raise _Bail()
            value = np.asarray(self.value_vec(expr.operand))
            if target.is_integer:
                return np.trunc(value).astype(np.int64) \
                    if value.dtype.kind == "f" else value.astype(np.int64)
            if target.kind == "float":
                return value.astype(np.float32)
            return value.astype(np.float64)
        if t is A.Index:
            mem, addrs, ctype = self.addr_vec(expr)
            if not isinstance(ctype, BasicType):
                raise _Bail()
            raw = mem.gather(addrs, ctype.dtype())
            if ctype.is_floating:
                return raw
            return raw.astype(np.int64)
        if t is A.Call:
            name = expr.func.name
            fn = _VEC_MATH_EXACT.get(name) or _VEC_MATH_APPROX.get(name)
            if fn is None:
                raise _Bail()
            # the scalar natives compute in double (math.*), so vector math
            # runs in float64 regardless of argument type
            args = [np.asarray(self.value_vec(a), dtype=np.float64)
                    for a in expr.args]
            return fn(*args)
        if t is A.Cond:
            cond = np.asarray(self.value_vec(expr.cond))
            then = self.value_vec(expr.then)
            other = self.value_vec(expr.other)
            dt = _common_dtype(then, other)
            return np.where(cond != 0,
                            np.asarray(then, dtype=dt),
                            np.asarray(other, dtype=dt))
        raise _Bail()


def _rank(x) -> int:
    """C usual-arithmetic rank of a vector operand: 2=double, 1=float, 0=int."""
    if isinstance(x, (bool, int)):
        return 0
    if isinstance(x, float):
        return 2
    dt = np.asarray(x).dtype
    if dt == np.float64:
        return 2
    if dt == np.float32:
        return 1
    return 0


_RANK_DTYPE = {0: np.int64, 1: np.float32, 2: np.float64}


def _common_dtype(lhs, rhs) -> np.dtype:
    return np.dtype(_RANK_DTYPE[max(_rank(lhs), _rank(rhs))])


def _apply_np(op: str, lhs, rhs):
    dt = _common_dtype(lhs, rhs)
    lhs = np.asarray(lhs, dtype=dt)
    rhs = np.asarray(rhs, dtype=dt)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if dt.kind in "iu":
            return (np.sign(lhs) * np.sign(rhs)
                    * (np.abs(lhs) // np.abs(rhs))).astype(np.int64)
        return lhs / rhs
    if op == "%":
        if dt.kind == "f":   # the tree-walker truncates via int()
            lhs = np.trunc(lhs).astype(np.int64)
            rhs = np.trunc(rhs).astype(np.int64)
        r = np.abs(lhs) % np.abs(rhs)
        return np.where(lhs >= 0, r, -r).astype(np.int64)
    if op in ("<", ">", "<=", ">=", "==", "!="):
        fn = {"<": np.less, ">": np.greater, "<=": np.less_equal,
              ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal}[op]
        return fn(lhs, rhs).astype(np.int64)
    if op in ("<<", ">>", "&", "|", "^"):
        li = lhs.astype(np.int64)
        ri = rhs.astype(np.int64)
        return {"<<": li << ri, ">>": li >> ri, "&": li & ri,
                "|": li | ri, "^": li ^ ri}[op]
    raise _Bail()


# --------------------------------------------------------------------------
# exact sequential folds (single-cell / scalar reductions)
# --------------------------------------------------------------------------

def _c_idiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _fold(old, op: str, vals: np.ndarray, ctype: BasicType):
    """Fold ``old op= v`` over ``vals`` exactly like the sequential loop.

    With typed C99 semantics the common cases are a single sequential
    ``ufunc.accumulate`` in the accumulation dtype:

    * double cell: every step computes and stores in float64 — exact.
    * float cell with a float-typed value vector: every step computes *and*
      stores in float32 (the interpreter's per-op rounding) — exact, and
      identical to the simulated GPU's typed registers.
    * int cell with ``+,-,*``: the tree-walker computes unbounded and wraps
      at each store; mod-2^n is a ring homomorphism, so accumulating in
      int64 and wrapping once at the end is exact.

    The remaining cases (a double-typed addend into a float cell, integer
    division) double-round / renormalize per step and fold sequentially.
    """
    if vals.size == 0:
        return old
    if ctype.is_floating and ctype.kind == "double":
        seq = np.concatenate([np.asarray([old], dtype=np.float64),
                              np.asarray(vals, dtype=np.float64)])
        return float(_REDUCE_UFUNC[op].accumulate(seq)[-1])
    if ctype.is_floating:
        if vals.dtype == np.float64:
            # double addend into a float cell: the store rounds a float64
            # result each step — fold sequentially with per-step rounding
            f32, f64 = np.float32, np.float64
            acc = np.float32(old)
            if op == "+":
                for v in vals.tolist():
                    acc = f32(f64(acc) + v)
            elif op == "-":
                for v in vals.tolist():
                    acc = f32(f64(acc) - v)
            elif op == "*":
                for v in vals.tolist():
                    acc = f32(f64(acc) * v)
            else:
                for v in vals.tolist():
                    acc = f32(f64(acc) / v)
            return acc
        seq = np.concatenate([np.asarray([old], dtype=np.float32),
                              np.asarray(vals, dtype=np.float32)])
        return np.float32(_REDUCE_UFUNC[op].accumulate(seq)[-1])
    # integer accumulator
    if vals.dtype.kind == "f":
        # float addend: each step computes in float and truncates at the
        # store (int(acc + v)) — not a ring op, fold sequentially
        pyop = {"+": lambda a, v: a + v, "-": lambda a, v: a - v,
                "*": lambda a, v: a * v}.get(op)
        if pyop is None:
            raise _Bail()
        acc = int(old)
        for v in vals.tolist():
            acc = _canon(int(pyop(acc, v)), ctype)
        return acc
    if op in ("+", "-", "*"):
        seq = np.concatenate([np.asarray([old], dtype=np.int64),
                              np.asarray(vals, dtype=np.int64)])
        with np.errstate(over="ignore"):
            return _canon(int(_REDUCE_UFUNC[op].accumulate(seq)[-1]), ctype)
    if op == "/":
        acc = int(old)
        for v in vals.tolist():
            acc = _canon(_c_idiv(acc, int(v)), ctype)
        return acc
    raise _Bail()


# --------------------------------------------------------------------------
# executors
# --------------------------------------------------------------------------

def _iter_space(frame: Frame, spec: LoopSpec):
    start = int(frame.get(spec.var))
    stop = int(_scalar_eval(frame, spec.bound))
    stop_excl = stop + 1 if spec.cond_op == "<=" else stop
    return start, stop_excl


def _run_init(frame: Frame, spec: LoopSpec) -> None:
    kind = spec.init[0]
    if kind == "decl":
        _, ctype, init = spec.init
        v = _scalar_eval(frame, init) if init is not None else 0
        frame.declare(spec.var, ctype, v)
    else:
        frame.set(spec.var, _scalar_eval(frame, spec.init[1]))


def _exec_loop(machine, frame: Frame, spec: LoopSpec, run_init: bool) -> None:
    mark = frame.mark()
    try:
        if run_init and spec.init is not None:
            _run_init(frame, spec)
        if spec.vector:
            _run_vector(machine, frame, spec)
            return
        start, stop_excl = _iter_space(frame, spec)
        i = start
        while i < stop_excl:
            frame.set(spec.var, i)
            imark = frame.mark()
            try:
                _exec_items(machine, frame, spec.items)
            finally:
                frame.release(imark)
            i += spec.step
        frame.set(spec.var, i)
    finally:
        frame.release(mark)


def _exec_items(machine, frame: Frame, items: list) -> None:
    for it in items:
        if isinstance(it, ArrSpec):
            _exec_scalar_arr(machine, frame, it)
        elif isinstance(it, SetSpec):
            value = _scalar_eval(frame, it.value)
            if it.op is not None:
                value = machine.apply_binop(it.op, frame.get(it.name), value)
            frame.set(it.name, value)
        elif isinstance(it, DeclSpec):
            for name, ctype, init in it.decls:
                v = _scalar_eval(frame, init) if init is not None else 0
                frame.declare(name, ctype, v)
        elif isinstance(it, LoopSpec):
            _exec_loop(machine, frame, it, run_init=True)
        else:
            raise _Bail()


def _exec_scalar_arr(machine, frame: Frame, spec: ArrSpec) -> None:
    mem, addr, ctype = _scalar_addr(frame, spec.target)
    value = _scalar_eval(frame, spec.value)
    if spec.op is not None:
        old = machine.load_value(mem, addr, ctype)
        value = machine.apply_binop(spec.op, old, value)
    machine.store_value(mem, addr, ctype, value)


def _run_vector(machine, frame: Frame, spec: LoopSpec) -> None:
    start, stop_excl = _iter_space(frame, spec)
    iv = np.arange(start, stop_excl, spec.step, dtype=np.int64)
    ctx = _VecCtx(frame, spec.var, iv)
    if iv.size:
        if not spec.strict:
            _dry_check(ctx, spec)
        for it in spec.items:
            if isinstance(it, ArrSpec):
                _commit_arr(machine, ctx, it)
            else:  # SetSpec reduction
                vals = _broadcast(ctx, ctx.value_vec(it.value))
                ct = frame.ctype_of(it.name)
                frame.set(it.name, _fold(frame.get(it.name), it.op, vals, ct))
    frame.set(spec.var, start + len(iv) * spec.step)


def _broadcast(ctx: _VecCtx, value) -> np.ndarray:
    value = np.asarray(value)
    if value.ndim == 0:
        value = np.full(ctx.iv.shape, value)
    return value


def _dry_check(ctx: _VecCtx, spec: LoopSpec) -> None:
    """Runtime safety checks for data-dependent ('general') store indices.

    Performs only reads; raises _BailDry before anything is committed.
    """
    arrs = [it for it in spec.items if isinstance(it, ArrSpec)]
    for a in arrs:
        _, addrs, ctype = ctx.addr_vec(a.target)
        if not isinstance(ctype, BasicType):
            raise _BailDry()
        ctx.value_vec(a.value)
        uniq = np.unique(addrs).size
        if uniq == addrs.size:
            continue
        reads_target = any(
            isinstance(n, A.Index) and _base_key(n) == a.base
            for n in a.value.walk())
        if reads_target and a.op is None:
            raise _BailDry()   # stale gather of a multiply-written cell
        if a.op is not None and (uniq != 1 or len(spec.items) != 1
                                 or a.op not in _REDUCE_OPS):
            raise _BailDry()


def _commit_arr(machine, ctx: _VecCtx, spec: ArrSpec) -> None:
    mem, addrs, ctype = ctx.addr_vec(spec.target)
    if not isinstance(ctype, BasicType):
        raise _Bail()
    dtype = ctype.dtype()
    value = _broadcast(ctx, ctx.value_vec(spec.value))
    if spec.op is not None:
        single = spec.dest == "cell" or (
            spec.dest == "general" and np.unique(addrs).size == 1)
        if single:
            addr = int(addrs[0])
            old = machine.load_value(mem, addr, ctype)
            machine.store_value(mem, addr, ctype,
                                _fold(old, spec.op, value, ctype))
            return
        old = mem.gather(addrs, dtype)
        if not ctype.is_floating:
            old = old.astype(np.int64)
        value = _apply_np(spec.op, old, value)
    value = np.asarray(value)
    if ctype.is_integer and value.dtype.kind == "f":
        value = np.trunc(value)
    mem.scatter(addrs, dtype, value.astype(dtype, casting="unsafe"))


# --------------------------------------------------------------------------
# verify mode: differential execution with block snapshots
# --------------------------------------------------------------------------

def _snapshot(machine):
    return [(mem, mem.snapshot_blocks()) for mem in machine.spaces]


def _restore(machine, snap) -> None:
    for mem, blocks in snap:
        mem.restore_blocks(blocks)


def _diff_snapshots(fast, ref) -> Optional[str]:
    for (mem_f, blocks_f), (_, blocks_r) in zip(fast, ref):
        if blocks_f.keys() != blocks_r.keys():
            return f"{mem_f.name}: allocation sets differ"
        for addr, data_r in blocks_r.items():
            data_f = blocks_f[addr]
            if not np.array_equal(data_f, data_r):
                bad = int(np.nonzero(data_f != data_r)[0][0])
                return (f"{mem_f.name}: block {addr:#x} differs at byte "
                        f"{bad} (fastpath {data_f[bad]} != "
                        f"interp {data_r[bad]})")
    return None


def _treewalk_loop(machine, stmt: A.For, env) -> None:
    from repro.cfront.interp import _Break, _Continue
    while stmt.cond is None or machine._truthy(machine.eval(stmt.cond, env)):
        try:
            machine.exec_stmt(stmt.body, env)
        except _Break:
            break
        except _Continue:
            pass
        if stmt.step is not None:
            machine.eval(stmt.step, env)


def _exec_loop_verified(machine, frame: Frame, spec: LoopSpec,
                        stmt: A.For, env) -> bool:
    pre = _snapshot(machine)
    _exec_loop(machine, frame, spec, run_init=False)
    frame.flush()
    post_fast = _snapshot(machine)
    _restore(machine, pre)
    prev = machine.host_fastpath
    machine.host_fastpath = "off"
    try:
        _treewalk_loop(machine, stmt, env)
    finally:
        machine.host_fastpath = prev
    post_ref = _snapshot(machine)
    machine.host_stats["verified_regions"] += 1
    diff = _diff_snapshots(post_fast, post_ref)
    if diff:
        raise HostFastpathVerifyError(
            f"host fastpath verify: loop at {stmt.loc} diverged — {diff}")
    machine.host_stats["loop_fast"] += 1
    return True


def _results_equal(a, b) -> bool:
    from repro.cfront.interp import Ptr
    if isinstance(a, Ptr) or isinstance(b, Ptr):
        return isinstance(a, Ptr) and isinstance(b, Ptr) \
            and a.addr == b.addr and a.mem is b.mem
    if a is None or b is None:
        return a is b
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return type(a) is type(b) and (a == b or (a != a and b != b))
    return type(a) is type(b) and a == b


def _call_fn_verified(machine, frame: Frame, spec: FnSpec, fn, args, loc):
    pre = _snapshot(machine)
    result = _exec_fn(machine, frame, spec)
    frame.flush()
    post_fast = _snapshot(machine)
    _restore(machine, pre)
    prev = machine.host_fastpath
    machine.host_fastpath = "off"
    try:
        ref = machine._call_interpreted(fn, args, loc)
    finally:
        machine.host_fastpath = prev
    post_ref = _snapshot(machine)
    machine.host_stats["verified_regions"] += 1
    diff = _diff_snapshots(post_fast, post_ref)
    if diff is None and not _results_equal(result, ref):
        diff = f"return value {result!r} != {ref!r}"
    if diff:
        raise HostFastpathVerifyError(
            f"host fastpath verify: {spec.name}() diverged — {diff}")
    machine.host_stats["fn_fast"] += 1
    return ref


# --------------------------------------------------------------------------
# entry points (called from Machine)
# --------------------------------------------------------------------------

def exec_for_fastpath(machine, stmt: A.For, env) -> bool:
    """Execute an already-initialised ``for`` via a compiled plan.

    Returns True when fully executed (loop variable left at its final
    value); False to fall back to the tree-walker.  Called by
    ``Machine._exec_for`` after the init statement has run.
    """
    mode = machine.host_fastpath
    plans = machine._hc_loop_plans
    key = id(stmt)
    spec = plans.get(key, _UNSEEN)
    if spec is _UNSEEN:
        spec = _analyze_loop(stmt, allow_approx=(mode != "verify"), top=True)
        plans[key] = (stmt, spec)
    else:
        spec = spec[1]
    if spec is None:
        machine.host_stats["loop_fallback"] += 1
        return False
    frame = Frame(machine, env)
    try:
        _validate_loop(frame, spec, {})
    except _Bail:
        machine.host_stats["loop_fallback"] += 1
        return False
    if mode == "verify":
        return _exec_loop_verified(machine, frame, spec, stmt, env)
    try:
        _exec_loop(machine, frame, spec, run_init=False)
    except _BailDry:
        machine.host_stats["loop_fallback"] += 1
        return False
    except _Bail as exc:
        raise InterpError(
            f"host fastpath: internal bail after validation at {stmt.loc}"
        ) from exc
    frame.flush()
    machine.host_stats["loop_fast"] += 1
    return True


def _canon_arg(machine, arg, ctype: CType):
    from repro.cfront.interp import Ptr
    if isinstance(ctype, BasicType):
        if isinstance(arg, Ptr):
            raise _Bail()
        return _canon(arg, ctype)
    if isinstance(ctype, PointerType):
        if isinstance(arg, Ptr):
            return Ptr(arg.mem, arg.addr, ctype.pointee)
        addr = int(arg)
        return machine.make_ptr(addr, ctype.pointee) if addr else 0
    raise _Bail()


def _exec_fn(machine, frame: Frame, spec: FnSpec):
    _exec_items(machine, frame, spec.items)
    if spec.ret is not None:
        return _scalar_eval(frame, spec.ret)
    return None


def maybe_call_compiled(machine, fn, args, loc=None):
    """Try to run a user function as a compiled closure.

    Returns ``(True, result)`` when the function was executed compiled, or
    ``(False, None)`` to fall back to ``Machine._call_interpreted``.
    """
    defn = fn.defn
    plans = machine._hc_fn_plans
    key = id(defn)
    spec = plans.get(key, _UNSEEN)
    if spec is _UNSEEN:
        spec = _analyze_fn(
            defn, allow_approx=(machine.host_fastpath != "verify"))
        plans[key] = (defn, spec)
    else:
        spec = spec[1]
    if spec is None or len(args) != len(spec.params):
        machine.host_stats["fn_fallback"] += 1
        return False, None
    frame = Frame(machine, [])
    try:
        for (name, ctype), arg in zip(spec.params, args):
            frame.declare(name, ctype, _canon_arg(machine, arg, ctype))
        _validate_fn(frame, spec)
    except _Bail:
        machine.host_stats["fn_fallback"] += 1
        return False, None
    if machine.host_fastpath == "verify":
        return True, _call_fn_verified(machine, frame, spec, fn, args, loc)
    try:
        result = _exec_fn(machine, frame, spec)
    except _Bail as exc:
        raise InterpError(
            f"host fastpath: internal bail after validation in {spec.name}()"
        ) from exc
    frame.flush()
    machine.host_stats["fn_fast"] += 1
    return True, result

