"""Closure-compiled host fast path for the C interpreter.

The host-code analogue of the kernel fast path (``cuda/sim/compile.py``):
loops, loop nests and whole functions of the recognised C subset are
lowered to vectorized numpy execution plans and Python closures instead
of being tree-walked cell by cell.  A plan covers

* multi-statement loop bodies (array stores, folds, declared temps),
* scalar accumulators (``s += a[i]*b[i]``) and scalar temps/decls,
* whole functions, among them every ``main`` the OMPi host
  transformation emits (the *offload driver*), compiled once per program
  with fallback to the tree-walk interpreter when a construct is
  unsupported,
* rectangular two-level loop nests, run over their whole index grid.

**Compiled functions.**  :func:`_analyze_fn` compiles a function whose
body stays inside the subset: nested blocks, scalar and pointer
declarations with initialisers, scalar and array assignments (compound
ones too), ``if``/``else``, expression statements that call any native
(``ort_*``, ``printf``, ``exit``), ``for`` loops and a final ``return``.
Expressions add ``&x``, array decay, string literals, ``sizeof`` and
short-circuit ``&&``/``||``/``?:`` to the loop subset, and a native's
arguments are evaluated left to right.  Every statement and expression
becomes a closure over a :class:`Frame` when the program's plans are
built, so nothing dispatches on AST nodes at run time.  A ``for`` the
loop rules accept runs as a plan; any other ``for`` (gramschmidt's host
loop around its three target regions) runs its body one iteration at a
time as compiled statements.

The memory rule of a compiled function is *same heap, write-through,
read-cached*: every parameter and local gets the heap slot the tree walk
gives it, allocated and zeroed at its declaration and freed at scope
exit, so ``&k``, string literals and every host address a native sees
are the tree walk's.  Stores write through to the slot at once; reads
come from the frame.  A native may write memory (``ort_unmap`` copies
``checksum`` back), so after each call the cached values of globals and
of address-taken locals are dropped.

**One loop executor.**  Every compiled ``for`` is a nest of depth one or
two: a single loop is a nest without inner loops, whose statements run
over ``[i]``.  One rule (:func:`_analyze_nest`) decides what a nest may
do and one driver (:func:`_plan_nest`, then the passes of
:func:`_run_nest`) runs it.  A nest whose inner bounds and starts do not
depend on the outer loop runs as a sequence of *passes*, one per
statement, each over its own index grid: an outer-level statement over
``[i]``, an inner statement over ``[i, j]`` (axis values broadcast as
``(rows, 1)`` and ``(1, cols)``).  Running statement after statement
over all rows is loop distribution; it is legal because of the nest rule
below.  (A depth-one nest has one grid, so it runs every statement of a
chunk before the next chunk.)  Two more transformations make the paper's
PolyBench patterns fit:

* *folds*: a statement that updates fewer cells than its grid
  (``x2[i] += A[j*n+i]*y2[j]`` folds along ``j``, ``y[j] += ...`` along
  ``i``, ``s[0] += a[i]`` into one cell) runs as one ``ufunc.accumulate``
  along the fold axis, sequential per cell, so every cell keeps the
  tree-walk's fold order; a plain store into one cell keeps the last
  value;
* *scalar expansion*: a scalar declared in the outer body (atax's
  ``float t``, or a temp of a single loop) becomes a vector over the
  outer index; its inner fold accumulates along ``j`` and later
  statements read it per row.

The nest rule: each written array has one write shape; reads of a
written base use the identical subscript; an inner write that covers its
whole grid must be injective there and is read only from loops with the
same header; a write to fewer cells than its grid (a fold, or a plain
store whose last value wins) is touched by no other statement, and its
value does not read it; a scalar of the enclosing scope is touched only
by its fold, and an expanded scalar only by its own fold inside the loop
that folds it.
What the analysis cannot see is checked once per execution, before any
store: written subscripts must be affine with integer coefficients,
their strides injective, written arrays must not share an allocation
with another array the nest touches, and an axis fold must accumulate
exactly (double cell, float cell with float addends, int cell with int
``+ - *``).  A single loop whose store has no affine address
(``a[idx[i]] += ...``) gets a *dry pass* over the whole loop instead: its
subscripts must not read an array the loop writes, and its cells must be
distinct, or repeat only for a store that nothing else touches and that
keeps the last value or folds into one cell.

A nest that fails any of this runs per row: the outer loop iterates in
Python and each inner loop runs as a nest of depth one, its alias check,
affine addresses and checks worked out once per execution of the nest
and shifted to each row.  A single loop that fails runs one iteration at
a time, each statement compiled.

Every pass runs in chunks of about ``CHUNK`` grid cells (whole rows of a
2-D grid), so temporaries stay a few hundred KiB whatever the trip
count.  Folds carry their partial
result from chunk to chunk through the cell (exact: the stored value is
the accumulator's own dtype).  Subscripts that are affine in the loop
variables read and write ``LinearMemory`` through strided views with one
range check per chunk; other reads gather from per-element addresses.

Semantics are *bit-identical* to the tree-walk interpreter by construction:

* all intermediate arithmetic follows the interpreter's typed C99 rules
  (float stays float32, double is float64, integers compute in int64),
  values are rounded to the cell dtype only where the tree-walker stores,
* single-cell reductions accumulate exactly like the sequential loop:
  float64 accumulators use ``ufunc.accumulate`` (sequential by definition),
  int ``+,-,*`` accumulate in int64 and wrap once at the store (exact: the
  mod-2^n reduction is a ring homomorphism), float32 and int-division
  accumulators use a sequential fold with per-step rounding,
* vectorized math calls are restricted to functions whose numpy ufunc is
  per-element identical to the scalar libm native (sqrt/fabs/floor/ceil/
  fmin/fmax/fmod).  Transcendentals (exp/log/sin/cos/tan/pow) may differ
  in the last ulp between numpy's SIMD routines and ``math.*``, so a loop
  that calls them in a vector position is left to the tree walk; compiled
  scalar code calls the scalar natives themselves.

**Once per program.**  The analysis, the closures and the tree walk's
const-fold memo live in :class:`HostPlans`, which
``CompiledProgram.host_plans`` owns (built lazily, never pickled) and
every ``Machine`` of the program shares, the serving runtime's
per-request ones included.  A bare ``Machine(unit)`` builds its own.

Modes (``REPRO_HOST_FASTPATH``, mirrored by ``OmpiConfig.host_fastpath``):

* ``on``      (default) compile what is supported, tree-walk the rest
* ``off``     pure tree-walk interpreter (no vectorization at all)
* ``verify``  run every compiled region twice, compiled and tree-walked,
              and require identical allocation maps and bytes in every
              space; the tree-walk result wins.  A loop the tree walk
              hands over runs compiled first and then, from the same
              memory, tree-walked (:func:`repro.mem.differential_run`).
              A compiled function (a driver's natives launch kernels and
              move clocks) is tree-walked first with its natives
              recorded, then compiled against a replay of them
              (:func:`repro.mem.replay_run`).

Safety model: a region is only committed after a *structural validation*
pass that resolves every identifier/type without reading memory, so plans
that cannot execute bail out before any store.  A store whose cells
depend on memory read at the loop index (``a[idx[i]]``) is compiled only
in a loop the interpreter or a compiled function hands over whole, where
a refused dry pass falls back to running the loop one iteration at a
time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import (
    DOUBLE, FLOAT, INT, ArrayType, BasicType, CType, PointerType,
    usual_arithmetic,
)
from repro.cfront.errors import InterpError
from repro.cfront.interp import (
    FuncValue, Machine, Ptr, VarBinding, _literal_node, apply_binop,
)
from repro.cfront.unparse import unparse
from repro.mem import differential_run, replay_run
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


#: grid cells per vector chunk (a 2-D pass takes whole rows, at least one)
CHUNK = 1 << 16

#: numpy ufuncs per-element identical to the scalar natives in builtins.py
_VEC_MATH_EXACT = {
    "sqrt": np.sqrt, "sqrtf": np.sqrt, "fabs": np.abs, "fabsf": np.abs,
    "floor": np.floor, "floorf": np.floor, "ceil": np.ceil, "ceilf": np.ceil,
    "fmin": np.minimum, "fmax": np.maximum, "fmod": np.fmod,
}
#: pure scalar natives callable from compiled scalar expressions; every
#: other native may write memory or the machine's state
_PURE_NATIVES = frozenset(_VEC_MATH_EXACT) | frozenset({
    "exp", "expf", "log", "logf", "sin", "sinf", "cos", "cosf", "tan",
    "pow", "powf",
})

_SCALAR_OPS = frozenset({"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"})
_REDUCE_OPS = frozenset({"+", "-", "*", "/"})
_REDUCE_UFUNC = {"+": np.add, "-": np.subtract, "*": np.multiply,
                 "/": np.divide}

_UNSEEN = object()
_MISSING = object()

_truthy = Machine._truthy


# --------------------------------------------------------------------------
# per-program plans
# --------------------------------------------------------------------------

class HostPlans:
    """The host plans of one program, shared by all its Machines.

    Keyed by AST node identity (the plans hold ``unit``, so ids stay
    stable): loop and function plans, the closures of expressions that
    planning evaluates (:func:`_eval`), and the tree walk's const-fold
    memo (``Machine._eval_const_memo``).  Nothing here depends on a
    Machine's memory; what a run binds (globals, natives) it resolves
    per call."""

    def __init__(self, unit: A.TranslationUnit):
        self.unit = unit
        self.loops: dict[int, tuple] = {}
        self.fns: dict[int, tuple] = {}
        self.exprs: dict[int, tuple] = {}
        self.consts: dict[int, object] = {}
        #: the variables a Machine binds in ``globals`` (extern ones are
        #: not), and the names of user functions
        self.global_types: dict[str, CType] = {}
        self.functions: set[str] = set()
        for node in unit.decls:
            if isinstance(node, A.FuncDef):
                self.functions.add(node.name)
            elif isinstance(node, A.GlobalDecl):
                for d in node.decls:
                    if d.storage != "extern":
                        self.global_types[d.name] = d.type

    def loop(self, stmt: A.For) -> Optional["LoopSpec"]:
        """The plan of a ``for`` the interpreter or a compiled function
        hands over whole (its init already run), or None."""
        entry = self.loops.get(id(stmt))
        if entry is None:
            try:
                spec = _analyze_loop(stmt, True)
            except _Bail:        # a closure of the plan cannot be built
                spec = None
            entry = self.loops[id(stmt)] = (stmt, spec)
        return entry[1]

    def fn(self, defn: A.FuncDef) -> Optional["FnSpec"]:
        entry = self.fns.get(id(defn))
        if entry is None:
            entry = self.fns[id(defn)] = (defn, _analyze_fn(self, defn))
        return entry[1]


# --------------------------------------------------------------------------
# plan representation
# --------------------------------------------------------------------------

@dataclass
class ArrSpec:
    """``A[f(...)] (op)= expr`` — array store, vector or scalar."""
    target: A.Index
    op: Optional[str]
    value: A.Expr
    base: str            # outermost base array name
    ttext: str           # unparse of the target (dependence discipline)
    indices: list        # index exprs, innermost first
    #: closures: the target's ``(mem, addr, ctype)`` and the value
    lv: Callable = field(init=False, repr=False)
    fn: Callable = field(init=False, repr=False)

    def __post_init__(self):
        self.lv = _Compiler().lvalue(self.target)
        self.fn = _Compiler().expr(self.value)


@dataclass
class SetSpec:
    """``s (op)= expr`` — scalar assignment (reduction when vectorized)."""
    name: str
    op: Optional[str]
    value: A.Expr
    fn: Callable = field(init=False, repr=False)

    def __post_init__(self):
        self.fn = _Compiler().expr(self.value)


@dataclass
class DeclSpec:
    decls: list          # (name, ctype, init expr | None)
    #: per declaration, the closure of its initial value (0 without one)
    fns: list = field(init=False, repr=False)

    def __post_init__(self):
        self.fns = [_const(0) if init is None else _Compiler().expr(init)
                    for _name, _ctype, init in self.decls]


@dataclass
class NestPass:
    """One statement of a nest, run over its own index grid."""
    kind: str                    # 'arr' | 'set' | 'decl'
    item: object                 # ArrSpec | SetSpec | (name, ctype, init)
    loop: Optional["LoopSpec"]   # enclosing inner loop; None = outer body
    #: may update fewer cells than its grid: a fold, or an array store
    #: that nothing else in the nest touches
    fold: bool = False
    #: the index nodes the statement reads or writes
    nodes: tuple = field(init=False)

    def __post_init__(self):
        self.nodes = tuple(_item_indices([self.item]))


@dataclass
class NestSpec:
    passes: list                 # NestPass, in body order
    loops: list                  # the inner LoopSpecs (none: a single loop)
    expanded: dict               # outer-body scalar -> ctype (one per row)
    folded: frozenset            # outer scalars accumulated by a fold


@dataclass
class LoopSpec:
    var: str
    init: Optional[tuple]        # ('decl', ctype, expr|None) | ('set', expr)
    cond_op: str                 # '<' | '<='
    bound: A.Expr
    step: int
    items: list                  # ArrSpec | SetSpec | DeclSpec | LoopSpec
    written: set = field(default_factory=set)
    #: the nest plan; None when a loop with inner loops can only run per row
    nest: Optional[NestSpec] = None
    #: handed over whole, its init already run: a refused dry pass falls
    #: back to running the loop one iteration at a time
    top: bool = False
    #: closures of the bound and of the init's value (None: no init)
    bound_fn: Callable = field(init=False, repr=False)
    init_fn: Optional[Callable] = field(init=False, repr=False)

    def __post_init__(self):
        self.bound_fn = _Compiler().expr(self.bound)
        init = self.init
        self.init_fn = None if init is None else (
            _Compiler().expr(init[1]) if init[0] == "set"
            else _const(0) if init[2] is None else _Compiler().expr(init[2]))


@dataclass
class FnSpec:
    """A compiled function: its body's statement closures and the value
    of its final ``return``."""
    name: str
    params: list                 # (name, decayed ctype)
    stmts: list                  # closures over a Frame
    ret: Optional[Callable]      # None = void / no return value
    #: names whose cached values a native call or a store may stale:
    #: non-array globals and address-taken locals
    volatile: frozenset
    #: per parameter, the closure that declares its slot
    declare_params: list = field(init=False, repr=False)

    def __post_init__(self):
        self.declare_params = [_slot_declarer(name, ctype, False)
                               for name, ctype in self.params]


# --------------------------------------------------------------------------
# analysis (pure AST, cached per program by id(node))
# --------------------------------------------------------------------------

def _mentions(expr: A.Expr, var: str) -> bool:
    return any(isinstance(n, A.Ident) and n.name == var for n in expr.walk())


def _names(expr: A.Expr) -> set:
    return {n.name for n in expr.walk() if isinstance(n, A.Ident)}


def _base_key(index: A.Index) -> Optional[str]:
    base = index.base
    while isinstance(base, A.Index):
        base = base.base
    return base.name if isinstance(base, A.Ident) else None


def _expr_ok(expr: A.Expr, vector: bool) -> bool:
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
            if name in (_VEC_MATH_EXACT if vector else _PURE_NATIVES):
                continue
            return False
        return False
    # index chains must bottom out in a plain identifier
    for n in expr.walk():
        if isinstance(n, A.Index) and _base_key(n) is None:
            return False
    return True


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


def loop_step(step: Optional[A.Expr], var: str) -> Optional[int]:
    """The constant increment of a ``for`` step on ``var`` (``var++``,
    ``var += c``, ``var = var + c``), or None for any other step."""
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


def _make_arr_spec(a: A.Assign) -> Optional[ArrSpec]:
    if a.op is not None and a.op not in _SCALAR_OPS:
        return None
    indices = []
    node = a.target
    while isinstance(node, A.Index):
        if not _expr_ok(node.index, vector=True):
            return None
        indices.append(node.index)
        node = node.base
    if not isinstance(node, A.Ident) or not _expr_ok(a.value, vector=True):
        return None
    return ArrSpec(a.target, a.op, a.value, node.name,
                   unparse(a.target).strip(), indices)


def _data_dependent(spec: ArrSpec, var: str) -> bool:
    """Whether the cells a store writes depend on memory read as ``var``
    moves (``a[idx[i]]``): only the dry pass can check them."""
    return any(isinstance(n, (A.Index, A.Call)) and _mentions(n, var)
               for ix in spec.indices for n in ix.walk())


def _analyze_loop(stmt: A.For, top: bool) -> Optional[LoopSpec]:
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
    if bound_names is None or var in bound_names \
            or not _expr_ok(cond.right, vector=False):
        return None
    if init is not None and init[0] == "set" \
            and not _expr_ok(init[1], vector=False):
        return None
    if init is not None and init[0] == "decl" and init[2] is not None \
            and not _expr_ok(init[2], vector=False):
        return None
    step = loop_step(stmt.step, var)
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
                arr = _make_arr_spec(a)
                if arr is None:
                    return None
                items.append(arr)
            elif isinstance(a.target, A.Ident):
                if a.op is not None and a.op not in _SCALAR_OPS:
                    return None
                if not _expr_ok(a.value, vector=False):
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
                        and not _expr_ok(d.init, vector=False):
                    return None
                ds.append((d.name, d.type, d.init))
                written.add(d.name)
            items.append(DeclSpec(ds))
        elif isinstance(s, A.For):
            inner = _analyze_loop(s, top=False)
            if inner is None:
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
    nest = _analyze_nest(var, items, written)
    # a single loop the nest rule rejects is left to the tree walk: run
    # one iteration at a time it would cost more.  A data-dependent store
    # needs the dry pass, and only a loop the interpreter hands over can
    # fall back when that refuses.
    if not has_loop and (nest is None or not top and any(
            isinstance(it, ArrSpec) and _data_dependent(it, var)
            for it in items)):
        return None
    return LoopSpec(var, init, cond.op, cond.right, step, items, written,
                    nest, top)


def _header_key(loop: LoopSpec) -> tuple:
    """Loops with equal keys run over the same index range in a nest."""
    init = loop.init
    expr = init[1] if init[0] == "set" else init[2]
    return (loop.var, init[0], unparse(expr).strip(), loop.cond_op,
            unparse(loop.bound).strip(), loop.step)


def _stmt_exprs(item) -> list:
    """The expressions a statement (ArrSpec, SetSpec or one declaration
    ``(name, ctype, init)``) evaluates."""
    if isinstance(item, tuple):
        return [] if item[2] is None else [item[2]]
    if isinstance(item, ArrSpec):
        return [item.value] + list(item.indices)
    return [item.value]


def _analyze_nest(var: str, items: list, written: set) -> Optional[NestSpec]:
    """The nest plan of a loop body (depth one, or two with rectangular
    inner loops), or None: per row.

    Checks everything the nest rule (module docstring) can decide from
    the AST; :func:`_plan_nest` checks the rest before any store."""
    loops = [it for it in items if isinstance(it, LoopSpec)]
    if any(L.nest is None or L.nest.loops or L.nest.expanded
           or L.init is None or (L.init[0] == "decl" and L.init[2] is None)
           for L in loops):
        return None
    nest_vars = {var} | {L.var for L in loops}
    passes: list = []
    expanded: dict = {}
    seen: set = set()            # names mentioned by earlier passes
    for it in items:
        first = len(passes)
        if isinstance(it, DeclSpec):
            for name, ctype, init in it.decls:
                if name in nest_vars or name in expanded or name in seen \
                        or not isinstance(ctype, BasicType) \
                        or ctype.kind == "void" \
                        or (init is not None
                            and not _expr_ok(init, vector=True)):
                    return None
                expanded[name] = ctype
                passes.append(NestPass("decl", (name, ctype, init), None))
        elif isinstance(it, LoopSpec):
            if it.var in expanded:
                return None
            # rectangular: the inner start and bound are invariant
            hdr = [it.bound, it.init[1] if it.init[0] == "set"
                   else it.init[2]]
            for e in hdr:
                names = _invariant_names(e)
                if names is None or names & (nest_vars | written):
                    return None
            passes.extend(NestPass("arr" if isinstance(sub, ArrSpec)
                                   else "set", sub, it) for sub in it.items)
        elif isinstance(it, ArrSpec):
            passes.append(NestPass("arr", it, None))
        elif isinstance(it, SetSpec):
            if not _expr_ok(it.value, vector=True):
                return None
            passes.append(NestPass("set", it, None))
        else:
            return None
        for p in passes[first:]:
            for e in _stmt_exprs(p.item):
                seen |= _names(e)
            if p.kind != "decl":
                seen.add(p.item.name if p.kind == "set" else p.item.base)
    # a statement sees only its own loop variables (an outer statement
    # reading j would read the previous row's final value)
    for p in passes:
        domain = {var} if p.loop is None else {var, p.loop.var}
        for e in _stmt_exprs(p.item):
            if (_names(e) & nest_vars) - domain:
                return None
    folded = set()
    for p in passes:
        if p.kind != "set":
            continue
        name, op = p.item.name, p.item.op
        if name in nest_vars:
            return None
        if name in expanded:
            # per-row scalar: any update in the outer body; inside a loop
            # only its fold, which nothing else in that loop touches
            if p.loop is None:
                continue
            if op not in _REDUCE_OPS:
                return None
            for q in passes:
                if q.loop is p.loop and q is not p and (
                        any(_mentions(e, name) for e in _stmt_exprs(q.item))
                        or (q.kind == "set" and q.item.name == name)):
                    return None
            if _mentions(p.item.value, name):
                return None
            p.fold = True
            continue
        # a scalar of the enclosing scope: one fold, touched by nothing else
        if op not in _REDUCE_OPS or name in folded:
            return None
        for q in passes:
            if any(_mentions(e, name) for e in _stmt_exprs(q.item)) or (
                    q is not p and q.kind == "set" and q.item.name == name):
                return None
        folded.add(name)
        p.fold = True
    variant = set(expanded) | folded
    writers: dict = {}
    for p in passes:
        if p.kind == "arr":
            writers.setdefault(p.item.base, []).append(p)
    for base, ws in writers.items():
        spec = ws[0].item
        if any(w.item.ttext != spec.ttext for w in ws):
            return None
        sub_names = set().union(*(_names(ix) for ix in spec.indices))
        if sub_names & variant:
            return None
        keys = {None if w.loop is None else _header_key(w.loop) for w in ws}
        if len(keys) != 1:
            return None
        key = keys.pop()
        domain = {var} if key is None else {var, ws[0].loop.var}
        touch = []
        for q in passes:
            reads = []
            for e in _stmt_exprs(q.item):
                reads.extend(n for n in e.walk() if isinstance(n, A.Index)
                             and _base_key(n) == base)
            if reads or q in ws:
                touch.append(q)
            if any(unparse(n).strip() != spec.ttext for n in reads):
                return None
        # touched by its statement alone, whose value (evaluated before
        # the store) does not read it: a fold, or a plain store whose
        # last value wins, may update fewer cells than its grid
        ws[0].fold = len(touch) == 1 and not _mentions(spec.value, base) \
            and (spec.op is None or spec.op in _REDUCE_OPS)
        if sub_names & nest_vars == domain:
            # every grid point writes its own cell: loops that touch the
            # base must run over the same range as the writers
            if key is not None and any(
                    q.loop is None or _header_key(q.loop) != key
                    for q in touch):
                return None
        elif not ws[0].fold:
            return None
    return NestSpec(passes, loops, expanded, frozenset(folded))


def _analyze_fn(plans: HostPlans, defn: A.FuncDef) -> Optional[FnSpec]:
    """The compiled form of a user function, or None: the tree walk runs
    it.  Everything is resolved here, once per program; a call binds only
    the arguments, and the frame resolves the globals it touches."""
    if not isinstance(defn.body, A.Compound):
        return None
    params = []
    for p in defn.params:
        ctype = p.type.decay() if p.type is not None else None
        if not (isinstance(ctype, PointerType) or isinstance(ctype, BasicType)
                and not ctype.is_void):
            return None
        params.append((p.name, ctype))
    body = defn.body.body
    final = body[-1] if body and isinstance(body[-1], A.Return) else None
    comp = _Compiler(plans, params)
    comp.scopes.append({})       # the body's own scope
    try:
        stmts = [comp.stmt(s) for s in (body[:-1] if final else body)]
        ret = None if final is None or final.value is None \
            else comp.expr(final.value)
    except _Bail:
        return None
    return FnSpec(defn.name, params, stmts, ret, frozenset(comp.volatile))


# --------------------------------------------------------------------------
# frames: scalar bindings cached over interpreter memory
# --------------------------------------------------------------------------

_U64_MASK = (1 << 64) - 1

def _canon(value, ctype: CType):
    """Round a scalar exactly as a store+load through ``ctype`` would
    (pointers pass through: :meth:`Frame.canon` retypes them)."""
    if isinstance(ctype, (PointerType, ArrayType)):
        return value
    if not isinstance(ctype, BasicType):
        raise _Bail()
    return _scalar_io(ctype)[0](value)


def _int_canon(bits: int, signed: bool) -> Callable:
    mask = (1 << bits) - 1
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed \
        else (0, mask)
    half = 1 << (bits - 1) if signed else 0

    def canon(value):
        if type(value) is int and lo <= value <= hi:
            return value
        if isinstance(value, Ptr):
            value = value.addr
        return ((int(value) + half) & mask) - half
    return canon


def _not_scalar(value):
    raise _Bail()


_IO: dict = {}


def _scalar_io(ctype: CType) -> tuple:
    """``(canon, pack_into, size, align, zero, unpack_from)`` of a
    variable of ``ctype``: the value a store and a load leave (None for a
    pointer, which :meth:`Frame.canon` retypes; :func:`_not_scalar` for a
    type no scalar store reaches), the ``struct`` packer of its cell, the
    cell's size and alignment, the value of a zeroed cell and the
    ``struct`` reader of its cell.  The cell's format is its numpy
    dtype's character code, which names the same native C type, so
    ``struct`` reads and writes the bytes of LinearMemory's views."""
    io = _IO.get(ctype)
    if io is not None:
        return io
    if isinstance(ctype, PointerType):
        canon = None
    elif isinstance(ctype, BasicType) and not ctype.is_void:
        canon = (np.float32 if ctype.kind == "float" else float) \
            if ctype.is_floating \
            else _int_canon(8 * ctype.sizeof(), ctype.signed)
    else:
        io = _IO[ctype] = (_not_scalar, None)
        return io
    cell = struct.Struct(ctype.dtype().char)
    io = _IO[ctype] = (canon, cell.pack_into, ctype.sizeof(),
                       ctype.alignof(), 0 if canon is None else canon(0),
                       cell.unpack_from)
    return io


class Frame:
    """Scalar variables of a compiled region, cached in Python.

    A name is bound to memory (a global, a variable of the tree walk's
    ``env``, or the heap slot :func:`_slot_declarer` gives a compiled
    function's local) or lives in the frame alone (loop variables and
    temps a loop plan declares).  Reads come from the cache, loading a
    bound name on first use; :meth:`set` writes through to the binding at
    once, so memory is always current.  :meth:`invalidate` drops the
    cached values of the ``volatile`` names after a native call or a
    store through a pointer.  Compiled calls look natives up in
    ``natives``: the machine's table, or a replay of it under ``verify``.
    """

    __slots__ = ("machine", "heap", "env", "natives", "volatile", "values",
                 "vars", "_shadow")

    def __init__(self, machine, env, natives=None, volatile=frozenset()):
        self.machine = machine
        self.heap = machine.heap
        self.env = env
        self.natives = machine.natives if natives is None else natives
        self.volatile = volatile
        #: the cached value of each name read or set
        self.values: dict = {}
        #: per name resolved, ``(ctype, mem, addr, canon, pack_into, buf,
        #: offset, unpack_from)``: mem, addr, buf, offset and unpack_from
        #: None for a name that lives in the frame alone (see
        #: :func:`_scalar_io`)
        self.vars: dict = {}
        self._shadow: list = []

    def _resolve_binding(self, name):
        for scope in reversed(self.env):
            if name in scope:
                return scope[name]
        return self.machine.globals.get(name)

    def _var(self, name) -> tuple:
        var = self.vars.get(name)
        if var is None:
            b = self._resolve_binding(name)
            if not isinstance(b, VarBinding):
                raise _Bail()
            mem, addr, ct = b.mem, b.addr, b.ctype
            io = _scalar_io(ct)
            if io[1] is not None:
                mem.view(addr, 1, ct.dtype())      # range check
            var = self.vars[name] = (ct, mem, addr, io[0], io[1], mem.buf,
                                     addr - mem.base, io[-1])
        return var

    def ctype_of(self, name) -> CType:
        return self._var(name)[0]

    def native_ok(self, name) -> bool:
        """Whether a call of ``name`` reaches the native of that name."""
        b = self._resolve_binding(name)
        return (b is None or isinstance(b, FuncValue) and b.defn is None) \
            and name in self.natives

    def canon(self, value, ctype: CType):
        """``value`` as a store and a load through ``ctype`` leave it."""
        if type(ctype) is PointerType:
            addr = value.addr if isinstance(value, Ptr) else int(value)
            return self.machine.make_ptr(addr & _U64_MASK, ctype.pointee)
        return _canon(value, ctype)

    def get(self, name):
        v = self.values.get(name, _MISSING)
        if v is not _MISSING:
            return v
        ct, mem, addr, canon, pack, buf, off, unpack = self._var(name)
        if mem is None:
            raise _Bail()
        if pack is None:
            v = self.machine.load_value(mem, addr, ct)
            if not isinstance(v, Ptr):
                raise _Bail()
        else:
            v = unpack(buf, off)[0]
            v = canon(v) if canon is not None else self.canon(v, ct)
        self.values[name] = v
        return v

    def set(self, name, value):
        ct, _m, _a, canon, pack, buf, off, _u = self.vars.get(name) \
            or self._var(name)
        v = self.values[name] = canon(value) if canon is not None \
            else self.canon(value, ct)
        if buf is not None:
            pack(buf, off, v.addr if type(v) is Ptr else v)

    def address(self, name) -> Ptr:
        """``&name``: a pointer to the variable's memory."""
        ct, mem, addr = self._var(name)[:3]
        if mem is None:
            raise _Bail()
        return Ptr(mem, addr, ct)

    def invalidate(self) -> None:
        values = self.values
        for name in self.volatile:
            values.pop(name, None)

    def _push(self, name, slot, shadows: bool) -> None:
        """Record a declaration for :meth:`release`: what it hides of
        ``name`` when it ``shadows`` (else release forgets the name)."""
        self._shadow.append((name, slot, (
            self.values.get(name, _MISSING), self.vars.get(name, _MISSING)
        ) if shadows else None))

    def declare(self, name, ctype, value):
        """A variable that lives in the frame alone (inside a loop plan,
        which calls no native and stores no scalar through a pointer)."""
        self._push(name, None, True)
        io = _scalar_io(ctype)
        self.vars[name] = (ctype, None, None, io[0], io[1], None, None, None)
        self.values[name] = self.canon(value, ctype)

    def mark(self) -> int:
        return len(self._shadow)

    def release(self, mark: int) -> None:
        """Undo the declarations made since ``mark``, freeing their heap
        slots (in any order: the allocator's state depends only on the
        blocks that stay allocated)."""
        shadow, values, variables = self._shadow, self.values, self.vars
        free = self.heap.free
        undone = shadow[mark:]
        del shadow[mark:]
        for name, slot, saved in reversed(undone):
            if slot is not None:
                free(slot)
            if saved is None:
                values.pop(name, None)
                variables.pop(name, None)
                continue
            for d, key in zip((values, variables), saved):
                if key is _MISSING:
                    d.pop(name, None)
                else:
                    d[name] = key


def _slot_declarer(name: str, ctype: CType, shadows: bool,
                   init: Optional[Callable] = None) -> Callable:
    """The closure that declares ``name`` on a frame in the heap slot the
    tree walk gives it: allocated and zeroed, then set to ``init(f)`` if
    given, and freed by :meth:`Frame.release`.  ``shadows``: a variable
    of that name may be in scope (the compiler knows when none is)."""
    canon, pack, size, align, zero, unpack = _scalar_io(ctype)

    def declare(f):
        heap = f.heap
        addr = heap.alloc(size, align)
        buf, off = heap.buf, addr - heap.base
        pack(buf, off, 0)
        values = f.values
        f._shadow.append((name, addr, (
            values.get(name, _MISSING), f.vars.get(name, _MISSING)
        ) if shadows else None))
        f.vars[name] = (ctype, heap, addr, canon, pack, buf, off, unpack)
        values[name] = zero
        if init is not None:
            value = init(f)
            v = values[name] = canon(value) if canon is not None \
                else f.canon(value, ctype)
            pack(buf, off, v.addr if type(v) is Ptr else v)
    return declare


# --------------------------------------------------------------------------
# validation: type-structural, no memory reads, no side effects
# --------------------------------------------------------------------------

def _vt_lookup(frame: Frame, vt: dict, name: str) -> CType:
    if name in vt:
        return vt[name]
    return frame.ctype_of(name)


def _validate_expr(frame: Frame, vt: dict, expr: A.Expr) -> None:
    """Check that every leaf of ``expr`` resolves to a supported type.
    ``frame`` is the run's :class:`Frame`, or the :class:`_Compiler` of
    a compiled function, which knows every type at build time."""
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
        if name in vt or not frame.native_ok(name):
            raise _Bail()      # e.g. a user function shadows the libm native
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


# --------------------------------------------------------------------------
# closures: expressions and statements over a Frame, built once per
# program (bit-identical to Machine.eval and Machine.exec_stmt)
# --------------------------------------------------------------------------

def _const(value):
    return lambda f: value


def _noop(f):
    return None


def _eval(frame: Frame, e: A.Expr):
    """``e`` evaluated on ``frame`` through its program-wide closure."""
    exprs = frame.machine.plans.exprs
    entry = exprs.get(id(e))
    if entry is None:
        entry = exprs[id(e)] = (e, _Compiler().expr(e))
    return entry[1](frame)


class _Compiler:
    """Builds the closures of one function's statements (``plans`` given:
    names resolve at build time against its scopes and the program's
    globals) or of a loop plan's expressions (names resolve on the frame,
    which validation has checked).

    A construct outside the subset raises :class:`_Bail`.  What the tree
    walk reports at run time (a division by zero, a call of an unknown
    native) the closures raise at run time too."""

    def __init__(self, plans: Optional[HostPlans] = None, params=()):
        self.plans = plans
        self.scopes: list = [dict(params)]
        #: non-array globals and address-taken locals (Frame.invalidate)
        self.volatile: set = set()
        #: ids of the literal-only subtrees compiled so far
        self.literal: set = set()

    # -- names ------------------------------------------------------------
    def var(self, name: str) -> Optional[CType]:
        """The type of variable ``name`` (None in a loop plan, where the
        frame resolves names)."""
        if self.plans is None:
            return None
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        ct = self.plans.global_types.get(name)
        if not isinstance(ct, (BasicType, PointerType, ArrayType)) \
                or getattr(ct, "is_void", False):
            raise _Bail()
        if not isinstance(ct, ArrayType):
            self.volatile.add(name)
        return ct

    def ctype_of(self, name: str) -> CType:
        ct = self.var(name)
        if ct is None:
            raise _Bail()
        return ct

    def native_ok(self, name: str) -> bool:
        try:
            self.var(name)
        except _Bail:
            return name not in self.plans.functions and name in _PURE_NATIVES
        return False

    def static_type(self, e: A.Expr) -> CType:
        """The type ``sizeof`` sees (Machine.type_of, at build time)."""
        t = type(e)
        if t is A.Ident:
            return self.ctype_of(e.name)
        if t is A.Index or t is A.Unary and e.op == "*":
            base = self.static_type(e.base if t is A.Index
                                    else e.operand).decay()
            if not isinstance(base, PointerType):
                raise _Bail()
            return base.pointee
        if t is A.Unary and e.op == "&":
            return PointerType(self.static_type(e.operand))
        if t is A.IntLit:
            return INT
        if t is A.FloatLit:
            return FLOAT if e.single else DOUBLE
        if t is A.Cast:
            return e.type
        if t is A.Binary:
            lt, rt = self.static_type(e.left), self.static_type(e.right)
            if lt.is_pointer or lt.is_array:
                return lt.decay()
            if rt.is_pointer or rt.is_array:
                return rt.decay()
            return usual_arithmetic(lt, rt)
        raise _Bail()

    # -- expressions ------------------------------------------------------
    def expr(self, e: A.Expr) -> Callable:
        fn = self._expr(e)
        # literal-only (_const_foldable), from what the children found
        if not _literal_node(e) or not all(
                id(c) in self.literal for c in e.children()):
            return fn
        self.literal.add(id(e))
        if type(e) in (A.Unary, A.Binary, A.Cast, A.Cond):
            # a literal-only subtree: its value, unless computing it fails
            # (the tree walk then fails each time it gets there)
            try:
                return _const(fn(None))
            except Exception:
                return fn
        return fn

    def _expr(self, e: A.Expr) -> Callable:
        t = type(e)
        if t is A.IntLit or t is A.CharLit:
            return _const(e.value)
        if t is A.FloatLit:
            return _const(np.float32(e.value) if e.single else e.value)
        if t is A.Ident:
            name = e.name
            self.var(name)

            def ident(f):
                v = f.values.get(name, _MISSING)
                return f.get(name) if v is _MISSING else v
            return ident
        if t is A.Binary:
            return self._binary(e)
        if t is A.Unary:
            return self._unary(e)
        if t is A.Cond:
            c, a, b = self.expr(e.cond), self.expr(e.then), self.expr(e.other)
            return lambda f: a(f) if _truthy(c(f)) else b(f)
        if t is A.Index:
            lv = self.lvalue(e)
            return lambda f: f.machine.load_value(*lv(f))
        if t is A.Cast:
            return self._cast(e)
        if t is A.Call:
            return self._call(e)
        if self.plans is None:
            raise _Bail()
        if t is A.Assign:
            return self.assign(e, True)
        if t is A.StringLit:
            text = e.value
            return lambda f: f.machine._string_literal(text)
        if t is A.SizeofType:
            return _const(e.type.sizeof())
        if t is A.SizeofExpr:
            return _const(self.static_type(e.operand).sizeof())
        raise _Bail()

    def _binary(self, e: A.Binary) -> Callable:
        op, loc = e.op, e.loc
        lhs, rhs = self.expr(e.left), self.expr(e.right)
        if op == "&&":
            return lambda f: (1 if _truthy(rhs(f)) else 0) \
                if _truthy(lhs(f)) else 0
        if op == "||":
            return lambda f: 1 if _truthy(lhs(f)) \
                else (1 if _truthy(rhs(f)) else 0)
        return lambda f: apply_binop(op, lhs(f), rhs(f), loc)

    def _unary(self, e: A.Unary) -> Callable:
        op = e.op
        if op == "*":
            lv = self.lvalue(e)
            return lambda f: f.machine.load_value(*lv(f))
        if self.plans is not None:
            if op == "&":
                return self.address(e.operand)
            if op in ("++", "--", "p++", "p--"):
                return self._incdec(e)
        v = self.expr(e.operand)
        if op == "-":
            return lambda f: -v(f)
        if op == "+":
            return v
        if op == "!":
            return lambda f: 0 if _truthy(v(f)) else 1
        if op == "~":
            return lambda f: ~int(v(f))
        raise _Bail()

    def _cast(self, e: A.Cast) -> Callable:
        target, v = e.type, self.expr(e.operand)
        if isinstance(target, PointerType):
            pointee = target.pointee

            def cast_ptr(f):
                value = v(f)
                if isinstance(value, Ptr):
                    return Ptr(value.mem, value.addr, pointee)
                addr = int(value)
                return f.machine.make_ptr(addr, pointee) if addr else 0
            return cast_ptr
        if not isinstance(target, BasicType):
            raise _Bail()
        if target.is_integer:
            def cast_int(f):
                value = v(f)
                return value.addr if isinstance(value, Ptr) else int(value)
            return cast_int
        if target.kind == "float":
            return lambda f: np.float32(v(f))
        if target.is_floating:
            return lambda f: float(v(f))
        if target.is_void:
            return lambda f: (v(f), None)[1]
        raise _Bail()

    def _call(self, e: A.Call) -> Callable:
        if type(e.func) is not A.Ident:
            raise _Bail()
        name, loc = e.func.name, e.loc
        if self.plans is not None and (
                name in self.plans.functions or name == "dim3"
                or name in self.plans.global_types
                or any(name in scope for scope in self.scopes)):
            # user functions stay with the tree walk; a variable is not
            # a function
            raise _Bail()
        args = [self.expr(a) for a in e.args]
        pure = name in _PURE_NATIVES

        def call(f):
            native = f.natives.get(name)
            if native is None:
                raise InterpError(f"undeclared identifier {name!r}", loc)
            # arguments left to right, as Machine._eval_call
            result = native(f.machine, [a(f) for a in args], loc)
            if not pure:
                f.invalidate()
            return result
        return call

    def lvalue(self, e: A.Expr) -> Callable:
        """Closure giving the ``(mem, addr, ctype)`` of an index or a
        dereference (Machine.lvalue)."""
        t = type(e)
        if t is A.Index:
            base, index, loc = self.expr(e.base), self.expr(e.index), e.loc

            def element(f):
                ptr = base(f)
                if not isinstance(ptr, Ptr):
                    raise InterpError(
                        "subscripted value is not a pointer/array", loc)
                ct = ptr.ctype
                return ptr.mem, ptr.addr + int(index(f)) * ct.sizeof(), ct
            return element
        if t is A.Unary and e.op == "*":
            operand, loc = self.expr(e.operand), e.loc

            def deref(f):
                ptr = operand(f)
                if not isinstance(ptr, Ptr):
                    raise InterpError("dereference of non-pointer", loc)
                return ptr.mem, ptr.addr, ptr.ctype
            return deref
        raise _Bail()

    def address(self, e: A.Expr) -> Callable:
        if type(e) is A.Ident:
            name = e.name
            self.var(name)
            self.volatile.add(name)
            return lambda f: f.address(name)
        lv = self.lvalue(e)
        return lambda f: Ptr(*lv(f))

    def _scalar_target(self, e: A.Ident) -> str:
        if not isinstance(self.ctype_of(e.name), (BasicType, PointerType)):
            raise _Bail()
        return e.name

    def _incdec(self, e: A.Unary) -> Callable:
        delta = 1 if "+" in e.op else -1
        post = e.op.startswith("p")
        if type(e.operand) is A.Ident:
            name = self._scalar_target(e.operand)

            def step(f):
                old = f.get(name)
                new = old + delta
                f.set(name, new)
                return old if post else new
            return step
        lv = self.lvalue(e.operand)

        def step_mem(f):
            mem, addr, ct = lv(f)
            m = f.machine
            old = m.load_value(mem, addr, ct)
            new = old + delta
            m.store_value(mem, addr, ct, new)
            f.invalidate()
            return old if post else new
        return step_mem

    def assign(self, e: A.Assign, value: bool) -> Callable:
        """``target (op)= value``; the closure returns the stored value
        (as loaded back) when ``value``."""
        op, loc, v = e.op, e.loc, self.expr(e.value)
        if type(e.target) is A.Ident:
            name = self._scalar_target(e.target)
            if op is None:
                def assign(f):
                    f.set(name, v(f))
                    return f.values[name]
                return assign

            def update(f):
                rhs = v(f)
                f.set(name, apply_binop(op, f.get(name), rhs, loc))
                return f.values[name]
            return update
        lv = self.lvalue(e.target)

        def store(f):
            mem, addr, ct = lv(f)
            rhs = v(f)
            m = f.machine
            if op is not None:
                rhs = apply_binop(op, m.load_value(mem, addr, ct), rhs, loc)
            m.store_value(mem, addr, ct, rhs)
            f.invalidate()
            return m.load_value(mem, addr, ct) if value else None
        return store

    # -- statements -------------------------------------------------------
    def stmt(self, s: A.Stmt) -> Callable:
        t = type(s)
        if t is A.ExprStmt:
            if s.expr is None:
                return _noop
            if type(s.expr) is A.Assign:
                return self.assign(s.expr, False)
            return self.expr(s.expr)
        if t is A.DeclStmt:
            return self._decl(s)
        if t is A.Compound:
            return self.block(s.body)
        if t is A.If:
            if isinstance(s.then, A.DeclStmt) \
                    or isinstance(s.other, A.DeclStmt):
                raise _Bail()
            cond, then = self.expr(s.cond), self.stmt(s.then)
            if s.other is None:
                def if_(f):
                    if _truthy(cond(f)):
                        then(f)
                return if_
            other = self.stmt(s.other)
            return lambda f: then(f) if _truthy(cond(f)) else other(f)
        if t is A.For:
            return self._for(s)
        raise _Bail()

    def block(self, body: list) -> Callable:
        """A compound statement: its own scope, whose slots are freed on
        the way out (Machine.exec_stmt)."""
        self.scopes.append({})
        try:
            stmts = [self.stmt(s) for s in body]
        finally:
            self.scopes.pop()
        if not any(isinstance(s, A.DeclStmt) for s in body):
            def run(f):
                for s in stmts:
                    s(f)
            return run

        def run_scoped(f):
            mark = f.mark()
            try:
                for s in stmts:
                    s(f)
            finally:
                f.release(mark)
        return run_scoped

    def _decl(self, s: A.DeclStmt) -> Callable:
        scope = self.scopes[-1]
        decls = []
        for d in s.decls:
            ct = d.type
            if d.storage is not None or d.name in scope or not (
                    isinstance(ct, PointerType)
                    or isinstance(ct, BasicType) and not ct.is_void):
                raise _Bail()
            shadows = any(d.name in outer for outer in self.scopes[:-1])
            # in scope for its own initialiser, as in Machine._exec_decl
            scope[d.name] = ct
            decls.append(_slot_declarer(
                d.name, ct, shadows,
                None if d.init is None else self.expr(d.init)))
        if len(decls) == 1:
            return decls[0]

        def declare(f):
            for decl in decls:
                decl(f)
        return declare

    def _for(self, s: A.For) -> Callable:
        """A ``for`` in its own scope: run whole by its loop plan when
        there is one, else (or when its dry pass refuses) one iteration
        at a time (Machine._exec_for), counted as ``loop_unplanned``."""
        self.scopes.append({})
        try:
            init = _noop if s.init is None else self.stmt(s.init)
            spec = self.plans.loop(s)
            if spec is not None:
                try:
                    _validate_loop(self, spec, {})
                except _Bail:
                    spec = None
            cond = None if s.cond is None else self.expr(s.cond)
            body = _noop if s.body is None else self.stmt(s.body)
            step = None if s.step is None else self.expr(s.step)
        finally:
            self.scopes.pop()

        def run_for(f):
            mark = f.mark()
            try:
                init(f)
                if spec is not None and _run_plan(f, spec):
                    return
                f.machine.host_stats["loop_unplanned"] += 1
                while cond is None or _truthy(cond(f)):
                    body(f)
                    if step is not None:
                        step(f)
            finally:
                f.release(mark)
        return run_for


def _run_plan(frame: Frame, spec: LoopSpec) -> bool:
    """Run a compiled function's ``for`` by its plan; False when its dry
    pass refused before any store."""
    machine = frame.machine
    try:
        _exec_loop(machine, frame, spec)
    except _BailDry:
        return False
    except _Bail as exc:
        raise InterpError(
            f"host fastpath: internal bail after validation at "
            f"{spec.bound.loc}") from exc
    machine.host_stats["loop_fast"] += 1
    frame.invalidate()
    return True


# --------------------------------------------------------------------------
# affine subscripts and fold dtypes (checked once per execution)
# --------------------------------------------------------------------------

def _affine_int(frame: Frame, e: A.Expr, axes: tuple, variant):
    """``(const, {var: coeff})`` when integer ``e`` is affine in the loop
    variables ``axes`` with integer coefficients; None otherwise.

    A loop-invariant part is evaluated before the loop runs, also in a
    ``?:`` arm the loop may never take: one whose evaluation fails (a
    division by zero) is not affine, and is left to the per-lane
    evaluation, which fails only on the lanes that take its arm."""
    if not any(_mentions(e, v) for v in axes):
        names = _invariant_names(e)
        if names is None or names & variant:
            return None
        try:
            value = _eval(frame, e)
        except InterpError:
            return None
        return (value, {}) if type(value) is int else None
    t = type(e)
    if t is A.Ident:
        return 0, {e.name: 1}
    if t is A.Unary and e.op in ("-", "+"):
        form = _affine_int(frame, e.operand, axes, variant)
        if form is None or e.op == "+":
            return form
        return -form[0], {v: -c for v, c in form[1].items()}
    if t is not A.Binary or e.op not in ("+", "-", "*"):
        return None
    lhs = _affine_int(frame, e.left, axes, variant)
    rhs = _affine_int(frame, e.right, axes, variant)
    if lhs is None or rhs is None:
        return None
    if e.op == "*":
        if lhs[1] and rhs[1]:
            return None
        (k, _), (c, co) = (lhs, rhs) if not lhs[1] else (rhs, lhs)
        return k * c, {v: k * x for v, x in co.items()}
    sign = 1 if e.op == "+" else -1
    co = dict(lhs[1])
    for v, x in rhs[1].items():
        co[v] = co.get(v, 0) + sign * x
    return lhs[0] + sign * rhs[0], co


def _affine_index(frame: Frame, node: A.Index, axes: tuple, variant):
    """``(mem, addr at the origin, {var: byte coeff}, elem ctype)`` of an
    index chain whose subscripts are all affine, else None."""
    chain = []
    base = node
    while isinstance(base, A.Index):
        chain.append(base.index)
        base = base.base
    if not isinstance(base, A.Ident) or base.name in axes \
            or base.name in variant:
        return None
    ptr = frame.get(base.name)
    if not isinstance(ptr, Ptr):
        return None
    elem, addr, coeffs = ptr.ctype, ptr.addr, {}
    for depth, ix in enumerate(reversed(chain)):
        if depth:
            if not isinstance(elem, ArrayType):
                return None
            elem = elem.elem
        form = _affine_int(frame, ix, axes, variant)
        if form is None:
            return None
        size = elem.sizeof()
        addr += form[0] * size
        for v, c in form[1].items():
            coeffs[v] = coeffs.get(v, 0) + c * size
    if not isinstance(elem, BasicType):
        return None
    return ptr.mem, addr, {v: c for v, c in coeffs.items() if c}, elem


def _acc_dtype(op: str, ctype: BasicType, rank: int):
    """The dtype an axis fold accumulates in exactly, or None when the
    cell needs a per-step rounding fold (double addend into a float cell,
    float addend into an int cell, integer division)."""
    if ctype.is_floating:
        if ctype.kind == "double":
            return np.float64
        return np.float32 if rank <= 1 else None
    return np.int64 if rank == 0 and op != "/" else None


def _distinct(coeffs: dict, dims: list, itemsize: int) -> bool:
    """Whether the cells ``coeffs`` addresses over ``dims`` never overlap."""
    reach = 0
    for span, count in sorted((abs(coeffs.get(var, 0) * step), count)
                              for var, _lo, step, count in dims
                              if count > 1):
        if span < reach + itemsize:
            return False
        reach += span * (count - 1)
    return True


# --------------------------------------------------------------------------
# vector evaluation (float64/int64 intermediates, tree-walk rounding)
# --------------------------------------------------------------------------

class _VecCtx:
    """Vector evaluation over one chunk of a loop's or a nest's index grid.

    ``dims`` lists the chunk's axes, outermost first, as ``(var, first
    value, step, count)``; axis values broadcast against each other
    (``(rows, 1)`` and ``(1, cols)`` on a 2-D grid).  ``vecs`` holds the
    chunk's slice of every expanded scalar and ``geo`` the affine address
    (:func:`_affine_index`) of every index node that has one."""

    def __init__(self, frame: Frame, dims: list, geo: dict, vecs=None):
        self.frame = frame
        self.dims = dims
        self.geo = geo
        self.shape = tuple(d[3] for d in dims)
        self.vals = dict(vecs) if vecs else {}
        #: lanes the expression being evaluated runs on (None: all); a
        #: conditional expression narrows it for each arm
        self.live = None
        nd = len(dims)
        for k, (var, lo, step, count) in enumerate(dims):
            iv = np.arange(lo, lo + step * count, step, dtype=np.int64)
            self.vals[var] = iv if nd == 1 else iv.reshape(
                [count if a == k else 1 for a in range(nd)])

    def origin(self, geo) -> int:
        """The address an affine access reads at the chunk's first point."""
        _mem, addr, coeffs, _ctype = geo
        for var, lo, _step, _count in self.dims:
            addr += coeffs.get(var, 0) * lo
        return addr

    def view(self, geo) -> np.ndarray:
        """The chunk's cells of an affine access: a strided view with a
        size-1 axis wherever the address does not move."""
        mem, _addr, coeffs, ctype = geo
        shape, strides = [], []
        for var, _lo, step, count in self.dims:
            c = coeffs.get(var, 0)
            shape.append(count if c else 1)
            strides.append(c * step)
        return mem.strided(self.origin(geo), ctype.dtype(), shape, strides)

    def addr_vec(self, index: A.Index):
        base = index.base
        idx = np.asarray(self.value_vec(index.index), dtype=np.int64)
        if isinstance(base, A.Index):
            mem, addrs, ctype = self.addr_vec(base)
            ctype = ctype.decay() if isinstance(ctype, PointerType) else ctype
            if not isinstance(ctype, ArrayType):
                raise _Bail()
            elem = ctype.elem
            return mem, addrs + idx * elem.sizeof(), elem
        if not isinstance(base, A.Ident) or base.name in self.vals:
            raise _Bail()
        ptr = self.frame.get(base.name)
        if not isinstance(ptr, Ptr):
            raise _Bail()
        elem = ptr.ctype
        addrs = np.broadcast_to(ptr.addr + idx * elem.sizeof(), self.shape)
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
            v = self.vals.get(expr.name)
            if v is not None:
                return v
            v = self.frame.get(expr.name)
            if isinstance(v, np.floating):
                return v
            if isinstance(v, float):
                return np.float64(v)
            if isinstance(v, int):
                return v
            raise _Bail()
        if t is A.Binary:
            lhs = self.value_vec(expr.left)
            rhs = self.value_vec(expr.right)
            _check_divisor(expr.op, lhs, rhs, self.live, expr.loc)
            return _apply_np(expr.op, lhs, rhs)
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
            geo = self.geo.get(id(expr))
            if geo is not None:
                raw = self.view(geo)
                ctype = geo[3]
            else:
                mem, addrs, ctype = self.addr_vec(expr)
                if not isinstance(ctype, BasicType):
                    raise _Bail()
                raw = mem.gather(addrs, ctype.dtype())
            if ctype.is_floating:
                return np.array(raw)
            return raw.astype(np.int64)
        if t is A.Call:
            fn = _VEC_MATH_EXACT.get(expr.func.name)
            if fn is None:
                raise _Bail()
            # the scalar natives compute in double (math.*), so vector math
            # runs in float64 regardless of argument type
            args = [np.asarray(self.value_vec(a), dtype=np.float64)
                    for a in expr.args]
            return fn(*args)
        if t is A.Cond:
            cond = np.asarray(self.value_vec(expr.cond))
            # both arms are computed on every lane, but only the lanes an
            # arm is taken on may fail a division in it
            live, taken = self.live, cond != 0
            self.live = taken if live is None else live & taken
            then = self.value_vec(expr.then)
            self.live = ~taken if live is None else live & ~taken
            other = self.value_vec(expr.other)
            self.live = live
            dt = _common_dtype(then, other)
            return np.where(cond != 0,
                            np.asarray(then, dtype=dt),
                            np.asarray(other, dtype=dt))
        raise _Bail()

    def full(self, value) -> np.ndarray:
        """``value`` broadcast to the chunk's whole grid (read-only)."""
        return np.broadcast_to(np.asarray(value), self.shape)


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


_RANK_DTYPE = {0: np.dtype(np.int64), 1: np.dtype(np.float32),
               2: np.dtype(np.float64)}


def _common_dtype(lhs, rhs) -> np.dtype:
    return _RANK_DTYPE[max(_rank(lhs), _rank(rhs))]


def _check_divisor(op: str, lhs, rhs, live=None, loc=None) -> None:
    """Raise the interpreter's error for an integer ``/`` or any ``%`` by
    zero on a lane that evaluates it: every lane, or the lanes of
    ``live`` (those a conditional expression takes).  Called before a
    chunk's values are stored, so the failing chunk stores nothing."""
    if op not in ("/", "%"):
        return
    dt = _common_dtype(lhs, rhs)
    if op == "/" and dt.kind not in "iu":
        return
    rhs = np.asarray(rhs, dtype=dt)
    zero = (np.trunc(rhs) if dt.kind == "f" else rhs) == 0
    if live is not None:
        zero = zero & live
    if zero.any():
        what = "division" if op == "/" else "modulo"
        raise InterpError(f"integer {what} by zero", loc)


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
            # lanes of an untaken arm may divide by zero (result unused)
            with np.errstate(divide="ignore"):
                return (np.sign(lhs) * np.sign(rhs)
                        * (np.abs(lhs) // np.abs(rhs))).astype(np.int64)
        # C's IEEE quotient: +-inf, or nan for 0 / 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return lhs / rhs
    if op == "%":
        if dt.kind == "f":   # the tree-walker truncates via int()
            lhs = np.trunc(lhs).astype(np.int64)
            rhs = np.trunc(rhs).astype(np.int64)
        with np.errstate(divide="ignore"):
            return np.fmod(lhs, rhs)   # C's truncated remainder
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


def _to_cell(value, ctype: BasicType) -> np.ndarray:
    """Round a vector exactly as the tree-walker's store into ``ctype``."""
    value = np.asarray(value)
    if ctype.is_integer and value.dtype.kind == "f":
        value = np.trunc(value)
    return value.astype(ctype.dtype(), casting="unsafe")


def _to_scalar_vec(value, ctype: BasicType) -> np.ndarray:
    """Round a vector exactly as :func:`_canon` rounds one scalar, in the
    dtype ``value_vec`` gives that scalar (float32/float64/int64)."""
    value = np.asarray(value)
    if ctype.is_floating:
        return value.astype(np.float32 if ctype.kind == "float"
                            else np.float64)
    if value.dtype.kind == "f":
        value = np.trunc(value).astype(np.int64)
    return value.astype(ctype.dtype()).astype(np.int64)


# --------------------------------------------------------------------------
# exact sequential folds (single-cell / scalar reductions)
# --------------------------------------------------------------------------

def _c_idiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# C's IEEE arithmetic: a float fold may reach +-inf or nan silently
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
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
        # float addend: each step computes in the addend's type (an int
        # plus a float32 is float32, as in the interpreter) and truncates
        # at the store (int(acc + v)) — not a ring op, fold sequentially
        pyop = {"+": lambda a, v: a + v, "-": lambda a, v: a - v,
                "*": lambda a, v: a * v}.get(op)
        if pyop is None:
            raise _Bail()
        acc = int(old)
        for v in vals:
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


def _fold_axis(op: str, old: np.ndarray, vals: np.ndarray, axis: int,
               acc) -> np.ndarray:
    """``old op= v`` folded along ``axis`` of the value block, every cell
    sequentially in its own order; ``old`` has size 1 on that axis."""
    seq = np.concatenate([old.astype(acc), vals.astype(acc)], axis=axis)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _REDUCE_UFUNC[op].accumulate(seq, axis=axis)
    return np.take(out, [-1], axis=axis)


# --------------------------------------------------------------------------
# executors
# --------------------------------------------------------------------------

def _stop_excl(frame: Frame, loop: LoopSpec) -> int:
    """The first integer at which ``var < bound`` / ``var <= bound`` fails
    (a floating bound compares with the integer variable exactly)."""
    bound = loop.bound_fn(frame)
    if loop.cond_op == "<=":
        return math.floor(bound) + 1
    return math.ceil(bound)


def _iter_space(frame: Frame, spec: LoopSpec):
    return int(frame.get(spec.var)), _stop_excl(frame, spec)


def _trip_count(start: int, stop_excl: int, step: int) -> int:
    return max(0, -(-(stop_excl - start) // step))


def _run_init(frame: Frame, spec: LoopSpec) -> None:
    value = spec.init_fn(frame)
    if spec.init[0] == "decl":
        frame.declare(spec.var, spec.init[1], value)
    else:
        frame.set(spec.var, value)


def _exec_loop(machine, frame: Frame, spec: LoopSpec, row=None) -> None:
    """Run a compiled loop whole, pass by pass, when its plan allows, else
    one iteration (a row) at a time.  ``row`` is ``(outer loop, cache)``
    when the loop is the inner loop of one row of a nest run per row
    (see :func:`_row_plan`)."""
    mark = frame.mark()
    try:
        if not spec.top and spec.init is not None:
            _run_init(frame, spec)
        # the nest counters count loops with inner loops only
        nested = spec.nest is None or bool(spec.nest.loops)
        if spec.nest is not None and _run_nest(machine, frame, spec, row):
            if nested:
                machine.host_stats["nest_whole"] += 1
            return
        if nested:
            machine.host_stats["nest_rows"] += 1
        _run_rows(machine, frame, spec)
    finally:
        frame.release(mark)


def _exec_items(machine, frame: Frame, items: list, row=None) -> None:
    for it in items:
        if isinstance(it, ArrSpec):
            _exec_scalar_arr(machine, frame, it)
        elif isinstance(it, SetSpec):
            value = it.fn(frame)
            if it.op is not None:
                value = apply_binop(it.op, frame.get(it.name), value)
            frame.set(it.name, value)
        elif isinstance(it, DeclSpec):
            for (name, ctype, _init), fn in zip(it.decls, it.fns):
                frame.declare(name, ctype, fn(frame))
        elif isinstance(it, LoopSpec):
            _exec_loop(machine, frame, it, row=row)
        else:
            raise _Bail()


def _exec_scalar_arr(machine, frame: Frame, spec: ArrSpec) -> None:
    mem, addr, ctype = spec.lv(frame)
    value = spec.fn(frame)
    if spec.op is not None:
        old = machine.load_value(mem, addr, ctype)
        value = apply_binop(spec.op, old, value)
    machine.store_value(mem, addr, ctype, value)


def _item_indices(items) -> list:
    """Every index node the statements read or write."""
    out = []
    for it in items:
        exprs = _stmt_exprs(it)
        if isinstance(it, ArrSpec):
            exprs.append(it.target)
        for e in exprs:
            out.extend(n for n in e.walk() if isinstance(n, A.Index))
    return out


def _geometry(frame: Frame, nodes, axes: tuple, variant) -> dict:
    geo = {}
    for node in nodes:
        g = _affine_index(frame, node, axes, variant)
        if g is not None:
            geo[id(node)] = g
    return geo


def _aliased(frame: Frame, nodes, written: set) -> bool:
    """Whether a written array shares its allocation with another array
    the index ``nodes`` touch: the dependence rules compare subscripts by
    name, so two names for one buffer would slip past them."""
    blocks = {}
    for node in nodes:
        name = _base_key(node)
        if name not in blocks:
            ptr = frame.get(name)
            mem = getattr(ptr, "mem", None)
            if mem is None:
                return True
            blocks[name] = (mem, mem.block_of(ptr.addr))
    for name in written:
        mem, block = blocks[name]
        if block is None or any(other != name and m is mem and b == block
                                for other, (m, b) in blocks.items()):
            return True
    return False


def _run_rows(machine, frame: Frame, spec: LoopSpec) -> None:
    """The loop one iteration at a time, each body item compiled: an
    inner loop runs as a nest of depth one."""
    start, stop_excl = _iter_space(frame, spec)
    row = (spec, {})
    i = start
    while i < stop_excl:
        frame.set(spec.var, i)
        imark = frame.mark()
        try:
            _exec_items(machine, frame, spec.items, row)
        finally:
            frame.release(imark)
        i += spec.step
    frame.set(spec.var, i)


def _fold_scalar(frame: Frame, ctx: _VecCtx, spec: SetSpec) -> None:
    vals = ctx.full(ctx.value_vec(spec.value)).ravel()
    ct = frame.ctype_of(spec.name)
    frame.set(spec.name, _fold(frame.get(spec.name), spec.op, vals, ct))


def _commit_arr(machine, ctx: _VecCtx, spec: ArrSpec) -> None:
    geo = ctx.geo.get(id(spec.target))
    if geo is not None:
        ctype = geo[3]
        view = ctx.view(geo)
        if view.size == 1 and ctx.shape != view.shape:
            # one cell for the whole chunk: fold it, or keep the last store
            addr = ctx.origin(geo)
            value = ctx.full(ctx.value_vec(spec.value)).ravel()
            if spec.op is not None:
                old = machine.load_value(geo[0], addr, ctype)
                machine.store_value(geo[0], addr, ctype,
                                    _fold(old, spec.op, value, ctype))
            else:
                view[...] = _to_cell(value[-1:], ctype)
            return
        _store_view(ctx, spec, view, ctype)
        return
    mem, addrs, ctype = ctx.addr_vec(spec.target)
    if not isinstance(ctype, BasicType):
        raise _Bail()
    addrs = addrs.ravel()
    dtype = ctype.dtype()
    value = ctx.full(ctx.value_vec(spec.value)).ravel()
    if spec.op is not None:
        if (addrs == addrs[0]).all():
            # one cell (the dry pass let only a fold repeat one)
            addr = int(addrs[0])
            old = machine.load_value(mem, addr, ctype)
            machine.store_value(mem, addr, ctype,
                                _fold(old, spec.op, value, ctype))
            return
        old = mem.gather(addrs, dtype)
        if not ctype.is_floating:
            old = old.astype(np.int64)
        _check_divisor(spec.op, old, value)
        value = _apply_np(spec.op, old, value)
    mem.scatter(addrs, dtype, _to_cell(value, ctype))


def _store_view(ctx: _VecCtx, spec: ArrSpec, view: np.ndarray,
                ctype: BasicType) -> None:
    """Elementwise ``view (op)= value``: every cell written once."""
    value = ctx.value_vec(spec.value)
    if spec.op is not None:
        old = np.array(view) if ctype.is_floating else view.astype(np.int64)
        _check_divisor(spec.op, old, value)
        value = _apply_np(spec.op, old, value)
    view[...] = _to_cell(value, ctype)


# --------------------------------------------------------------------------
# nests: one plan per execution, run pass by pass
# --------------------------------------------------------------------------

def _inner_range(frame: Frame, loop: LoopSpec) -> tuple:
    """``(first value, step, trip count)`` of a rectangular inner loop."""
    ctype = loop.init[1] if loop.init[0] == "decl" \
        else frame.ctype_of(loop.var)
    lo = int(_canon(loop.init_fn(frame), ctype))
    return lo, loop.step, _trip_count(lo, _stop_excl(frame, loop), loop.step)


def _plan_nest(frame: Frame, spec: LoopSpec, outer: tuple, ranges: dict,
               row=None):
    """Per-pass ``(dims, geo, how)`` for one execution (``dims`` None for
    an empty grid), or None when the nest must run per row.  Reads
    memory (pointers, the cells a store without an affine address
    writes, and one grid point of each axis fold to learn its addends'
    dtype) but stores nothing.  A loop the interpreter handed over
    (``spec.top``) whose dry pass refuses raises :class:`_BailDry`
    instead: the tree walk runs it.  ``row``: see :func:`_row_plan`."""
    nest = spec.nest
    if row is not None and not nest.loops:
        return _row_plan(frame, spec, outer, row)
    grids = [[outer] if p.loop is None
             else [outer, (p.loop.var,) + ranges[id(p.loop)]]
             for p in nest.passes]
    live = [p for p, dims in zip(nest.passes, grids) if dims[-1][3]]
    nodes = [n for p in live for n in p.nodes]
    written = {p.item.base for p in live if p.kind == "arr"}
    if _aliased(frame, nodes, written):
        return None
    geo = _geometry(frame, nodes, (spec.var,) + tuple(
        L.var for L in nest.loops), set(nest.expanded) | nest.folded)
    return _check_passes(frame, nest, grids, geo, written, spec.top)


def _row_plan(frame: Frame, spec: LoopSpec, outer: tuple, row):
    """The plan of a single loop run as the inner loop of one row of a
    nest run per row; ``row`` is ``(outer loop, cache)``.

    When no base pointer moves from row to row and every index node has
    an affine address over the outer and the inner axis, the alias
    check, the addresses and the checks of :func:`_check_passes` are
    worked out once per execution of the nest (for rows of one
    iteration and for longer rows) and the addresses shifted to each
    row.  Otherwise every row plans afresh."""
    loop, cache = row
    key = (id(spec), outer[3] > 1)
    tmpl = cache.get(key, _MISSING)
    if tmpl is _MISSING:
        tmpl = None
        nest = spec.nest
        nodes = [n for p in nest.passes for n in p.nodes]
        written = {p.item.base for p in nest.passes if p.kind == "arr"}
        if not any(_base_key(n) in loop.written for n in nodes):
            if _aliased(frame, nodes, written):
                tmpl = (None, None)
            else:
                geo = _geometry(frame, nodes, (loop.var, spec.var),
                                set(nest.expanded) | nest.folded
                                | (loop.written - {spec.var}))
                if len(geo) == len(nodes):
                    grids = [[outer]] * len(nest.passes)
                    tmpl = (_check_passes(frame, nest, grids, geo,
                                          written), geo)
        cache[key] = tmpl
    if tmpl is None:
        return _plan_nest(frame, spec, outer, {})
    plans, geo = tmpl
    if plans is None:
        return None
    # the outer coefficient stays in the dict; _VecCtx reads only the
    # coefficients of its own axes
    i = frame.get(loop.var)
    geo = {k: (mem, addr + co.get(loop.var, 0) * i, co, ct)
           for k, (mem, addr, co, ct) in geo.items()}
    return [([outer], geo, None)] * len(plans)


def _check_passes(frame: Frame, nest: NestSpec, grids: list, geo: dict,
                  written: set, top: bool = False):
    """The plans of :func:`_plan_nest` over the addresses ``geo``, or
    None: every affine store injective over its cell axes and folded
    (or a plain store kept last) along the others, every axis fold
    exact, and the dry pass of a single loop's other stores passed."""
    plans, unplaced = [], []
    for p, dims in zip(nest.passes, grids):
        how = None
        if not dims[-1][3]:
            plans.append((None, geo, how))
            continue
        if p.kind == "arr":
            target = geo.get(id(p.item.target))
            if target is None:
                if nest.loops:
                    return None
                unplaced.append(p)
                plans.append((dims, geo, how))
                continue
            _mem, _addr, coeffs, ctype = target
            cells = [d for d in dims if coeffs.get(d[0])]
            if not _distinct(coeffs, cells, ctype.sizeof()):
                return None
            folds = [k for k, d in enumerate(dims)
                     if d[3] > 1 and not coeffs.get(d[0])]
            # one cell per chunk is folded or keeps its last store
            # (_commit_arr); along one axis of a 2-D grid only a fold
            if folds and (not p.fold or (cells and p.item.op is None)):
                return None
            # one fold axis and one cell axis: accumulate along the fold
            # axis
            if len(folds) == 1 and len(dims) == 2 and len(cells) == 1:
                rank = _probe_rank(frame, dims, geo, nest.expanded,
                                   p.item.value)
                acc = _acc_dtype(p.item.op, ctype, rank)
                if acc is None:
                    return None
                how = (folds[0], acc)
        elif p.kind == "set" and p.fold and p.loop is not None \
                and p.item.name in nest.expanded:
            rank = _probe_rank(frame, dims, geo, nest.expanded,
                               p.item.value)
            acc = _acc_dtype(p.item.op, nest.expanded[p.item.name], rank)
            if acc is None:
                return None
            how = (1, acc)
        plans.append((dims, geo, how))
    if unplaced and _dry_refused(frame, grids[0][0], geo, unplaced,
                                 written):
        if top:
            raise _BailDry()
        return None
    return plans


def _dry_refused(frame: Frame, dims: tuple, geo: dict, stores: list,
                 written: set) -> bool:
    """The dry pass of a single loop's stores without an affine address,
    over the whole loop and before any store: whether to refuse the loop.
    Their subscripts must not read an array the loop writes (the pass
    would see stale cells), and their cells must be distinct, or repeat
    only for a store nothing else touches (``fold``) that keeps the last
    value or folds into one cell."""
    ctx = _VecCtx(frame, [dims], geo)
    for p in stores:
        if any(isinstance(n, A.Index) and _base_key(n) in written
               for ix in p.item.indices for n in ix.walk()):
            return True
        addrs = ctx.addr_vec(p.item.target)[1]
        uniq = np.unique(addrs).size
        if uniq != addrs.size and (
                not p.fold or (p.item.op is not None and uniq != 1)):
            return True
    return False


def _probe_rank(frame: Frame, dims: list, geo: dict, expanded: dict,
                expr: A.Expr) -> int:
    """The rank (see :func:`_rank`) a pass's chunks give ``expr``: the
    evaluator run on the grid's first point, which reads memory only.
    Its inputs are stand-ins (expanded scalars read 0, and memory is
    read before earlier passes store), so no lane is live for the
    division check."""
    shape = (1,) * len(dims)
    vecs = {name: np.zeros(shape, dtype=_to_scalar_vec(0, ctype).dtype)
            for name, ctype in expanded.items()}
    ctx = _VecCtx(frame, [(var, lo, step, 1) for var, lo, step, _n in dims],
                  geo, vecs)
    ctx.live = np.zeros(shape, dtype=bool)
    return _rank(ctx.value_vec(expr))


def _run_nest(machine, frame: Frame, spec: LoopSpec, row=None) -> bool:
    """Run a nest over its whole index grid, pass by pass; False (nothing
    executed) when it must run per row instead."""
    nest = spec.nest
    start, stop_excl = _iter_space(frame, spec)
    n0 = _trip_count(start, stop_excl, spec.step)
    if n0 == 0:
        frame.set(spec.var, start)
        return True
    ranges = {id(L): _inner_range(frame, L) for L in nest.loops}
    outer = (spec.var, start, spec.step, n0)
    plans = _plan_nest(frame, spec, outer, ranges, row)
    if plans is None:
        return False
    vecs = {name: np.zeros(n0, dtype=_to_scalar_vec(0, ctype).dtype)
            for name, ctype in nest.expanded.items()}
    if nest.loops:
        for p, (dims, geo, how) in zip(nest.passes, plans):
            if dims is not None:
                for rows, ctx in _chunks(frame, dims, geo, vecs):
                    _run_pass(machine, ctx, p, how, vecs, rows,
                              nest.expanded)
    else:
        # one grid: every statement of a chunk before the next chunk
        for rows, ctx in _chunks(frame, [outer], plans[0][1], vecs):
            for p in nest.passes:
                _run_pass(machine, ctx, p, None, vecs, rows, nest.expanded)
    frame.set(spec.var, start + n0 * spec.step)
    for L in nest.loops:
        if L.init[0] == "set":
            lo, step, count = ranges[id(L)]
            frame.set(L.var, lo + count * step)
    return True


def _chunks(frame: Frame, dims: list, geo: dict, vecs: dict):
    """``(rows, ctx)`` per chunk of about ``CHUNK`` cells of a grid (whole
    rows of a 2-D one): the chunk's slice of the outer axis and its
    context, which views the chunk's part of every expanded scalar."""
    var, start, step, n0 = dims[0]
    inner = dims[1:]
    size = max(1, CHUNK // inner[0][3]) if inner else CHUNK
    for r0 in range(0, n0, size):
        rows = slice(r0, min(n0, r0 + size))
        sl = {name: (v[rows, None] if inner else v[rows])
              for name, v in vecs.items()}
        yield rows, _VecCtx(frame, [(var, start + r0 * step, step,
                                     rows.stop - r0)] + inner, geo, sl)


def _run_pass(machine, ctx: _VecCtx, p: NestPass, how, vecs: dict,
              rows: slice, expanded: dict) -> None:
    """One statement over one chunk; ``rows`` is the chunk's slice of the
    expanded scalars ``vecs``."""
    if p.kind == "arr":
        if how is None:
            _commit_arr(machine, ctx, p.item)
            return
        axis, acc = how
        geo = ctx.geo[id(p.item.target)]
        view = ctx.view(geo)
        out = _fold_axis(p.item.op, np.array(view), ctx.full(
            ctx.value_vec(p.item.value)), axis, acc)
        view[...] = _to_cell(out, geo[3])
    elif p.kind == "decl":
        name, ctype, init = p.item
        value = 0 if init is None else ctx.value_vec(init)
        vecs[name][rows] = _to_scalar_vec(ctx.full(value), ctype)
    elif p.kind == "set" and p.item.name in expanded:
        name = p.item.name
        ctype = expanded[name]
        old = ctx.vals[name]
        value = ctx.value_vec(p.item.value)
        if how is not None:          # the row's fold along the inner axis
            axis, acc = how
            out = _fold_axis(p.item.op, old, ctx.full(value), axis, acc)
            vecs[name][rows] = _to_scalar_vec(out[:, 0], ctype)
            return
        if p.item.op is not None:
            _check_divisor(p.item.op, old, value)
            value = _apply_np(p.item.op, old, value)
        vecs[name][rows] = _to_scalar_vec(
            np.broadcast_to(value, old.shape), ctype)
    else:
        _fold_scalar(ctx.frame, ctx, p.item)


# --------------------------------------------------------------------------
# verify mode: every compiled region against its tree walk over every
# memory space of the machine; the tree-walk result wins
# --------------------------------------------------------------------------

def _results_equal(a, b) -> bool:
    if isinstance(a, Ptr) or isinstance(b, Ptr):
        return isinstance(a, Ptr) and isinstance(b, Ptr) \
            and a.addr == b.addr and a.mem is b.mem and a.ctype == b.ctype
    if a is None or b is None:
        return a is b
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return type(a) is type(b) and (a == b or (a != a and b != b))
    return type(a) is type(b) and a == b


def _verified(machine, fast, reference, what: str):
    """Run the compiled loop ``fast``, then from the same memory its
    tree-walk ``reference`` with the host fast path off
    (:func:`repro.mem.differential_run`); memory and the result must
    agree, and the reference's result is returned."""
    def tree_walk():
        prev = machine.host_fastpath
        machine.host_fastpath = "off"
        try:
            return reference()
        finally:
            machine.host_fastpath = prev

    result, ref, diff = differential_run(machine.spaces, fast, tree_walk)
    machine.host_stats["verified_regions"] += 1
    if diff is None and not _results_equal(result, ref):
        diff = f"return value {result!r} != {ref!r}"
    if diff:
        raise HostFastpathVerifyError(
            f"host fastpath verify: {what} diverged — {diff}")
    machine.host_stats["loop_fast"] += 1
    return ref


def _outcome_difference(got, ref) -> Optional[str]:
    """How two ``(raised, value)`` outcomes of a function differ: an
    error (or ``exit``) of another type or message, or another value."""
    (got_raised, got), (ref_raised, ref) = got, ref
    if got_raised or ref_raised:
        return None if got_raised == ref_raised and type(got) is type(ref) \
            and str(got) == str(ref) else f"outcome {got!r} != {ref!r}"
    return None if _results_equal(got, ref) \
        else f"return value {got!r} != {ref!r}"


def _replayed(machine, run, reference, what: str):
    """Verify a compiled function.  The natives it may call outside
    _PURE_NATIVES cannot run twice (they launch kernels, move clocks and
    emit profiler records): the tree walk ``reference`` runs with the
    host fast path off and those natives recorded, then ``run(natives)``
    against their replay (:func:`repro.mem.replay_run`).  A recorded
    native runs in verify mode, so the host code it calls back into is
    verified as usual.  The reference's state is the one that stays; the
    host stats are the compiled run's, plus what the recorded calls
    counted (regions verified inside them)."""
    natives, mode = machine.natives, machine.host_fastpath
    impure = [name for name in natives if name not in _PURE_NATIVES]
    pool = machine._string_pool
    stats = machine.host_stats
    start_stats = dict(stats)
    counted: list = []           # per recorded call, the stats it added

    def side_state():
        return tuple(machine.stdout), dict(pool), machine._rand_state

    def restore_side(state):
        machine.stdout[:] = state[0]
        pool.clear()
        pool.update(state[1])
        machine._rand_state = state[2]

    def recording(recorder):
        def recorded(m, args, loc, name, fn):
            if recorder.depth:
                return fn(m, args, loc)

            def invoke():
                before = dict(stats)
                machine.host_fastpath = mode
                try:
                    return fn(m, args, loc)
                finally:
                    machine.host_fastpath = "off"
                    counted.append({k: v - before[k]
                                    for k, v in stats.items()})
            return recorder.call(name, args, invoke)

        table = dict(natives)
        for name in impure:
            table[name] = (lambda m, args, loc, name=name, fn=natives[name]:
                           recorded(m, args, loc, name, fn))
        machine.natives = table
        machine.host_fastpath = "off"
        try:
            return reference()
        finally:
            machine.natives = natives
            machine.host_fastpath = mode

    def replaying(replayer):
        def replayed(name, args):
            k = replayer.next
            try:
                return replayer.call(name, args)
            finally:
                if replayer.next > k:
                    for key, n in counted[k].items():
                        stats[key] += n

        table = dict(natives)
        for name in impure:
            table[name] = (lambda m, args, loc, name=name:
                           replayed(name, args))
        stats.update(start_stats)
        return run(table)

    got, ref, diff = replay_run(machine.spaces, recording, replaying,
                                side_state, restore_side, _results_equal)
    stats["verified_regions"] += 1
    if diff is None:
        diff = _outcome_difference(got, ref)
    if diff:
        raise HostFastpathVerifyError(
            f"host fastpath verify: {what} diverged — {diff}")
    stats["fn_fast"] += 1
    raised, value = ref
    if raised:
        raise value
    return value


# --------------------------------------------------------------------------
# entry points (called from Machine)
# --------------------------------------------------------------------------

def exec_for_fastpath(machine, stmt: A.For, env) -> bool:
    """Execute an already-initialised ``for`` via a compiled plan.

    Returns True when fully executed (loop variable left at its final
    value); False to fall back to the tree-walker.  Called by
    ``Machine._exec_for`` after the init statement has run.
    """
    spec = machine.plans.loop(stmt)
    if spec is None:
        machine.host_stats["loop_fallback"] += 1
        return False
    frame = Frame(machine, env)
    try:
        _validate_loop(frame, spec, {})
    except _Bail:
        machine.host_stats["loop_fallback"] += 1
        return False
    try:
        if machine.host_fastpath == "verify":
            _verified(machine, lambda: _exec_loop(machine, frame, spec),
                      lambda: machine.run_for_loop(stmt, env),
                      f"loop at {stmt.loc}")
            return True
        _exec_loop(machine, frame, spec)
    except _BailDry:
        # refused before any store: the tree walk runs the loop, in
        # every mode
        machine.host_stats["loop_fallback"] += 1
        return False
    except _Bail as exc:
        raise InterpError(
            f"host fastpath: internal bail after validation at {stmt.loc}"
        ) from exc
    machine.host_stats["loop_fast"] += 1
    return True


def _arg_ok(arg, ctype: CType) -> bool:
    """Whether the tree walk would store ``arg`` into a parameter of
    ``ctype`` as the frame does."""
    if isinstance(ctype, PointerType):
        return isinstance(arg, (Ptr, int, np.integer))
    return isinstance(arg, (int, float, np.number))


def _exec_fn(machine, frame: Frame, spec: FnSpec):
    """The body of a compiled function in its own scope, then the value
    of its final ``return``."""
    mark = frame.mark()
    try:
        for stmt in spec.stmts:
            stmt(frame)
        return None if spec.ret is None else spec.ret(frame)
    finally:
        frame.release(mark)


def maybe_call_compiled(machine, fn, args, loc=None):
    """Try to run a user function as compiled closures.

    Returns ``(True, result)`` when the function was executed compiled, or
    ``(False, None)`` to fall back to ``Machine._call_interpreted``.
    """
    spec = machine.plans.fn(fn.defn)
    if spec is None or len(args) != len(spec.params) or not all(
            _arg_ok(arg, ctype) for arg, (_n, ctype) in zip(args, spec.params)):
        machine.host_stats["fn_fallback"] += 1
        return False, None

    def run(natives):
        frame = Frame(machine, [], natives, spec.volatile)
        try:
            # parameters get their slots in order, as in _call_interpreted
            for declare, (name, _ctype), arg in zip(spec.declare_params,
                                                    spec.params, args):
                declare(frame)
                frame.set(name, arg)
            return _exec_fn(machine, frame, spec)
        finally:
            frame.release(0)

    if machine.host_fastpath == "verify":
        return True, _replayed(
            machine, run, lambda: machine._call_interpreted(fn, args, loc),
            f"{spec.name}()")
    try:
        result = run(machine.natives)
    except _Bail as exc:
        raise InterpError(
            f"host fastpath: internal bail after validation in {spec.name}()"
        ) from exc
    machine.host_stats["fn_fast"] += 1
    return True, result
