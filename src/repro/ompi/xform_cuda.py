"""CUDA transformation set: OpenMP target constructs -> CUDA kernel ASTs.

Two lowering strategies, exactly as the paper describes:

* **combined constructs** (§3.1) — ``target teams distribute parallel
  for`` (written combined or as a directly nested chain) maps teams to the
  CUDA grid and threads to the block; iterations are distributed in two
  phases through the device library (``cudadev_get_distribute_chunk`` then
  ``cudadev_get_{static,dynamic,guided}_chunk``).  No master/worker
  machinery is used at all;
* **master/worker scheme** (§3.2) — any other ``target`` body launches
  with 128 threads, the master warp's thread 0 executing the sequential
  code and worker warps serving standalone ``parallel`` regions through
  registration over barriers B1/B2 and the shared-memory stack.

The generated kernels are plain CUDA C ASTs; the compiler driver unparses
them to standalone kernel files and feeds the *text* back through the
nvcc simulator, reproducing the paper's Fig. 2 pipeline honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import (
    ArrayType, BasicType, CType, INT, LONG, PointerType, VOID, VOIDP,
)
from repro.cfront.errors import CFrontError
from repro.cfront.hostcompile import loop_step
from repro.cfront.unparse import unparse
from repro.openmp.clauses import (
    AtomicClause, DataSharingClause, ExprClause, NameClause, NowaitClause,
    ReductionClause, ScheduleClause,
)
from repro.openmp.directives import Directive
from repro.ompi.astutil import (
    addr_of, assign, binop, block, call, callstmt, cast, ceil_div, clone,
    decl, decl_long, deref, ident, intlit, map_stmts, product,
    rename_idents, sizeof_expr, written_names,
)
from repro.ompi.config import OmpiConfig
from repro.ompi.outline import CapturedVar, TargetRegion, collect_identifiers, locally_declared


class CudaXformError(CFrontError):
    pass


_COMBINED_SEQUENCE = ("target", "teams", "distribute", "parallel", "for")


@dataclass
class LoopInfo:
    var: str
    var_type: CType
    lb: A.Expr
    count: A.Expr          # iteration count expression (host names)
    step: int
    body: A.Stmt


@dataclass
class KernelPlan:
    """Everything the host transformation needs to launch this kernel."""

    kernel_name: str
    mode: str                              # 'combined' | 'mw'
    params: list[CapturedVar]
    #: the kernel file's tree; None in a program loaded from the disk cache
    kernel_unit: A.TranslationUnit
    #: for combined kernels: per-loop iteration-count expressions written in
    #: terms of *host* variable names (evaluated at the launch site)
    host_counts: list[A.Expr] = field(default_factory=list)
    num_teams: Optional[A.Expr] = None
    num_threads: Optional[A.Expr] = None
    thread_limit: Optional[A.Expr] = None
    schedule: tuple[str, Optional[A.Expr]] = ("static", None)
    collapse: int = 1
    #: scalar reductions of the combined construct: (name, op, ctype).
    #: In tree mode the kernel gains one trailing ``__redp_<name>``
    #: pointer parameter per entry (per-team partials buffer) and the
    #: host runtime performs the fixed-order cross-team combine.
    reductions: list[tuple[str, str, CType]] = field(default_factory=list)
    #: 'tree' (deterministic warp-shuffle/shared-memory/copy-back tree)
    #: or 'atomic' (legacy order-dependent global-atomic merge baseline)
    reduction_mode: str = "tree"

    def __getstate__(self):
        # the kernel file's tree serves compilation only: a stored program
        # keeps the kernel text and image, not the tree
        state = dict(self.__dict__)
        state["kernel_unit"] = None
        return state


def flatten_construct(pragma: A.PragmaStmt) -> tuple[Directive, A.Stmt]:
    """Merge a chain of directly nested target/teams/distribute/parallel/for
    pragmas into one effective combined directive."""
    words: list[str] = []
    clauses = []
    node: A.Stmt = pragma
    while True:
        if isinstance(node, A.Compound) and len(node.body) == 1 \
                and isinstance(node.body[0], A.PragmaStmt) and words:
            node = node.body[0]
        if not (isinstance(node, A.PragmaStmt) and node.directive is not None):
            break
        d: Directive = node.directive
        expected_next = list(_COMBINED_SEQUENCE[len(words):])
        d_words = list(d.words)
        if d_words != expected_next[: len(d_words)]:
            break
        words.extend(d_words)
        clauses.extend(d.clauses)
        if node.body is None:
            raise CudaXformError("construct with no body", node.loc)
        node = node.body
    if not words:
        raise CudaXformError("not a target construct", pragma.loc)
    return Directive(" ".join(words), clauses), node


def analyze_canonical_loop(loop: A.For) -> LoopInfo:
    """Canonical-form analysis: ``for (i = lb; i < ub; i += step)``."""
    if not isinstance(loop, A.For):
        raise CudaXformError("worksharing construct requires a for loop",
                             getattr(loop, "loc", None))
    var: Optional[str] = None
    var_type: CType = INT
    lb: Optional[A.Expr] = None
    if isinstance(loop.init, A.ExprStmt) and isinstance(loop.init.expr, A.Assign) \
            and loop.init.expr.op is None \
            and isinstance(loop.init.expr.target, A.Ident):
        var = loop.init.expr.target.name
        lb = loop.init.expr.value
    elif isinstance(loop.init, A.DeclStmt) and len(loop.init.decls) == 1 \
            and loop.init.decls[0].init is not None:
        var = loop.init.decls[0].name
        var_type = loop.init.decls[0].type
        lb = loop.init.decls[0].init
    if var is None or lb is None:
        raise CudaXformError("loop is not in OpenMP canonical form (init)",
                             loop.loc)
    cond = loop.cond
    if not (isinstance(cond, A.Binary) and cond.op in ("<", "<=")
            and isinstance(cond.left, A.Ident) and cond.left.name == var):
        raise CudaXformError("loop is not in canonical form (condition)", loop.loc)
    step = loop_step(loop.step, var)
    if step is None or step <= 0:
        raise CudaXformError("loop requires a positive constant step", loop.loc)
    ub = cond.right
    if cond.op == "<=":
        ub = binop("+", clone(ub), intlit(1))
    diff = binop("-", clone(ub), clone(lb))
    count = diff if step == 1 else ceil_div(diff, intlit(step))
    return LoopInfo(var, var_type, lb, count, step, loop.body)


def collect_collapsed_loops(body: A.Stmt, d: Directive) -> list[LoopInfo]:
    """Peel ``collapse(n)`` perfectly nested canonical loops off a
    worksharing construct's body (n = 1 when the clause is absent)."""
    collapse = 1
    ccl = d.first(ExprClause, "collapse")
    if ccl is not None:
        if not isinstance(ccl.expr, A.IntLit):
            raise CudaXformError("collapse argument must be a constant")
        collapse = ccl.expr.value
    loops: list[LoopInfo] = []
    node = body
    for level in range(collapse):
        if isinstance(node, A.Compound) and len(node.body) == 1:
            node = node.body[0]
        if not isinstance(node, A.For):
            raise CudaXformError(
                f"collapse({collapse}) requires {collapse} perfectly "
                f"nested loops (found {type(node).__name__} at level {level})"
            )
        info = analyze_canonical_loop(node)
        loops.append(info)
        node = info.body
    return loops


def linearize(loops: list[LoopInfo], prefix: str,
              renames: dict[str, A.Expr],
              ) -> tuple[list[A.Stmt], A.Expr, list[A.Expr]]:
    """The one ``collapse(n)`` linearisation: declarations of the trip
    counts ``<prefix>0 .. <prefix>n-1``, their product, and each loop
    variable as an expression of the linear iteration number ``__it``
    (row-major: the innermost loop varies fastest)."""
    counts = [decl_long(f"{prefix}{i}",
                        cast(LONG, rename_idents(info.count, renames)))
              for i, info in enumerate(loops)]
    total = product([ident(f"{prefix}{i}") for i in range(len(loops))])
    values: list[A.Expr] = []
    for i, info in enumerate(loops):
        expr: A.Expr = ident("__it")
        for j in range(i + 1, len(loops)):
            expr = binop("/", expr, ident(f"{prefix}{j}"))
        if i > 0:
            expr = binop("%", expr, ident(f"{prefix}{i}"))
        values.append(_loop_value(info, expr, renames))
    return counts, total, values


def _loop_value(info: LoopInfo, k: A.Expr,
               renames: dict[str, A.Expr]) -> A.Expr:
    """``lb + k * step``: the loop variable at logical iteration ``k``."""
    if info.step != 1:
        k = binop("*", k, intlit(info.step))
    return binop("+", cast(info.var_type, k), rename_idents(info.lb, renames))


class CudaKernelBuilder:
    """Builds the kernel-file AST for one target region."""

    def __init__(
        self,
        region: TargetRegion,
        unit: A.TranslationUnit,
        config: OmpiConfig,
        host_scope: dict[str, CType],
        device_functions: list[A.FuncDef],
    ):
        self.region = region
        self.unit = unit
        self.config = config
        self.host_scope = host_scope
        self.device_functions = device_functions
        self._loop_ids = iter(range(1000))
        self._parallel_count = 0
        self._lock_ids: dict[str, int] = {}
        self._extra_decls: list[A.Node] = []   # thrFuncs, structs

    # ------------------------------------------------------------------ build
    def build(self) -> KernelPlan:
        directive, innermost = flatten_construct(
            A.PragmaStmt(self.region.directive.name, self.region.body,
                         directive=self.region.directive)
        )
        if directive.name == " ".join(_COMBINED_SEQUENCE) and \
                isinstance(innermost, A.For):
            return self._build_combined(directive, innermost)
        return self._build_masterworker()

    # -- shared helpers ------------------------------------------------------
    def _param_decls(self) -> list[A.Param]:
        params: list[A.Param] = []
        for cv in self.region.captured:
            if cv.is_pointerish:
                params.append(A.Param(cv.name, PointerType(cv.elem_type())))
            elif cv.by_value:
                params.append(A.Param(cv.name, cv.ctype))
            else:
                params.append(A.Param(cv.name + "_p", PointerType(cv.ctype)))
        return params

    def _scalar_prologue(self, body_writes: set[str]) -> tuple[list[A.Stmt], dict[str, A.Expr]]:
        """Load read-only mapped scalars into locals; rewrite written ones
        through their pointer parameter.  By-value scalars are already
        kernel parameters under their own names."""
        stmts: list[A.Stmt] = []
        renames: dict[str, A.Expr] = {}
        for cv in self.region.captured:
            if cv.is_pointerish or cv.by_value or cv.lastprivate:
                continue
            if cv.name in body_writes:
                renames[cv.name] = deref(ident(cv.name + "_p"))
            else:
                stmts.append(decl(cv.name, cv.ctype,
                                  deref(ident(cv.name + "_p"))))
        return stmts, renames

    def _private_decls(self, body: A.Stmt, skip: set[str]) -> list[A.Stmt]:
        """Declarations for private (unmapped, non-local) names the body
        uses — loop indices of inner loops, private-clause variables."""
        used = collect_identifiers(body)
        local = locally_declared(body)
        captured = {cv.name for cv in self.region.captured}
        out: list[A.Stmt] = []
        for name in sorted(used):
            if name in local or name in captured or name in skip:
                continue
            if name in self.region.device_globals:
                continue
            ctype = self.host_scope.get(name)
            if ctype is None or not isinstance(ctype, BasicType):
                continue
            out.append(decl(name, ctype))
        return out

    def _finish_unit(self, kernel_fn: A.FuncDef) -> A.TranslationUnit:
        unit = A.TranslationUnit(filename=self.region.kernel_name + ".cu")
        for fn in self.device_functions:
            fn_copy = clone(fn)
            if "__device__" not in fn_copy.quals:
                fn_copy.quals = ("__device__",) + fn_copy.quals
            unit.decls.append(fn_copy)
        unit.decls.extend(self._extra_decls)
        unit.decls.append(kernel_fn)
        return unit

    # -- combined construct (paper §3.1) --------------------------------------
    def _build_combined(self, directive: Directive, loop: A.For) -> KernelPlan:
        loops = collect_collapsed_loops(loop, directive)
        body = loops[-1].body

        body_writes = written_names(body)
        prologue, renames = self._scalar_prologue(body_writes)
        # reductions: per-thread accumulator, then either the deterministic
        # warp-shuffle + shared-memory tree (partials to __redp_<name>,
        # combined in fixed team order by the host at copy-back) or the
        # legacy order-dependent global-atomic merge (baseline mode)
        red_mode = getattr(self.config, "reduction_mode", "tree") or "tree"
        red_epilogue: list[A.Stmt] = []
        reds: list[tuple[str, str, CapturedVar]] = []
        for red in directive.clauses_of(ReductionClause):
            for name in red.names:
                cv = next((c for c in self.region.captured if c.name == name), None)
                if cv is None or cv.is_pointerish:
                    raise CudaXformError(
                        f"reduction variable {name!r} must be a mapped scalar")
                acc = "__red_" + name
                prologue.append(decl(acc, cv.ctype,
                                     _red_identity(red.op, cv)))
                renames[name] = ident(acc)
                reds.append((name, red.op, cv))
        if reds:
            if red_mode == "atomic":
                red_epilogue = [_atomic_merge(name, op, cv)
                                for name, op, cv in reds]
            else:
                red_epilogue = [_tree_epilogue(reds)]

        # iteration-space linearisation; the 2D/3D scheme reconstructs
        # each variable from its own dimension's counter __it<i> instead
        counts, niter, values = linearize(loops, "__n", renames)
        prologue.extend(counts)
        recon = [decl(info.var, info.var_type, value)
                 for info, value in zip(loops, values)]
        recon_dim = [decl(info.var, info.var_type,
                          _loop_value(info, ident(f"__it{i}"), renames))
                     for i, info in enumerate(loops)]

        schedule = ("static", None)
        scl = directive.first(ScheduleClause)
        chunk_expr: A.Expr = intlit(0)
        sched_fn = "cudadev_get_static_chunk"
        if scl is not None:
            schedule = (scl.schedule, scl.chunk)
            if scl.schedule == "dynamic":
                sched_fn = "cudadev_get_dynamic_chunk"
            elif scl.schedule == "guided":
                sched_fn = "cudadev_get_guided_chunk"
            elif scl.schedule in ("auto", "runtime"):
                sched_fn = "cudadev_get_static_chunk"
            if scl.chunk is not None:
                chunk_expr = rename_idents(scl.chunk, renames)

        # inner synchronisation constructs (atomic/critical/barrier) in the
        # loop body are lowered by the region transformer
        new_body = _RegionTransformer(self, renames).transform_stmt(body)
        # lastprivate: private local + conditional write-back from the
        # logically-last iteration of the collapsed nest
        last_cvs = [cv for cv in self.region.captured if cv.lastprivate]
        if last_cvs:
            last_cond: Optional[A.Expr] = None
            for i, info in enumerate(loops):
                term = binop("==", ident(info.var), binop(
                    "-", binop("+", rename_idents(info.lb, renames),
                               binop("*", ident(f"__n{i}"),
                                     intlit(info.step))),
                    intlit(info.step)))
                last_cond = term if last_cond is None else \
                    binop("&&", last_cond, term)
            writes = [assign(deref(ident(cv.name + "_p")), ident(cv.name))
                      for cv in last_cvs]
            for cv in last_cvs:
                prologue.append(decl(cv.name, cv.ctype))
            new_body = block(new_body, A.If(last_cond, block(writes)))

        # 1D loops use the linear scheme (linear thread id over the whole
        # block, matching the linearised indexing of 1D CUDA kernels); 2D/3D
        # collapsed nests use per-dimension chunking so the thread->iteration
        # mapping equals the CUDA grid's.
        use_dims = schedule[0] == "static" and 2 <= len(loops) <= 3
        if use_dims:
            # OMPi's 2D/3D mapping (§5: "Internally, ompi maps these values
            # to two dimensions, so as to match the block and grid
            # dimensions of the equivalent cuda applications"): every
            # collapsed loop dimension distributes along one grid/block
            # dimension — x for the innermost, y/z outwards — through
            # dimension-wise two-phase chunking.
            ndims = len(loops)
            decls: list[A.Stmt] = []
            nest: A.Stmt = new_body
            for level in range(ndims - 1, -1, -1):
                info = loops[level]
                dim = ndims - 1 - level
                loop_id = next(self._loop_ids)
                sfx = str(level)
                decls.extend([
                    decl_long("__lo" + sfx), decl_long("__hi" + sfx),
                    decl_long("__tlo" + sfx), decl_long("__thi" + sfx),
                    decl_long("__it" + sfx),
                ])
                chunk_arg = chunk_expr if level == ndims - 1 else intlit(0)
                inner_for = A.For(
                    A.ExprStmt(A.Assign(ident("__it" + sfx), ident("__tlo" + sfx))),
                    binop("<", ident("__it" + sfx), ident("__thi" + sfx)),
                    A.Assign(ident("__it" + sfx), intlit(1), "+"),
                    block(recon_dim[level], nest),
                )
                nest = block(
                    callstmt("cudadev_get_distribute_chunk_dim", intlit(dim),
                             intlit(0), ident(f"__n{level}"),
                             addr_of(ident("__lo" + sfx)),
                             addr_of(ident("__hi" + sfx))),
                    A.While(
                        call("cudadev_get_static_chunk_dim", intlit(dim),
                             intlit(loop_id), ident("__lo" + sfx),
                             ident("__hi" + sfx), cast(LONG, clone(chunk_arg)),
                             addr_of(ident("__tlo" + sfx)),
                             addr_of(ident("__thi" + sfx))),
                        block([inner_for]),
                    ),
                )
            kernel_body = block(
                callstmt("cudadev_target_init", intlit(0)),
                prologue,
                self._private_decls(body, {info.var for info in loops}),
                decls,
                nest,
                red_epilogue,
            )
        else:
            # linear scheme over the collapsed iteration space (dynamic and
            # guided schedules need the shared team-wide counter)
            loop_id = next(self._loop_ids)
            inner_for = A.For(
                A.ExprStmt(A.Assign(ident("__it"), ident("__tlo"))),
                binop("<", ident("__it"), ident("__thi")),
                A.Assign(ident("__it"), intlit(1), "+"),
                block(recon, new_body),
            )
            while_loop = A.While(
                call(sched_fn, intlit(loop_id), ident("__lo"), ident("__hi"),
                     cast(LONG, chunk_expr), addr_of(ident("__tlo")),
                     addr_of(ident("__thi"))),
                block([inner_for]),
            )
            kernel_body = block(
                callstmt("cudadev_target_init", intlit(0)),
                prologue,
                self._private_decls(body, {info.var for info in loops}),
                decl_long("__niter", niter),
                decl_long("__lo"), decl_long("__hi"),
                decl_long("__tlo"), decl_long("__thi"), decl_long("__it"),
                callstmt("cudadev_get_distribute_chunk", intlit(0),
                         ident("__niter"), addr_of(ident("__lo")),
                         addr_of(ident("__hi"))),
                while_loop,
                red_epilogue,
            )
        params = self._param_decls()
        if reds and red_mode != "atomic":
            # per-team partials buffers ride as trailing pointer params so
            # the positional host kernel arguments stay aligned
            params.extend(A.Param("__redp_" + name, PointerType(cv.ctype))
                          for name, op, cv in reds)
        kernel_fn = A.FuncDef(self.region.kernel_name, VOID,
                              params, kernel_body,
                              ("__global__",))
        plan = KernelPlan(
            kernel_name=self.region.kernel_name,
            mode="combined",
            params=list(self.region.captured),
            kernel_unit=self._finish_unit(kernel_fn),
            host_counts=[clone(info.count) for info in loops],
            schedule=schedule,
            collapse=len(loops),
            reductions=[(name, op, cv.ctype) for name, op, cv in reds],
            reduction_mode=red_mode,
        )
        tc = directive.first(ExprClause, "num_teams")
        plan.num_teams = clone(tc.expr) if tc else None
        th = directive.first(ExprClause, "num_threads")
        plan.num_threads = clone(th.expr) if th else None
        tl = directive.first(ExprClause, "thread_limit")
        plan.thread_limit = clone(tl.expr) if tl else None
        return plan

    # -- master/worker scheme (paper §3.2) --------------------------------------
    def _build_masterworker(self) -> KernelPlan:
        # master/worker kernels keep the paper's Fig. 3b pointer convention
        # for every mapped variable (scalars reach parallel regions through
        # the shared-memory stack, which needs addressable master copies)
        for cv in self.region.captured:
            cv.by_value = False
        body_writes = written_names(self.region.body)
        prologue, renames = self._scalar_prologue(body_writes)
        transformer = _MwTransformer(self, renames)
        seq_body = transformer.transform_stmt(self.region.body)
        kernel_body = block(
            decl("_mw_thrid", INT, binop(
                "+", A.Member(ident("threadIdx"), "x"),
                binop("*", A.Member(ident("threadIdx"), "y"),
                      A.Member(ident("blockDim"), "x")))),
            callstmt("cudadev_target_init", intlit(1)),
            A.If(
                call("cudadev_in_masterwarp", ident("_mw_thrid")),
                block(
                    A.If(A.Unary("!", call("cudadev_is_masterthr",
                                           ident("_mw_thrid"))),
                         A.Return(None)),
                    prologue,
                    self._private_decls(self.region.body, set()),
                    seq_body,
                    callstmt("cudadev_exit_target"),
                ),
                block(callstmt("cudadev_workerfunc", ident("_mw_thrid"))),
            ),
        )
        kernel_fn = A.FuncDef(self.region.kernel_name, VOID,
                              self._param_decls(), kernel_body,
                              ("__global__",))
        return KernelPlan(
            kernel_name=self.region.kernel_name,
            mode="mw",
            params=list(self.region.captured),
            kernel_unit=self._finish_unit(kernel_fn),
        )

    # -- scope helpers ------------------------------------------------------------
    def target_local_types(self) -> dict[str, CType]:
        """Types of variables declared inside the target body (master
        locals), which parallel regions may capture."""
        cache = getattr(self, "_tlt_cache", None)
        if cache is None:
            cache = {n.name: n.type for n in self.region.body.walk()
                     if isinstance(n, A.VarDecl)}
            self._tlt_cache = cache
        return cache

    def lookup_type(self, name: str) -> Optional[CType]:
        cv = next((c for c in self.region.captured if c.name == name), None)
        if cv is not None:
            return cv.ctype
        tlt = self.target_local_types()
        if name in tlt:
            return tlt[name]
        return self.host_scope.get(name)

    # -- lock ids ---------------------------------------------------------------
    def lock_id(self, name: str) -> int:
        if name not in self._lock_ids:
            self._lock_ids[name] = len(self._lock_ids)
        return self._lock_ids[name]


#: operators whose combine is idempotent (x OP x == x): the per-thread
#: accumulator can seed from the incoming value of the reduction variable
#: (folding it any number of times is harmless), sidestepping awkward
#: type-extremum identity literals for max/min
_IDEMPOTENT_RED_OPS = frozenset({"max", "min", "&", "|"})


def _red_identity(op: str, cv: CapturedVar) -> A.Expr:
    """Accumulator initialiser for one reduction variable.

    ``-`` accumulates like ``+`` (the body subtracts, so the accumulator
    collects the negated partial sum and merges additively, per OpenMP)."""
    if op in _IDEMPOTENT_RED_OPS:
        return deref(ident(cv.name + "_p"))
    single = isinstance(cv.ctype, BasicType) and cv.ctype.kind == "float"
    seed = 1.0 if op == "*" else 0.0
    if cv.ctype.is_floating:
        return A.FloatLit(seed, single=single)
    return intlit(int(seed))


def _red_combine(op: str, a: A.Expr, b: A.Expr) -> A.Expr:
    """``a OP b`` as a C expression (max/min as ternaries)."""
    if op in ("+", "-"):
        return binop("+", a, b)
    if op == "max":
        return A.Cond(binop(">", clone(a), clone(b)), a, b)
    if op == "min":
        return A.Cond(binop("<", clone(a), clone(b)), a, b)
    return binop(op, a, b)   # * & | ^


def _atomic_merge(name: str, op: str, cv: CapturedVar) -> A.Stmt:
    """Legacy atomic-merge baseline: each thread merges its accumulator
    straight into the mapped scalar.  Order-dependent for floats, kept
    behind ``OmpiConfig.reduction_mode='atomic'`` as the benchmark
    baseline.  Float max/min and the op/type pairs CUDA has no hardware
    atomic for route through the type-generic ``cudadev_atomic_red_*``
    intrinsics — never an invalid float ``atomicMax``/``atomicMin``."""
    target_ptr = ident(cv.name + "_p")
    acc = ident("__red_" + name)
    if op in ("+", "-"):
        return callstmt("atomicAdd", target_ptr, acc)
    if op in ("max", "min") and not cv.ctype.is_floating:
        return callstmt("atomicMax" if op == "max" else "atomicMin",
                        target_ptr, acc)
    fn = {"max": "max", "min": "min", "*": "mul",
          "&": "and", "|": "or", "^": "xor"}[op]
    return callstmt("cudadev_atomic_red_" + fn, target_ptr, acc)


#: ops the atomic directive can update with (the ones the sim has an
#: atomic RMW for); `+ * & | ^` are commutative so `x = e op x` is legal
_ATOMIC_UPDATE_OPS = ("+", "-", "*", "&", "|", "^")
_ATOMIC_COMMUTATIVE = ("+", "*", "&", "|", "^")


def _match_atomic_update(stmt: A.Stmt) -> Optional[tuple[A.Expr, str, A.Expr]]:
    """Recognise the update forms of ``#pragma omp atomic``:
    ``x op= e``, ``x++``/``x--`` (pre or post), ``x = x op e`` and — for
    commutative ops — ``x = e op x``.  Returns ``(target, op, value)``
    or None."""
    if not isinstance(stmt, A.ExprStmt):
        return None
    expr = stmt.expr
    if isinstance(expr, A.Unary) and expr.op in ("++", "--", "p++", "p--"):
        return (expr.operand, "+" if "++" in expr.op else "-", intlit(1))
    if not isinstance(expr, A.Assign):
        return None
    if expr.op in _ATOMIC_UPDATE_OPS:
        return (expr.target, expr.op, expr.value)
    if expr.op is None and isinstance(expr.value, A.Binary) \
            and expr.value.op in _ATOMIC_UPDATE_OPS:
        target_src = unparse(expr.target)
        if unparse(expr.value.left) == target_src:
            return (expr.target, expr.value.op, expr.value.right)
        if expr.value.op in _ATOMIC_COMMUTATIVE \
                and unparse(expr.value.right) == target_src:
            return (expr.target, expr.value.op, expr.value.left)
    return None


def _atomic_update_call(op: str, target: A.Expr, value: A.Expr) -> A.Expr:
    """The atomic RMW call for one update: ``atomicAdd`` where CUDA has
    one, the type-generic ``cudadev_atomic_red_*`` otherwise.  The call
    returns the old value, which ``atomic capture`` consumes."""
    if op == "-":
        return call("atomicAdd", addr_of(target), A.Unary("-", value))
    if op == "+":
        return call("atomicAdd", addr_of(target), value)
    fn = {"*": "mul", "&": "and", "|": "or", "^": "xor"}[op]
    return call("cudadev_atomic_red_" + fn, addr_of(target), value)


def _tree_epilogue(reds: list[tuple[str, str, CapturedVar]]) -> A.Stmt:
    """Deterministic in-team reduction tree, appended after the
    worksharing loops (every thread reaches it unconditionally, so the
    ``__syncthreads`` inside is uniform).

    Phase 1 combines within each warp by ``__shfl_down_sync`` halving,
    guarded so partial warps never read lanes past the block's thread
    count; phase 2 stores warp totals to a shared workspace and thread 0
    folds them in warp order; the team total lands in this team's slot
    of the ``__redp_<name>`` partials buffer, indexed by the *global*
    team id (shards launch with global grid dims, so slots never
    collide across devices).  The cross-team fold happens host-side in
    fixed team order — the whole combine is order-deterministic."""
    tix = ident("threadIdx")
    bdim = ident("blockDim")
    lin = binop("+", A.Member(clone(tix), "x"),
                binop("*", A.Member(clone(bdim), "x"),
                      binop("+", A.Member(clone(tix), "y"),
                            binop("*", A.Member(clone(bdim), "y"),
                                  A.Member(clone(tix), "z")))))
    nth = binop("*", A.Member(clone(bdim), "x"),
                binop("*", A.Member(clone(bdim), "y"),
                      A.Member(clone(bdim), "z")))
    team = binop("+", A.Member(ident("blockIdx"), "x"),
                 binop("*", A.Member(ident("gridDim"), "x"),
                       binop("+", A.Member(ident("blockIdx"), "y"),
                             binop("*", A.Member(ident("gridDim"), "y"),
                                   A.Member(ident("blockIdx"), "z")))))
    stmts: list[A.Stmt] = [
        decl("__red_lin", INT, lin),
        decl("__red_lane", INT, binop("%", ident("__red_lin"), intlit(32))),
        decl("__red_wid", INT, binop("/", ident("__red_lin"), intlit(32))),
        decl("__red_nth", INT, nth),
        decl("__red_team", INT, team),
        # active lanes of this thread's warp (the last warp may be partial)
        decl("__red_wact", INT,
             A.Cond(binop(">", binop("-", ident("__red_nth"),
                                     binop("*", ident("__red_wid"),
                                           intlit(32))),
                    intlit(32)),
                    intlit(32),
                    binop("-", ident("__red_nth"),
                          binop("*", ident("__red_wid"), intlit(32))))),
        decl("__red_nw", INT,
             binop("/", binop("+", ident("__red_nth"), intlit(31)),
                   intlit(32))),
    ]
    for name, op, cv in reds:
        acc = "__red_" + name
        ws = "__red_ws_" + name
        tmp = "__red_t_" + name
        # warp tree: halve the stride, each step pulling the partner
        # lane's value; the guard keeps lanes past the active count (and
        # their lazily-zero registers) out of the combine
        shuffle_loop = A.For(
            A.ExprStmt(A.Assign(ident("__red_off"), intlit(16))),
            binop(">", ident("__red_off"), intlit(0)),
            A.Assign(ident("__red_off"),
                     binop("/", ident("__red_off"), intlit(2))),
            block(
                decl(tmp, cv.ctype,
                     call("__shfl_down_sync", intlit(-1), ident(acc),
                          ident("__red_off"))),
                A.If(binop("<", binop("+", ident("__red_lane"),
                                      ident("__red_off")),
                           ident("__red_wact")),
                     A.ExprStmt(A.Assign(
                         ident(acc),
                         _red_combine(op, ident(acc), ident(tmp))))),
            ),
        )
        # fold the warp totals in warp order, store this team's partial
        fold = block(
            decl("__red_a", cv.ctype,
                 A.Index(ident(ws), intlit(0))),
            decl("__red_w", INT),
            A.For(
                A.ExprStmt(A.Assign(ident("__red_w"), intlit(1))),
                binop("<", ident("__red_w"), ident("__red_nw")),
                A.Assign(ident("__red_w"), intlit(1), "+"),
                A.ExprStmt(A.Assign(
                    ident("__red_a"),
                    _red_combine(op, ident("__red_a"),
                                 A.Index(ident(ws), ident("__red_w"))))),
            ),
            A.ExprStmt(A.Assign(
                A.Index(ident("__redp_" + name), ident("__red_team")),
                ident("__red_a"))),
        )
        stmts.append(block(
            A.DeclStmt([A.VarDecl(ws, ArrayType(cv.ctype, 32), None, None,
                                  ("__shared__",))]),
            decl("__red_off", INT),
            shuffle_loop,
            A.If(binop("==", ident("__red_lane"), intlit(0)),
                 A.ExprStmt(A.Assign(A.Index(ident(ws), ident("__red_wid")),
                                     ident(acc)))),
            callstmt("__syncthreads"),
            A.If(binop("==", ident("__red_lin"), intlit(0)), fold),
        ))
    return block(stmts)


class _MwTransformer:
    """Rewrites a target body for master-thread execution, outlining
    parallel regions (paper Fig. 3)."""

    def __init__(self, builder: CudaKernelBuilder, scalar_renames: dict[str, A.Expr]):
        self.b = builder
        self.scalar_renames = scalar_renames

    # sequential (master) context ------------------------------------------------
    def transform_stmt(self, stmt: A.Stmt) -> A.Stmt:
        return map_stmts(stmt, self._transform_pragma,
                         lambda x: rename_idents(x, self.scalar_renames))

    def _transform_pragma(self, stmt: A.PragmaStmt) -> A.Stmt:
        d: Directive = stmt.directive
        if d is None:
            return A.ExprStmt(None)
        if d.name in ("parallel", "parallel for", "parallel sections"):
            return self._outline_parallel(stmt, d)
        if d.name == "for":
            # worksharing in the sequential part: a team of one — plain loop
            return self.transform_stmt(stmt.body)
        if d.name in ("single", "master"):
            return self.transform_stmt(stmt.body)
        if d.name == "barrier":
            return A.ExprStmt(None)   # team of one
        if d.name == "critical":
            return self.transform_stmt(stmt.body)
        raise CudaXformError(
            f"'#pragma omp {d.name}' is not supported in the sequential part "
            "of a target region", stmt.loc
        )

    # parallel-region outlining -----------------------------------------------------
    def _outline_parallel(self, stmt: A.PragmaStmt, d: Directive) -> A.Stmt:
        b = self.b
        idx = b._parallel_count
        b._parallel_count += 1
        fn_name = f"thrFunc{idx}"
        struct_name = f"vars_st{idx}"
        region_body = stmt.body
        if d.name == "parallel for":
            region_body = A.PragmaStmt("omp for", stmt.body,
                                       directive=Directive("for", [
                                           c for c in d.clauses
                                           if isinstance(c, (ScheduleClause,
                                                             NowaitClause))
                                       ]))
        if d.name == "parallel sections":
            region_body = A.PragmaStmt("omp sections", stmt.body,
                                       directive=Directive("sections", []))

        from repro.ompi.outline import sequential_loop_vars
        private: set[str] = sequential_loop_vars(stmt.body)
        firstprivate: set[str] = set()
        for clause in d.clauses_of(DataSharingClause):
            if clause.kind == "private":
                private.update(clause.names)
            elif clause.kind == "firstprivate":
                firstprivate.update(clause.names)
        used = collect_identifiers(stmt.body)
        local = locally_declared(stmt.body)
        if d.includes("for"):
            loop = stmt.body
            if isinstance(loop, A.For):
                var = loop.init.decls[0].name if isinstance(loop.init, A.DeclStmt) \
                    else (loop.init.expr.target.name
                          if isinstance(loop.init, A.ExprStmt)
                          and isinstance(loop.init.expr, A.Assign)
                          and isinstance(loop.init.expr.target, A.Ident) else None)
                if var:
                    private.add(var)

        captured_params: list[CapturedVar] = []   # kernel params (arrays)
        captured_scalars: list[tuple[str, CType]] = []  # master locals/scalars
        for name in sorted(used):
            if name in local or name in private:
                continue
            cv = next((c for c in b.region.captured if c.name == name), None)
            if cv is not None:
                if cv.is_pointerish:
                    captured_params.append(cv)
                else:
                    captured_scalars.append((name, cv.ctype))
                continue
            ctype = b.target_local_types().get(name)
            if ctype is not None and isinstance(ctype, BasicType):
                # a master local declared in the target body
                captured_scalars.append((name, ctype))
        # build the vars struct
        fields: list[tuple[str, CType]] = []
        for cv in captured_params:
            fields.append((cv.name, PointerType(cv.elem_type())))
        for name, ctype in captured_scalars:
            fields.append((name, PointerType(ctype)))
        from repro.cfront.ctypes_ import StructType
        stype = StructType(struct_name, tuple(fields))
        b._extra_decls.append(A.StructDef(struct_name, list(fields)))

        # registration block (paper Fig. 3b)
        reg: list[A.Stmt] = []
        reg.append(A.DeclStmt([A.VarDecl("vars", stype, None, None,
                                         ("__shared__",))]))
        for cv in captured_params:
            reg.append(assign(
                A.Member(ident("vars"), cv.name),
                cast(PointerType(cv.elem_type()),
                     call("cudadev_getaddr", cast(VOIDP, ident(cv.name)))),
            ))
        for name, ctype in captured_scalars:
            src = self.scalar_renames.get(name)
            src_addr = clone(src.operand) if isinstance(src, A.Unary) \
                and src.op == "*" else addr_of(ident(name))
            reg.append(assign(
                A.Member(ident("vars"), name),
                cast(PointerType(ctype),
                     call("cudadev_push_shmem", cast(VOIDP, src_addr),
                          sizeof_expr(ident(name)
                                      if src is None else clone(src)))),
            ))
        nthr = d.first(ExprClause, "num_threads")
        nthr_expr = rename_idents(nthr.expr, self.scalar_renames) if nthr \
            else intlit(-1)
        reg.append(callstmt("cudadev_register_parallel", ident(fn_name),
                            cast(VOIDP, addr_of(ident("vars"))), nthr_expr))
        for name, ctype in reversed(captured_scalars):
            src = self.scalar_renames.get(name)
            src_addr = clone(src.operand) if isinstance(src, A.Unary) \
                and src.op == "*" else addr_of(ident(name))
            reg.append(callstmt("cudadev_pop_shmem", cast(VOIDP, src_addr),
                                sizeof_expr(ident(name)
                                            if src is None else clone(src))))

        # thrFunc body
        thr_prologue: list[A.Stmt] = [
            decl("vars", PointerType(stype),
                 cast(PointerType(stype), ident("__arg"))),
        ]
        renames: dict[str, A.Expr] = {}
        for cv in captured_params:
            thr_prologue.append(decl(cv.name, PointerType(cv.elem_type()),
                                     A.Member(ident("vars"), cv.name,
                                              arrow=True)))
        for name, ctype in captured_scalars:
            if name in firstprivate:
                thr_prologue.append(decl(name, ctype,
                                         deref(A.Member(ident("vars"), name,
                                                        arrow=True))))
            else:
                renames[name] = deref(A.Member(ident("vars"), name, arrow=True))
        for name in sorted(private - local):
            ctype = b.lookup_type(name)
            if ctype is not None and isinstance(ctype, BasicType):
                thr_prologue.append(decl(name, ctype))

        region_xf = _RegionTransformer(b, renames)
        thr_body = block(thr_prologue,
                         region_xf.transform_stmt(region_body))
        thr_fn = A.FuncDef(fn_name, VOID,
                           [A.Param("__arg", VOIDP)], thr_body,
                           ("__device__",))
        b._extra_decls.append(thr_fn)
        return A.Compound(reg)


class _RegionTransformer:
    """Rewrites a parallel-region body for worker-thread execution."""

    def __init__(self, builder: CudaKernelBuilder, renames: dict[str, A.Expr]):
        self.b = builder
        self.renames = renames

    def transform_stmt(self, stmt: A.Stmt) -> A.Stmt:
        return map_stmts(stmt, self._transform_pragma, self._rename)

    def _rename(self, node: A.Node) -> A.Node:
        return rename_idents(node, self.renames)

    def _transform_pragma(self, stmt: A.PragmaStmt) -> A.Stmt:
        from repro.openmp.pragma_parser import parse_omp_pragma
        d: Directive = stmt.directive
        if d is None:
            d = parse_omp_pragma(stmt.text)
        if d.name in ("for", "for simd"):
            return self._worksharing_for(stmt, d)
        if d.name == "simd":
            # warps already execute in lockstep; simd is a no-op hint here
            return self.transform_stmt(stmt.body)
        if d.name == "barrier":
            return callstmt("cudadev_barrier")
        if d.name == "critical":
            return self._critical(stmt, d)
        if d.name in ("single", "master"):
            body = self.transform_stmt(stmt.body)
            guarded = A.If(binop("==", call("omp_get_thread_num"), intlit(0)),
                           body)
            if d.name == "single" and not d.has(NowaitClause):
                return block(guarded, callstmt("cudadev_barrier"))
            return guarded
        if d.name == "sections":
            return self._sections(stmt, d)
        if d.name == "atomic":
            return self._atomic(stmt, d)
        if d.name == "parallel":
            raise CudaXformError(
                "nested parallel regions inside a device parallel region "
                "are not supported", stmt.loc
            )
        raise CudaXformError(
            f"'#pragma omp {d.name}' inside a device parallel region is "
            "not supported", stmt.loc
        )

    def _worksharing_for(self, stmt: A.PragmaStmt, d: Directive) -> A.Stmt:
        # collapse(n) folds n perfectly nested canonical loops into the
        # same linearised iteration space the combined construct uses
        loops = collect_collapsed_loops(stmt.body, d)
        loop_id = next(self.b._loop_ids)
        sched_fn = "cudadev_get_static_chunk"
        chunk: A.Expr = intlit(0)
        scl = d.first(ScheduleClause)
        if scl is not None:
            if scl.schedule == "dynamic":
                sched_fn = "cudadev_get_dynamic_chunk"
            elif scl.schedule == "guided":
                sched_fn = "cudadev_get_guided_chunk"
            if scl.chunk is not None:
                chunk = self._rename(scl.chunk)
        count_decls, total, values = linearize(loops, "__wsn", self.renames)
        recon_stmts = [assign(ident(info.var), value)
                       for info, value in zip(loops, values)]
        body = self.transform_stmt(loops[-1].body)
        inner = A.For(
            A.ExprStmt(A.Assign(ident("__it"), ident("__tlo"))),
            binop("<", ident("__it"), ident("__thi")),
            A.Assign(ident("__it"), intlit(1), "+"),
            block(recon_stmts, body),
        )
        out = block(
            count_decls,
            decl_long("__cnt", total),
            decl_long("__tlo"), decl_long("__thi"), decl_long("__it"),
            A.While(
                call(sched_fn, intlit(loop_id), intlit(0), ident("__cnt"),
                     cast(LONG, chunk), addr_of(ident("__tlo")),
                     addr_of(ident("__thi"))),
                block([inner]),
            ),
        )
        if not d.has(NowaitClause):
            out.body.append(callstmt("cudadev_barrier"))
        return out

    def _critical(self, stmt: A.PragmaStmt, d: Directive) -> A.Stmt:
        name_clause = d.first(NameClause)
        lock_id = self.b.lock_id(name_clause.name if name_clause else "")
        body = self.transform_stmt(stmt.body)
        return block(
            decl("__done", INT, intlit(0)),
            A.While(
                A.Unary("!", ident("__done")),
                block(
                    A.If(
                        binop("==", call("cudadev_trylock", intlit(lock_id)),
                              intlit(0)),
                        block(
                            body,
                            callstmt("cudadev_unlock", intlit(lock_id)),
                            assign(ident("__done"), intlit(1)),
                        ),
                    ),
                ),
            ),
        )

    def _sections(self, stmt: A.PragmaStmt, d: Directive) -> A.Stmt:
        body = stmt.body
        if not isinstance(body, A.Compound):
            raise CudaXformError("sections requires a block", stmt.loc)
        sections: list[A.Stmt] = []
        for child in body.body:
            if isinstance(child, A.PragmaStmt) and child.directive is not None \
                    and child.directive.name == "section":
                sections.append(child.body)
            elif isinstance(child, A.PragmaStmt) and child.text.strip() == "omp section":
                sections.append(child.body)
            else:
                sections.append(child)
        sid = next(self.b._loop_ids)
        chain: Optional[A.Stmt] = None
        for i in range(len(sections) - 1, -1, -1):
            sec = self.transform_stmt(sections[i])
            chain = A.If(binop("==", ident("__s"), intlit(i)), sec, chain)
        out = block(
            callstmt("cudadev_sections_init", intlit(sid),
                     intlit(len(sections))),
            decl("__s", INT),
            A.While(
                binop(">=",
                      A.Assign(ident("__s"),
                               call("cudadev_next_section", intlit(sid))),
                      intlit(0)),
                block([chain] if chain else []),
            ),
        )
        if not d.has(NowaitClause):
            out.body.append(callstmt("cudadev_barrier"))
        return out

    def _atomic(self, stmt: A.PragmaStmt, d: Directive) -> A.Stmt:
        """Lower ``atomic [read|write|update|capture]`` onto the sim's
        atomic ops.  Aligned word loads/stores are atomic on the device
        (and in the lockstep simulator), so read/write emit the plain
        access; update forms route through ``atomicAdd`` where the
        hardware has one and the type-generic ``cudadev_atomic_red_*``
        otherwise; capture uses the atomic's returned old value."""
        clause = d.first(AtomicClause)
        kind = clause.atomic_kind if clause is not None else "update"
        body = stmt.body
        if isinstance(body, A.Compound) and len(body.body) == 1:
            body = body.body[0]
        if kind in ("read", "write"):
            expr = body.expr if isinstance(body, A.ExprStmt) else None
            if not (isinstance(expr, A.Assign) and expr.op is None):
                raise CudaXformError(
                    f"atomic {kind} requires a plain assignment", stmt.loc)
            return A.ExprStmt(self._rename(expr))
        if kind == "capture":
            return self._atomic_capture(stmt, body)
        upd = _match_atomic_update(body)
        if upd is None:
            raise CudaXformError(
                "unsupported atomic update form (expected x op= expr, "
                "x++/x--, x = x op expr, or x = expr op x)", stmt.loc)
        target, op, value = upd
        return A.ExprStmt(_atomic_update_call(
            op, self._rename(target), self._rename(value)))

    def _atomic_capture(self, stmt: A.PragmaStmt, body: A.Stmt) -> A.Stmt:
        # v = x++ / v = x--  (old value)
        if isinstance(body, A.ExprStmt) and isinstance(body.expr, A.Assign) \
                and body.expr.op is None \
                and isinstance(body.expr.value, A.Unary) \
                and body.expr.value.op in ("p++", "p--", "++", "--"):
            unary = body.expr.value
            op = "+" if "++" in unary.op else "-"
            update = _atomic_update_call(
                op, self._rename(unary.operand), intlit(1))
            return A.ExprStmt(A.Assign(self._rename(body.expr.target), update))
        # { v = x; x op= e; }  (old)  /  { x op= e; v = x; }  (new)
        if isinstance(body, A.Compound) and len(body.body) == 2:
            first, second = body.body
            fe = first.expr if isinstance(first, A.ExprStmt) else None
            se = second.expr if isinstance(second, A.ExprStmt) else None
            f_upd = _match_atomic_update(first)
            s_upd = _match_atomic_update(second)
            if isinstance(fe, A.Assign) and fe.op is None and s_upd is not None:
                target, op, value = s_upd
                update = _atomic_update_call(
                    op, self._rename(target), self._rename(value))
                return A.ExprStmt(A.Assign(self._rename(fe.target), update))
            if f_upd is not None and isinstance(se, A.Assign) and se.op is None:
                # new-value capture: old OP e recomputes the stored value
                target, op, value = f_upd
                value_rn = self._rename(value)
                update = _atomic_update_call(
                    op, self._rename(target), value_rn)
                return A.ExprStmt(A.Assign(
                    self._rename(se.target),
                    _red_combine(op if op != "-" else "+", update,
                                 clone(value_rn) if op != "-"
                                 else A.Unary("-", clone(value_rn)))))
        raise CudaXformError(
            "unsupported atomic capture form (expected v = x++/x--, "
            "{v = x; x op= e;} or {x op= e; v = x;})", stmt.loc)
