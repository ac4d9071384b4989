"""Host transformation set: OpenMP constructs -> C + ort runtime calls.

``target``-family constructs become data-environment management plus the
three-phase offload; host ``parallel`` regions are outlined into host
functions driven by the simulated A57 team.  The transformed host program
is plain C, executable by the cfront interpreter with the ort natives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import (
    ArrayType, BasicType, CType, INT, LONG, PointerType, VOID,
)
from repro.cfront.errors import CFrontError
from repro.devrt.state import MW_BLOCK_THREADS
from repro.openmp.clauses import (
    DataSharingClause, DependClause, DeviceClause, ExprClause, IfClause,
    MapClause, MotionClause, NowaitClause, ScheduleClause,
)
from repro.rt_async.taskgraph import DEP_CODES
from repro.openmp.directives import Directive
from repro.ompi.astutil import (
    addr_of, assign, binop, block, call, callstmt, cast, ceil_div, clone,
    decl, decl_long, deref, ident, intlit, map_stmts, rename_idents,
    sizeof_expr, sizeof_type, string, strip_pragmas,
)
from repro.ompi.config import OmpiConfig
from repro.ompi.outline import (
    CapturedVar, collect_identifiers, locally_declared,
)
from repro.ompi.xform_cuda import (
    KernelPlan, analyze_canonical_loop, collect_collapsed_loops, linearize,
)
from repro.hostrt.reduction import RED_OPS, typecode_of

MAP_CODE = {"alloc": 0, "to": 1, "from": 2, "tofrom": 3,
            "release": 4, "delete": 5}


class HostXformError(CFrontError):
    pass


def map_ptr_and_size(cv: CapturedVar) -> tuple[A.Expr, A.Expr, A.Expr]:
    """(base pointer expr, mapped pointer expr, byte size expr) for one
    captured variable, host-side."""
    if not cv.is_pointerish:
        base = addr_of(ident(cv.name))
        return base, clone(base), sizeof_expr(ident(cv.name))
    lower: Optional[A.Expr] = None
    length: Optional[A.Expr] = None
    if cv.section is not None:
        lower, length = cv.section
    base = ident(cv.name)
    mapped: A.Expr = ident(cv.name)
    if lower is not None and not (isinstance(lower, A.IntLit) and lower.value == 0):
        mapped = binop("+", mapped, clone(lower))
    if length is not None:
        size = binop("*", cast(LONG, clone(length)),
                     sizeof_type(cv.elem_type()))
    elif isinstance(cv.ctype, ArrayType) and cv.ctype.length is not None:
        size = sizeof_expr(ident(cv.name))
    else:
        raise HostXformError(
            f"cannot determine the mapped size of {cv.name!r} "
            "(pointer mapped without an array section)"
        )
    return base, mapped, size


@dataclass
class HostRewriter:
    """Statement-level rewriting of one translation unit's host code."""

    config: OmpiConfig
    prog_name: str
    #: filled during rewriting
    plans: list[KernelPlan] = field(default_factory=list)
    host_parallel_fns: list[A.FuncDef] = field(default_factory=list)
    fallback_fns: list[A.FuncDef] = field(default_factory=list)
    _hp_count: int = 0

    # -- target constructs ---------------------------------------------------
    def _task_dep_stmts(self, directive: Directive,
                        scope: dict[str, CType]) -> list[A.Stmt]:
        """``ort_task_dep`` registrations for every depend() list item.

        Dependences are keyed on the item's host *base address* (the whole
        object, conservatively, even when a section is written)."""
        stmts: list[A.Stmt] = []
        for clause in directive.clauses_of(DependClause):
            code = DEP_CODES[clause.dep_type]   # validator checked the type
            for item in clause.items:
                if item.name not in scope:
                    raise HostXformError(
                        f"unknown variable {item.name!r} in depend clause")
                ctype = scope[item.name]
                addr: A.Expr = (ident(item.name)
                                if isinstance(ctype, (PointerType, ArrayType))
                                else addr_of(ident(item.name)))
                stmts.append(callstmt("ort_task_dep", ident("__dev"), addr,
                                      intlit(code)))
        return stmts

    @staticmethod
    def _wrap_task(directive: Directive, dep_stmts: list[A.Stmt],
                   body_stmts: list[A.Stmt]) -> list[A.Stmt]:
        """Wrap an offload sequence into a deferred task when the construct
        carries nowait and/or depend clauses.  depend without nowait is an
        *undeferred* task: it still orders through the graph but the host
        blocks on its completion (ort_task_end's flag)."""
        nowait = directive.first(NowaitClause) is not None
        if not nowait and not dep_stmts:
            return body_stmts
        return (dep_stmts
                + [callstmt("ort_task_begin", ident("__dev"))]
                + body_stmts
                + [callstmt("ort_task_end", ident("__dev"),
                            intlit(0 if nowait else 1))])

    def launch_block(self, plan: KernelPlan, directive: Directive,
                     scope: dict[str, CType]) -> A.Stmt:
        dev_clause = directive.first(DeviceClause)
        dev_expr: A.Expr = clone(dev_clause.expr) if dev_clause else intlit(-1)
        stmts: list[A.Stmt] = []
        # mapping phase (by-value scalars bypass the data environment)
        for cv in plan.params:
            if cv.by_value:
                continue
            base, mapped, size = map_ptr_and_size(cv)
            map_code = MAP_CODE["to" if cv.map_type == "private" else cv.map_type]
            stmts.append(callstmt("ort_map", ident("__dev"), mapped,
                                  cast(LONG, size), intlit(map_code)))
        # argument preparation (kernel parameter order)
        for cv in plan.params:
            if cv.by_value:
                stmts.append(callstmt("ort_arg_val", ident("__dev"),
                                      ident(cv.name)))
                continue
            base, mapped, _size = map_ptr_and_size(cv)
            stmts.append(callstmt("ort_arg_ptr", ident("__dev"), base, mapped))
        # tree-mode reductions: register each scalar *after* the regular
        # args (its partials buffer becomes the next kernel argument, in
        # plan.reductions order — matching the trailing __redp_* params)
        if plan.reductions and plan.reduction_mode == "tree":
            for name, op, ctype in plan.reductions:
                stmts.append(callstmt(
                    "ort_red_scalar", ident("__dev"), addr_of(ident(name)),
                    intlit(RED_OPS[op]), intlit(typecode_of(ctype.dtype()))))
        stmts.extend(self._dim_stmts(plan))
        stmts.append(callstmt(
            "ort_offload", ident("__dev"), string(plan.kernel_name),
            ident("__gx"), ident("__gy"), ident("__gz"),
            ident("__bx"), ident("__by"), ident("__bz"),
        ))
        # unmapping phase (reverse order)
        for cv in reversed(plan.params):
            if cv.by_value:
                continue
            _base, mapped, _size = map_ptr_and_size(cv)
            stmts.append(callstmt("ort_unmap", ident("__dev"), mapped,
                                  intlit(MAP_CODE[cv.map_type if cv.map_type != "private" else "release"])))
        # cross-team combine: fold the partials in fixed team order onto
        # the host value (after the unmap copy-back, which in tree mode
        # returns the scalar untouched; inside the shard bracket so the
        # runtime can gather each slot from its owning device)
        if plan.reductions and plan.reduction_mode == "tree":
            stmts.append(callstmt("ort_red_end", ident("__dev")))
        # shard(n): bracket the whole offload sequence — the runtime
        # replicates maps per device, splits the launch, and joins with the
        # diff-merge at shard end (validator: no nowait/depend/device here)
        shard = directive.first(ExprClause, "shard")
        if shard is not None:
            stmts = ([callstmt("ort_shard_begin", clone(shard.expr))]
                     + stmts
                     + [callstmt("ort_shard_end")])
        launch = A.Compound(
            [decl("__dev", INT, dev_expr)]
            + self._wrap_task(directive, self._task_dep_stmts(directive, scope),
                              stmts)
        )
        if_clause = directive.first(IfClause)
        if if_clause is not None:
            fallback = self.fallback_call(plan)
            return A.If(clone(if_clause.expr), launch, fallback)
        return launch

    def _dim_stmts(self, plan: KernelPlan) -> list[A.Stmt]:
        stmts: list[A.Stmt] = []
        if plan.mode == "mw":
            # paper §4.2.2: master/worker kernels launch with 128 threads
            teams = clone(plan.num_teams) if plan.num_teams is not None else intlit(1)
            stmts.append(decl_long("__gx", cast(LONG, teams)))
            stmts.append(decl_long("__gy", intlit(1)))
            stmts.append(decl_long("__gz", intlit(1)))
            stmts.append(decl_long("__bx", intlit(MW_BLOCK_THREADS)))
            stmts.append(decl_long("__by", intlit(1)))
            stmts.append(decl_long("__bz", intlit(1)))
            return stmts
        # combined: block shape from num_threads, grid from num_teams and
        # the (host-evaluated) iteration counts — OMPi's internal 1D->2D
        # mapping "to match the block and grid dimensions of the
        # equivalent cuda applications" (paper §5)
        nth = clone(plan.num_threads) if plan.num_threads is not None \
            else intlit(self.config.default_num_threads)
        stmts.append(decl_long("__nth", cast(LONG, nth)))
        if plan.thread_limit is not None:
            limit = cast(LONG, clone(plan.thread_limit))
            stmts.append(A.If(
                binop(">", ident("__nth"), limit),
                assign(ident("__nth"), clone(limit)),
            ))
        shape = self.config.block_shape
        if shape is not None:
            bx, by, bz = shape
            stmts.append(decl_long("__bx", intlit(bx)))
            stmts.append(decl_long("__by", intlit(by)))
            stmts.append(decl_long("__bz", intlit(bz)))
        else:
            stmts.append(decl_long("__bx", A.Cond(
                binop("<", ident("__nth"), intlit(32)),
                ident("__nth"), intlit(32))))
            stmts.append(decl_long("__by", ceil_div(ident("__nth"),
                                                    ident("__bx"))))
            stmts.append(decl_long("__bz", intlit(1)))
        # total iteration count and per-dimension counts (host names)
        for i, count in enumerate(plan.host_counts):
            stmts.append(decl_long(f"__hn{i}", cast(LONG, clone(count))))
        total = ident("__hn0")
        for i in range(1, len(plan.host_counts)):
            total = binop("*", total, ident(f"__hn{i}"))
        stmts.append(decl_long("__hniter", total))
        teams = clone(plan.num_teams) if plan.num_teams is not None \
            else ceil_div(ident("__hniter"),
                          binop("*", binop("*", ident("__bx"), ident("__by")),
                                ident("__bz")))
        stmts.append(decl_long("__teams", cast(LONG, teams)))
        ndims = len(plan.host_counts)
        if ndims == 3:
            # x covers the innermost dimension, y the middle, z the rest
            stmts.append(decl_long("__gx", ceil_div(ident("__hn2"),
                                                    ident("__bx"))))
            stmts.append(A.If(binop("<", ident("__gx"), intlit(1)),
                              assign(ident("__gx"), intlit(1))))
            stmts.append(decl_long("__gy", ceil_div(ident("__hn1"),
                                                    ident("__by"))))
            stmts.append(A.If(binop("<", ident("__gy"), intlit(1)),
                              assign(ident("__gy"), intlit(1))))
            stmts.append(decl_long("__gz", ceil_div(
                ident("__teams"), binop("*", ident("__gx"), ident("__gy")))))
            stmts.append(A.If(binop("<", ident("__gz"), intlit(1)),
                              assign(ident("__gz"), intlit(1))))
        elif ndims == 2:
            # innermost count spreads along grid.x
            inner = ident(f"__hn{ndims - 1}")
            stmts.append(decl_long("__gx", ceil_div(
                ceil_div(clone(inner), ident("__bx")), intlit(1))))
            stmts.append(A.If(binop("<", ident("__gx"), intlit(1)),
                              assign(ident("__gx"), intlit(1))))
            stmts.append(decl_long("__gy", ceil_div(ident("__teams"),
                                                    ident("__gx"))))
            stmts.append(A.If(binop("<", ident("__gy"), intlit(1)),
                              assign(ident("__gy"), intlit(1))))
            stmts.append(decl_long("__gz", intlit(1)))
        else:
            stmts.append(decl_long("__gx", ident("__teams")))
            stmts.append(A.If(binop("<", ident("__gx"), intlit(1)),
                              assign(ident("__gx"), intlit(1))))
            stmts.append(decl_long("__gy", intlit(1)))
            stmts.append(decl_long("__gz", intlit(1)))
        return stmts

    def fallback_call(self, plan: KernelPlan) -> A.Stmt:
        args: list[A.Expr] = []
        for cv in plan.params:
            if cv.is_pointerish or cv.by_value:
                args.append(ident(cv.name))
            else:
                args.append(addr_of(ident(cv.name)))
        # the hostfn twin computes the whole reduction sequentially, so
        # its trailing __redp_* partials params are unused — pass nulls
        if plan.reductions and plan.reduction_mode == "tree":
            args.extend(intlit(0) for _ in plan.reductions)
        return A.ExprStmt(A.Call(ident(plan.kernel_name + "_hostfn"), args))

    def make_fallback_fn(self, plan: KernelPlan, body: A.Stmt,
                         scope: Optional[dict[str, CType]] = None) -> A.FuncDef:
        """Sequential host version of the target region (used for the
        initial device / if(false) launches)."""
        params: list[A.Param] = []
        prologue: list[A.Stmt] = []
        renames: dict[str, A.Expr] = {}
        for cv in plan.params:
            if cv.is_pointerish:
                params.append(A.Param(cv.name, PointerType(cv.elem_type())))
            elif cv.by_value:
                params.append(A.Param(cv.name, cv.ctype))
            else:
                params.append(A.Param(cv.name + "_p", PointerType(cv.ctype)))
                renames[cv.name] = deref(ident(cv.name + "_p"))
        # arity parity with the kernel: tree-mode reductions add trailing
        # partials pointers the sequential twin never touches
        if plan.reductions and plan.reduction_mode == "tree":
            params.extend(A.Param("__redp_" + name, PointerType(ctype))
                          for name, _op, ctype in plan.reductions)
        # private/loop variables the region uses but does not declare
        captured = {cv.name for cv in plan.params}
        local = locally_declared(body)
        for name in sorted(collect_identifiers(body)):
            if name in captured or name in local or scope is None:
                continue
            ctype = scope.get(name)
            if ctype is not None and isinstance(ctype, BasicType):
                prologue.append(decl(name, ctype))
        stripped = strip_pragmas(body)
        fn_body = block(prologue, rename_idents(stripped, renames))
        fn = A.FuncDef(plan.kernel_name + "_hostfn", VOID, params, fn_body)
        self.fallback_fns.append(fn)
        return fn

    # -- target data / update / enter / exit ------------------------------------
    def target_data_block(self, directive: Directive, inner: A.Stmt,
                          scope: dict[str, CType]) -> A.Stmt:
        dev_clause = directive.first(DeviceClause)
        dev_expr: A.Expr = clone(dev_clause.expr) if dev_clause else intlit(-1)
        maps: list[tuple[A.Expr, A.Expr, int]] = []
        stmts: list[A.Stmt] = [decl("__dev", INT, dev_expr)]
        for clause in directive.clauses_of(MapClause):
            for item in clause.items:
                if item.name not in scope:
                    raise HostXformError(f"unknown variable {item.name!r} in map")
                cv = CapturedVar(item.name, scope[item.name], clause.map_type,
                                 item.sections[0] if item.sections else None)
                _base, mapped, size = map_ptr_and_size(cv)
                stmts.append(callstmt("ort_map", ident("__dev"), mapped,
                                      cast(LONG, size),
                                      intlit(MAP_CODE[clause.map_type])))
                maps.append((mapped, size, MAP_CODE[clause.map_type]))
        stmts.append(inner)
        for mapped, _size, code in reversed(maps):
            stmts.append(callstmt("ort_unmap", ident("__dev"), clone(mapped),
                                  intlit(code)))
        return A.Compound(stmts)

    def standalone_data_stmt(self, directive: Directive,
                             scope: dict[str, CType]) -> A.Stmt:
        dev_clause = directive.first(DeviceClause)
        dev_expr: A.Expr = clone(dev_clause.expr) if dev_clause else intlit(-1)
        stmts: list[A.Stmt] = []
        if directive.name == "target update":
            for clause in directive.clauses_of(MotionClause):
                fn = "ort_update_to" if clause.direction == "to" else "ort_update_from"
                for item in clause.items:
                    cv = CapturedVar(item.name, scope[item.name], "to",
                                     item.sections[0] if item.sections else None)
                    _b, mapped, size = map_ptr_and_size(cv)
                    stmts.append(callstmt(fn, ident("__dev"), mapped,
                                          cast(LONG, size)))
        elif directive.name == "target enter data":
            for clause in directive.clauses_of(MapClause):
                for item in clause.items:
                    cv = CapturedVar(item.name, scope[item.name],
                                     clause.map_type,
                                     item.sections[0] if item.sections else None)
                    _b, mapped, size = map_ptr_and_size(cv)
                    stmts.append(callstmt("ort_map", ident("__dev"), mapped,
                                          cast(LONG, size),
                                          intlit(MAP_CODE[clause.map_type])))
        elif directive.name == "target exit data":
            for clause in directive.clauses_of(MapClause):
                for item in clause.items:
                    cv = CapturedVar(item.name, scope[item.name],
                                     clause.map_type,
                                     item.sections[0] if item.sections else None)
                    _b, mapped, _size = map_ptr_and_size(cv)
                    stmts.append(callstmt("ort_unmap", ident("__dev"), mapped,
                                          intlit(MAP_CODE[clause.map_type])))
        else:
            raise HostXformError(
                f"unexpected standalone directive {directive.name}")
        return A.Compound(
            [decl("__dev", INT, dev_expr)]
            + self._wrap_task(directive, self._task_dep_stmts(directive, scope),
                              stmts)
        )

    # -- host parallel regions ----------------------------------------------------
    def outline_host_parallel(self, stmt: A.PragmaStmt, d: Directive,
                              scope: dict[str, CType],
                              global_names: set[str]) -> A.Stmt:
        idx = self._hp_count
        self._hp_count += 1
        fn_name = f"{self.prog_name}_hpar{idx}"
        body = stmt.body
        region_body: A.Stmt = body
        if d.name == "parallel for":
            region_body = A.PragmaStmt(
                "omp for", body,
                directive=Directive("for", [c for c in d.clauses if isinstance(
                    c, (ScheduleClause, NowaitClause))]),
            )
        private: set[str] = set()
        firstprivate: set[str] = set()
        for clause in d.clauses_of(DataSharingClause):
            if clause.kind == "private":
                private.update(clause.names)
            elif clause.kind == "firstprivate":
                firstprivate.update(clause.names)
        if d.includes("for") and isinstance(body, A.For):
            try:
                private.add(analyze_canonical_loop(body).var)
            except CFrontError:
                pass
        used = collect_identifiers(body)
        local = locally_declared(body)
        captured: list[tuple[str, CType]] = []
        for name in sorted(used):
            if name in local or name in private or name in global_names:
                continue
            ctype = scope.get(name)
            if ctype is None:
                continue
            captured.append((name, ctype))
        params: list[A.Param] = []
        call_args: list[A.Stmt] = []
        renames: dict[str, A.Expr] = {}
        prologue: list[A.Stmt] = []
        for name, ctype in captured:
            if isinstance(ctype, (PointerType, ArrayType)):
                elem = ctype.pointee if isinstance(ctype, PointerType) else ctype.elem
                params.append(A.Param(name, PointerType(elem)))
                call_args.append(callstmt("ort_parg", ident(name)))
            elif name in firstprivate:
                params.append(A.Param(name + "_p", PointerType(ctype)))
                call_args.append(callstmt("ort_parg", addr_of(ident(name))))
                prologue.append(decl(name, ctype, deref(ident(name + "_p"))))
            else:
                params.append(A.Param(name + "_p", PointerType(ctype)))
                call_args.append(callstmt("ort_parg", addr_of(ident(name))))
                renames[name] = deref(ident(name + "_p"))
        for name in sorted(private - local):
            ctype = scope.get(name)
            if ctype is not None and isinstance(ctype, BasicType):
                prologue.append(decl(name, ctype))
        xf = _HostRegionTransformer(renames)
        fn_body = block(prologue, xf.transform_stmt(region_body))
        self.host_parallel_fns.append(
            A.FuncDef(fn_name, VOID, params, fn_body)
        )
        nthr = d.first(ExprClause, "num_threads")
        nthr_expr = clone(nthr.expr) if nthr else intlit(-1)
        return A.Compound(call_args + [
            callstmt("ort_execute_parallel", string(fn_name), nthr_expr),
        ])


class _HostRegionTransformer:
    """Rewrites a host parallel-region body for per-thread execution."""

    def __init__(self, renames: dict[str, A.Expr]):
        self.renames = renames

    def transform_stmt(self, stmt: A.Stmt) -> A.Stmt:
        return map_stmts(stmt, self._transform_pragma,
                         lambda x: rename_idents(x, self.renames))

    def _transform_pragma(self, stmt: A.PragmaStmt) -> A.Stmt:
        from repro.openmp.pragma_parser import parse_omp_pragma
        d = stmt.directive or parse_omp_pragma(stmt.text)
        if d.name in ("for", "for simd"):
            return self._worksharing_for(stmt, d)
        if d.name == "simd":
            return self.transform_stmt(stmt.body)
        if d.name == "sections":
            return self._sections(stmt, d)
        if d.name == "barrier":
            return callstmt("ort_host_barrier")
        if d.name in ("critical", "atomic"):
            # the sequential team simulation serialises threads anyway
            body = stmt.body if stmt.body is not None else A.ExprStmt(None)
            return self.transform_stmt(body)
        if d.name in ("single", "master"):
            return A.If(binop("==", call("omp_get_thread_num"), intlit(0)),
                        self.transform_stmt(stmt.body))
        raise HostXformError(
            f"'#pragma omp {d.name}' inside a host parallel region is not "
            "supported", stmt.loc
        )

    def _sections(self, stmt: A.PragmaStmt, d: Directive) -> A.Stmt:
        """Round-robin section assignment across the (sequentially
        simulated) team: section i runs on thread i mod T."""
        body = stmt.body
        if not isinstance(body, A.Compound):
            raise HostXformError("sections requires a block", stmt.loc)
        out: list[A.Stmt] = []
        index = 0
        for child in body.body:
            sec = child
            if isinstance(child, A.PragmaStmt):
                cd = child.directive
                if cd is not None and cd.name == "section":
                    sec = child.body
            out.append(A.If(
                binop("==", call("omp_get_thread_num"),
                      binop("%", intlit(index), call("omp_get_num_threads"))),
                self.transform_stmt(sec),
            ))
            index += 1
        return block(out)

    def _worksharing_for(self, stmt: A.PragmaStmt, d: Directive) -> A.Stmt:
        # collapse(n) linearises exactly like the device side, so the
        # per-thread iteration order matches across host and kernel runs
        loops = collect_collapsed_loops(stmt.body, d)
        count_decls, total, values = linearize(loops, "__wsn", self.renames)
        recon_stmts = [assign(ident(info.var), value)
                       for info, value in zip(loops, values)]
        body = self.transform_stmt(loops[-1].body)
        return block(
            count_decls,
            decl_long("__cnt", total),
            decl_long("__tlo"), decl_long("__thi"), decl_long("__it"),
            callstmt("ort_for_bounds", intlit(0), ident("__cnt"),
                     addr_of(ident("__tlo")), addr_of(ident("__thi"))),
            A.For(
                A.ExprStmt(A.Assign(ident("__it"), ident("__tlo"))),
                binop("<", ident("__it"), ident("__thi")),
                A.Assign(ident("__it"), intlit(1), "+"),
                block(recon_stmts, body),
            ),
        )
