"""Closure-compiled host fast path (repro.cfront.hostcompile).

The engine lowers interpreted host C — loop nests, whole functions —
to vectorized numpy closures with the tree-walk interpreter's exact
C99 float semantics.  These tests pin the mode plumbing, the
bit-identity contract between all three modes, the verify-mode
divergence detector, the per-region fallback discipline and the
``_resync_device`` digest gate that rides along in this change.
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront import hostcompile
from repro.cfront.hostcompile import (
    HostFastpathVerifyError, resolve_host_fastpath,
)
from repro.cfront.interp import Machine
from repro.cfront.parser import parse_translation_unit
from repro.ompi.compiler import OmpiCompiler
from repro.ompi.config import OmpiConfig

HOST_SRC = r"""
#include <stdio.h>
float a[64], b[64], c[64];
int main(void) {
    int i, j;
    float s = 0.0f;
    double d = 0.0;
    for (i = 0; i < 64; i++) {
        a[i] = (i % 16) * 0.25f;
        b[i] = (i * 3 % 8) * 0.5f;
        c[i] = 0.0f;
    }
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++)
            c[i * 8 + j] = a[i * 8 + j] * 2.0f + b[j];
    }
    for (i = 0; i < 64; i++) {
        s += c[i];
        d += a[i] * b[i];
    }
    printf("%f %f\n", s, d);
    return 0;
}
"""

OFFLOAD_SRC = r"""
#include <stdio.h>
float x[32], y[32];
int main(void) {
    int i;
    float s = 0.0f;
    for (i = 0; i < 32; i++) { x[i] = i * 0.125f; y[i] = 0.0f; }
    #pragma omp target teams distribute parallel for \
        map(to: x[0:32]) map(tofrom: y[0:32])
    for (i = 0; i < 32; i++)
        y[i] = x[i] * 3.0f + 1.0f;
    for (i = 0; i < 32; i++) s += y[i];
    printf("%f\n", s);
    return 0;
}
"""


def _run_host(mode: str) -> Machine:
    unit = parse_translation_unit(HOST_SRC, "host.c")
    machine = Machine(unit, host_fastpath=mode)
    machine.run()
    return machine


# ---------------------------------------------------------------------------
# Mode resolution
# ---------------------------------------------------------------------------

def test_resolve_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_host_fastpath("sometimes")


def test_config_threads_through_run():
    prog = OmpiCompiler(OmpiConfig(host_fastpath="off")).compile(
        OFFLOAD_SRC, "hf_cfg")
    run = prog.run()
    assert run.machine.host_fastpath == "off"
    # per-run override wins over the config
    run = prog.run(host_fastpath="verify")
    assert run.machine.host_fastpath == "verify"


# ---------------------------------------------------------------------------
# Bit-identity across modes
# ---------------------------------------------------------------------------

def test_all_modes_bit_identical():
    machines = {m: _run_host(m) for m in ("on", "off", "verify")}
    ref = machines["off"]
    for mode in ("on", "verify"):
        m = machines[mode]
        assert m.output() == ref.output(), mode
        for name in ("a", "b", "c"):
            got = np.asarray(m.global_array(name))
            want = np.asarray(ref.global_array(name))
            assert got.tobytes() == want.tobytes(), (mode, name)


def test_offload_program_identical_across_modes():
    prog = OmpiCompiler().compile(OFFLOAD_SRC, "hf_modes")
    outs = {m: prog.run(host_fastpath=m) for m in ("on", "off", "verify")}
    assert outs["on"].stdout == outs["off"].stdout == outs["verify"].stdout
    assert (outs["on"].log.measured_time == outs["off"].log.measured_time
            == outs["verify"].log.measured_time)


# ---------------------------------------------------------------------------
# Stats and fallback discipline
# ---------------------------------------------------------------------------

def test_host_stats_count_compiled_loops():
    m = _run_host("on")
    assert m.host_stats["loop_fast"] > 0
    assert m.host_stats["verified_regions"] == 0
    m = _run_host("off")
    assert m.host_stats["loop_fast"] == 0
    m = _run_host("verify")
    assert m.host_stats["verified_regions"] > 0


def test_unsupported_loop_falls_back_quietly():
    src = r"""
int n;
int main(void) {
    int i;
    n = 0;
    for (i = 0; i < 100; i++) {
        if (i == 7) break;   /* break: not in the compiled subset */
        n = n + 1;
    }
    return 0;
}
"""
    unit = parse_translation_unit(src, "fb.c")
    machine = Machine(unit, host_fastpath="on")
    machine.run()
    assert int(np.asarray(machine.global_array("n")).reshape(-1)[0]) == 7
    assert machine.host_stats["loop_fast"] == 0
    assert machine.host_stats["loop_fallback"] > 0


DRY_REFUSED_SRC = r"""
#include <stdio.h>
int idx[8];
float a[8], b[8];
int main(void) {
    int i;
    for (i = 0; i < 8; i++) { idx[i] = (i * 3) % 4; b[i] = i * 1.5f; }
    for (i = 0; i < 8; i++) a[idx[i]] += b[i];
    for (i = 0; i < 8; i++) printf("%g ", a[i]);
    printf("\n");
    return 0;
}
"""


UNTAKEN_DIVISION_SRC = r"""
float a[32];
float b[16];
int main(void)
{
    int i, m = 0, n = 5;
    for (i = 0; i < 32; i++) a[i] = i;
    for (i = 0; i < 16; i++) b[i] = m ? a[i + n / m] : 1;
    printf("%f\n", b[3]);
    return 0;
}
"""


@pytest.mark.parametrize("mode", ["off", "on", "verify"])
def test_untaken_conditional_arm_is_not_evaluated(mode):
    """A subscript in a ``?:`` arm no iteration takes divides by zero:
    planning the loop must not evaluate it, as the tree walk never
    does."""
    machine = Machine(parse_translation_unit(UNTAKEN_DIVISION_SRC, "c.c"),
                      host_fastpath=mode)
    machine.run()
    assert machine.output() == "1.000000\n"
    assert np.array_equal(machine.global_array("b"), np.ones(16))
    if mode != "off":
        assert machine.host_stats["loop_fast"] == 2


@pytest.mark.parametrize("mode", ["off", "on", "verify"])
def test_refused_dry_pass_falls_back_in_every_mode(mode):
    """``a[idx[i]] +=`` with repeated cells: the dry pass refuses the
    loop before any store, and every mode runs it one iteration at a
    time (the compiled ``main`` as compiled statements)."""
    machine = Machine(parse_translation_unit(DRY_REFUSED_SRC, "dry.c"),
                      host_fastpath=mode)
    machine.run()
    assert machine.output() == "6 15 12 9 0 0 0 0 \n"
    hs = machine.host_stats
    if mode != "off":
        # the fill loop runs by its plan; the refused loop and the
        # printing loop run one iteration at a time in the compiled main
        assert (hs["loop_fast"], hs["loop_unplanned"], hs["loop_fallback"],
                hs["fn_fast"]) == (1, 2, 0, 1), hs


SIZEOF_BOUND_SRC = r"""
double a[8];
double b[8];
void fill(void) {
    int i;
    for (i = 0; i < sizeof(double); i++) b[i] = 2 * i;
}
int main() {
    int i;
    for (i = 0; i < sizeof(double); i++) a[i] = i;
    fill();
    printf("%d %d\n", (int)a[7], (int)b[7]);
    return 0;
}
"""


@pytest.mark.parametrize("mode", ["off", "on", "verify"])
def test_sizeof_loop_bound_gets_no_plan(mode):
    """A ``sizeof`` bound is outside the loop-plan subset: the loop gets
    no plan, in a tree-walked ``main`` (it calls a user function) and in
    a compiled ``fill``, and runs correctly in every mode."""
    machine = Machine(parse_translation_unit(SIZEOF_BOUND_SRC, "sz.c"),
                      host_fastpath=mode)
    machine.run()
    assert machine.output() == "7 14\n"
    hs = machine.host_stats
    if mode != "off":
        assert (hs["fn_fallback"], hs["fn_fast"], hs["loop_fast"],
                hs["loop_fallback"], hs["loop_unplanned"]) \
            == (1, 1, 0, 1, 1), hs


def test_function_fastpath_counts():
    src = r"""
float out[32];
float scale(float v) { return v * 2.0f + 1.0f; }
void fill(void) {
    int i;
    for (i = 0; i < 32; i++)
        out[i] = out[i] * 0.5f;
}
int main(void) {
    int i;
    for (i = 0; i < 32; i++) out[i] = scale(i * 0.25f);
    fill();
    return 0;
}
"""
    unit = parse_translation_unit(src, "fn.c")
    on = Machine(unit, host_fastpath="on")
    on.run()
    off = Machine(unit, host_fastpath="off")
    off.run()
    assert (np.asarray(on.global_array("out")).tobytes()
            == np.asarray(off.global_array("out")).tobytes())
    assert on.host_stats["fn_fast"] + on.host_stats["loop_fast"] > 0


# ---------------------------------------------------------------------------
# Verify mode detects real divergence
# ---------------------------------------------------------------------------

def test_verify_raises_on_injected_divergence(monkeypatch):
    """Corrupt the compiled engine's binop so its results differ from the
    tree-walk reference; verify mode must refuse to let that through."""
    real = hostcompile._apply_np

    def corrupt(op, lhs, rhs):
        out = real(op, lhs, rhs)
        if op == "*" and isinstance(out, np.ndarray) and out.dtype.kind == "f":
            return out + np.asarray(1.0, dtype=out.dtype)
        return out

    monkeypatch.setattr(hostcompile, "_apply_np", corrupt)
    unit = parse_translation_unit(HOST_SRC, "host.c")
    machine = Machine(unit, host_fastpath="verify")
    with pytest.raises(HostFastpathVerifyError):
        machine.run()


VERIFY_SITES_SRC = r"""
float a[16];
float fill(int n) {
    int i;
    for (i = 0; i < n; i++) a[i] = i * 0.5f;
    return a[3];
}
int main(void) {
    int i;
    float s = fill(16);
    for (i = 0; i < 16; i++) a[i] = a[i] + s;
    return 0;
}
"""


def _flip_first_byte(machine):
    first = machine.heap.allocations()[0]
    machine.heap.buf[first - machine.heap.base] ^= 1
    return rf"host: block {first:#x} differs at byte 0 \(fastpath"


def _alloc_extra_block(machine):
    extra = machine.heap.alloc(16)
    return (rf"host: allocation maps differ at {extra:#x} "
            rf"\(fastpath 16 != interp unallocated\)")


@pytest.mark.parametrize("tamper", [_flip_first_byte, _alloc_extra_block],
                         ids=["byte", "extra-block"])
@pytest.mark.parametrize("site", ["_exec_loop", "_exec_fn"],
                         ids=["loop", "function"])
def test_verify_names_the_first_difference(monkeypatch, site, tamper):
    """One changed byte or one extra block left by the compiled run of a
    loop (``fill``'s caller) or of a whole function (``fill``) fails
    verify mode, naming the block and byte or the allocation map."""
    real = getattr(hostcompile, site)
    wants = []

    def tampered(machine, *args, **kwargs):
        result = real(machine, *args, **kwargs)
        wants.append(tamper(machine))
        return result

    monkeypatch.setattr(hostcompile, site, tampered)
    machine = Machine(parse_translation_unit(VERIFY_SITES_SRC, "v.c"),
                      host_fastpath="verify")
    with pytest.raises(HostFastpathVerifyError) as info:
        machine.run()
    assert len(wants) == 1
    assert re.search(wants[0], str(info.value))


def test_on_mode_trusts_the_compiled_result(monkeypatch):
    """Same corruption in plain 'on' mode is (by design) not caught —
    this is exactly the risk verify mode exists to police, and the
    contrast keeps the two tests honest about what each mode checks."""
    real = hostcompile._apply_np

    def corrupt(op, lhs, rhs):
        out = real(op, lhs, rhs)
        if op == "*" and isinstance(out, np.ndarray) and out.dtype.kind == "f":
            return out + np.asarray(1.0, dtype=out.dtype)
        return out

    monkeypatch.setattr(hostcompile, "_apply_np", corrupt)
    unit = parse_translation_unit(HOST_SRC, "host.c")
    machine = Machine(unit, host_fastpath="on")
    machine.run()  # no error: results differ from the reference
    ref = _run_host("off")
    assert machine.output() != ref.output()


# ---------------------------------------------------------------------------
# Resync digest gate (satellite: skip unchanged buffers on fallback)
# ---------------------------------------------------------------------------

def test_resync_skips_unchanged_to_buffers():
    """A permanent launch failure falls back to the *_hostfn; the resync
    pushes the written tofrom buffer but skips the read-only to-mapped
    input, whose device copy already matches the host bytes."""
    prog = OmpiCompiler().compile(OFFLOAD_SRC, "hf_resync")
    base = prog.run()
    run = prog.run(faults="launch_failed@cuLaunchKernel:p=1.0,times=1000")
    assert run.stdout == base.stdout
    stats = run.ort.cudadev.fault_stats
    assert stats.get("fallback") == 1
    assert stats.get("resync_skip", 0) >= 1


def test_resync_skip_counts_aggregate():
    prog = OmpiCompiler().compile(OFFLOAD_SRC, "hf_resync2")
    run = prog.run(faults="launch_failed@cuLaunchKernel:p=1.0,times=1000")
    assert run.ort.fault_stats.get("resync_skip", 0) >= 1


# ---------------------------------------------------------------------------
# Whole nests: generated rectangular nests against the tree walk
# ---------------------------------------------------------------------------


#: row width of every generated 2-D subscript: larger than any index a
#: generated loop reaches, so ``i * 16 + j`` is injective over the grid
_W = 16
_SZ = 2 * _W * _W + 32
_CTYPE = {"f": "float", "d": "double", "i": "int"}
_LIT = {"f": ("0.5f", "1.25f", "0.75f"), "d": ("0.25", "1.5"), "i": ("3", "2")}
_INNER_SUBS = ("i * 16 + j", "j * 16 + i", "2 * j + i * 32", "i + j", "j")
_OUTER_SUBS = ("i", "i * 16", "i + 3")


class _Gen:
    """Builds one nest program from hypothesis draws (see _nest_program)."""

    def __init__(self, draw):
        self.draw = draw
        self.arrays: list[tuple[str, str]] = []     # (name, cat)
        self.scalars: list[tuple[str, str]] = []

    def new_array(self, cat):
        name = f"w{len(self.arrays)}"
        self.arrays.append((name, cat))
        return name

    def new_scalar(self, cat):
        name = f"s{len(self.scalars)}"
        self.scalars.append((name, cat))
        return name

    def expr(self, cat, inner, reads=(), depth=2):
        """An expression of at most rank ``cat`` ('i' < 'f' < 'd');
        ``reads`` are extra ``(text, cat)`` leaves (written arrays read
        with their write subscript, expanded scalars)."""
        cats = {"i": ("i",), "f": ("i", "f"), "d": ("i", "f", "d")}[cat]
        subs = _INNER_SUBS if inner else _OUTER_SUBS
        leaves = [f"{c}a[{s}]" for c in cats for s in subs]
        leaves += [lit for c in cats for lit in _LIT[c]]
        leaves += ["i", "j"] if inner else ["i"]
        leaves += [text for text, c in reads if c in cats]
        if depth == 0 or self.draw(st.booleans()):
            leaf = self.draw(st.sampled_from(leaves))
            if self.draw(st.integers(0, 7)):
                return leaf
            # an arm the loop never takes (z is 0) divides by zero: only
            # a lane that takes it may fail
            sub = self.draw(st.sampled_from(subs))
            return f"(z ? ia[{sub} + 5 / z] : {leaf})"
        op = self.draw(st.sampled_from(["+", "-", "*"]))
        return (f"({self.expr(cat, inner, reads, depth - 1)} {op} "
                f"{self.expr(cat, inner, reads, depth - 1)})")


#: one statement (or loop pair) each that the nest rule must reject while
#: every inner loop still vectorizes: ``(extra inner loops, outer-body
#: statements after them)``
_BREAKERS = {
    # a written base read with another subscript
    "shift": (["{jhead} {wa}[i * 16 + j] = fa[j] + 1.0f;"],
              ["{wb}[i] = {wa}[i * 16 + 1];"]),
    "transpose": (["{jhead} {wa}[i * 16 + j] = fa[j] * 2.0f;",
                   "{jhead} {wb}[i * 16 + j] = {wa}[j * 16 + i];"], []),
    # runtime: the last of many stores to one cell per row
    "plain_cell": (["{jhead} {wa}[i] = fa[i * 16 + j];"], []),
    # a cell read by another loop over a different range
    "header": (["{jhead} {wa}[i * 16 + j] = fa[j] - 0.5f;",
                "for (j = 0; j < {nj} + 1; j++) "
                "{wb}[i * 16 + j] = {wa}[i * 16 + j];"], []),
    # a partly folded column read by a later loop of the same row
    "fold_read": (["{jhead} {wa}[j] += fa[i * 16 + j];",
                   "{jhead} {wb}[i * 16 + j] = {wa}[j];"], []),
    # a column fold whose addend reads the cell it updates
    "fold_self": (["{jhead} {wa}[j] += {wa}[j] * fa[i * 16 + j] + 1.0f;"],
                  []),
    # the last of many stores to a scalar of the enclosing scope
    "outer_set": ([], ["sb = fa[i];"]),
    # the previous row's final j
    "outer_j": ([], ["{wa}[i] = j;"]),
    "nonrect": (["for (j = i; j < {nj}; j++) {wa}[i * 16 + j] = fa[j];"], []),
    # runtime: a double addend folded into a float cell rounds per step
    "f64_into_f32": (["{jhead} {wa}[i] += da[i * 16 + j];"], []),
    # runtime: every row writes the same cells
    "zero_coeff": (["{jhead} {wa}[i * z + j] = fa[j] + 2.0f;"], []),
    # runtime: rows overlap
    "overlap": (["{jhead} {wa}[i + j] = fa[i * 16 + j];"], []),
}


def _breakers(count_i, count_j, si, sj) -> list:
    """The breakers that cannot run whole on this grid: a runtime check
    only bites when its axes have the points to collide."""
    out = [b for b in _BREAKERS if b not in (
        "plain_cell", "f64_into_f32", "zero_coeff", "overlap")]
    if count_i >= 1 and count_j >= 2:
        out += ["plain_cell", "f64_into_f32"]
    if count_i >= 2 and count_j >= 1:
        out.append("zero_coeff")
    cells = [a * si + b * sj for a in range(count_i) for b in range(count_j)]
    if len(set(cells)) < len(cells):
        out.append("overlap")
    return out


def _fold_op(draw):
    return draw(st.sampled_from(["+=", "-=", "*="]))


@st.composite
def _nest_program(draw):
    """A rectangular two-level host nest and the path it must take:
    ``whole`` (legal by construction), ``rows`` (one statement the nest
    rule must reject, the inner loops still vectorize) or ``tree`` (an
    inner loop the fast path cannot vectorize at all)."""
    g = _Gen(draw)
    i0, j0 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    iop, jop = draw(st.sampled_from(["<", "<="])), draw(st.sampled_from(["<", "<="]))
    ni, nj = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    si, sj = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count_i = len(range(i0, ni + (iop == "<="), si))
    count_j = len(range(j0, nj + (jop == "<="), sj))
    jhead = f"for (j = {j0}; j {jop} {nj}; j += {sj})"

    pre, post = [], []
    self_folds = set()        # kinds of cell folds that read their cell
    loops: list[list[str]] = []
    inner_reads: list[tuple[str, str]] = []   # written elementwise cells
    outer_reads: list[tuple[str, str]] = []
    tname = tcat = None
    if draw(st.booleans()):
        tcat = draw(st.sampled_from("fdi"))
        tname = "t"
        pre.append(f"{_CTYPE[tcat]} t = {g.expr(tcat, False, depth=1)};")
    t_folded = False
    for _ in range(draw(st.integers(1, 3))):
        body = []
        kinds = draw(st.lists(st.sampled_from(
            ["elem", "rowfold", "colfold", "sfold", "tfold"]),
            min_size=1, max_size=3))
        if "rowfold" in kinds:          # a cell fold is its loop's only statement
            kinds = ["rowfold"]
        folds_t_here = False
        for kind in kinds:
            cat = draw(st.sampled_from("fdi"))
            if kind == "tfold" and tname is not None and not t_folded \
                    and not body:
                # the loop that folds t reads it nowhere else
                body.append(f"t {_fold_op(draw)} "
                            f"{g.expr(tcat, True, inner_reads)};")
                t_folded = folds_t_here = True
                continue
            reads = inner_reads + ([(tname, tcat)] if tname is not None
                                   and not folds_t_here else [])
            if kind in ("tfold", "elem"):
                w = g.new_array(cat)
                sub = draw(st.sampled_from(_INNER_SUBS[:3]))
                op = draw(st.sampled_from(["=", "+=", "-=", "*="]))
                body.append(f"{w}[{sub}] {op} {g.expr('d', True, reads)};")
                inner_reads.append((f"{w}[{sub}]", cat))
            elif kind in ("rowfold", "colfold"):
                w = g.new_array(cat)
                sub = "i" if kind == "rowfold" else "j"
                value = g.expr(cat, True, reads)
                if draw(st.integers(0, 3)) == 0:
                    # the addend reads the cell: the rule must refuse it
                    value = f"({w}[{sub}] - {value})"
                    self_folds.add(kind)
                body.append(f"{w}[{sub}] {_fold_op(draw)} {value};")
            else:
                s = g.new_scalar(cat)
                body.append(f"{s} {_fold_op(draw)} "
                            f"{g.expr('d', True, reads)};")
        loops.append(body)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["oelem", "ofold", "tset"]))
        reads = outer_reads + ([(tname, tcat)] if tname else [])
        if kind == "tset" and tname is not None:
            op = draw(st.sampled_from(["=", "+=", "*="]))
            post.append(f"t {op} {g.expr(tcat, False, reads, depth=1)};")
        elif kind == "ofold":
            cat = draw(st.sampled_from("fdi"))
            post.append(f"{g.new_scalar(cat)} {_fold_op(draw)} "
                        f"{g.expr('d', False, reads)};")
        else:
            cat = draw(st.sampled_from("fdi"))
            w = g.new_array(cat)
            post.append(f"{w}[i] = {g.expr('d', False, reads)};")
            outer_reads.append((f"{w}[i]", cat))
    if tname is not None and draw(st.booleans()):
        w = g.new_array(tcat)
        post.append(f"{w}[i] = t;")

    path = draw(st.sampled_from(["whole", "rows", "tree"]))
    extra_loops: list[str] = []
    if path == "rows":
        b = draw(st.sampled_from(_breakers(count_i, count_j, si, sj)))
        loops_b, post_b = _BREAKERS[b]
        wa, wb = g.new_array("f"), g.new_array("f")
        extra_loops += [x.format(jhead=jhead, nj=nj, wa=wa, wb=wb)
                        for x in loops_b]
        post += [x.format(wa=wa, wb=wb) for x in post_b]
    elif path == "tree":
        fn = draw(st.sampled_from(["exp", "sin", "pow", "log"]))
        call = "pow(fa[j], 2.0)" if fn == "pow" else f"{fn}(fa[j] + 0.5)"
        extra_loops.append(f"{jhead} {g.new_array('d')}[i * 16 + j] = {call};")

    # a cell fold reading its cell does not vectorize, so its nest is
    # tree-walked; a column fold reading its cell runs per row
    if "rowfold" in self_folds:
        path = "tree"
    elif "colfold" in self_folds and path == "whole":
        path = "rows"
    ihead = f"for (i = {i0}; i {iop} {ni}; i += {si})"
    return _program(g.arrays, g.scalars, ihead, jhead, pre, loops,
                    extra_loops + post), path


def _ia(i: int) -> int:
    """The value the generated programs seed ``ia[i]`` with."""
    return i % 5 + 1


def _program(arrays, scalars, ihead, jhead, pre, loops, tail,
             setup=()) -> str:
    """The C source of one nest: seeded inputs ``fa``/``da``/``ia`` and
    the permutation ``pa``, the nest's own arrays and scalars, ``setup``
    statements before it, and a printout of every scalar."""
    lines = ["#include <stdio.h>", "#include <math.h>"]
    lines += [f"{_CTYPE[c]} {c}a[{_SZ}];" for c in "fdi"]
    lines += [f"int pa[{_SZ}];"]
    lines += [f"{_CTYPE[c]} {name}[{_SZ}];" for name, c in arrays]
    lines += [f"{_CTYPE[c]} {name};" for name, c in scalars]
    lines += ["float sb;", "int main(void) {", "    int i, j;", "    int z = 0;",
              "    float *p;",
              f"    for (i = 0; i < {_SZ}; i++) {{",
              "        fa[i] = (i % 13) * 0.1f + 0.3f;",
              "        da[i] = (i % 7) * 0.1 + 0.7;",
              "        ia[i] = i % 5 + 1;",
              f"        pa[i] = i * 7 % {_SZ};",
              "    }"]
    for name, c in scalars:
        lines.append(f"    {name} = {'1' if c == 'i' else '1.0'};")
    lines += ["    " + s for s in setup]
    lines.append(f"    {ihead} {{")
    lines += ["        " + s for s in pre]
    for body in loops:
        lines.append(f"        {jhead} {{")
        lines += ["            " + s for s in body]
        lines.append("        }")
    lines += ["        " + s for s in tail]
    lines += ["    }"]
    fmt = {"f": "%.9g", "d": "%.17g", "i": "%d"}
    for name, c in scalars:
        lines.append(f'    printf("{name} {fmt[c]}\\n", {name});')
    lines += ['    printf("i=%d j=%d sb=%.9g\\n", i, j, sb);', "    return 0;",
              "}"]
    return "\n".join(lines) + "\n"


def _run_nest_program(src: str, mode: str) -> Machine:
    machine = Machine(parse_translation_unit(src, "nest.c"), host_fastpath=mode)
    machine.run()
    return machine


def _globals_image(machine: Machine) -> dict:
    return {name: np.asarray(machine.global_array(name)).tobytes()
            for name in machine.globals
            if not callable(getattr(machine.globals[name], "defn", None))
            and hasattr(machine.globals[name], "addr")}


def _check_nest_program(src: str, path: str) -> None:
    """Memory and stdout of ``on`` and ``verify`` equal ``off``, and the
    nest took ``path``: ``whole``, ``rows`` or ``tree`` for a two-level
    nest; ``loop`` (compiled whole), ``loop_iter`` (compiled one
    iteration at a time) or ``loop_tree`` for a single loop, which runs
    after the compiled seed loop of :func:`_program`.  The compiled
    ``main`` runs a ``tree`` or ``loop_tree`` loop one iteration at a
    time, with no loop plan (``loop_unplanned``)."""
    ref = _run_nest_program(src, "off")
    with mock.patch.object(hostcompile, "_run_rows",
                           wraps=hostcompile._run_rows) as rows:
        on = _run_nest_program(src, "on")
    assert on.output() == ref.output(), src
    assert _globals_image(on) == _globals_image(ref), src
    verify = _run_nest_program(src, "verify")      # raises on divergence
    assert verify.output() == ref.output()
    hs = on.host_stats
    if path == "whole":
        assert (hs["nest_whole"], hs["nest_rows"]) == (1, 0), (hs, src)
    elif path == "rows":
        assert (hs["nest_whole"], hs["nest_rows"]) == (0, 1), (hs, src)
    elif path == "tree":
        assert hs["nest_whole"] == hs["nest_rows"] == 0, (hs, src)
        assert (hs["fn_fast"], hs["loop_fallback"]) == (1, 0), (hs, src)
        assert hs["loop_unplanned"] >= 1, (hs, src)
    else:
        # a single loop counts only as a compiled loop
        assert hs["nest_whole"] == hs["nest_rows"] == 0, (hs, src)
        compiled = path != "loop_tree"
        assert (hs["loop_fast"], hs["loop_unplanned"], hs["loop_fallback"]) \
            == (1 + compiled, 1 - compiled, 0), (hs, src)
        assert rows.call_count == (path == "loop_iter"), (path, src)


#: single loops the one rule must not run whole: ``(statements, setup,
#: path)``; ``{wa}``/``{wb}`` are fresh float arrays, ``{wi}`` an int one
_LOOP_BREAKERS = {
    # a written array read with another subscript
    "shift": (["{wa}[i] = fa[i] + 1.0f;", "{wb}[i] = {wa}[i + 1];"], [],
              "loop_tree"),
    # a written array stored through a pointer into it
    "alias": (["p[i] = {wa}[i] + 1.0f;"], ["p = {wa} + 1;"], "loop_iter"),
    # the dry pass: repeated cells under a fold into several cells
    "dup_fold": (["{wa}[ia[i]] += fa[i];"], [], "loop_tree"),
    # the dry pass: a subscript that reads a cell the loop stores
    "stale_index": (["{wi}[i] = i % 2;", "{wa}[{wi}[i]] += fa[i];"], [],
                    "loop_tree"),
}


def _loop_breaker_path(name: str, indices: list) -> str:
    """The path a breaker takes over the loop's iterations ``indices``:
    only ``shift`` is refused by the rule; the others are run-time checks,
    which a loop without iterations never reaches, and a fold whose cells
    do not repeat (or all repeat one) passes the dry pass."""
    if not indices and name != "shift":
        return "loop"
    cells = {_ia(i) for i in indices}
    if name == "dup_fold" and len(cells) in (1, len(indices)):
        return "loop"
    return _LOOP_BREAKERS[name][2]


@st.composite
def _loop_program(draw):
    """A single host loop over ``i`` and the path it must take: ``loop``
    (legal by construction: elementwise stores, plain stores and folds
    into one cell, scalar folds, declared temps, data-dependent stores
    whose repeated cells keep the last value), or a breaker's path."""
    g = _Gen(draw)
    i0, si = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    iop, ni = draw(st.sampled_from(["<", "<="])), draw(st.integers(0, 24))
    indices = list(range(i0, ni + (iop == "<="), si))
    body, reads, temps = [], [], 0
    kinds = draw(st.lists(st.sampled_from(
        ["elem", "cell", "cellfold", "sfold", "temp", "dd", "ddperm"]),
        min_size=1, max_size=4))
    for kind in kinds:
        cat = draw(st.sampled_from("fdi"))
        value = g.expr("d", False, reads)
        if kind == "elem":
            w = g.new_array(cat)
            sub = draw(st.sampled_from(["i", "2 * i + 1", "i + 3"]))
            op = draw(st.sampled_from(["=", "+=", "-=", "*="]))
            body.append(f"{w}[{sub}] {op} {value};")
            reads.append((f"{w}[{sub}]", cat))
        elif kind in ("cell", "cellfold"):
            # one cell, touched by nothing else: the last store, or a fold
            op = "=" if kind == "cell" else _fold_op(draw)
            body.append(f"{g.new_array(cat)}[{draw(st.integers(0, 3))}] "
                        f"{op} {value};")
        elif kind == "sfold":
            body.append(f"{g.new_scalar(cat)} {_fold_op(draw)} {value};")
        elif kind == "temp":
            # a declared temp becomes a vector over i; it may be updated
            t = f"t{temps}"
            temps += 1
            body.append(f"{_CTYPE[cat]} {t} = {g.expr(cat, False, reads)};")
            reads.append((t, cat))
            if draw(st.booleans()):
                op = draw(st.sampled_from(["=", "+=", "*="]))
                body.append(f"{t} {op} {g.expr(cat, False, reads)};")
        elif kind == "dd":
            # repeated cells keep the last store
            body.append(f"{g.new_array(cat)}[ia[i]] = {value};")
        else:
            # a permutation: every cell once, whatever the operator
            op = draw(st.sampled_from(["=", "+=", "-=", "*="]))
            body.append(f"{g.new_array(cat)}[pa[i]] {op} {value};")
    path, setup = "loop", []
    if draw(st.booleans()):
        b = draw(st.sampled_from(sorted(_LOOP_BREAKERS)))
        stmts, setup_b, _path = _LOOP_BREAKERS[b]
        fill = {"wa": g.new_array("f"), "wb": g.new_array("f"),
                "wi": g.new_array("i")}
        body += [x.format(**fill) for x in stmts]
        setup = [x.format(**fill) for x in setup_b]
        path = _loop_breaker_path(b, indices)
    ihead = f"for (i = {i0}; i {iop} {ni}; i += {si})"
    return _program(g.arrays, g.scalars, ihead, "", [], [], body,
                    setup), path


@settings(max_examples=80)
@given(st.one_of(_nest_program(), _loop_program()))
def test_generated_nests_match_tree_walk(case):
    src, path = case
    _check_nest_program(src, path)


@pytest.mark.parametrize("breaker", sorted(_LOOP_BREAKERS))
def test_loop_rule_paths(breaker):
    """Every single-loop breaker takes its path over a loop long enough
    for its cells to repeat, with memory and stdout unchanged."""
    stmts, setup, path = _LOOP_BREAKERS[breaker]
    fill = {"wa": "w0", "wb": "w1", "wi": "w3"}
    src = _program([("w0", "f"), ("w1", "f"), ("w2", "f"), ("w3", "i")], [],
                   "for (i = 0; i < 12; i++)", "", [], [],
                   ["w2[i] = fa[i] * 0.5f;"]
                   + [x.format(**fill) for x in stmts],
                   [x.format(**fill) for x in setup])
    _check_nest_program(src, path)


#: shrunk generator failures, kept as regression cases:
#: (outer header, inner header, inner statement, cell type, path)
_PINNED = [
    # an int accumulator plus float32 addends computes each step in
    # float32 (the fold used to step in double)
    ("for (i = 0; i < 5; i += 1)", "for (j = 0; j < 11; j += 1)",
     "s0 += (ia[i * 16 + j] * (ia[j] - fa[i * 16 + j]));", "i", "whole"),
    # rows that interleave without colliding (cells 0, 2, 1, 3) run whole
    ("for (i = 0; i < 2; i += 1)", "for (j = 0; j < 3; j += 2)",
     "w0[i + j] = fa[i * 16 + j];", "f", "whole"),
]


@pytest.mark.parametrize("ihead,jhead,stmt,cat,path", _PINNED)
def test_pinned_nests(ihead, jhead, stmt, cat, path):
    scalars = [("s0", cat)] if stmt.startswith("s0") else []
    src = _program([("w0", cat)], scalars, ihead, jhead, [], [[stmt]], [])
    _check_nest_program(src, path)


#: nests whose folds divide by a value that is only known once the nest
#: runs: an expanded scalar of the outer body, or a cell an earlier pass
#: of the same nest stores (the plan's dtype probe must not check them)
_DIVISOR_NESTS = {
    "column-fold-scalar":
        "for (i = 0; i < n; i++) { int k = i + 1;"
        " for (j = 0; j < n; j++) y[j] += A[i * n + j] OP k; }",
    "row-fold-scalar":
        "for (i = 0; i < n; i++) { int k = i + 1; int t = 0;"
        " for (j = 0; j < n; j++) t += A[i * n + j] OP k; y[i] = t; }",
    "column-fold-stored-cell":
        "for (i = 0; i < n; i++) { d[i] = i + 1;"
        " for (j = 0; j < n; j++) y[j] += A[i * n + j] OP d[i]; }",
}


@pytest.mark.parametrize("op", ["/", "%"])
@pytest.mark.parametrize("case", sorted(_DIVISOR_NESTS))
def test_nest_folds_divide_by_values_the_nest_makes(case, op):
    src = """
    int A[64], d[8], y[8];
    int main(void) {
        int i, j, n;
        n = 8;
        for (i = 0; i < 64; i++) A[i] = 3 * i + 1;
        BODY
        return 0;
    }
    """.replace("BODY", _DIVISOR_NESTS[case].replace("OP", op))
    _check_nest_program(src, "whole")


@pytest.mark.parametrize("breaker", sorted(_BREAKERS))
def test_nest_rule_rejects(breaker):
    """Every breaker sends an otherwise whole nest to the per-row path,
    with memory and stdout unchanged."""
    jhead = "for (j = 1; j <= 5; j += 2)"
    loops, post = _BREAKERS[breaker]
    fill = {"jhead": jhead, "nj": 5, "wa": "w1", "wb": "w2"}
    src = _program([("w0", "f"), ("w1", "f"), ("w2", "f")], [],
                   "for (i = 0; i < 6; i++)", jhead, [],
                   [["w0[i * 16 + j] = fa[j] * 0.5f;"]],
                   [x.format(**fill) for x in loops + post])
    _check_nest_program(src, "rows")


#: per-row nests whose inner loops take the row-invariant addresses and
#: alias check worked out once per nest execution, or must not
_ROW_NESTS = {
    # triangular: the inner start moves with i
    "triangle": "for (i = 0; i < 12; i++) for (j = i; j < 12; j++)"
                " { w0[i * 16 + j] = fa[j * 16 + i] + i; w1[j] += w0[i * 16 + j]; }",
    # affine per row only: i * i is no coefficient of an (i, j) grid
    "square_row": "for (i = 0; i < 12; i++) for (j = 0; j < i; j++)"
                  " w0[i * i + j] = fa[(i / 2) * 16 + j] * 2.0f;",
    # a pointer declared per row: its target moves with i
    "row_ptr": "for (i = 0; i < 12; i++) { float *r = w0 + i * 16;"
               " for (j = 0; j <= i; j++) r[j] = fa[i + j] - 1.0f; }",
    # a pointer that aliases the array its row reads from row 6 on
    "row_alias": "for (i = 0; i < 12; i++) {"
                 " float *r = i < 6 ? w1 : w0 + i * 16 + 1;"
                 " for (j = 0; j <= i; j++) r[j] = w0[i * 16 + j] + 1.0f; }",
    # a scalar set per row and read in an inner subscript
    "row_scalar": "for (i = 0; i < 12; i++) { int k = 2 * i;"
                  " for (j = 0; j <= i; j++) w0[k * 8 + j] = fa[j] + k; }",
    # a written array aliased by another name: each row runs per iteration
    "alias": "p = w0 + 1; for (i = 0; i < 12; i++) for (j = 0; j < i; j++)"
             " p[i * 16 + j] = w0[i * 16 + j] + 1.0f;",
}


@pytest.mark.parametrize("case", sorted(_ROW_NESTS))
def test_row_nests_match_tree_walk(case):
    src = f"""
float fa[{_SZ}], w0[{_SZ}], w1[{_SZ}];
int main(void) {{
    int i, j;
    float *p;
    for (i = 0; i < {_SZ}; i++) {{ fa[i] = (i % 13) * 0.1f + 0.3f; w0[i] = 1.0f; }}
    {_ROW_NESTS[case]}
    return 0;
}}
"""
    _check_nest_program(src, "rows")


#: loops the nest rule compiles that the single-loop rule left to the
#: tree walk, each the body of a function: ``(body, host_stats subset)``
_NEWLY_COMPILED = {
    # a declared temp becomes a vector over i
    "temp": ("for (i = 0; i < 40; i++) { float t = fa[i] * 2.0f;"
             " w0[i] = t + 1.0f; t = t * t; w1[i] = t; }", {}),
    # a fold into one cell beside another statement
    "fold_beside": ("for (i = 0; i < 40; i++) { w0[3] += fa[i];"
                    " w1[i] = fa[i] * 2.0f; }", {}),
    # a plain store into one cell in the outer body of a whole nest
    "outer_cell": ("for (i = 0; i < 6; i++) { w1[0] = fa[i];"
                   " for (j = 0; j < 5; j++) w0[i * 16 + j] = fa[j]; }",
                   {"nest_whole": 1}),
    # a stride that is a variable
    "symbolic_stride": ("for (i = 0; i < n; i++) w0[i * n + 1] = fa[i];",
                        {}),
    # repeated cells: the last store wins, and a fold over several cells
    # runs one iteration at a time
    "modulo_cells": ("for (i = 0; i < 12; i++) w0[i % 4] = fa[i];"
                     " for (i = 0; i < 12; i++) w1[i % 4] += fa[i];", {}),
}


@pytest.mark.parametrize("case", sorted(_NEWLY_COMPILED))
def test_loops_the_nest_rule_compiles(case):
    body, stats = _NEWLY_COMPILED[case]
    src = f"""
float fa[{_SZ}], w0[{_SZ}], w1[{_SZ}];
void body(void) {{
    int i, j;
    int n = 7;
    {body}
}}
int main(void) {{
    int i;
    for (i = 0; i < {_SZ}; i++) fa[i] = (i % 13) * 0.1f + 0.3f;
    body();
    return 0;
}}
"""
    ref = _run_nest_program(src, "off")
    on = _run_nest_program(src, "on")
    assert _globals_image(on) == _globals_image(ref)
    _run_nest_program(src, "verify")      # raises on divergence
    stats = {"fn_fast": 1, **stats}
    assert {k: on.host_stats[k] for k in stats} == stats, on.host_stats


def test_transcendental_loop_bit_identical():
    """numpy's exp/sin/pow/log may differ from the scalar natives in the
    last ulp, so a loop calling them is not vectorized: ``on`` memory
    equals ``off`` memory cell for cell."""
    src = r"""
#include <math.h>
double out[4096];
int main(void) {
    int i;
    for (i = 0; i < 4096; i++)
        out[i] = exp(i * 0.001) + sin(i * 0.37) * pow(1.0001, i)
                 - log(i + 1.5);
    return 0;
}
"""
    unit = parse_translation_unit(src, "transc.c")
    on, off = Machine(unit, host_fastpath="on"), Machine(unit, host_fastpath="off")
    on.run()
    off.run()
    assert (np.asarray(on.global_array("out")).tobytes()
            == np.asarray(off.global_array("out")).tobytes())
    assert on.host_stats["loop_fast"] == 0
