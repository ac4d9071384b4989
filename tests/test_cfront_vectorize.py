"""Affine host loops under the host fast path (equivalence with
tree-walking, and the loops it must leave to the tree-walker)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront import hostcompile
from repro.cfront.errors import InterpError
from repro.cfront.interp import Machine
from repro.cfront.parser import parse_translation_unit


def run(src, host_fastpath=None):
    machine = Machine(parse_translation_unit(src), host_fastpath=host_fastpath)
    machine.run()
    return machine


def _tree_walked_loop(src) -> Machine:
    """Run ``src`` with the fast path on and assert its one loop fell
    back to the tree-walker (nothing compiled, one loop fallback)."""
    m = run(src, host_fastpath="on")
    assert m.host_stats["loop_fast"] == 0
    assert m.host_stats["loop_fallback"] == 1
    return m


def test_simple_init_vectorized_matches():
    m = run("""
    float x[1000];
    int main(void) { int i; for (i = 0; i < 1000; i++) x[i] = 2 * i + 1; return 0; }
    """)
    assert np.array_equal(m.global_array("x"), 2 * np.arange(1000) + 1)


def test_loop_variable_final_value():
    m = run("""
    int final;
    int main(void) { int i; for (i = 3; i < 17; i += 4) ; final = i; return 0; }
    """)
    # iterations at 3,7,11,15 -> final value 19
    assert m.global_array("final") == 19


def test_le_condition():
    m = run("""
    int xs[11];
    int main(void) { int i; for (i = 0; i <= 10; i++) xs[i] = i; return 0; }
    """)
    assert list(m.global_array("xs")) == list(range(11))


def test_floating_bound():
    # i < 10.5 runs i = 0..10 and i <= 2.5f runs i = 0..2, as the tree
    # walk's exact int/float comparison does
    src = """
    int xs[16], ys[16]; int fi, fj;
    int main(void) {
        int i;
        for (i = 0; i < 10.5; i++) xs[i] = i + 1;
        fi = i;
        for (i = 0; i <= 2.5f; i++) ys[i] = i + 1;
        fj = i;
        return 0;
    }
    """
    on, off = run(src, host_fastpath="on"), run(src, host_fastpath="off")
    assert on.host_stats["fn_fast"] + on.host_stats["loop_fast"] > 0
    for name in ("xs", "ys", "fi", "fj"):
        assert (np.asarray(on.global_array(name)).tobytes()
                == np.asarray(off.global_array(name)).tobytes()), name
    assert off.global_array("fi") == 11 and off.global_array("fj") == 3


def test_saxpy_pattern_same_index_read_write():
    m = run("""
    float x[256], y[256];
    int main(void) {
        int i;
        for (i = 0; i < 256; i++) { x[i] = i; y[i] = 1.0f; }
        for (i = 0; i < 256; i++) y[i] = 2.5f * x[i] + y[i];
        return 0;
    }
    """)
    assert np.allclose(m.global_array("y"), 2.5 * np.arange(256) + 1)


def test_aliased_pointer_runs_per_iteration():
    # p[i] is a[i + 1]: every iteration reads what the previous one wrote,
    # which two names for one buffer hide from the subscript rule
    src = """
    float a[64]; float *p;
    int main(void) {
        int i;
        for (i = 0; i < 64; i++) a[i] = 1.0f;
        p = a + 1;
        for (i = 0; i < 63; i++) p[i] = a[i] + 1.0f;
        return 0;
    }
    """
    on, off = run(src, host_fastpath="on"), run(src, host_fastpath="off")
    assert np.array_equal(off.global_array("a"), np.arange(1, 65))
    assert (np.asarray(on.global_array("a")).tobytes()
            == np.asarray(off.global_array("a")).tobytes())


SELF_FOLDS = {
    # one cell folded by a single loop, its addend reading the cell
    "cell": "x[0] = 1.0f; for (j = 0; j < 8; j++) x[0] += x[0] * a[j];",
    # data-dependent subscripts that all hit one cell
    "general": "for (j = 0; j < 8; j++) idx[j] = 2; x[2] = 1.0f;"
               " for (j = 0; j < 8; j++) x[idx[j]] += x[idx[j]] * a[j];",
    # a row fold and a column fold of a nest
    "row": "for (i = 0; i < 8; i++) for (j = 0; j < 8; j++)"
           " x[i] += x[i] * a[i * 8 + j];",
    "column": "for (i = 0; i < 8; i++) for (j = 0; j < 8; j++)"
              " x[j] += x[j] * a[i * 8 + j];",
    "square": "for (i = 0; i < 8; i++) for (j = 0; j < 8; j++)"
              " x[j] *= x[j] * 0.5f;",
}


@pytest.mark.parametrize("case", sorted(SELF_FOLDS))
def test_fold_reading_its_own_cell(case):
    """A fold evaluates its addends before it updates the cell, so an
    addend that reads the cell must not be folded in one pass: every
    step has to see the cell the previous step left."""
    src = """
    float x[8]; float a[64]; int idx[8];
    int main(void) {
        int i, j;
        for (i = 0; i < 64; i++) a[i] = 0.5f;
        for (i = 0; i < 8; i++) x[i] = 1.0f + i * 0.125f;
        %s
        return 0;
    }
    """ % SELF_FOLDS[case]
    on, off = run(src, host_fastpath="on"), run(src, host_fastpath="off")
    assert (np.asarray(on.global_array("x")).tobytes()
            == np.asarray(off.global_array("x")).tobytes())


def test_compound_assignment_vectorized():
    m = run("""
    float y[64];
    int main(void) {
        int i;
        for (i = 0; i < 64; i++) y[i] = i;
        for (i = 0; i < 64; i++) y[i] *= 3.0f;
        return 0;
    }
    """)
    assert np.allclose(m.global_array("y"), 3.0 * np.arange(64))


def test_loop_carried_dependence_not_vectorized():
    src = """
    int xs[16];
    int main(void) {
        int i;
        for (i = 1; i < 16; i++) xs[i] = xs[i - 1] + 1;
        return 0;
    }
    """
    m = _tree_walked_loop(src)
    # and the interpreted fallback is still correct
    assert list(m.global_array("xs")) == list(range(16))


def test_call_in_body_not_vectorized_unless_math():
    src_math = """
    float x[32];
    int main(void) { int i; for (i = 0; i < 32; i++) x[i] = sqrt((double) i); return 0; }
    """
    m = run(src_math)
    assert np.allclose(m.global_array("x"), np.sqrt(np.arange(32)), rtol=1e-6)

    src_user = """
    int f(int i) { return i; }
    int xs[8];
    int main(void) { int i; for (i = 0; i < 8; i++) xs[i] = f(i); return 0; }
    """
    m2 = _tree_walked_loop(src_user)
    assert list(m2.global_array("xs")) == list(range(8))


def test_2d_init_via_flattened_index():
    m = run("""
    float A[64 * 64];
    int n = 64;
    int main(void) {
        int i, j;
        for (i = 0; i < 64; i++)
            for (j = 0; j < 64; j++)
                A[i * 64 + j] = ((float) (i * j)) / 64;
        return 0;
    }
    """)
    i, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    assert np.allclose(m.global_array("A").reshape(64, 64), (i * j).astype(np.float32) / 64)


def test_2d_init_via_true_2d_array():
    m = run("""
    float A[32][16];
    int main(void) {
        int i, j;
        for (i = 0; i < 32; i++)
            for (j = 0; j < 16; j++)
                A[i][j] = i + 10 * j;
        return 0;
    }
    """)
    i, j = np.meshgrid(np.arange(32), np.arange(16), indexing="ij")
    assert np.allclose(m.global_array("A"), i + 10 * j)


def test_modulo_and_division_patterns():
    m = run("""
    int xs[100];
    int main(void) { int i; for (i = 0; i < 100; i++) xs[i] = (i % 7) + i / 9; return 0; }
    """)
    iv = np.arange(100)
    assert np.array_equal(m.global_array("xs"), iv % 7 + iv // 9)


#: loops that divide by a zero ``z`` on some lane they evaluate
_DIV_ZERO = {
    "loop": "for (i = 0; i < 8; i++) x[i] = (i + 5) OP z;",
    "nest": "for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) "
            "x[i * 8 + j] = (i + j + 5) OP z;",
    "compound": "for (i = 0; i < 8; i++) x[i] OP= z;",
    "nest-compound": "for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) "
                     "x[i * 8 + j] OP= z;",
    "taken-arm": "for (i = 0; i < 8; i++) x[i] = i > 5 ? (i + 5) OP z : 1;",
    "float-mod": "for (i = 0; i < 8; i++) x[i] = (i + 5.5f) % f;",
}


@pytest.mark.parametrize("mode", ["on", "off", "verify"])
@pytest.mark.parametrize("op,case", [
    (op, case) for op in "/%" for case in sorted(_DIV_ZERO)
    # a float divided by zero is no error
    if not (op == "/" and case == "float-mod")])
def test_integer_division_by_zero_raises(op, case, mode):
    # the tree walk's error, in every mode; the fast path raises before
    # it stores anything (the tree walk stores the iterations before the
    # failing one)
    machine = Machine(parse_translation_unit("""
    int x[64];
    int main(void) {
        int i, j, z;
        float f;
        z = 0;
        f = 0.5f;
        for (i = 0; i < 64; i++) x[i] = i + 1;
        BODY
        return 0;
    }
    """.replace("BODY", _DIV_ZERO[case].replace("OP", op))),
        host_fastpath=mode)
    what = "division" if op == "/" else "modulo"
    with pytest.raises(InterpError, match=f"integer {what} by zero"):
        machine.run()
    if mode != "off":
        assert np.array_equal(machine.global_array("x"), np.arange(1, 65))


@pytest.mark.parametrize("op", ["/", "%"])
def test_division_by_zero_in_an_untaken_arm(op, monkeypatch):
    # a conditional expression computes both arms on every lane: a zero
    # divisor on a lane that takes the other arm is no error
    checks = []
    real = hostcompile._check_divisor

    def spy(op, lhs, rhs, live=None, loc=None):
        checks.append(live is not None)
        real(op, lhs, rhs, live, loc)

    monkeypatch.setattr(hostcompile, "_check_divisor", spy)
    src = """
    int x[16], d[16]; float y[16];
    int main(void) {
        int i, z;
        z = 0;
        for (i = 0; i < 16; i++) d[i] = i % 3;
        for (i = 0; i < 16; i++) x[i] = i > 99 ? (i + 5) OP z : i;
        for (i = 0; i < 16; i++) x[i] = d[i] != 0 ? x[i] OP d[i] : -1;
        for (i = 0; i < 16; i++) y[i] = (i - 7) / (float) z;
        return 0;
    }
    """.replace("OP", op)
    on, off = run(src, "on"), run(src, "off")
    # the vector path checked the divisions inside the arms
    assert checks.count(True) >= 2
    for name in ("x", "y"):
        assert on.global_array(name).tobytes() == off.global_array(name).tobytes()
    run(src, "verify")


def test_empty_iteration_space():
    m = run("""
    int xs[4];
    int final;
    int main(void) { int i; for (i = 5; i < 5; i++) xs[0] = 99; final = i; return 0; }
    """)
    assert m.global_array("xs")[0] == 0
    assert m.global_array("final") == 5


def test_if_in_body_falls_back():
    src = """
    int xs[10];
    int main(void) {
        int i;
        for (i = 0; i < 10; i++) { if (i % 2) xs[i] = 1; }
        return 0;
    }
    """
    m = _tree_walked_loop(src)
    assert list(m.global_array("xs")) == [0, 1] * 5


@settings(max_examples=30, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=20),
    stop=st.integers(min_value=0, max_value=200),
    step=st.integers(min_value=1, max_value=7),
    scale=st.integers(min_value=-5, max_value=5),
)
def test_property_vectorized_matches_scalar_semantics(start, stop, step, scale):
    src = f"""
    int xs[512];
    int final;
    int main(void) {{
        int i;
        for (i = {start}; i < {stop}; i += {step}) xs[i] = {scale} * i + 2;
        final = i;
        return 0;
    }}
    """
    m = run(src)
    expect = np.zeros(512, dtype=np.int64)
    i = start
    while i < stop:
        expect[i] = scale * i + 2
        i += step
    assert np.array_equal(m.global_array("xs"), expect[:512].astype(np.int32))
    assert m.global_array("final") == i


def test_scalar_reduction_folds_sequentially():
    """``acc[inv] += expr(i)`` collapses every iteration onto one cell; the
    fold must accumulate in the target dtype with the same rounding as the
    scalar loop (regression: the scatter path read a stale accumulator and
    kept only the last iteration's addition)."""
    m = run("""
    float a[16], b[16], acc[2];
    int main(void) {
        int k;
        for (k = 0; k < 16; k++) { a[k] = k + 1; b[k] = k + 2; }
        acc[0] = 3.0f;
        for (k = 0; k < 16; k++) acc[0] += 2.0f * a[k] * b[k];
        return 0;
    }
    """)
    a = np.arange(16, dtype=np.float32) + 1
    b = np.arange(16, dtype=np.float32) + 2
    expect = np.float32(3.0)
    for k in range(16):
        expect = np.float32(expect + np.float32(2.0) * a[k] * b[k])
    assert m.global_array("acc")[0] == expect


def test_gemm_inner_loop_reduction():
    """The gemm host-fallback shape: an invariant-indexed accumulator inside
    nested loops, seeded by a ``*=`` statement."""
    m = run("""
    float A[16], B[16], C[16];
    int main(void) {
        int i, j, k, n;
        n = 4;
        for (i = 0; i < 16; i++) { A[i] = i + 1; B[i] = 16 - i; C[i] = i; }
        for (i = 0; i < n; i++)
            for (j = 0; j < n; j++)
            {
                C[i * n + j] *= 3.0f;
                for (k = 0; k < n; k++)
                    C[i * n + j] += 2.0f * A[i * n + k] * B[k * n + j];
            }
        return 0;
    }
    """)
    a = (np.arange(16, dtype=np.float32) + 1).reshape(4, 4)
    b = (16 - np.arange(16, dtype=np.float32)).reshape(4, 4)
    c = np.arange(16, dtype=np.float32).reshape(4, 4)
    expect = 2.0 * (a.astype(np.float64) @ b) + 3.0 * c
    assert np.allclose(m.global_array("C").reshape(4, 4), expect, rtol=1e-5)


def test_reduction_reading_accumulator_on_rhs_falls_back():
    """``acc[0] = acc[0] + x[i]`` (plain assign) and self-referential
    compound forms cannot fold; they must tree-walk and stay correct."""
    m = run("""
    int xs[8];
    int acc[1];
    int main(void) {
        int i;
        for (i = 0; i < 8; i++) xs[i] = i + 1;
        acc[0] = 0;
        for (i = 0; i < 8; i++) acc[0] = acc[0] + xs[i];
        return 0;
    }
    """)
    assert m.global_array("acc")[0] == 36


def test_integer_reduction_tree_walks_correctly():
    m = run("""
    int acc[1];
    int main(void) {
        int i;
        acc[0] = 5;
        for (i = 0; i < 10; i++) acc[0] += i;
        return 0;
    }
    """)
    assert m.global_array("acc")[0] == 50
