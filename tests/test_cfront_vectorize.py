"""Affine host loops under the host fast path (equivalence with
tree-walking, and the loops it must leave to the tree-walker)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
