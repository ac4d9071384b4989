"""Tests for CUDA-C -> IR lowering."""

import numpy as np
import pytest

from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.ptx.ir import BarOp, CallOp, IfOp, LoopOp, Mov, walk_ops
from repro.cuda.ptx.lower import LowerError, lower_translation_unit
from repro.cuda.ptx.ptxwriter import module_to_ptx
from repro.cuda.sim.engine import FunctionalEngine
from repro.devrt import INTRINSIC_SIGS
from repro.mem import LinearMemory

GMEM_BASE = 0x2_0000_0000


def compile_k(src, name=None):
    unit = parse_translation_unit(src, "test.cu")
    module = lower_translation_unit(unit, INTRINSIC_SIGS, "test")
    if name:
        return module.kernels[name]
    return module


def run_k(src, kernel, grid, block, arrays, scalars=(), n_out=None,
          fastpath="off"):
    """Compile, allocate arrays in gmem, run, return views of the arrays."""
    module = compile_k(src)
    gmem = LinearMemory(32 << 20, base=GMEM_BASE, name="gmem")
    addrs, views = [], []
    for arr in arrays:
        arr = np.asarray(arr)
        addr = gmem.alloc(max(arr.nbytes, 1))
        gmem.view(addr, arr.size, arr.dtype)[:] = arr.reshape(-1)
        addrs.append(addr)
        views.append((addr, arr))
    from repro.devrt import build_intrinsics
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(),
                              {}, fastpath=fastpath)
    params = [np.uint64(a) for a in addrs] + [s for s in scalars]
    stats = engine.launch(module.kernels[kernel], Dim3.of(grid), Dim3.of(block), params)
    outs = [gmem.view(addr, arr.size, arr.dtype).reshape(arr.shape)
            for addr, arr in views]
    return outs, stats, engine


def test_param_types_and_pointers():
    kernel = compile_k("""
    __global__ void k(float *p, int n, double d, long l) { }
    """, "k")
    assert [p.dtype for p in kernel.params] == ["u64", "s32", "f64", "s64"]
    assert kernel.params[0].is_pointer


def test_shared_layout_and_smem_size():
    kernel = compile_k("""
    __global__ void k(void) {
        __shared__ float a[64];
        __shared__ int b;
    }
    """, "k")
    assert kernel.shared_layout["a"][1] == 256
    assert kernel.shared_layout["b"][1] == 4
    assert kernel.smem_static >= 260


def test_structured_control_flow_ops():
    kernel = compile_k("""
    __global__ void k(int *p, int n) {
        int i;
        for (i = 0; i < n; i++) {
            if (i % 2) continue;
            if (i > 10) break;
            p[i] = i;
        }
    }
    """, "k")
    loops = [op for op in walk_ops(kernel.body) if isinstance(op, LoopOp)]
    assert len(loops) == 1
    assert loops[0].step_ops


def test_syncthreads_becomes_bar0():
    kernel = compile_k("__global__ void k(void) { __syncthreads(); }", "k")
    bars = [op for op in walk_ops(kernel.body) if isinstance(op, BarOp)]
    assert len(bars) == 1 and bars[0].count is None


def test_device_function_inlined():
    kernel = compile_k("""
    __device__ int twice(int v) { return 2 * v; }
    __global__ void k(int *p) { p[threadIdx.x] = twice(threadIdx.x); }
    """, "k")
    # no CallOp except parameter loads
    calls = [op for op in walk_ops(kernel.body)
             if isinstance(op, CallOp) and not op.name.startswith("__ld")]
    assert calls == []


def test_recursive_device_function_rejected():
    with pytest.raises(LowerError):
        compile_k("""
        __device__ int f(int n) { return n ? f(n - 1) : 0; }
        __global__ void k(int *p) { p[0] = f(3); }
        """)


def test_early_return_in_inlined_function():
    outs, _, _ = run_k("""
    __device__ float clamp01(float v) {
        if (v < 0.0f) return 0.0f;
        if (v > 1.0f) return 1.0f;
        return v;
    }
    __global__ void k(float *p, int n) {
        int i = threadIdx.x;
        if (i < n) p[i] = clamp01(p[i]);
    }
    """, "k", 1, 32, [np.linspace(-1, 2, 32, dtype=np.float32)],
        scalars=(np.int32(32),))
    expect = np.clip(np.linspace(-1, 2, 32, dtype=np.float32), 0, 1)
    assert np.allclose(outs[0], expect)


def _collatz(v):
    n = 0
    while v != 1:
        if v > 40:
            return -n
        v = 3 * v + 1 if v % 2 else v // 2
        n += 1
    return n


_RETURN_IN_LOOP = {
    "one-loop": ("""
    __device__ int first_at_least(int v) {
        int j;
        for (j = 0; j < 10; j++) { if (j >= v) return j; }
        return 100;
    }
    __global__ void k(int *p) { p[threadIdx.x] = first_at_least(threadIdx.x % 4); }
    """, [t % 4 for t in range(32)]),
    "two-loops": ("""
    __device__ int find(int v) {
        int i, j;
        for (i = 0; i < 4; i++)
            for (j = 0; j < 4; j++)
                if (i * 4 + j == v) return i * 10 + j;
        return -1;
    }
    __global__ void k(int *p) { p[threadIdx.x] = find(threadIdx.x % 20); }
    """, [(t % 20) // 4 * 10 + t % 4 if t % 20 < 16 else -1
          for t in range(32)]),
    # lanes return at different trips, leave the loop by break, or stay
    # in it; each call starts with no lane returned
    "divergent": ("""
    __device__ int steps(int v) {
        int n = 0;
        while (1) {
            if (v == 1) return n;
            if (v > 40) break;
            v = (v % 2) ? 3 * v + 1 : v / 2;
            n++;
        }
        return -n;
    }
    __global__ void k(int *p) {
        int r, acc = 0;
        for (r = 0; r < 2; r++) acc = acc * 100 + steps(threadIdx.x + 1 + r);
        p[threadIdx.x] = acc;
    }
    """, [_collatz(t + 1) * 100 + _collatz(t + 2) for t in range(32)]),
}


@pytest.mark.parametrize("mode", ["off", "on", "verify"])
@pytest.mark.parametrize("case", sorted(_RETURN_IN_LOOP))
def test_return_in_a_callee_loop_leaves_the_call(case, mode):
    # both engines run the same IR, so verify alone cannot catch a wrong
    # lowering: each case is checked by value
    src, want = _RETURN_IN_LOOP[case]
    outs, _, _ = run_k(src, "k", 1, 32, [np.zeros(32, dtype=np.int32)],
                       fastpath=mode)
    assert outs[0].tolist() == want


def test_return_outside_callee_loops_adds_no_predicate():
    kernel = compile_k("""
    __device__ int f(int v) { int j; for (j = 0; j < v; j++) v--; return v; }
    __global__ void k(int *p) { p[0] = f(p[1]); }
    """, "k")
    assert not [op for op in walk_ops(kernel.body)
                if isinstance(op, Mov) and op.dst.name.startswith("returned")]


def test_sreg_access():
    outs, _, _ = run_k("""
    __global__ void k(int *p) {
        int i = threadIdx.x + blockIdx.x * blockDim.x;
        p[i] = threadIdx.x * 1000 + blockIdx.x;
    }
    """, "k", 3, 8, [np.zeros(24, dtype=np.int32)])
    expect = np.array([t * 1000 + b for b in range(3) for t in range(8)])
    assert np.array_equal(outs[0], expect)


def test_register_names_never_collide():
    # the 21st math unop register would be m20, the name of the first
    # binary math register (m2 and 0): powf must not overwrite sqrtf
    terms = " + ".join(["sqrtf(x)"] * 20)
    src = """
    __global__ void k(float *p) {
        float x = p[threadIdx.x];
        float s = TERMS;
        p[threadIdx.x] = sqrtf(x) + powf(x, 2.0f) + s * 0.0f;
    }
    """.replace("TERMS", terms)
    outs, _, _ = run_k(src, "k", 1, 32, [np.full(32, 4.0, np.float32)])
    assert np.array_equal(outs[0], np.full(32, 18.0, np.float32))
    kernel = compile_k(src, "k")
    defs = [op.dst.name for op in walk_ops(kernel.body)
            if getattr(op, "dst", None) is not None
            and not isinstance(op, Mov)]
    assert len(defs) == len(set(defs))


def test_unknown_function_rejected():
    with pytest.raises(LowerError):
        compile_k("__global__ void k(void) { frobnicate(); }")


_K = "__global__ void k(int *p) { int i; BODY }"


@pytest.mark.parametrize("src,match", [
    (_K.replace("BODY", "break;"), "break outside a loop"),
    (_K.replace("BODY", "if (p[0]) continue;"), "continue outside a loop"),
    # a callee's break cannot leave the caller's loop
    ("__device__ int f(void) { break; return 1; }\n"
     + _K.replace("BODY", "for (i = 0; i < 2; i++) p[i] = f();"),
     "break outside a loop"),
    (_K.replace("BODY", "p[0] = threadIdx.w;"),
     "threadIdx has no member 'w'"),
    (_K.replace("BODY", "p[0] = ~(float) p[1];"),
     "requires an integer operand"),
], ids=["break", "continue", "break-in-callee", "sreg-member", "float-not"])
def test_constructs_no_executor_runs_are_rejected(src, match):
    # no executor runs these as C means them: the tree walk and the
    # kernel compiler fail on each but the callee's break, which both
    # would run as a return from the callee
    with pytest.raises(LowerError, match=match):
        compile_k(src)


def test_pragma_in_device_code_rejected():
    with pytest.raises(LowerError):
        compile_k("""
        __global__ void k(float *p) {
            #pragma omp parallel for
            for (int i = 0; i < 8; i++) p[i] = 0.0f;
        }
        """)


def test_side_effect_in_shortcircuit_rejected():
    with pytest.raises(LowerError):
        compile_k("""
        __global__ void k(int *p) {
            int i = 0;
            if (p[0] && i++) p[1] = 1;
        }
        """)


def test_address_taken_local_demoted_to_local_memory():
    kernel = compile_k("""
    __device__ void store(long *dst, long v) { *dst = v; }
    __global__ void k(long *p) {
        long tmp = 7;
        store(&tmp, 9);
        p[threadIdx.x] = tmp;
    }
    """, "k")
    assert kernel.local_static >= 8


def test_local_array_per_thread():
    outs, _, _ = run_k("""
    __global__ void k(int *p) {
        int scratch[4];
        int t = threadIdx.x;
        scratch[0] = t;
        scratch[1] = t * 2;
        p[t] = scratch[0] + scratch[1];
    }
    """, "k", 1, 16, [np.zeros(16, dtype=np.int32)])
    assert np.array_equal(outs[0], 3 * np.arange(16))


def test_math_intrinsics():
    outs, _, _ = run_k("""
    __global__ void k(float *p) {
        int i = threadIdx.x;
        p[i] = sqrtf(p[i]) + fabsf(-1.0f);
    }
    """, "k", 1, 8, [np.arange(8, dtype=np.float32) ** 2])
    assert np.allclose(outs[0], np.arange(8) + 1)


def test_double_arithmetic():
    outs, _, _ = run_k("""
    __global__ void k(double *p) {
        int i = threadIdx.x;
        p[i] = p[i] / 3.0;
    }
    """, "k", 1, 4, [np.ones(4) * 6.0])
    assert np.allclose(outs[0], 2.0)


def test_integer_division_c_semantics():
    outs, _, _ = run_k("""
    __global__ void k(int *p) {
        int i = threadIdx.x;
        p[i] = (i - 4) / 3;
    }
    """, "k", 1, 8, [np.zeros(8, dtype=np.int32)])
    expect = [int((i - 4) / 3) for i in range(8)]  # trunc toward zero
    assert list(outs[0]) == expect


def test_ptx_text_contains_markers():
    module = compile_k("""
    __global__ void k(float *p, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) p[i] = 2.0f * p[i];
    }
    """)
    text = module_to_ptx(module)
    assert ".target sm_53" in text
    assert ".visible .entry k(" in text
    assert "ld.global.f32" in text
    assert "st.global.f32" in text
    assert "bra" in text


def test_static_op_count_positive():
    module = compile_k("__global__ void k(int *p) { p[0] = 1; }")
    assert module.kernels["k"].static_op_count() > 2
