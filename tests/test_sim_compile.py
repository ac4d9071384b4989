"""Differential tests for the closure-compiled kernel fast path.

Every test runs the same workload under ``fastpath='off'`` (tree-walk
reference) and ``fastpath='on'`` (compiled closures) and demands
bit-identical device memory plus identical KernelStats on every field.
"""

import dataclasses
import random
import re

import numpy as np
import pytest

from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.sim.engine import (
    FunctionalEngine, KernelVerifyError, LaunchError,
)
from repro.cuda.sim import compile as sim_compile
from repro.cuda.sim.compile import (
    CompiledKernelCache, UnsupportedKernel, compile_kernel,
)
from repro.devrt import INTRINSIC_SIGS, build_intrinsics
from repro.mem import LinearMemory
from repro.ompi import OmpiCompiler, OmpiConfig

GMEM_BASE = 0x2_0000_0000


def run_both(src, kernel, grid, block, arrays, scalars=()):
    """Run a kernel under both execution modes; return per-mode
    (memory image, stats) and assert nothing diverges."""
    results = {}
    for mode in ("off", "on"):
        unit = parse_translation_unit(src, "t.cu")
        module = lower_translation_unit(unit, INTRINSIC_SIGS, "t")
        gmem = LinearMemory(16 << 20, base=GMEM_BASE, name="gmem")
        addrs = []
        for arr in arrays:
            arr = np.asarray(arr)
            addr = gmem.alloc(max(arr.nbytes, 1))
            gmem.view(addr, arr.size, arr.dtype)[:] = arr.reshape(-1)
            addrs.append(addr)
        engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(),
                                  {}, fastpath=mode)
        params = [np.uint64(a) for a in addrs] + list(scalars)
        stats = engine.launch(module.kernels[kernel], Dim3.of(grid),
                              Dim3.of(block), params)
        results[mode] = (gmem.buf.copy(), stats, engine)
    buf_off, st_off, _ = results["off"]
    buf_on, st_on, eng_on = results["on"]
    assert np.array_equal(buf_off, buf_on), "device memory diverged"
    diverged = [f.name for f in dataclasses.fields(st_off)
                if getattr(st_off, f.name) != getattr(st_on, f.name)]
    assert not diverged, f"stats diverged on {diverged}"
    return st_off, eng_on


def test_divergent_branches_and_loop():
    src = r"""
    __global__ void k(float *a, int *b, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) {
            float acc = 0.0f;
            for (int j = 0; j < i % 7 + 1; j++) {
                acc += a[i] * (float)j;
                if (j % 2 == 0) { acc = acc - 0.5f; }
                else { b[i] = b[i] + 1; }
            }
            a[i] = acc + sqrtf((float)i);
            b[i] = b[i] * 2 - (int)acc;
        }
    }
    """
    a = np.linspace(-3, 9, 64, dtype=np.float32)
    b = np.arange(64, dtype=np.int32) - 17
    stats, _ = run_both(src, "k", (2, 1, 1), (32, 1, 1), [a, b],
                        [np.int32(50)])
    assert stats.divergent_branches > 0
    assert stats.loop_iterations > 0


def test_break_and_continue():
    src = r"""
    __global__ void k(int *out, int n) {
        int i = threadIdx.x;
        int s = 0;
        for (int j = 0; j < n; j++) {
            if (j == i) continue;
            if (j > i + 8) break;
            s += j;
        }
        out[i] = s;
    }
    """
    out = np.zeros(32, dtype=np.int32)
    run_both(src, "k", (1, 1, 1), (32, 1, 1), [out], [np.int32(64)])


def test_barrier_in_loop_with_shared_memory():
    # block-wide reduction: shared-memory writes and __syncthreads()
    # inside a loop, with divergent participation in each round
    src = r"""
    __global__ void k(float *in, float *out) {
        __shared__ float s[64];
        int t = threadIdx.x;
        s[t] = in[blockIdx.x * 64 + t];
        __syncthreads();
        for (int stride = 32; stride > 0; stride = stride / 2) {
            if (t < stride) { s[t] = s[t] + s[t + stride]; }
            __syncthreads();
        }
        if (t == 0) { out[blockIdx.x] = s[0]; }
    }
    """
    rng = np.random.default_rng(7)
    data = rng.standard_normal(128).astype(np.float32)
    out = np.zeros(2, dtype=np.float32)
    stats, _ = run_both(src, "k", (2, 1, 1), (64, 1, 1), [data, out])
    assert stats.barriers > 0
    assert stats.shared_accesses > 0


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_randomized_kernels(seed):
    """Randomly generated arithmetic kernels with data-dependent branches
    and loops must stay bit-identical between the two engines."""
    rng = random.Random(seed)
    binops = ["+", "-", "*"]
    e1 = rng.choice(binops)
    e2 = rng.choice(binops)
    c1 = rng.randint(1, 9)
    c2 = rng.randint(2, 6)
    c3 = rng.randint(1, 5)
    src = f"""
    __global__ void k(float *a, int *b, int n) {{
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i >= n) return;
        float x = a[i];
        int acc = b[i];
        for (int j = 0; j < (i % {c2}) + {c3}; j++) {{
            x = x {e1} (float)(j + {c1});
            if (b[i] % {c2} == j % {c2}) {{
                acc = acc {e2} (j + 1);
            }} else if (j % 2 == 1) {{
                x = x * 0.5f;
            }}
        }}
        a[i] = x;
        b[i] = acc;
    }}
    """
    nrng = np.random.default_rng(seed)
    a = nrng.standard_normal(96).astype(np.float32)
    b = nrng.integers(-50, 50, 96).astype(np.int32)
    run_both(src, "k", (3, 1, 1), (32, 1, 1), [a, b], [np.int32(90)])


def test_partial_warp_and_multiple_warps():
    src = r"""
    __global__ void k(double *a) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        a[i] = a[i] * 3.0 + (double)threadIdx.x;
    }
    """
    a = np.linspace(0, 1, 80, dtype=np.float64)
    # 40 threads/block: one full warp plus a partial one per block
    run_both(src, "k", (2, 1, 1), (40, 1, 1), [a])


def test_verify_mode_accepts_equivalent_execution():
    src = r"""
    __global__ void k(float *a) {
        int i = threadIdx.x;
        a[i] = a[i] + (float)i;
    }
    """
    unit = parse_translation_unit(src, "t.cu")
    module = lower_translation_unit(unit, INTRINSIC_SIGS, "t")
    gmem = LinearMemory(1 << 20, base=GMEM_BASE, name="gmem")
    addr = gmem.alloc(32 * 4)
    gmem.view(addr, 32, np.float32)[:] = np.arange(32, dtype=np.float32)
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {},
                              fastpath="verify")
    engine.launch(module.kernels["k"], Dim3.of((1, 1, 1)),
                  Dim3.of((32, 1, 1)), [np.uint64(addr)])
    got = gmem.view(addr, 32, np.float32)
    assert np.array_equal(got, np.arange(32, dtype=np.float32) * 2)


def test_invalid_fastpath_rejected():
    gmem = LinearMemory(1 << 16, base=GMEM_BASE)
    with pytest.raises(ValueError):
        FunctionalEngine(JETSON_NANO_GPU, gmem, {}, {}, fastpath="sometimes")


def test_cache_compiles_once_and_hits_after():
    src = r"""
    __global__ void k(float *a) {
        int i = threadIdx.x;
        a[i] = a[i] * 2.0f;
    }
    """
    unit = parse_translation_unit(src, "t.cu")
    module = lower_translation_unit(unit, INTRINSIC_SIGS, "t")
    cache = CompiledKernelCache()
    kern = module.kernels["k"]
    first = cache.get(kern)
    second = cache.get(kern)
    assert first is not None and first is second
    assert cache.compiled == 1
    assert cache.hits == 1


SCALE = r"""
__global__ void k(float *a) {
    int i = threadIdx.x;
    a[i] = a[i] * 2.0f;
}
"""


def _launch_scale(mode="on", cache=None):
    unit = parse_translation_unit(SCALE, "t.cu")
    kern = lower_translation_unit(unit, INTRINSIC_SIGS, "t").kernels["k"]
    gmem = LinearMemory(1 << 16, base=GMEM_BASE, name="gmem")
    addr = gmem.alloc(64 * 4)
    gmem.view(addr, 64, np.float32)[:] = np.arange(64)
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {},
                              fastpath=mode, compile_cache=cache)
    engine.launch(kern, Dim3.of(1), Dim3.of(64), [np.uint64(addr)])
    return engine, gmem.view(addr, 64, np.float32)


@pytest.mark.parametrize("shared", [False, True])
def test_code_generator_bug_fails_the_launch(monkeypatch, shared):
    # a defect in the compiler is not a construct it refuses: it must
    # fail the launch instead of quietly tree-walking, with a shared
    # cache and with the engine's own
    def broken(self, *args):
        raise TypeError("generator defect")

    monkeypatch.setattr(sim_compile._FnGen, "emit_segment", broken)
    with pytest.raises(TypeError, match="generator defect"):
        _launch_scale(cache=CompiledKernelCache() if shared else None)


def _refuse_segments(monkeypatch):
    def refuse(self, seg, *args):
        raise UnsupportedKernel(f"segment from {type(seg[0]).__name__}")

    monkeypatch.setattr(sim_compile._FnGen, "emit_segment", refuse)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("mode", ["on", "verify"])
def test_refused_construct_fails_the_launch(monkeypatch, mode, shared):
    # there is no tree-walk fallback: a refusal fails the launch, names
    # the construct and caches nothing, while off never compiles
    _refuse_segments(monkeypatch)
    cache = CompiledKernelCache() if shared else None
    with pytest.raises(UnsupportedKernel, match="segment from CallOp"):
        _launch_scale(mode, cache=cache)
    if shared:
        assert len(cache) == 0 and cache.compiled == 0
    _engine, out = _launch_scale("off", cache=cache)
    assert np.array_equal(out, 2 * np.arange(64, dtype=np.float32))


# -- OMPi pipeline ----------------------------------------------------------

OMPI_FOR = r'''
float A[4096], B[4096], C[4096];

int main(void)
{
    int i, j, n = 64;
    for (i = 0; i < n * n; i++) { A[i] = i % 9; B[i] = i % 5; C[i] = 7.0f; }
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A[0:n*n], B[0:n*n], n) map(from: C[0:n*n]) \
        num_teams(16) num_threads(256) SCHEDULE
    for (i = 0; i < n; i++)
        for (j = 0; j < n; j++)
            C[i * n + j] = A[i * n + j] + B[i * n + j];
    return 0;
}
'''


def _run_ompi_modes(src, name):
    outs = {}
    for mode in ("off", "on"):
        prog = OmpiCompiler(OmpiConfig(kernel_fastpath=mode)).compile(
            src, f"{name}_{mode}")
        run = prog.run()
        stats = run.ort.cudadev.driver.last_kernel_stats
        outs[mode] = (np.asarray(run.machine.global_array("C")).copy(), stats)
    c_off, st_off = outs["off"]
    c_on, st_on = outs["on"]
    assert np.array_equal(c_off, c_on)
    diverged = [f.name for f in dataclasses.fields(st_off)
                if getattr(st_off, f.name) != getattr(st_on, f.name)]
    assert not diverged, f"stats diverged on {diverged}"
    return c_on


@pytest.mark.parametrize("sched", ["", "schedule(dynamic, 8)",
                                   "schedule(guided)"])
def test_for_schedules_match_reference(sched):
    src = OMPI_FOR.replace("SCHEDULE", sched)
    c = _run_ompi_modes(src, "sched" + str(abs(hash(sched)) % 1000))
    want = np.arange(4096) % 9 + np.arange(4096) % 5
    assert np.allclose(c, want)


def test_masterworker_parallel_inside_target():
    # '#pragma omp parallel' inside target lowers to the master/worker
    # scheme: named barriers in the worker loop plus shared push/pop
    src = r'''
    float C[512];

    int main(void)
    {
        int i;
        for (i = 0; i < 512; i++) C[i] = 1.0f;
        #pragma omp target map(tofrom: C[0:512])
        {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 512; i++)
                C[i] = C[i] * 2.0f + 1.0f;
        }
        return 0;
    }
    '''
    c = _run_ompi_modes(src, "mw")
    assert np.allclose(c, np.full(512, 3.0))


def test_ompi_verify_divergence_fails_the_run(monkeypatch):
    """A compiled kernel that writes a wrong value fails a verify-mode
    program run: the divergence is neither retried nor sent to the
    region's host version, which would hide it behind a correct result."""
    real = FunctionalEngine._launch

    def broken(self, kernel, grid, block, params, only_blocks=None,
               only_warps=None, compiled=None):
        stats = real(self, kernel, grid, block, params, only_blocks,
                     only_warps, compiled)
        if compiled is not None:
            for addr in self.gmem.allocations():
                self.gmem.buf[addr - self.gmem.base] ^= 1
        return stats

    monkeypatch.setattr(FunctionalEngine, "_launch", broken)
    prog = OmpiCompiler(OmpiConfig(kernel_fastpath="verify")).compile(
        OMPI_FOR.replace("SCHEDULE", ""), "vfy_broken")
    with pytest.raises(KernelVerifyError, match="diverged"):
        prog.run()


def _flip_byte_5(gmem, addr):
    gmem.buf[addr - gmem.base + 5] ^= 1
    return rf"gmem: block {addr:#x} differs at byte 5 \(fastpath"


def _alloc_extra_block(gmem, addr):
    extra = gmem.alloc(16)
    return (rf"gmem: allocation maps differ at {extra:#x} "
            rf"\(fastpath 16 != interp unallocated\)")


@pytest.mark.parametrize("tamper", [_flip_byte_5, _alloc_extra_block],
                         ids=["byte", "extra-block"])
def test_verify_names_the_first_difference(monkeypatch, tamper):
    """One changed byte or one extra block left by the compiled run fails
    the launch, naming the block and byte or the allocation map."""
    real = FunctionalEngine._launch
    wants = []

    def tampered(self, kernel, grid, block, params, only_blocks=None,
                 only_warps=None, compiled=None):
        stats = real(self, kernel, grid, block, params, only_blocks,
                     only_warps, compiled)
        if compiled is not None:
            wants.append(tamper(self.gmem, int(params[0])))
        return stats

    monkeypatch.setattr(FunctionalEngine, "_launch", tampered)
    with pytest.raises(KernelVerifyError) as info:
        _launch_scale("verify")
    assert len(wants) == 1
    assert re.search(wants[0], str(info.value))


CRITICAL = r'''
int total[1];
int main(void)
{
    int r;
    total[0] = 0;
    for (r = 0; r < ROUNDS; r++) {
        #pragma omp target map(tofrom: total)
        {
            #pragma omp parallel num_threads(96)
            {
                #pragma omp critical
                {
                    total[0] = total[0] + 1;
                }
            }
        }
    }
    return 0;
}
'''


@pytest.mark.parametrize("mode", ["off", "on", "verify"])
def test_critical_lock_cells_are_freed_with_their_launch(mode):
    """Each launch frees the lock cell its ``critical`` took: one launch
    and five leave the same allocations, and verify's rollback keeps the
    allocator's sorted starts equal to its map."""
    left = {}
    for rounds in (1, 5):
        prog = OmpiCompiler(OmpiConfig(kernel_fastpath=mode)).compile(
            CRITICAL.replace("ROUNDS", str(rounds)), f"crit{rounds}")
        run = prog.run()
        assert run.machine.global_array("total")[0] == 96 * rounds
        gmem = run.ort.cudadev.driver.gmem
        assert gmem._starts == sorted(gmem._allocated)
        left[rounds] = gmem.allocations()
    assert left[5] == left[1]


def test_ompi_refusal_fails_the_run(monkeypatch):
    """A compile refusal is not a device fault: the run fails instead of
    retrying the launch or running the region's host version."""
    _refuse_segments(monkeypatch)
    prog = OmpiCompiler(OmpiConfig(kernel_fastpath="on")).compile(
        OMPI_FOR.replace("SCHEDULE", ""), "refused")
    with pytest.raises(UnsupportedKernel, match="segment from"):
        prog.run()


def test_ompi_verify_mode_runs_clean():
    src = OMPI_FOR.replace("SCHEDULE", "")
    prog = OmpiCompiler(OmpiConfig(kernel_fastpath="verify")).compile(
        src, "vfy")
    run = prog.run()
    c = np.asarray(run.machine.global_array("C"))
    assert np.allclose(c, np.arange(4096) % 9 + np.arange(4096) % 5)
