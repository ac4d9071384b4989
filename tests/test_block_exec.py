"""Differential tests for block-wide kernel execution.

A block-wide kernel (no atomic, printf or communicating runtime call,
and only phase-safe ``__syncthreads`` barriers) runs the blocks of a
launch as one executor over ``nblocks x nwarps x 32`` lanes.  Every
launch here runs in ``verify`` mode, which replays it through the
per-warp tree-walk and requires bit-identical global memory, stdout and
``KernelStats``; a spy on the executors then tells which lane width (of
one block segment) actually ran.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import harness
from repro.bench.suite import ALL_APPS, EXTENDED_APP_NAMES, get_app
from repro.cfront.parser import parse_translation_unit
from repro.cuda import driver as driver_mod
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.driver import CudaDriver
from repro.cuda.ptx.ir import Atom, BarOp, LoopOp, walk_ops
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.sim import compile as sim_compile
from repro.cuda.sim import engine as sim_engine
from repro.cuda.sim.compile import CompiledKernelCache
from repro.cuda.sim.engine import (
    FunctionalEngine, KernelVerifyError, LaunchError,
)
from repro.cuda.sim.locality import kernel_locality
from repro.devrt import INTRINSIC_SIGS, build_intrinsics
from repro.mem import LinearMemory, MemoryError_
from repro.ompi import OmpiCompiler, OmpiConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import bench_reductions  # noqa: E402
import bench_serving  # noqa: E402

GMEM_BASE = 0x2_0000_0000


def kernel_k(src):
    unit = parse_translation_unit(src, "t.cu")
    return lower_translation_unit(unit, INTRINSIC_SIGS, "t").kernels["k"]


def spy_widths(mp):
    """Record, per kernel name, the lanes of one block segment of every
    compiled executor that runs, in first-run order."""
    widths = {}
    real = sim_compile.CompiledBlockExec.run_kernel

    def run_kernel(self):
        seen = widths.setdefault(self.kernel.name, [])
        if self.seg_width not in seen:
            seen.append(self.seg_width)
        return real(self)

    mp.setattr(sim_compile.CompiledBlockExec, "run_kernel", run_kernel)
    return widths


def run_verified(src, grid, block, arrays, scalars=(), mode="verify",
                 **launch_kw):
    """Launch kernel ``k`` of ``src``; return (stats, widths run,
    engine, final array contents)."""
    kernel = kernel_k(src)
    gmem = LinearMemory(16 << 20, base=GMEM_BASE, name="gmem")
    addrs = []
    for arr in arrays:
        addr = gmem.alloc(max(arr.nbytes, 1))
        gmem.view(addr, arr.size, arr.dtype)[:] = arr.reshape(-1)
        addrs.append(addr)
    cache = CompiledKernelCache()
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {},
                              fastpath=mode, compile_cache=cache)
    params = [np.uint64(a) for a in addrs] + list(scalars)
    with pytest.MonkeyPatch.context() as mp:
        widths = spy_widths(mp)
        stats = engine.launch(kernel, Dim3.of(grid), Dim3.of(block), params,
                              **launch_kw)
    assert cache.compiled == (mode != "off")
    out = [gmem.view(a, arr.size, arr.dtype).copy()
           for a, arr in zip(addrs, arrays)]
    return stats, widths.get("k", []), engine, out


SAXPY = r"""
__global__ void k(float *y, float *x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) y[i] = a * x[i] + y[i];
}
"""


def test_block_size_not_a_multiple_of_32():
    x = np.arange(500, dtype=np.float32)
    y = np.ones(500, dtype=np.float32)
    stats, widths, _, (got, _x) = run_verified(
        SAXPY, (4, 1, 1), (150, 1, 1), [y, x],
        [np.float32(2.0), np.int32(470)], mode="on")
    assert widths == [5 * 32]
    assert stats.warps_launched == 20
    # counters stay Python ints (they are serialized into records)
    assert all(type(getattr(stats, f.name)) is int
               for f in dataclasses.fields(stats)
               if f.type in ("int", int))
    want = np.ones(500, dtype=np.float32)
    want[:470] += 2.0 * x[:470]
    assert np.array_equal(got, want)


def test_warps_with_no_lane_on_a_branch():
    # warps 0-1 take only the then-arm, warps 2-3 only the else-arm and
    # warp 1 both: per-warp divergence and instruction counts must hold
    src = r"""
    __global__ void k(int *a) {
        int t = threadIdx.x;
        if (t < 48) { a[t] = t * 3; }
        else { a[t] = a[t] - t; if (t > 120) a[t] = 7; }
    }
    """
    a = np.arange(128, dtype=np.int32)
    stats, widths, _, _ = run_verified(src, (1, 1, 1), (128, 1, 1), [a])
    assert widths == [128]
    assert stats.divergent_branches == 2


def test_early_return_break_and_continue():
    src = r"""
    __global__ void k(float *a, int *b, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i >= n) return;
        int j;
        float acc = 0.0f;
        for (j = 0; j < 40; j++) {
            if (j == i % 13) continue;
            if (j > i % 29 + 3) break;
            acc += a[i] * (float)j;
        }
        if (i % 5 == 0) return;
        a[i] = acc;
        b[i] = j;
    }
    """
    a = np.linspace(-2, 5, 256, dtype=np.float32)
    b = np.zeros(256, dtype=np.int32)
    stats, widths, _, _ = run_verified(src, (2, 1, 1), (128, 1, 1), [a, b],
                                       [np.int32(200)])
    assert widths == [128]
    assert stats.loop_iterations > 0


def test_2d_block_wraps_tid_x_inside_a_warp():
    src = r"""
    __global__ void k(float *c, int w) {
        int x = blockIdx.x * blockDim.x + threadIdx.x;
        int y = blockIdx.y * blockDim.y + threadIdx.y;
        if (x < w && y < w) c[y * w + x] = (float)(x * 100 + y);
    }
    """
    w = 30
    c = np.zeros(w * w, dtype=np.float32)
    _, widths, _, (got,) = run_verified(src, (3, 3, 1), (12, 10, 1), [c],
                                        [np.int32(w)])
    assert widths == [4 * 32]
    yy, xx = np.divmod(np.arange(w * w), w)
    assert np.array_equal(got, (xx * 100 + yy).astype(np.float32))


def test_sampled_512_thread_launch_runs_only_the_picks():
    x = np.arange(4096, dtype=np.float32)
    y = np.zeros(4096, dtype=np.float32)
    picks = {0, 1, 8, 15}
    stats, widths, _, _ = run_verified(
        SAXPY, (8, 1, 1), (512, 1, 1), [y, x],
        [np.float32(3.0), np.int32(4000)],
        only_blocks=[(0, 0, 0), (4, 0, 0), (7, 0, 0)], only_warps=picks)
    assert widths == [len(picks) * 32]
    assert stats.blocks_launched == 3
    assert stats.warps_launched == 3 * len(picks)


def test_pointer_global_in_one_warp_and_local_in_another(monkeypatch):
    # warp 1 addresses global memory through p, every other warp its own
    # local array: the block-wide access splits per warp
    split = []
    real = sim_compile._fload

    def per_warp_load(engine, warp, *args):
        split.append(warp.warp_index)
        return real(engine, warp, *args)

    monkeypatch.setattr(sim_compile, "_fload", per_warp_load)
    src = r"""
    __global__ void k(float *a) {
        float tmp[2];
        float *p;
        int t = threadIdx.x;
        tmp[0] = 1.0f;
        tmp[1] = 2.0f;
        if (t / 32 == 1) p = a; else p = tmp;
        p[t % 2] = p[t % 2] + (float)t;
        a[64 + t] = p[t % 2];
    }
    """
    a = np.zeros(64 + 96, dtype=np.float32)
    stats, widths, _, _ = run_verified(src, (1, 1, 1), (96, 1, 1), [a])
    assert widths == [96]
    assert stats.local_accesses > 0 and stats.global_mem_instructions > 0
    assert sorted(set(split)) == [0, 1, 2]


def test_verify_catches_a_miscounting_block_executor(monkeypatch):
    # the oracle really compares the block executor: break its per-warp
    # count and verify mode must refuse the launch
    monkeypatch.setattr(sim_compile, "_nw", lambda mask: 1)
    x = np.arange(256, dtype=np.float32)
    y = np.zeros(256, dtype=np.float32)
    with pytest.raises(LaunchError, match="stats"):
        run_verified(SAXPY, (1, 1, 1), (256, 1, 1), [y, x],
                     [np.float32(1.0), np.int32(256)])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nwarps=st.integers(1, 64))
def test_warp_count_matches_a_per_warp_any(data, nwarps):
    # narrow masks are compared warp by warp, wide ones reduced at once
    rows = data.draw(st.lists(
        st.one_of(st.just([False] * 32), st.just([True] * 32),
                  st.lists(st.booleans(), min_size=32, max_size=32)),
        min_size=nwarps, max_size=nwarps))
    mask = np.asarray(rows, dtype=bool).reshape(-1)
    assert sim_compile._nw(mask) == sum(any(row) for row in rows)


@pytest.mark.parametrize("fault", ["corrupt", "drop"])
def test_verify_catches_a_block_executor_memory_divergence(monkeypatch,
                                                           fault):
    # a wrong value where both runs write (y[0] = 1.0f, not 0), and a
    # position only the reference writes (y[1]): both must show up as a
    # global-memory divergence at the first differing byte
    real = sim_compile._fstore

    def broken(engine, blk, addrs, dtype, values, mask, n=1):
        if fault == "drop":
            return
        real(engine, blk, addrs, dtype, np.asarray(values) + 1, mask, n)

    monkeypatch.setitem(sim_compile._GLOBALS, "_fstore", broken)
    x = np.arange(256, dtype=np.float32)
    y = np.zeros(256, dtype=np.float32)
    byte = {"corrupt": 2, "drop": 6}[fault]
    with pytest.raises(LaunchError,
                       match=f"gmem: block {GMEM_BASE:#x} differs at byte "
                             f"{byte} "):
        run_verified(SAXPY, (1, 1, 1), (256, 1, 1), [y, x],
                     [np.float32(1.0), np.int32(256)])


MAPPED_SCALAR = r"""
int main(void)
{
    int s = 5;
    #pragma omp target map(tofrom: s)
    {
        #pragma omp parallel num_threads(64)
        {
            #pragma omp single
            s += 1;
        }
        s += 10;
    }
    printf("%d\n", s);
    return 0;
}
"""


def test_verify_rolls_back_a_mapped_scalar_written_by_a_region():
    # the inner region's update of s reaches global memory through the
    # shared-memory stack pop (a block copy, not a store), and verify mode
    # must still run the reference launch from the pre-launch value
    outs = {}
    for mode in ("on", "verify"):
        prog = OmpiCompiler(OmpiConfig(kernel_fastpath=mode)).compile(
            MAPPED_SCALAR, "mapped_scalar")
        run = prog.run()
        assert run.exit_code == 0
        # one launch, on the device: no retry and no host fallback
        assert run.log.count("kernel") == 1
        outs[mode] = run.stdout
    assert outs["on"] == "16\n"
    assert outs["verify"] == outs["on"]


# -- block-wide runtime calls -------------------------------------------------

def spy_block_calls(monkeypatch):
    """Record the name of every runtime call of block-wide code and every
    per-warp view a block creates."""
    calls, views = [], []
    real_call = sim_compile._bcall
    real_view = sim_compile.CompiledBlockExec.warp_view

    def bcall(blk, op, regspec, m):
        calls.append(op.name)
        return (yield from real_call(blk, op, regspec, m))

    def warp_view(self, k):
        views.append(k)
        return real_view(self, k)

    monkeypatch.setitem(sim_compile._GLOBALS, "_bcall", bcall)
    monkeypatch.setattr(sim_compile.CompiledBlockExec, "warp_view", warp_view)
    return calls, views


COLLAPSE2 = r"""
int a[20][30];
int main(void)
{
    int i, j;
    #pragma omp target teams distribute parallel for collapse(2) map(tofrom: a)
    for (i = 0; i < 20; i++)
        for (j = 0; j < 30; j++)
            a[i][j] = a[i][j] + i * 100 + j;
    return 0;
}
"""

SPARSE_TEAMS = r"""
int out[48];
int main(void)
{
    int i;
    #pragma omp target teams distribute parallel for num_teams(16) \
        num_threads(128) map(tofrom: out)
    for (i = 0; i < 48; i++)
        out[i] = out[i] + i * 3;
    return 0;
}
"""

QUERIES = r"""
int tid[256];
int nth[256];
int team[256];
int main(void)
{
    int i;
    #pragma omp target teams distribute parallel for num_teams(4) \
        num_threads(64) map(tofrom: tid, nth, team)
    for (i = 0; i < 256; i++) {
        tid[i] = omp_get_thread_num();
        nth[i] = omp_get_num_threads();
        team[i] = omp_get_team_num();
    }
    return 0;
}
"""

_i = np.arange(600)
_q = np.arange(256)


@pytest.mark.parametrize("src,shape,width,names,want", [
    # 12x10 blocks: tid.x wraps inside every warp
    (COLLAPSE2, (12, 10, 1), 128,
     {"cudadev_get_distribute_chunk_dim", "cudadev_get_static_chunk_dim"},
     {"a": (_i // 30) * 100 + _i % 30}),
    # 3 iterations per team: warps 1-3 of every block get no chunk
    (SPARSE_TEAMS, None, 128,
     {"cudadev_get_distribute_chunk", "cudadev_get_static_chunk"},
     {"out": np.arange(48) * 3}),
    (QUERIES, None, 64,
     {"omp_get_thread_num", "omp_get_num_threads", "omp_get_team_num"},
     {"tid": _q % 64, "nth": np.full(256, 64), "team": _q // 64}),
], ids=["collapse2-static-dim", "sparse-teams", "omp-queries"])
def test_runtime_calls_run_once_per_block(monkeypatch, src, shape, width,
                                          names, want):
    calls, views = spy_block_calls(monkeypatch)
    widths = spy_widths(monkeypatch)
    prog = OmpiCompiler(OmpiConfig(kernel_fastpath="verify",
                                   block_shape=shape)).compile(src, "calls")
    run = prog.run()
    assert run.exit_code == 0
    assert run.log.count("kernel") == 1
    assert list(widths.values()) == [[width]]
    assert names | {"cudadev_target_init"} <= set(calls)
    assert views == []          # no call fell back to the per-warp loop
    for name, values in want.items():
        got = run.machine.global_array(name).reshape(-1)
        assert np.array_equal(got, values), name


def test_warp_dependent_argument_falls_back_per_warp(monkeypatch):
    # lo depends on the warp: the chunk call cannot run once for the
    # block, so each warp makes it alone (and verify mode checks it
    # against the tree-walk)
    # (each block updates its own cells: blocks that shared them would
    # race, and run on one lane axis they would see another order)
    calls, views = spy_block_calls(monkeypatch)
    src = r"""
    __global__ void k(int *out, int n) {
        long tlo, thi, it;
        int t = threadIdx.x;
        int g = blockIdx.x * blockDim.x + t;
        cudadev_target_init(0);
        while (cudadev_get_static_chunk(0, (long) (t / 32) * 7, (long) n,
                                        3L, &tlo, &thi)) {
            for (it = tlo; it < thi; it++)
                out[g] = out[g] * 31 + (int) it;
        }
    }
    """
    out = np.zeros(2 * 96, dtype=np.int32)
    stats, widths, _, (got,) = run_verified(src, (2, 1, 1), (96, 1, 1),
                                            [out], [np.int32(500)])
    assert widths == [96]
    assert "cudadev_get_static_chunk" in calls
    assert sorted(set(views)) == [0, 1, 2]
    assert got.any()


def test_communicating_runtime_call_runs_per_warp(monkeypatch):
    # only the block-local whitelist is made once per block: any other
    # call is made by each warp alone, and such a kernel runs one warp
    # per executor
    calls, _views = spy_block_calls(monkeypatch)
    src = r"""
    __global__ void k(int *out) {
        long tlo, thi;
        cudadev_target_init(0);
        while (cudadev_get_dynamic_chunk(0, 0L, 200L, 3L, &tlo, &thi))
            out[tlo] = out[tlo] + (int) thi;
    }
    """
    assert not kernel_locality(kernel_k(src)).block_wide
    out = np.zeros(200, dtype=np.int32)
    _stats, widths, _, (got,) = run_verified(src, (1, 1, 1), (96, 1, 1),
                                             [out])
    assert widths == [32]
    assert "cudadev_get_dynamic_chunk" not in calls
    assert np.array_equal(got[::3], np.minimum(np.arange(3, 203, 3), 200))


# -- barrier phases ------------------------------------------------------------

BARRIER = r"""
__global__ void k(float *a) {
    __shared__ float s[128];
    int t = threadIdx.x;
    s[t] = a[t];
    __syncthreads();
    a[t] = s[127 - t];
}
"""


def test_phase_safe_barrier_runs_block_wide():
    # a __syncthreads under no condition: the warps are in step on one
    # lane axis, so the barrier is counted per warp, not scheduled
    a = np.arange(128, dtype=np.float32)
    stats, widths, _, (got,) = run_verified(BARRIER, (1, 1, 1), (128, 1, 1),
                                            [a])
    assert widths == [128]
    loc = kernel_locality(kernel_k(BARRIER))
    assert loc.communicates and loc.block_wide
    assert stats.barriers == 4
    assert np.array_equal(got, a[::-1])


def test_atomic_in_for_step_communicates():
    # a for step clause is a sub-block of its loop: the scan sees the
    # atomic there, so sampling keeps every warp of this kernel
    kernel = kernel_k(r"""
    __global__ void k(int *c) {
        int i;
        for (i = 0; i < 4; atomicAdd(&c[0], 1)) i++;
    }
    """)
    loop = next(op for op in walk_ops(kernel.body) if isinstance(op, LoopOp))
    assert any(isinstance(op, Atom) for op in loop.step_ops)
    assert kernel_locality(kernel).communicates
    assert not kernel_locality(kernel).block_wide


def test_block_wide_barrier_checks_the_barrier_id():
    # the block executor refuses a bad id with the scheduler's message
    src = r"""
    __global__ void k(int *a) {
        a[threadIdx.x] = 1;
        __bar_sync(99);
    }
    """
    kernel = kernel_k(src)
    assert kernel_locality(kernel).block_wide
    for mode in ("on", "off"):
        with pytest.raises(LaunchError, match="barrier id 99 out of range"):
            run_verified(src, (1, 1, 1), (64, 1, 1),
                         [np.zeros(64, dtype=np.int32)], mode=mode)


KERNEL_T = r"""
__global__ void k(int *a) {
    int t = threadIdx.x;
    int i;
    BODY
    a[t] = t;
}
"""


@pytest.mark.parametrize("body", [
    # under a thread-dependent if
    "if (t < 64) __syncthreads();",
    # in a loop whose trip count depends on the thread
    "for (i = 0; i < t % 3; i++) __syncthreads();",
    # in a uniform loop a thread-dependent break can leave early
    "for (i = 0; i < 4; i++) { if (t == 70 + i) break; __syncthreads(); }",
    # a loaded id, and a partial thread count
    "__bar_sync(a[0]);",
    "__bar_sync(1, 64);",
], ids=["tid-if", "tid-loop", "tid-break", "loaded-id", "partial"])
def test_barriers_that_are_not_phase_safe(body):
    src = KERNEL_T.replace("BODY", body)
    loc = kernel_locality(kernel_k(src))
    assert loc.communicates and not loc.block_wide
    # the engine's width decision keeps them per warp, where the block
    # scheduler runs their barriers
    _stats, widths, _, _ = run_verified(src, (1, 1, 1), (128, 1, 1),
                                        [np.zeros(128, dtype=np.int32)])
    assert widths == [32]


@pytest.mark.parametrize("body", [
    "if (n > 3) __syncthreads();",
    "for (i = 0; i < n; i++) { __syncthreads(); }",
    "for (i = blockIdx.x; i < blockDim.x / 32; i++) __syncthreads();",
    "if (t >= n) return; __syncthreads();",
    "for (i = 0; i < n; i++) { if (i == 2) break; __syncthreads(); }",
    "for (i = 0; i < n; i++) { if (t < 5) a[g] = i; __syncthreads(); }",
], ids=["param-if", "param-loop", "block-loop", "tid-return",
        "uniform-break", "tid-if-beside"])
def test_barriers_under_uniform_control_are_phase_safe(body):
    src = r"""
    __global__ void k(int *a, int n) {
        int t = threadIdx.x;
        int g = blockIdx.x * blockDim.x + t;
        int i;
        BODY
        a[g] = a[g] + t;
    }
    """.replace("BODY", body)
    assert kernel_locality(kernel_k(src)).block_wide
    stats, widths, _, _ = run_verified(src, (2, 1, 1), (128, 1, 1),
                                       [np.zeros(256, dtype=np.int32)],
                                       [np.int32(6)])
    assert widths == [128]
    assert stats.barriers > 0


# generated barrier-phase kernels: each phase writes shared memory at a
# permutation of the threads, waits, reads across warps and waits again
# before the next phase writes, so no two warps race.  Each block reads
# and writes its own cells of global memory only, so the blocks of a
# launch may share one lane axis: the merged run must equal the blocks
# run one at a time.

_SHUFFLES = ("__shfl_sync", "__shfl_down_sync", "__shfl_up_sync",
             "__shfl_xor_sync")
#: block-uniform loop bounds (n is a parameter)
_BOUNDS = ("3", "n % 4", "blockDim.x / 64 + 1", "blockIdx.x + 1",
           "(blockIdx.x * 3 + n) % 5")


@st.composite
def _exchange(draw, bar="__syncthreads();"):
    d = draw(st.integers(0, 300))
    m, e = draw(st.integers(1, 7)), draw(st.integers(0, 300))
    return (f"s[(t + {d}) % blockDim.x] = v + i;\n"
            f"{bar}\n"
            f"v = v * 3 + s[(t * {m} + {e}) % blockDim.x];\n"
            "__syncthreads();\n")


@st.composite
def _shuffle(draw):
    name = draw(st.sampled_from(_SHUFFLES))
    arg = draw(st.integers(-3, 40))
    return f"v = v + {name}(-1, v, {arg});\n"


@st.composite
def _phase(draw):
    kind = draw(st.sampled_from(["exchange", "loop", "shuffle",
                                 "shuffle-loop", "tid-branch", "param-if",
                                 "block-if", "block-branch", "local"]))
    if kind == "exchange":
        return draw(_exchange())
    if kind == "loop":
        bound = draw(st.sampled_from(_BOUNDS))
        return (f"for (i = 0; i < {bound}; i++) {{\n"
                f"{draw(_exchange())}}}\ni = 0;\n")
    if kind == "shuffle":
        return draw(_shuffle())
    if kind == "shuffle-loop":
        name = draw(st.sampled_from(_SHUFFLES))
        return (f"for (i = 1; i < 32; i = i * 2) "
                f"v = v + {name}(-1, v, i);\ni = 0;\n")
    if kind == "tid-branch":
        cut = draw(st.integers(0, 40))
        return f"if (lane < {cut}) v = v * 5 + w; else v = v - 1;\n"
    if kind == "block-if":
        # barriers under a block-dependent (block-uniform) if
        m = draw(st.integers(2, 4))
        return (f"if (blockIdx.x % {m} == {draw(st.integers(0, m - 1))}) "
                f"{{\n{draw(_exchange())}}}\n")
    if kind == "block-branch":
        k = draw(st.integers(0, 8))
        return (f"if (blockIdx.x < {k}) v = v * 7 + w; "
                "else v = v + (int) blockIdx.x;\n")
    if kind == "local":
        # through a pointer into each thread's local array
        return "loc[t % 2] = v;\nv = v * 2 + lp[(t + 1) % 2];\n"
    k = draw(st.integers(0, 8))
    return f"if (n > {k}) {{\n{draw(_exchange())}}}\n"


@st.composite
def _phase_kernel(draw):
    """(source, threads per block, whether a barrier sits under a
    thread-dependent if)."""
    phases = draw(st.lists(_phase(), min_size=1, max_size=4))
    divergent = draw(st.booleans())
    if divergent:
        cut = draw(st.integers(1, 250))
        bar = f"if (t < {cut}) {{ __syncthreads(); }}"
        phases.insert(draw(st.integers(0, len(phases))),
                      draw(_exchange(bar)))
    early = draw(st.sampled_from(["", "if (t >= n + 20) return;\n",
                                  # partial last blocks
                                  "if (g >= gridDim.x * blockDim.x - n * 7)"
                                  " return;\n"]))
    src = ("__global__ void k(int *a, int *out, long *ptrs, int n) {\n"
           "    __shared__ int s[256];\n"
           "    int loc[2];\n"
           "    int *lp = loc;\n"
           "    int t = threadIdx.x;\n"
           "    int g = blockIdx.x * blockDim.x + t;\n"
           "    int lane = t % 32;\n"
           "    int w = t / 32;\n"
           "    int i = 0;\n"
           "    int v = a[g];\n"
           "    loc[0] = v;\n"
           "    loc[1] = t;\n"
           # a local address reaches global memory as a block run alone
           # would see it
           "    ptrs[g] = (long) lp;\n"
           + early + "".join(phases) +
           "    out[g] = v + lp[1];\n"
           "}\n")
    return src, draw(st.integers(1, 256)), divergent


def spy_executors(mp):
    """Record, per compiled launch of a block-wide kernel, ``(kernel,
    blocks launched, blocks of each executor that ran)``."""
    launches = []
    real_launch = FunctionalEngine._launch
    real_run = FunctionalEngine._run_wide

    def launch(self, kernel, grid, block, params, only_blocks=None,
               only_warps=None, compiled=None):
        wide = compiled is not None and kernel_locality(kernel).block_wide
        if wide:
            launches.append([kernel.name, None, []])
        stats = real_launch(self, kernel, grid, block, params, only_blocks,
                            only_warps, compiled)
        if wide:
            launches[-1][1] = stats.blocks_launched
        return stats

    def run_wide(self, blk):
        launches[-1][2].append(len(blk.blocks))
        return real_run(self, blk)

    mp.setattr(FunctionalEngine, "_launch", launch)
    mp.setattr(FunctionalEngine, "_run_wide", run_wide)
    return launches


@settings(max_examples=60, deadline=None)
@given(case=_phase_kernel(), nblocks=st.integers(1, 8), n=st.integers(0, 12))
def test_generated_barrier_phase_kernels(case, nblocks, n):
    """Generated shared-memory exchanges, uniform loops around barriers,
    shuffles with random deltas, block-dependent bounds and branches,
    local pointers, partial last warps and blocks, 1-8 warps and 1-8
    blocks: every launch is checked against the per-warp tree-walk
    (``verify``), runs block-wide exactly when no barrier is under a
    thread-dependent if, and then on one executor for all its blocks,
    whose memory, stdout and stats equal those of one block at a time."""
    src, nthreads, divergent = case
    total = nblocks * nthreads
    a = (np.arange(total, dtype=np.int32) * 7919) % 1000
    arrays = [a, np.zeros(total, dtype=np.int32),
              np.zeros(total, dtype=np.int64)]
    runs = {}
    for merged in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not merged:
                mp.setattr(sim_engine, "MAX_LANES", 1)
            launches = spy_executors(mp)
            runs[merged] = run_verified(
                src, (nblocks, 1, 1), (nthreads, 1, 1), arrays,
                [np.int32(n)], mode="verify" if merged else "on")
        nwarps = -(-nthreads // 32)
        wide = not divergent
        assert runs[merged][1] == [nwarps * 32 if wide else 32]
        want = ([nblocks] if merged else [1] * nblocks) if wide else None
        assert launches == ([["k", nblocks, want]] if wide else [])
    stats, _w, engine, out = runs[True]
    one_stats, _w, one_engine, one_out = runs[False]
    assert kernel_locality(kernel_k(src)).block_wide is not divergent
    assert stats.warps_launched == nblocks * -(-nthreads // 32)
    assert dataclasses.asdict(stats) == dataclasses.asdict(one_stats)
    assert engine.stdout == one_engine.stdout
    for got, ref in zip(out, one_out):
        assert np.array_equal(got, ref)


def test_launch_larger_than_one_executor_runs_in_groups_of_blocks():
    # five 64-thread blocks with room for two on a lane axis: executors
    # of 2, 2 and 1 blocks, each with its shared exchange, local pointers
    # and block-dependent branch, give what one block at a time gives
    src = r"""
    __global__ void k(int *a, int *out, long *ptrs) {
        __shared__ int s[64];
        int loc[2];
        int *lp = loc;
        int t = threadIdx.x;
        int g = blockIdx.x * blockDim.x + t;
        loc[0] = a[g];
        loc[1] = blockIdx.x;
        ptrs[g] = (long) lp;
        s[t] = a[g] * 3 + blockIdx.x;
        __syncthreads();
        int v = s[63 - t];
        if (blockIdx.x % 2) v = v + lp[0];
        out[g] = v + lp[1];
    }
    """
    nblocks, nthreads = 5, 64
    total = nblocks * nthreads
    arrays = [(np.arange(total, dtype=np.int32) * 7919) % 1000,
              np.zeros(total, dtype=np.int32), np.zeros(total, dtype=np.int64)]
    runs = {}
    for cap, groups in ((2 * nthreads, [2, 2, 1]), (1, [1] * nblocks)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "MAX_LANES", cap)
            launches = spy_executors(mp)
            runs[cap] = run_verified(src, (nblocks, 1, 1), (nthreads, 1, 1),
                                     arrays, mode="verify")
        assert launches == [["k", nblocks, groups]]
    stats, _w, engine, out = runs[2 * nthreads]
    one_stats, _w, one_engine, one_out = runs[1]
    assert dataclasses.asdict(stats) == dataclasses.asdict(one_stats)
    assert engine.stdout == one_engine.stdout
    for got, ref in zip(out, one_out):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("mode", ["on", "off"])
def test_shared_access_past_a_block_window_fails(mode):
    # lanes 62-63 of block 0 index past its 48 KiB shared window: on one
    # lane axis that would be block 1's memory, so the access must fail
    # as it does one block at a time
    src = r"""
    __global__ void k(int *a) {
        __shared__ int s[64];
        int t = threadIdx.x;
        if (blockIdx.x == 0) a[t] = s[t * 200];
    }
    """
    with pytest.raises(MemoryError_, match="out of range"):
        run_verified(src, (2, 1, 1), (64, 1, 1),
                     [np.zeros(128, dtype=np.int32)], mode=mode)


def test_cross_block_race_is_caught_by_verify():
    # block 1 reads what block 0 writes in a later statement: block after
    # block it sees the write, on one lane axis it reads first (another
    # legal CUDA order), and verify reports the difference
    src = r"""
    __global__ void k(int *a) {
        int t = threadIdx.x;
        if (blockIdx.x == 1) a[t] = a[64 + t];
        if (blockIdx.x == 0) a[64 + t] = t + 7;
    }
    """
    a = np.zeros(128, dtype=np.int32)
    with pytest.raises(KernelVerifyError,
                       match=rf"gmem: block {GMEM_BASE:#x} differs at byte 0 "
                             r"\(fastpath 0 != interp 7\)"):
        run_verified(src, (2, 1, 1), (64, 1, 1), [a])
    _stats, widths, _e, (got,) = run_verified(src, (2, 1, 1), (64, 1, 1),
                                              [a], mode="on")
    assert widths == [64]
    assert not got[:64].any()
    _stats, _w, _e, (ref,) = run_verified(src, (2, 1, 1), (64, 1, 1), [a],
                                          mode="off")
    assert np.array_equal(ref[:64], np.arange(64) + 7)


# the deterministic reductions: a shuffle tree and one __syncthreads

#: sizes of the reduction programs below
_RED_SIZES = {"correlation": 16, "covariance": 16, "doitgen": 12}


def _reduction_sources():
    for workload in bench_reductions.WORKLOADS:
        sources = bench_reductions._sources(workload,
                                            _RED_SIZES[workload])[0]
        for variant, src in sources.items():
            yield f"{workload}_{variant}", src


def spy_device_launches(mp):
    """Record ``(driver, kernel, block range, grid blocks)`` of every
    launch on a device."""
    launches = []
    real = CudaDriver.cuLaunchKernel

    def launch(self, fn, gx, gy, gz, *args, block_range=None, **kw):
        launches.append((self, fn.name, block_range, gx * gy * gz))
        return real(self, fn, gx, gy, gz, *args, block_range=block_range,
                    **kw)

    mp.setattr(CudaDriver, "cuLaunchKernel", launch)
    return launches


def _run_reduction(workload, variant, devices=None):
    n = _RED_SIZES[workload]
    sources, seed, arr = bench_reductions._sources(workload, n)
    prog = OmpiCompiler(OmpiConfig(kernel_fastpath="verify",
                                   devices=devices)).compile(
        sources[variant], f"{workload}_{variant}")
    run = prog.run(launch_mode="full", seed_arrays=seed,
                   heap_capacity=bench_reductions.HEAP)
    assert run.exit_code == 0
    # a verify divergence would be retried and then run on the host
    assert run.ort.fault_stats == {}
    return run, [run.machine.global_array(name).copy()
                 for name in (arr, "checksum")]


#: the sharded source on two Nanos splits every sharded launch between
#: them; on a Nano and a V100 the V100 takes every block (retargeting)
_REDUCTION_RUNS = {"single": ("single", None),
                   "sharded": ("sharded", "nano,v100"),
                   "split": ("sharded", "nano,nano")}


@pytest.mark.parametrize("variant", list(_REDUCTION_RUNS))
@pytest.mark.parametrize("workload", bench_reductions.WORKLOADS)
def test_tree_reduction_kernels_run_block_wide(workload, variant,
                                               monkeypatch):
    source, devices = _REDUCTION_RUNS[variant]
    launches = spy_executors(monkeypatch)
    widths = spy_widths(monkeypatch)
    on_device = spy_device_launches(monkeypatch)
    run, outputs = _run_reduction(workload, source, devices)
    # every block-wide launch ran one executor over all its blocks
    assert launches
    assert any(blocks > 1 for _name, blocks, _execs in launches)
    for name, blocks, execs in launches:
        assert execs == [blocks], name
    trees = []
    for dev in run.ort.devices:
        cache = dev.driver.kernel_cache
        for kernel, _ck in list(cache._cache.values()):
            if kernel_locality(kernel).communicates:
                trees.append(kernel.name)
                # every team is 128 threads: one 4-warp segment per block
                assert widths[kernel.name] == [4 * 32], kernel.name
    assert trees
    if variant == "split":
        # some kernel ran on both devices, on blocks that tile its grid
        ranges = {}
        for driver, name, block_range, nblocks in on_device:
            if block_range is not None:
                ranges.setdefault((name, nblocks), {})[driver] = block_range
        split = [(nblocks, sorted(by_dev.values()))
                 for (_name, nblocks), by_dev in ranges.items()
                 if len(by_dev) == 2]
        assert split
        for nblocks, ((lo0, hi0), (lo1, hi1)) in split:
            assert lo0 == 0 and hi0 == lo1 and hi1 == nblocks
            assert lo0 < hi0 < hi1
        _single, want = _run_reduction(workload, "single")
        for got, ref in zip(outputs, want):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", ["3dconv", "gemm"])
def test_sampled_launches_merge_their_picks(name, monkeypatch):
    # a sampled launch runs its picked blocks on one executor too
    app = get_app(name)
    n = SMALL.get(name, 32)
    launches = spy_executors(monkeypatch)
    prog = OmpiCompiler(OmpiConfig(block_shape=app.block_shape,
                                   kernel_fastpath="verify")).compile(
        app.omp_source(n), harness._prog_name(app, n))
    run = prog.run(launch_mode="sample", seed_arrays=app.seed(n),
                   heap_capacity=harness._heap_capacity(app, n))
    assert run.exit_code == 0
    assert run.ort.fault_stats == {}
    assert launches
    assert all(blocks == 3 for _name, blocks, _execs in launches)
    for kname, blocks, execs in launches:
        assert execs == [blocks], kname


#: every pinned kernel that communicates; sampling reads the flag, so
#: block-wide barriers must not change it
_COMMUNICATING = {
    "gramschmidt_kernel0",      # master/worker: stays per warp
    "correlation_single_kernel3", "correlation_sharded_kernel3",
    "covariance_single_kernel2", "covariance_sharded_kernel2",
    "doitgen_single_kernel1", "doitgen_sharded_kernel1",
}


def spy_launch_stats(mp):
    """Record ``(kernel, KernelStats fields)`` of every launch."""
    launches = []
    real = FunctionalEngine.launch

    def launch(self, kernel, *args, **kw):
        stats = real(self, kernel, *args, **kw)
        launches.append((kernel.name, dataclasses.asdict(stats)))
        return stats

    mp.setattr(FunctionalEngine, "launch", launch)
    return launches


def _pinned_programs():
    """(name, source, config, run keywords) of every suite app and
    reduction program, at test sizes, under ``verify``."""
    for name in ALL_APPS + EXTENDED_APP_NAMES:
        app = get_app(name)
        n = SMALL.get(name, 32)
        yield (name, app.omp_source(n),
               OmpiConfig(block_shape=app.block_shape,
                          kernel_fastpath="verify"),
               dict(seed_arrays=app.seed(n),
                    heap_capacity=harness._heap_capacity(app, n)))
    for workload in bench_reductions.WORKLOADS:
        sources, seed, _arr = bench_reductions._sources(
            workload, _RED_SIZES[workload])
        for variant, src in sources.items():
            yield (f"{workload}_{variant}", src,
                   OmpiConfig(kernel_fastpath="verify"),
                   dict(seed_arrays=seed, heap_capacity=bench_reductions.HEAP))


def test_communicates_is_pinned_for_suite_and_reduction_kernels():
    # ... and each kernel compiles once, to code that runs at warp width
    # (one warp per executor, under the block scheduler) and at block
    # width with identical KernelStats, both checked by verify.  A kernel
    # with a barrier runs only at block width: its barriers are counted,
    # not scheduled.
    def barred(kernel):
        return any(isinstance(op, BarOp) for op in walk_ops(kernel.body))

    def per_warp(kernel):
        loc = kernel_locality(kernel)
        return loc if barred(kernel) else dataclasses.replace(
            loc, phase_safe=False)

    seen = set()
    for name, src, cfg, run_kw in _pinned_programs():
        prog = OmpiCompiler(cfg).compile(src, name)
        block_only = set()
        for image in prog.images.values():
            for kname, kernel in image.module.kernels.items():
                loc = kernel_locality(kernel)
                assert loc.communicates == (kname in _COMMUNICATING), kname
                assert loc.block_wide == (kname != "gramschmidt_kernel0")
                seen.add(kname)
                if barred(kernel) and loc.block_wide:
                    block_only.add(kname)
        cache = CompiledKernelCache()
        runs = {}
        for width in ("block", "warp"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(driver_mod, "CompiledKernelCache", lambda: cache)
                if width == "warp":
                    mp.setattr(sim_engine, "kernel_locality", per_warp)
                widths = spy_widths(mp)
                stats = spy_launch_stats(mp)
                run = prog.run(launch_mode="full", **run_kw)
            assert run.exit_code == 0, name
            assert run.ort.fault_stats == {}, name
            runs[width] = (stats, widths)
        assert runs["block"][0] == runs["warp"][0], name
        blk_widths, warp_widths = runs["block"][1], runs["warp"][1]
        assert any(w != [32] for w in blk_widths.values()), name
        assert warp_widths.keys() == blk_widths.keys(), name
        for kname, got in warp_widths.items():
            want = blk_widths[kname] if kname in block_only else [32]
            assert got == want, kname
        assert cache.compiled == len(cache) == len(blk_widths), name
        assert cache.hits > 0
    assert _COMMUNICATING <= seen


MASTER_WORKER = r"""
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
"""


CRITICAL_ATOMIC = r"""
int total[2];

int main(void)
{
    #pragma omp target map(tofrom: total[0:2])
    {
        #pragma omp parallel num_threads(96)
        {
            #pragma omp critical
            {
                total[0] = total[0] + 1;
            }
            #pragma omp atomic
            total[1] += 2;
        }
    }
    return 0;
}
"""


def test_on_mode_never_walks_the_tree(monkeypatch):
    # under on every launch runs compiled code: master/worker kernels one
    # warp per executor (their parallel-region subfunction too), a
    # critical region's CAS lock and an atomic per warp, a printf per
    # warp, and the others block-wide
    def walk(self, ops, mask):
        raise AssertionError("tree walk under kernel_fastpath='on'")

    monkeypatch.setattr(sim_engine.WarpExec, "_exec", walk)
    widths = spy_widths(monkeypatch)
    ran = {}
    for name in ("gramschmidt", "gemm"):
        app = get_app(name)
        n = SMALL.get(name, 32)
        prog = OmpiCompiler(OmpiConfig(block_shape=app.block_shape,
                                       kernel_fastpath="on")).compile(
            app.omp_source(n), harness._prog_name(app, n))
        run = prog.run(launch_mode="full", seed_arrays=app.seed(n),
                       heap_capacity=harness._heap_capacity(app, n))
        assert run.exit_code == 0
        assert run.ort.fault_stats == {}
        ran.update((f"{name}:{k.rsplit('_', 1)[1]}", w)
                   for k, w in widths.items())
        widths.clear()
    assert ran == {"gramschmidt:kernel0": [32],
                   "gramschmidt:kernel1": [256],
                   "gramschmidt:kernel2": [256], "gemm:kernel0": [256]}
    for src, name, want in ((MASTER_WORKER, "mw_on",
                             {"C": np.full(512, 3.0)}),
                            (CRITICAL_ATOMIC, "critical_on",
                             {"total": np.array([96, 192])})):
        run = OmpiCompiler(OmpiConfig(kernel_fastpath="on")).compile(
            src, name).run()
        assert run.exit_code == 0
        assert run.ort.fault_stats == {}
        cache = run.ort.cudadev.driver.kernel_cache
        (kernel,) = [k for k, _ck in cache._cache.values()]
        assert kernel.subfunctions
        assert widths == {kernel.name: [32]}
        widths.clear()
        for arr, values in want.items():
            assert np.array_equal(run.machine.global_array(arr), values)
    _stats, got, engine, _ = run_verified(PRINTF, (2, 1, 1), (128, 1, 1),
                                          [np.zeros(1, dtype=np.int32)],
                                          mode="on")
    assert got == [32]
    assert engine.stdout == [f"thread {t} of block {b}\n"
                             for b in range(2) for t in range(0, 128, 20)]


# -- communicating kernels stay per warp ---------------------------------------

DIVERGENT_BARRIER = r"""
__global__ void k(float *a) {
    __shared__ float s[128];
    int t = threadIdx.x;
    s[t] = a[t];
    if (threadIdx.x < 64) __syncthreads();
    a[t] = s[127 - t];
}
"""

ATOMIC = r"""
__global__ void k(int *c) {
    atomicAdd(&c[0], threadIdx.x);
}
"""

PRINTF = r"""
__global__ void k(int *c) {
    int t = threadIdx.x;
    if (t % 20 == 0) printf("thread %d of block %d\n", t, blockIdx.x);
}
"""


@pytest.mark.parametrize("src,arr", [
    (DIVERGENT_BARRIER, np.arange(128, dtype=np.float32)),
    (ATOMIC, np.zeros(1, dtype=np.int32)),
    (PRINTF, np.zeros(1, dtype=np.int32)),
], ids=["barrier", "atomic", "printf"])
def test_communicating_kernels_run_per_warp(src, arr):
    stats, widths, engine, _ = run_verified(src, (2, 1, 1), (128, 1, 1),
                                            [arr])
    assert widths == [32]
    assert not kernel_locality(kernel_k(src)).block_wide
    if src is PRINTF:
        # stdout follows the warps: block by block, lane order
        assert engine.stdout == [f"thread {t} of block {b}\n"
                                 for b in range(2) for t in range(0, 128, 20)]


def test_single_warp_blocks_share_one_lane_axis(monkeypatch):
    # a block-wide kernel with 32-thread blocks runs all its blocks on
    # one executor too, one 32-lane segment per block
    launches = spy_executors(monkeypatch)
    x = np.arange(200, dtype=np.float32)
    y = np.ones(200, dtype=np.float32)
    stats, widths, _, (got, _x) = run_verified(
        SAXPY, (7, 1, 1), (32, 1, 1), [y, x],
        [np.float32(2.0), np.int32(200)])
    assert widths == [32]
    assert launches == [["k", 7, [7]]]
    assert stats.warps_launched == 7
    want = np.ones(200, dtype=np.float32)
    want += np.float32(2.0) * x
    assert np.array_equal(got, want)


def test_block_wide_matches_warp_width_run():
    """``on`` mode (block-wide) and a per-warp compiled run agree."""
    x = np.linspace(0, 1, 1000, dtype=np.float32)
    y = np.linspace(3, 4, 1000, dtype=np.float32)
    args = ((4, 1, 1), (256, 1, 1), [y, x],
            [np.float32(0.5), np.int32(999)])
    wide, w_widths, _, w_out = run_verified(SAXPY, *args, mode="on")
    # one-warp picks run 32-lane segments of the same compiled kernel
    narrow_stats = []
    for warp in range(8):
        s, n_widths, _, _ = run_verified(SAXPY, *args, mode="on",
                                         only_warps={warp})
        assert n_widths == [32]
        narrow_stats.append(s)
    assert w_widths == [256]
    assert wide.instructions == sum(s.instructions for s in narrow_stats)
    assert wide.global_transactions == sum(s.global_transactions
                                           for s in narrow_stats)
    want = np.linspace(3, 4, 1000, dtype=np.float32)
    want[:999] += np.float32(0.5) * x[:999]
    assert np.array_equal(w_out[0], want)


# -- the benchmark suite -----------------------------------------------------

SMALL = {"3dconv": 16, "gramschmidt": 16}


@pytest.mark.parametrize("launch_mode", ["full", "sample"])
@pytest.mark.parametrize("name", ALL_APPS + EXTENDED_APP_NAMES)
def test_suite_app_block_wide_matches_tree_walk(name, launch_mode,
                                                monkeypatch):
    widths = spy_widths(monkeypatch)
    app = get_app(name)
    n = SMALL.get(name, 32)
    cfg = OmpiConfig(block_shape=app.block_shape, kernel_fastpath="verify")
    prog = OmpiCompiler(cfg).compile(app.omp_source(n),
                                     harness._prog_name(app, n))
    run = prog.run(launch_mode=launch_mode,
                   seed_arrays=app.seed(n),
                   heap_capacity=harness._heap_capacity(app, n))
    assert run.exit_code == 0
    assert run.ort.fault_stats == {}
    assert widths
    wide = [k for k, w in widths.items() if any(n > 32 for n in w)]
    assert wide, f"no {name} kernel ran block-wide"


# -- access shapes of the compiled loads and stores --------------------------

def launch_modes(src, grid, block, arrays, scalars=(), **launch_kw):
    """Launch kernel ``k`` of ``src`` under ``off``, ``on`` and ``verify``
    from the same memory; per mode, ``(error, arrays after, KernelStats
    fields or None)``."""
    kernel = kernel_k(src)
    runs = {}
    for mode in ("off", "on", "verify"):
        gmem = LinearMemory(16 << 20, base=GMEM_BASE, name="gmem")
        addrs = []
        for arr in arrays:
            addr = gmem.alloc(max(arr.nbytes, 1))
            gmem.view(addr, arr.size, arr.dtype)[:] = arr.reshape(-1)
            addrs.append(addr)
        engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(),
                                  {}, fastpath=mode)
        params = [np.uint64(a) for a in addrs] + list(scalars)
        try:
            stats = dataclasses.asdict(engine.launch(
                kernel, Dim3.of(grid), Dim3.of(block), params, **launch_kw))
            error = None
        except Exception as exc:  # noqa: BLE001 - compared across modes
            stats, error = None, (type(exc), str(exc))
        out = [gmem.view(a, arr.size, arr.dtype).tobytes()
               for a, arr in zip(addrs, arrays)]
        runs[mode] = (error, out, stats)
    return runs


def _f32(n, seed=0):
    return np.random.default_rng(seed).random(n, dtype=np.float32)


FRAME_SLOTS = r"""
__global__ void k(float *y, float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float t;
    float *p = &t;
    t = x[i];
    *p = *p + 1.0f;
    if (i % 5 != 0) t = t * 2.0f;
    if (i < n) y[i] = t + *p;
}
"""

ACCESS_SHAPES = {
    "contiguous": (SAXPY, (2, 1, 1), (256, 1, 1), [_f32(512), _f32(512, 1)],
                   [np.float32(2.0), np.int32(512)], {}),
    "broadcast": (r"""
__global__ void k(float *y, float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    y[i] = x[n / 2] + x[i / 64];
}
""", (2, 1, 1), (128, 1, 1), [_f32(256), _f32(256, 1)], [np.int32(256)],
                  {}),
    "negative stride": (r"""
__global__ void k(float *y, float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) y[n - 1 - i] = 2.0f * x[n - 1 - i] + x[i];
}
""", (3, 1, 1), (96, 1, 1), [_f32(288), _f32(288, 1)], [np.int32(250)], {}),
    "row stride": (r"""
__global__ void k(float *out, float *a, int w) {
    int c = blockIdx.x * blockDim.x + threadIdx.x;
    int r = blockIdx.y * blockDim.y + threadIdx.y;
    out[c * w + r] = a[r * w + c] + a[c * w + r];
}
""", (2, 2, 1), (16, 8, 1), [_f32(1024), _f32(1024, 1)], [np.int32(32)], {}),
    "partial last block": (SAXPY, (4, 1, 1), (150, 1, 1),
                           [_f32(600), _f32(600, 1)],
                           [np.float32(2.0), np.int32(470)], {}),
    "repeated addresses": (r"""
__global__ void k(float *y, float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    y[i / 8] = x[i];
    if (i % 3 == 1) y[n + 1] = x[i];
    y[n] = x[i];
}
""", (2, 1, 1), (128, 1, 1), [_f32(258), _f32(256, 1)], [np.int32(256)], {}),
    "frame slots": (FRAME_SLOTS, (3, 1, 1), (64, 1, 1),
                    [_f32(192), _f32(192, 1)], [np.int32(180)], {}),
    "frame slots, partial warps": (FRAME_SLOTS, (2, 1, 1), (80, 1, 1),
                                   [_f32(160), _f32(160, 1)],
                                   [np.int32(150)], {}),
    "frame slots, sampled": (FRAME_SLOTS, (4, 1, 1), (96, 1, 1),
                             [_f32(384), _f32(384, 1)], [np.int32(384)],
                             dict(only_blocks=[(0, 0, 0), (2, 0, 0),
                                               (3, 0, 0)],
                                  only_warps={0, 2})),
    "frame slots, one sampled block": (FRAME_SLOTS, (4, 1, 1), (96, 1, 1),
                                       [_f32(384), _f32(384, 1)],
                                       [np.int32(384)],
                                       dict(only_blocks=[(1, 0, 0)],
                                            only_warps={0, 2})),
}


@pytest.mark.parametrize("shape", list(ACCESS_SHAPES))
def test_access_shapes_agree_in_every_mode(shape):
    src, grid, block, arrays, scalars, kw = ACCESS_SHAPES[shape]
    runs = launch_modes(src, grid, block, arrays, scalars, **kw)
    assert runs["off"][0] is None
    assert runs["on"] == runs["off"] == runs["verify"]
    assert runs["off"][1][0] != arrays[0].tobytes()
    if shape.startswith("frame slots"):
        # the frame slot's loads and stores skip the probe
        source = sim_compile.compile_kernel(kernel_k(src)).source
        assert "_frame_load(" in source and "_frame_store(" in source


@pytest.mark.parametrize("kind", ["load", "store"])
def test_one_lane_out_of_range_fails_like_the_tree_walk(kind):
    # lane 5 of warp 0 (of block 0) reaches past global memory: every mode
    # raises the tree walk's error before any byte is written
    access = "y[i] = x[j];" if kind == "load" else "y[j] = x[i];"
    src = r"""
    __global__ void k(float *y, float *x, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        long j = i;
        if (i == 5) j = 1L << 23;
        %s
    }
    """ % access
    y = np.zeros(256, dtype=np.float32)
    runs = launch_modes(src, (2, 1, 1), (128, 1, 1), [y, _f32(256)],
                        [np.int32(256)])
    assert runs["off"][0] is not None
    assert runs["on"] == runs["off"] == runs["verify"]
    assert runs["off"][1][0] == y.tobytes()


def test_gemm_gather_broadcasts_along_rows_in_every_mode():
    # serve-mix's gemm: every warp's lanes of one row read one A[i][k]
    gemm = [p for p in bench_serving.program_mix() if p.name == "gemm"][0]
    runs = {}
    for mode in ("off", "on", "verify"):
        prog = OmpiCompiler(OmpiConfig(kernel_fastpath=mode)).compile(
            gemm.source, gemm.name)
        with pytest.MonkeyPatch.context() as mp:
            launches = spy_launch_stats(mp)
            run = prog.run(seed_arrays=gemm.seed_arrays)
        assert run.exit_code == 0
        runs[mode] = (np.asarray(run.machine.global_array("C")).tobytes(),
                      launches)
    assert runs["on"] == runs["off"] == runs["verify"]
    assert runs["off"][1]


def test_pointer_arithmetic_is_exact_above_2_53():
    # u64 +/- s64 wraps modulo 2^64 in both engines; through float64 the
    # low bits of these addresses would be lost
    from repro.cuda.sim.warp import _binop

    far = (1 << 60) + 12345
    offs = np.array([-41, -1, 0, 1, 7, 1 << 40], dtype=np.int64)
    want = [(far + int(d)) % (1 << 64) for d in offs]
    got = _binop("add", np.uint64(far), offs)
    assert got.dtype == np.uint64 and got.tolist() == want
    got = _binop("sub", np.full(offs.size, far, dtype=np.uint64), -offs)
    assert got.dtype == np.uint64 and got.tolist() == want
    assert _binop("add", np.int32(-1), np.uint64(far)) == far - 1
    src = r"""
    __global__ void k(long *out, char *p) {
        int t = threadIdx.x;
        out[t] = (long)(p + t - 40);
    }
    """
    out = np.zeros(64, dtype=np.int64)
    runs = launch_modes(src, (1, 1, 1), (64, 1, 1), [out],
                        [np.uint64(far)])
    assert runs["on"] == runs["off"] == runs["verify"]
    got = np.frombuffer(runs["on"][1][0], dtype=np.int64)
    assert got.tolist() == [far + t - 40 for t in range(64)]
    source = sim_compile.compile_kernel(kernel_k(src)).source
    assert "np.trunc" not in source
