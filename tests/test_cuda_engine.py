"""Tests for the functional engine: divergence, barriers, atomics, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.sim.coalesce import transactions
from repro.cuda.sim.engine import (
    FunctionalEngine, LaunchError, transactions_memo,
)
from repro.devrt import INTRINSIC_SIGS, build_intrinsics
from repro.mem import LinearMemory

GMEM_BASE = 0x2_0000_0000


def make_engine(mb=32):
    gmem = LinearMemory(mb << 20, base=GMEM_BASE, name="gmem")
    return FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {}), gmem


def compile_module(src):
    unit = parse_translation_unit(src, "t.cu")
    return lower_translation_unit(unit, INTRINSIC_SIGS, "t")


def alloc(gmem, arr):
    arr = np.asarray(arr)
    addr = gmem.alloc(max(arr.nbytes, 1))
    gmem.view(addr, arr.size, arr.dtype)[:] = arr.reshape(-1)
    return addr


# -- coalescing model ----------------------------------------------------------

def test_coalesced_f32_access_is_4_segments():
    addrs = np.uint64(0x1000) + 4 * np.arange(32, dtype=np.uint64)
    assert transactions(addrs, 4, np.ones(32, dtype=bool)) == 4


def test_strided_access_touches_more_segments():
    addrs = np.uint64(0x1000) + 128 * np.arange(32, dtype=np.uint64)
    assert transactions(addrs, 4, np.ones(32, dtype=bool)) == 32


def test_masked_lanes_do_not_count():
    addrs = np.uint64(0x1000) + 4 * np.arange(32, dtype=np.uint64)
    mask = np.zeros(32, dtype=bool)
    mask[0] = True
    assert transactions(addrs, 4, mask) == 1
    assert transactions(addrs, 4, np.zeros(32, dtype=bool)) == 0


def test_unaligned_element_spans_two_segments():
    addrs = np.array([0x1000 + 30], dtype=np.uint64)
    assert transactions(addrs, 4, np.ones(1, dtype=bool)) == 2


@settings(max_examples=200)
@given(base=st.integers(min_value=0, max_value=1 << 20),
       stride=st.integers(min_value=-64, max_value=64),
       jitter=st.lists(st.integers(min_value=0, max_value=96),
                       min_size=32, max_size=32),
       scatter=st.booleans(),
       itemsize=st.sampled_from([1, 2, 4, 8]),
       mask=st.lists(st.booleans(), min_size=32, max_size=32),
       shift=st.integers(min_value=0, max_value=64))
def test_transactions_memo_matches_direct_count(base, stride, jitter, scatter,
                                                itemsize, mask, shift):
    """The memo keys on (offset within a segment, per-lane deltas,
    itemsize, mask): the same shape translated by whole segments is a
    memo hit and must still equal the direct count, for strided and
    scattered warps and for every mask, the empty one included."""
    lanes = np.arange(32, dtype=np.int64)
    offsets = stride * lanes + (np.asarray(jitter) if scatter else 0)
    addrs = (base + 64 * 32 + offsets).astype(np.uint64)
    active = np.asarray(mask, dtype=bool)
    for probe in (addrs, addrs + np.uint64(32 * shift)):
        assert transactions_memo(probe, itemsize, active) \
            == transactions(probe, itemsize, active)
    empty = np.zeros(32, dtype=bool)
    assert transactions_memo(addrs, itemsize, empty) == 0


# -- execution semantics -----------------------------------------------------------

def test_divergence_both_sides_execute():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *p) {
        int i = threadIdx.x;
        if (i % 2 == 0) p[i] = 100 + i;
        else p[i] = 200 + i;
    }
    """)
    addr = alloc(gmem, np.zeros(32, dtype=np.int32))
    stats = engine.launch(module.kernels["k"], Dim3(1), Dim3(32), [np.uint64(addr)])
    out = gmem.view(addr, 32, np.int32)
    expect = [100 + i if i % 2 == 0 else 200 + i for i in range(32)]
    assert list(out) == expect
    assert stats.divergent_branches >= 1


def test_uniform_branch_not_counted_divergent():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *p, int flag) {
        if (flag) p[threadIdx.x] = 1;
    }
    """)
    addr = alloc(gmem, np.zeros(32, dtype=np.int32))
    stats = engine.launch(module.kernels["k"], Dim3(1), Dim3(32),
                          [np.uint64(addr), np.int32(1)])
    assert stats.divergent_branches == 0


def test_partial_warp_block():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *p) { p[threadIdx.x] = 1; }
    """)
    addr = alloc(gmem, np.zeros(64, dtype=np.int32))
    stats = engine.launch(module.kernels["k"], Dim3(1), Dim3(40), [np.uint64(addr)])
    out = gmem.view(addr, 64, np.int32)
    assert out[:40].sum() == 40 and out[40:].sum() == 0
    assert stats.warps_launched == 2


def test_2d_block_indexing():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *p) {
        int x = threadIdx.x, y = threadIdx.y;
        p[y * 8 + x] = 10 * y + x;
    }
    """)
    addr = alloc(gmem, np.zeros(32, dtype=np.int32))
    engine.launch(module.kernels["k"], Dim3(1), Dim3.of((8, 4)), [np.uint64(addr)])
    out = gmem.view(addr, 32, np.int32).reshape(4, 8)
    y, x = np.meshgrid(np.arange(4), np.arange(8), indexing="ij")
    assert np.array_equal(out, 10 * y + x)


def test_grid_y_dimension():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *p) {
        int i = (blockIdx.y * gridDim.x + blockIdx.x) * blockDim.x + threadIdx.x;
        p[i] = blockIdx.y;
    }
    """)
    addr = alloc(gmem, np.zeros(4 * 3 * 8, dtype=np.int32))
    engine.launch(module.kernels["k"], Dim3.of((4, 3)), Dim3(8), [np.uint64(addr)])
    out = gmem.view(addr, 96, np.int32).reshape(3, 4, 8)
    for by in range(3):
        assert (out[by] == by).all()


def test_syncthreads_shared_memory_flow():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *p) {
        __shared__ int buf[64];
        int t = threadIdx.x;
        buf[t] = t;
        __syncthreads();
        p[t] = buf[63 - t];
    }
    """)
    addr = alloc(gmem, np.zeros(64, dtype=np.int32))
    engine.launch(module.kernels["k"], Dim3(1), Dim3(64), [np.uint64(addr)])
    assert list(gmem.view(addr, 64, np.int32)) == list(range(63, -1, -1))


def test_atomic_add_full_block():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *counter) { atomicAdd(counter, 1); }
    """)
    addr = alloc(gmem, np.zeros(1, dtype=np.int32))
    stats = engine.launch(module.kernels["k"], Dim3(2), Dim3(128), [np.uint64(addr)])
    assert int(gmem.load(addr, np.int32)) == 256
    assert stats.atomics == 256


def test_atomic_cas_lock_pattern():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *lock, int *total) {
        int done = 0;
        while (!done) {
            if (atomicCAS(lock, 0, 1) == 0) {
                *total = *total + 1;
                atomicExch(lock, 0);
                done = 1;
            }
        }
    }
    """)
    lock = alloc(gmem, np.zeros(1, dtype=np.int32))
    total = alloc(gmem, np.zeros(1, dtype=np.int32))
    engine.launch(module.kernels["k"], Dim3(2), Dim3(64),
                  [np.uint64(lock), np.uint64(total)])
    assert int(gmem.load(total, np.int32)) == 128


def test_device_printf_per_lane():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(void) {
        if (threadIdx.x < 2) printf("lane %d\\n", threadIdx.x);
    }
    """)
    engine.launch(module.kernels["k"], Dim3(1), Dim3(32), [])
    assert engine.stdout == ["lane 0\n", "lane 1\n"]


def test_launch_validation():
    engine, _ = make_engine()
    module = compile_module("__global__ void k(void) { }")
    with pytest.raises(LaunchError):
        engine.launch(module.kernels["k"], Dim3(1), Dim3(2048), [])
    with pytest.raises(LaunchError):
        engine.launch(module.kernels["k"], Dim3(0), Dim3(32), [])


def test_unmapped_address_detected():
    engine, _ = make_engine()
    module = compile_module("""
    __global__ void k(int *p) { p[0] = 1; }
    """)
    with pytest.raises(LaunchError):
        engine.launch(module.kernels["k"], Dim3(1), Dim3(1), [np.uint64(0x10)])


def test_only_blocks_subset():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(int *p) {
        p[blockIdx.x * blockDim.x + threadIdx.x] = 1;
    }
    """)
    addr = alloc(gmem, np.zeros(8 * 32, dtype=np.int32))
    stats = engine.launch(module.kernels["k"], Dim3(8), Dim3(32),
                          [np.uint64(addr)], only_blocks=[(0, 0, 0), (7, 0, 0)])
    out = gmem.view(addr, 256, np.int32)
    assert out[:32].sum() == 32 and out[-32:].sum() == 32
    assert out[32:-32].sum() == 0
    assert stats.blocks_launched == 2


def test_stats_transactions_coalesced_vs_strided():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void co(float *p) { p[threadIdx.x] = 1.0f; }
    __global__ void sd(float *p) { p[threadIdx.x * 33] = 1.0f; }
    """)
    addr = alloc(gmem, np.zeros(33 * 32, dtype=np.float32))
    s1 = engine.launch(module.kernels["co"], Dim3(1), Dim3(32), [np.uint64(addr)])
    t_coalesced = s1.global_transactions
    s2 = engine.launch(module.kernels["sd"], Dim3(1), Dim3(32), [np.uint64(addr)])
    assert s2.global_transactions > 4 * t_coalesced


def test_f64_and_special_op_counters():
    engine, gmem = make_engine()
    module = compile_module("""
    __global__ void k(double *p, float *q) {
        int i = threadIdx.x;
        p[i] = p[i] * 2.0;
        q[i] = sqrtf(q[i]);
    }
    """)
    a1 = alloc(gmem, np.ones(32))
    a2 = alloc(gmem, np.ones(32, dtype=np.float32))
    stats = engine.launch(module.kernels["k"], Dim3(1), Dim3(32),
                          [np.uint64(a1), np.uint64(a2)])
    assert stats.alu_f64 >= 32
    assert stats.special_ops >= 32


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=300))
def test_property_guarded_kernel_touches_exactly_n(n):
    engine, gmem = make_engine(4)
    module = compile_module("""
    __global__ void k(int *p, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) p[i] = 1;
    }
    """)
    addr = alloc(gmem, np.zeros(512, dtype=np.int32))
    blocks = (n + 63) // 64
    engine.launch(module.kernels["k"], Dim3(blocks), Dim3(64),
                  [np.uint64(addr), np.int32(n)])
    out = gmem.view(addr, 512, np.int32)
    assert out.sum() == n
    assert (out[:n] == 1).all()
