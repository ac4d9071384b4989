"""Tests for the functional engine: divergence, barriers, atomics, stats."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.sim.coalesce import (
    TransactionMemo, transactions, transactions_memo,
)
from repro.cuda.sim import compile as sim_compile
from repro.cuda.sim.coalesce import progression_transactions
from repro.cuda.sim.compile import CompiledBlockExec
from repro.cuda.sim.engine import BlockCtx, FunctionalEngine, LaunchError
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


def _warp_masks(nwarps):
    """Per-warp lane masks: whole warps empty, full or mixed."""
    return st.lists(
        st.one_of(st.just([False] * 32), st.just([True] * 32),
                  st.lists(st.booleans(), min_size=32, max_size=32)),
        min_size=nwarps, max_size=nwarps)


@settings(max_examples=200)
@given(data=st.data(),
       nwarps=st.integers(min_value=1, max_value=8),
       base=st.integers(min_value=0, max_value=1 << 20),
       stride=st.integers(min_value=-64, max_value=64),
       row=st.integers(min_value=-4096, max_value=4096),
       scatter=st.booleans(),
       itemsize=st.sampled_from([1, 2, 4, 8]),
       shift=st.integers(min_value=0, max_value=64))
def test_block_wide_memo_sums_per_warp_counts(data, nwarps, base, stride,
                                              row, scatter, itemsize, shift):
    """Over nwarps x 32 lanes the memo counts every warp's segments and
    sums them, for monotonic (one stride, or per-warp rows) and scattered
    addresses and masks in which whole warps are empty."""
    n = nwarps * 32
    lanes = np.arange(n, dtype=np.int64)
    offsets = stride * (lanes % 32) + row * (lanes // 32)
    if scatter:
        offsets = offsets + np.asarray(data.draw(st.lists(
            st.integers(min_value=0, max_value=96), min_size=n, max_size=n)))
    addrs = (base + (1 << 22) + offsets).astype(np.uint64)
    active = np.asarray(data.draw(_warp_masks(nwarps)), dtype=bool).ravel()
    want = sum(transactions(addrs[lo:lo + 32], itemsize, active[lo:lo + 32])
               for lo in range(0, n, 32))
    for probe in (addrs, addrs + np.uint64(32 * shift)):
        assert transactions_memo(probe, itemsize, active) == want


# -- the compiled kernel's fused access routine -------------------------------------

_ACCESS_DTYPES = {1: np.int8, 2: np.uint16, 4: np.float32, 8: np.int64}


def _lanes_of(data, nwarps, itemsize, per_warp, lo, hi):
    """Per-lane byte addresses of ``nwarps`` warps, lane ``i`` of warp
    ``w`` at ``lane0 + stride * (32 * w + i)`` (one progression) or, with
    ``per_warp``, at ``lane0[w] + stride * i`` (a base per warp), then
    sometimes a few lanes moved anywhere in ``[lo, hi]``; and a mask of
    full, partial and empty warps.  Returns (lane0, stride, addrs,
    mask)."""
    stride = data.draw(st.one_of(st.just(0), st.integers(-3, 3),
                                 st.integers(-40, 40), st.just(itemsize),
                                 st.just(-itemsize)), label="stride")
    j = np.arange(nwarps * 32, dtype=np.int64)
    if per_warp:
        lane0 = np.asarray(data.draw(st.lists(
            st.integers(lo, hi), min_size=nwarps, max_size=nwarps),
            label="bases"), dtype=np.int64)
        addrs = np.repeat(lane0, 32) + stride * (j % 32)
    else:
        lane0 = data.draw(st.integers(lo, hi), label="base")
        addrs = lane0 + stride * j
    moved = data.draw(st.lists(st.tuples(
        st.integers(0, nwarps * 32 - 1), st.integers(lo, hi)),
        max_size=3), label="moved")
    for lane, addr in moved:
        addrs[lane] = addr
    mask = np.asarray(data.draw(_warp_masks(nwarps), label="mask"),
                      dtype=bool).ravel()
    return lane0, stride, addrs, mask


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nwarps=st.integers(min_value=1, max_value=8),
       itemsize=st.sampled_from([1, 2, 4, 8]), per_warp=st.booleans())
def test_progression_closed_form_sums_per_warp_counts(data, nwarps,
                                                      itemsize, per_warp):
    """The closed form counts what coalesce.transactions counts warp by
    warp, for one progression or one per warp of any stride (negative, 0,
    not a multiple of the itemsize), under full, partial and empty warp
    masks; and each probe finds a progression exactly where there is
    one (one per warp: when every lane is active)."""
    base = 1 << 24
    lane0, stride, addrs, mask = _lanes_of(data, nwarps, itemsize, per_warp,
                                           base, base + 4096)
    a = addrs.astype(np.uint64)
    lanes = mask.tobytes()
    live = sum(bool(mask[lo:lo + 32].any()) for lo in range(0, mask.size, 32))
    if not live:
        return
    want = sum(transactions(a[lo:lo + 32], itemsize, mask[lo:lo + 32])
               for lo in range(0, mask.size, 32))
    j = np.arange(mask.size)
    if per_warp:
        regular = (addrs == np.repeat(lane0, 32) + stride * (j % 32))[mask]
        closed = lane0.astype(np.uint64)
    else:
        regular = (addrs == lane0 + stride * j)[mask]
        closed = lane0
    if regular.all():
        assert progression_transactions(closed, stride, itemsize, lanes,
                                        live) == want
    found = sim_compile._probe(a, lanes, mask)
    if found is not None:
        i0, i1, a0, s, _holes = found
        on = np.flatnonzero(mask)
        assert (on[0], on[-1]) == (i0, i1)
        assert (addrs[on] == a0 + s * (on - i0)).all()
        assert progression_transactions(a0 - s * i0, s, itemsize, lanes,
                                        live) == want
    elif not per_warp:
        assert not regular.all()
    if not mask.all():
        return
    found = sim_compile._probe_warps(a)
    if found is not None:
        warp0, s = found
        on = np.arange(32)
        for w in range(nwarps):
            assert (addrs[32 * w + on] == int(warp0[w]) + s * on).all()
        assert progression_transactions(warp0, s, itemsize, lanes,
                                        live) == want
    else:
        assert not regular.all()


def _access_engine(nwarps):
    gmem = LinearMemory(4096, base=GMEM_BASE, name="gmem")
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {})
    ctx = BlockCtx((0, 0, 0), (nwarps * 32, 1, 1), (1, 1, 1), 0, 0)
    return engine, gmem, ctx


@settings(max_examples=400, deadline=None)
@given(data=st.data(), nwarps=st.integers(min_value=1, max_value=4),
       itemsize=st.sampled_from([1, 2, 4, 8]), per_warp=st.booleans(),
       store=st.booleans())
def test_fused_access_matches_the_tree_walk(data, nwarps, itemsize,
                                            per_warp, store):
    """The fused load reads what the tree walk's per-warp gathers read,
    the fused store writes the bytes its per-warp scatters write, with
    the same counters; both raise the same error for the same lanes (the
    warps before the failing one have accessed memory), and
    a warp whose store fails changes no byte (so a one-warp store that
    fails changes none at all)."""
    dtype = np.dtype(_ACCESS_DTYPES[itemsize])
    _lane0, _stride, addrs, mask = _lanes_of(
        data, nwarps, itemsize, per_warp, GMEM_BASE - 16,
        GMEM_BASE + 4096 + 16)
    addrs = addrs.astype(np.uint64)
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    start = rng.integers(0, 256, 4096, dtype=np.uint8)
    values = rng.integers(0, 256, mask.size * itemsize,
                          dtype=np.uint8).view(dtype)
    results = []
    for fused in (True, False):
        engine, gmem, ctx = _access_engine(nwarps)
        gmem.buf[:] = start
        blk = CompiledBlockExec(None, engine, [ctx], list(range(nwarps)),
                                nwarps * 32, None, [])
        got = np.zeros(mask.size, dtype=dtype)
        try:
            if fused and store:
                sim_compile._fstore(engine, blk, addrs, dtype, values, mask,
                                    sim_compile._nw(mask))
            elif fused:
                got = sim_compile._fload(engine, blk, addrs, dtype, mask,
                                         sim_compile._nw(mask))
            else:
                for lo in range(0, mask.size, 32):
                    warp = blk.warp_view(lo // 32)
                    part = slice(lo, lo + 32)
                    if store:
                        engine.mem_store(warp, addrs[part], dtype,
                                         values[part], mask[part])
                    else:
                        got[part] = engine.mem_load(warp, addrs[part], dtype,
                                                    mask[part])
            error = None
        except Exception as exc:  # noqa: BLE001 - compared below
            error = (type(exc), str(exc))
        # a failed launch reports no counters and no loaded values
        results.append((error, gmem.buf.tobytes(), error or (
            got.tobytes(), dataclasses.asdict(engine.stats))))
    assert results[0] == results[1]
    error, after, _result = results[0]
    if store and error is not None and nwarps == 1:
        assert after == start.tobytes()


def test_transactions_memo_stays_under_its_byte_bound():
    memo = TransactionMemo(max_bytes=64 << 10)
    rng = np.random.default_rng(7)
    for i in range(400):
        nwarps = 1 + i % 8
        addrs = (1 << 20) + rng.integers(0, 4096, nwarps * 32) * 4
        addrs = addrs.astype(np.uint64)
        mask = rng.random(nwarps * 32) < 0.7
        want = sum(transactions(addrs[lo:lo + 32], 4, mask[lo:lo + 32])
                   for lo in range(0, mask.size, 32))
        assert memo(addrs, 4, mask) == want
        assert 0 < memo.nbytes <= memo.max_bytes
    # 400 entries overflow the bound, so fewer of them stay
    assert len(memo) < 400
    assert transactions_memo.nbytes <= transactions_memo.max_bytes


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
