"""Tests for the linear-memory substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import LinearMemory, MemoryError_


def test_alloc_returns_aligned_disjoint_blocks():
    mem = LinearMemory(1 << 16)
    a = mem.alloc(100, align=16)
    b = mem.alloc(50, align=16)
    assert a % 16 == 0 and b % 16 == 0
    assert b >= a + 100 or a >= b + 50


def test_alloc_zero_size_is_one_byte():
    mem = LinearMemory(1 << 12)
    a = mem.alloc(0)
    b = mem.alloc(0)
    assert a != b


def test_free_and_reuse():
    mem = LinearMemory(1 << 12)
    a = mem.alloc(256)
    mem.free(a)
    b = mem.alloc(256)
    assert b == a  # first fit reuses the hole


def test_double_free_raises():
    mem = LinearMemory(1 << 12)
    a = mem.alloc(8)
    mem.free(a)
    with pytest.raises(MemoryError_):
        mem.free(a)


def test_out_of_memory_raises():
    mem = LinearMemory(1 << 10)
    with pytest.raises(MemoryError_):
        mem.alloc(1 << 20)


def test_oom_after_fragmentation():
    mem = LinearMemory(1024, base=0x1000)
    blocks = [mem.alloc(128, align=1) for _ in range(8)]
    with pytest.raises(MemoryError_):
        mem.alloc(16, align=1)
    for b in blocks[::2]:
        mem.free(b)
    # freed 4x128 but not contiguous: a 256-byte request must fail
    with pytest.raises(MemoryError_):
        mem.alloc(256, align=1)
    mem.free(blocks[1])
    # now blocks 0,1,2 form a 384-byte hole
    assert mem.alloc(256, align=1) == blocks[0]


def test_scalar_store_load_roundtrip():
    mem = LinearMemory(1 << 12)
    a = mem.alloc(8)
    mem.store(a, np.float32, 3.25)
    assert mem.load(a, np.float32) == np.float32(3.25)
    mem.store(a, np.int32, -7)
    assert mem.load(a, np.int32) == -7


def test_store_narrowing_wraps_like_c():
    mem = LinearMemory(1 << 12)
    a = mem.alloc(1)
    mem.store(a, np.int8, 300)        # (char)300 == 44
    assert mem.load(a, np.int8) == 44
    mem.store(a, np.int8, -1)
    assert mem.load(a, np.uint8) == 255


def test_view_is_writable_window():
    mem = LinearMemory(1 << 12)
    a = mem.alloc(64)
    view = mem.view(a, 16, np.float32)
    view[:] = np.arange(16)
    assert mem.load(a + 4 * 5, np.float32) == 5.0


def test_gather_scatter_roundtrip():
    mem = LinearMemory(1 << 12)
    a = mem.alloc(128)
    addrs = a + 4 * np.array([3, 1, 4, 1, 5], dtype=np.int64)
    mem.scatter(addrs, np.int32, np.array([30, 10, 40, 11, 50]))
    got = mem.gather(addrs, np.int32)
    # lane 3 overwrote lane 1 (highest lane wins deterministically)
    assert list(got) == [30, 11, 40, 11, 50]


def test_strided_view_writes_through_and_checks_range():
    mem = LinearMemory(4096)
    a = mem.alloc(64 * 4)
    mem.view(a, 64, np.int32)[:] = np.arange(64)
    # an 8x8 block read transposed (strides 4 and 32 bytes, swapped)
    t = mem.strided(a, np.int32, (8, 8), (4, 32))
    assert np.array_equal(t, np.arange(64).reshape(8, 8).T)
    # a negative stride walks backwards; a zero stride repeats a cell
    back = mem.strided(a + 63 * 4, np.int32, (4, 3), (-4, 0))
    assert np.array_equal(back, [[63] * 3, [62] * 3, [61] * 3, [60] * 3])
    mem.strided(a, np.int32, (2,), (8,))[...] = -1
    assert list(mem.view(a, 3, np.int32)) == [-1, 1, -1]
    # one check covers the whole block, at either end
    with pytest.raises(MemoryError_):
        mem.strided(a, np.int32, (2,), (4096,))
    with pytest.raises(MemoryError_):
        mem.strided(mem.base, np.int32, (2,), (-4,))


def test_gather_accepts_a_grid_of_addresses():
    mem = LinearMemory(4096)
    a = mem.alloc(16 * 4)
    mem.view(a, 16, np.float32)[:] = np.arange(16)
    addrs = a + 4 * (np.arange(4)[:, None] * 4 + np.arange(2)[None, :])
    assert np.array_equal(mem.gather(addrs, np.float32),
                          np.arange(16).reshape(4, 4)[:, :2])


def test_gather_out_of_range_raises():
    mem = LinearMemory(1 << 10)
    with pytest.raises(MemoryError_):
        mem.gather(np.array([mem.base + mem.capacity], dtype=np.int64), np.int32)


def test_load_out_of_range_raises():
    mem = LinearMemory(64, base=0x100)
    with pytest.raises(MemoryError_):
        mem.load(0x100 + 64, np.int8)
    with pytest.raises(MemoryError_):
        mem.load(0x100 - 1, np.int8)


def test_bytes_in_use_tracks_allocations():
    mem = LinearMemory(1 << 12)
    assert mem.bytes_in_use == 0
    a = mem.alloc(100)
    b = mem.alloc(28)
    assert mem.bytes_in_use == 128
    mem.free(a)
    assert mem.bytes_in_use == 28
    mem.free(b)
    assert mem.bytes_in_use == 0


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=40))
def test_property_allocations_never_overlap(sizes):
    mem = LinearMemory(1 << 16)
    spans = []
    for size in sizes:
        addr = mem.alloc(size, align=8)
        for other_addr, other_size in spans:
            assert addr + size <= other_addr or other_addr + other_size <= addr
        spans.append((addr, size))


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=256), st.booleans()),
        min_size=1, max_size=30,
    )
)
def test_property_free_all_restores_full_capacity(ops):
    """After freeing everything, one maximal allocation must succeed again."""
    mem = LinearMemory(1 << 14, base=16)
    live = []
    for size, do_free in ops:
        live.append(mem.alloc(size, align=1))
        if do_free and live:
            mem.free(live.pop(0))
    for addr in live:
        mem.free(addr)
    assert mem.bytes_in_use == 0
    big = mem.alloc(mem.capacity, align=1)
    assert big == mem.base


@settings(max_examples=40)
@given(st.binary(min_size=1, max_size=200))
def test_property_copyin_copyout_roundtrip(data):
    mem = LinearMemory(1 << 12)
    addr = mem.alloc(len(data))
    mem.copy_in(addr, data)
    assert mem.copy_out(addr, len(data)) == data


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=96), st.booleans()),
                min_size=1, max_size=30),
       st.lists(st.integers(min_value=0, max_value=4200), max_size=40))
def test_property_block_of_matches_allocation_map(ops, probes):
    """``block_of`` names the live block that holds an address, or None."""
    mem = LinearMemory(1 << 12, base=64)
    live = []
    for size, do_free in ops:
        try:
            live.append(mem.alloc(size, align=8))
        except MemoryError_:
            pass
        if do_free and live:
            mem.free(live.pop(0))
    for off in probes:
        addr = mem.base + off
        want = [a for a in live if a <= addr < a + mem.allocated_size(a)]
        assert mem.block_of(addr) == (want[0] if want else None)


def _allocator_state(mem):
    return (list(mem._free), dict(mem._allocated),
            list(mem._starts))


def _contents(mem):
    return {a: mem.copy_out(a, mem.allocated_size(a))
            for a in mem.allocations()}


_MEM_OPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 300),
              st.sampled_from([1, 4, 16, 256])),
    st.tuples(st.just("free"), st.integers(0, 50)),
    st.tuples(st.just("write"), st.integers(0, 50), st.integers(0, 255)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("rollback"), st.integers(0, 10)),
)


@settings(max_examples=80)
@given(st.lists(_MEM_OPS, min_size=1, max_size=40))
def test_property_rollback_restores_contents_and_allocator(ops):
    """``rollback`` brings back the bytes of every block allocated at the
    checkpoint and the free list, allocation map and sorted starts
    exactly, however the memory was allocated, freed and written since
    (a checkpoint can be rolled back to more than once)."""
    mem = LinearMemory(1 << 12, base=0x100)
    saved = []      # (checkpoint, allocator state, contents)
    for op in ops:
        live = mem.allocations()
        if op[0] == "alloc":
            try:
                mem.alloc(op[1], align=op[2])
            except MemoryError_:
                pass
        elif op[0] == "free" and live:
            mem.free(live[op[1] % len(live)])
        elif op[0] == "write" and live:
            addr = live[op[1] % len(live)]
            mem.view(addr, mem.allocated_size(addr), np.uint8)[:] = op[2]
        elif op[0] == "checkpoint":
            saved.append((mem.checkpoint(), _allocator_state(mem),
                          _contents(mem)))
        elif op[0] == "rollback" and saved:
            cp, state, contents = saved[op[1] % len(saved)]
            mem.rollback(cp)
            assert _allocator_state(mem) == state
            assert _contents(mem) == contents
            assert mem._starts == sorted(mem._allocated)
            assert mem.first_difference(cp) is None


def test_first_difference_names_the_map_or_the_byte():
    mem = LinearMemory(1 << 12, base=0x1000, name="gmem")
    a = mem.alloc(64)
    cp = mem.checkpoint()
    mem.store(a + 5, np.uint8, 7)
    assert mem.first_difference(cp) == (
        "gmem: block 0x1000 differs at byte 5 (fastpath 0 != interp 7)")
    mem.rollback(cp)
    extra = mem.alloc(16)
    assert mem.first_difference(cp) == (
        f"gmem: allocation maps differ at {extra:#x} "
        "(fastpath unallocated != interp 16)")
