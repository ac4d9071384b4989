"""Byte-addressable linear memory with a first-fit allocator.

Both the host interpreter and the simulated GPU global memory are built on
:class:`LinearMemory`.  Pointers in interpreted programs are integer byte
addresses into one of these spaces, which is what lets the reproduction
keep the paper's host-address -> device-address mapping tables (OMPi's
device data environments) completely faithful.

All loads/stores go through numpy dtypes so narrowing stores truncate the
way C does (e.g. storing 300 into a ``char``).  Bulk region access uses
views, not copies, per the HPC guide's "views, not copies" rule.

:meth:`LinearMemory.gather`/:meth:`LinearMemory.scatter` are the warp
accesses of the kernel engine's tree walk, the reference.  The compiled
kernel's loads and stores do not call them on their common paths: they
probe the lanes' addresses once and read or write ``buf`` through
strided or element views (``repro.cuda.sim.compile._fload``), so kernel
``verify`` mode compares two independent implementations.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class MemoryError_(Exception):
    """Out-of-memory or invalid access in a simulated memory space."""


def content_digest(data: bytes | bytearray | memoryview | np.ndarray) -> str:
    """sha256 hex digest of a buffer (dirty-tracking / resync gates)."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).view(np.uint8)
    return hashlib.sha256(data).hexdigest()


def _strides(n: int, step: int) -> np.ndarray:
    """Cached ``arange(n) * step`` used by the vector access paths."""
    key = (n, step)
    arr = _STRIDE_CACHE.get(key)
    if arr is None:
        arr = np.arange(n, dtype=np.int64) * step
        arr.flags.writeable = False
        _STRIDE_CACHE[key] = arr
    return arr


_STRIDE_CACHE: dict[tuple[int, int], np.ndarray] = {}


@dataclass
class _Block:
    addr: int
    size: int


@dataclass(frozen=True)
class Checkpoint:
    """Copies of a memory's allocated blocks and of its free list and
    allocation map (``_starts`` is the map's sorted keys)."""

    blocks: dict[int, np.ndarray]
    free: tuple[_Block, ...]
    allocated: dict[int, int]


class LinearMemory:
    """A contiguous byte-addressable memory of fixed capacity.

    Addresses start at ``base`` (never 0, so that 0 keeps its C meaning of
    NULL).  The allocator is a simple first-fit free list with coalescing —
    adequate for the allocation patterns of benchmark programs, and it
    makes double-free/overlap bugs detectable in tests.  Only this module
    touches the allocator state (``_free``, ``_allocated``, ``_starts``):
    :meth:`checkpoint` and :meth:`rollback` save and restore it together
    with the block contents, which is what :func:`differential_run` needs.
    """

    def __init__(self, capacity: int, base: int = 0x1000, name: str = "mem"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._setup(np.zeros(int(capacity), dtype=np.uint8), base, name)

    def _setup(self, buf: np.ndarray, base: int, name: str) -> None:
        self.capacity = buf.size
        self.base = int(base)
        self.name = name
        self.buf = buf
        self._free: list[_Block] = [_Block(self.base, self.capacity)]
        self._allocated: dict[int, int] = {}  # addr -> size
        self._starts: list[int] = []           # sorted keys of _allocated

    def window(self, offset: int, size: int) -> "LinearMemory":
        """A memory at this one's base over ``size`` of its bytes from
        ``offset``: writes through either show in both."""
        piece = object.__new__(LinearMemory)
        piece._setup(self.buf[offset:offset + size], self.base, self.name)
        return piece

    # -- allocation ---------------------------------------------------------
    def alloc(self, size: int, align: int = 16) -> int:
        if size <= 0:
            size = 1
        for i, blk in enumerate(self._free):
            addr = (blk.addr + align - 1) // align * align
            pad = addr - blk.addr
            if blk.size >= size + pad:
                if pad:
                    self._free[i] = _Block(blk.addr, pad)
                    rest_addr, rest_size = addr + size, blk.size - size - pad
                    if rest_size:
                        self._free.insert(i + 1, _Block(rest_addr, rest_size))
                else:
                    if blk.size == size:
                        del self._free[i]
                    else:
                        self._free[i] = _Block(addr + size, blk.size - size)
                self._allocated[addr] = size
                bisect.insort(self._starts, addr)
                return addr
        raise MemoryError_(
            f"{self.name}: out of memory allocating {size} bytes "
            f"(capacity {self.capacity})"
        )

    def free(self, addr: int) -> None:
        size = self._allocated.pop(addr, None)
        if size is None:
            raise MemoryError_(f"{self.name}: free of unallocated address {addr:#x}")
        del self._starts[bisect.bisect_left(self._starts, addr)]
        keys = [b.addr for b in self._free]
        i = bisect.bisect_left(keys, addr)
        self._free.insert(i, _Block(addr, size))
        # coalesce with neighbours
        merged: list[_Block] = []
        for blk in self._free:
            if merged and merged[-1].addr + merged[-1].size == blk.addr:
                merged[-1] = _Block(merged[-1].addr, merged[-1].size + blk.size)
            else:
                merged.append(blk)
        self._free = merged

    def allocated_size(self, addr: int) -> int | None:
        return self._allocated.get(addr)

    @property
    def bytes_in_use(self) -> int:
        return sum(self._allocated.values())

    def allocations(self) -> list[int]:
        """Start addresses of the allocated blocks, in address order."""
        return list(self._starts)

    # -- checkpoints ----------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Copies of every allocated block and of the allocator state; the
        cost follows the allocated bytes, not the capacity."""
        blocks = {}
        for addr, size in self._allocated.items():
            off = addr - self.base
            blocks[addr] = self.buf[off : off + size].copy()
        return Checkpoint(blocks, tuple(self._free), dict(self._allocated))

    def rollback(self, cp: Checkpoint) -> None:
        """Restore the block contents and the allocator state of ``cp``
        (taken from this memory).  Bytes outside the blocks allocated at
        ``cp`` keep what they hold now."""
        for addr, data in cp.blocks.items():
            off = addr - self.base
            self.buf[off : off + data.size] = data
        self._free = list(cp.free)
        self._allocated = dict(cp.allocated)
        self._starts = sorted(cp.allocated)

    def first_difference(self, cp: Checkpoint) -> Optional[str]:
        """The first way this memory differs from ``cp``: a block the two
        allocation maps disagree on, else the first differing byte of a
        block; None when they are the same.  Worded for
        :func:`differential_run`, where ``cp`` is the fast path's result
        and this memory holds the reference's."""
        if self._allocated != cp.allocated:
            addr = min(a for a in self._allocated.keys() | cp.allocated.keys()
                       if self._allocated.get(a) != cp.allocated.get(a))
            return (f"{self.name}: allocation maps differ at {addr:#x} "
                    f"(fastpath {cp.allocated.get(addr, 'unallocated')} != "
                    f"interp {self._allocated.get(addr, 'unallocated')})")
        for addr, data in cp.blocks.items():
            off = addr - self.base
            now = self.buf[off : off + data.size]
            if not np.array_equal(data, now):
                bad = int(np.flatnonzero(data != now)[0])
                return (f"{self.name}: block {addr:#x} differs at byte {bad} "
                        f"(fastpath {data[bad]} != interp {now[bad]})")
        return None

    # -- access ---------------------------------------------------------------
    def _check(self, addr: int, size: int) -> int:
        off = addr - self.base
        if off < 0 or off + size > self.capacity:
            raise MemoryError_(
                f"{self.name}: access of {size} bytes at {addr:#x} out of range"
            )
        return off

    def load(self, addr: int, dtype: np.dtype):
        """Load one scalar of ``dtype`` at ``addr``."""
        dt = np.dtype(dtype)
        off = self._check(addr, dt.itemsize)
        return self.buf[off : off + dt.itemsize].view(dt)[0]

    def store(self, addr: int, dtype: np.dtype, value) -> None:
        dt = np.dtype(dtype)
        off = self._check(addr, dt.itemsize)
        if dt.kind in "iu":
            # Wrap like a C narrowing conversion (two's complement).
            bits = 8 * dt.itemsize
            v = int(value) & ((1 << bits) - 1)
            if dt.kind == "i" and v >= 1 << (bits - 1):
                v -= 1 << bits
            self.buf[off : off + dt.itemsize].view(dt)[0] = v
        else:
            self.buf[off : off + dt.itemsize].view(dt)[0] = value

    def view(self, addr: int, count: int, dtype: np.dtype) -> np.ndarray:
        """A writable numpy view of ``count`` elements at ``addr``."""
        dt = np.dtype(dtype)
        off = self._check(addr, count * dt.itemsize)
        return self.buf[off : off + count * dt.itemsize].view(dt)

    def strided(self, addr: int, dtype: np.dtype, shape, strides) -> np.ndarray:
        """A writable view of the cells ``addr + sum(k_i * strides[i])``
        for ``0 <= k_i < shape[i]`` (byte strides, any sign, 0 repeats a
        cell), range-checked once for the whole block."""
        dt = np.dtype(dtype)
        lo = hi = addr - self.base
        for n, s in zip(shape, strides):
            if s < 0:
                lo += s * (n - 1)
            else:
                hi += s * (n - 1)
        if lo < 0 or hi + dt.itemsize > self.capacity:
            raise MemoryError_(
                f"{self.name}: strided access at {addr:#x} out of range")
        return np.ndarray(tuple(shape), dtype=dt, buffer=self.buf,
                          offset=addr - self.base, strides=tuple(strides))

    def block_of(self, addr: int) -> int | None:
        """The start of the allocated block that holds ``addr``."""
        k = bisect.bisect_right(self._starts, addr) - 1
        if k >= 0:
            start = self._starts[k]
            if addr < start + self._allocated[start]:
                return start
        return None

    def gather(self, addrs: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Vector load at per-lane byte addresses (SIMT warp loads); an
        address array of any shape gives a value array of that shape."""
        if addrs.ndim > 1:
            return self.gather(addrs.reshape(-1), dtype).reshape(addrs.shape)
        dt = np.dtype(dtype)
        offs = addrs.astype(np.int64) - self.base
        n = offs.size
        if n > 1:
            start = int(offs[0])
            step = int(offs[1]) - start
            if (step > 0 and step % dt.itemsize == 0
                    and int(offs[-1]) - start == (n - 1) * step
                    and (offs - start == _strides(n, step)).all()):
                # constant-stride warp load: one strided view (copied, so
                # the register value cannot alias the backing buffer).
                # step > 0 makes offs[0]/offs[-1] the exact min/max, so the
                # range check needs no reductions.
                end = start + (n - 1) * step + dt.itemsize
                if start < 0 or end > self.capacity:
                    raise MemoryError_(f"{self.name}: vector load out of range")
                return self.buf[start:end].view(dt)[::step // dt.itemsize].copy()
        if n and (offs.min() < 0 or offs.max() + dt.itemsize > self.capacity):
            raise MemoryError_(f"{self.name}: vector load out of range")
        idx = offs[:, None] + np.arange(dt.itemsize, dtype=np.int64)[None, :]
        raw = self.buf[idx.reshape(-1)]
        return raw.view(dt).reshape(offs.shape)

    def scatter(self, addrs: np.ndarray, dtype: np.dtype, values: np.ndarray) -> None:
        """Vector store at per-lane byte addresses (SIMT warp stores).

        Lanes scatter in lane order, so intra-warp write conflicts resolve
        with the highest lane winning — CUDA leaves the winner undefined;
        picking a deterministic one keeps runs reproducible.
        """
        dt = np.dtype(dtype)
        offs = addrs.astype(np.int64) - self.base
        n = offs.size
        if n > 1:
            start = int(offs[0])
            step = int(offs[1]) - start
            if (step > 0 and step % dt.itemsize == 0
                    and int(offs[-1]) - start == (n - 1) * step
                    and (offs - start == _strides(n, step)).all()):
                # constant-stride warp store: addresses are distinct, so
                # the lane-order conflict rule cannot trigger
                end = start + (n - 1) * step + dt.itemsize
                if start < 0 or end > self.capacity:
                    raise MemoryError_(f"{self.name}: vector store out of range")
                self.buf[start:end].view(dt)[::step // dt.itemsize] = values
                return
        if n and (offs.min() < 0 or offs.max() + dt.itemsize > self.capacity):
            raise MemoryError_(f"{self.name}: vector store out of range")
        raw = np.ascontiguousarray(values, dtype=dt).view(np.uint8).reshape(-1, dt.itemsize)
        idx = offs[:, None] + np.arange(dt.itemsize, dtype=np.int64)[None, :]
        self.buf[idx.reshape(-1)] = raw.reshape(-1)

    def copy_out(self, addr: int, size: int) -> bytes:
        off = self._check(addr, size)
        return self.buf[off : off + size].tobytes()

    def copy_in(self, addr: int, data: bytes | np.ndarray) -> None:
        data = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
        off = self._check(addr, data.size)
        self.buf[off : off + data.size] = data


def differential_run(spaces: Sequence[LinearMemory], fast: Callable,
                     reference: Callable) -> tuple[object, object, Optional[str]]:
    """Run ``fast``, roll every space back to where it started, run
    ``reference`` from there, and compare the spaces the two runs left.

    Returns both results and the first difference (allocation map or
    block byte, see :meth:`LinearMemory.first_difference`), or None.  The
    spaces are left as the reference run left them: its result wins.
    What a caller compares besides memory (stdout, stats, a return value)
    it compares itself."""
    start = [mem.checkpoint() for mem in spaces]
    fast_result = fast()
    fast_end = [mem.checkpoint() for mem in spaces]
    for mem, cp in zip(spaces, start):
        mem.rollback(cp)
    ref_result = reference()
    diffs = (mem.first_difference(cp) for mem, cp in zip(spaces, fast_end))
    return fast_result, ref_result, next((d for d in diffs if d), None)
