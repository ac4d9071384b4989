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
from dataclasses import dataclass, field
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


#: a free block, ``(addr, size)``: the free list is a sorted, coalesced
#: list of them (plain tuples: allocation is on the interpreter's hot path)
_Block = tuple[int, int]


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
        self._free: list[_Block] = [(self.base, self.capacity)]
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
        free = self._free
        for i, (start, bsize) in enumerate(free):
            addr = (start + align - 1) // align * align
            end, bend = addr + size, start + bsize
            if end <= bend:
                if addr != start:
                    free[i] = (start, addr - start)
                    if end != bend:
                        free.insert(i + 1, (end, bend - end))
                elif end == bend:
                    del free[i]
                else:
                    free[i] = (end, bend - end)
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
        starts = self._starts
        del starts[bisect.bisect_left(starts, addr)]
        # the free list is sorted and coalesced: merge with the neighbours
        free = self._free
        i = bisect.bisect_left(free, (addr,))
        if i < len(free) and free[i][0] == addr + size:
            size += free.pop(i)[1]
        if i:
            start, bsize = free[i - 1]
            if start + bsize == addr:
                free[i - 1] = (start, bsize + size)
                return
        free.insert(i, (addr, size))

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

    def fingerprint(self) -> dict[int, tuple[int, bytes]]:
        """``{block start: (size, key)}`` over the allocated blocks, the
        key a block's bytes or, past 64 bytes, their digest: cheap to
        keep per call, enough to tell whether a block changed."""
        out = {}
        buf, base = self.buf, self.base
        for addr, size in self._allocated.items():
            data = buf[addr - base : addr - base + size]
            out[addr] = (size, data.tobytes() if size <= 64 else
                         hashlib.blake2b(data, digest_size=16).digest())
        return out

    def changes_since(self, fingerprint: dict) -> Checkpoint:
        """A checkpoint of the allocator state and of only the blocks
        that are new or changed since ``fingerprint``: rolling back to it
        from that state replays what happened in between."""
        now = self.fingerprint()
        blocks = {}
        for addr, size in self._allocated.items():
            if now[addr] != fingerprint.get(addr):
                blocks[addr] = self.buf[addr - self.base :
                                        addr - self.base + size].copy()
        return Checkpoint(blocks, tuple(self._free), dict(self._allocated))

    def fingerprint_difference(self, fingerprint: dict) -> Optional[str]:
        """The first way this memory differs from ``fingerprint`` (an
        allocation or a block's bytes), or None."""
        now = self.fingerprint()
        for addr in sorted(now.keys() | fingerprint.keys()):
            got, want = now.get(addr), fingerprint.get(addr)
            if got is None or want is None or got[0] != want[0]:
                return (f"{self.name}: allocation maps differ at {addr:#x} "
                        f"(replay {got[0] if got else 'unallocated'} != "
                        f"interp {want[0] if want else 'unallocated'})")
            if got != want:
                return f"{self.name}: block {addr:#x} differs"
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


class ReplayDivergence(Exception):
    """The replayed run left the recorded one (see :func:`replay_run`)."""


@dataclass
class RecordedCall:
    """One call of a reference run, as :class:`CallRecorder` saw it."""

    name: str
    args: list
    #: per space, its fingerprint just before the call
    before: list
    side_before: object
    #: per space, a checkpoint of what the call changed
    after: list
    side_after: object
    raised: bool
    #: the call's result, or the exception it raised
    value: object = field(repr=False)


class CallRecorder:
    """Records the calls a reference run makes through :meth:`call`,
    with the state of every space and of ``side_state()`` (what else a
    call may change) just before and just after each."""

    def __init__(self, spaces: Sequence[LinearMemory],
                 side_state: Callable[[], object]):
        self.spaces = spaces
        self.side_state = side_state
        self.calls: list[RecordedCall] = []
        #: above 0 inside a recorded call, whose own calls are part of it
        self.depth = 0

    def call(self, name: str, args: list, invoke: Callable):
        if self.depth:
            return invoke()
        before = [mem.fingerprint() for mem in self.spaces]
        side = self.side_state()
        self.depth += 1
        try:
            value, raised = invoke(), False
        except Exception as exc:
            value, raised = exc, True
        finally:
            self.depth -= 1
        after = [mem.changes_since(fp) for mem, fp in zip(self.spaces, before)]
        self.calls.append(RecordedCall(name, list(args), before, side, after,
                                       self.side_state(), raised, value))
        if raised:
            raise value
        return value


class CallReplayer:
    """Stands in for the recorded calls, in order: call ``k`` must come
    with the recorded name and arguments (``same`` compares two values)
    and find every space and the side state as the reference did; it
    then leaves them as the reference's call did and returns (or
    raises) what it did.  A mismatch raises :class:`ReplayDivergence`."""

    def __init__(self, calls: list[RecordedCall],
                 spaces: Sequence[LinearMemory],
                 side_state: Callable[[], object],
                 restore_side: Callable[[object], None],
                 same: Callable[[object, object], bool]):
        self.calls = calls
        self.spaces = spaces
        self.side_state = side_state
        self.restore_side = restore_side
        self.same = same
        self.next = 0

    def call(self, name: str, args: list):
        k = self.next
        if k == len(self.calls):
            raise ReplayDivergence(
                f"call {k} ({name}) was not made by the reference run")
        rec = self.calls[k]
        self.next += 1
        if name != rec.name or len(args) != len(rec.args) \
                or not all(map(self.same, args, rec.args)):
            raise ReplayDivergence(
                f"call {k}: {name}{tuple(args)!r} != recorded "
                f"{rec.name}{tuple(rec.args)!r}")
        for mem, fp in zip(self.spaces, rec.before):
            diff = mem.fingerprint_difference(fp)
            if diff:
                raise ReplayDivergence(f"before call {k} ({name}): {diff}")
        if self.side_state() != rec.side_before:
            raise ReplayDivergence(
                f"before call {k} ({name}): output or state differs")
        for mem, cp in zip(self.spaces, rec.after):
            mem.rollback(cp)
        self.restore_side(rec.side_after)
        if rec.raised:
            raise rec.value
        return rec.value


def _outcome(run: Callable) -> tuple[bool, object]:
    try:
        return False, run()
    except ReplayDivergence:
        raise
    except Exception as exc:
        return True, exc


def replay_run(spaces: Sequence[LinearMemory], reference: Callable,
               fast: Callable, side_state: Callable[[], object],
               restore_side: Callable[[object], None],
               same: Callable[[object, object], bool]
               ) -> tuple[object, object, Optional[str]]:
    """:func:`differential_run` for code whose calls must not run twice.

    ``reference(recorder)`` runs first, making its calls through a
    :class:`CallRecorder`.  Every space and the side state then roll
    back to the start, and ``fast(replayer)`` runs against a
    :class:`CallReplayer` of the recording.  At the end the spaces and
    the side state must equal the reference's, unless the fast run
    raised an error of its own (not one a replayed call raised): a
    failing run stops storing where it fails, so, as when the fast side
    of :func:`differential_run` raises, its state stays and only the
    errors can be compared, which is the caller's part.

    Returns both outcomes as ``(raised, value)`` pairs (the fast one None
    when it diverged mid-run) and the first difference, or None.  The
    spaces and the side state are left as the reference left them (as
    the fast run left them when it failed on its own)."""
    start = [mem.checkpoint() for mem in spaces]
    side_start = side_state()
    recorder = CallRecorder(spaces, side_state)
    ref = _outcome(lambda: reference(recorder))
    ref_end = [mem.checkpoint() for mem in spaces]
    side_ref = side_state()
    for mem, cp in zip(spaces, start):
        mem.rollback(cp)
    restore_side(side_start)
    replayer = CallReplayer(recorder.calls, spaces, side_state, restore_side,
                            same)
    diff = None
    try:
        got = _outcome(lambda: fast(replayer))
    except ReplayDivergence as exc:
        got, diff = None, str(exc)
    if diff is None and replayer.next < len(recorder.calls):
        diff = (f"call {replayer.next} ({recorder.calls[replayer.next].name})"
                f" was not made by the replayed run")
    if diff is None and got[0] and not any(
            rec.raised and rec.value is got[1] for rec in recorder.calls):
        return got, ref, None
    fast_end = [mem.checkpoint() for mem in spaces]
    side_fast = side_state()
    for mem, cp in zip(spaces, ref_end):
        mem.rollback(cp)
    restore_side(side_ref)
    if diff is None:
        diffs = (mem.first_difference(cp) for mem, cp in zip(spaces, fast_end))
        diff = next((d for d in diffs if d), None)
    if diff is None and side_fast != side_ref:
        diff = "output or state differs at exit"
    return got, ref, diff
