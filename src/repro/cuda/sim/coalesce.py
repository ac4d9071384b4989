"""Global-memory coalescing model.

Maxwell services a warp's global access in 32-byte sectors: the number of
DRAM transactions for one warp-wide load/store equals the number of
distinct 32-byte segments spanned by the active lanes.  A fully coalesced
float32 access by 32 lanes touches 4 segments; a fully scattered one
touches 32.  This count feeds the timing model's memory term.

:func:`transactions` is the model itself; the tree walk calls it through
:data:`transactions_memo`.  The compiled kernel's accesses count a lane
*progression* (lane ``i`` at ``lane0 + stride * i``) in closed form with
:func:`progression_transactions`, and only irregular accesses through the
memo.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.cuda.sim.warp import WARP_SIZE

SEGMENT_BYTES = 32


def transactions(addrs: np.ndarray, itemsize: int, mask: np.ndarray) -> int:
    """Number of 32-byte segments touched by the active lanes."""
    if itemsize <= SEGMENT_BYTES:
        # an element can span at most two segments: count the distinct
        # values of first∪last.  At warp width (32 lanes) plain Python
        # integers beat numpy's per-call dispatch by a wide margin.  When
        # the active addresses are nondecreasing (every warp-linear access
        # pattern), both sequences are sorted and a running high-water
        # count needs no set at all.
        span = itemsize - 1
        count = 0
        prev_a = -1
        prev_seg = -1
        for a, on in zip(addrs.tolist(), mask.tolist()):
            if not on:
                continue
            if a < prev_a:
                break  # non-monotonic: fall through to the set-based count
            prev_a = a
            f = a // SEGMENT_BYTES
            l = (a + span) // SEGMENT_BYTES
            if f > prev_seg:
                count += 2 if l > f else 1
            elif l > prev_seg:
                count += 1
            prev_seg = l
        else:
            return count
        segs = set()
        add = segs.add
        for a, on in zip(addrs.tolist(), mask.tolist()):
            if on:
                add(a // SEGMENT_BYTES)
                add((a + span) // SEGMENT_BYTES)
        return len(segs)
    if not mask.any():  # pragma: no cover - no >32B elements in this repro
        return 0
    active = addrs[mask].astype(np.int64)
    first = active // SEGMENT_BYTES
    last = (active + itemsize - 1) // SEGMENT_BYTES
    segs = np.concatenate(
        [np.arange(f, l + 1) for f, l in zip(first, last)]
    )  # pragma: no cover
    return int(np.unique(segs).size)  # pragma: no cover


# -- closed form for lane progressions ------------------------------------------
# The count is invariant under translating every address by a multiple of
# 32 (all segment indices shift uniformly).  In a progression over whole
# warps, lane 0 of warp w sits at lane0 + 32*w*stride, which is lane0
# modulo 32 for every warp: each warp's count is a function of
# (lane0 & 31, stride, itemsize, the warp's 32 mask bytes) alone.

_ALL_LANES = b"\x01" * WARP_SIZE
_NO_LANES = bytes(WARP_SIZE)


@functools.lru_cache(maxsize=1 << 14)
def _warp_count(r: int, stride: int, itemsize: int, lanes: bytes) -> int:
    """Segments of one warp whose lane ``i`` reads ``r + stride * i``
    under the mask bytes ``lanes``."""
    addrs = np.arange(WARP_SIZE, dtype=object) * stride + r
    return transactions(addrs, itemsize, np.frombuffer(lanes, dtype=bool))


@functools.lru_cache(maxsize=1 << 10)
def _residue_counts(stride: int, itemsize: int) -> np.ndarray:
    """Segments of a whole warp by its lane 0's address & 31."""
    counts = np.array([_warp_count(r, stride, itemsize, _ALL_LANES)
                       for r in range(SEGMENT_BYTES)], dtype=np.int64)
    counts.setflags(write=False)
    return counts


def progression_transactions(lane0, stride: int, itemsize: int,
                             lanes: bytes, nwarps: int) -> int:
    """:func:`transactions` summed over the warps of an access whose lane
    ``i`` of warp ``w`` reads ``lane0 + stride * (32 * w + i)`` (``lane0``
    an int: one progression over the whole access) or ``lane0[w] +
    stride * i`` (``lane0`` a uint64 array: one progression per warp),
    under the mask whose bytes are ``lanes``, of which ``nwarps`` warps
    have an active lane."""
    whole = lanes.count(1) == nwarps * WARP_SIZE
    if type(lane0) is int:
        r = lane0 & (SEGMENT_BYTES - 1)
        if whole:
            return nwarps * _warp_count(r, stride, itemsize, _ALL_LANES)
    elif whole and nwarps * WARP_SIZE == len(lanes):
        return int(_residue_counts(stride, itemsize)[
            lane0 & np.uint64(SEGMENT_BYTES - 1)].sum())
    total = 0
    first = lanes.find(1)
    for lo in range(first - first % WARP_SIZE, lanes.rfind(1) + 1,
                    WARP_SIZE):
        warp = lanes[lo:lo + WARP_SIZE]
        if warp != _NO_LANES:
            if type(lane0) is not int:
                r = lane0.item(lo // WARP_SIZE) & (SEGMENT_BYTES - 1)
            total += _warp_count(r, stride, itemsize, warp)
    return total


# -- memoized coalescing ----------------------------------------------------------
# A kernel's irregular accesses repeat a handful of address *shapes*: the
# same relative pattern at different bases (each loop iteration, each
# block).  By the translation invariance above the count is fully
# determined by (base offset within a segment, per-lane deltas from lane
# 0, itemsize, active mask) — uint64 wraparound in the deltas is harmless
# because subtraction mod 2^64 is itself translation-invariant.  Keying on
# that shape turns the per-warp Python segment walk into one dict probe.
# The same key works for a wide access of many warps (one block, or
# several blocks on one lane axis), whose count is the per-warp counts
# summed.  Its deltas and lanes would make a key of 9 bytes per lane, so a
# wide key holds their SHA-256 digest instead: no key then grows with the
# width, and the memo's memory stays bounded.


class TransactionMemo:
    """Memoized per-warp :func:`transactions`, summed over the 32-lane
    warps of an access, holding at most ``max_bytes`` of keys (counted
    with a fixed per-entry overhead); on overflow it starts over empty."""

    #: bytes of dict slot, key tuple and object headers per entry
    ENTRY_OVERHEAD = 256

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self._memo)

    def clear(self) -> None:
        self._memo.clear()
        self.nbytes = 0

    def __call__(self, addrs: np.ndarray, itemsize: int,
                 mask: np.ndarray) -> int:
        deltas = (addrs - addrs[0]).tobytes()
        lanes = mask.tobytes()
        if mask.size == WARP_SIZE:
            key = (int(addrs[0]) & 31, int(itemsize), deltas, lanes)
        else:
            digest = hashlib.sha256(deltas)
            digest.update(lanes)
            key = (int(addrs[0]) & 31, int(itemsize), mask.size,
                   digest.digest())
        n = self._memo.get(key)
        if n is None:
            size = self.ENTRY_OVERHEAD + (len(deltas) + len(lanes)
                                          if mask.size == WARP_SIZE else
                                          len(key[-1]))
            if self.nbytes + size > self.max_bytes:
                self.clear()
            n = sum(transactions(addrs[lo:lo + WARP_SIZE], itemsize,
                                 mask[lo:lo + WARP_SIZE])
                    for lo in range(0, mask.size, WARP_SIZE))
            self._memo[key] = n
            self.nbytes += size
        return n


#: the process-wide memo (16 MiB: about 30k warp-wide or 58k wide shapes,
#: more than any suite kernel uses)
transactions_memo = TransactionMemo(16 << 20)
