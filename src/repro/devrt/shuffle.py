"""Warp shuffle intrinsics (``__shfl_*_sync``) on lockstep lanes.

The functional simulator executes a warp as 32 numpy lanes in lockstep,
so a shuffle is a permutation gather over the value register.  Matching
CUDA semantics for the cases the reduction epilogue generates:

* an out-of-range source lane returns the calling lane's own value
  (CUDA: the value is unchanged for ``__shfl_down/up`` past the segment
  edge);
* the member-mask argument is accepted and ignored — the simulator runs
  all 32 lanes of a warp in lockstep, so every lane's register is
  defined, and generated code guards combines against inactive lanes
  itself (``if (lane + off < warp_active)``), exactly as hand-written
  CUDA reductions do.

The shuffles are width-generic, like the other block-local intrinsics
(:mod:`repro.devrt.state`): the lane count is ``mask.size``, a multiple
of 32, and each 32-lane segment is one warp.  A source lane is the
segment's base plus the lane, so one block-wide call gathers within
every warp at once, and an out-of-range source keeps the lane's own
value per warp.  They never suspend (:func:`~repro.devrt.state.pure`).
"""

from __future__ import annotations

import numpy as np

from repro.cuda.sim.warp import WARP_SIZE
from repro.devrt.state import pure

#: lane count -> (lane within its warp, first lane of its warp)
_LANE_MAPS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _lanes(n: int) -> tuple[np.ndarray, np.ndarray]:
    maps = _LANE_MAPS.get(n)
    if maps is None:
        idx = np.arange(n)
        lane = idx % WARP_SIZE
        base = idx - lane
        lane.setflags(write=False)
        base.setflags(write=False)
        maps = _LANE_MAPS[n] = (lane, base)
    return maps


def _pick(value, src: np.ndarray) -> np.ndarray:
    """Gather ``value`` at lane ``src`` of each lane's own warp; an
    out-of-range source keeps the lane's own value."""
    n = src.size
    value = np.asarray(value)
    if value.ndim == 0:
        value = np.full(n, value)
    lane, base = _lanes(n)
    valid = (src >= 0) & (src < WARP_SIZE)
    return value[base + np.where(valid, src, lane)]


def _sel(arg, n: int) -> np.ndarray:
    sel = np.asarray(arg)
    if sel.ndim == 0:
        sel = np.full(n, sel)
    return sel.astype(np.int64, copy=False)


@pure
def shfl_sync(warp, mask, args):
    _member, value, src_lane = args
    return _pick(value, _sel(src_lane, mask.size))


@pure
def shfl_down_sync(warp, mask, args):
    _member, value, delta = args
    return _pick(value, _lanes(mask.size)[0] + _sel(delta, mask.size))


@pure
def shfl_up_sync(warp, mask, args):
    _member, value, delta = args
    return _pick(value, _lanes(mask.size)[0] - _sel(delta, mask.size))


@pure
def shfl_xor_sync(warp, mask, args):
    _member, value, lane_mask = args
    return _pick(value, _lanes(mask.size)[0] ^ _sel(lane_mask, mask.size))
