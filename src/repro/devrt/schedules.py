"""Loop worksharing: the two-phase chunk distribution of paper §3.1.

Phase 1 — ``cudadev_get_distribute_chunk``: every thread computes the
chunk destined for *its team* (contiguous static distribution over teams,
the only ``dist_schedule`` the paper supports).

Phase 2 — ``cudadev_get_{static,dynamic,guided}_chunk``: threads of the
team carve the team chunk.  All three share the calling convention the
generated code uses::

    long _tlo, _thi;
    while (cudadev_get_static_chunk(loop_id, lo, hi, chunk, &_tlo, &_thi)) {
        for (i = _tlo; i < _thi; i++) ...
    }

Each call hands the calling thread its next chunk and returns 0 when the
thread's share is exhausted.  State is per (block, loop id); it resets
once every participating thread has drained, so a worksharing loop nested
in a sequential loop re-runs correctly.
"""

from __future__ import annotations

import numpy as np

from repro.cuda.sim.warp import WarpExec
from repro.devrt.state import (
    block_state, pure, region_thread_ids, region_threads, store_out, uniform,
)


def _team_bounds(warp: WarpExec, lo: int, hi: int) -> tuple[int, int]:
    gx, gy, gz = warp.block.grid_dim
    cx, cy, cz = warp.block.block_idx
    nteams = gx * gy * gz
    team = cx + gx * (cy + gy * cz)
    n = max(hi - lo, 0)
    chunk = (n + nteams - 1) // nteams
    tlo = lo + team * chunk
    thi = min(tlo + chunk, hi)
    return tlo, min(thi, hi)


@pure
def cudadev_get_distribute_chunk(warp: WarpExec, mask, args):
    """Phase-1 distribution: this team's contiguous chunk of [lo, hi)."""
    lo = int(uniform(args[0], mask))
    hi = int(uniform(args[1], mask))
    tlo, thi = _team_bounds(warp, lo, hi)
    store_out(warp, args[2], np.int64, np.full(mask.size, tlo, dtype=np.int64), mask)
    store_out(warp, args[3], np.int64, np.full(mask.size, thi, dtype=np.int64), mask)
    return None


def _sched_state(warp: WarpExec, loop_id: int, kind: str, lo: int, hi: int,
                 nthreads: int) -> dict:
    devrt = block_state(warp)
    sched = devrt["sched"]
    state = sched.get(loop_id)
    if state is None or state.get("finished"):
        nthreads_block = devrt["nthreads_block"]
        state = {
            "kind": kind,
            "lo": lo, "hi": hi,
            "calls": np.zeros(max(nthreads_block, 1), dtype=np.int64),
            "next": lo,                  # dynamic/guided shared counter
            "drained": np.zeros(max(nthreads_block, 1), dtype=bool),
            "finished": False,
        }
        sched[loop_id] = state
    return state


def _mark_drained(state: dict, tids: np.ndarray, lanes: np.ndarray,
                  nthreads: int) -> None:
    state["drained"][tids[lanes] % state["drained"].size] = True
    if int(state["drained"][:nthreads].sum()) >= nthreads:
        state["finished"] = True


def _chunk_call(warp: WarpExec, mask, args, kind: str):
    loop_id = int(uniform(args[0], mask))
    lo = int(uniform(args[1], mask))
    hi = int(uniform(args[2], mask))
    chunk = int(uniform(args[3], mask))
    nthreads = region_threads(warp)
    tids = region_thread_ids(warp)
    state = _sched_state(warp, loop_id, kind, lo, hi, nthreads)
    tlo = np.zeros(mask.size, dtype=np.int64)
    thi = np.zeros(mask.size, dtype=np.int64)
    got = np.zeros(mask.size, dtype=np.int32)
    active = np.flatnonzero(mask)
    if kind == "static":
        got[:] = _static_chunks(state["calls"], tids, active, lo, hi, chunk,
                                nthreads, tlo, thi)
    elif kind in ("dynamic", "guided"):
        if chunk <= 0:
            chunk = 1
        # per-lane sequential grabs from the shared counter (atomicity is
        # provided by the cooperative scheduler: intrinsics are not preempted)
        for lane in active:
            remaining = hi - state["next"]
            if remaining <= 0:
                got[lane] = 0
                _mark_drained(state, tids, np.array([lane]), nthreads)
                continue
            if kind == "guided":
                size = max((remaining + nthreads - 1) // nthreads, chunk)
            else:
                size = chunk
            tlo[lane] = state["next"]
            thi[lane] = min(state["next"] + size, hi)
            state["next"] = int(thi[lane])
            got[lane] = 1
    else:  # pragma: no cover
        raise ValueError(kind)
    store_out(warp, args[4], np.int64, tlo, mask)
    store_out(warp, args[5], np.int64, thi, mask)
    return got


def _static_chunks(calls: np.ndarray, tids: np.ndarray, active: np.ndarray,
                   lo: int, hi: int, chunk: int, nthreads: int,
                   tlo: np.ndarray, thi: np.ndarray) -> np.ndarray:
    """Static-schedule iterator step.  State is per-lane (a call counter),
    and resets per lane on exhaustion, so a statically-scheduled
    worksharing loop can be re-entered (nested chunk loops of the 2D
    combined-construct lowering rely on this)."""
    got = np.zeros(tlo.shape, dtype=np.int32)
    n = max(hi - lo, 0)
    if chunk <= 0:
        block = (n + nthreads - 1) // nthreads if nthreads else 0
        cnt = calls[tids[active]]
        starts = lo + tids[active].astype(np.int64) * block
        ends = np.minimum(starts + block, hi)
        ok = (cnt == 0) & (starts < ends)
    else:
        cnt = calls[tids[active]]
        idx = tids[active].astype(np.int64) + cnt * nthreads
        starts = lo + idx * chunk
        ends = np.minimum(starts + chunk, hi)
        ok = starts < hi
    tlo[active] = starts
    thi[active] = ends
    got[active] = ok.astype(np.int32)
    # advance lanes that received work; reset exhausted lanes
    calls[tids[active]] = np.where(ok, cnt + 1, 0)
    return got


@pure
def cudadev_get_static_chunk(warp: WarpExec, mask, args):
    return _chunk_call(warp, mask, args, "static")


def _dim_of(warp: WarpExec, dim: int) -> tuple[int, int, int, int]:
    """(block coordinate, grid size, per-lane thread coordinate array is
    handled by caller) for dimension 0=x, 1=y, 2=z."""
    gx, gy, gz = warp.block.grid_dim
    cx, cy, cz = warp.block.block_idx
    return ((cx, gx), (cy, gy), (cz, gz))[dim]


@pure
def cudadev_get_distribute_chunk_dim(warp: WarpExec, mask, args):
    """2D/3D distribute (paper §5: OMPi "maps these values to two
    dimensions, so as to match the block and grid dimensions of the
    equivalent cuda applications"): this team's contiguous chunk of
    [lo, hi) along one grid dimension."""
    dim = int(uniform(args[0], mask))
    lo = int(uniform(args[1], mask))
    hi = int(uniform(args[2], mask))
    team, nteams = _dim_of(warp, dim)
    n = max(hi - lo, 0)
    chunk = (n + nteams - 1) // nteams
    tlo = min(lo + team * chunk, hi)
    thi = min(tlo + chunk, hi)
    store_out(warp, args[3], np.int64,
              np.full(mask.size, tlo, dtype=np.int64), mask)
    store_out(warp, args[4], np.int64,
              np.full(mask.size, thi, dtype=np.int64), mask)
    return None


def _lane_coord(warp: WarpExec, dim: int) -> tuple[np.ndarray, int]:
    bx, by, bz = warp.block.block_dim
    if dim == 0:
        return warp.tid_x.astype(np.int64), bx
    if dim == 1:
        return warp.tid_y.astype(np.int64), by
    return warp.tid_z.astype(np.int64), bz


@pure
def cudadev_get_static_chunk_dim(warp: WarpExec, mask, args):
    """Static schedule along one block dimension (thread coordinate
    tid.{x,y,z} over blockDim.{x,y,z})."""
    dim = int(uniform(args[0], mask))
    loop_id = int(uniform(args[1], mask))
    lo = int(uniform(args[2], mask))
    hi = int(uniform(args[3], mask))
    chunk = int(uniform(args[4], mask))
    coords, nthreads = _lane_coord(warp, dim)
    devrt = block_state(warp)
    key = ("dim", loop_id, dim)
    calls = devrt["sched"].get(key)
    if calls is None:
        calls = np.zeros(max(devrt["nthreads_block"], 1), dtype=np.int64)
        devrt["sched"][key] = calls
    tlo = np.zeros(mask.size, dtype=np.int64)
    thi = np.zeros(mask.size, dtype=np.int64)
    got = np.zeros(mask.size, dtype=np.int32)
    active = np.flatnonzero(mask)
    # per-lane call counter indexed by the lane's linear thread id
    lane_ids = warp.lane_linear[active]
    cnt = calls[lane_ids]
    n = max(hi - lo, 0)
    if chunk <= 0:
        block = (n + nthreads - 1) // nthreads if nthreads else 0
        starts = lo + coords[active] * block
        ends = np.minimum(starts + block, hi)
        ok = (cnt == 0) & (starts < ends)
    else:
        idx = coords[active] + cnt * nthreads
        starts = lo + idx * chunk
        ends = np.minimum(starts + chunk, hi)
        ok = starts < hi
    tlo[active] = starts
    thi[active] = ends
    got[active] = ok.astype(np.int32)
    calls[lane_ids] = np.where(ok, cnt + 1, 0)   # reset exhausted lanes
    store_out(warp, args[5], np.int64, tlo, mask)
    store_out(warp, args[6], np.int64, thi, mask)
    return got


@pure
def cudadev_get_dynamic_chunk(warp: WarpExec, mask, args):
    return _chunk_call(warp, mask, args, "dynamic")


@pure
def cudadev_get_guided_chunk(warp: WarpExec, mask, args):
    return _chunk_call(warp, mask, args, "guided")
