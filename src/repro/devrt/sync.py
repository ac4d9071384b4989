"""Locks and ``critical`` regions (paper §4.2.2).

"We implement locks through busy-spinning with atomic compare and swap
(CAS) instructions on a global control variable; it gets the value of 1 by
the thread that acquires the lock, while the rest of the threads wait
until the variable becomes 0 and the lock is released."

Lockstep warps make the naive acquire/body/release sequence deadlock on
pre-Volta hardware (one lane would hold the lock while its warp spins), so
the code OMPi generates around ``critical`` is the classic CAS-win retry
loop, serialising the region across lanes *and* warps::

    int _done = 0;
    while (!_done) {
        if (cudadev_trylock(id) == 0) {   // one lane wins the CAS
            ...critical body...           // executes with only that lane
            cudadev_unlock(id);
            _done = 1;
        }
    }

``cudadev_trylock`` performs one CAS attempt per active lane (lane-serial,
like hardware atomics), so exactly one lane at a time wins; the retry loop
yields to the warp scheduler between attempts, so warps contend fairly.
``cudadev_lock`` (blocking) is also provided for contexts where a single
active lane is guaranteed (master-thread bookkeeping).
"""

from __future__ import annotations

import numpy as np

from repro.cuda.sim.warp import WARP_SIZE, WarpExec
from repro.devrt.state import pure, uniform


def _lock_cell(warp: WarpExec, lock_id: int) -> int:
    """Address of the lock's global control variable (allocated on the
    launch's first use; the engine frees it when the launch ends)."""
    engine = warp.engine
    cells = engine.lock_cells
    addr = cells.get(lock_id)
    if addr is None:
        addr = engine.gmem.alloc(4, align=4)
        engine.gmem.store(addr, np.int32, 0)
        cells[lock_id] = addr
    return addr


@pure
def cudadev_trylock(warp: WarpExec, mask, args):
    """One CAS attempt per active lane, in lane order; returns the old lock
    value per lane (0 = this lane acquired)."""
    lock_id = int(uniform(args[0], mask))
    addr = _lock_cell(warp, lock_id)
    gmem = warp.engine.gmem
    olds = np.ones(WARP_SIZE, dtype=np.int32)
    for lane in np.flatnonzero(mask):
        warp.engine.stats.atomics += 1
        old = int(gmem.load(addr, np.int32))
        olds[lane] = old
        if old == 0:
            gmem.store(addr, np.int32, 1)
    return olds


def cudadev_lock(warp: WarpExec, mask, args):
    """Blocking acquire — valid only when a single lane is active (the
    master thread); raises otherwise to catch misgenerated code."""
    if int(mask.sum()) != 1:
        raise RuntimeError(
            "cudadev_lock with multiple active lanes would deadlock a "
            "lockstep warp; the compiler must emit the trylock pattern"
        )
    lock_id = int(uniform(args[0], mask))
    addr = _lock_cell(warp, lock_id)
    gmem = warp.engine.gmem
    while True:
        warp.engine.stats.atomics += 1
        if int(gmem.load(addr, np.int32)) == 0:
            gmem.store(addr, np.int32, 1)
            return None
        yield ("spin",)


@pure
def cudadev_unlock(warp: WarpExec, mask, args):
    lock_id = int(uniform(args[0], mask))
    addr = _lock_cell(warp, lock_id)
    warp.engine.gmem.store(addr, np.int32, 0)
    return None
