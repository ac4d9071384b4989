"""Per-block device-runtime state and shared helpers for intrinsics.

Intrinsics are generator functions ``fn(warp, mask, args)`` that may yield
scheduler events (barriers, spins) and return a per-lane numpy array (or
None).  The per-block state lives in ``warp.block.devrt`` — on the real
GPU this is a control area at the base of shared memory; keeping it as a
Python dict is equivalent because all warps of a block share it.

``warp`` is the tree walk's :class:`~repro.cuda.sim.warp.WarpExec` or a
compiled :class:`~repro.cuda.sim.compile.CompiledBlockExec`.  Every
intrinsic but the block-local ones (see :mod:`repro.cuda.sim.locality`)
is called with the 32 lanes of one warp.  The block-local intrinsics are
width-generic: the lane count is ``mask.size`` and the lane ids are
``warp.lane_linear`` and ``warp.tid_*``.  Such an intrinsic reads every
:func:`uniform` argument before its first side effect, so a call
:func:`uniform` rejects at block width leaves no trace and can be made
again per warp.
"""

from __future__ import annotations

import numpy as np

from repro.cuda.sim.compile import (
    CompiledBlockExec, NonUniform, _fstore, _nw,
)
from repro.cuda.sim.warp import WARP_SIZE, WarpExec

#: Named-barrier ids reserved by the runtime (paper §3.2): B1 synchronises
#: the master thread with all workers, B2 only the region participants.
B1 = 1
B2 = 2
#: barrier id used by explicit ``#pragma omp barrier`` inside regions
B_OMP = 3

#: number of threads every master/worker kernel is launched with (§4.2.2:
#: "ompi initiates kernels with a fixed number of 128 threads")
MW_BLOCK_THREADS = 128
#: worker threads available to parallel regions (128 - the master warp)
MW_WORKERS = 96


def block_state(warp: WarpExec) -> dict:
    """Lazily initialised per-block runtime state."""
    devrt = warp.block.devrt
    if "init" not in devrt:
        bx, by, bz = warp.block.block_dim
        devrt.update(
            init=True,
            mode="combined",
            nthreads_block=bx * by * bz,
            shmem_sp=warp.kernel.smem_static,
            mw={
                "registered": None,     # (fid, args_addr, nthreads)
                "exit": False,
                "in_region": False,
                "nthreads": 1,
            },
            sched={},                   # loop_id -> schedule state
            sections={},                # loop_id -> section state
            locks={},                   # lock_id -> 0/1
        )
    return devrt


def region_threads(warp: WarpExec) -> int:
    """Number of threads in the current parallel binding region."""
    devrt = block_state(warp)
    if devrt["mode"] == "mw":
        mw = devrt["mw"]
        return mw["nthreads"] if mw["in_region"] else 1
    return devrt["nthreads_block"]


def region_thread_ids(warp: WarpExec) -> np.ndarray:
    """Per-lane OpenMP thread numbers within the binding region.  Under
    the master/worker scheme the ids repeat across warps (every lane
    outside a region is thread 0), so per-thread runtime state indexed by
    them is shared between warps: a block-wide call is refused."""
    devrt = block_state(warp)
    if devrt["mode"] == "mw":
        if warp.lane_linear.size != WARP_SIZE:
            raise NonUniform("master/worker thread ids")
        # master is thread 0; workers (linear tid 32..127) are 0..95 in-region
        if devrt["mw"]["in_region"]:
            return np.maximum(warp.lane_linear - WARP_SIZE, 0).astype(np.int32)
        return np.zeros(warp.lane_linear.size, dtype=np.int32)
    return warp.lane_linear.astype(np.int32)


def _first_lanes(mask: np.ndarray):
    """Index of each active warp's first active lane."""
    lanes = mask.tobytes()
    if b"\x00" not in lanes:
        return slice(None, None, WARP_SIZE)
    firsts = []
    for lo in range(0, len(lanes), WARP_SIZE):
        i = lanes.find(b"\x01", lo, lo + WARP_SIZE)
        if i >= 0:
            firsts.append(i)
    return firsts


def uniform(value, mask: np.ndarray):
    """Extract the first active lane's value from a possibly per-lane arg.

    At block width every active warp reads its own first active lane, as
    it would calling alone; if those values differ the call cannot be
    made once for the block and :class:`NonUniform` is raised.  This is
    the only place an intrinsic reads a scalar from lanes."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return arr.item()
    if mask.size == WARP_SIZE:
        return arr[int(np.argmax(mask))].item()
    firsts = arr[_first_lanes(mask)].tolist()
    first = firsts[0]
    if firsts.count(first) != len(firsts):
        raise NonUniform(f"per-warp values {firsts}")
    return first


def pure(fn):
    """Wrap a non-suspending intrinsic as a generator."""

    def gen(warp, mask, args):
        return fn(warp, mask, args)
        yield  # pragma: no cover - makes this a generator function

    gen.__name__ = fn.__name__
    gen.__doc__ = fn.__doc__
    return gen


def store_out(warp: WarpExec, addr_arg, dtype, values, mask: np.ndarray) -> None:
    """Store per-lane values through a per-lane pointer argument.  The
    tree walk's warp stores through the engine's ``mem_store`` (the
    reference); a compiled executor of any width through ``_fstore``,
    the access routine of its own loads and stores, which counts one
    store per active warp and splits per warp when the warps' pointers
    leave one address space."""
    if isinstance(warp, CompiledBlockExec):
        _fstore(warp.engine, warp, addr_arg, np.dtype(dtype), values, mask,
                _nw(mask))
    else:
        warp.engine.mem_store(warp, np.asarray(addr_arg, dtype=np.uint64),
                              np.dtype(dtype), values, mask)
