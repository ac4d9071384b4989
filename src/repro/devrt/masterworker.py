"""The master/worker scheme for standalone parallel regions (paper §3.2).

Kernels that contain non-combined ``parallel`` constructs launch with 128
threads: warp 0 is the *master warp* (only thread 0 survives; the other 31
return immediately), warps 1-3 are *worker warps* holding 96 worker
threads.  Workers sit in an infinite loop inside ``cudadev_workerfunc``:

    loop:
        bar.sync B1, 128          # wait for work (or exit)
        if exit flag: return
        if my id < nthreads: run the registered thread function
        bar.sync B2, W*ceil(N/W)  # participants only
        bar.sync B1, 128          # region end

The master thread executes the sequential parts and, per parallel region,
``cudadev_register_parallel``: it publishes (function id, argument block
pointer, nthreads), arrives at B1 to wake the workers, then arrives at the
closing B1 to wait for region completion.  ``cudadev_exit_target`` raises
the exit flag and performs the final B1.
"""

from __future__ import annotations

import numpy as np

from repro.cuda.sim.warp import WARP_SIZE, WarpExec
from repro.devrt.state import (
    B1, B2, MW_BLOCK_THREADS, MW_WORKERS, block_state, pure, uniform,
)


@pure
def cudadev_target_init(warp: WarpExec, mask, args):
    """Entry call emitted at the top of every generated kernel: selects the
    execution mode (0 = combined construct, 1 = master/worker)."""
    mode = uniform(args[0], mask)
    devrt = block_state(warp)
    devrt["mode"] = "mw" if mode == 1 else "combined"
    return None


@pure
def cudadev_in_masterwarp(warp: WarpExec, mask, args):
    thrid = np.broadcast_to(np.asarray(args[0]), mask.shape)
    return (thrid < WARP_SIZE).astype(np.int32)


@pure
def cudadev_is_masterthr(warp: WarpExec, mask, args):
    thrid = np.broadcast_to(np.asarray(args[0]), mask.shape)
    return (thrid == 0).astype(np.int32)


@pure
def cudadev_getaddr(warp: WarpExec, mask, args):
    """Identity on device addresses (the generated code routes global
    pointers through this for uniformity with shared-memory pushes)."""
    return np.broadcast_to(np.asarray(args[0], dtype=np.uint64), mask.shape).copy()


def cudadev_register_parallel(warp: WarpExec, mask, args):
    """Master-side: publish a parallel region and run it to completion."""
    devrt = block_state(warp)
    fid = int(uniform(args[0], mask))
    args_addr = int(uniform(args[1], mask))
    nthreads = int(uniform(args[2], mask))
    if nthreads <= 0 or nthreads > MW_WORKERS:
        nthreads = MW_WORKERS
    mw = devrt["mw"]
    mw["registered"] = (fid, args_addr, nthreads)
    mw["nthreads"] = nthreads
    yield ("bar", B1, MW_BLOCK_THREADS)   # wake the workers
    yield ("bar", B1, MW_BLOCK_THREADS)   # wait for region completion
    mw["registered"] = None
    return None


def cudadev_workerfunc(warp: WarpExec, mask, args):
    """Worker-side infinite loop (threads of warps 1..3)."""
    devrt = block_state(warp)
    mw = devrt["mw"]
    my_id = warp.lane_linear - WARP_SIZE   # worker thread ids 0..95
    while True:
        yield ("bar", B1, MW_BLOCK_THREADS)
        if mw["exit"]:
            return None
        reg = mw["registered"]
        if reg is None:      # spurious wake (defensive; cannot normally happen)
            continue
        fid, args_addr, nthreads = reg
        participate = mask & (my_id >= 0) & (my_id < nthreads)
        if participate.any():
            mw["in_region"] = True
            arg_vec = np.full(mask.size, args_addr, dtype=np.uint64)
            yield from warp.call_subfunction(fid, [arg_vec], participate)
            mw["in_region"] = False
            rounded = WARP_SIZE * ((nthreads + WARP_SIZE - 1) // WARP_SIZE)
            yield ("bar", B2, rounded)
        yield ("bar", B1, MW_BLOCK_THREADS)


def cudadev_exit_target(warp: WarpExec, mask, args):
    """Master-side: terminate all worker warps at the end of the target
    region."""
    devrt = block_state(warp)
    devrt["mw"]["exit"] = True
    yield ("bar", B1, MW_BLOCK_THREADS)
    return None
