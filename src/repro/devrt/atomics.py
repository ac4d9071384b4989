"""Type-generic atomic read-modify-write intrinsics.

CUDA hardware provides ``atomicAdd``/``atomicMax``/``atomicMin`` only for
a limited type/op matrix — notably *no* float ``atomicMax``/``atomicMin``
and no ``atomicMul`` at all.  Real runtimes synthesise the missing
combinations as compare-and-swap loops; the generated code here calls
these ``cudadev_atomic_red_<op>`` intrinsics instead of open-coding the
CAS loop, and the simulator executes the read-modify-write directly
(one intrinsic invocation is atomic with respect to other warps: the
scheduler only switches warps at yield points, and these never yield).

Each intrinsic takes ``(T *addr, T value)``, applies ``*addr = *addr OP
value`` per active lane in lane order, and returns the per-lane *old*
values (so ``atomic capture`` lowers onto the same entry points).  The
cost model matches :func:`~repro.cuda.sim.warp.warp_atomic`: one
``atomics`` counter tick per active lane, direct space access without
load/store instruction accounting.
"""

from __future__ import annotations

import numpy as np

from repro.cuda.sim.warp import WARP_SIZE
from repro.devrt.state import pure


def _combine_add(old, val, dtype):
    with np.errstate(over="ignore", invalid="ignore"):
        return dtype.type(old + val)


def _combine_sub(old, val, dtype):
    with np.errstate(over="ignore", invalid="ignore"):
        return dtype.type(old - val)


def _combine_mul(old, val, dtype):
    with np.errstate(over="ignore", invalid="ignore"):
        return dtype.type(old * val)


def _combine_max(old, val, dtype):
    return max(old, dtype.type(val))


def _combine_min(old, val, dtype):
    return min(old, dtype.type(val))


def _combine_and(old, val, dtype):
    return dtype.type(old & dtype.type(val))


def _combine_or(old, val, dtype):
    return dtype.type(old | dtype.type(val))


def _combine_xor(old, val, dtype):
    return dtype.type(old ^ dtype.type(val))


def _make_atomic_red(name: str, combine):
    def fn(warp, mask, args):
        stats = warp.engine.stats
        addrs = np.broadcast_to(
            np.asarray(args[0], dtype=np.uint64), (WARP_SIZE,))
        vals = np.asarray(args[1])
        if vals.ndim == 0:
            vals = np.full(WARP_SIZE, vals)
        dtype = vals.dtype
        olds = np.zeros(WARP_SIZE, dtype=dtype)
        for lane in np.flatnonzero(mask):
            stats.atomics += 1
            addr = int(addrs[lane])
            space = warp.engine.resolve_space(warp, addr)
            old = space.load(addr, dtype)
            olds[lane] = old
            space.store(addr, dtype, combine(old, vals[lane], dtype))
        return olds

    fn.__name__ = name
    return pure(fn)


ATOMIC_RED_OPS = {
    "add": _combine_add,
    "sub": _combine_sub,
    "mul": _combine_mul,
    "max": _combine_max,
    "min": _combine_min,
    "and": _combine_and,
    "or": _combine_or,
    "xor": _combine_xor,
}

ATOMIC_RED_INTRINSICS = {
    f"cudadev_atomic_red_{op}": _make_atomic_red(
        f"cudadev_atomic_red_{op}", combine)
    for op, combine in ATOMIC_RED_OPS.items()
}
