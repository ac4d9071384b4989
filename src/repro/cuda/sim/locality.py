"""Static locality facts about kernel IR, scanned once per kernel.

Two execution decisions rest on the same question — can a warp of this
kernel observe another warp? — and read it from here:

* representative-block sampling (``CudaDriver``) may run a subset of
  blocks and warps only when the kernel does not *communicate*;
* block-wide execution (``FunctionalEngine``) may run all warps of a
  block on one lane axis only when, in addition, the kernel does not
  print (stdout order follows the warps).

The same whitelist (:func:`local_call`) also tells the block-wide
executor which runtime calls it may make once for the whole block
instead of once per warp.

A kernel communicates when its body or any subfunction contains a
barrier, an atomic, or a call into the device runtime outside the
block-local whitelist below.  These are the SPMD-mode kernels of the
combined constructs: every thread runs the same region and nothing is
handed from a master to workers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.cuda.ptx.ir import Atom, BarOp, CallOp, KernelIR, LoopOp, PrintfOp, walk_ops

#: device-runtime calls that read only per-block state and the calling
#: lanes' own pointers (besides the ``__ld*`` / ``__local_base`` pseudo
#: ops and the ``omp_*`` queries)
_LOCAL_CALLS = frozenset({
    "cudadev_target_init",
    "cudadev_get_distribute_chunk",
    "cudadev_get_static_chunk",
    "cudadev_get_distribute_chunk_dim",
    "cudadev_get_static_chunk_dim",
})

#: ops that may suspend a warp (a barrier, or a runtime call that may
#: wait on one); atomics count too, as spin-lock loops are built on them
_SUSPENDING = (BarOp, Atom, CallOp)


def local_call(name: str) -> bool:
    """Whether a call to ``name`` is block-local: a pseudo op or a
    runtime call in the whitelist."""
    return (name.startswith("__ld") or name == "__local_base"
            or name.startswith("omp_") or name in _LOCAL_CALLS)


@dataclass(frozen=True)
class Locality:
    #: a barrier, an atomic or a non-whitelisted runtime call somewhere
    communicates: bool
    #: a device printf somewhere
    prints: bool

    @property
    def block_wide(self) -> bool:
        """All warps of a block may share one lane axis."""
        return not (self.communicates or self.prints)


def _scan(kernel: KernelIR) -> Locality:
    communicates = prints = False
    for body in [kernel.body] + [s.body for s in kernel.subfunctions.values()]:
        for op in walk_ops(body):
            if isinstance(op, (BarOp, Atom)):
                communicates = True
            elif isinstance(op, CallOp) and not local_call(op.name):
                communicates = True
            elif isinstance(op, PrintfOp):
                prints = True
    return Locality(communicates, prints)


_CACHE: dict[int, Locality] = {}


def kernel_locality(kernel: KernelIR) -> Locality:
    """The kernel's :class:`Locality`, scanned on first use; the entry
    dies with the kernel, so a recycled ``id`` never sees a stale one."""
    key = id(kernel)
    loc = _CACHE.get(key)
    if loc is None:
        loc = _scan(kernel)
        _CACHE[key] = loc
        weakref.finalize(kernel, _CACHE.pop, key, None)
    return loc


def loop_may_block(loop: LoopOp) -> bool:
    """Whether an iteration of ``loop`` may suspend the warp; such loops
    hand control back to the block scheduler once per iteration (a
    ``spin``), so a spinning warp cannot starve the warp it waits on."""
    return any(isinstance(op, _SUSPENDING)
               for ops in (loop.body_ops, loop.cond_ops)
               for op in walk_ops(ops))
