"""Static locality facts about kernel IR, scanned once per kernel.

Two execution decisions rest on the same question — can a warp of this
kernel observe another warp? — and read it from here:

* representative-block sampling (``CudaDriver``) may run a subset of
  blocks and warps only when the kernel does not *communicate*;
* block-wide execution (``FunctionalEngine``) may run all warps of a
  block on one lane axis only when every communication of the kernel is
  *phase-safe* and the kernel does not print (stdout order follows the
  warps).

A kernel communicates when its body or any subfunction contains a
barrier, an atomic, a warp shuffle or a call into the device runtime
outside the block-local whitelist below.  These are the SPMD-mode
kernels of the combined constructs: every thread runs the same region
and nothing is handed from a master to workers.

Communication is phase-safe when it consists only of warp shuffles and
whole-block barriers (``__syncthreads``: a ``BarOp`` with count ``None``
and an immediate id) in the kernel body, each reached under block-uniform
control only.  Then every warp with a live lane reaches each barrier
instance, and no other, so the block scheduler would release them all
together: warps that run statement by statement on one lane axis are
already in step, and the block executor only counts the barrier.  A
shuffle reads lanes of its own warp only.  Named or partial barriers
(the master/worker B1/B2, ``cudadev_barrier``), atomics, printf and any
barrier under thread-dependent control keep the per-warp scheduler.

Uniformity is a conservative taint over registers (:func:`_phase_safe`):
immediates, module globals, parameters and the block-wide special
registers (``ntid``, ``ctaid``, ``nctaid``) are uniform; thread ids,
``laneid``/``warpid``, loads and call results are not; a register is
uniform when every definition of it computes from uniform values under
uniform control.  Control is non-uniform inside an ``if`` on a
non-uniform condition, and inside a loop whose condition is non-uniform
or that a ``break``/``continue`` under non-uniform control can leave
early.  A ``return`` does not make the code after it non-uniform: the
lanes it retires are never active again, and a warp whose lanes all
returned finishes instead of waiting at a barrier.

The same whitelist (:func:`local_call`) tells the block-wide executor
which runtime calls it may make once for the whole block instead of
once per warp.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.cuda.ptx.ir import (
    Atom, BarOp, BreakOp, CallOp, ContinueOp, IfOp, Imm, KernelIR, Ld,
    LoopOp, PrintfOp, Reg, Sreg, walk_ops,
)

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

#: warp shuffles: they read other lanes of the calling warp, so they
#: communicate, but a block-wide call serves every warp at once
SHUFFLES = frozenset({
    "__shfl_sync", "__shfl_down_sync", "__shfl_up_sync", "__shfl_xor_sync",
})

#: special registers with one value per block
_UNIFORM_SREGS = frozenset(
    f"{reg}.{axis}" for reg in ("ntid", "ctaid", "nctaid")
    for axis in "xyz")

#: ops that may suspend a warp (a barrier, or a runtime call that may
#: wait on one); atomics count too, as spin-lock loops are built on them
_SUSPENDING = (BarOp, Atom, CallOp)


def local_call(name: str) -> bool:
    """Whether block-wide code may make a call to ``name`` once for the
    block: a pseudo op, a warp shuffle or a runtime call in the
    whitelist."""
    return (name.startswith("__ld") or name == "__local_base"
            or name.startswith("omp_") or name in _LOCAL_CALLS
            or name in SHUFFLES)


@dataclass(frozen=True)
class Locality:
    #: a barrier, an atomic, a shuffle or a non-whitelisted runtime call
    #: somewhere
    communicates: bool
    #: a device printf somewhere
    prints: bool
    #: every communication is a shuffle or a phase-safe barrier (true of
    #: a kernel that does not communicate)
    phase_safe: bool

    @property
    def block_wide(self) -> bool:
        """All warps of a block may share one lane axis."""
        return self.phase_safe and not self.prints


def _scan(kernel: KernelIR) -> Locality:
    communicates = prints = False
    phase_safe = True
    for fi, body in enumerate([kernel.body] + [s.body for s in
                                               kernel.subfunctions.values()]):
        for op in walk_ops(body):
            if isinstance(op, BarOp):
                communicates = True
                # only the master/worker runtime enters a subfunction
                phase_safe &= fi == 0
            elif isinstance(op, Atom):
                communicates = True
                phase_safe = False
            elif isinstance(op, CallOp) and op.name in SHUFFLES:
                communicates = True
            elif isinstance(op, CallOp) and not local_call(op.name):
                communicates = True
                phase_safe = False
            elif isinstance(op, PrintfOp):
                prints = True
    if phase_safe:
        # also meets the barriers a for-loop step holds
        phase_safe = _phase_safe(kernel.body)
    return Locality(communicates, prints, phase_safe)


# -- block uniformity ----------------------------------------------------------

def _varies(operand, tainted: set) -> bool:
    return type(operand) is Reg and operand.name in tainted


def _def_varies(op, tainted: set) -> bool:
    """Whether the value ``op`` defines may differ between lanes, given
    uniform control."""
    if isinstance(op, Sreg):
        return op.sreg not in _UNIFORM_SREGS
    if isinstance(op, (Ld, Atom)):
        return True
    if isinstance(op, CallOp):
        return op.name != "__ldparam"
    return any(_varies(getattr(op, name), tainted)
               for name in ("a", "b", "pred") if hasattr(op, name))


def _exits_vary(ops, tainted: set, div: bool = False) -> bool:
    """Whether a ``break``/``continue`` binding to the enclosing loop sits
    under non-uniform control (if-arms are searched, nested loops are
    not: their exits bind to themselves)."""
    for op in ops:
        if isinstance(op, (BreakOp, ContinueOp)):
            if div:
                return True
        elif isinstance(op, IfOp):
            d = div or _varies(op.cond, tainted)
            if (_exits_vary(op.then_ops, tainted, d)
                    or _exits_vary(op.else_ops, tainted, d)):
                return True
    return False


def _taint(ops, div: bool, tainted: set) -> bool:
    """One pass over ``ops`` under control that is non-uniform when
    ``div``: taint every register defined from a non-uniform value or
    under non-uniform control, and return whether every barrier met is
    phase-safe under the taint known so far."""
    safe = True
    for op in ops:
        if isinstance(op, IfOp):
            d = div or _varies(op.cond, tainted)
            safe &= _taint(op.then_ops, d, tainted)
            safe &= _taint(op.else_ops, d, tainted)
        elif isinstance(op, LoopOp):
            d = (div or _varies(op.cond, tainted)
                 or _exits_vary(op.body_ops, tainted))
            for ops_ in op.sub_blocks():
                safe &= _taint(ops_, d, tainted)
        elif isinstance(op, BarOp):
            safe &= (not div and op.count is None
                     and type(op.barrier) is Imm)
        else:
            dst = getattr(op, "dst", None)
            if dst is not None and (div or _def_varies(op, tainted)):
                tainted.add(dst.name)
    return safe


def _phase_safe(body: list) -> bool:
    """Whether every barrier in ``body`` is phase-safe: the taint is
    grown to its fixed point, then the last pass decides."""
    tainted: set = set()
    while True:
        n = len(tainted)
        safe = _taint(body, False, tainted)
        if len(tainted) == n:
            return safe


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
