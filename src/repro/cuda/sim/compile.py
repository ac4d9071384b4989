"""Closure compilation of kernel IR — the simulator's JIT back end.

The tree-walking :class:`~repro.cuda.sim.warp.WarpExec` re-dispatches on
every IR node of every iteration of every warp.  For the steady-state
benchmark launches (same kernel image, thousands of warps) that dispatch
dominates wall-clock.  This pass lowers a kernel's IR **once** into
generated Python source — one closure per function activation (kernel
body + registered subfunctions) — operating on numpy lane vectors:

* straight-line runs of ALU/move/load/store ops become a single code
  block guarded by one active-lane check, with their ``KernelStats``
  contributions aggregated into constant increments per warp;
* single-use pure values are fused textually into their consumer, so a
  chain like ``mul/add/ld/add/st`` becomes one composed numpy expression;
* loads and stores go through one access routine (:func:`_fload`,
  :func:`_fstore`): one probe of the active lanes' addresses serves the
  space resolution, the range check, a strided access and a closed-form
  coalescing count; a load or store of an address-taken local's frame
  slot reads or writes the lane's frame directly (:func:`_frame_load`);
* predicated control flow (``IfOp``/``LoopOp``) keeps the exact
  mask-algebra of the interpreter, bit for bit, including divergence and
  loop-iteration counters;
* anything stateful or rare (intrinsic calls, atomics, printf) runs the
  reference intrinsics and per-warp semantics, so they cannot drift.

The generated code is a function of the kernel alone; it runs on a
:class:`CompiledBlockExec` of any lane width ``W`` (read from the
executor): one warp, or the executed warps of one or more blocks laid
end to end, one *block segment* per block.  Accounting is per warp at
any width: each per-warp counter grows by the number of warps with an
active lane, and transactions are summed per warp.  A shared- or
local-memory address is the one a block run alone would use; the
executor moves it into the lane's own block segment.  A warp shuffle
runs once for the whole axis; a block-local runtime call
(:func:`~repro.cuda.sim.locality.local_call`) once per block segment
when its scalar arguments agree across the block's warps, else per warp.
Every other runtime call, ``printf``, each atomic runs per warp: once
for each warp with an active lane, in warp order, on its own 32 lanes.

Two constructs differ in meaning, not only in counting, and are keyed on
:func:`~repro.cuda.sim.locality.kernel_locality`: in a block-wide kernel
a barrier is only checked and counted once per warp with an active lane,
and a loop that may block counts its spins, as the warps already run in
step; in any other kernel both yield to the block scheduler
(``('bar', id, count)`` / ``('spin',)``), which runs such a kernel one
warp per executor, so named barriers and the master/worker scheme are
untouched.

Under ``kernel_fastpath='on'`` every launch runs compiled code: there
is no fallback to the tree-walker, which stays as the ``off`` reference
that ``verify`` replays.  A construct the compiler does not handle
raises :class:`UnsupportedKernel`, naming it, and fails the launch like
any other compiler exception.  ``CompiledKernelCache`` memoizes per
(kernel image id, param dtypes) so repeated ``cuLaunchKernel`` calls
skip re-lowering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cuda.ptx.ir import (
    Atom, BarOp, BinOp, BreakOp, CallOp, ContinueOp, Cvt, GlobalAddr, IfOp,
    Imm, KernelIR, Ld, LoopOp, Mov, PrintfOp, Reg, RetOp, SelOp, Sreg, St,
    UnOp, np_dtype, walk_ops,
)
from repro.cuda.sim.locality import (
    SHUFFLES, kernel_locality, local_call, loop_may_block,
)
from repro.cuda.sim.warp import (
    WARP_SIZE, Lanes, _SPECIAL, _binop, _cast_scalar, _cast_vec, _convert,
    _unop, call_intrinsic, warp_atomic, warp_printf, _wraps_u64,
)
from repro.cuda.sim.coalesce import progression_transactions, transactions_memo
from repro.mem import MemoryError_


class UnsupportedKernel(Exception):
    """Kernel uses a construct the closure compiler does not handle.  Not
    a ``CudaError``: it fails the run instead of being retried or sent to
    the region's host version."""


_PSEUDO = ("__ldparam", "__ldarg", "__local_base")
_SEG_TYPES = (BinOp, UnOp, Mov, SelOp, Cvt, Sreg, Ld, St)

_BOOL_DT = np.dtype(np.bool_)


def _is_seg_op(op) -> bool:
    if isinstance(op, _SEG_TYPES):
        return True
    return type(op) is CallOp and op.name in _PSEUDO


# --------------------------------------------------------------------------
# runtime helpers referenced by generated code
# --------------------------------------------------------------------------

def _scan_bc(ops) -> tuple[bool, bool]:
    """Whether ``ops`` contains a break / continue binding to the enclosing
    loop (recurses into if-arms but not into nested loops, whose breaks
    bind to themselves)."""
    has_b = has_c = False
    for o in ops:
        t = type(o)
        if t is BreakOp:
            has_b = True
        elif t is ContinueOp:
            has_c = True
        elif t is IfOp:
            b, c = _scan_bc(o.then_ops)
            has_b |= b
            has_c |= c
            b, c = _scan_bc(o.else_ops)
            has_b |= b
            has_c |= c
    return has_b, has_c


def _reg(regs: dict, name: str, dtype: np.dtype, width: int) -> np.ndarray:
    arr = regs.get(name)
    if arr is None:
        arr = np.zeros(width, dtype=dtype)
        regs[name] = arr
    return arr


# -- loads and stores ----------------------------------------------------------
# Generated code's loads and stores, and the device runtime's out-parameter
# writes (repro.devrt.state.store_out), go through _fload/_fstore; the tree
# walk's FunctionalEngine.mem_load/mem_store never do, so kernel ``verify``
# checks these against LinearMemory.gather/scatter and the per-warp
# coalescing model.  One probe of the active lanes' addresses serves the
# space resolution, the range check, the access and the transaction count.

_U64 = np.dtype(np.uint64)
#: widest per-lane stride a probe accepts (keeps ``stride * lane`` in int64)
_MAX_STRIDE = 1 << 40


@functools.lru_cache(maxsize=64)
def _ramp(width: int, stride: int) -> np.ndarray:
    """``stride * arange(width)`` as uint64 (wrapping), read-only."""
    ramp = (np.arange(width, dtype=np.int64) * stride).view(np.uint64)
    ramp.setflags(write=False)
    return ramp


def _addresses(addrs) -> np.ndarray:
    if type(addrs) is np.ndarray and addrs.dtype == _U64:
        return addrs
    return np.asarray(addrs, dtype=np.uint64)


def _probe(a: np.ndarray, lanes: bytes, mask: np.ndarray):
    """The one probe of an access's addresses ``a`` under ``mask``
    (``lanes``: its bytes): ``(i0, i1, a0, s, holes)`` when the active
    lanes read one arithmetic progression, else None.  ``i0``/``i1`` are
    the first and last active lane, lane ``i`` reads ``a0 + s * (i -
    i0)``, and ``holes`` says whether a lane between them is inactive.  A
    scalar address is a progression of stride 0."""
    i0 = lanes.find(1)
    i1 = lanes.rfind(1)
    holes = lanes.find(0, i0, i1) >= 0
    if not a.ndim:
        return i0, i1, int(a), 0, holes
    a0 = a.item(i0)
    if i0 == i1:
        return i0, i1, a0, 0, holes
    s, rem = divmod(a.item(i1) - a0, i1 - i0)
    if rem or not -_MAX_STRIDE < s < _MAX_STRIDE:
        return None
    # a0 at every active lane once the progression is taken off (wrapping)
    base = a[i0:i1 + 1] - _ramp(a.size, s)[:i1 - i0 + 1]
    if holes:
        base = np.where(mask[i0:i1 + 1], base, np.uint64(a0))
    if base.tobytes() != a0.to_bytes(8, "little") * (i1 - i0 + 1):
        return None
    return i0, i1, a0, s, holes


def _probe_warps(a: np.ndarray):
    """``(lane0, s)`` when each warp of a whole-warp access reads a
    progression of one common stride ``s``: lane ``j`` of warp ``w``
    reads ``lane0[w] + s * j``; else None."""
    s = a.item(1) - a.item(0)
    if not -_MAX_STRIDE < s < _MAX_STRIDE:
        return None
    base = a.reshape(-1, WARP_SIZE) - _ramp(WARP_SIZE, s)
    lane0 = base[:, 0]
    if base.tobytes() != np.repeat(lane0, WARP_SIZE).tobytes():
        return None
    return lane0, s


def _count(engine, load, mem, a, itemsize, mask, lanes, n, lane0,
           s) -> None:
    """A load's (``load``) or a store's ``KernelStats``, counted as
    ``mem_load``/``mem_store`` count them: one instruction per active
    warp, and global transactions by the closed form when the lanes form
    one progression (``s`` not None; lane 0 at ``lane0``) or, all of
    them active, one per warp (:func:`_probe_warps`), through the memo
    otherwise (per-warp progressions under a partial mask too: there the
    memo's hit is cheaper than a masked probe)."""
    stats = engine.stats
    if load:
        stats.load_instructions += n
    else:
        stats.store_instructions += n
    stats.instructions += n
    if mem is engine.gmem:
        stats.global_mem_instructions += n
        if s is None and mask.size > WARP_SIZE and b"\x00" not in lanes:
            p = _probe_warps(a)
            if p is not None:
                lane0, s = p
        if s is None:
            stats.global_transactions += transactions_memo(a, itemsize, mask)
        else:
            stats.global_transactions += progression_transactions(
                lane0, s, itemsize, lanes, n)
    elif mem.name == "shared":
        stats.shared_accesses += lanes.count(1)
    else:
        stats.local_accesses += lanes.count(1)


def _store_values(values, dtype):
    """``values`` converted as a C assignment to ``dtype`` converts them
    (``_cast_vec``'s rules)."""
    v = np.asarray(values)
    if v.dtype == dtype:
        return v
    if v.dtype.kind == "f" and dtype.kind in "iu":
        v = np.trunc(v)
    with np.errstate(over="ignore", invalid="ignore"):
        return v.astype(dtype, casting="unsafe")


def _progression(warp, a, itemsize, lanes, mask):
    """Where an access goes when its active lanes read one progression
    (:func:`_probe`) inside one memory: ``(mem, start, i0, i1, s, holes,
    lane0)``, lane ``i``'s cell at byte ``start + s * (i - i0)`` of
    ``mem.buf`` and lane 0 (of every warp, modulo 32) at ``lane0``; else
    None."""
    p = _probe(a, lanes, mask)
    if p is None:
        return None
    i0, i1, a0, s, holes = p
    a1 = a0 + s * (i1 - i0)
    where = warp.place(min(a0, a1), max(a0, a1) + itemsize, i0, i1)
    if where is None:
        return None
    mem, shift = where
    return mem, a0 + shift, i0, i1, s, holes, a0 - s * i0


def _cells(mem, act, lo, start, dtype):
    """An element view of ``mem`` from byte ``start`` (address ``lo``)
    and the element index of each address of ``act`` (all at or above
    ``lo``) when every one is a whole number of elements from ``lo``;
    else None and the byte index of each address's bytes, lane by
    lane."""
    k = dtype.itemsize
    offs = act - np.uint64(lo)
    if k == 1 or not np.bitwise_and(offs, k - 1).any():
        view = np.ndarray(((mem.capacity - start) // k,), dtype, mem.buf,
                          start)
        return view, offs // np.uint64(k)
    offs = offs.astype(np.int64) + start
    return None, (offs[:, None] + np.arange(k, dtype=np.int64)).reshape(-1)


def _fload(engine, warp, addrs, dtype, mask, n):
    """A load of ``dtype`` at ``addrs`` over ``warp``'s lanes under
    ``mask``, with ``FunctionalEngine.mem_load``'s semantics and counters.

    ``n`` is the number of warps with an active lane (``_nw(mask)``): one
    load is counted per active warp.  When the active lanes read one
    progression inside one memory (for a shared or local space, one
    block window), the load is one strided view, or one read for a
    broadcast; other lanes in one memory are gathered by element (by
    byte when not aligned).  A load whose active lanes do not lie in one
    memory or window takes :func:`_fload_split`, which raises what the
    tree walk raises."""
    if not n:
        # predicated off: mirrors mem_load's early return exactly (no
        # stats, no space resolution) so verify mode stays bit-identical
        return np.zeros(mask.size, dtype=dtype)
    lanes = mask.tobytes()
    a = _addresses(addrs)
    k = dtype.itemsize
    hit = _progression(warp, a, k, lanes, mask)
    if hit is not None:
        mem, start, i0, i1, s, holes, lane0 = hit
        _count(engine, True, mem, a, k, mask, lanes, n, lane0, s)
        if not s:
            v = mem.buf[start:start + k].view(dtype)[0]
            if holes:
                return np.where(mask, v, dtype.type(0))
            out = np.zeros(mask.size, dtype=dtype)
            out[i0:i1 + 1] = v
            return out
        view = np.ndarray((i1 - i0 + 1,), dtype, mem.buf, start, (s,))
        if i1 - i0 + 1 == mask.size and not holes:
            return view.copy()
        out = np.zeros(mask.size, dtype=dtype)
        if holes:
            np.copyto(out[i0:i1 + 1], view, where=mask[i0:i1 + 1])
        else:
            out[i0:i1 + 1] = view
        return out
    if not a.ndim:
        a = np.broadcast_to(a, mask.shape)
    full = b"\x00" not in lanes
    act = a if full else a[mask]
    lo = int(act.min())
    where = warp.place(lo, int(act.max()) + k, lanes.find(1), lanes.rfind(1))
    if where is None:
        return _fload_split(engine, warp, a, dtype, mask, n)
    mem, shift = where
    _count(engine, True, mem, a, k, mask, lanes, n, 0, None)
    view, idx = _cells(mem, act, lo, lo + shift, dtype)
    vals = mem.buf[idx].view(dtype) if view is None else view[idx]
    if full:
        return vals
    out = np.zeros(mask.size, dtype=dtype)
    out[mask] = vals
    return out


def _fstore(engine, warp, addrs, dtype, values, mask, n):
    """A store of ``values`` as ``dtype`` at ``addrs`` under ``mask``,
    with ``FunctionalEngine.mem_store``'s semantics and counters (``n``
    and the paths as in :func:`_fload`).  A progression whose lanes'
    cells do not overlap is one strided write; one address is one write
    of the last active lane's value.  Lanes write in lane order, so a
    write conflict resolves to the highest active lane, as it does when
    the warps store one after another.  Every active lane is in range
    before any byte is written."""
    if not n:
        return  # predicated off: mirrors mem_store's early return
    lanes = mask.tobytes()
    a = _addresses(addrs)
    k = dtype.itemsize
    hit = _progression(warp, a, k, lanes, mask)
    # lanes whose cells overlap keep their lane order below
    if hit is not None and (not hit[4] or abs(hit[4]) >= k):
        mem, start, i0, i1, s, holes, lane0 = hit
        _count(engine, False, mem, a, k, mask, lanes, n, lane0, s)
        v = np.asarray(values)
        v = _store_values(v[i0:i1 + 1] if v.ndim else v, dtype)
        if not s:
            mem.buf[start:start + k].view(dtype)[0] = v[-1] if v.ndim else v
        elif holes:
            np.copyto(np.ndarray((i1 - i0 + 1,), dtype, mem.buf, start, (s,)),
                      v, where=mask[i0:i1 + 1])
        else:
            np.ndarray((i1 - i0 + 1,), dtype, mem.buf, start, (s,))[...] = v
        return
    if not a.ndim:
        a = np.broadcast_to(a, mask.shape)
    full = b"\x00" not in lanes
    act = a if full else a[mask]
    lo = int(act.min())
    where = warp.place(lo, int(act.max()) + k, lanes.find(1), lanes.rfind(1))
    if where is None:
        return _fstore_split(engine, warp, a, dtype, values, mask, n)
    mem, shift = where
    _count(engine, False, mem, a, k, mask, lanes, n, 0, None)
    v = np.asarray(values)
    if v.ndim and not full:
        v = v[mask]
    v = np.broadcast_to(_store_values(v, dtype), act.shape)
    view, idx = _cells(mem, act, lo, lo + shift, dtype)
    if view is None:
        mem.buf[idx] = np.ascontiguousarray(v).view(np.uint8).reshape(-1)
    else:
        view[idx] = v


def _fload_split(engine, warp, a, dtype, mask, n):
    """A load whose active lanes leave one memory or a block window: one
    gather after :meth:`FunctionalEngine.resolve_space`, split per warp
    when it fails on a wider executor, so each warp raises or loads as a
    warp run alone does."""
    full = b"\x00" not in mask.tobytes()
    space = engine.resolve_space(
        warp, int(a[0]) if full else int(a[np.argmax(mask)]))
    # the gather's range check (before any read) passes exactly when every
    # active lane lies in ``space``, so every warp resolves to it too
    try:
        mem, at = space, a
        if space is not engine.gmem and mask.size != WARP_SIZE:
            mem, at = warp.window(space, a, mask, dtype.itemsize)
        vals = mem.gather(at if full else at[mask], dtype)
    except MemoryError_:
        if mask.size == WARP_SIZE:
            raise
        out = np.zeros(mask.size, dtype=dtype)
        for k, lo, hi in warp.active_warps(mask):
            out[lo:hi] = _fload(engine, warp.warp_view(k), a[lo:hi], dtype,
                                mask[lo:hi], 1)
        return out
    stats = engine.stats
    stats.load_instructions += n
    stats.instructions += n
    engine._note_mem(space, a, dtype.itemsize, mask, n)
    if full:
        return vals
    out = np.zeros(mask.size, dtype=dtype)
    out[mask] = vals
    return out


def _fstore_split(engine, warp, a, dtype, values, mask, n):
    """A store whose active lanes leave one memory or a block window (see
    :func:`_fload_split`)."""
    full = b"\x00" not in mask.tobytes()
    v = np.asarray(values)
    if v.shape != mask.shape:
        v = np.broadcast_to(v, mask.shape)
    space = engine.resolve_space(
        warp, int(a[0]) if full else int(a[np.argmax(mask)]))
    if v.dtype.kind == "f" and dtype.kind in "iu":
        v = np.trunc(v)
    try:
        mem, at = space, a
        if space is not engine.gmem and mask.size != WARP_SIZE:
            mem, at = warp.window(space, a, mask, dtype.itemsize)
        # scatter range-checks every lane before it writes any
        with np.errstate(over="ignore", invalid="ignore"):
            if full:
                mem.scatter(at, dtype, v.astype(dtype, casting="unsafe"))
            else:
                mem.scatter(at[mask], dtype,
                            v[mask].astype(dtype, casting="unsafe"))
    except MemoryError_:
        if mask.size == WARP_SIZE:
            raise
        for k, lo, hi in warp.active_warps(mask):
            _fstore(engine, warp.warp_view(k), a[lo:hi], dtype, v[lo:hi],
                    mask[lo:hi], 1)
        return
    stats = engine.stats
    stats.store_instructions += n
    stats.instructions += n
    engine._note_mem(space, a, dtype.itemsize, mask, n)


def _frame_load(warp, offset, dtype, mask, n):
    """A load of frame slot ``offset``: an address-taken local at
    ``local_base(lane) + offset`` (see ``_Analysis``), read from the
    lane's own frame with no probe; counted as ``mem_load`` counts it."""
    if not n:
        return np.zeros(mask.size, dtype=dtype)
    lanes = mask.tobytes()
    stats = warp.engine.stats
    stats.load_instructions += n
    stats.instructions += n
    stats.local_accesses += lanes.count(1)
    view, rows = warp.frame(offset, dtype)
    if rows is not None:
        view = view[rows]
    if b"\x00" not in lanes:
        return view.copy()
    out = np.zeros(mask.size, dtype=dtype)
    np.copyto(out, view, where=mask)
    return out


def _frame_store(warp, offset, dtype, values, mask, n):
    """A store to frame slot ``offset`` (see :func:`_frame_load`)."""
    if not n:
        return
    lanes = mask.tobytes()
    stats = warp.engine.stats
    stats.store_instructions += n
    stats.instructions += n
    stats.local_accesses += lanes.count(1)
    v = _store_values(values, dtype)
    view, rows = warp.frame(offset, dtype)
    if rows is None:
        np.copyto(view, v, where=mask)
    else:
        view[rows[mask]] = v[mask] if v.ndim else v


def _ldargv(warp, idx: int, dtype: np.dtype) -> np.ndarray:
    """Full-width, dtype-cast view of subfunction argument ``idx`` of the
    executor's current activation (elementwise identical to what
    ``setreg`` would write)."""
    value = np.asarray(warp._arg_stack[-1][idx])
    if value.ndim == 0:
        return np.full(warp.width, _cast_scalar(value, dtype))
    out = np.empty(warp.width, dtype=dtype)
    out[:] = _cast_vec(np.broadcast_to(value, (warp.width,)), dtype)
    return out


def _barid(v) -> int:
    if np.isscalar(v):
        return int(v)
    return int(np.asarray(v).reshape(-1)[0])


def _barcnt(v) -> int:
    c = np.asarray(v)
    return int(c.reshape(-1)[0] if c.ndim else c)


def _bbar(engine, bar_id: int, count, n: int) -> None:
    """A barrier of a block-wide kernel: every warp with an active lane
    (``n`` of them) arrives together, so it is only checked, as the
    block scheduler checks an arrival, and counted once per warp."""
    engine.check_barrier(bar_id, count)
    engine.stats.barriers += n


# -- per-warp accounting over a lane axis of whole warps ---------------------

_NO_LANES = bytes(WARP_SIZE)
#: widest mask whose warps :func:`_nw` compares one by one (below about
#: ten warps the byte compares beat one numpy reduction's set-up)
_NW_SCAN_LANES = 8 * WARP_SIZE


def _nw(mask) -> int:
    """Number of warps with an active lane.  A bool mask's bytes are 0 or
    1: a byte scan settles a full mask; a few warps are compared one by
    one, more with one reduction, so the cost stays bounded at any
    width."""
    lanes = mask.tobytes()
    if b"\x00" not in lanes:
        return len(lanes) // WARP_SIZE
    if len(lanes) > _NW_SCAN_LANES:
        return int(np.count_nonzero(
            np.logical_or.reduce(mask.reshape(-1, WARP_SIZE), axis=1)))
    n = 0
    for lo in range(0, len(lanes), WARP_SIZE):
        if lanes[lo:lo + WARP_SIZE] != _NO_LANES:
            n += 1
    return n


def _bbranch(stats, tm, em, ta, ea) -> None:
    """An ``IfOp``'s counters: one instruction per warp with an active
    lane, one divergence per warp active on both arms."""
    if ta and ea:
        if tm.size == WARP_SIZE:
            stats.divergent_branches += 1
            stats.instructions += 1
            return
        tw = tm.reshape(-1, WARP_SIZE).any(1)
        ew = em.reshape(-1, WARP_SIZE).any(1)
        stats.divergent_branches += int(np.count_nonzero(tw & ew))
        stats.instructions += int(np.count_nonzero(tw | ew))
    else:
        stats.instructions += _nw(tm if ta else em)


class NonUniform(Exception):
    """A scalar argument of a block-wide runtime call differs between the
    block's active warps (raised by ``repro.devrt.state.uniform``): the
    call cannot be made once for the block."""


def _bcall(blk, op, regspec, m):
    """A block-local runtime call.

    Block-local intrinsics (see
    :func:`~repro.cuda.sim.locality.local_call`) run over a block's
    lanes: they read the lane count from the mask and the lane ids from
    the executor.  A warp shuffle reads lanes of the calling warp only: it
    is made once over the executor's whole lane axis.  Any other call is
    made once per block segment with an active lane, in block order, on
    that block's executor (:meth:`CompiledBlockExec.segment`), whose
    registers are slices of the launch's, so the call sees its own
    block's state and lanes exactly as a block run alone shows them.
    When a scalar argument differs between a block's warps
    (:class:`NonUniform`) the call is made per warp instead
    (:func:`_warps_call`)."""
    if blk.segments is None or op.name in SHUFFLES:
        try:
            return (yield from call_intrinsic(blk, op, m, _nw(m)))
        except NonUniform:
            return (yield from _warps_call(blk, op, regspec, m))
    out = m.copy()
    regs = blk.regs
    ret = blk._ret_stack[-1]
    width = m.size
    for seg, lo, hi in blk.active_segments(m):
        seg.regs = {name: _reg(regs, name, dt, width)[lo:hi]
                    for name, dt in regspec}
        seg._ret_stack = [ret[lo:hi]]
        out[lo:hi] = yield from _bcall(seg, op, regspec, m[lo:hi])
    return out


def _warps(blk, regspec, m):
    """``(warp, lo, hi)`` for each warp of ``blk`` with an active lane, in
    warp order, where ``warp`` is an executor of those 32 lanes alone: an
    executor of one warp is its own, a wider one hands out a view per
    warp whose registers named in ``regspec`` are slices of its own."""
    if blk.width == WARP_SIZE:
        yield blk, 0, WARP_SIZE
        return
    regs = blk.regs
    ret = blk._ret_stack[-1]
    width = m.size
    for k, lo, hi in blk.active_warps(m):
        view = blk.warp_view(k)
        for name, dt in regspec:
            view.regs[name] = _reg(regs, name, dt, width)[lo:hi]
        view._ret_stack = [ret[lo:hi]]
        yield view, lo, hi


def _warps_call(blk, op, regspec, m):
    """A runtime call made by every warp with an active lane on its own
    32 lanes, in warp order, so the intrinsic sees exactly what a
    per-warp run shows it."""
    out = m.copy()
    for warp, lo, hi in _warps(blk, regspec, m):
        out[lo:hi] = yield from call_intrinsic(warp, op, m[lo:hi])
    return out


def _warps_do(blk, fn, op, regspec, m) -> None:
    """``fn(warp, op, mask)`` (a printf or an atomic) for every warp with
    an active lane on its own 32 lanes, in warp order."""
    for warp, lo, hi in _warps(blk, regspec, m):
        fn(warp, op, m[lo:hi])


_GLOBALS = {
    "np": np, "_reg": _reg, "_bop": _binop, "_fload": _fload,
    "_fstore": _fstore, "_frame_load": _frame_load,
    "_frame_store": _frame_store, "_ldargv": _ldargv, "_barid": _barid,
    "_barcnt": _barcnt, "_bbar": _bbar, "_nw": _nw, "_bbranch": _bbranch,
    "_bcall": _bcall, "_warps_call": _warps_call, "_warps_do": _warps_do,
    "_printf": warp_printf, "_atomic": warp_atomic,
}


# --------------------------------------------------------------------------
# register analysis: which registers can live as fused SSA temporaries
# --------------------------------------------------------------------------

@dataclass
class _RegInfo:
    dtype: Optional[str] = None
    conflict: bool = False
    ndefs: int = 0
    def_fn: int = -1
    def_bid: int = -1
    def_idx: int = -1
    def_op: object = None
    uses: list = field(default_factory=list)
    #: uses as the address of a load or store
    addr_uses: int = 0
    pinned: bool = False
    temp: bool = False
    #: the frame offset of a frame slot (see _Analysis), else None
    frame: Optional[int] = None


class _Analysis:
    """Def/use scan over all function bodies of a kernel.

    A register is a *temp* (kept as a generated local / fused expression
    instead of a lane-wide entry in ``warp.regs``) iff it has exactly one
    def, that def is a plain data op, it is never touched by a delegated
    op (intrinsic call, atomic, printf, barrier operand), and every use
    appears strictly after the def inside the def's block (at any
    nesting depth) within the same function.  Everything else stays in
    the register dict with interpreter-identical lazy-zeros semantics.

    A register is a *frame slot* iff its one def is ``__local_base`` (the
    lowerer's ``*_laddr`` registers of address-taken locals), no
    delegated op writes it and every use follows the def as above: it
    then holds ``local_base(lane) + offset`` wherever it is read, and a
    load or store through it reads or writes that lane's frame directly.
    """

    def __init__(self, kernel: KernelIR):
        self.regs: dict[str, _RegInfo] = {}
        self.parent: dict[int, tuple] = {}
        self._nb = 0
        fns = [kernel.body] + [s.body for s in kernel.subfunctions.values()]
        for fi, ops in enumerate(fns):
            self._scan(ops, fi, None, None)
        self._classify()

    def _info(self, name: str) -> _RegInfo:
        info = self.regs.get(name)
        if info is None:
            info = _RegInfo()
            self.regs[name] = info
        return info

    def _dt(self, info: _RegInfo, dtype: str) -> None:
        if info.dtype is None:
            info.dtype = dtype
        elif info.dtype != dtype:
            info.conflict = True

    def _use(self, o, fi, bid, idx) -> None:
        if type(o) is Reg:
            info = self._info(o.name)
            self._dt(info, o.dtype)
            info.uses.append((fi, bid, idx))

    def _pin(self, o, writes: bool = False) -> None:
        if type(o) is Reg:
            info = self._info(o.name)
            self._dt(info, o.dtype)
            info.pinned = True
            info.ndefs += writes

    def _addr(self, o, fi, bid, idx) -> None:
        self._use(o, fi, bid, idx)
        if type(o) is Reg:
            self.regs[o.name].addr_uses += 1

    def _def(self, reg: Reg, fi, bid, idx, op) -> None:
        info = self._info(reg.name)
        self._dt(info, reg.dtype)
        info.ndefs += 1
        info.def_fn, info.def_bid, info.def_idx = fi, bid, idx
        info.def_op = op

    def _scan(self, ops, fi, pbid, pidx) -> int:
        bid = self._nb
        self._nb += 1
        self.parent[bid] = (pbid, pidx)
        for i, op in enumerate(ops):
            cls = type(op)
            if cls is BinOp:
                self._use(op.a, fi, bid, i)
                self._use(op.b, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls in (UnOp, Mov, Cvt):
                self._use(op.a, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls is SelOp:
                self._use(op.pred, fi, bid, i)
                self._use(op.a, fi, bid, i)
                self._use(op.b, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls is Sreg:
                self._def(op.dst, fi, bid, i, op)
            elif cls is Ld:
                self._addr(op.addr, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls is St:
                self._addr(op.addr, fi, bid, i)
                self._use(op.value, fi, bid, i)
            elif cls is IfOp:
                self._use(op.cond, fi, bid, i)
                self._scan(op.then_ops, fi, bid, i)
                self._scan(op.else_ops, fi, bid, i)
            elif cls is LoopOp:
                cbid = self._scan(op.cond_ops, fi, bid, i)
                # the loop condition is read after cond_ops runs
                self._use(op.cond, fi, cbid, len(op.cond_ops))
                self._scan(op.body_ops, fi, bid, i)
                if op.step_ops:
                    self._scan(op.step_ops, fi, bid, i)
            elif cls is BarOp:
                self._pin(op.barrier)
                if op.count is not None:
                    self._pin(op.count)
            elif cls is CallOp:
                if op.name in _PSEUDO:
                    for a in op.args:
                        self._pin(a)
                    self._def(op.dst, fi, bid, i, op)
                else:
                    if op.dst is not None:
                        self._pin(op.dst, writes=True)
                    for a in op.args:
                        self._pin(a)
            elif cls is PrintfOp:
                for a in op.args:
                    self._pin(a)
            elif cls is Atom:
                if op.dst is not None:
                    self._pin(op.dst, writes=True)
                self._pin(op.addr)
                self._pin(op.a)
                if op.b is not None:
                    self._pin(op.b)
            elif cls in (BreakOp, ContinueOp, RetOp):
                pass
            else:
                raise UnsupportedKernel(f"unknown op {cls.__name__}")
        return bid

    def _classify(self) -> None:
        for name, info in self.regs.items():
            if info.conflict:
                # same virtual register used at two dtypes: the lazy
                # creation dtype would depend on runtime touch order
                raise UnsupportedKernel(f"register {name} at two dtypes")
            if info.ndefs != 1 or info.def_op is None \
                    or not self._dominated(info):
                continue
            op = info.def_op
            if type(op) is CallOp and op.name == "__local_base":
                info.frame = int(op.args[0].value)
            info.temp = not info.pinned and (type(op) is not CallOp
                                             or op.name in _PSEUDO)

    def _dominated(self, info: _RegInfo) -> bool:
        """Whether every use follows the def inside the def's block."""
        for (ufi, ubid, uidx) in info.uses:
            if ufi != info.def_fn:
                return False
            b, j = ubid, uidx
            while b is not None and b != info.def_bid:
                b, j = self.parent[b]
            if b != info.def_bid or j is None or j <= info.def_idx:
                return False
        return True

# --------------------------------------------------------------------------
# expression values
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Val:
    """A generated expression plus the metadata codegen decisions need:
    result dtype/scalarness (derived by evaluating the *reference*
    operator on dummy operands, so numpy promotion is exact), purity
    (safe to defer), and which register locals it reads (so deferred
    expressions are flushed before those registers are overwritten)."""

    text: str
    dtype: np.dtype
    scalar: bool
    const: object = None
    has_const: bool = False
    pure: bool = True
    bare_reg: bool = False
    refs: frozenset = frozenset()


def _dummy(v: _Val):
    """Representative operand for dtype/scalarness inference."""
    if v.has_const:
        return v.const
    if v.scalar:
        return v.dtype.type(1)
    return np.ones(2, dtype=v.dtype)


class _KernelCompiler:
    """Drives per-function codegen and owns the exec() namespace pools
    (immediates, dtypes, delegated-op objects, folded constants)."""

    def __init__(self, kernel: KernelIR):
        self.kernel = kernel
        #: barriers and blocking loops are counted, not scheduled (see
        #: :func:`_bbar`); else they yield to the block scheduler
        self.block_wide = kernel_locality(kernel).block_wide
        self.an = _Analysis(kernel)
        self.ns: dict[str, object] = {}
        self._pool_n = 0
        self._imm_pool: dict = {}
        self._dt_pool: dict[str, str] = {}

    def _name(self, prefix: str) -> str:
        self._pool_n += 1
        return f"_{prefix}{self._pool_n}"

    def dt(self, dtype: np.dtype) -> str:
        key = dtype.str
        n = self._dt_pool.get(key)
        if n is None:
            n = self._name("D")
            self._dt_pool[key] = n
            self.ns[n] = dtype
        return n

    def imm(self, imm: Imm) -> _Val:
        key = (imm.dtype, type(imm.value), imm.value)
        try:
            ent = self._imm_pool.get(key)
        except TypeError:  # unhashable (never for IR immediates)
            ent = None
            key = None
        if ent is None:
            v = np_dtype(imm.dtype).type(imm.value)
            n = self._name("K")
            self.ns[n] = v
            ent = _Val(n, np_dtype(imm.dtype), True, const=v, has_const=True)
            if key is not None:
                self._imm_pool[key] = ent
        return ent

    def fold(self, value) -> _Val:
        n = self._name("K")
        self.ns[n] = value
        va = np.asarray(value)
        return _Val(n, va.dtype, va.ndim == 0, const=value, has_const=True)

    def op_ref(self, op) -> str:
        n = self._name("O")
        self.ns[n] = op
        return n

    def compile(self) -> "CompiledKernel":
        fns = [self.kernel.body] + [sub.body for sub in
                                    self.kernel.subfunctions.values()]
        module_src = "\n\n".join(_FnGen(self, ops).generate(f"f{fi}")
                                  for fi, ops in enumerate(fns))
        glb = dict(_GLOBALS)
        glb.update(self.ns)
        code = compile(module_src, f"<fastpath:{self.kernel.name}>", "exec")
        exec(code, glb)
        return CompiledKernel(self.kernel, glb["f0"],
                              [glb[f"f{fi}"] for fi in range(1, len(fns))],
                              module_src)


# --------------------------------------------------------------------------
# per-function code generation
# --------------------------------------------------------------------------

_INLINE_BIN = {
    "add": "+", "sub": "-", "mul": "*", "xor": "^",
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
}


class _FnGen:
    def __init__(self, kc: _KernelCompiler, ops: list):
        self.kc = kc
        self.an = kc.an
        self.ops = ops
        self.lines: list[tuple[int, str]] = []
        self.ind = 0
        self.uid_n = 0
        self.reg_locals: dict[str, tuple[str, str]] = {}  # name -> (local, dt)
        self.sreg_locals: dict[str, tuple[str, str]] = {}  # sreg -> (local, expr)
        self.glob_locals: dict[str, str] = {}
        self.temp_state: dict[str, tuple[str, _Val]] = {}
        self.temp_names: dict[str, str] = {}
        self.pend_order: list[str] = []
        self.loop_ctx: list[tuple[str, str]] = []
        #: a local already holding ``_nw(m)`` for the next op, if any
        self.m_nw: Optional[str] = None

    # -- emission plumbing -------------------------------------------------
    def w(self, text: str) -> None:
        self.lines.append((self.ind, text))

    def uid(self) -> str:
        self.uid_n += 1
        return str(self.uid_n)

    def any_text(self, mask: str) -> str:
        """Whether ``mask`` has an active lane.  ``count_nonzero`` skips
        the ufunc reduction set-up that dominates ``any()``."""
        return f"np.count_nonzero({mask})"

    def guard_open(self, cond: bool) -> None:
        if cond:
            self.w(f"if {self.any_text('m')}:")
            self.ind += 1

    def guard_close(self, cond: bool) -> None:
        if cond:
            self.ind -= 1

    def generate(self, fname: str) -> str:
        self.has_ret = any(type(o) is RetOp for o in walk_ops(self.ops))
        self.block_ops(self.ops, True)
        out = [f"def {fname}(warp, m):"]

        def put(ind, text):
            out.append("    " * ind + text)

        put(1, "engine = warp.engine")
        put(1, "stats = engine.stats")
        put(1, "regs = warp.regs")
        put(1, "m = m.copy()")
        put(1, "W = warp.width")
        put(1, "_SHP = (W,)")
        put(1, "_Z = warp.no_lanes")
        for name, (local, dtstr) in self.reg_locals.items():
            put(1, f"{local} = _reg(regs, {name!r}, "
                   f"{self.kc.dt(np_dtype(dtstr))}, W)")
        for local, expr in self.sreg_locals.values():
            put(1, f"{local} = {expr}")
        for gname, local in self.glob_locals.items():
            put(1, f"{local} = np.uint64(engine.global_addr({gname!r}))")
        put(1, "ret = np.zeros(W, np.bool_)")
        put(1, "warp._ret_stack.append(ret)")
        put(1, "try:")
        if self.lines:
            for ind, text in self.lines:
                put(2 + ind, text)
        else:
            put(2, "pass")
        put(1, "finally:")
        put(2, "warp._ret_stack.pop()")
        put(1, "if False:")
        put(2, "yield None")
        return "\n".join(out)

    # -- operand handling --------------------------------------------------
    def regspec(self, operands, dst=None) -> str:
        """Pool name of the ``(name, dtype)`` of each register among
        ``operands`` and ``dst``: what a per-warp view must slice."""
        return self.kc.op_ref(tuple((r.name, np_dtype(r.dtype))
                                    for r in [*operands, dst]
                                    if type(r) is Reg))

    def reg_local(self, name: str, dtstr: str) -> str:
        ent = self.reg_locals.get(name)
        if ent is None:
            ent = (f"r{len(self.reg_locals)}", dtstr)
            self.reg_locals[name] = ent
        return ent[0]

    def operand(self, o) -> _Val:
        cls = type(o)
        if cls is Reg:
            info = self.an.regs[o.name]
            if info.temp:
                st = self.temp_state.get(o.name)
                if st is None:
                    raise UnsupportedKernel(f"temp {o.name} read before def")
                kind, val = st
                if kind == "pend":
                    self.pend_order.remove(o.name)
                    self.temp_state[o.name] = ("used", val)
                return val
            local = self.reg_local(o.name, o.dtype)
            return _Val(local, np_dtype(o.dtype), False, bare_reg=True,
                        refs=frozenset((local,)))
        if cls is Imm:
            return self.kc.imm(o)
        if cls is GlobalAddr:
            local = self.glob_locals.get(o.name)
            if local is None:
                local = f"g{len(self.glob_locals)}"
                self.glob_locals[o.name] = local
            return _Val(local, np.dtype(np.uint64), True)
        raise UnsupportedKernel(f"operand {o!r}")

    def sreg_val(self, name: str) -> _Val:
        u32 = np.dtype(np.uint32)
        if name == "tid.x":
            return _Val("warp.tid_x", u32, False)
        if name == "tid.y":
            return _Val("warp.tid_y", u32, False)
        if name == "tid.z":
            return _Val("warp.tid_z", u32, False)
        if name in ("laneid", "warpid"):
            return _Val(f"warp.{name}", u32, False)
        if name.startswith("ctaid."):
            # one block id per lane: the axis may hold several blocks.
            # The tree walk's 0-d ctaid/warpid would raise in
            # _cast_scalar where astype wraps, but the lowerer gives
            # every integer op its operands' type (a wrapping Cvt), so
            # no such cast overflows
            return _Val(f"warp.ctaid_{name[-1]}", u32, False)
        exprs = {
            "ntid.x": "np.uint32(warp.block.block_dim[0])",
            "ntid.y": "np.uint32(warp.block.block_dim[1])",
            "ntid.z": "np.uint32(warp.block.block_dim[2])",
            "nctaid.x": "np.uint32(warp.block.grid_dim[0])",
            "nctaid.y": "np.uint32(warp.block.grid_dim[1])",
            "nctaid.z": "np.uint32(warp.block.grid_dim[2])",
        }
        expr = exprs.get(name)
        if expr is None:
            raise UnsupportedKernel(f"sreg {name}")
        ent = self.sreg_locals.get(name)
        if ent is None:
            ent = (f"s{len(self.sreg_locals)}", expr)
            self.sreg_locals[name] = ent
        return _Val(ent[0], u32, True)

    # -- temp bookkeeping --------------------------------------------------
    def vcast_text(self, text: str, src: np.dtype, dt: np.dtype) -> str:
        """``_cast_vec``/``_convert`` specialised at compile time: the
        trunc-before-narrow rule depends only on the static dtypes, and the
        surrounding segment already suppresses fp warnings."""
        dd = self.kc.dt(dt)
        if dt.kind in "iu" and src.kind == "f":
            return f"np.trunc({text}).astype({dd}, casting='unsafe')"
        return f"{text}.astype({dd}, casting='unsafe')"

    def scast_text(self, text: str, src: np.dtype, dt: np.dtype) -> str:
        """``_cast_scalar`` specialised at compile time (same rules)."""
        dd = self.kc.dt(dt)
        if dt.kind in "iu" and src.kind == "f":
            return f"{dd}.type(np.trunc({text}))"
        if src.kind == "b":
            return f"{dd}.type(bool({text}))"
        return f"{dd}.type(({text}).item())"

    def cast_val(self, v: _Val, dt: np.dtype) -> _Val:
        if v.dtype == dt:
            return v
        if v.has_const:
            with np.errstate(all="ignore"):
                c = _cast_scalar(np.asarray(v.const), dt)
            return self.kc.fold(c)
        if v.scalar:
            return _Val(self.scast_text(v.text, v.dtype, dt), dt, True,
                        pure=v.pure, refs=v.refs)
        return _Val(self.vcast_text(v.text, v.dtype, dt), dt, False,
                    pure=v.pure, refs=v.refs)

    def materialize(self, name: str, cv: _Val) -> None:
        t = self.temp_names.get(name)
        if t is None:
            t = f"t{len(self.temp_names)}"
            self.temp_names[name] = t
        text = cv.text + (".copy()" if cv.bare_reg else "")
        self.w(f"{t} = {text}")
        self.temp_state[name] = ("local", _Val(
            t, cv.dtype, cv.scalar, const=cv.const, has_const=cv.has_const))

    def flush_refs(self, local: str) -> None:
        if not self.pend_order:
            return
        for name in list(self.pend_order):
            _kind, val = self.temp_state[name]
            if local in val.refs:
                self.pend_order.remove(name)
                self.materialize(name, val)

    def flush_all(self) -> None:
        for name in self.pend_order:
            self.materialize(name, self.temp_state[name][1])
        self.pend_order = []

    def write_dst(self, reg: Reg, v: _Val, impure: bool = False) -> None:
        name = reg.name
        dt = np_dtype(reg.dtype)
        info = self.an.regs[name]
        if info.temp:
            if not info.uses:
                if impure:
                    self.w(v.text)
                return
            cv = self.cast_val(v, dt)
            if len(info.uses) == 1 and cv.pure and not impure:
                self.temp_state[name] = ("pend", cv)
                self.pend_order.append(name)
                return
            self.materialize(name, cv)
            return
        local = self.reg_local(name, reg.dtype)
        self.flush_refs(local)
        if v.has_const:
            with np.errstate(all="ignore"):
                c = _cast_scalar(np.asarray(v.const), dt)
            self.w(f"{local}[m] = {self.kc.fold(c).text}")
        elif v.scalar:
            if v.dtype == dt:
                self.w(f"{local}[m] = {v.text}")
            else:
                self.w(f"{local}[m] = {self.scast_text(v.text, v.dtype, dt)}")
        elif v.dtype == dt:
            self.w(f"np.copyto({local}, {v.text}, where=m)")
        else:
            self.w(f"np.copyto({local}, "
                   f"{self.vcast_text(v.text, v.dtype, dt)}, where=m)")

    # -- structured emission ----------------------------------------------
    def block_ops(self, ops: list, maybe_empty: bool) -> None:
        i, n = 0, len(ops)
        while i < n:
            known_nw, self.m_nw = self.m_nw, None
            op = ops[i]
            if _is_seg_op(op):
                j = i + 1
                while j < n and _is_seg_op(ops[j]):
                    j += 1
                self.emit_segment(ops[i:j], maybe_empty, known_nw)
                i = j
                continue
            cls = type(op)
            if cls is IfOp:
                self.emit_if(op, maybe_empty)
                maybe_empty = True
            elif cls is LoopOp:
                self.emit_loop(op, maybe_empty)
                maybe_empty = True
            elif cls is BarOp:
                self.emit_bar(op, maybe_empty, known_nw)
            elif cls is CallOp:
                call = "_bcall" if local_call(op.name) else "_warps_call"
                self.guard_open(maybe_empty)
                self.w(f"m = yield from {call}(warp, {self.kc.op_ref(op)}, "
                       f"{self.regspec(op.args, op.dst)}, m)")
                self.guard_close(maybe_empty)
                maybe_empty = True
            elif cls in (PrintfOp, Atom):
                fn = "_printf" if cls is PrintfOp else "_atomic"
                regs = (op.args if cls is PrintfOp
                        else (op.dst, op.addr, op.a, op.b))
                self.guard_open(maybe_empty)
                self.w(f"_warps_do(warp, {fn}, {self.kc.op_ref(op)}, "
                       f"{self.regspec(regs)}, m)")
                self.guard_close(maybe_empty)
            elif cls is RetOp:
                self.guard_open(maybe_empty)
                self.w("stats.instructions += _nw(m)")
                self.w("ret |= m")
                self.w("m = _Z")
                self.guard_close(maybe_empty)
                return
            elif cls is BreakOp:
                if not self.loop_ctx:
                    raise UnsupportedKernel("break outside loop")
                bk, _cn = self.loop_ctx[-1]
                self.guard_open(maybe_empty)
                self.w(f"{bk} |= m")
                self.w("m = _Z")
                self.guard_close(maybe_empty)
                return
            elif cls is ContinueOp:
                if not self.loop_ctx:
                    raise UnsupportedKernel("continue outside loop")
                _bk, cn = self.loop_ctx[-1]
                self.guard_open(maybe_empty)
                self.w(f"{cn} |= m")
                self.w("m = _Z")
                self.guard_close(maybe_empty)
                return
            else:
                raise UnsupportedKernel(f"op {cls.__name__}")
            i += 1

    def emit_segment(self, seg: list, maybe_empty: bool,
                     known_nw: Optional[str] = None) -> None:
        instr = 0
        alu = {"alu_f32": 0, "alu_f64": 0, "alu_int": 0, "special_ops": 0}

        def bucket(dtype: str, special: bool) -> str:
            if special:
                return "special_ops"
            if dtype == "f32":
                return "alu_f32"
            if dtype == "f64":
                return "alu_f64"
            return "alu_int"

        for op in seg:
            cls = type(op)
            if cls is BinOp:
                instr += 1
                alu[bucket(op.dst.dtype, False)] += 1
            elif cls is UnOp:
                instr += 1
                alu[bucket(op.dst.dtype, op.op in _SPECIAL)] += 1
            elif cls in (Mov, SelOp, Cvt, Sreg, CallOp):
                instr += 1
            # Ld/St stats are bumped inside _fload/_fstore
        self.guard_open(maybe_empty)
        # every op of the segment runs under this one mask
        self.w(f"_n = {known_nw or '_nw(m)'}")
        if instr:
            self.w(f"stats.instructions += {instr} * _n")
        if any(alu.values()):
            self.w("_a = int(np.count_nonzero(m))")
            for key, count in alu.items():
                if count == 1:
                    self.w(f"stats.{key} += _a")
                elif count:
                    self.w(f"stats.{key} += {count} * _a")
        self.w("with np.errstate(all='ignore'):")
        self.ind += 1
        mark = len(self.lines)
        for op in seg:
            self.emit_seg_op(op)
        self.flush_all()
        if len(self.lines) == mark:
            self.w("pass")
        self.ind -= 1
        self.guard_close(maybe_empty)

    def emit_seg_op(self, op) -> None:
        cls = type(op)
        if cls is BinOp:
            self.write_dst(op.dst, self.bin_val(op))
        elif cls is UnOp:
            self.write_dst(op.dst, self.un_val(op))
        elif cls is Mov:
            self.write_dst(op.dst, self.operand(op.a))
        elif cls is SelOp:
            self.write_dst(op.dst, self.sel_val(op))
        elif cls is Cvt:
            self.write_dst(op.dst, self.cvt_val(op))
        elif cls is Sreg:
            self.write_dst(op.dst, self.sreg_val(op.sreg))
        elif cls is Ld:
            dt = self.kc.dt(np_dtype(op.dst.dtype))
            slot = self.frame_slot(op.addr)
            if slot is not None:
                v = _Val(f"_frame_load(warp, {slot}, {dt}, m, _n)",
                         np_dtype(op.dst.dtype), False, pure=False)
            else:
                a = self.operand(op.addr)
                v = _Val(f"_fload(engine, warp, {a.text}, {dt}, m, _n)",
                         np_dtype(op.dst.dtype), False, pure=False,
                         refs=a.refs)
            self.write_dst(op.dst, v, impure=True)
        elif cls is St:
            dt = self.kc.dt(np_dtype(op.dtype))
            slot = self.frame_slot(op.addr)
            val = self.operand(op.value)
            if slot is not None:
                self.w(f"_frame_store(warp, {slot}, {dt}, {val.text}, m, _n)")
            else:
                a = self.operand(op.addr)
                self.w(f"_fstore(engine, warp, {a.text}, {dt}, {val.text}, "
                       "m, _n)")
        elif op.name == "__local_base" and self.frame_only(op.dst):
            pass  # every use reads the frame directly
        else:  # CallOp: _is_seg_op admits only the _PSEUDO calls
            self.emit_pseudo(op)

    def frame_slot(self, addr) -> Optional[int]:
        """The frame offset of a load's or store's address register when
        it is a frame slot (see :class:`_Analysis`)."""
        if type(addr) is Reg:
            return self.an.regs[addr.name].frame
        return None

    def frame_only(self, reg: Reg) -> bool:
        """Whether ``reg`` is a frame slot used only as an address: its
        value is then never read."""
        info = self.an.regs[reg.name]
        return (info.frame is not None and not info.pinned
                and info.addr_uses == len(info.uses))

    def emit_pseudo(self, op: CallOp) -> None:
        dt = np_dtype(op.dst.dtype)
        idx = int(op.args[0].value)
        if op.name == "__ldparam":
            v = _Val(f"np.full(W, warp.params[{idx}], "
                     f"dtype={self.kc.dt(dt)})", dt, False)
        elif op.name == "__ldarg":
            v = _Val(f"_ldargv(warp, {idx}, {self.kc.dt(dt)})", dt, False)
        else:  # __local_base
            v = _Val(f"(warp.block.local_base(warp.lane_linear) "
                     f"+ np.uint64({idx}))", np.dtype(np.uint64), False)
        self.write_dst(op.dst, v)

    # -- expression builders ----------------------------------------------
    def _meta(self, fn, *dummies):
        with np.errstate(all="ignore"):
            return fn(*dummies)

    def bin_val(self, op: BinOp) -> _Val:
        a = self.operand(op.a)
        b = self.operand(op.b)
        if op.op in ("add", "sub") and _wraps_u64(a.dtype, b.dtype):
            a, b = self.as_u64(a), self.as_u64(b)
        if a.has_const and b.has_const:
            r = self._meta(_binop, op.op, a.const, b.const)
            return self.kc.fold(r)
        r = np.asarray(self._meta(_binop, op.op, _dummy(a), _dummy(b)))
        text = self._bin_text(op.op, a, b)
        return _Val(text, r.dtype, r.ndim == 0,
                    pure=a.pure and b.pure, refs=a.refs | b.refs)

    def as_u64(self, v: _Val) -> _Val:
        """``v`` as a u64 operand of wrapping pointer arithmetic."""
        u64 = np.dtype(np.uint64)
        if v.dtype == u64:
            return v
        if v.has_const:
            return self.kc.fold(np.asarray(v.const).astype(u64)[()])
        return _Val(f"{v.text}.astype({self.kc.dt(u64)})", u64, v.scalar,
                    pure=v.pure, refs=v.refs)

    def _bin_text(self, o: str, a: _Val, b: _Val) -> str:
        sym = _INLINE_BIN.get(o)
        if sym is not None:
            return f"({a.text} {sym} {b.text})"
        int_int = a.dtype.kind in "iu" and b.dtype.kind in "iu"
        if o == "div" and not int_int:
            return f"({a.text} / {b.text})"
        if o == "rem" and not int_int:
            return f"np.fmod({a.text}, {b.text})"
        if o in ("and", "or") and a.dtype.kind != "b":
            return f"({a.text} {'&' if o == 'and' else '|'} {b.text})"
        if o == "min":
            return f"np.minimum({a.text}, {b.text})"
        if o == "max":
            return f"np.maximum({a.text}, {b.text})"
        if o == "pow":
            return f"np.power({a.text}, {b.text})"
        # int div/rem, shifts, bool and/or: keep the reference helper
        return f"_bop({o!r}, {a.text}, {b.text})"

    def un_val(self, op: UnOp) -> _Val:
        a = self.operand(op.a)
        if a.has_const:
            return self.kc.fold(self._meta(_unop, op.op, a.const))
        r = np.asarray(self._meta(_unop, op.op, _dummy(a)))
        o = op.op
        if o == "neg":
            text = f"(-{a.text})"
        elif o == "not":
            text = f"(~{a.text})"
        elif o == "lnot":
            text = f"(~{a.text}.astype(bool))"
        elif o == "rcp":
            text = f"(1.0 / {a.text})"
        elif o in ("abs", "sqrt", "exp", "log", "sin", "cos", "floor",
                   "ceil"):
            text = f"np.{'abs' if o == 'abs' else o}({a.text})"
        else:
            raise UnsupportedKernel(f"unop {o}")
        return _Val(text, r.dtype, r.ndim == 0, pure=a.pure, refs=a.refs)

    def sel_val(self, op: SelOp) -> _Val:
        p = self.operand(op.pred)
        a = self.operand(op.a)
        b = self.operand(op.b)

        def ref(pv, av, bv):
            return np.where(np.asarray(pv).astype(bool), av, bv)

        if p.has_const and a.has_const and b.has_const:
            return self.kc.fold(self._meta(ref, p.const, a.const, b.const))
        r = np.asarray(self._meta(ref, _dummy(p), _dummy(a), _dummy(b)))
        text = f"np.where({p.text}.astype(bool), {a.text}, {b.text})"
        return _Val(text, r.dtype, r.ndim == 0,
                    pure=p.pure and a.pure and b.pure,
                    refs=p.refs | a.refs | b.refs)

    def cvt_val(self, op: Cvt) -> _Val:
        a = self.operand(op.a)
        dt = np_dtype(op.dst.dtype)
        if a.has_const:
            return self.kc.fold(self._meta(_convert, a.const, dt))
        r = np.asarray(self._meta(_convert, _dummy(a), dt))
        if a.scalar:
            # _convert wraps out-of-range values via astype (unlike the
            # OverflowError-raising _cast_scalar), so stay on the 0-d path
            text = self.vcast_text(f"np.asarray({a.text})", a.dtype, dt)
        else:
            text = self.vcast_text(a.text, a.dtype, dt)
        return _Val(text, r.dtype, a.scalar, pure=a.pure, refs=a.refs)

    # -- control flow ------------------------------------------------------
    def cond_text(self, cond: _Val) -> str:
        """Lane-mask text for a branch/loop condition; the broadcast and
        bool cast are elided when the static type already guarantees them
        (cc is consumed before anything it may alias can be mutated)."""
        if cond.scalar:
            return f"np.broadcast_to(np.asarray({cond.text}).astype(bool), _SHP)"
        if cond.dtype == _BOOL_DT:
            return cond.text
        return f"{cond.text}.astype(bool)"

    def emit_if(self, op: IfOp, maybe_empty: bool) -> None:
        k = self.uid()
        cond = self.operand(op.cond)
        self.guard_open(maybe_empty)
        self.w(f"cc{k} = {self.cond_text(cond)}")
        self.w(f"tm{k} = m & cc{k}")
        self.w(f"em{k} = m & ~cc{k}")
        self.w(f"ta{k} = {self.any_text(f'tm{k}')}")
        self.w(f"ea{k} = {self.any_text(f'em{k}')}")
        self.w(f"_bbranch(stats, tm{k}, em{k}, ta{k}, ea{k})")
        if op.then_ops:
            self.w(f"if ta{k}:")
            self.ind += 1
            self.w(f"m = tm{k}")
            self.block_ops(op.then_ops, False)
            self.w(f"tm{k} = m")
            self.ind -= 1
        if op.else_ops:
            self.w(f"if ea{k}:")
            self.ind += 1
            self.w(f"m = em{k}")
            self.block_ops(op.else_ops, False)
            self.w(f"em{k} = m")
            self.ind -= 1
        self.w(f"m = tm{k} | em{k}")
        self.guard_close(maybe_empty)

    def emit_loop(self, op: LoopOp, maybe_empty: bool) -> None:
        k = self.uid()
        may_block = loop_may_block(op)
        step_ops = op.step_ops
        # break/continue/return trackers are emitted only when the loop can
        # actually produce them — the common counted loop carries none
        has_b, has_c = _scan_bc(op.body_ops)
        has_ret = self.has_ret
        self.guard_open(maybe_empty)
        self.w(f"lv{k} = m")
        self.w(f"ex{k} = np.zeros(W, np.bool_)")
        self.w("while True:")
        self.ind += 1
        if has_ret:
            self.w(f"lv{k} = lv{k} & ~ret")
        self.w(f"if not {self.any_text(f'lv{k}')}: break")
        self.w(f"m = lv{k}")
        self.block_ops(op.cond_ops, False)
        self.w(f"lv{k} = m")
        self.w(f"if not {self.any_text(f'lv{k}')}: break")
        cond = self.operand(op.cond)
        self.w(f"cc{k} = {self.cond_text(cond)}")
        self.w(f"ac{k} = lv{k} & cc{k}")
        self.w(f"ex{k} |= lv{k} & ~cc{k}")
        self.w(f"if not {self.any_text(f'ac{k}')}: break")
        self.w(f"it{k} = _nw(ac{k})")
        self.w(f"stats.loop_iterations += it{k}")
        if has_b:
            self.w(f"bk{k} = np.zeros(W, np.bool_)")
        if has_c:
            self.w(f"cn{k} = np.zeros(W, np.bool_)")
        self.w(f"m = ac{k}")
        self.m_nw = f"it{k}"
        self.loop_ctx.append((f"bk{k}", f"cn{k}"))
        self.block_ops(op.body_ops, False)
        self.m_nw = None
        self.loop_ctx.pop()
        self.w(f"rn{k} = m | cn{k}" if has_c else f"rn{k} = m")
        if step_ops:
            self.w(f"if {self.any_text(f'rn{k}')}:")
            self.ind += 1
            self.w(f"sb{k} = np.zeros(W, np.bool_)")
            self.w(f"sc{k} = np.zeros(W, np.bool_)")
            self.w(f"m = rn{k}")
            self.loop_ctx.append((f"sb{k}", f"sc{k}"))
            self.block_ops(step_ops, False)
            self.loop_ctx.pop()
            self.w(f"rn{k} = m")
            self.ind -= 1
        if has_b:
            self.w(f"ex{k} |= bk{k}")
        self.w(f"lv{k} = rn{k}")
        if may_block and self.kc.block_wide:
            # every warp that ran the iteration would spin once; a
            # block-wide executor has no one to hand control to
            self.w(f"stats.spins += it{k}")
        elif may_block:
            self.w("yield ('spin',)")
        self.ind -= 1
        if has_ret:
            self.w(f"m = (ex{k} | lv{k}) & ~ret")
        else:
            self.w(f"m = ex{k} | lv{k}")
        self.guard_close(maybe_empty)

    def emit_bar(self, op: BarOp, maybe_empty: bool,
                 known_nw: Optional[str] = None) -> None:
        b = self.operand(op.barrier)
        bid_t = str(int(b.const)) if b.has_const else f"_barid({b.text})"
        if op.count is None:
            cnt_t = "None"
        else:
            c = self.operand(op.count)
            cnt_t = str(int(c.const)) if c.has_const else f"_barcnt({c.text})"
        self.guard_open(maybe_empty)
        if self.kc.block_wide:
            # phase-safe (the kernel is block-wide): count, don't schedule
            self.w(f"_bbar(engine, {bid_t}, {cnt_t}, {known_nw or '_nw(m)'})")
        else:
            self.w(f"yield ('bar', {bid_t}, {cnt_t})")
        self.guard_close(maybe_empty)


# --------------------------------------------------------------------------
# public objects
# --------------------------------------------------------------------------

@dataclass
class CompiledKernel:
    """A kernel lowered to generated Python closures: ``body_fn`` runs the
    kernel body, ``sub_fns`` the subfunctions, indexed like
    ``WarpExec._subfn_by_id``; each runs on a :class:`CompiledBlockExec`
    of any width."""

    kernel: KernelIR
    body_fn: Callable
    sub_fns: list[Callable]
    source: str


def compile_kernel(kernel: KernelIR) -> CompiledKernel:
    """Lower ``kernel`` to closures; raises :class:`UnsupportedKernel`."""
    return _KernelCompiler(kernel).compile()


class CompiledKernelCache:
    """Launch-level memoization keyed on (kernel image id, param dtypes).

    Shared by every engine a driver creates, so the benchmark steady
    state (same image, thousands of launches) compiles exactly once.
    Every entry is a compiled kernel: a refusal
    (:class:`UnsupportedKernel`) or any other compiler exception
    propagates, fails the launch and caches nothing.
    """

    def __init__(self):
        self._cache: dict = {}
        self.compiled = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, kernel: KernelIR) -> CompiledKernel:
        key = (id(kernel), tuple(p.dtype for p in kernel.params))
        entry = self._cache.get(key)
        if entry is not None:
            self.hits += 1
            return entry[1]
        ck = compile_kernel(kernel)
        self.compiled += 1
        # keep a reference to the kernel so its id() cannot be recycled
        self._cache[key] = (kernel, ck)
        return ck


@functools.lru_cache(maxsize=64)
def _segment_lanes(warp_ids: tuple, nthreads: int, block_dim: tuple,
                   nseg: int) -> tuple:
    """Read-only lane vectors of ``nseg`` block segments laid end to end:
    linear thread id, valid, tid.x/y/z, lane id and warp id within the
    block, and a lane's segment index (lane ``32*k + i`` of a segment is
    lane ``i`` of warp ``warp_ids[k]``)."""
    lanes = np.arange(WARP_SIZE, dtype=np.int64)
    one = (np.asarray(warp_ids, dtype=np.int64)[:, None] * WARP_SIZE
           + lanes).reshape(-1)
    linear = np.tile(one, nseg)
    bx, by, _bz = block_dim
    out = (linear, linear < nthreads,
           (linear % bx).astype(np.uint32),
           ((linear // bx) % by).astype(np.uint32),
           (linear // (bx * by)).astype(np.uint32),
           (linear % WARP_SIZE).astype(np.uint32),
           (linear // WARP_SIZE).astype(np.uint32),
           np.repeat(np.arange(nseg, dtype=np.uint64), one.size),
           np.zeros(linear.size, dtype=bool))
    for arr in out:
        arr.setflags(write=False)
    return out


class CompiledBlockExec(Lanes):
    """The executor of compiled code: the executed warps of one or more
    blocks on one lane axis.

    ``blocks`` are the blocks' contexts, in launch order; each owns one
    *block segment* of ``len(warp_ids) * 32`` lanes, and lane ``32*k + i``
    of a segment is lane ``i`` of warp ``warp_ids[k]`` of its block.
    Generated code reads the same attributes it reads from a
    :class:`WarpExec`, over ``width`` lanes: thread, lane and warp ids
    and the block ids ``ctaid_*`` are per lane, and ``block`` carries the
    geometry every block shares.  A shared or local address is the one a
    block run alone would use: :meth:`window` moves it into the lane's
    own block segment of ``windows`` (name -> memory holding every
    block's window end to end, whose per-block pieces are the blocks'
    ``smem``/``lmem``).  Block-local runtime calls go to one executor per
    block (:meth:`segment`); per-warp constructs and loads or stores that
    must split go through one executor per warp (:meth:`warp_view`),
    created on first use, whose registers are slices of this one's.

    A kernel that is not block-wide runs one executor of one warp per
    warp, under the block scheduler: it has the ``warp_index``,
    ``_arg_stack`` and :meth:`call_subfunction` of a warp, which the
    master/worker runtime uses.
    """

    def __init__(self, compiled: Optional[CompiledKernel], engine,
                 blocks: list, warp_ids: list[int], nthreads: int,
                 kernel: KernelIR, params: list,
                 windows: Optional[dict] = None):
        self._compiled = compiled
        self.engine = engine
        self.blocks = blocks
        self.block = blocks[0]
        self.warp_ids = warp_ids
        #: the warp's index in its block, when a segment is one warp
        self.warp_index = warp_ids[0] if len(warp_ids) == 1 else None
        self.nthreads = nthreads
        self.kernel = kernel
        self.params = params
        nseg = len(blocks)
        (self.lane_linear, self.valid, self.tid_x, self.tid_y, self.tid_z,
         self.laneid, self.warpid, seg_of_lane, self.no_lanes) = \
            _segment_lanes(tuple(warp_ids), nthreads,
                           tuple(blocks[0].block_dim), nseg)
        self.width = self.lane_linear.size
        self.seg_width = self.width // nseg
        ids = np.asarray([b.block_idx for b in blocks], dtype=np.uint32)
        self.ctaid_x, self.ctaid_y, self.ctaid_z = (
            np.repeat(ids[:, d], self.seg_width) for d in range(3))
        self._seg_of_lane = seg_of_lane
        #: frame columns (:meth:`frame`), keyed (offset, dtype)
        self._frames: dict = {}
        if nseg == 1:
            #: one executor per block segment (None: this is the block's)
            self.segments = None
            self._windows = None
        else:
            self.segments = [None] * nseg
            self._windows = {
                name: (mem, seg_of_lane * np.uint64(mem.capacity // nseg))
                for name, mem in (windows or {}).items() if mem is not None}
        self.regs: dict[str, np.ndarray] = {}
        self._ret_stack: list[np.ndarray] = []
        self._arg_stack: list[list] = []
        self._views: list[Optional[CompiledBlockExec]] = \
            [None] * len(warp_ids)

    def window(self, space, addrs: np.ndarray, mask: np.ndarray,
               itemsize: int):
        """The memory and addresses an access of one block's shared or
        local ``space`` at ``addrs`` touches on this axis: each lane's
        address moved into its own block's window.  Raises
        :class:`~repro.mem.MemoryError_` when an active lane leaves its
        block's window, so block k never reaches block k+1's memory."""
        if self._windows is None:
            return space, addrs
        mem, shift = self._windows[space.name]
        off = addrs - np.uint64(space.base)
        if np.count_nonzero((off > np.uint64(space.capacity - itemsize))
                            & mask):
            raise MemoryError_(
                f"{space.name}: access out of its block's window")
        return mem, addrs + shift

    def place(self, lo: int, hi: int, i0: int, i1: int):
        """Where an access goes whose active lanes, the first ``i0`` and
        the last ``i1``, touch the bytes at addresses ``[lo, hi)``:
        ``(memory, shift)``, the byte at address ``x`` being
        ``memory.buf[x + shift]``.  None unless every byte lies in global
        memory or in one shared or local window of the lanes' own block
        (an access that must split per warp, or fail)."""
        gmem = self.engine.gmem
        if gmem.base <= lo and hi <= gmem.base + gmem.capacity:
            return gmem, -gmem.base
        block = self.block
        for mem in (block.smem, block.lmem):
            if mem is not None and mem.base <= lo \
                    and hi <= mem.base + mem.capacity:
                if self._windows is None:
                    return mem, -mem.base
                seg = i0 // self.seg_width
                if i1 // self.seg_width != seg:
                    return None
                return (self._windows[mem.name][0],
                        seg * mem.capacity - mem.base)
        return None

    def frame(self, offset: int, dtype: np.dtype):
        """Column ``offset`` of every lane's local frame as ``dtype``:
        ``(view, rows)``, lane ``i``'s cell being ``view[i]`` when
        ``rows`` is None, else ``view[rows[i]]``."""
        key = (offset, dtype)
        col = self._frames.get(key)
        if col is None:
            per = self.block.local_per_thread
            ids = self.warp_ids
            if self._windows is None:
                mem = self.block.lmem
            else:
                mem = self._windows["local"][0]
            nrows = mem.capacity // per
            r0 = ids[0] * WARP_SIZE
            if ids[-1] - ids[0] == len(ids) - 1 \
                    and r0 + self.width <= nrows \
                    and (self.segments is None
                         or (r0 == 0 and self.seg_width == self.nthreads)):
                # lane i's frame is row r0 + i
                col = (np.ndarray((self.width,), dtype, mem.buf,
                                  r0 * per + offset, (per,)), None)
            else:
                rows = (self._seg_of_lane.astype(np.int64) * self.nthreads
                        + self.lane_linear)
                # lanes past the block's threads are never active: any
                # row will do
                col = (np.ndarray((nrows,), dtype, mem.buf, offset, (per,)),
                       np.where(rows < nrows, rows, 0))
            self._frames[key] = col
        return col

    def active_warps(self, mask: np.ndarray):
        """``(k, lo, hi)`` of each warp with an active lane, in order."""
        live = mask.reshape(-1, WARP_SIZE).any(1)
        for k in np.flatnonzero(live).tolist():
            lo = k * WARP_SIZE
            yield k, lo, lo + WARP_SIZE

    def active_segments(self, mask: np.ndarray):
        """``(executor, lo, hi)`` of each block segment with an active
        lane, in block order."""
        live = mask.reshape(len(self.blocks), -1).any(1)
        for k in np.flatnonzero(live).tolist():
            lo = k * self.seg_width
            yield self.segment(k), lo, lo + self.seg_width

    def segment(self, k: int) -> "CompiledBlockExec":
        """The executor of block segment ``k`` alone."""
        if self.segments is None:
            return self
        seg = self.segments[k]
        if seg is None:
            seg = self.segments[k] = CompiledBlockExec(
                self._compiled, self.engine, [self.blocks[k]], self.warp_ids,
                self.nthreads, self.kernel, self.params)
        return seg

    def warp_view(self, k: int) -> "CompiledBlockExec":
        """The executor of warp ``k`` of the axis alone."""
        nw = len(self.warp_ids)
        if self.segments is not None:
            return self.segment(k // nw).warp_view(k % nw)
        view = self._views[k]
        if view is None:
            view = self._views[k] = CompiledBlockExec(
                self._compiled, self.engine, [self.block],
                [self.warp_ids[k]], self.nthreads, self.kernel, self.params)
        return view

    def run_kernel(self):
        yield from self._compiled.body_fn(self, self.valid)

    def call_subfunction(self, fid: int, args: list, mask: np.ndarray):
        """Run registered device subfunction ``fid`` (a parallel-region
        body) on this executor's lanes."""
        self._arg_stack.append(args)
        try:
            yield from self._compiled.sub_fns[fid](self, mask)
        finally:
            self._arg_stack.pop()
