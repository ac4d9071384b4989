"""Functional engine: block scheduling, named barriers, memory routing.

The Jetson Nano GPU has a single streaming multiprocessor, so thread
blocks execute one at a time; within a block, warps are scheduled
cooperatively (each warp is a generator that yields at barriers and in
spin loops).  Named barriers implement PTX ``bar.sync b, n`` semantics:
an arriving warp contributes 32 threads towards the count; release happens
when ``ceil(n / 32)`` warps have arrived (counts must be multiples of the
warp size — enforced, since the paper's runtime rounds N up to W*ceil(N/W)).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from repro.cuda.device import DeviceProperties, Dim3
from repro.cuda.ptx.ir import Atom, BarOp, CallOp, KernelIR, LoopOp, walk_ops
from repro.cuda.ptx.lower import LOCAL_WINDOW_BASE, SHARED_WINDOW_BASE
from repro.cuda.sim.coalesce import transactions
from repro.cuda.sim.compile import (
    CompiledKernelCache, CompiledWarpExec, compile_kernel,
)
from repro.cuda.sim.warp import WARP_SIZE, WarpExec
from repro.mem import LinearMemory
from repro.prof.activity import KernelExecActivity


class LaunchError(Exception):
    """Kernel execution failed (deadlock, bad barrier, resource limits)."""


# -- memoized coalescing ------------------------------------------------------
# A kernel's warps repeat a handful of address *shapes*: the same relative
# stride pattern at different bases (each loop iteration, each block).  The
# transaction count is invariant under translating every address by a
# multiple of 32 (all segment indices shift uniformly), so the count is
# fully determined by (base offset within a segment, per-lane deltas from
# lane 0, itemsize, active mask) — uint64 wraparound in the deltas is
# harmless because subtraction mod 2^64 is itself translation-invariant.
# Keying on that shape turns the per-warp Python segment walk into one dict
# probe.
_TXN_MEMO: dict = {}
_TXN_MEMO_CAP = 1 << 16


def transactions_memo(addrs: np.ndarray, itemsize: int,
                      mask: np.ndarray) -> int:
    """Memoized :func:`~repro.cuda.sim.coalesce.transactions`."""
    key = (int(addrs[0]) & 31, int(itemsize),
           (addrs - addrs[0]).tobytes(), mask.tobytes())
    n = _TXN_MEMO.get(key)
    if n is None:
        if len(_TXN_MEMO) >= _TXN_MEMO_CAP:
            _TXN_MEMO.clear()
        n = transactions(addrs, itemsize, mask)
        _TXN_MEMO[key] = n
    return n


@dataclass
class KernelStats:
    """Dynamic execution counters for one kernel launch.

    ``instructions`` counts warp-level dispatches (the unit the timing
    model prices); ALU counters additionally track active-lane work.
    """

    instructions: int = 0
    alu_f32: int = 0
    alu_f64: int = 0
    alu_int: int = 0
    special_ops: int = 0
    load_instructions: int = 0
    store_instructions: int = 0
    #: loads/stores that hit device DRAM (latency-relevant); the rest are
    #: shared/local (on-chip or L1-cached)
    global_mem_instructions: int = 0
    global_transactions: int = 0
    shared_accesses: int = 0
    local_accesses: int = 0
    barriers: int = 0
    atomics: int = 0
    divergent_branches: int = 0
    loop_iterations: int = 0
    spins: int = 0
    blocks_launched: int = 0
    warps_launched: int = 0
    threads_launched: int = 0
    #: filled by the launcher
    grid: tuple[int, int, int] = (1, 1, 1)
    block: tuple[int, int, int] = (1, 1, 1)
    smem_per_block: int = 0
    registers_per_thread: int = 32

    def note_alu(self, dtype: str, active: int, special: bool = False) -> None:
        self.instructions += 1
        if special:
            self.special_ops += active
        elif dtype == "f32":
            self.alu_f32 += active
        elif dtype == "f64":
            self.alu_f64 += active
        else:
            self.alu_int += active

    def merge_scaled(self, other: "KernelStats", factor: float) -> None:
        """Accumulate ``other`` scaled by ``factor`` (representative-block
        extrapolation in the timing engine)."""
        for name in (
            "instructions", "alu_f32", "alu_f64", "alu_int", "special_ops",
            "load_instructions", "store_instructions",
            "global_mem_instructions", "global_transactions",
            "shared_accesses", "local_accesses", "barriers", "atomics",
            "divergent_branches", "loop_iterations", "spins",
        ):
            setattr(self, name, getattr(self, name) + int(getattr(other, name) * factor))


class BlockCtx:
    """Per-block execution context: shared memory, local memory, and a
    scratch area for the device runtime's per-block state."""

    def __init__(self, block_idx, block_dim, grid_dim, smem_size: int,
                 local_per_thread: int):
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.smem = LinearMemory(max(smem_size, 16), base=SHARED_WINDOW_BASE,
                                 name="shared")
        nthreads = block_dim[0] * block_dim[1] * block_dim[2]
        self.local_per_thread = local_per_thread
        if local_per_thread:
            self.lmem = LinearMemory(local_per_thread * nthreads,
                                     base=LOCAL_WINDOW_BASE, name="local")
        else:
            self.lmem = None
        #: device-runtime per-block state (shared-memory stack pointer,
        #: registered parallel region, section counters, ...)
        self.devrt: dict = {}

    def local_base(self, lane_linear: np.ndarray) -> np.ndarray:
        return (LOCAL_WINDOW_BASE
                + lane_linear.astype(np.uint64) * np.uint64(self.local_per_thread))


class FunctionalEngine:
    """Executes kernels functionally on the simulated device."""

    def __init__(
        self,
        device: DeviceProperties,
        gmem: LinearMemory,
        intrinsics: Optional[dict[str, Callable]] = None,
        module_globals: Optional[dict[str, int]] = None,
        fastpath: str = "off",
        compile_cache: Optional[CompiledKernelCache] = None,
        recorder=None,
    ):
        if fastpath not in ("on", "off", "verify"):
            raise ValueError(f"bad fastpath mode {fastpath!r}")
        self.device = device
        self.gmem = gmem
        self.intrinsics = intrinsics or {}
        self.module_globals = module_globals or {}
        self.fastpath = fastpath
        self.compile_cache = compile_cache
        #: optional repro.prof.activity.ActivityRecorder: every functional
        #: execution emits one kernel_exec record with the dynamic counters
        #: of what actually ran.  The record is produced here — above the
        #: tree-walk/compiled split — so both execution paths emit
        #: byte-identical records (asserted by tests/test_prof.py).
        self.recorder = recorder
        self._local_compiled: dict[int, tuple] = {}
        self.stdout: list[str] = []
        self.stats = KernelStats()
        self._loop_block_cache: dict[int, bool] = {}

    # -- memory routing ------------------------------------------------------
    def global_addr(self, name: str) -> int:
        try:
            return self.module_globals[name]
        except KeyError:
            raise LaunchError(f"unresolved device global {name!r}") from None

    def resolve_space(self, warp: WarpExec, addr: int) -> LinearMemory:
        if self.gmem.base <= addr < self.gmem.base + self.gmem.capacity:
            return self.gmem
        block = warp.block
        if SHARED_WINDOW_BASE <= addr < SHARED_WINDOW_BASE + block.smem.capacity:
            return block.smem
        if block.lmem is not None and \
                LOCAL_WINDOW_BASE <= addr < LOCAL_WINDOW_BASE + block.lmem.capacity:
            return block.lmem
        raise LaunchError(f"kernel accessed unmapped address {addr:#x}")

    def mem_load(self, warp: WarpExec, addrs, dtype: np.dtype, mask: np.ndarray):
        if not mask.any():
            # fully predicated-off access (divergent warp): no instruction
            # issues, no transaction is counted — and addrs may be garbage,
            # so resolve_space must not look at them
            return np.zeros(WARP_SIZE, dtype=dtype)
        self.stats.load_instructions += 1
        self.stats.instructions += 1
        addrs = np.broadcast_to(np.asarray(addrs, dtype=np.uint64), (WARP_SIZE,))
        space = self.resolve_space(warp, int(addrs[np.argmax(mask)]))
        self._note_mem(space, addrs, dtype.itemsize, mask)
        out = np.zeros(WARP_SIZE, dtype=dtype)
        out[mask] = space.gather(addrs[mask], dtype)
        return out

    def mem_store(self, warp: WarpExec, addrs, dtype: np.dtype, values,
                  mask: np.ndarray) -> None:
        if not mask.any():
            return  # predicated off: no instruction, no transaction
        self.stats.store_instructions += 1
        self.stats.instructions += 1
        addrs = np.broadcast_to(np.asarray(addrs, dtype=np.uint64), (WARP_SIZE,))
        values = np.broadcast_to(np.asarray(values), (WARP_SIZE,))
        space = self.resolve_space(warp, int(addrs[np.argmax(mask)]))
        self._note_mem(space, addrs, dtype.itemsize, mask)
        if values.dtype.kind == "f" and dtype.kind in "iu":
            values = np.trunc(values)
        with np.errstate(over="ignore", invalid="ignore"):
            space.scatter(addrs[mask], dtype, values[mask].astype(dtype, casting="unsafe"))

    def _note_mem(self, space: LinearMemory, addrs, itemsize, mask) -> None:
        if space is self.gmem:
            self.stats.global_mem_instructions += 1
            self.stats.global_transactions += transactions_memo(
                addrs, itemsize, mask)
        elif space.name == "shared":
            self.stats.shared_accesses += int(mask.sum())
        else:
            self.stats.local_accesses += int(mask.sum())

    # -- loop classification -----------------------------------------------------
    def loop_may_block(self, loop: LoopOp) -> bool:
        cached = self._loop_block_cache.get(id(loop))
        if cached is None:
            cached = any(
                isinstance(op, (BarOp, Atom, CallOp))
                for op in walk_ops(loop.body_ops)
            ) or any(
                isinstance(op, (BarOp, Atom, CallOp))
                for op in walk_ops(loop.cond_ops)
            )
            self._loop_block_cache[id(loop)] = cached
        return cached

    # -- launch ----------------------------------------------------------------
    def launch(
        self,
        kernel: KernelIR,
        grid,
        block,
        params: list,
        only_blocks: Optional[Iterable[tuple[int, int, int]]] = None,
        only_warps: Optional[set[int]] = None,
        fresh_stats: bool = True,
    ) -> KernelStats:
        compiled = None
        if self.fastpath != "off":
            compiled = self._compiled_for(kernel)
        if compiled is not None and self.fastpath == "verify" and fresh_stats:
            stats = self._launch_verified(kernel, grid, block, params,
                                          only_blocks, only_warps, compiled)
        else:
            stats = self._launch(kernel, grid, block, params, only_blocks,
                                 only_warps, fresh_stats, compiled)
        if self.recorder is not None:
            self.recorder.emit(KernelExecActivity(
                name=kernel.name, grid=stats.grid, block=stats.block,
                blocks_run=stats.blocks_launched,
                warps_run=stats.warps_launched,
                instructions=stats.instructions,
                global_transactions=stats.global_transactions,
                divergent_branches=stats.divergent_branches,
                barriers=stats.barriers,
                shared_accesses=stats.shared_accesses,
                local_accesses=stats.local_accesses,
                spins=stats.spins,
            ))
        return stats

    def _compiled_for(self, kernel: KernelIR):
        if self.compile_cache is not None:
            return self.compile_cache.get(kernel)
        entry = self._local_compiled.get(id(kernel))
        if entry is None:
            try:
                entry = (kernel, compile_kernel(kernel))
            except Exception:
                entry = (kernel, None)
            self._local_compiled[id(kernel)] = entry
        return entry[1]

    def _launch_verified(self, kernel, grid, block, params, only_blocks,
                         only_warps, compiled) -> KernelStats:
        """Differential execution: run the compiled fast path, roll global
        memory back, run the tree-walker, and require bit-identical global
        memory, stdout and ``KernelStats``."""
        import dataclasses

        buf_snap = self.gmem.buf.copy()
        free_snap = list(self.gmem._free)
        alloc_snap = dict(self.gmem._allocated)
        out_mark = len(self.stdout)
        fast = self._launch(kernel, grid, block, params, only_blocks,
                            only_warps, True, compiled)
        fast_buf = self.gmem.buf.copy()
        fast_out = self.stdout[out_mark:]
        self.gmem.buf[:] = buf_snap
        self.gmem._free = free_snap
        self.gmem._allocated = alloc_snap
        del self.stdout[out_mark:]
        ref = self._launch(kernel, grid, block, params, only_blocks,
                           only_warps, True, None)
        problems = []
        if not np.array_equal(self.gmem.buf, fast_buf):
            problems.append("global memory")
        if self.stdout[out_mark:] != fast_out:
            problems.append("stdout")
        for fld in dataclasses.fields(KernelStats):
            if getattr(fast, fld.name) != getattr(ref, fld.name):
                problems.append(f"stats.{fld.name}")
        if problems:
            raise LaunchError(
                f"fast path diverged from tree-walk on kernel "
                f"{kernel.name!r}: {', '.join(problems)}"
            )
        return ref

    def _launch(
        self,
        kernel: KernelIR,
        grid,
        block,
        params: list,
        only_blocks: Optional[Iterable[tuple[int, int, int]]] = None,
        only_warps: Optional[set[int]] = None,
        fresh_stats: bool = True,
        compiled=None,
    ) -> KernelStats:
        grid = Dim3.of(grid)
        block = Dim3.of(block)
        self._validate_launch(kernel, grid, block)
        if fresh_stats:
            self.stats = KernelStats()
        stats = self.stats
        stats.grid = (grid.x, grid.y, grid.z)
        stats.block = (block.x, block.y, block.z)
        stats.smem_per_block = kernel.smem_static
        nthreads = block.count
        nwarps = (nthreads + WARP_SIZE - 1) // WARP_SIZE
        if only_blocks is None:
            blocks = (
                (bx, by, bz)
                for bz in range(grid.z)
                for by in range(grid.y)
                for bx in range(grid.x)
            )
        else:
            blocks = iter(only_blocks)
        for block_idx in blocks:
            ctx = BlockCtx(
                block_idx,
                (block.x, block.y, block.z),
                (grid.x, grid.y, grid.z),
                self.device.shared_mem_per_block,
                kernel.local_static,
            )
            warps = []
            for w in range(nwarps):
                if only_warps is not None and w not in only_warps:
                    # representative-warp sampling: valid only for kernels
                    # with no inter-warp communication (the caller checks)
                    continue
                lane_linear = np.arange(w * WARP_SIZE, (w + 1) * WARP_SIZE,
                                        dtype=np.int64)
                valid = lane_linear < nthreads
                if compiled is not None:
                    warps.append(CompiledWarpExec(compiled, self, ctx, w,
                                                  lane_linear, valid,
                                                  kernel, params))
                else:
                    warps.append(WarpExec(self, ctx, w, lane_linear, valid,
                                          kernel, params))
            self._run_block(warps)
            stats.blocks_launched += 1
            stats.warps_launched += len(warps)
            stats.threads_launched += nthreads
        return stats

    def _validate_launch(self, kernel: KernelIR, grid: Dim3, block: Dim3) -> None:
        dev = self.device
        if block.count == 0 or grid.count == 0:
            raise LaunchError("empty grid or block")
        if block.count > dev.max_threads_per_block:
            raise LaunchError(
                f"block of {block.count} threads exceeds device limit "
                f"{dev.max_threads_per_block}"
            )
        for dim, limit in zip((block.x, block.y, block.z), dev.max_block_dim):
            if dim > limit:
                raise LaunchError(f"block dimension {dim} exceeds limit {limit}")
        for dim, limit in zip((grid.x, grid.y, grid.z), dev.max_grid_dim):
            if dim > limit:
                raise LaunchError(f"grid dimension {dim} exceeds limit {limit}")
        if kernel.smem_static > dev.shared_mem_per_block:
            raise LaunchError(
                f"kernel needs {kernel.smem_static}B shared memory; device "
                f"has {dev.shared_mem_per_block}B"
            )

    def _run_block(self, warps: list[WarpExec]) -> None:
        gens = [w.run_kernel() for w in warps]
        n = len(warps)
        READY, WAITING, DONE = 0, 1, 2
        status = [READY] * n
        # bar_id -> {"arrived": set[int], "count": Optional[int]}
        bars: dict[int, dict] = {}
        max_barriers = self.device.named_barriers_per_block

        def try_release(bar_id: int) -> None:
            state = bars.get(bar_id)
            if state is None:
                return
            count = state["count"]
            arrived = state["arrived"]
            if count is None:
                expected = {i for i in range(n) if status[i] != DONE}
                if arrived >= expected:
                    release = arrived
                else:
                    return
            else:
                needed = (count + WARP_SIZE - 1) // WARP_SIZE
                if len(arrived) >= needed:
                    release = arrived
                else:
                    return
            for i in release:
                status[i] = READY
            del bars[bar_id]

        queue = deque(range(n))
        idle_rounds = 0
        while any(s != DONE for s in status):
            progressed = False
            for _ in range(n):
                i = queue[0]
                queue.rotate(-1)
                if status[i] != READY:
                    continue
                progressed = True
                try:
                    event = next(gens[i])
                except StopIteration:
                    status[i] = DONE
                    # a finishing warp may satisfy a full-block barrier
                    for bar_id in list(bars):
                        try_release(bar_id)
                    continue
                if event[0] == "bar":
                    _tag, bar_id, count = event
                    self.stats.barriers += 1
                    if bar_id >= max_barriers or bar_id < 0:
                        raise LaunchError(
                            f"barrier id {bar_id} out of range (device has "
                            f"{max_barriers} named barriers per block)"
                        )
                    if count is not None and count % WARP_SIZE != 0:
                        raise LaunchError(
                            f"bar.sync count {count} is not a multiple of the "
                            f"warp size {WARP_SIZE}"
                        )
                    state = bars.setdefault(bar_id, {"arrived": set(), "count": count})
                    if state["count"] != count:
                        raise LaunchError(
                            f"inconsistent thread counts at barrier {bar_id}: "
                            f"{state['count']} vs {count}"
                        )
                    state["arrived"].add(i)
                    status[i] = WAITING
                    try_release(bar_id)
                elif event[0] == "spin":
                    self.stats.spins += 1
                else:  # pragma: no cover
                    raise LaunchError(f"unknown scheduler event {event!r}")
            if not progressed:
                idle_rounds += 1
            else:
                idle_rounds = 0
            if idle_rounds > 2:
                waiting = {
                    bar_id: sorted(state["arrived"])
                    for bar_id, state in bars.items()
                }
                raise LaunchError(
                    f"deadlock in block: warps waiting on barriers {waiting}, "
                    f"statuses={status}"
                )
