"""Functional engine: block scheduling, named barriers, memory routing.

The Jetson Nano GPU has a single streaming multiprocessor, so thread
blocks execute one at a time; within a block, warps are scheduled
cooperatively (each warp is a generator that yields at barriers and in
spin loops).  Named barriers implement PTX ``bar.sync b, n`` semantics:
an arriving warp contributes 32 threads towards the count; release happens
when ``ceil(n / 32)`` warps have arrived (counts must be multiples of the
warp size — enforced, since the paper's runtime rounds N up to W*ceil(N/W)).

With the compiled fast path on, every launch runs
:class:`~repro.cuda.sim.compile.CompiledBlockExec` executors of one
compiled kernel.  A kernel that is not block-wide (see
:mod:`repro.cuda.sim.locality`) runs one executor of one warp per warp,
under the scheduler above.  A block-wide kernel skips the scheduler: the
executed blocks of a launch run on one executor whose lane axis lays
their executed warps end to end, one *block segment* per block (up to
:data:`MAX_LANES` lanes; a larger launch runs in groups of whole
blocks), with per-warp accounting, so ``KernelStats`` and the activity
records are the ones the per-warp run produces.  Its barriers are
phase-safe ``__syncthreads``: the executor checks each one as
:meth:`FunctionalEngine.check_barrier` checks an arrival and counts one
arrival per warp with an active lane.  The blocks' shared and local
windows lie end to end in one memory each, and every block keeps the
addresses it would see alone.  These kernels have no cross-block
hand-off, so advancing the blocks in lock-step is one legal schedule; a
kernel that races between blocks through global memory may see another
order than block after block, which kernel ``verify`` mode reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from repro.cuda.device import DeviceProperties, Dim3
from repro.cuda.ptx.ir import KernelIR, LoopOp
from repro.cuda.ptx.lower import LOCAL_WINDOW_BASE, SHARED_WINDOW_BASE
from repro.cuda.sim.coalesce import transactions_memo
from repro.cuda.sim.compile import CompiledBlockExec, CompiledKernelCache
from repro.cuda.sim.locality import kernel_locality, loop_may_block
from repro.cuda.sim.warp import WARP_SIZE, WarpExec
from repro.mem import LinearMemory, differential_run
from repro.prof.activity import KernelExecActivity


class LaunchError(Exception):
    """Kernel execution failed (deadlock, bad barrier, resource limits)."""


class KernelVerifyError(LaunchError):
    """``verify`` mode: the compiled kernel diverged from the tree walk.

    A simulator defect, not a device fault: the driver passes it through
    instead of reporting a launch failure, so the recovery policy
    neither retries it nor falls back to the region's host version."""


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

    #: the dynamic counters sampled launches scale and extrapolate
    DYNAMIC = (
        "instructions", "alu_f32", "alu_f64", "alu_int", "special_ops",
        "load_instructions", "store_instructions",
        "global_mem_instructions", "global_transactions",
        "shared_accesses", "local_accesses", "barriers", "atomics",
        "divergent_branches", "loop_iterations", "spins",
    )

    def merge_scaled(self, other: "KernelStats", factor: float) -> None:
        """Accumulate ``other`` scaled by ``factor`` (representative-block
        extrapolation in the timing engine)."""
        for name in self.DYNAMIC:
            setattr(self, name, getattr(self, name) + int(getattr(other, name) * factor))


#: most lanes one block-wide executor runs; a launch with more executed
#: lanes runs in groups of whole blocks, which bounds register memory.
#: gemm:128's full launches (64 blocks of 256 threads, 156 register bytes
#: a lane) simulate in 1.1 s at one block per executor, 0.54 s at 1,024
#: lanes and 0.35-0.40 s from 2,048 lanes up, and peak RSS grows from
#: 8,192 lanes (medians of 7 runs on a 2-vCPU VM)
MAX_LANES = 4096


class BlockCtx:
    """Per-block execution context: shared memory, local memory, and a
    scratch area for the device runtime's per-block state.

    ``smem``/``lmem`` may be given, as windows of memories that hold
    several blocks' windows end to end (:meth:`group`); by default the
    block gets fresh ones."""

    def __init__(self, block_idx, block_dim, grid_dim, smem_size: int,
                 local_per_thread: int, smem: Optional[LinearMemory] = None,
                 lmem: Optional[LinearMemory] = None):
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        if smem is None:
            smem = LinearMemory(max(smem_size, 16), base=SHARED_WINDOW_BASE,
                                name="shared")
        self.smem = smem
        nthreads = block_dim[0] * block_dim[1] * block_dim[2]
        self.local_per_thread = local_per_thread
        if lmem is None and local_per_thread:
            lmem = LinearMemory(local_per_thread * nthreads,
                                base=LOCAL_WINDOW_BASE, name="local")
        self.lmem = lmem
        #: device-runtime per-block state (shared-memory stack pointer,
        #: registered parallel region, section counters, ...)
        self.devrt: dict = {}

    def local_base(self, lane_linear: np.ndarray) -> np.ndarray:
        return (LOCAL_WINDOW_BASE
                + lane_linear.astype(np.uint64) * np.uint64(self.local_per_thread))

    @classmethod
    def group(cls, block_idxs: list, block_dim, grid_dim, smem_size: int,
              local_per_thread: int) -> tuple[list, dict]:
        """Contexts of blocks that share one lane axis, and their windows:
        one shared and one local memory holding every block's window end
        to end (name -> memory, ``None`` without local memory); block k's
        ``smem``/``lmem`` is piece k, at the window's usual base."""
        n = len(block_idxs)
        seg_s = max(smem_size, 16)
        nthreads = block_dim[0] * block_dim[1] * block_dim[2]
        seg_l = local_per_thread * nthreads
        smem = LinearMemory(n * seg_s, base=SHARED_WINDOW_BASE, name="shared")
        lmem = LinearMemory(n * seg_l, base=LOCAL_WINDOW_BASE,
                            name="local") if seg_l else None
        ctxs = [cls(idx, block_dim, grid_dim, smem_size, local_per_thread,
                    smem=smem.window(k * seg_s, seg_s),
                    lmem=lmem.window(k * seg_l, seg_l) if lmem else None)
                for k, idx in enumerate(block_idxs)]
        return ctxs, {"shared": smem, "local": lmem}


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
        #: an engine built without a cache compiles through its own
        self.compile_cache = (compile_cache if compile_cache is not None
                              else CompiledKernelCache())
        #: optional repro.prof.activity.ActivityRecorder: every functional
        #: execution emits one kernel_exec record with the dynamic counters
        #: of what actually ran.  The record is produced here — above the
        #: tree-walk/compiled split — so both execution paths emit
        #: byte-identical records (asserted by tests/test_prof.py).
        self.recorder = recorder
        self.stdout: list[str] = []
        self.stats = KernelStats()
        #: lock id -> address of its global-memory cell, allocated by
        #: :mod:`repro.devrt.sync` on the first ``critical`` of a launch
        self.lock_cells: dict[int, int] = {}
        self._loop_block_cache: dict[int, bool] = {}

    # -- memory routing ------------------------------------------------------
    def global_addr(self, name: str) -> int:
        try:
            return self.module_globals[name]
        except KeyError:
            raise LaunchError(f"unresolved device global {name!r}") from None

    def resolve_space(self, warp: WarpExec, addr: int) -> LinearMemory:
        """The memory ``addr`` lies in: global memory, or the shared or
        local window of ``warp``'s block."""
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
        """Count one warp's access to ``space``: a global instruction and
        its transactions, or shared or local accesses per active lane.
        Only the tree walk's accesses count here (compiled code makes one
        for a warp whose access must fail); compiled code counts through
        ``compile._count``, progressions in closed form, so ``verify``
        checks the closed form against the per-warp model."""
        if space is self.gmem:
            self.stats.global_mem_instructions += 1
            self.stats.global_transactions += transactions_memo(
                addrs, itemsize, mask)
        elif space.name == "shared":
            self.stats.shared_accesses += int(mask.sum())
        else:
            self.stats.local_accesses += int(mask.sum())

    def check_barrier(self, bar_id: int, count: Optional[int]) -> None:
        """Refuse a barrier id past the device's named barriers and a
        thread count that is not a whole number of warps."""
        max_barriers = self.device.named_barriers_per_block
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

    # -- loop classification -----------------------------------------------------
    def loop_may_block(self, loop: LoopOp) -> bool:
        cached = self._loop_block_cache.get(id(loop))
        if cached is None:
            cached = loop_may_block(loop)
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
    ) -> KernelStats:
        compiled = None
        if self.fastpath != "off":
            compiled = self.compile_cache.get(kernel)
        if self.fastpath == "verify":
            stats = self._launch_verified(kernel, grid, block, params,
                                          only_blocks, only_warps, compiled)
        else:
            stats = self._launch(kernel, grid, block, params, only_blocks,
                                 only_warps, compiled)
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

    @staticmethod
    def _run_warps(nwarps: int, only_warps) -> list[int]:
        return [w for w in range(nwarps)
                if only_warps is None or w in only_warps]

    def _launch_verified(self, kernel, grid, block, params, only_blocks,
                         only_warps, compiled) -> KernelStats:
        """Differential execution (:func:`~repro.mem.differential_run`):
        the compiled fast path, then the tree walk from the same global
        memory.  Global memory (allocation map and bytes), stdout and
        every ``KernelStats`` field must agree; the tree walk's run is the
        one that stays."""
        import dataclasses

        out_mark = len(self.stdout)
        fast_out: list[str] = []

        def run_fast() -> KernelStats:
            stats = self._launch(kernel, grid, block, params, only_blocks,
                                 only_warps, compiled)
            fast_out.extend(self.stdout[out_mark:])
            del self.stdout[out_mark:]
            return stats

        fast, ref, diff = differential_run(
            [self.gmem], run_fast,
            lambda: self._launch(kernel, grid, block, params, only_blocks,
                                 only_warps, None))
        problems = [diff] if diff is not None else []
        if self.stdout[out_mark:] != fast_out:
            problems.append("stdout")
        for fld in dataclasses.fields(KernelStats):
            if getattr(fast, fld.name) != getattr(ref, fld.name):
                problems.append(f"stats.{fld.name}")
        if problems:
            raise KernelVerifyError(
                f"fast path diverged from tree-walk on kernel "
                f"{kernel.name!r}: {', '.join(problems)}"
            )
        return ref

    def _launch(self, kernel: KernelIR, grid, block, params: list,
                only_blocks=None, only_warps=None, compiled=None) -> KernelStats:
        """One execution of a launch.  The lock cells its ``critical``
        regions took (:attr:`lock_cells`) are freed when it ends."""
        try:
            return self._execute(kernel, grid, block, params, only_blocks,
                                 only_warps, compiled)
        finally:
            while self.lock_cells:
                self.gmem.free(self.lock_cells.popitem()[1])

    def _execute(
        self,
        kernel: KernelIR,
        grid,
        block,
        params: list,
        only_blocks: Optional[Iterable[tuple[int, int, int]]] = None,
        only_warps: Optional[set[int]] = None,
        compiled=None,
    ) -> KernelStats:
        grid = Dim3.of(grid)
        block = Dim3.of(block)
        self._validate_launch(kernel, grid, block)
        stats = self.stats = KernelStats()
        stats.grid = (grid.x, grid.y, grid.z)
        stats.block = (block.x, block.y, block.z)
        stats.smem_per_block = kernel.smem_static
        nthreads = block.count
        nwarps = (nthreads + WARP_SIZE - 1) // WARP_SIZE
        run_warps = self._run_warps(nwarps, only_warps)
        if only_blocks is None:
            blocks = (
                (bx, by, bz)
                for bz in range(grid.z)
                for by in range(grid.y)
                for bx in range(grid.x)
            )
        else:
            blocks = iter(only_blocks)
        dims = ((block.x, block.y, block.z), (grid.x, grid.y, grid.z),
                self.device.shared_mem_per_block, kernel.local_static)
        # only_warps is representative-warp sampling: valid only for
        # kernels with no inter-warp communication (the caller checks)
        if compiled is not None and kernel_locality(kernel).block_wide:
            blocks = list(blocks)
            per = max(1, MAX_LANES // (len(run_warps) * WARP_SIZE))
            for lo in range(0, len(blocks), per):
                ctxs, windows = BlockCtx.group(blocks[lo:lo + per], *dims)
                self._run_wide(CompiledBlockExec(compiled, self, ctxs,
                                                 run_warps, nthreads,
                                                 kernel, params, windows))
            stats.blocks_launched += len(blocks)
            stats.warps_launched += len(blocks) * len(run_warps)
            stats.threads_launched += len(blocks) * nthreads
            return stats
        for block_idx in blocks:
            ctx = BlockCtx(block_idx, *dims)
            if compiled is not None:
                warps = [CompiledBlockExec(compiled, self, [ctx], [w],
                                           nthreads, kernel, params)
                         for w in run_warps]
            else:
                warps = []
                for w in run_warps:
                    lane_linear = np.arange(w * WARP_SIZE,
                                            (w + 1) * WARP_SIZE,
                                            dtype=np.int64)
                    warps.append(WarpExec(self, ctx, w, lane_linear,
                                          lane_linear < nthreads, kernel,
                                          params))
            self._run_block(warps)
            stats.blocks_launched += 1
            stats.warps_launched += len(run_warps)
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

    def _run_wide(self, blk: CompiledBlockExec) -> None:
        """Run a block-wide executor.  Its own loops count their spins;
        a runtime call that suspends is counted like the scheduler does."""
        for event in blk.run_kernel():
            if event[0] != "spin":
                raise LaunchError(
                    f"block-wide executor cannot schedule {event!r}")
            self.stats.spins += 1

    def _run_block(self, warps: list) -> None:
        gens = [w.run_kernel() for w in warps]
        n = len(warps)
        READY, WAITING, DONE = 0, 1, 2
        status = [READY] * n
        # bar_id -> {"arrived": set[int], "count": Optional[int]}
        bars: dict[int, dict] = {}

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
                    self.check_barrier(bar_id, count)
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
