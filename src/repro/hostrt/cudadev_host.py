"""Host part of the cudadev module (paper §4.2.1).

Discovery happens at application startup; *full* initialisation is lazy —
"a device is fully initialized only when the first kernel is about to be
offloaded to this particular device": cuInit, hardware attribute capture,
primary context creation.

Kernel launch is the paper's three phases:

1. **loading** — locate the kernel's image (OMPi emits one kernel file
   per target region); a PTX image is JIT-compiled and linked with the
   device library (disk cache consulted), a cubin loads directly;
2. **parameter preparation** — arguments arriving from the data
   environment are host addresses already translated to device addresses,
   scalars pass by value; the module builds the final parameter set;
3. **launch** — grid/block dimensions are set and ``cuLaunchKernel`` runs.

The module is also where the runtime's **fault recovery** lives (see
DESIGN.md §"Fault model and recovery"): every driver call the module
issues runs under its :class:`~repro.faults.recovery.RecoveryPolicy` —
transient transfer/launch failures retry with exponential backoff (on the
virtual clock, so chaos runs stay deterministic), allocation failures
evict cached modules and idle pool blocks before one more attempt, and a
lost device (unavailable at init, or a sticky poisoned context) marks the
module ``lost`` so the owning Ort reroutes every later operation to the
initial (host) device.
"""

from __future__ import annotations

from typing import Optional

from repro.cuda.device import DeviceProperties, JETSON_NANO_GPU
from repro.cuda.driver import CudaDriver, CUfunction
from repro.cuda.errors import CudaError, CUresult
from repro.cuda.ptx.jit import JitCache
from repro.devices.throughput import ThroughputTracker
from repro.faults.injector import resolve_faults
from repro.faults.recovery import (
    DeviceLost, OffloadFailure, is_lost, is_transient, resolve_recovery,
)
from repro.hostrt.devices import DeviceModule
from repro.mem import LinearMemory
from repro.prof.ompt import OmptRegistry


class CudadevModule(DeviceModule):
    name = "cudadev"

    def __init__(
        self,
        host_mem: Optional[LinearMemory],
        device: DeviceProperties = JETSON_NANO_GPU,
        clock=None,
        jit_cache: Optional[JitCache] = None,
        launch_mode: str = "auto",
        fastpath: Optional[str] = None,
        profile=None,
        faults=None,
        recovery=None,
        ordinal: int = 0,
        ompt=None,
        gmem_base: Optional[int] = None,
        intrinsics=None,
        backend=None,
    ):
        self.host_mem = host_mem
        #: this module's position in the owning Ort's device registry
        self.ordinal = int(ordinal)
        #: the DeviceBackend this module realises (None on the legacy
        #: homogeneous path, where every module is the same Nano)
        self.backend = backend
        #: observed blocks/modelled-second, seeding the shard planner;
        #: calibrated hint first, refined after every launch
        hint = (backend.calibrated_throughput() if backend is not None
                else 0.0)
        self.throughput = ThroughputTracker(hint=hint)
        self.recovery = resolve_recovery(recovery)
        # The module — not the raw driver — resolves the fault spec its
        # owning root chose: faults model *hardware* misbehaving under a
        # runtime that recovers, so they only make sense on driver calls
        # that run under this module's policy.
        driver_kwargs = {}
        if gmem_base is not None:
            driver_kwargs["gmem_base"] = gmem_base
        self.driver = CudaDriver(device, clock=clock, jit_cache=jit_cache,
                                 launch_mode=launch_mode, fastpath=fastpath,
                                 profile=profile, intrinsics=intrinsics,
                                 faults=resolve_faults(faults),
                                 **driver_kwargs)
        #: OMPT-style tool callbacks (target-begin/end, data-op, submit);
        #: shared with the owning Ort so tools can hook either layer
        self.ompt = ompt if ompt is not None else OmptRegistry()
        self._initialized = False
        #: permanent device loss: every later operation must go to the host
        self.lost = False
        self.lost_cause: Optional[Exception] = None
        #: kernel name -> image (bytes/PtxImage/CubinImage), the "kernel
        #: files" OMPi locates at runtime
        self._images: dict[str, object] = {}
        #: kernel name -> (module handle, CUfunction) after loading phase
        self._loaded: dict[str, CUfunction] = {}
        #: module handles exempt from OOM eviction (declare-target globals
        #: hold permanent device addresses into them)
        self._pinned: set[int] = set()
        self.attributes: dict[str, int] = {}
        self.stdout: list[str] = []
        #: stream all module operations route through while a deferred
        #: (``target nowait``) task body is executing; None = default
        #: stream, i.e. the host-synchronous path
        self.current_stream: Optional[int] = None
        #: fallback stream when no task stream is active: a serving
        #: runtime points this at the executing request's stream so
        #: concurrent sessions overlap instead of serialising on the
        #: default stream; None = the classic host-synchronous path
        self.base_stream: Optional[int] = None
        #: last-resort allocation-pressure callback ``hook(nbytes) ->
        #: freed``: after module-level eviction still leaves an OOM, the
        #: owner (the serving runtime) may release state it manages
        #: elsewhere — idle sessions' parked device buffers — before the
        #: final retry.  None: no owner-level pressure valve.
        self.evict_hook = None
        #: lazily-created stream sharded launches run on, so shards on
        #: different devices overlap instead of serialising on stream 0
        self._shard_stream: Optional[int] = None
        # -- small-mapping pool state (see mem_alloc) --------------------
        self._arena_free: list[int] = []
        self._arena_live: set[int] = set()
        self._arena_addrs: set[int] = set()
        self._arena_blocks: list[int] = []

    # -- lifecycle ----------------------------------------------------------------
    def lease_host(self, host_mem: Optional[LinearMemory]) -> None:
        """Rebind the host memory this module's transfers read and write.

        A long-lived serving runtime owns the module and leases it to one
        client machine at a time; execution is cooperative (single host
        thread), so every functional host access of a request completes
        before the lease moves on.  Standalone runs bind once at
        construction and never call this."""
        self.host_mem = host_mem

    def _route_stream(self) -> Optional[int]:
        """The stream module operations ride on: an active nowait-task
        stream wins, else the leased session/base stream, else None (the
        host-synchronous default-stream path)."""
        if self.current_stream is not None:
            return self.current_stream
        return self.base_stream

    def initialize(self) -> None:
        if self._initialized:
            return
        if self.lost:
            raise DeviceLost(str(self.lost_cause))
        drv = self.driver
        try:
            drv.cuInit(0)
            ndev = drv.cuDeviceGetCount()
            if ndev < 1:  # pragma: no cover - simulator always has one
                raise CudaError(CUresult.CUDA_ERROR_NO_DEVICE,
                                "no CUDA device")
            dev = drv.cuDeviceGet(0)
            # capture hardware characteristics into module data structures
            for attr in ("MAX_THREADS_PER_BLOCK", "WARP_SIZE",
                         "MULTIPROCESSOR_COUNT", "MAX_SHARED_MEMORY_PER_BLOCK",
                         "CLOCK_RATE", "COMPUTE_CAPABILITY_MAJOR",
                         "COMPUTE_CAPABILITY_MINOR"):
                self.attributes[attr] = drv.cuDeviceGetAttribute(attr, dev)
            ctx = drv.cuDevicePrimaryCtxRetain(dev)
            drv.cuCtxSetCurrent(ctx)
        except CudaError as exc:
            if is_lost(exc):
                self._mark_lost(exc)
                raise DeviceLost(str(exc)) from exc
            raise
        self._initialized = True

    @property
    def initialized(self) -> bool:
        return self._initialized

    def _ensure_init(self) -> None:
        if self.lost:
            raise DeviceLost(str(self.lost_cause))
        if not self._initialized:
            self.initialize()

    # -- fault recovery -----------------------------------------------------------
    @property
    def faultlog(self):
        """The driver's fault log: injections *and* recovery actions."""
        return self.driver.faultlog

    @property
    def fault_stats(self) -> dict:
        """Counters by lifecycle op (inject/retry/evict/fallback/...)."""
        return dict(self.driver.faultlog.counters)

    def _mark_lost(self, exc: Exception) -> None:
        if not self.lost:
            self.lost = True
            self.lost_cause = exc
            self.faultlog.note("device_lost", detail=str(exc))

    def _with_retries(self, api: str, op):
        """Run one driver operation under the recovery policy.

        Transient failures (transfer/launch/timeout, non-sticky) retry up
        to ``max_retries`` times with exponential backoff; the backoff is
        simulated time, so recovery is visible on the modelled timeline
        and chaos runs stay deterministic.  Lost-device failures mark the
        module lost and raise :class:`DeviceLost` — the injector raises
        *before* any driver side effect, so a retry replays cleanly."""
        delay = self.recovery.backoff_s
        attempt = 0
        while True:
            try:
                return op()
            except CudaError as exc:
                if is_lost(exc):
                    self._mark_lost(exc)
                    raise DeviceLost(str(exc)) from exc
                if not is_transient(exc) or attempt >= self.recovery.max_retries:
                    raise
                attempt += 1
                self.faultlog.note("retry", api=api, fault=exc.result.name,
                                   attempt=attempt,
                                   detail=f"backoff {delay:g}s")
                self.driver.clock.advance(delay)
                delay *= self.recovery.backoff_factor

    def _evict(self) -> int:
        """Drop recreatable device memory under OOM pressure: cached
        (non-pinned) kernel modules — they reload from their registered
        images on the next launch — and pool blocks with no live slot.
        Returns the number of bytes released."""
        before = self.driver.gmem.bytes_in_use
        handles: dict[int, list[str]] = {}
        for kname, fn in self._loaded.items():
            if fn.module_handle not in self._pinned:
                handles.setdefault(fn.module_handle, []).append(kname)
        for handle, knames in handles.items():
            self.driver.cuModuleUnload(handle)
            for kname in knames:
                del self._loaded[kname]
        if not self._arena_live and self._arena_blocks:
            for base in self._arena_blocks:
                self.driver.cuMemFree(base)
            self._arena_blocks.clear()
            self._arena_free.clear()
            self._arena_addrs.clear()
        return before - self.driver.gmem.bytes_in_use

    def _cu_alloc(self, size: int) -> int:
        """cuMemAlloc under the recovery policy: on OOM, evict and try
        once more (matching the real runtime's behaviour of flushing its
        caches before reporting allocation failure to the program)."""
        try:
            return self._with_retries(
                "cuMemAlloc", lambda: self.driver.cuMemAlloc(size))
        except CudaError as exc:
            if (exc.result != CUresult.CUDA_ERROR_OUT_OF_MEMORY
                    or not self.recovery.oom_evict):
                raise
            freed = self._evict()
            self.faultlog.note(
                "evict", api="cuMemAlloc", nbytes=freed,
                detail=f"OOM on {size}-byte alloc: evicted {freed} bytes")
            try:
                return self._with_retries(
                    "cuMemAlloc", lambda: self.driver.cuMemAlloc(size))
            except CudaError as exc2:
                if (exc2.result != CUresult.CUDA_ERROR_OUT_OF_MEMORY
                        or self.evict_hook is None):
                    raise
                # module-level eviction was not enough: let the owner
                # (the serving runtime) shed idle-session device state
                freed = int(self.evict_hook(size))
                if freed <= 0:
                    raise
                self.faultlog.note(
                    "evict", api="cuMemAlloc", nbytes=freed,
                    detail=f"OOM on {size}-byte alloc: owner evicted "
                           f"{freed} bytes of idle session state")
                return self._with_retries(
                    "cuMemAlloc", lambda: self.driver.cuMemAlloc(size))

    def pin_module(self, kernel_name: str) -> None:
        """Exempt a loaded kernel's module from OOM eviction (used for
        modules that own ``declare target`` globals: the data environment
        holds permanent device addresses into them)."""
        fn = self._loaded.get(kernel_name)
        if fn is not None:
            self._pinned.add(fn.module_handle)

    # -- memory + transfers ----------------------------------------------------------
    #: small mappings (scalars) come from a pooled arena so launch-heavy
    #: programs don't pay a cuMemAlloc per mapped scalar (the real runtime
    #: pools small device allocations the same way)
    _ARENA_THRESHOLD = 64
    _ARENA_SLOT = 64
    _ARENA_BLOCK = 4096

    def mem_alloc(self, size: int) -> int:
        self._ensure_init()
        if size <= self._ARENA_THRESHOLD:
            if not self._arena_free:
                base = self._cu_alloc(self._ARENA_BLOCK)
                slots = [base + i * self._ARENA_SLOT
                         for i in range(self._ARENA_BLOCK // self._ARENA_SLOT)]
                self._arena_blocks.append(base)
                self._arena_free.extend(slots)
                self._arena_addrs.update(slots)
            addr = self._arena_free.pop()
            self._arena_live.add(addr)
            return addr
        return self._cu_alloc(size)

    def trim_arena(self) -> int:
        """Return fully-idle arena blocks to the driver; returns the
        bytes released.  A long-lived serving process calls this at
        session teardown / eviction so pooled scalar slots don't pin
        driver memory forever; standalone runs never need it (the pool
        dies with the process)."""
        if self.lost or not self._arena_blocks:
            return 0
        free_set = set(self._arena_free)
        per_block = self._ARENA_BLOCK // self._ARENA_SLOT
        keep: list[int] = []
        released = 0
        for base in self._arena_blocks:
            slots = [base + i * self._ARENA_SLOT for i in range(per_block)]
            if all(s in free_set for s in slots):
                for s in slots:
                    free_set.discard(s)
                    self._arena_addrs.discard(s)
                self._with_retries(
                    "cuMemFree", lambda b=base: self.driver.cuMemFree(b))
                released += self._ARENA_BLOCK
            else:
                keep.append(base)
        if released:
            self._arena_blocks = keep
            self._arena_free = [a for a in self._arena_free if a in free_set]
        return released

    def mem_free(self, addr: int) -> None:
        if addr in self._arena_addrs:
            if addr not in self._arena_live:
                raise CudaError(
                    CUresult.CUDA_ERROR_INVALID_VALUE,
                    f"double free of pooled device pointer {addr:#x}")
            self._arena_live.discard(addr)
            self._arena_free.append(addr)
            return
        if self.lost:
            raise DeviceLost(str(self.lost_cause))
        self._with_retries("cuMemFree", lambda: self.driver.cuMemFree(addr))

    def write(self, dev_addr: int, host_addr: int, size: int) -> None:
        self._ensure_init()
        if self.ompt.active:
            self.ompt.dispatch("data_op", optype="transfer_to",
                               device=self.ordinal,
                               addr=host_addr, nbytes=size)
        data = self.host_mem.copy_out(host_addr, size)
        stream = self._route_stream()
        if stream is not None:
            self._with_retries(
                "cuMemcpyHtoDAsync",
                lambda: self.driver.cuMemcpyHtoDAsync(dev_addr, data,
                                                      stream))
        else:
            self._with_retries(
                "cuMemcpyHtoD",
                lambda: self.driver.cuMemcpyHtoD(dev_addr, data))

    def read(self, host_addr: int, dev_addr: int, size: int) -> None:
        if self.ompt.active:
            self.ompt.dispatch("data_op", optype="transfer_from",
                               device=self.ordinal,
                               addr=host_addr, nbytes=size)
        stream = self._route_stream()
        if stream is not None:
            data = self._with_retries(
                "cuMemcpyDtoHAsync",
                lambda: self.driver.cuMemcpyDtoHAsync(dev_addr, size,
                                                      stream))
        else:
            data = self._with_retries(
                "cuMemcpyDtoH",
                lambda: self.driver.cuMemcpyDtoH(dev_addr, size))
        self.host_mem.copy_in(host_addr, data)

    def peer_copy(self, dst_module: "CudadevModule", dst_addr: int,
                  src_addr: int, size: int) -> None:
        """``cuMemcpyPeer`` under the recovery policy: move ``size`` bytes
        from this device's memory to ``dst_module``'s, without staging
        through the host data environment (``target update``-mediated
        device-to-device exchange)."""
        self._ensure_init()
        dst_module._ensure_init()
        if self.ompt.active:
            self.ompt.dispatch("data_op", optype="transfer_peer",
                               device=self.ordinal,
                               addr=dst_addr, nbytes=size)
        routed = self._route_stream()
        stream = routed if routed is not None else 0
        self._with_retries(
            "cuMemcpyPeer",
            lambda: self.driver.cuMemcpyPeer(dst_addr, dst_module.driver,
                                             src_addr, size, stream=stream))

    @property
    def shard_weight(self) -> float:
        """Relative throughput weight the shard planner uses for this
        device: observed kernel rate when available, else the backend's
        calibrated hint, else 1.0 (→ the uniform/legacy split)."""
        return self.throughput.weight

    @property
    def shard_stream(self) -> int:
        """The per-device stream sharded launches are placed on (created
        on first use; non-default so shards across devices overlap)."""
        if self._shard_stream is None:
            self._ensure_init()
            self._shard_stream = self._with_retries(
                "cuStreamCreate", lambda: self.driver.cuStreamCreate())
        return self._shard_stream

    # -- kernels -------------------------------------------------------------------
    def register_kernel_image(self, kernel_name: str, image) -> None:
        old = self._images.get(kernel_name)
        if old is not None and old is not image:
            # a long-lived registry re-registering a kernel name with a
            # different image (two programs sharing a name): drop the
            # stale loaded function so the next launch loads the new image
            fn = self._loaded.pop(kernel_name, None)
            if (fn is not None and not self.lost
                    and fn.module_handle not in self._pinned):
                try:
                    self.driver.cuModuleUnload(fn.module_handle)
                except CudaError:
                    pass
        self._images[kernel_name] = image

    def _loading_phase(self, kernel_name: str) -> CUfunction:
        fn = self._loaded.get(kernel_name)
        if fn is not None:
            return fn
        image = self._images.get(kernel_name)
        if image is None:
            raise CudaError(
                CUresult.CUDA_ERROR_NOT_FOUND,
                f"kernel file for {kernel_name!r} not found "
                "(was the kernel registered with the module?)"
            )
        handle = self._with_retries(
            "cuModuleLoadData",
            lambda: self.driver.cuModuleLoadData(image))
        fn = self.driver.cuModuleGetFunction(handle, kernel_name)
        self._loaded[kernel_name] = fn
        return fn

    def offload(self, kernel_name: str, args: list, teams, threads,
                block_range=None) -> None:
        self._ensure_init()
        try:
            fn = self._loading_phase(kernel_name)       # phase 1
        except DeviceLost as exc:
            raise OffloadFailure(kernel_name, exc, device_lost=True) from exc
        params = list(args)                             # phase 2 (translated
                                                        # by the data env)
        gx, gy, gz = teams
        bx, by, bz = threads                            # phase 3
        routed = self._route_stream()
        stream = routed if routed is not None else 0
        if self.ompt.active:
            self.ompt.dispatch("submit", kernel=kernel_name, teams=teams,
                               threads=threads, stream=stream)
        try:
            self._with_retries(
                "cuLaunchKernel",
                lambda: self.driver.cuLaunchKernel(
                    fn, gx, gy, gz, bx, by, bz, shared_mem_bytes=0,
                    stream=stream, kernel_params=params,
                    block_range=block_range,
                ))
        except DeviceLost as exc:
            raise OffloadFailure(kernel_name, exc, device_lost=True) from exc
        except CudaError as exc:
            # recovery budget exhausted (or an injected non-transient
            # failure): the owning Ort decides on host fallback.  Genuine
            # program errors (unknown kernel, bad image/handle) propagate —
            # fallback must not mask bugs.
            if exc.injected or is_transient(exc):
                raise OffloadFailure(kernel_name, exc) from exc
            raise
        if block_range is not None:
            blocks = max(0, int(block_range[1]) - int(block_range[0]))
        else:
            blocks = gx * gy * gz
        self.throughput.note(blocks, self.driver.last_kernel_seconds)
        if self.driver.stdout:
            self.stdout.extend(self.driver.stdout)
            self.driver.stdout.clear()
