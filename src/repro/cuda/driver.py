"""Simulated CUDA *driver API* (the ``cu*`` surface of paper §4.2.1).

The cudadev host module is written against exactly this interface: device
discovery, (primary) context creation, module loading — with JIT + disk
cache for PTX images and device-library linking — memory management,
transfers, and the three-phase kernel launch ending in ``cuLaunchKernel``.

Execution is functional (the warp engine) and timing is modelled (the
Maxwell analytic model + LPDDR4 transfer model); every action appends a
:class:`~repro.timing.stats.RunEvent` so harnesses can reconstruct the
paper's "kernel time + required memory operations" metric.

Large launches can run in *sampling* mode: a handful of representative
blocks execute functionally and their dynamic counts are extrapolated to
the full grid for the timing model.  Sampling silently degrades to full
execution for kernels with inter-warp communication (barriers, atomics,
runtime calls) because their behaviour is not block-local.

Transfers and launches take a ``stream`` argument routed through the
:mod:`repro.rt_async.streams` table: work on a created stream lands on
that stream's timeline (copy/compute engine queues, FIFO per stream) and
the host clock only advances when the stream is synchronized; work on the
default stream 0 remains host-synchronous, exactly as before streams
existed.

When profiling is enabled (``profile=`` argument or the ``REPRO_PROFILE``
environment variable) every driver action additionally emits a typed
:mod:`repro.prof.activity` record — kernels with their occupancy and
dynamic counters, transfers with bytes and bandwidth, module loads/JIT,
synchronisations and the device-memory watermark.  Disabled profiling is
a ``None`` recorder: the hooks cost one identity check.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.cuda.device import DeviceProperties, Dim3, JETSON_NANO_GPU
from repro.cuda.errors import CUresult, CudaError
from repro.cuda.ptx.images import CubinImage, PtxImage, identify_image
from repro.cuda.ptx.ir import (
    Atom, BarOp, CallOp, KernelIR, ModuleIR, np_dtype, walk_ops,
)
from repro.cuda.ptx.jit import JitCache, jit_compile
from repro.cuda.sim.compile import CompiledKernelCache
from repro.cuda.sim.engine import FunctionalEngine, KernelStats, LaunchError
from repro.faults.injector import FaultInjector, FaultLog
from repro.mem import LinearMemory
from repro.prof.activity import (
    EventActivity, KernelActivity, MemcpyActivity, MemoryActivity,
    ModuleActivity, SyncActivity, resolve_profile,
)
from repro.rt_async.streams import DEFAULT_STREAM, StreamError, StreamTable
from repro.settings import MODES, Settings
from repro.timing import calibration as C
from repro.timing.clock import VirtualClock
from repro.timing.gpumodel import GpuTimingModel
from repro.timing.hostmodel import HostModel
from repro.timing.stats import EventLog

DEVICE_MEM_BASE = 0x2_0000_0000
#: DRAM the OS/display reserve on the 2GB board
RESERVED_MEM = 288 * 1024 * 1024


@dataclass
class LoadedModule:
    handle: int
    module: ModuleIR
    image_kind: str                      # 'ptx' (jitted) or 'cubin'
    linked: bool
    resources: dict[str, dict]
    global_addrs: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CUfunction:
    module_handle: int
    name: str


class CudaDriver:
    """One simulated CUDA driver instance ("process-level" state)."""

    def __init__(
        self,
        device: DeviceProperties = JETSON_NANO_GPU,
        clock: Optional[VirtualClock] = None,
        jit_cache: Optional[JitCache] = None,
        gmem_capacity: Optional[int] = None,
        gmem_base: int = DEVICE_MEM_BASE,
        launch_mode: str = "auto",
        sample_threshold_threads: int = 1 << 15,
        intrinsics: Optional[dict] = None,
        fastpath: Optional[str] = None,
        profile=None,
        faults: Optional[FaultInjector] = None,
    ):
        if launch_mode not in ("full", "sample", "auto"):
            raise ValueError(f"bad launch_mode {launch_mode!r}")
        s = Settings.from_env().overlay(kernel_fastpath=fastpath,
                                        profile=profile)
        if s.kernel_fastpath not in MODES:
            raise ValueError(f"bad fastpath mode {s.kernel_fastpath!r}")
        self.fastpath = s.kernel_fastpath
        #: representative blocks per sampled launch (see _sample_blocks)
        self.sample_blocks = s.sample_blocks
        self.kernel_cache = CompiledKernelCache()
        self.device_props = device
        self.clock = clock or VirtualClock()
        self.jit_cache = jit_cache
        self.launch_mode = launch_mode
        self.sample_threshold = sample_threshold_threads
        capacity = gmem_capacity or device.arena_bytes or \
            (device.total_global_mem - RESERVED_MEM)
        # multi-device registries hand each driver a disjoint base so the
        # host interpreter's space_of() can tell the address spaces apart
        self.gmem = LinearMemory(capacity, base=gmem_base, name="gmem")
        self.gpu_model = GpuTimingModel(device)
        self.host_model = HostModel(
            memcpy_bandwidth_gbps=device.copy_bandwidth_gbps)
        #: activity recorder (None: profiling disabled, hooks cost one
        #: identity check) and the Chrome-trace path requested, if any
        self.prof, self.prof_path = resolve_profile(s.profile)
        #: fault bookkeeping: the injector is optional (None: no injection;
        #: the hook costs one identity check per call), the fault log is
        #: always present — recovery layers report retries/fallbacks here
        #: even when nothing is injected (e.g. a real OOM)
        self.faultlog = FaultLog(clock=self.clock, recorder=self.prof,
                                 path=s.faults_log)
        self.faults = faults
        if faults is not None:
            faults.bind(self.faultlog)
        self.streams = StreamTable(
            self.clock, recorder=self.prof,
            engine_lanes={"compute": device.concurrent_kernels,
                          "copy": device.copy_engines})
        #: high-water mark of device bytes allocated (the profiler's
        #: memory track; also maintained with profiling disabled — it is
        #: a single max() per allocation)
        self.mem_peak = 0
        self.log = EventLog()
        self.stdout: list[str] = []
        self._initialized = False
        self._ctx_count = 0
        self._modules: dict[int, LoadedModule] = {}
        self._handles = itertools.count(1)
        self._sample_cache: dict[tuple, bool] = {}
        if intrinsics is None:
            from repro.devrt import build_intrinsics
            intrinsics = build_intrinsics()
        self.intrinsics = intrinsics
        self.last_kernel_stats: Optional[KernelStats] = None
        #: modelled seconds of the most recent kernel (the shard planner's
        #: observed-throughput input)
        self.last_kernel_seconds: float = 0.0

    # -- fault injection hook -----------------------------------------------------
    def _fault(self, api: str, nbytes: int = 0) -> None:
        """Give the fault injector a chance to fail this entry point.
        Called *before* any functional side effect so a retry of the same
        call is clean (the invariant transient-fault recovery rests on)."""
        if self.faults is not None:
            self.faults.check(api, nbytes=nbytes)

    # -- init / device discovery ------------------------------------------------
    def cuInit(self, flags: int = 0) -> CUresult:
        self._fault("cuInit")
        if flags != 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, "flags must be 0")
        self._initialized = True
        return CUresult.CUDA_SUCCESS

    def _check_init(self) -> None:
        if not self._initialized:
            raise CudaError(CUresult.CUDA_ERROR_NOT_INITIALIZED)

    def cuDeviceGetCount(self) -> int:
        self._check_init()
        self._fault("cuDeviceGetCount")
        return 1

    def cuDeviceGet(self, ordinal: int) -> int:
        self._check_init()
        self._fault("cuDeviceGet")
        if ordinal != 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_DEVICE, str(ordinal))
        return 0

    def cuDeviceGetName(self, dev: int) -> str:
        self._check_init()
        self._fault("cuDeviceGetName")
        return self.device_props.name

    def cuDeviceComputeCapability(self, dev: int) -> tuple[int, int]:
        self._check_init()
        self._fault("cuDeviceComputeCapability")
        return self.device_props.compute_capability

    def cuDeviceTotalMem(self, dev: int) -> int:
        self._check_init()
        self._fault("cuDeviceTotalMem")
        return self.device_props.total_global_mem

    def cuDeviceGetAttribute(self, attrib: str, dev: int) -> int:
        self._check_init()
        self._fault("cuDeviceGetAttribute")
        props = self.device_props
        table = {
            "MAX_THREADS_PER_BLOCK": props.max_threads_per_block,
            "WARP_SIZE": props.warp_size,
            "MULTIPROCESSOR_COUNT": props.multiprocessor_count,
            "MAX_SHARED_MEMORY_PER_BLOCK": props.shared_mem_per_block,
            "CLOCK_RATE": props.clock_rate_khz,
            "COMPUTE_CAPABILITY_MAJOR": props.compute_capability[0],
            "COMPUTE_CAPABILITY_MINOR": props.compute_capability[1],
            "MAX_BLOCK_DIM_X": props.max_block_dim[0],
            "MAX_BLOCK_DIM_Y": props.max_block_dim[1],
            "MAX_BLOCK_DIM_Z": props.max_block_dim[2],
            "MAX_GRID_DIM_X": props.max_grid_dim[0],
            "MAX_GRID_DIM_Y": props.max_grid_dim[1],
            "MAX_GRID_DIM_Z": props.max_grid_dim[2],
        }
        try:
            return table[attrib]
        except KeyError:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE,
                            f"unknown attribute {attrib}") from None

    # -- contexts ----------------------------------------------------------------
    def cuDevicePrimaryCtxRetain(self, dev: int) -> int:
        self._check_init()
        self._fault("cuDevicePrimaryCtxRetain")
        if dev != 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_DEVICE)
        self._ctx_count += 1
        return 1  # the primary context handle

    def cuDevicePrimaryCtxReset(self, dev: int = 0) -> CUresult:
        """Destroy the primary context's state: all modules (with their
        globals) and all device allocations are gone, and a sticky
        (poisoned) error state is cleared — the one sanctioned way back
        from context poisoning on real CUDA."""
        self._check_init()
        self._fault("cuDevicePrimaryCtxReset")
        if dev != 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_DEVICE)
        for addr in list(self.gmem._allocated):
            self.gmem.free(addr)
        self._modules.clear()
        self._ctx_count = 0
        self._note_mem_usage("reset", 0, 0)
        if self.faults is not None:
            self.faults.reset_context()
        return CUresult.CUDA_SUCCESS

    def cuCtxSetCurrent(self, ctx: int) -> CUresult:
        self._check_init()
        self._fault("cuCtxSetCurrent")
        if ctx != 1:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_CONTEXT)
        return CUresult.CUDA_SUCCESS

    def cuCtxSynchronize(self) -> CUresult:
        self._check_init()
        self._fault("cuCtxSynchronize")
        # join every stream's enqueued (asynchronous) work
        t0 = self.clock.now()
        self.clock.advance_to(self.streams.all_done_at())
        if self.prof is not None:
            self.prof.emit(SyncActivity(op="ctx_sync", t_start=t0,
                                        t_end=self.clock.now(),
                                        waited_s=self.clock.now() - t0))
        return CUresult.CUDA_SUCCESS

    # -- streams & events ----------------------------------------------------------
    def _schedule(self, stream: int, kind: str, cost: float,
                  detail: str = "", nbytes: int = 0,
                  kernel: Optional[str] = None) -> tuple[float, float]:
        """Place one operation on a stream timeline and log it.  Work on
        the default stream is host-synchronous (the clock advances to its
        completion, as before streams existed); work on a created stream
        only moves the stream's timeline — the host observes it at a
        synchronisation point."""
        try:
            start, end = self.streams.schedule(stream, kind, cost)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        self.log.add(kind, cost, detail, nbytes=nbytes, kernel=kernel,
                     stream=stream, t_start=start, t_end=end)
        if stream == DEFAULT_STREAM:
            self.clock.advance_to(end)
        return start, end

    def cuStreamCreate(self, flags: int = 0) -> int:
        self._check_init()
        self._fault("cuStreamCreate")
        return self.streams.create(flags)

    def cuStreamDestroy(self, stream: int) -> CUresult:
        self._check_init()
        self._fault("cuStreamDestroy")
        try:
            self.streams.destroy(stream)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        return CUresult.CUDA_SUCCESS

    def cuStreamSynchronize(self, stream: int) -> float:
        """Block the host until the stream drains; returns the new host
        time (the simulated completion timestamp)."""
        self._check_init()
        self._fault("cuStreamSynchronize")
        try:
            done_at = self.streams.completion_time(stream)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        t0 = self.clock.now()
        now = self.clock.advance_to(done_at)
        if self.prof is not None:
            self.prof.emit(SyncActivity(op="stream_sync", handle=stream,
                                        stream=stream, t_start=t0, t_end=now,
                                        waited_s=now - t0))
        return now

    def cuStreamQuery(self, stream: int) -> CUresult:
        self._check_init()
        self._fault("cuStreamQuery")
        try:
            done_at = self.streams.completion_time(stream)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        if done_at > self.clock.now():
            return CUresult.CUDA_ERROR_NOT_READY
        return CUresult.CUDA_SUCCESS

    def cuStreamWaitEvent(self, stream: int, event: int,
                          flags: int = 0) -> CUresult:
        self._check_init()
        self._fault("cuStreamWaitEvent")
        try:
            self.streams.stream_wait_event(stream, event)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        return CUresult.CUDA_SUCCESS

    def cuEventCreate(self) -> int:
        self._check_init()
        self._fault("cuEventCreate")
        return self.streams.create_event()

    def cuEventDestroy(self, event: int) -> CUresult:
        self._check_init()
        self._fault("cuEventDestroy")
        try:
            self.streams.destroy_event(event)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        return CUresult.CUDA_SUCCESS

    def cuEventRecord(self, event: int, stream: int = DEFAULT_STREAM) -> CUresult:
        self._check_init()
        self._fault("cuEventRecord")
        try:
            ev = self.streams.record(event, stream)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        if self.prof is not None:
            now = self.clock.now()
            self.prof.emit(EventActivity(op="record", handle=event,
                                         stream=stream, t_start=now,
                                         t_end=now, timestamp=ev.timestamp))
        return CUresult.CUDA_SUCCESS

    def cuEventQuery(self, event: int) -> CUresult:
        self._check_init()
        self._fault("cuEventQuery")
        try:
            ev = self.streams.get_event(event)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        if not ev.recorded or ev.timestamp > self.clock.now():
            return CUresult.CUDA_ERROR_NOT_READY
        return CUresult.CUDA_SUCCESS

    def cuEventSynchronize(self, event: int) -> float:
        self._check_init()
        self._fault("cuEventSynchronize")
        try:
            ev = self.streams.get_event(event)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc
        t0 = self.clock.now()
        if ev.recorded:
            self.clock.advance_to(ev.timestamp)
        now = self.clock.now()
        if self.prof is not None:
            self.prof.emit(SyncActivity(op="event_sync", handle=event,
                                        t_start=t0, t_end=now,
                                        waited_s=now - t0))
        return now

    def cuEventElapsedTime(self, start: int, end: int) -> float:
        """Milliseconds between two recorded events (cuEventElapsedTime)."""
        self._check_init()
        self._fault("cuEventElapsedTime")
        try:
            return self.streams.elapsed_ms(start, end)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc

    # -- modules ----------------------------------------------------------------
    def cuModuleLoadData(self, image: Union[bytes, PtxImage, CubinImage]) -> int:
        self._check_init()
        self._fault("cuModuleLoadData")
        if isinstance(image, PtxImage):
            kind = "ptx"
        elif isinstance(image, CubinImage):
            kind = "cubin"
        else:
            kind = identify_image(image)
            image = (PtxImage.from_bytes(image) if kind == "ptx"
                     else CubinImage.from_bytes(image))
        jit_cached = False
        jit_s = 0.0
        if kind == "ptx":
            result = jit_compile(image, self.device_props, self.jit_cache,
                                 link_device_library=True)
            t0 = self.clock.now()
            self.clock.advance(result.compile_time_s)
            self.log.add("jit", result.compile_time_s,
                         "cache hit" if result.cached else "compiled",
                         t_start=t0, t_end=self.clock.now())
            jit_cached = result.cached
            jit_s = result.compile_time_s
            cubin = result.image
        else:
            cubin = image
            if cubin.arch != self.device_props.arch:
                raise CudaError(
                    CUresult.CUDA_ERROR_INVALID_IMAGE,
                    f"cubin targets {cubin.arch}, device is {self.device_props.arch}",
                )
        handle = next(self._handles)
        loaded = LoadedModule(handle, cubin.module, kind, cubin.linked,
                              cubin.resources)
        for name, size in cubin.module.globals_.items():
            addr = self.gmem.alloc(max(size, 1), align=8)
            self.gmem.view(addr, max(size, 1), np.uint8)[:] = 0
            loaded.global_addrs[name] = addr
            self._note_mem_usage("module_global", max(size, 1), addr)
        self._modules[handle] = loaded
        self.log.add("module_load", 0.0, f"{kind}:{cubin.module.name}")
        if self.prof is not None:
            now = self.clock.now()
            self.prof.emit(ModuleActivity(
                name=cubin.module.name, image_kind=kind, jit_cached=jit_cached,
                jit_s=jit_s, t_start=now - jit_s, t_end=now,
            ))
        return handle

    def cuModuleUnload(self, handle: int) -> CUresult:
        self._check_init()
        self._fault("cuModuleUnload")
        loaded = self._modules.pop(handle, None)
        if loaded is None:
            raise CudaError(CUresult.CUDA_ERROR_NOT_FOUND, f"module {handle}")
        for addr in loaded.global_addrs.values():
            size = self.gmem.allocated_size(addr) or 0
            self.gmem.free(addr)
            self._note_mem_usage("free", size, addr)
        return CUresult.CUDA_SUCCESS

    def cuModuleGetFunction(self, handle: int, name: str) -> CUfunction:
        self._check_init()
        self._fault("cuModuleGetFunction")
        loaded = self._modules.get(handle)
        if loaded is None:
            raise CudaError(CUresult.CUDA_ERROR_NOT_FOUND, f"module {handle}")
        if name not in loaded.module.kernels:
            raise CudaError(CUresult.CUDA_ERROR_NOT_FOUND,
                            f"kernel {name!r} not in module")
        return CUfunction(handle, name)

    def cuModuleGetGlobal(self, handle: int, name: str) -> tuple[int, int]:
        self._check_init()
        self._fault("cuModuleGetGlobal")
        loaded = self._modules.get(handle)
        if loaded is None or name not in loaded.global_addrs:
            raise CudaError(CUresult.CUDA_ERROR_NOT_FOUND, name)
        return loaded.global_addrs[name], loaded.module.globals_[name]

    # -- memory ------------------------------------------------------------------
    def _note_mem_usage(self, op: str, nbytes: int, addr: int,
                        t_start: float = 0.0, t_end: float = 0.0) -> None:
        """Update the peak-usage watermark and emit the memory-track
        activity.  Called after every allocation/free on device DRAM."""
        in_use = self.gmem.bytes_in_use
        if in_use > self.mem_peak:
            self.mem_peak = in_use
        if self.prof is not None:
            if t_end == 0.0:
                t_start = t_end = self.clock.now()
            self.prof.emit(MemoryActivity(op=op, nbytes=nbytes, addr=addr,
                                          in_use=in_use, peak=self.mem_peak,
                                          t_start=t_start, t_end=t_end))

    def cuMemGetInfo(self) -> tuple[int, int]:
        """``(free, total)`` device memory in bytes — ``total`` is the
        board's physical DRAM and ``free`` what a ``cuMemAlloc`` can still
        draw from (capacity minus the OS/display reservation and current
        allocations), mirroring the real API's semantics on the Nano."""
        self._check_init()
        self._fault("cuMemGetInfo")
        return self.gmem.capacity - self.gmem.bytes_in_use, \
            self.device_props.total_global_mem

    def cuMemAlloc(self, size: int) -> int:
        self._check_init()
        if size <= 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, "size must be > 0")
        self._fault("cuMemAlloc", nbytes=size)
        try:
            addr = self.gmem.alloc(size, align=256)
        except Exception as exc:
            raise CudaError(CUresult.CUDA_ERROR_OUT_OF_MEMORY, str(exc)) from exc
        cost = self.host_model.alloc_time()
        t0 = self.clock.now()
        self.clock.advance(cost)
        self.log.add("alloc", cost, nbytes=size, t_start=t0,
                     t_end=self.clock.now())
        self._note_mem_usage("alloc", size, addr, t0, self.clock.now())
        return addr

    def cuMemFree(self, dptr: int) -> CUresult:
        self._check_init()
        self._fault("cuMemFree")
        size = self.gmem.allocated_size(dptr)
        if size is None:
            raise CudaError(
                CUresult.CUDA_ERROR_INVALID_VALUE,
                f"free of unknown or already-freed device pointer {dptr:#x}")
        self.gmem.free(dptr)
        self.log.add("free", 0.0)
        self._note_mem_usage("free", size, dptr)
        return CUresult.CUDA_SUCCESS

    def cuMemcpyHtoD(self, dptr: int, src) -> CUresult:
        return self.cuMemcpyHtoDAsync(dptr, src, DEFAULT_STREAM)

    def cuMemcpyHtoDAsync(self, dptr: int, src,
                          stream: int = DEFAULT_STREAM) -> CUresult:
        """H2D copy on a stream.  The bytes move immediately (functional
        execution follows program order); the *cost* lands on the stream's
        copy-engine timeline.  On the default stream this is the old
        synchronous cuMemcpyHtoD."""
        self._check_init()
        self._check_stream(stream)
        if isinstance(src, (bytes, bytearray)):
            data = np.frombuffer(bytes(src), dtype=np.uint8)
        else:
            # reinterpret the array's bytes (never value-convert)
            data = np.ascontiguousarray(src).reshape(-1).view(np.uint8)
        self._fault("cuMemcpyHtoDAsync", nbytes=int(data.size))
        self.gmem.copy_in(dptr, data)
        cost = self.host_model.memcpy_time(data.size)
        start, end = self._schedule(stream, "memcpy_h2d", cost,
                                    nbytes=int(data.size))
        self._note_memcpy("h2d", int(data.size), start, end, stream)
        return CUresult.CUDA_SUCCESS

    def cuMemcpyDtoH(self, dptr: int, nbytes: int) -> bytes:
        return self.cuMemcpyDtoHAsync(dptr, nbytes, DEFAULT_STREAM)

    def cuMemcpyDtoHAsync(self, dptr: int, nbytes: int,
                          stream: int = DEFAULT_STREAM) -> bytes:
        self._check_init()
        self._check_stream(stream)
        self._fault("cuMemcpyDtoHAsync", nbytes=nbytes)
        data = self.gmem.copy_out(dptr, nbytes)
        cost = self.host_model.memcpy_time(nbytes)
        start, end = self._schedule(stream, "memcpy_d2h", cost, nbytes=nbytes)
        self._note_memcpy("d2h", nbytes, start, end, stream)
        return data

    def cuMemsetD8(self, dptr: int, value: int, count: int,
                   stream: int = DEFAULT_STREAM) -> CUresult:
        self._check_init()
        self._check_stream(stream)
        self._fault("cuMemsetD8", nbytes=count)
        self.gmem.view(dptr, count, np.uint8)[:] = value & 0xFF
        cost = self.host_model.memcpy_time(count) / 2
        start, end = self._schedule(stream, "memcpy_h2d", cost, "memset",
                                    nbytes=count)
        self._note_memcpy("h2d", count, start, end, stream, detail="memset")
        return CUresult.CUDA_SUCCESS

    def cuMemcpyPeer(self, dst_dptr: int, dst_driver: "CudaDriver",
                     src_dptr: int, nbytes: int,
                     stream: int = DEFAULT_STREAM) -> CUresult:
        """Device-to-device transfer between two driver instances
        (``cuMemcpyPeer``-style: source and destination live in different
        contexts).  The bytes move immediately; the cost occupies the
        *source* device's copy engine on ``stream`` and the destination's
        copy-engine timeline is pushed to the same completion point, so
        neither device can overlap another transfer with it."""
        self._check_init()
        self._check_stream(stream)
        self._fault("cuMemcpyPeer", nbytes=nbytes)
        data = self.gmem.copy_out(src_dptr, nbytes)
        dst_driver.gmem.copy_in(dst_dptr, data)
        cost = self.host_model.memcpy_time(nbytes)
        start, end = self._schedule(stream, "memcpy_d2d", cost, "peer",
                                    nbytes=nbytes)
        if dst_driver is not self:
            dst_driver.streams.occupy_engine("copy", end)
        self._note_memcpy("d2d", nbytes, start, end, stream, detail="peer")
        return CUresult.CUDA_SUCCESS

    def _check_stream(self, stream: int) -> None:
        """Validate a stream handle *before* any functional side effect,
        so a bad handle is a clean CUDA_ERROR_INVALID_HANDLE instead of a
        copy that already mutated memory."""
        try:
            self.streams.get(stream)
        except StreamError as exc:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, str(exc)) from exc

    def _note_memcpy(self, direction: str, nbytes: int, start: float,
                     end: float, stream: int, detail: str = "") -> None:
        if self.prof is None:
            return
        secs = end - start
        bw = (nbytes / secs / 1e9) if secs > 0 else 0.0
        self.prof.emit(MemcpyActivity(direction=direction, nbytes=nbytes,
                                      bandwidth_gbps=bw, detail=detail,
                                      stream=stream, t_start=start, t_end=end))

    # -- kernel launch -------------------------------------------------------------
    def _kernel_communicates(self, kernel: KernelIR) -> bool:
        key = (id(kernel),)
        cached = self._sample_cache.get(key)
        if cached is None:
            def block_local(ops) -> bool:
                for op in walk_ops(ops):
                    if isinstance(op, (BarOp, Atom)):
                        return False
                    if isinstance(op, CallOp) and not op.name.startswith("__ld") \
                            and op.name != "__local_base" \
                            and not op.name.startswith("omp_") \
                            and op.name not in (
                                "cudadev_target_init",
                                "cudadev_get_distribute_chunk",
                                "cudadev_get_static_chunk",
                                "cudadev_get_distribute_chunk_dim",
                                "cudadev_get_static_chunk_dim",
                            ):
                        return False
                return True
            cached = not (block_local(kernel.body) and all(
                block_local(sub.body) for sub in kernel.subfunctions.values()
            ))
            self._sample_cache[key] = cached
        return cached

    def _sample_blocks(self, grid: Dim3) -> list[tuple[int, int, int]]:
        want = self.sample_blocks
        mid = (grid.x // 2, grid.y // 2, grid.z // 2)
        if want <= 1:
            return [mid]
        first = (0, 0, 0)
        last = (grid.x - 1, grid.y - 1, grid.z - 1)
        if want == 2:
            return sorted({first, last})
        return sorted({first, mid, last})

    #: per-series sampling policy: functionally execute the first launches
    #: of a (kernel, grid, block) series, then exponentially back off —
    #: long launch series (gramschmidt's per-column kernels) have smoothly
    #: varying dynamic counts, interpolated between samples.
    @staticmethod
    def _should_sample_series(idx: int) -> bool:
        # Three consecutive early samples establish the slope; sparse
        # anchors re-calibrate long series.  (Early launches of k-indexed
        # kernel series carry the largest trip counts, so oversampling
        # them — e.g. at every power of two — is the expensive mistake.)
        if idx < 3:
            return True
        return idx % 199 == 0

    def _sampled_launch(self, engine, kernel, fn, grid, block, params,
                        total_blocks, total_warps,
                        communicates: bool = False) -> KernelStats:
        key = (fn.module_handle, fn.name, tuple(grid), tuple(block))
        series = self.__dict__.setdefault("_launch_series", {}).setdefault(
            key, {"count": 0, "samples": []}
        )
        idx = series["count"]
        series["count"] += 1
        if self._should_sample_series(idx):
            if communicates:
                sampled = engine.launch(kernel, grid, block, params)
            else:
                picks = self._sample_blocks(grid)
                # guard-skewed kernels (e.g. "if (j > k)", "if (tid == 0)")
                # concentrate work in a few warps, so a single-warp sample
                # extrapolates badly.  Blocks here have at most 8 warps
                # (256 threads), so running every warp of the 3 sampled
                # blocks is cheap and unbiased; huge blocks fall back to a
                # first/middle/last warp spread.
                wpb = (block.count + 31) // 32
                warp_picks = None if wpb <= 8 else {0, 1, wpb // 2, wpb - 1}
                sampled = engine.launch(kernel, grid, block, params,
                                        only_blocks=picks,
                                        only_warps=warp_picks)
            run_warps = max(sampled.warps_launched, 1)
            stats = KernelStats(grid=tuple(grid), block=tuple(block),
                                smem_per_block=sampled.smem_per_block)
            stats.merge_scaled(sampled, total_warps / run_warps)
            stats.blocks_launched = total_blocks
            stats.warps_launched = total_warps
            stats.threads_launched = block.count * total_blocks
            series["samples"].append((idx, sampled))
            return stats
        # extrapolate dynamic counts from the two nearest samples
        samples = series["samples"]
        (i0, s0) = samples[-1]
        (i1, s1) = samples[-2] if len(samples) > 1 else samples[-1]
        stats = KernelStats(grid=tuple(grid), block=tuple(block),
                            smem_per_block=s0.smem_per_block)
        if i0 != i1:
            slope = (idx - i0) / (i0 - i1)
        else:
            slope = 0.0
        run_warps = max(s0.warps_launched, 1)
        scale = total_warps / run_warps
        for name in ("instructions", "alu_f32", "alu_f64", "alu_int",
                     "special_ops", "load_instructions", "store_instructions",
                     "global_mem_instructions", "global_transactions",
                     "shared_accesses", "local_accesses",
                     "barriers", "atomics", "divergent_branches",
                     "loop_iterations", "spins"):
            v0 = getattr(s0, name)
            v1 = getattr(s1, name)
            est = v0 + (v0 - v1) * slope
            setattr(stats, name, max(0, int(est * scale)))
        stats.blocks_launched = total_blocks
        stats.warps_launched = total_warps
        stats.threads_launched = block.count * total_blocks
        return stats

    def cuLaunchKernel(
        self,
        fn: CUfunction,
        grid_x: int, grid_y: int, grid_z: int,
        block_x: int, block_y: int, block_z: int,
        shared_mem_bytes: int = 0,
        stream: int = 0,
        kernel_params: Optional[list] = None,
        block_range: Optional[tuple[int, int]] = None,
    ) -> KernelStats:
        self._check_init()
        # validate the stream up front: an unknown id is a loud error, not
        # a silently ignored argument
        self._check_stream(stream)
        self._fault("cuLaunchKernel")
        loaded = self._modules.get(fn.module_handle)
        if loaded is None:
            raise CudaError(CUresult.CUDA_ERROR_NOT_FOUND, "module unloaded")
        if not loaded.linked:
            raise CudaError(
                CUresult.CUDA_ERROR_INVALID_IMAGE,
                "cubin was built without the device runtime library "
                "(OMPi cubin-mode scripts link it at compile time)",
            )
        kernel = loaded.module.kernels[fn.name]
        grid = Dim3(grid_x, grid_y, grid_z)
        block = Dim3(block_x, block_y, block_z)
        params = self._prepare_params(kernel, kernel_params or [])
        engine = FunctionalEngine(self.device_props, self.gmem,
                                  self.intrinsics, loaded.global_addrs,
                                  fastpath=self.fastpath,
                                  compile_cache=self.kernel_cache,
                                  recorder=self.prof)
        # a sharded launch executes only a contiguous range of linear block
        # ids, with the *full* grid dims still visible to the device runtime
        # (cudadev_get_distribute_chunk derives each team's iteration chunk
        # from its global block id, so the subset covers exactly the global
        # sub-range the shard owns)
        shard_blocks = None
        if block_range is not None:
            blo, bhi = block_range
            if not (0 <= blo <= bhi <= grid.count):
                raise CudaError(
                    CUresult.CUDA_ERROR_INVALID_VALUE,
                    f"block_range {block_range} outside grid of {grid.count}")
            shard_blocks = [
                (b % grid.x, (b // grid.x) % grid.y, b // (grid.x * grid.y))
                for b in range(blo, bhi)
            ]
        total_blocks = grid.count if shard_blocks is None else len(shard_blocks)
        warps_per_block = (block.count + 31) // 32
        total_warps = total_blocks * warps_per_block
        communicates = self._kernel_communicates(kernel)
        sample = (
            self.launch_mode == "sample"
            or (self.launch_mode == "auto"
                and total_blocks * block.count > self.sample_threshold)
        )
        # never sample a shard: every retained block must actually run so
        # sharded output stays bit-identical to the single-device run
        if shard_blocks is not None:
            sample = False
        # In explicit sample mode even communicating kernels join a launch
        # *series*: sampled launches execute in full (their behaviour is not
        # block-local so no subsetting), unsampled ones are extrapolated.
        # In auto mode communicating kernels always run fully — they are
        # only auto-sampled when their grids are huge, which the paper's
        # master/worker kernels (one block of 128 threads) never are.
        if self.launch_mode == "auto" and communicates:
            sample = False
        wall0 = time.perf_counter()
        try:
            if sample:
                stats = self._sampled_launch(engine, kernel, fn, grid, block,
                                             params, total_blocks, total_warps,
                                             communicates)
            elif shard_blocks is not None:
                stats = engine.launch(kernel, grid, block, params,
                                      only_blocks=shard_blocks)
            else:
                stats = engine.launch(kernel, grid, block, params)
        except LaunchError as exc:
            raise CudaError(CUresult.CUDA_ERROR_LAUNCH_FAILED, str(exc)) from exc
        wall_s = time.perf_counter() - wall0
        self.stdout.extend(engine.stdout)
        resources = loaded.resources.get(fn.name, {})
        stats.registers_per_thread = resources.get("registers", 32)
        breakdown = self.gpu_model.kernel_time(stats)
        overhead = C.LAUNCH_LATENCY_S + C.PARAM_PREP_S * len(params)
        self._schedule(stream, "launch_overhead", overhead, kernel=fn.name)
        k_start, k_end = self._schedule(
            stream, "kernel", breakdown.total_s,
            detail=f"bound={breakdown.bound} warps={breakdown.occupancy_warps:.0f}",
            kernel=fn.name,
        )
        if self.prof is not None:
            self.prof.emit(KernelActivity(
                name=fn.name, grid=tuple(grid), block=tuple(block),
                stream=stream, t_start=k_start, t_end=k_end,
                modelled_s=breakdown.total_s, overhead_s=overhead,
                wall_s=wall_s, bound=breakdown.bound,
                occupancy_warps=breakdown.occupancy_warps,
                resident_blocks=breakdown.resident_blocks,
                registers_per_thread=stats.registers_per_thread,
                smem_per_block=stats.smem_per_block,
                instructions=stats.instructions,
                global_mem_instructions=stats.global_mem_instructions,
                global_transactions=stats.global_transactions,
                divergent_branches=stats.divergent_branches,
                barriers=stats.barriers, atomics=stats.atomics,
                shared_accesses=stats.shared_accesses,
                local_accesses=stats.local_accesses,
            ))
        self.last_kernel_stats = stats
        self.last_kernel_seconds = breakdown.total_s
        return stats

    def _prepare_params(self, kernel: KernelIR, raw: list) -> list:
        if len(raw) != len(kernel.params):
            raise CudaError(
                CUresult.CUDA_ERROR_INVALID_VALUE,
                f"kernel {kernel.name} takes {len(kernel.params)} parameters, "
                f"got {len(raw)}",
            )
        params = []
        for spec, value in zip(kernel.params, raw):
            dt = np_dtype(spec.dtype)
            if hasattr(value, "addr"):           # interp Ptr
                value = value.addr
            params.append(dt.type(value))
        return params
