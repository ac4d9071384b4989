"""The ort runtime object: devices, data environments, natives.

A translated host program executes inside a cfront
:class:`~repro.cfront.interp.Machine` whose native-function table is
extended with the ``ort_*`` calls the OMPi code generator emits plus the
host ``omp_*`` API.  One :class:`Ort` instance corresponds to one running
program (like the real runtime's process-global state).

Device numbering follows OpenMP: devices ``0 .. omp_get_num_devices()-1``
are offload targets (each a cudadev GPU with its own driver state, data
environment, stream pool and fault domain) and the *initial device* (the
host itself) has id ``omp_get_num_devices()``.  The registry comes from
the ``backends``/``num_devices`` arguments or the environment, resolved
by :mod:`repro.settings` (default: the single Jetson Nano of the paper).

A ``shard(n)`` clause on ``target teams distribute`` splits the team grid
contiguously across the first ``n`` healthy devices (``n <= 0``: all of
them): every map is replicated per device, each device executes only its
own block range of the *global* grid — the device runtime derives team
chunks from global block ids, so the per-device launches cover exactly
the global iteration space — and the join diffs each device's mapped
buffers against their launch-time baselines, merging the changed bytes
back into host memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cfront.errors import InterpError
from repro.cfront.interp import Machine, Ptr
from repro.cuda.device import DeviceProperties, JETSON_NANO_GPU
from repro.cuda.driver import DEVICE_MEM_BASE
from repro.cuda.errors import CudaError
from repro.cuda.ptx.jit import JitCache
from repro.devices.registry import parse_devices, resolve_registry
from repro.faults.injector import resolve_faults
from repro.faults.recovery import DeviceLost, OffloadFailure
from repro.hostrt.cudadev_host import CudadevModule
from repro.hostrt.devices import HostDevice
from repro.hostrt.icv import ICVs
from repro.hostrt.mapping import (
    MAP_DELETE, MAP_FROM, MAP_RELEASE, MAP_TO, MAP_TOFROM, DataEnv,
    MappingError,
)
from repro.hostrt.reduction import dtype_of, fold_partials
from repro.hostrt.team import HostTeamError, TeamStack
from repro.prof.activity import DeviceRecorder, resolve_profile
from repro.prof.ompt import OmptRegistry
from repro.rt_async.taskgraph import (
    DEP_IN, DEP_INOUT, DEP_OUT, OffloadTaskError, StreamPoolScheduler,
)
from repro.settings import Settings
from repro.timing.clock import VirtualClock

#: checks of the environment variables whose grammar this layer owns
ENV_CHECKS = {"devices": parse_devices, "faults": resolve_faults}

#: address-space stride between per-device memory arenas (4 GiB: well
#: above any single device's capacity, so device pointers never collide
#: and the interpreter can attribute a raw address to its device)
DEVICE_MEM_STRIDE = 0x1_0000_0000


class _ShardScope:
    """State of one active ``shard`` region: the participating device
    ordinals, per-device pending kernel arguments, and the launch-time
    device-content baselines the copy-back merge diffs against."""

    def __init__(self, devices: list[int]):
        self.devices = devices
        #: the region degraded to the host path (no healthy device, or a
        #: launch failed): remaining maps/launches take the host route
        self.failed = not devices
        #: device ordinal -> pending (translated) kernel arguments
        self.kargs: dict[int, list] = {k: [] for k in devices}
        self.hostargs: list = []
        #: (device ordinal, host addr) -> device bytes at map time
        self.baselines: dict[tuple[int, int], np.ndarray] = {}
        #: host_addr -> size, for the merge at unmap
        self.sizes: dict[int, int] = {}


class Ort:
    def __init__(
        self,
        machine: Machine,
        device: Optional[DeviceProperties] = None,
        clock: Optional[VirtualClock] = None,
        jit_cache: Optional[JitCache] = None,
        launch_mode: str = "auto",
        fastpath: Optional[str] = None,
        profile=None,
        faults=None,
        recovery=None,
        num_devices: Optional[int] = None,
        devices: Optional[list] = None,
        dataenvs: Optional[dict] = None,
        ompt: Optional[OmptRegistry] = None,
        default_device: int = 0,
        backends=None,
        healthy_fn=None,
    ):
        self.machine = machine
        #: optional predicate ``(ordinal) -> bool`` consulted when picking
        #: shard participants — the serving runtime wires its per-device
        #: circuit breakers here so an open (but not yet lost) device is
        #: not handed a shard of new work
        self.healthy_fn = healthy_fn
        if devices is not None:
            # -- leased registry (serving runtime) -----------------------
            # The caller owns the device modules, virtual clock, activity
            # ring and OMPT registry; this Ort only binds them to one
            # machine for one request's lifetime.  Host memory is leased:
            # execution is cooperative, so every functional host access
            # completes before the owner re-leases the modules.
            if not devices:
                raise ValueError("a leased device registry cannot be empty")
            self.clock = clock or devices[0].driver.clock
            self.prof, self.prof_path = resolve_profile(
                profile if profile is not None else False)
            self.ompt = ompt if ompt is not None else OmptRegistry()
            self.devices = list(devices)
            for mod in self.devices:
                mod.lease_host(machine.heap)
        else:
            self.clock = clock or VirtualClock()
            s = Settings.from_env(checks=ENV_CHECKS).overlay(
                devices=backends, num_devices=num_devices,
                device_given=device is not None, kernel_fastpath=fastpath,
                profile=profile, faults=faults)
            backs, num_devices = resolve_registry(s)
            if device is None:
                device = JETSON_NANO_GPU
            #: one shared activity ring for the whole registry; each module
            #: gets a per-device stamping view so the merged stream stays in
            #: emission order while every record remains attributable
            self.prof, self.prof_path = resolve_profile(s.profile)
            #: OMPT-style tool callback registry, shared with every device
            #: module so callbacks see both runtime- and module-level events
            self.ompt = ompt if ompt is not None else OmptRegistry()
            from repro.devrt import build_intrinsics
            intrinsics = build_intrinsics()
            #: offload devices (0..n-1); the initial device is id n
            self.devices = [
                CudadevModule(
                    machine.heap,
                    backs[k].props if backs is not None else device,
                    clock=self.clock,
                    jit_cache=jit_cache,
                    launch_mode=launch_mode, fastpath=s.kernel_fastpath,
                    profile=(DeviceRecorder(self.prof, k)
                             if self.prof is not None else False),
                    faults=(s.faults.get(k) if isinstance(s.faults, dict)
                            else s.faults),
                    recovery=recovery, ordinal=k,
                    ompt=self.ompt,
                    gmem_base=DEVICE_MEM_BASE + k * DEVICE_MEM_STRIDE,
                    intrinsics=intrinsics,
                    backend=backs[k] if backs is not None else None,
                )
                for k in range(num_devices)
            ]
        self.icvs = ICVs(default_device_var=int(default_device))
        self.cudadev = self.devices[0]
        self.recovery = self.cudadev.recovery
        self.host_device = HostDevice(machine)
        self.dataenvs = (dict(dataenvs) if dataenvs is not None
                         else {k: DataEnv(mod)
                               for k, mod in enumerate(self.devices)})
        self.teams = TeamStack(self.icvs.nthreads_var)
        self._pending_kargs: list = []
        #: host-address twins of the pending kernel arguments — what the
        #: ``*_hostfn`` receives if the launch has to fall back to the host
        self._pending_hostargs: list = []
        self._pending_pargs: list = []
        # -- asynchronous offload (target nowait + depend) ---------------
        self._pending_deps: list[tuple[int, int]] = []
        #: innermost deferred task whose body is executing (None entries
        #: mark host-device tasks, which run synchronously)
        self._task_stack: list = []
        #: device ordinal -> stream-pool task scheduler (lazily created)
        self._schedulers: dict[int, StreamPoolScheduler] = {}
        self._task_count = 0
        #: active ``shard`` region, if any (no nesting)
        self._shard: Optional[_ShardScope] = None
        # -- deterministic reductions (tree mode) ------------------------
        #: reductions registered for the *next* offload:
        #: (kernel-arg index, host addr, opcode, typecode)
        self._pending_reds: list[tuple[int, int, int, int]] = []
        #: launched reductions awaiting the cross-team combine at
        #: ort_red_end (dicts: addr/opcode/dtype/nteams/chunks)
        self._active_reds: list[dict] = []
        machine.natives.update(self._natives())
        for mod in self.devices:
            machine.register_space(mod.driver.gmem)

    # -- helpers ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def initial_device(self) -> int:
        return len(self.devices)

    def _resolve_device(self, dev: int, loc=None) -> int:
        if dev < 0:  # "default device" sentinel from the code generator
            dev = self.icvs.default_device_var
        dev = int(dev)
        if not 0 <= dev <= self.initial_device:
            raise InterpError(
                f"invalid device number {dev} (valid device ids are "
                f"0..{self.initial_device - 1}, or {self.initial_device} "
                "for the initial device)", loc)
        # a permanently lost device reroutes to the initial (host) device:
        # maps become the identity, launches run the *_hostfn — host memory
        # is authoritative from the moment of loss (OpenMP fallback rules)
        if (dev < self.initial_device
                and getattr(self.devices[dev], "lost", False)):
            return self.initial_device
        return dev

    def _env(self, dev: int, loc=None) -> Optional[DataEnv]:
        dev = self._resolve_device(dev, loc)
        return self.dataenvs.get(dev)

    @property
    def log(self):
        return self.cudadev.driver.log

    @property
    def fault_stats(self) -> dict:
        """Fault/recovery counters aggregated across every device's own
        fault domain (per-device breakdown: ``devices[k].fault_stats``)."""
        out: dict = {}
        for mod in self.devices:
            for op, count in mod.fault_stats.items():
                out[op] = out.get(op, 0) + count
        return out

    # -- native table ----------------------------------------------------------------
    def _natives(self) -> dict:
        n = {
            # data environment
            "ort_map": self._ort_map,
            "ort_unmap": self._ort_unmap,
            "ort_update_to": self._ort_update_to,
            "ort_update_from": self._ort_update_from,
            "ort_is_present": self._ort_is_present,
            # offload
            "ort_arg_ptr": self._ort_arg_ptr,
            "ort_arg_val": self._ort_arg_val,
            "ort_offload": self._ort_offload,
            # deterministic reductions (tree mode cross-team combine)
            "ort_red_scalar": self._ort_red_scalar,
            "ort_red_end": self._ort_red_end,
            # deferred offload tasks (target nowait / depend)
            "ort_task_dep": self._ort_task_dep,
            "ort_task_begin": self._ort_task_begin,
            "ort_task_end": self._ort_task_end,
            "ort_taskwait": self._ort_taskwait,
            # multi-device sharding (shard clause on target teams distribute)
            "ort_shard_begin": self._ort_shard_begin,
            "ort_shard_end": self._ort_shard_end,
            # host parallel
            "ort_parg": self._ort_parg,
            "ort_execute_parallel": self._ort_execute_parallel,
            "ort_for_bounds": self._ort_for_bounds,
            "ort_host_barrier": self._ort_host_barrier,
            # host omp API
            "omp_get_wtime": lambda m, a, l: self.clock.now(),
            "omp_get_num_devices": lambda m, a, l: len(self.devices),
            "omp_get_initial_device": lambda m, a, l: self.initial_device,
            "omp_get_default_device": lambda m, a, l: self.icvs.default_device_var,
            "omp_set_default_device": self._omp_set_default_device,
            "omp_is_initial_device": lambda m, a, l: 1,
            "omp_get_thread_num": lambda m, a, l: self.teams.thread_num(),
            "omp_get_num_threads": lambda m, a, l: self.teams.num_threads(),
            "omp_get_max_threads": lambda m, a, l: self.icvs.nthreads_var,
            "omp_set_num_threads": self._omp_set_num_threads,
            "omp_get_num_procs": lambda m, a, l: 4,
        }
        return n

    # -- data environment natives ----------------------------------------------------
    def _addr_of(self, value, loc) -> int:
        if isinstance(value, Ptr):
            return value.addr
        raise InterpError("runtime call expected a pointer argument", loc)

    def _ort_map(self, machine, args, loc):
        dev, ptr, size, map_type = args
        if self._shard is not None:
            return self._shard_map(ptr, int(size), int(map_type), loc)
        dev = self._resolve_device(int(dev), loc)
        if dev >= self.initial_device:
            return 0  # host device: identity mapping, nothing to do
        env = self.dataenvs[dev]
        addr = self._addr_of(ptr, loc)
        try:
            env.map_enter(addr, int(size), int(map_type))
        except MappingError as exc:
            raise InterpError(str(exc), loc) from exc
        except DeviceLost:
            return 0  # device gone mid-map: identity (host) route from here
        if self.ompt.active:
            self.ompt.dispatch("data_op", optype="alloc", device=dev,
                               addr=addr, nbytes=int(size))
        return 0

    def _ort_unmap(self, machine, args, loc):
        dev, ptr, map_type = args
        if self._shard is not None:
            return self._shard_unmap(ptr, int(map_type), loc)
        dev = self._resolve_device(int(dev), loc)
        if dev >= self.initial_device:
            return 0
        env = self.dataenvs[dev]
        addr = self._addr_of(ptr, loc)
        try:
            env.map_exit(addr, int(map_type))
        except MappingError as exc:
            raise InterpError(str(exc), loc) from exc
        except DeviceLost:
            return 0  # nothing to copy back: host memory is authoritative
        if self.ompt.active:
            self.ompt.dispatch("data_op", optype="delete", device=dev,
                               addr=addr, nbytes=0)
        return 0

    def _ort_update_to(self, machine, args, loc):
        dev, ptr, size = args
        dev = self._resolve_device(int(dev), loc)
        if dev >= self.initial_device:
            return 0
        try:
            self.dataenvs[dev].update_to(self._addr_of(ptr, loc), int(size))
        except DeviceLost:
            pass
        return 0

    def _ort_update_from(self, machine, args, loc):
        dev, ptr, size = args
        dev = self._resolve_device(int(dev), loc)
        if dev >= self.initial_device:
            return 0
        try:
            self.dataenvs[dev].update_from(self._addr_of(ptr, loc), int(size))
        except DeviceLost:
            pass
        return 0

    def _ort_is_present(self, machine, args, loc):
        dev, ptr = args
        env = self._env(int(dev), loc)
        if env is None:
            return 1
        return 1 if env.is_present(self._addr_of(ptr, loc)) else 0

    def peer_update(self, host_addr: int, size: int, src_dev: int,
                    dst_dev: int) -> None:
        """Device-to-device refresh of a host range mapped on both devices
        (the multi-device analogue of ``target update``): the bytes move
        over the simulated peer path, never staging through host memory."""
        src = self._resolve_device(int(src_dev))
        dst = self._resolve_device(int(dst_dev))
        for d in (src, dst):
            if d >= self.initial_device:
                raise MappingError(
                    "peer update endpoints must be offload devices")
        src_addr = self.dataenvs[src].translate(host_addr)
        dst_addr = self.dataenvs[dst].translate(host_addr)
        self.devices[src].peer_copy(self.devices[dst], dst_addr,
                                    src_addr, size)

    # -- offload natives ------------------------------------------------------------
    def _ort_arg_ptr(self, machine, args, loc):
        """Queue one kernel argument.  ``base`` is the pointer the kernel
        will index from; ``mapped`` is an address known to be inside the
        mapped section (they differ when a section has a nonzero lower
        bound: the kernel still receives a device pointer positioned so
        that kernel-side indices match host-side indices)."""
        dev, base, mapped = args
        scope = self._shard
        if scope is not None:
            base_addr = self._addr_of(base, loc)
            mapped_addr = self._addr_of(mapped, loc)
            if not scope.failed:
                try:
                    for k in scope.devices:
                        dev_mapped = self.dataenvs[k].translate(mapped_addr)
                        scope.kargs[k].append(
                            np.uint64(dev_mapped - (mapped_addr - base_addr)))
                except MappingError as exc:
                    raise InterpError(str(exc), loc) from exc
            scope.hostargs.append(base)
            return 0
        dev = self._resolve_device(int(dev), loc)
        if dev >= self.initial_device:
            self._pending_kargs.append(base)   # host fallback: host pointer
            self._pending_hostargs.append(base)
            return 0
        env = self.dataenvs[dev]
        base_addr = self._addr_of(base, loc)
        mapped_addr = self._addr_of(mapped, loc)
        try:
            dev_mapped = env.translate(mapped_addr)
        except MappingError as exc:
            raise InterpError(str(exc), loc) from exc
        self._pending_kargs.append(np.uint64(dev_mapped - (mapped_addr - base_addr)))
        self._pending_hostargs.append(base)
        return 0

    def _ort_arg_val(self, machine, args, loc):
        """Queue a by-value scalar kernel argument (firstprivate-style:
        never enters the device data environment)."""
        _dev, value = args
        scope = self._shard
        if scope is not None:
            for k in scope.devices:
                scope.kargs[k].append(value)
            scope.hostargs.append(value)
            return 0
        self._pending_kargs.append(value)
        self._pending_hostargs.append(value)
        return 0

    def _ort_red_scalar(self, machine, args, loc):
        """Register one tree-mode reduction scalar for the next offload.

        The generated code calls this after the regular argument natives,
        once per reduction variable in kernel-parameter order, so a
        placeholder queued here lands exactly where the kernel's trailing
        ``__redp_<name>`` parameter expects its partials buffer; the
        buffer itself is allocated at launch time (the grid size — and
        with it the slot count — is not known yet) and patched in.  The
        sequential ``*_hostfn`` twin computes the whole reduction itself,
        so the host-argument twin stays a null pointer."""
        _dev, ptr, opcode, typecode = args
        addr = self._addr_of(ptr, loc)
        scope = self._shard
        if scope is not None:
            index = -1
            if not scope.failed and scope.devices:
                for k in scope.devices:
                    scope.kargs[k].append(np.uint64(0))
                index = len(scope.kargs[scope.devices[0]]) - 1
            scope.hostargs.append(np.uint64(0))
        else:
            self._pending_kargs.append(np.uint64(0))
            self._pending_hostargs.append(np.uint64(0))
            index = len(self._pending_kargs) - 1
        self._pending_reds.append((index, addr, int(opcode), int(typecode)))
        return 0

    def _alloc_red_buffers(self, reds, nteams: int,
                           ranges: list[tuple[int, int, int]]) -> list[dict]:
        """One device partials buffer per (reduction, participating
        device): ``nteams`` slots indexed by *global* team id, of which a
        device owns only its ``[blo, bhi)`` block range.  Returns the
        combine records ``ort_red_end`` will fold; the caller patches the
        buffer addresses into the pending kernel arguments."""
        records: list[dict] = []
        for index, addr, opcode, typecode in reds:
            dtype = dtype_of(typecode)
            chunks: list[tuple[int, int, int, int]] = []
            for k, blo, bhi in ranges:
                buf = self.devices[k].mem_alloc(nteams * dtype.itemsize)
                chunks.append((k, blo, bhi, buf))
            records.append({"index": index, "addr": addr, "opcode": opcode,
                            "dtype": dtype, "nteams": nteams,
                            "chunks": chunks})
        return records

    def _cancel_reductions(self, records: list[dict]) -> None:
        """Drop launched-reduction state after a host fallback: the
        ``*_hostfn`` computed the full reduction into host memory, so the
        partials must not be folded on top of it."""
        for rec in records:
            for k, _blo, _bhi, buf in rec["chunks"]:
                try:
                    self.devices[k].mem_free(buf)
                except (DeviceLost, CudaError):
                    pass

    def _ort_red_end(self, machine, args, loc):
        """The cross-team combine, performed on copy-back: gather every
        launched reduction's partials (each global team slot read from the
        device that owned that block range), fold them in ascending team
        order onto the variable's incoming host value, and store the
        result.  The fold order is a pure function of the grid — never of
        warp scheduling, device count or shard boundaries — so the result
        is bit-identical to the sequential loop.  A device lost *after*
        its launch succeeded leaves the host value authoritative, exactly
        like the map copy-back path."""
        records = self._active_reds
        self._active_reds = []
        for rec in records:
            dtype = rec["dtype"]
            nbytes = rec["nteams"] * dtype.itemsize
            partials = np.zeros(rec["nteams"], dtype=dtype)
            ok = True
            for k, blo, bhi, buf in rec["chunks"]:
                module = self.devices[k]
                try:
                    data = module._with_retries(
                        "cuMemcpyDtoH",
                        lambda a=buf: module.driver.cuMemcpyDtoH(a, nbytes))
                    if ok and bhi > blo:
                        partials[blo:bhi] = np.frombuffer(
                            data, dtype=dtype)[blo:bhi]
                except (DeviceLost, CudaError) as exc:
                    ok = False
                    module.faultlog.note(
                        "fallback", api="ort_red_end",
                        detail="device lost before the cross-team combine: "
                               f"host value kept ({exc})")
                try:
                    module.mem_free(buf)
                except (DeviceLost, CudaError):
                    pass
            if not ok:
                continue
            view = machine.heap.view(rec["addr"], dtype.itemsize, np.uint8)
            initial = np.frombuffer(view.tobytes(), dtype=dtype)[0]
            result = fold_partials(rec["opcode"], initial, partials, dtype)
            view[:] = np.frombuffer(
                np.asarray([result], dtype=dtype).tobytes(), dtype=np.uint8)
        return 0

    def _ort_offload(self, machine, args, loc):
        dev, name_ptr, gx, gy, gz, bx, by, bz = args
        if self._shard is not None:
            return self._shard_offload(machine, args, loc)
        requested = int(dev)
        if requested < 0:
            requested = self.icvs.default_device_var
        dev = self._resolve_device(requested, loc)
        name = machine.read_cstring(name_ptr)
        kargs = self._pending_kargs
        hostargs = self._pending_hostargs
        reds = self._pending_reds
        self._pending_kargs = []
        self._pending_hostargs = []
        self._pending_reds = []
        teams = (max(int(gx), 1), max(int(gy), 1), max(int(gz), 1))
        threads = (max(int(bx), 1), max(int(by), 1), max(int(bz), 1))
        if dev >= self.initial_device:
            if 0 <= requested < self.initial_device:
                # region targeted a lost device: record the reroute so the
                # degradation is visible in the profile/fault log
                self.devices[requested].faultlog.note(
                    "fallback", api=name,
                    detail=f"device lost: target region {name!r} -> host")
            # the hostfn computes any reductions in full: reds dropped
            self.host_device.offload(name, hostargs, teams, threads)
            return 0
        module = self.devices[dev]
        task = self._task_stack[-1] if self._task_stack else None
        if task is not None and task.dead:
            return 0  # cancelled/failed deferred task: the body launches nothing
        red_records: list[dict] = []
        if reds:
            nteams_total = teams[0] * teams[1] * teams[2]
            try:
                red_records = self._alloc_red_buffers(
                    reds, nteams_total, [(dev, 0, nteams_total)])
            except (DeviceLost, CudaError) as exc:
                self._offload_failed(machine, exc, dev, name, hostargs,
                                     teams, threads, task, loc)
                return 0
            for rec in red_records:
                kargs[rec["index"]] = np.uint64(rec["chunks"][0][3])
        if self.ompt.active:
            self.ompt.dispatch("target_begin", device=dev, kernel=name,
                               teams=teams, threads=threads)
        try:
            module.offload(name, kargs, teams, threads)
        except (OffloadFailure, DeviceLost) as exc:
            self._cancel_reductions(red_records)
            self._offload_failed(machine, exc, dev, name, hostargs,
                                 teams, threads, task, loc)
        else:
            self._active_reds.extend(red_records)
        if self.ompt.active:
            self.ompt.dispatch("target_end", device=dev, kernel=name,
                               teams=teams, threads=threads)
        if isinstance(module, CudadevModule) and module.stdout:
            machine.stdout.extend(module.stdout)
            module.stdout.clear()
        return 0

    def _offload_failed(self, machine, exc, dev: int, name: str,
                        hostargs: list, teams, threads, task, loc) -> None:
        """A kernel offload failed beyond the module's recovery budget.

        Inside a deferred (``nowait``) task there is no inline fallback:
        the task is marked failed, its dependents cancel, and the error
        surfaces at the joining ``taskwait``.  Synchronous regions fall
        back to the registered ``*_hostfn`` on the initial device; when
        the device itself is still healthy (a launch-only failure) the
        mapped data is then resynced host -> device so later regions and
        the eventual copy-back observe the host-computed values."""
        module = self.devices[dev]
        if task is not None:
            self.scheduler_for(task.device).fail_task(task, exc)
            return
        if not self.recovery.host_fallback:
            raise InterpError(str(exc), loc) from exc
        lost = getattr(exc, "device_lost", False) or isinstance(exc, DeviceLost)
        cause = getattr(exc, "cause", exc)
        module.faultlog.note(
            "fallback", api=name,
            fault=getattr(getattr(cause, "result", None), "name", ""),
            detail=f"target region {name!r} -> host ({cause})")
        self.host_device.offload(name, hostargs, teams, threads)
        if not lost:
            self._resync_device(dev, hostargs)

    def _resync_device(self, dev: int, hostargs: list) -> None:
        """After a host-fallback on a *healthy* device, push the host
        values of every mapped argument back to the device copy, keeping
        the data environment coherent (the later ``map_exit`` copy-back
        must return exactly what the fallback computed).

        Buffers whose device copy already holds the host bytes (read-only
        inputs of the fallen-back region, typically the big ``to`` maps)
        are skipped via the same sha256 digest gate the serving runtime
        uses for warm remaps — the simulator reads the device bytes back
        at zero modelled cost, so the digest only spends host wall-clock,
        and a skipped buffer elides the whole modelled HtoD transfer."""
        from repro.mem import content_digest

        module = self.devices[dev]
        env = self.dataenvs[dev]
        synced: set[int] = set()
        try:
            for arg in hostargs:
                if not isinstance(arg, Ptr):
                    continue
                entry = env.find(arg.addr)
                if entry is None or entry.host_addr in synced:
                    continue
                synced.add(entry.host_addr)
                host_bytes = module.host_mem.copy_out(entry.host_addr,
                                                      entry.size)
                dev_bytes = module.driver.gmem.copy_out(entry.dev_addr,
                                                        entry.size)
                if content_digest(host_bytes) == content_digest(dev_bytes):
                    module.faultlog.note(
                        "resync_skip", api="resync", nbytes=entry.size,
                        detail=f"device copy of {entry.size} bytes at "
                               f"{entry.host_addr:#x} unchanged")
                    continue
                module.write(entry.dev_addr, entry.host_addr, entry.size)
        except (DeviceLost, CudaError) as exc:
            # resync impossible: treat the device as lost so no later
            # operation trusts the (now stale) device copies
            module._mark_lost(exc)

    # -- deferred offload tasks (target nowait / depend) -------------------------
    def scheduler_for(self, dev: int) -> StreamPoolScheduler:
        """Device ``dev``'s stream-pool task scheduler, created on first
        deferred task targeting that device (each device has its own
        stream pool; tasks on different devices run on disjoint pools)."""
        sched = self._schedulers.get(dev)
        if sched is None:
            module = self.devices[dev]
            module.initialize()
            sched = StreamPoolScheduler(module.driver)
            self._schedulers[dev] = sched
        return sched

    @property
    def scheduler(self) -> StreamPoolScheduler:
        """Device 0's task scheduler (single-device programs)."""
        return self.scheduler_for(0)

    def _ort_task_dep(self, machine, args, loc):
        _dev, ptr, code = args
        code = int(code)
        if code not in (DEP_IN, DEP_OUT, DEP_INOUT):
            raise InterpError(f"unknown dependence type code {code}", loc)
        addr = ptr.addr if isinstance(ptr, Ptr) else int(ptr)
        self._pending_deps.append((code, addr))
        return 0

    def _ort_task_begin(self, machine, args, loc):
        dev = self._resolve_device(int(args[0]), loc)
        deps = self._pending_deps
        self._pending_deps = []
        if dev < self.initial_device:
            try:
                scheduler = self.scheduler_for(dev)
            except DeviceLost:
                dev = self.initial_device  # device died at first task: host route
        if dev >= self.initial_device:
            # host-device fallback: the "task" runs synchronously inline
            self._task_stack.append(None)
            return 0
        self._task_count += 1
        task = scheduler.begin_task(f"offload_task{self._task_count}", deps)
        task.device = dev
        self._task_stack.append(task)
        # a task cancelled at creation (failed predecessor) has no stream;
        # its body still runs through the natives but launches nothing
        self.devices[dev].current_stream = task.stream
        return 0

    def _ort_task_end(self, machine, args, loc):
        _dev, blocking = args
        if not self._task_stack:
            raise InterpError("ort_task_end without a matching ort_task_begin",
                              loc)
        task = self._task_stack.pop()
        if task is None:
            return 0
        # restore the nearest enclosing deferred task *on the same device*
        # (tasks targeting different devices nest independently)
        enclosing = next(
            (t for t in reversed(self._task_stack)
             if t is not None and t.device == task.device), None)
        self.devices[task.device].current_stream = (
            enclosing.stream if enclosing is not None else None)
        scheduler = self.scheduler_for(task.device)
        scheduler.end_task(task)
        if int(blocking):
            # depend() without nowait: an undeferred task — the host blocks
            # on this task's completion but the graph edges still held
            scheduler.sync_task(task)
        return 0

    def _ort_taskwait(self, machine, args, loc):
        try:
            self.taskwait()
        except OffloadTaskError as exc:
            raise InterpError(str(exc), loc) from exc
        return 0

    def taskwait(self) -> None:
        """Join the offload task graph on *every* device (``taskwait``,
        barriers, and the implicit join at program exit).  Raises
        :class:`~repro.rt_async.taskgraph.OffloadTaskError` collecting the
        failures across all devices (their dependents were cancelled)."""
        failed: list = []
        cancelled = 0
        for sched in self._schedulers.values():
            try:
                sched.taskwait()
            except OffloadTaskError as exc:
                failed.extend(exc.failed)
                cancelled += exc.cancelled
        if failed:
            raise OffloadTaskError(failed, cancelled)

    def shutdown(self) -> None:
        """Deterministic teardown for a leased/long-lived registry: join
        the task graph, then destroy every pool stream and done-event this
        Ort created on the shared drivers.  A standalone one-shot run can
        skip this (the driver dies with the process); a serving runtime
        must call it per request or handles accumulate in the drivers'
        stream/event tables across thousands of requests."""
        try:
            self.taskwait()
        finally:
            for sched in self._schedulers.values():
                sched.shutdown()
            self._schedulers.clear()

    # -- multi-device sharding (shard clause) -------------------------------------
    def _ort_shard_begin(self, machine, args, loc):
        """Open a ``shard(n)`` region: pick the first ``n`` healthy devices
        (``n <= 0``: all of them), route each one's module operations onto
        its dedicated shard stream so per-device work overlaps, and start
        replicating maps.  An empty device set degrades the whole region to
        the host path (identity maps + host execution)."""
        if self._shard is not None:
            raise InterpError("nested shard regions are not supported", loc)
        if self._task_stack:
            raise InterpError(
                "shard cannot appear inside a deferred target task", loc)
        n = int(args[0])
        healthy = [k for k, m in enumerate(self.devices)
                   if not getattr(m, "lost", False)
                   and (self.healthy_fn is None or self.healthy_fn(k))]
        if not healthy and self.healthy_fn is not None:
            # every device is breaker-barred but not lost: better to run
            # the region on barred devices than to host-degrade it
            healthy = [k for k, m in enumerate(self.devices)
                       if not getattr(m, "lost", False)]
        if n > 0:
            healthy = healthy[:n]
        devs: list[int] = []
        for k in healthy:
            module = self.devices[k]
            try:
                module.initialize()
                module.current_stream = module.shard_stream
            except DeviceLost:
                continue
            devs.append(k)
        self._shard = _ShardScope(devs)
        return 0

    def _ort_shard_end(self, machine, args, loc):
        """Close the shard region: block until every participating
        device's shard stream drains (the host clock advances to the
        slowest shard — this is the join) and restore synchronous
        default-stream routing."""
        scope = self._shard
        if scope is None:
            raise InterpError(
                "ort_shard_end without a matching ort_shard_begin", loc)
        self._shard = None
        for k in scope.devices:
            module = self.devices[k]
            module.current_stream = None
            if module.lost:
                continue
            try:
                module.driver.cuStreamSynchronize(module.shard_stream)
            except CudaError:
                pass
        return 0

    def _shard_map(self, ptr, size: int, map_type: int, loc) -> int:
        """Replicate one map on every shard device, snapshotting each
        device's mapped bytes as the baseline the copy-back diff-merge
        compares against."""
        scope = self._shard
        addr = self._addr_of(ptr, loc)
        if scope.failed:
            return 0  # host route: identity mapping
        scope.sizes[addr] = size
        for k in scope.devices:
            module = self.devices[k]
            env = self.dataenvs[k]
            try:
                fresh = env.find(addr) is None
                entry = env.map_enter(addr, size, map_type)
                if fresh and map_type not in (MAP_TO, MAP_TOFROM):
                    # from/alloc: seed the device copy with the host bytes
                    # so the baseline is defined and positions the kernel
                    # leaves untouched merge back unchanged
                    module.write(entry.dev_addr + (addr - entry.host_addr),
                                 addr, size)
                scope.baselines[(k, addr)] = np.frombuffer(
                    module.driver.gmem.copy_out(env.translate(addr), size),
                    dtype=np.uint8)
            except MappingError as exc:
                raise InterpError(str(exc), loc) from exc
            except DeviceLost:
                scope.failed = True  # device died mid-setup: host route
                return 0
        return 0

    def _shard_unmap(self, ptr, map_type: int, loc) -> int:
        """Join one mapping across the shard devices.  For ``from`` /
        ``tofrom`` exits the merge reads each device's copy, diffs it
        against the launch-time baseline, and scatters only the changed
        bytes into host memory — shards write disjoint slices of the
        iteration space, so the diffs never conflict.  Every device then
        drops its reference without the single-device copy-back (the merge
        already produced the result), and a copy that survives under an
        enclosing ``target data`` is resynced from the merged host bytes."""
        scope = self._shard
        addr = self._addr_of(ptr, loc)
        size = scope.sizes.get(addr, 0)
        merge = (not scope.failed and size > 0
                 and map_type in (MAP_FROM, MAP_TOFROM))
        if merge:
            host_view = self.machine.heap.view(addr, size, np.uint8)
            for k in scope.devices:
                module = self.devices[k]
                env = self.dataenvs[k]
                if module.lost or env.find(addr) is None:
                    continue
                try:
                    dev_addr = env.translate(addr)
                    data = module._with_retries(
                        "cuMemcpyDtoHAsync",
                        lambda: module.driver.cuMemcpyDtoHAsync(
                            dev_addr, size, module.shard_stream))
                except (DeviceLost, CudaError):
                    continue  # lost shard: its slice keeps the host values
                dev_bytes = np.frombuffer(data, dtype=np.uint8)
                baseline = scope.baselines.get((k, addr))
                if baseline is None:
                    host_view[:] = dev_bytes
                else:
                    changed = dev_bytes != baseline
                    host_view[changed] = dev_bytes[changed]
        exit_type = MAP_DELETE if map_type == MAP_DELETE else MAP_RELEASE
        for k in scope.devices:
            module = self.devices[k]
            env = self.dataenvs[k]
            scope.baselines.pop((k, addr), None)
            if env.find(addr) is None:
                continue
            try:
                env.map_exit(addr, exit_type)
                survivor = env.find(addr)
                if survivor is not None and merge:
                    # an enclosing target data still holds this mapping:
                    # its device copy must observe the merged result
                    module.write(
                        survivor.dev_addr + (addr - survivor.host_addr),
                        addr, size)
            except (DeviceLost, CudaError):
                continue
            except MappingError as exc:
                raise InterpError(str(exc), loc) from exc
        return 0

    def _plan_shard_ranges(self, total_blocks: int,
                           devices: list[int]) -> list[tuple[int, int]]:
        """Contiguous per-device block ranges for one sharded launch.

        A mixed registry weighs each device by its measured throughput
        (calibrated hint until the first kernel completes, observed
        blocks/modelled-second after).  A homogeneous registry keeps the
        legacy ceil split, so shard boundaries — and therefore every
        byte of the merge — are unchanged."""
        from repro.devices.throughput import (
            equal_split, plan_shards, registry_weights,
        )
        names = {getattr(self.devices[k].backend, "name", None)
                 for k in devices}
        if len(names) < 2:
            # observed rates on identical devices drift a little (fixed
            # overheads amortise differently across shard sizes) and
            # must not move legacy boundaries
            return equal_split(total_blocks, len(devices))
        weights = registry_weights(
            [self.devices[k].throughput for k in devices])
        return plan_shards(total_blocks, weights)

    def _shard_offload(self, machine, args, loc) -> int:
        """Launch one ``target teams distribute`` region as per-device
        shards: the linear team-block range is split contiguously, each
        device launches its slice with the *global* grid dimensions (the
        device runtime computes team chunks from global block ids), on its
        own shard stream.  A failed shard degrades the whole region to the
        host fallback — partial device results are discarded by the merge."""
        _dev, name_ptr, gx, gy, gz, bx, by, bz = args
        scope = self._shard
        name = machine.read_cstring(name_ptr)
        kargs = scope.kargs
        hostargs = scope.hostargs
        reds = self._pending_reds
        scope.kargs = {k: [] for k in scope.devices}
        scope.hostargs = []
        self._pending_reds = []
        teams = (max(int(gx), 1), max(int(gy), 1), max(int(gz), 1))
        threads = (max(int(bx), 1), max(int(by), 1), max(int(bz), 1))
        red_records: list[dict] = []
        if not scope.failed:
            total_blocks = teams[0] * teams[1] * teams[2]
            ranges = self._plan_shard_ranges(total_blocks, scope.devices)
            if reds:
                # per-device partials buffers sized for the *global* grid:
                # each device fills only its own block range's slots, and
                # the combine gathers every slot from its owning device
                try:
                    red_records = self._alloc_red_buffers(
                        reds, total_blocks,
                        [(k, ranges[i][0], ranges[i][1])
                         for i, k in enumerate(scope.devices)])
                    for rec in red_records:
                        for k, _blo, _bhi, buf in rec["chunks"]:
                            kargs[k][rec["index"]] = np.uint64(buf)
                except (DeviceLost, CudaError) as exc:
                    scope.failed = True
                    self._cancel_reductions(red_records)
                    red_records = []
                    self.cudadev.faultlog.note(
                        "fallback", api=name,
                        detail=f"shard reduction setup failed: target "
                               f"region {name!r} -> host ({exc})")
        if not scope.failed:
            for i, k in enumerate(scope.devices):
                blo, bhi = ranges[i]
                if blo >= bhi:
                    continue
                module = self.devices[k]
                if self.ompt.active:
                    self.ompt.dispatch("target_begin", device=k, kernel=name,
                                       teams=teams, threads=threads)
                try:
                    module.offload(name, kargs[k], teams, threads,
                                   block_range=(blo, bhi))
                except (OffloadFailure, DeviceLost) as exc:
                    scope.failed = True
                    module.faultlog.note(
                        "fallback", api=name,
                        detail=f"shard launch failed: target region "
                               f"{name!r} -> host ({exc})")
                finally:
                    if self.ompt.active:
                        self.ompt.dispatch("target_end", device=k,
                                           kernel=name, teams=teams,
                                           threads=threads)
                if module.stdout:
                    machine.stdout.extend(module.stdout)
                    module.stdout.clear()
                if scope.failed:
                    break
        if scope.failed:
            # the hostfn computes any reductions in full — never fold
            # device partials on top of its result
            self._cancel_reductions(red_records)
            if not self.recovery.host_fallback:
                raise InterpError(
                    f"sharded target region {name!r} failed and host "
                    "fallback is disabled", loc)
            self.host_device.offload(name, hostargs, teams, threads)
        else:
            self._active_reds.extend(red_records)
        return 0

    # -- host parallel natives ----------------------------------------------------
    def _ort_parg(self, machine, args, loc):
        self._pending_pargs.append(args[0])
        return 0

    def _ort_execute_parallel(self, machine, args, loc):
        name_ptr, nthreads = args
        name = machine.read_cstring(name_ptr)
        pargs = self._pending_pargs
        self._pending_pargs = []
        self.teams.run_parallel(machine, name, pargs, int(nthreads))
        return 0

    def _ort_for_bounds(self, machine, args, loc):
        lo, hi, tlo_ptr, thi_ptr = args
        tlo, thi = self.teams.static_bounds(int(lo), int(hi))
        machine.store_value(tlo_ptr.mem, tlo_ptr.addr, tlo_ptr.ctype, tlo)
        machine.store_value(thi_ptr.mem, thi_ptr.addr, thi_ptr.ctype, thi)
        return 0

    def _ort_host_barrier(self, machine, args, loc):
        if self.teams.current is not None:
            raise HostTeamError(
                "barrier inside a host parallel region is not supported by "
                "the sequential host-team simulation (see hostrt.team)"
            )
        # a barrier is an implicit taskwait: deferred offloads must complete
        try:
            self.taskwait()
        except OffloadTaskError as exc:
            raise InterpError(str(exc), loc) from exc
        return 0

    # -- declare target globals ---------------------------------------------------
    def bind_declare_target(self, name: str, host_addr: int, size: int,
                            kernel_name: str) -> None:
        """Give a ``declare target`` variable its device residence: force
        the owning kernel module to load, register a permanent data-
        environment entry (host global <-> module device global) and copy
        the host initial value in.  One owning module per global — OMPi
        links kernel files separately, so a declare-target variable shared
        by several kernel files would need a cross-module linker step this
        reproduction does not model (documented limitation)."""
        try:
            self.cudadev.initialize()
            fn = self.cudadev._loading_phase(kernel_name)
            dev_addr, dev_size = self.cudadev.driver.cuModuleGetGlobal(
                fn.module_handle, name)
        except DeviceLost:
            # device gone: the host global is the only copy, and every
            # target region runs on the host anyway (identity mapping)
            return
        if dev_size < size:
            raise InterpError(
                f"device global {name!r} smaller than host object")
        # the entry holds a permanent device address into this module, so
        # OOM eviction must never unload it
        self.cudadev.pin_module(kernel_name)
        env = self.dataenvs[0]
        from repro.hostrt.mapping import MapEntry
        env.entries[host_addr] = MapEntry(host_addr, size, dev_addr,
                                          refcount=1 << 30)
        try:
            self.cudadev.write(dev_addr, host_addr, size)
        except DeviceLost:
            del env.entries[host_addr]  # host copy is the only copy now

    # -- host omp API ----------------------------------------------------------------
    def _omp_set_default_device(self, machine, args, loc):
        self.icvs.default_device_var = int(args[0])
        return 0

    def _omp_set_num_threads(self, machine, args, loc):
        self.icvs.nthreads_var = max(1, int(args[0]))
        self.teams.default_nthreads = self.icvs.nthreads_var
        return 0
