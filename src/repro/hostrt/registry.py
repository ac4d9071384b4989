"""The offload device registry, built in one place.

The cudadev host module discovers its devices once, at application
startup (paper §4.2.1).  :class:`DeviceRegistry` is that step; both
roots build one — ``CompiledProgram.run`` per run, ``OffloadServer``
once — and lease it to every :class:`~repro.hostrt.ort.Ort`.  A fault
spec shared by every device is re-seeded ``seed + k`` on device ``k``
so devices do not fail in lockstep; a ``{ordinal: spec}`` map and a
caller's :class:`~repro.faults.injector.FaultInjector` pass through.
"""

from __future__ import annotations

from typing import Optional

from repro.cuda.device import DeviceProperties, JETSON_NANO_GPU
from repro.cuda.driver import DEVICE_MEM_BASE
from repro.cuda.ptx.jit import JitCache
from repro.devices.registry import parse_devices, resolve_registry
from repro.faults.injector import FaultInjector, resolve_faults
from repro.hostrt.cudadev_host import CudadevModule
from repro.prof.activity import DeviceRecorder, resolve_profile
from repro.prof.ompt import OmptRegistry
from repro.settings import Settings
from repro.timing.clock import VirtualClock

#: checks of the environment variables whose grammar this layer owns
ENV_CHECKS = {"devices": parse_devices, "faults": resolve_faults}

#: address-space stride between per-device memory arenas (4 GiB: well
#: above any single device's capacity, so device pointers never collide
#: and the interpreter can attribute a raw address to its device)
DEVICE_MEM_STRIDE = 0x1_0000_0000


def resolve_settings(config=None, device: Optional[DeviceProperties] = None,
                     checks: Optional[dict] = None, **explicit) -> Settings:
    """The environment under the one precedence rule (see
    :meth:`Settings.overlay`), with the device-registry and fault
    grammars checked; ``checks`` adds a root's own."""
    return Settings.from_env(checks={**ENV_CHECKS, **(checks or {})}).overlay(
        config, device_given=device is not None, **explicit)


def device_faults(faults, k: int):
    """Device ``k``'s share of a fault spec (see module docstring)."""
    if isinstance(faults, dict):
        return faults.get(k)
    if k == 0:
        return faults
    inj = resolve_faults(faults)
    if inj is None or inj is faults:
        return faults
    return FaultInjector(inj.plan, seed=inj.seed + k)


class DeviceRegistry:
    """The offload devices ``0..n-1`` and the state they share."""

    def __init__(
        self,
        settings: Settings,
        device: Optional[DeviceProperties] = None,
        clock: Optional[VirtualClock] = None,
        jit_cache: Optional[JitCache] = None,
        launch_mode: str = "auto",
        recovery=None,
        ompt: Optional[dict] = None,
    ):
        #: the named backends of a heterogeneous registry (None: every
        #: device is the same ``device`` profile, the classic path)
        self.backends, count = resolve_registry(settings)
        self.clock = clock or VirtualClock()
        #: one shared activity ring for the whole registry; each module
        #: gets a per-device stamping view so the merged stream stays in
        #: emission order while every record remains attributable
        self.prof, self.prof_path = resolve_profile(settings.profile)
        #: OMPT-style tool callback registry, shared with every device
        #: module so callbacks see both runtime- and module-level events
        self.ompt = OmptRegistry()
        for event, fn in (ompt or {}).items():
            self.ompt.set_callback(event, fn)
        from repro.devrt import build_intrinsics
        intrinsics = build_intrinsics()
        backs = self.backends
        device = device or JETSON_NANO_GPU
        self.devices = [
            CudadevModule(
                backs[k].props if backs is not None else device,
                clock=self.clock, jit_cache=jit_cache,
                launch_mode=launch_mode, fastpath=settings.kernel_fastpath,
                profile=(DeviceRecorder(self.prof, k)
                         if self.prof is not None else False),
                faults=device_faults(settings.faults, k),
                recovery=recovery, ordinal=k, ompt=self.ompt,
                gmem_base=DEVICE_MEM_BASE + k * DEVICE_MEM_STRIDE,
                intrinsics=intrinsics,
                backend=backs[k] if backs is not None else None,
                settings=settings,
            )
            for k in range(count)
        ]
        for k, mod in enumerate(self.devices):
            mod.faultlog.device = k

    @property
    def fault_stats(self) -> dict:
        """Fault/recovery counters aggregated across every device's own
        fault domain (per-device breakdown: ``devices[k].fault_stats``)."""
        out: dict = {}
        for mod in self.devices:
            for op, count in mod.fault_stats.items():
                out[op] = out.get(op, 0) + count
        return out

    def write_trace(self, compile_cache=None) -> None:
        """Export the activity ring to the requested Chrome-trace path,
        naming each device track by its backend (no-op without one)."""
        if self.prof is None or not self.prof_path:
            return
        from repro.prof.chrome import write_chrome_trace
        names = ({k: b.name for k, b in enumerate(self.backends)}
                 if self.backends is not None else None)
        write_chrome_trace(self.prof, self.prof_path,
                           compile_cache=compile_cache, device_names=names)
