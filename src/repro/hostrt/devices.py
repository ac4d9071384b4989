"""Device-module interface and registry (paper §4.2).

"the runtime system of ompi is organized as a collection of modules, each
one implementing support for a particular device class ... Modules consist
of two parts: the host part and the device part.  The former enables the
host cpu to access any of the available module's devices through a fixed
interface and is loaded on demand as a plugin."

:class:`DeviceModule` is that fixed interface, implemented by the cudadev
module (:mod:`repro.hostrt.cudadev_host`).  The initial (host) device
needs no module: a region that runs there calls its ``*_hostfn`` directly
on host memory (``Ort._run_on_host``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class DeviceModule(ABC):
    """Fixed host-side interface every device module implements."""

    name: str = "device"

    @abstractmethod
    def initialize(self) -> None:
        """Full device initialisation (lazy: first offload only)."""

    @property
    @abstractmethod
    def initialized(self) -> bool: ...

    @abstractmethod
    def mem_alloc(self, size: int) -> int: ...

    @abstractmethod
    def mem_free(self, addr: int) -> None: ...

    @abstractmethod
    def write(self, dev_addr: int, host_addr: int, size: int) -> None:
        """Transfer host -> device."""

    @abstractmethod
    def read(self, host_addr: int, dev_addr: int, size: int) -> None:
        """Transfer device -> host."""

    @abstractmethod
    def offload(self, kernel_name: str, args: list, teams: tuple[int, int, int],
                threads: tuple[int, int, int]) -> None:
        """Launch an offloaded kernel with translated arguments."""

    @abstractmethod
    def register_kernel_image(self, kernel_name: str, image) -> None:
        """Make a compiled kernel file available to this device (OMPi keeps
        kernel binaries as separate files located at runtime, §3.3)."""

    def shutdown(self) -> None:  # pragma: no cover - optional
        pass
