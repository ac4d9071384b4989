"""One offload backend = device profile + timing calibration + xform set.

A :class:`DeviceBackend` is everything the compiler and runtime need to
know about one *kind* of device:

* the hardware profile (:class:`~repro.cuda.device.DeviceProperties`) the
  driver simulates and the timing model reads;
* the per-arch timing calibration
  (:class:`~repro.timing.calibration.ArchCalibration`);
* the per-arch **transformation set** (:class:`XformSet`): the codegen
  parameters the CUDA kernel builder specialises per target — cubin
  architecture and the block-geometry rules of paper §4.2.2/§5.  The
  paper fixes 128 threads per block "matching the 128 cores of the
  Nano's single SM"; a Volta SM wants more resident warps, so the V100
  set widens the default.

Backends are immutable and shared; per-device *state* (driver, data
environment, observed throughput) lives in the runtime modules that
reference them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.cuda.device import DeviceProperties
from repro.timing.calibration import ArchCalibration, calibration_for

if TYPE_CHECKING:  # repro.ompi imports the runtime; keep this leaf-light
    from repro.ompi.config import OmpiConfig


@dataclass(frozen=True)
class XformSet:
    """Per-arch parameters of the CUDA transformation set.

    These are the :class:`~repro.ompi.config.OmpiConfig` fields of the
    compile-cache fingerprint that depend on the backend (the binary and
    reduction modes do not): two backends with different sets can never
    share a compiled image, and the cache keys keep them apart by
    construction.
    """

    arch: str = "sm_53"
    default_num_threads: int = 128
    block_shape: Optional[tuple[int, int, int]] = None


@dataclass(frozen=True)
class DeviceBackend:
    """A named, fully described offload target."""

    name: str
    props: DeviceProperties
    xform: XformSet
    calibration: ArchCalibration
    description: str = ""

    @property
    def arch(self) -> str:
        return self.props.arch

    def specialize(self, config: "OmpiConfig") -> "OmpiConfig":
        """The config with this backend's transformation set applied —
        what the CLI/bench compile with when the (primary) target is
        this backend.  Runtime knobs pass through untouched."""
        return replace(config,
                       arch=self.xform.arch,
                       default_num_threads=self.xform.default_num_threads,
                       block_shape=(config.block_shape
                                    if config.block_shape is not None
                                    else self.xform.block_shape))

    def calibrated_throughput(self) -> float:
        """Relative compute-rate hint (arbitrary units: core-cycles per
        second) seeding the shard planner before any kernel has run on
        the device; observed rates take over after the first launch."""
        p = self.props
        return float(p.multiprocessor_count * p.cores_per_mp
                     * p.clock_rate_khz * 1e3)


def make_backend(name: str, props: DeviceProperties,
                 xform: Optional[XformSet] = None,
                 description: str = "") -> DeviceBackend:
    """Build a backend with the arch-matched calibration (and an
    arch-matched default transformation set)."""
    if xform is None:
        xform = XformSet(arch=props.arch)
    return DeviceBackend(name=name, props=props, xform=xform,
                         calibration=calibration_for(props.compute_capability),
                         description=description)
