"""Heterogeneous device-backend subsystem.

The paper's core contribution is *per-device transformation sets*: OMPi
carries, for each kind of offload target, the bundle of code
transformations, runtime modules and device knowledge needed to run the
same OpenMP source there.  This package makes that abstraction concrete
for the reproduction:

* :mod:`repro.devices.backend` — :class:`DeviceBackend` bundles a
  hardware profile (:class:`~repro.cuda.device.DeviceProperties`), the
  per-arch timing calibration, and the per-arch *transformation set*
  (the codegen knobs the CUDA kernel builder specialises on);
* :mod:`repro.devices.registry` — named backends (``nano``, ``nano4gb``,
  ``tx2``, ``v100``) and the registry a root builds from resolved
  settings (an explicit list, ``OmpiConfig(devices=...)``, the
  ``REPRO_DEVICES`` environment variable or ``ompicc --devices``);
* :mod:`repro.devices.throughput` — the shard planner: contiguous
  block-range apportionment weighted by per-device throughput
  (calibrated hint, refined by observed kernel rates), degrading to the
  classic equal split for uniform registries.
"""

from repro.devices.backend import DeviceBackend, XformSet
from repro.devices.registry import (
    BACKENDS, UnknownBackendError, get_backend, parse_devices,
    resolve_registry,
)
from repro.devices.throughput import (
    ThroughputTracker, plan_shards, registry_weights,
)

__all__ = [
    "BACKENDS",
    "DeviceBackend",
    "ThroughputTracker",
    "UnknownBackendError",
    "XformSet",
    "get_backend",
    "parse_devices",
    "plan_shards",
    "registry_weights",
    "resolve_registry",
]
