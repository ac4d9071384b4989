"""Named backends and heterogeneous-registry resolution.

``BACKENDS`` maps the stable public names (CLI ``--devices``, the
``REPRO_DEVICES`` environment variable, the serving API) to their
:class:`~repro.devices.backend.DeviceBackend`.  A *registry spec* is a
comma-separated list of those names — ``"nano,v100"`` builds a
two-device registry whose ``device(0)`` is a Jetson Nano and
``device(1)`` a V100.  :func:`resolve_registry` turns resolved
:class:`~repro.settings.Settings` into the registry a root builds.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.cuda.device import (
    JETSON_NANO_4GB_GPU, JETSON_NANO_GPU, JETSON_TX2_GPU, TESLA_V100_GPU,
)
from repro.devices.backend import DeviceBackend, XformSet, make_backend


class UnknownBackendError(ValueError):
    """A registry spec named a backend that does not exist."""


_NANO = make_backend(
    "nano", JETSON_NANO_GPU,
    description="Jetson Nano 2GB (Maxwell sm_53, 1 SM, shared LPDDR4)")

BACKENDS: dict[str, DeviceBackend] = {
    "nano": _NANO,
    # alias kept aligned with the CLI's historical --device choices
    "nano2gb": _NANO,
    "nano4gb": make_backend(
        "nano4gb", JETSON_NANO_4GB_GPU,
        description="Jetson Nano 4GB (same GPU, more DRAM)"),
    "tx2": make_backend(
        "tx2", JETSON_TX2_GPU,
        description="Jetson TX2 (Pascal sm_62, 2 SMs)"),
    "v100": make_backend(
        "v100", TESLA_V100_GPU,
        # a Volta SM runs 64 resident warps; 256-thread blocks keep more
        # of them resident per block without starving the 80-SM spread
        xform=XformSet(arch="sm_70", default_num_threads=256),
        description="Tesla V100 (Volta sm_70, 80 SMs, HBM2)"),
}

#: spec grammar accepted by parse_devices / REPRO_DEVICES / --devices
SPEC_HELP = ",".join(sorted(set(b.name for b in BACKENDS.values())))


def get_backend(name: str) -> DeviceBackend:
    """The backend registered under ``name`` (case-insensitive)."""
    backend = BACKENDS.get(str(name).strip().lower())
    if backend is None:
        raise UnknownBackendError(
            f"unknown device backend {name!r} (known backends: "
            + ", ".join(sorted(BACKENDS)) + ")")
    return backend


def parse_devices(
    spec: Union[str, Sequence[Union[str, DeviceBackend]]],
) -> list[DeviceBackend]:
    """A registry spec -> backend list.

    Accepts a comma-separated string (``"nano,v100"``), or a sequence of
    names and/or :class:`DeviceBackend` instances.  The empty spec is an
    error — a registry cannot have zero devices.
    """
    if isinstance(spec, str):
        items: Sequence = [s for s in spec.split(",") if s.strip()]
    else:
        items = list(spec)
    if not items:
        raise UnknownBackendError(f"empty device registry spec {spec!r}")
    out: list[DeviceBackend] = []
    for item in items:
        if isinstance(item, DeviceBackend):
            out.append(item)
        else:
            out.append(get_backend(item))
    return out


def resolve_registry(settings) -> tuple[Optional[list[DeviceBackend]], int]:
    """``(backends, count)`` for :meth:`Settings.overlay
    <repro.settings.Settings.overlay>`-resolved settings: the parsed
    backends when a ``devices`` spec won, else None and the homogeneous
    device count (None keeps the classic single-profile path
    byte-for-byte unchanged when nobody asked for mixed backends)."""
    if settings.devices is not None:
        backends = parse_devices(settings.devices)
        return backends, len(backends)
    count = int(settings.num_devices)
    if count < 1:
        raise ValueError(f"num_devices must be >= 1, got {count}")
    return None, count
