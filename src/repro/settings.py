"""Every ``REPRO_*`` environment variable, read in one place.

OMPi has one configure step, and an OpenMP runtime reads its ICVs from
the environment once, before any construct runs.  This module is the
reproduction's equivalent.  :data:`VARIABLES` names each variable and
its parser, :class:`Settings` holds the defaults, and
:meth:`Settings.from_env` reads them all; a bad value raises
``ValueError`` naming the variable.  An unset or empty variable keeps
its default.

Root objects resolve their settings when they are built —
``CompiledProgram.run``, ``OffloadServer``, ``Machine``, ``CudaDriver``
and ``ompicc`` — and hand plain values down.  Nothing
reads the environment at import, per launch, per shard plan or per
request.

The precedence rule is written once, in :meth:`Settings.overlay`: an
explicit call argument, then the ``OmpiConfig`` field, then the
environment, then the default.  The device registry is resolved as a
pair: a ``devices`` spec, then ``num_devices``, then ``REPRO_DEVICES``,
then ``REPRO_NUM_DEVICES``, then one device; an explicit ``device=``
profile suppresses ``REPRO_DEVICES``.

The module imports nothing from ``repro``, so every layer can use it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Optional

#: execution modes of the kernel and host fast paths
MODES = ("on", "off", "verify")

#: spellings that switch an optional feature off
OFF = ("", "off", "none", "0", "false", "no")


def first(*values):
    """The first value that is not None (the precedence primitive)."""
    return next((v for v in values if v is not None), None)


def parse_mode(text: str) -> str:
    mode = str(text).strip().lower()
    if mode not in MODES:
        raise ValueError(f"must be one of {MODES}, got {text!r}")
    return mode


def parse_count(text) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def parse_deadline(spec) -> Optional[float]:
    """A per-request deadline budget in modelled seconds, or None for no
    deadline: ``None``/``False``, the :data:`OFF` spellings and
    non-positive numbers disable; anything else is a float."""
    if spec is None or spec is False:
        return None
    if isinstance(spec, str):
        spec = spec.strip().lower()
        if spec in OFF:
            return None
    budget = float(spec)
    return budget if budget > 0.0 else None


#: field -> (environment variable, parser of its non-empty text)
VARIABLES: dict[str, tuple[str, Callable[[str], object]]] = {
    "kernel_fastpath": ("REPRO_KERNEL_FASTPATH", parse_mode),
    "host_fastpath": ("REPRO_HOST_FASTPATH", parse_mode),
    "profile": ("REPRO_PROFILE", str),
    "faults": ("REPRO_FAULTS", str),
    "faults_log": ("REPRO_FAULTS_LOG", str),
    "num_devices": ("REPRO_NUM_DEVICES", parse_count),
    "devices": ("REPRO_DEVICES", str.strip),
    "sample_blocks": ("REPRO_SAMPLE_BLOCKS", int),
    "cache_dir": ("REPRO_CACHE_DIR", str),
    "cuda_cache_dir": ("REPRO_CUDA_CACHE_DIR", str),
    "serve_deadline": ("REPRO_SERVE_DEADLINE", parse_deadline),
    "breaker": ("REPRO_BREAKER", str),
}


@dataclass(frozen=True)
class Settings:
    """One value per variable of :data:`VARIABLES`, defaults as shown.

    After :meth:`overlay` a field may also hold whatever its explicit
    argument or config field held (a recorder, a fault plan, a breaker
    policy); the owning layer's ``resolve_*`` helper parses it."""

    #: closure-compiled kernel execution: 'on', 'off' or 'verify'
    kernel_fastpath: str = "on"
    #: closure-compiled host execution: 'on', 'off' or 'verify'
    host_fastpath: str = "on"
    #: activity profiling: '1'/'on', '0'/'off', or a Chrome-trace path
    profile: Optional[str] = None
    #: fault-injection spec: a preset or 'kind@api:key=val,...' rules
    faults: Optional[str] = None
    #: JSON-lines sink for fault and recovery events
    faults_log: Optional[str] = None
    #: size of the homogeneous device registry
    num_devices: Optional[int] = 1
    #: heterogeneous registry spec, e.g. 'nano,v100'
    devices: Optional[str] = None
    #: representative blocks per sampled launch (<=1: the middle block;
    #: 2: first and last; 3 or more: first, middle and last)
    sample_blocks: int = 3
    #: root of the persistent compile cache (library: none when unset)
    cache_dir: Optional[str] = None
    #: directory of the PTX JIT's cubin cache
    cuda_cache_dir: str = "~/.repro_nv/ComputeCache"
    #: default per-request deadline budget of the offload server
    serve_deadline: Optional[float] = None
    #: circuit-breaker policy: 'on', 'off' or 'key=val,...' options
    breaker: Optional[str] = None

    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        checks: Optional[Mapping[str, Callable]] = None,
    ) -> "Settings":
        """Read every variable from ``environ`` (the process environment
        by default).  ``checks`` maps a field to a parser this module
        cannot import (device names, fault rules, breaker options); its
        verdict is enforced here, so the error still names the
        variable."""
        environ = os.environ if environ is None else environ
        checks = checks or {}
        values = {}
        for name, (var, parse) in VARIABLES.items():
            text = environ.get(var, "")
            if not text.strip():
                continue
            try:
                values[name] = parse(text)
                if name in checks:
                    checks[name](values[name])
            except ValueError as exc:
                raise ValueError(f"{var}={text!r}: {exc}") from exc
        return cls(**values)

    def overlay(self, config=None, device_given: bool = False,
                **explicit) -> "Settings":
        """These settings under the one precedence rule: an explicit
        (non-None) keyword argument, then the ``config`` field of the
        same name, then this value.

        The registry pair resolves together: a ``devices`` spec beats
        ``num_devices`` at every level, and this ``devices`` value
        applies only when neither was chosen and no explicit ``device=``
        profile was given (``device_given``).  With a spec chosen,
        ``num_devices`` is None."""
        names = {f.name for f in fields(self)}
        unknown = set(explicit) - names
        if unknown:
            raise TypeError(f"unknown settings {sorted(unknown)}")

        def chosen(name):
            return first(explicit.get(name), getattr(config, name, None))

        values = {name: first(chosen(name), getattr(self, name))
                  for name in names}
        spec, count = chosen("devices"), chosen("num_devices")
        if spec is None and count is None and not device_given:
            spec = self.devices
        values["devices"] = spec
        values["num_devices"] = (None if spec is not None
                                 else first(count, self.num_devices))
        return replace(self, **values)
