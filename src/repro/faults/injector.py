"""Deterministic fault injection for the simulated CUDA driver.

Every ``cu*`` entry point of :class:`repro.cuda.driver.CudaDriver` calls
:meth:`FaultInjector.check` *before any functional side effect*, so an
injected failure leaves driver state exactly as it was — a retry of the
same operation is clean, which is what makes transient faults recoverable
by replay.

The injector is seeded: for a fixed program (a fixed driver-call
sequence) the same plan + seed produces the same faults, so a chaos run
is reproducible and two equivalent executions (e.g. the kernel fast path
on vs off) inject identically.

Sticky rules model real CUDA *context poisoning*: once a sticky fault
fires, every subsequent call on the context fails with the same result
until ``cuDevicePrimaryCtxReset``.

:class:`FaultLog` is the shared record of everything fault-related — the
driver owns one even with no injector attached, because the *recovery*
machinery (retries, eviction, host fallback, task cancellation) reports
through it too.  Events go to three sinks: an in-memory list, the
profiler's activity ring (as :class:`repro.prof.activity.FaultActivity`
records, so chrome traces show degradation), and optionally a JSON-lines
file (``REPRO_FAULTS_LOG``, the chaos-CI artifact).
"""

from __future__ import annotations

import json
import os
import random
from fnmatch import fnmatch
from typing import Optional

from repro.cuda.errors import CudaError, CUresult
from repro.faults.plan import FaultPlan

#: APIs that still work on a poisoned context (real CUDA: device queries
#: and the primary-context reset itself do not require a healthy context)
POISON_EXEMPT = ("cuDevicePrimaryCtxReset", "cuDeviceGet", "cuDeviceGet*",
                 "cuDeviceComputeCapability", "cuDeviceTotalMem")


class FaultLog:
    """Counters + event list for injected faults and recovery actions."""

    #: default size cap for the jsonl sink (one rotated generation is
    #: kept, so peak disk use is ~2x this)
    MAX_LOG_BYTES = 4 * 1024 * 1024

    def __init__(self, clock=None, recorder=None, path: Optional[str] = None,
                 max_bytes: Optional[int] = None):
        self.clock = clock
        self.recorder = recorder
        self.path = path or None
        self.max_bytes = (self.MAX_LOG_BYTES if max_bytes is None
                          else max_bytes)
        self.counters: dict[str, int] = {}
        self.events: list[dict] = []
        self.dropped_lines = 0
        self._log_size: Optional[int] = None

    def note(self, op: str, api: str = "", fault: str = "", attempt: int = 0,
             nbytes: int = 0, detail: str = "") -> None:
        """Record one fault-related happening.

        ``op`` is the lifecycle verb: ``inject`` (a fault fired),
        ``retry`` / ``evict`` / ``fallback`` (recovery actions),
        ``device_lost`` (permanent loss, host-only from here on),
        ``task_fail`` / ``cancel`` (task-graph propagation),
        ``poison`` / ``reset`` (context lifecycle).
        """
        now = self.clock.now() if self.clock is not None else 0.0
        event = {"t": now, "op": op, "api": api, "fault": fault,
                 "attempt": attempt, "nbytes": nbytes, "detail": detail}
        self.counters[op] = self.counters.get(op, 0) + 1
        self.events.append(event)
        if self.recorder is not None:
            from repro.prof.activity import FaultActivity
            self.recorder.emit(FaultActivity(
                op=op, api=api, fault=fault, attempt=attempt, nbytes=nbytes,
                detail=detail, t_start=now, t_end=now,
            ))
        if self.path:
            try:
                self._append_line(json.dumps(event) + "\n")
            except OSError:  # pragma: no cover - log file is best-effort
                pass

    def _append_line(self, line: str) -> None:
        """Size-capped append: like the in-memory activity ring, the
        jsonl sink is bounded.  When the cap would be exceeded the
        current file rotates to ``<path>.1`` (dropping the previous
        generation, whose lines are counted in :attr:`dropped_lines`) so
        a long chaos serving run keeps only the most recent events."""
        if self._log_size is None:
            try:
                self._log_size = os.path.getsize(self.path)
            except OSError:
                self._log_size = 0
        if self.max_bytes and self._log_size + len(line) > self.max_bytes:
            old = self.path + ".1"
            try:
                with open(old) as fh:
                    self.dropped_lines += sum(1 for _ in fh)
            except OSError:
                pass
            os.replace(self.path, old)
            self._log_size = 0
        with open(self.path, "a") as fh:
            fh.write(line)
        self._log_size += len(line)

    def count(self, *ops: str) -> int:
        return sum(self.counters.get(op, 0) for op in ops)


class FaultInjector:
    """Seeded, plan-driven fault injection with sticky context poisoning."""

    def __init__(self, plan: FaultPlan, seed: Optional[int] = None):
        self.plan = plan
        self.seed = plan.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.log: Optional[FaultLog] = None
        #: sticky state: the CUresult every call fails with until reset
        self.poison_result: Optional[CUresult] = None
        #: total check() calls (the injector's own call counter)
        self.calls = 0

    def bind(self, log: FaultLog) -> None:
        """Attach the owning driver's fault log (clock + recorder sinks)."""
        self.log = log

    @property
    def poisoned(self) -> bool:
        return self.poison_result is not None

    def reset_context(self) -> None:
        """Primary-context reset: clears the sticky poisoned state."""
        if self.poison_result is not None:
            self.poison_result = None
            if self.log is not None:
                self.log.note("reset", api="cuDevicePrimaryCtxReset")

    # -- the hook ------------------------------------------------------------
    def check(self, api: str, nbytes: int = 0) -> None:
        """Called at the top of every driver entry point; raises the
        injected :class:`CudaError` when a rule fires (or the context is
        poisoned), otherwise returns.  Must run before side effects."""
        self.calls += 1
        if self.poison_result is not None:
            if any(fnmatch(api, pat) for pat in POISON_EXEMPT):
                return
            raise CudaError(self.poison_result,
                            f"context poisoned (sticky error at {api})",
                            sticky=True, injected=True)
        for rule in self.plan.rules:
            if not fnmatch(api, rule.api):
                continue
            rule.matched += 1
            if rule.times is not None and rule.fired >= rule.times:
                continue
            if nbytes < rule.min_bytes:
                continue
            if rule.count is not None:
                fire = rule.matched == rule.count
            else:
                fire = self.rng.random() < rule.probability
            if not fire:
                continue
            rule.fired += 1
            detail = (f"injected {rule.kind} at {api} "
                      f"(call #{rule.matched})")
            if rule.sticky:
                self.poison_result = rule.result
                if self.log is not None:
                    self.log.note("poison", api=api, fault=rule.result.name,
                                  nbytes=nbytes, detail=detail)
            if self.log is not None:
                self.log.note("inject", api=api, fault=rule.result.name,
                              nbytes=nbytes, detail=detail)
            raise CudaError(rule.result, detail, sticky=rule.sticky,
                            injected=True)


def resolve_faults(spec) -> Optional[FaultInjector]:
    """Resolve a user-facing fault spec into an injector (or None).

    ``spec`` may be ``None``/``False``/``'off'``/empty (disabled), a
    spec string (see :mod:`repro.faults.plan`), a :class:`FaultPlan`, or
    a ready :class:`FaultInjector`.
    """
    if spec is None or spec is False or spec in ("", "off", "0", "none"):
        return None
    if isinstance(spec, FaultInjector):
        return spec
    if isinstance(spec, FaultPlan):
        return FaultInjector(spec)
    if isinstance(spec, str):
        plan = FaultPlan.parse(spec)
        return FaultInjector(plan) if plan.rules else None
    raise ValueError(f"bad fault spec {spec!r}")
