"""Serving-tier resilience: device health, circuit breaking, deadlines.

The serving runtime (PR 6/8) multiplexes sessions over the N-device
registry, and the driver-level fault machinery (PR 4) retries/falls back
per offload — but nothing above the driver ever *reacts*: one sticky
``devlost`` silently degrades every later request of the affected
sessions to host fallback forever, even while healthy devices sit idle.
This module closes that gap with three deterministic primitives, all on
the virtual clock:

* :class:`DeviceHealthMonitor` — folds :class:`~repro.faults.injector.
  FaultLog` events (injections, retries, fallbacks, evictions, device
  loss) and per-device :class:`~repro.devices.throughput.
  ThroughputTracker` observations into a health score in ``[0, 1]`` per
  registry slot.  1.0 is a healthy device at peak observed throughput;
  0.0 is a lost device.
* :class:`CircuitBreaker` — one per device.  ``closed`` -> ``open`` when
  the windowed failure count reaches the policy threshold (or
  immediately and permanently on device loss); ``open`` -> ``half_open``
  after a cooldown, admitting a single canary request whose outcome
  closes or re-opens the breaker (with an escalating, bounded cooldown).
  The admission queue consults the breaker so new work routes around
  open devices instead of host-degrading.
* request **deadlines** — an absolute virtual-clock bound per request
  (:class:`~repro.serving.server.Request` ``deadline=``, or a relative
  server-wide budget), enforced at admission and at
  completion sync with a typed :class:`DeadlineExceeded` rejection.

Everything here is pure bookkeeping over modelled time: chaos reruns
with the same seed reproduce the same transitions bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.settings import OFF, parse_deadline

__all__ = [
    "BreakerPolicy", "CircuitBreaker", "DeadlineExceeded",
    "DeviceHealthMonitor", "resolve_breaker", "resolve_deadline",
]


class DeadlineExceeded(Exception):
    """A request missed its deadline (at admission, dispatch, or
    completion sync) and was rejected instead of silently served late."""


#: a default per-request deadline *budget* (relative seconds of modelled
#: time, applied as ``arrival + budget`` at submit)
resolve_deadline = parse_deadline


@dataclass
class BreakerPolicy:
    """Knobs of the per-device circuit breaker."""

    #: windowed failures that trip ``closed`` -> ``open``
    failure_threshold: int = 3
    #: sliding window (modelled seconds) over which failures are counted
    window_s: float = 0.05
    #: first ``open`` -> ``half_open`` cooldown (modelled seconds)
    cooldown_s: float = 2e-3
    #: cooldown multiplier after each failed half-open probe
    cooldown_factor: float = 2.0
    #: cooldown ceiling — a flapping device probes at least this often
    max_cooldown_s: float = 0.1


_BRK_NUM = {"threshold": ("failure_threshold", int),
            "failure_threshold": ("failure_threshold", int),
            "window": ("window_s", float),
            "window_s": ("window_s", float),
            "cooldown": ("cooldown_s", float),
            "cooldown_s": ("cooldown_s", float),
            "cooldown_factor": ("cooldown_factor", float),
            "max_cooldown": ("max_cooldown_s", float),
            "max_cooldown_s": ("max_cooldown_s", float)}


def resolve_breaker(spec) -> Optional[BreakerPolicy]:
    """``None`` -> defaults; a policy passes through; ``"off"`` disables;
    a string like ``"threshold=2,cooldown=1e-3,window=0.02"`` is
    parsed."""
    if spec is None:
        return BreakerPolicy()
    if isinstance(spec, BreakerPolicy):
        return spec
    if spec is False:
        return None
    if isinstance(spec, str):
        text = spec.strip()
        if text.lower() in OFF:
            return None
        if text.lower() in ("on", "default", "1", "true"):
            return BreakerPolicy()
        policy = BreakerPolicy()
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"expected key=value, got {item!r}")
            key, value = (s.strip() for s in item.split("=", 1))
            if key not in _BRK_NUM:
                raise ValueError(f"unknown breaker option {key!r} "
                                 f"(known: {', '.join(sorted(_BRK_NUM))})")
            attr, conv = _BRK_NUM[key]
            setattr(policy, attr, conv(value))
        return policy
    raise TypeError(f"cannot resolve breaker policy from {spec!r}")


class CircuitBreaker:
    """Per-device breaker state machine on the virtual clock.

    States: ``closed`` (normal), ``open`` (route around; cooldown
    running), ``half_open`` (one canary in flight).  Device loss trips a
    *permanent* open — the simulated device can never heal, so there is
    no probe loop to run.  All transitions are reported through ``note``
    (the server wires this to the resilience activity track).
    """

    def __init__(self, device: int, policy: BreakerPolicy,
                 note: Optional[Callable[..., None]] = None):
        self.device = device
        self.policy = policy
        self.note = note
        self.state = "closed"
        self.permanent = False
        self.opened_at = 0.0
        self.cooldown = policy.cooldown_s
        self.opens = 0
        self.closes = 0
        self.probes = 0
        self._failures: List[float] = []   # windowed failure timestamps

    def _transition(self, state: str, now: float, detail: str = "") -> None:
        if state == self.state:
            return
        self.state = state
        if self.note is not None:
            self.note("breaker_" + state, device=self.device, t=now,
                      state=state, detail=detail)

    def record_success(self, now: float) -> None:
        """A request completed on this device without device faults."""
        if self.state == "half_open":
            self.closes += 1
            self.cooldown = self.policy.cooldown_s
            self._failures.clear()
            self._transition("closed", now, detail="probe succeeded")
        elif self.state == "closed":
            self._prune(now)

    def record_failure(self, now: float, detail: str = "") -> None:
        """A device-originated fault was observed on this device."""
        if self.permanent or self.state == "open":
            return
        if self.state == "half_open":
            # the canary failed: re-open with an escalated cooldown
            self.opens += 1
            self.opened_at = now
            self.cooldown = min(self.cooldown * self.policy.cooldown_factor,
                                self.policy.max_cooldown_s)
            self._transition("open", now, detail=detail or "probe failed")
            return
        self._failures.append(now)
        self._prune(now)
        if len(self._failures) >= self.policy.failure_threshold:
            self.opens += 1
            self.opened_at = now
            self._transition("open", now, detail=detail or
                             f"{len(self._failures)} failures in window")

    def trip_lost(self, now: float) -> None:
        """Device loss: permanent open, no probe loop (a lost simulated
        device never heals)."""
        if self.permanent:
            return
        self.permanent = True
        if self.state != "open":
            self.opens += 1
            self.opened_at = now
        self._transition("open", now, detail="device lost")

    def routable(self, now: float) -> bool:
        """May new work be dispatched to this device *now*?

        An expired ``open`` cooldown transitions to ``half_open`` here —
        the next request dispatched becomes the canary (the drain loop is
        synchronous, so exactly one probe resolves before the breaker is
        consulted again).
        """
        if self.state == "closed" or self.state == "half_open":
            return True
        if self.permanent:
            return False
        if now >= self.opened_at + self.cooldown:
            self.probes += 1
            self._transition("half_open", now, detail="cooldown elapsed")
            return True
        return False

    def allows(self, now: float) -> bool:
        """Passive form of :meth:`routable`: no state transition.  Used
        by filters (shard participant selection) that must not consume
        the half-open probe slot."""
        if self.state != "open":
            return True
        return not self.permanent and now >= self.opened_at + self.cooldown

    def _prune(self, now: float) -> None:
        cutoff = now - self.policy.window_s
        while self._failures and self._failures[0] < cutoff:
            self._failures.pop(0)


#: health penalty per windowed FaultLog event kind
_EVENT_WEIGHTS = {
    "device_lost": 1.0,
    "poison": 1.0,
    "fallback": 0.5,
    "inject": 0.2,
    "retry": 0.1,
    "evict": 0.05,
    "resync_skip": 0.0,     # a *good* outcome (digest gate) — no penalty
}


class DeviceHealthMonitor:
    """Health score in ``[0, 1]`` per registry slot.

    ``1.0`` is a device with no recent fault events running at its peak
    observed throughput; ``0.0`` is a lost device.  The score folds

    * windowed :class:`~repro.faults.injector.FaultLog` events, weighted
      by severity (loss/poison 1.0 ... eviction 0.05), and
    * a slowness penalty from the throughput tracker: ``1 - observed /
      peak-observed`` scaled by ``slow_weight`` (a device running hot —
      thermally throttled in the Jetson sense — scores below a device at
      its own historical peak; the ratio is scale-free, so a Nano is not
      penalised merely for being slower than a V100).
    """

    def __init__(self, modules, clock, window_s: float = 0.05,
                 slow_weight: float = 0.3):
        self.modules = modules
        self.clock = clock
        self.window_s = window_s
        self.slow_weight = slow_weight

    def score(self, device: int) -> float:
        mod = self.modules[device]
        if getattr(mod, "lost", False):
            return 0.0
        now = self.clock.now()
        cutoff = now - self.window_s
        penalty = 0.0
        events = mod.faultlog.events
        for event in reversed(events):       # timestamps are monotonic
            if event["t"] < cutoff:
                break
            penalty += _EVENT_WEIGHTS.get(event["op"], 0.1)
        rel = mod.throughput.relative_performance()
        if rel < 1.0:
            penalty += (1.0 - rel) * self.slow_weight
        return max(0.0, 1.0 - penalty)

    def scores(self) -> List[float]:
        return [self.score(k) for k in range(len(self.modules))]
