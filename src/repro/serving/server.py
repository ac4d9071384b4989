"""The persistent offload server (offload-as-a-service).

One :class:`OffloadServer` owns the long-lived state a fleet of client
sessions multiplexes over:

* one **compile cache** (:mod:`repro.ompi.cache`): source-hash ->
  compiled program; the first request for a program pays the full OMPi +
  nvcc pipeline, every later request (any session, any tenant) binds the
  cached images,
* one **device registry**: N simulated Jetson boards sharing a virtual
  clock and one activity ring, each with its own driver, memory arena
  and fault domain,
* one **admission queue** per device with deterministic ordering and
  compatible-request batching (:mod:`repro.serving.scheduler`),
* per-tenant **quotas** (:mod:`repro.serving.quota`) and quota/pressure
  driven **eviction** of idle sessions' warm state.

Each executed request gets a private data environment, ICV state and
interpreter machine bound to the shared registry through a *leased*
:class:`~repro.hostrt.ort.Ort`; the request rides one task of the
device's serving stream pool with a ``(INOUT, session id)`` dependence,
so a session's requests run FIFO while different sessions overlap on
the modelled timeline.  Completion events are synchronised only after
every queued request has dispatched, keeping cross-device overlap
visible in the latency numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cfront.errors import CFrontError
from repro.cuda.nvcc import NvccError
from repro.cfront.interp import Machine
from repro.cuda.device import DeviceProperties
from repro.cuda.errors import CudaError
from repro.faults.recovery import DeviceLost, OffloadFailure
from repro.hostrt.mapping import MappingError
from repro.hostrt.ort import Ort
from repro.hostrt.registry import DeviceRegistry, resolve_settings
from repro.mem import MemoryError_
from repro.ompi.cache import GLOBAL_COMPILE_CACHE, CompileCache, source_key
from repro.ompi.config import OmpiConfig
from repro.ompi.diskcache import DiskCompileCache
from repro.prof.activity import ResilienceActivity, ServingActivity
from repro.rt_async.taskgraph import (
    DEP_INOUT, OffloadTaskError, StreamPoolScheduler,
)
from repro.serving.quota import QuotaError, QuotaManager, TenantQuota
from repro.serving.resilience import (
    CircuitBreaker, DeadlineExceeded, DeviceHealthMonitor, resolve_breaker,
    resolve_deadline,
)
from repro.serving.scheduler import AdmissionQueue
from repro.serving.session import (
    ResidentBuffer, Session, SessionDataEnv, content_digest,
)
from repro.settings import first

#: request heap default: enough for the small serving workloads; callers
#: size it per request like the bench harness sizes standalone runs
DEFAULT_HEAP = 64 << 20


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the convention latency SLOs use)."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return float(xs[min(rank, len(xs)) - 1])


@dataclass
class Request:
    """One submitted offload job and, after :meth:`OffloadServer.drain`,
    its outcome."""

    seq: int                       # server-wide submission number
    session: Session
    source: str
    name: str
    program_key: str               # compile-cache key (batch compatibility)
    arrival: float                 # simulated admission time
    session_seq: int               # per-session FIFO position
    seed_arrays: Optional[dict] = None
    outputs: tuple = ()
    heap_capacity: int = DEFAULT_HEAP
    #: absolute simulated-time bound: past it the request is rejected
    #: with a typed DeadlineExceeded instead of served late (None: no
    #: deadline, or the server's default budget)
    deadline: Optional[float] = None
    status: str = "queued"         # 'queued' | 'done' | 'failed' | 'rejected'
    result: dict = field(default_factory=dict)
    stdout: str = ""
    exit_code: int = 0
    error: Optional[str] = None
    latency: float = 0.0           # arrival -> completion, simulated
    done_time: float = 0.0
    batch_size: int = 0
    #: device the request actually executed on (completion events are
    #: synchronised against it even if the session migrated afterwards)
    device: Optional[int] = None
    #: failover re-executions consumed (bounded by the server's
    #: ``MAX_RETRIES``)
    retries: int = 0
    #: the last execution observed a device-originated fault (loss,
    #: poisoning, host fallback) — set by outcome classification
    device_fault: bool = False
    task: object = None
    #: host wall-clock bracketing time-to-first-launch: dispatch start
    #: and the first OMPT ``submit`` of this request (None: no launch)
    dispatch_wall: Optional[float] = None
    first_launch_wall: Optional[float] = None

    @property
    def key(self) -> tuple:
        """Deterministic admission order: arrival time, then session id
        (the stable tie-break), then per-session sequence."""
        return (self.arrival, self.session.sid, self.session_seq)

    @property
    def ttfl(self) -> Optional[float]:
        """Wall seconds from dispatch to the first kernel submission —
        the cold/warm compile-cache metric."""
        if self.dispatch_wall is None or self.first_launch_wall is None:
            return None
        return self.first_launch_wall - self.dispatch_wall


@dataclass
class ServingStats:
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejections: int = 0
    evictions: int = 0             # idle sessions whose warm state was shed
    evicted_bytes: int = 0
    reuse_hits: int = 0            # HtoD transfers elided by digest match
    reuse_bytes: int = 0
    deadline_rejections: int = 0   # typed DeadlineExceeded outcomes
    retries: int = 0               # failover re-executions dispatched
    migrations: int = 0            # sessions re-pinned to another device
    migrated_bytes: int = 0        # warm bytes moved via cuMemcpyPeer
    latencies: list = field(default_factory=list)
    #: batch size -> how many batches dispatched at that size
    batches: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejections": self.rejections,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "reuse_hits": self.reuse_hits,
            "reuse_bytes": self.reuse_bytes,
            "deadline_rejections": self.deadline_rejections,
            "retries": self.retries,
            "migrations": self.migrations,
            "migrated_bytes": self.migrated_bytes,
            "latency_p50_s": percentile(self.latencies, 50),
            "latency_p95_s": percentile(self.latencies, 95),
            "latency_p99_s": percentile(self.latencies, 99),
            "batch_histogram": {str(k): v
                                for k, v in sorted(self.batches.items())},
        }


class OffloadServer:
    """A long-lived multi-tenant offload service over a shared device
    registry (see module docstring)."""

    #: streams in each device's serving pool
    POOL_SIZE = 4
    #: share of a device's arena that idle sessions may keep resident
    MAX_RESIDENT_FRACTION = 0.5
    #: failover re-executions one request may consume
    MAX_RETRIES = 2

    def __init__(
        self,
        num_devices: Optional[int] = None,
        device: Optional[DeviceProperties] = None,
        config: Optional[OmpiConfig] = None,
        compile_cache: Optional[CompileCache] = None,
        launch_mode: str = "auto",
        profile=None,
        faults=None,
        recovery=None,
        max_batch: int = 8,
        default_quota: Optional[TenantQuota] = None,
        devices=None,
        deadline=None,
        breaker=None,
    ):
        self.config = config or OmpiConfig()
        # the same resolution as CompiledProgram.run: explicit argument,
        # then config field, then environment, then default
        s = resolve_settings(
            self.config, device=device, checks={"breaker": resolve_breaker},
            devices=devices, num_devices=num_devices, profile=profile,
            faults=faults, serve_deadline=deadline, breaker=breaker)
        #: host fast-path mode of every per-request machine
        self.host_fastpath = s.host_fastpath
        if compile_cache is not None:
            self.compile_cache = compile_cache
        elif s.cache_dir:
            # long-lived server: attach the persistent tier when the
            # operator configured one, sharing the process-wide warm tier
            self.compile_cache = CompileCache(disk=DiskCompileCache(s.cache_dir))
            self.compile_cache._cache = GLOBAL_COMPILE_CACHE._cache
        else:
            self.compile_cache = GLOBAL_COMPILE_CACHE
        self.launch_mode = launch_mode
        self.max_batch = int(max_batch)
        #: the device registry every request's Ort leases
        self.registry = DeviceRegistry(
            s, device=device, launch_mode=launch_mode,
            recovery=first(recovery, self.config.recovery))
        self.devices = self.registry.devices
        self.backends = self.registry.backends
        self.clock = self.registry.clock
        self.prof = self.registry.prof
        self.ompt = self.registry.ompt
        num_devices = len(self.devices)
        for k, mod in enumerate(self.devices):
            # second-level OOM pressure valve: shed idle sessions' warm
            # state on this device before an allocation gives up
            mod.evict_hook = (
                lambda nbytes, dev=k: self.evict_idle(dev, need=int(nbytes)))
        self.quotas = QuotaManager(default_quota)
        self.queue = AdmissionQueue(num_devices)
        self.sessions: dict[int, Session] = {}
        self.stats = ServingStats()
        self._sched: dict[int, StreamPoolScheduler] = {}
        self._device_resident = {k: 0 for k in range(num_devices)}
        self._next_sid = 0
        self._next_req = 0
        self._current_request: Optional[Request] = None
        self.closed = False
        # -- resilience (repro.serving.resilience) -----------------------
        #: default relative deadline budget (seconds of modelled time),
        #: applied as arrival + budget at submit; explicit Request
        #: deadlines are absolute and win
        self.deadline_budget = resolve_deadline(s.serve_deadline)
        policy = resolve_breaker(s.breaker)
        #: per-device circuit breakers (None: breaker disabled via 'off')
        self.breakers = ([CircuitBreaker(k, policy, note=self._rnote)
                          for k in range(num_devices)]
                         if policy is not None else None)
        self.health = DeviceHealthMonitor(self.devices, self.clock)
        #: devices under a planned drain (excluded from placement/routing)
        self._draining: set[int] = set()
        #: sessions whose task chain was poisoned by a *device* fault —
        #: their cancelled successors are failover-retried; program-error
        #: poisonings (compile errors etc.) are not
        self._session_fault: set[int] = set()
        # TTFL probe: the first kernel submission of the executing request
        self.ompt.set_callback("submit", self._on_submit)

    # -- lifecycle ------------------------------------------------------------
    def __enter__(self) -> "OffloadServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Graceful shutdown: close every session (draining their pending
        requests), release the serving stream pools, export the trace."""
        if self.closed:
            return
        for sid in list(self.sessions):
            self.close_session(self.sessions[sid])
        for sched in self._sched.values():
            sched.shutdown()
        self._sched.clear()
        self.closed = True
        self.registry.write_trace(compile_cache=self.compile_cache)

    def summary(self) -> dict:
        """Serving counters plus the shared compile cache's hit/miss/evict
        stats (both tiers) — the dict the load-test artifact records.
        ``compile_cache_disk_hits``/``_misses`` surface the persistent
        tier's counters (0 when no REPRO_CACHE_DIR tier is attached), and
        a heterogeneous registry reports its backend names."""
        out = {**self.stats.summary(),
               "compile_cache": self.compile_cache.stats,
               "compile_cache_disk_hits": getattr(
                   self.compile_cache, "disk_hits", 0),
               "compile_cache_disk_misses": getattr(
                   self.compile_cache, "disk_misses", 0)}
        # PR 4's per-device recovery machinery, aggregated: injections,
        # retries, evictions, host fallbacks, resync skips, device losses
        out["fault_recovery"] = dict(sorted(
            self.registry.fault_stats.items()))
        out["faults_log_dropped"] = sum(
            mod.faultlog.dropped_lines for mod in self.devices)
        out["device_health"] = [round(self.health.score(k), 4)
                                for k in range(self.num_devices)]
        if self.breakers is not None:
            out["breakers"] = {
                "states": [b.state for b in self.breakers],
                "opens": sum(b.opens for b in self.breakers),
                "closes": sum(b.closes for b in self.breakers),
                "probes": sum(b.probes for b in self.breakers),
            }
        if self._draining:
            out["draining"] = sorted(self._draining)
        if self.backends is not None:
            out["devices"] = [b.name for b in self.backends]
        return out

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    # -- sessions -------------------------------------------------------------
    def open_session(self, tenant: str = "default",
                     device: Optional[int] = None) -> Session:
        if self.closed:
            raise RuntimeError("server is closed")
        try:
            self.quotas.admit_session(tenant)
        except QuotaError as exc:
            self.stats.rejections += 1
            self._note("reject", tenant=tenant, detail=str(exc))
            raise
        if device is None:
            # least-loaded placement over routable (healthy, not
            # breaker-open, not draining) devices, lowest ordinal on
            # ties; with nothing routable, fall back to the full registry
            candidates = [k for k in range(self.num_devices)
                          if self._routable(k)]
            if not candidates:
                candidates = list(range(self.num_devices))
            counts = {k: 0 for k in candidates}
            for s in self.sessions.values():
                if s.device in counts:
                    counts[s.device] += 1
            device = min(counts, key=lambda k: (counts[k], k))
        if not 0 <= int(device) < self.num_devices:
            self.quotas.release_session(tenant)
            raise ValueError(f"no such device {device}")
        session = Session(sid=self._next_sid, tenant=tenant,
                          device=int(device))
        self._next_sid += 1
        self.sessions[session.sid] = session
        self._note("session_open", session=session.sid, tenant=tenant,
                   device=session.device)
        return session

    def close_session(self, session: Session) -> None:
        """Graceful teardown: drain the session's pending requests, free
        its parked device state deterministically, return fully-idle
        arena blocks to the driver, release its quota slot."""
        if session.closed:
            return
        if session.pending > 0:
            self.drain()
        freed = self._free_resident(session)
        self.devices[session.device].trim_arena()
        self.quotas.release_session(session.tenant)
        self.sessions.pop(session.sid, None)
        session.closed = True
        self._note("session_close", session=session.sid,
                   tenant=session.tenant, device=session.device,
                   nbytes=freed)

    # -- submission -----------------------------------------------------------
    def submit(self, session: Session, source: str, name: str = "prog",
               seed_arrays: Optional[dict] = None, outputs: tuple = (),
               heap_capacity: int = DEFAULT_HEAP,
               arrival: Optional[float] = None,
               deadline: Optional[float] = None) -> Request:
        """Admit one offload job for the session; execution happens at
        the next :meth:`drain`.  ``arrival`` is the simulated admission
        time (default: now) — the load benches use it to model open-loop
        arrival processes on the virtual clock.  ``deadline`` is an
        absolute simulated-time bound (default: arrival plus the server's
        deadline budget, if one is configured); a request past it is
        rejected with a typed :class:`DeadlineExceeded` instead of
        silently served late."""
        if self.closed:
            raise RuntimeError("server is closed")
        if session.closed:
            raise RuntimeError(f"session {session.sid} is closed")
        when = self.clock.now() if arrival is None else float(arrival)
        if deadline is not None:
            deadline = float(deadline)
        elif self.deadline_budget is not None:
            deadline = when + self.deadline_budget
        if deadline is not None and deadline <= when:
            # admission-time enforcement: the bound is already unmeetable
            self.stats.deadline_rejections += 1
            self._rnote("deadline", device=session.device,
                        session=session.sid,
                        detail=f"rejected at admission: deadline "
                               f"{deadline:.6f} <= arrival {when:.6f}")
            raise DeadlineExceeded(
                f"deadline {deadline:.6f} is not after arrival {when:.6f}")
        # a session pinned to an unroutable device (lost, breaker-open,
        # draining) re-pins before the request enqueues, as long as
        # somewhere routable exists; an elapsed cooldown keeps the pin —
        # the request becomes the half-open canary
        if not self._routable(session.device):
            target = self._pick_target(exclude=session.device)
            if target is not None:
                self.migrate_session(session, target, reason="reroute")
        try:
            self.quotas.admit_pending(session.tenant)
        except QuotaError as exc:
            self.stats.rejections += 1
            self._note("reject", session=session.sid, tenant=session.tenant,
                       detail=str(exc))
            raise
        req = Request(
            seq=self._next_req, session=session, source=source, name=name,
            program_key=source_key(source, name, self.config),
            arrival=when,
            session_seq=session.submitted,
            seed_arrays=seed_arrays, outputs=tuple(outputs),
            heap_capacity=heap_capacity, deadline=deadline,
        )
        self._next_req += 1
        session.submitted += 1
        session.pending += 1
        depth = self.queue.push(req)
        self._note("enqueue", session=session.sid, tenant=session.tenant,
                   request=req.seq, program=name, queue_depth=depth,
                   device=session.device, t_start=req.arrival)
        return req

    # -- execution ------------------------------------------------------------
    def drain(self, device: Optional[int] = None) -> list[Request]:
        """Run every admitted request to completion; returns them in
        dispatch order.  Dispatch picks the globally smallest admission
        key, batches compatible requests, and defers every completion
        sync until all queues are empty — so requests on different
        devices (and different sessions' requests on one device's pool
        streams) overlap on the modelled timeline.

        ``device=k`` makes this a *planned* drain of device ``k``
        (:meth:`start_drain`): its sessions migrate off first, and ``k``
        stays out of placement and routing until :meth:`resume`."""
        if device is not None:
            self.start_drain(int(device))
        inflight: list[Request] = []
        while len(self.queue):
            k = self.queue.head_device()
            if self._route_around(k):
                continue
            arrival = self.queue.head_arrival(k)
            if arrival > self.clock.now():
                self.clock.advance_to(arrival)
            batch = self.queue.pop_batch(k, self.clock.now(), self.max_batch)
            self.stats.batches[len(batch)] = (
                self.stats.batches.get(len(batch), 0) + 1)
            self._note("batch", device=k, batch=len(batch),
                       program=batch[0].name,
                       queue_depth=self.queue.depth(k))
            #: session -> backoff arrival of a member that just failed
            #: over; its later members in this batch requeue behind it
            requeued: dict[int, float] = {}
            for req in batch:
                self.quotas.release_pending(req.session.tenant)
                req.session.pending -= 1
                if req.session.sid in requeued:
                    if not self._requeue(req, requeued[req.session.sid]):
                        inflight.append(req)
                    continue
                if (req.deadline is not None
                        and self.clock.now() > req.deadline):
                    self._reject_deadline(req, "expired before dispatch")
                    inflight.append(req)
                    continue
                self._note("admit", device=k, session=req.session.sid,
                           tenant=req.session.tenant, request=req.seq,
                           program=req.name, batch=len(batch),
                           queue_depth=self.queue.depth(k))
                self._execute(req, len(batch))
                retry_at = self._maybe_retry(req)
                if retry_at is not None:
                    requeued[req.session.sid] = retry_at
                else:
                    inflight.append(req)
        for req in inflight:
            sess = req.session
            dev = req.device if req.device is not None else sess.device
            mod = self.devices[dev]
            task = req.task
            if (req.status == "done" and task is not None
                    and getattr(task, "done_event", None) is not None):
                try:
                    done = mod.driver.cuEventSynchronize(task.done_event)
                except (CudaError, DeviceLost):
                    # a *later* request's launch poisoned this context;
                    # this request's results were already captured —
                    # only the modelled event time is unreadable
                    done = self.clock.now()
            else:
                done = self.clock.now()
            req.done_time = done
            req.latency = done - req.arrival
            sess.busy = False
            sess.last_active = max(sess.last_active, done)
            if (req.status == "done" and req.deadline is not None
                    and done > req.deadline):
                # completion-sync enforcement: the work finished, but
                # past the bound — the client gets a typed rejection,
                # never a silently-late result
                self.stats.completed -= 1
                self._reject_deadline(req, "completed past deadline",
                                      t=done)
            if req.status == "done":
                self.stats.latencies.append(req.latency)
            if self.prof is not None:
                self.prof.emit(ServingActivity(
                    op="request", session=sess.sid, tenant=sess.tenant,
                    request=req.seq, program=req.name,
                    batch=req.batch_size, device=dev,
                    t_start=req.arrival, t_end=done,
                    detail=req.status if req.status != "done"
                    else (req.error or ""),
                ))
        for sched in self._sched.values():
            try:
                sched.taskwait()
            except OffloadTaskError:
                pass  # failures already surfaced on their requests
            except (CudaError, DeviceLost):
                pass  # a poisoned/lost device cannot even sync; its
                # requests already failed (and failed over elsewhere)
            try:
                sched.release_events()
            except (CudaError, DeviceLost):
                pass
        for mod in self.devices:
            mod.driver.log.compact()
        if self.prof is not None and inflight:
            for k in range(self.num_devices):
                self._rnote("health", device=k, score=self.health.score(k))
        return inflight

    def _sched_for(self, k: int) -> Optional[StreamPoolScheduler]:
        """The device's serving stream pool — None once the device is
        lost, in which case requests run task-less and recover through
        the module's host-fallback path."""
        sched = self._sched.get(k)
        if sched is not None and self.devices[k].lost:
            # the pool outlived its device: its streams/events live on a
            # poisoned context, so stop routing tasks through it — the
            # module's host-fallback path recovers each request instead
            self._sched.pop(k)
            return None
        if sched is None and not self.devices[k].lost:
            try:
                self.devices[k].initialize()
            except (CudaError, DeviceLost):
                return None
            sched = StreamPoolScheduler(self.devices[k].driver,
                                        pool_size=self.POOL_SIZE)
            self._sched[k] = sched
        return sched

    def _execute(self, req: Request, batch_size: int) -> None:
        """Run one request on its session's device: compile (cached),
        lease the registry to a fresh machine, route the module onto the
        request's serving-pool stream, execute, capture outputs.  The
        completion sync is deferred to the caller."""
        session = req.session
        session.busy = True
        req.batch_size = batch_size
        req.dispatch_wall = time.perf_counter()
        self._current_request = req
        k = session.device
        req.device = k
        mod = self.devices[k]
        fault_before = dict(mod.faultlog.counters)
        sched = self._sched_for(k)
        ort = None
        task = None
        try:
            if sched is not None:
                # the (INOUT, sid) dependence chains this session's
                # requests FIFO on the serving pool while other sessions'
                # chains land on other pool streams and overlap; it is
                # cut before the compile so even a compile failure
                # poisons the chain
                task = sched.begin_task(f"req{req.seq}:s{session.sid}",
                                        deps=[(DEP_INOUT, session.sid)])
                req.task = task
                if task.dead:
                    req.status = "failed"
                    req.error = ("cancelled: an earlier request of this "
                                 "session failed")
                    self.stats.cancelled += 1
                    return
            prog = self.compile_cache.get(req.source, req.name, self.config)
            machine = Machine(prog.host_unit,
                              heap_capacity=req.heap_capacity,
                              host_fastpath=self.host_fastpath,
                              plans=prog.host_plans)
            if task is not None:
                mod.base_stream = task.stream
            dataenvs = {
                j: SessionDataEnv(m,
                                  session if j == session.device else None,
                                  self if j == session.device else None)
                for j, m in enumerate(self.devices)
            }
            ort = Ort(machine, self.registry, dataenvs=dataenvs,
                      default_device=session.device,
                      healthy_fn=self._shard_ok)
            prog.bind(ort, seed_arrays=req.seed_arrays)
            req.exit_code = machine.run()
            # join request-internal nowait tasks and release their pool
            # streams before the request's own completion event is cut
            ort.shutdown()
            if task is not None:
                sched.end_task(task)
            req.stdout = machine.output()
            for out_name in req.outputs:
                if out_name in machine.globals:
                    req.result[out_name] = (
                        machine.global_array(out_name).copy())
            req.status = "done"
            self.stats.completed += 1
        except (CFrontError, NvccError, MappingError, MemoryError_,
                CudaError, DeviceLost, OffloadFailure, OffloadTaskError,
                QuotaError) as exc:
            req.status = "failed"
            req.error = f"{type(exc).__name__}: {exc}"
            self.stats.failed += 1
            if task is not None and not task.dead:
                sched.fail_task(task, exc)
        finally:
            self._current_request = None
            mod.base_stream = None
            if ort is not None:
                try:
                    ort.shutdown()
                except (OffloadTaskError, CudaError, DeviceLost):
                    pass
            session.requests += 1
            self._record_outcome(req, mod, fault_before)

    #: FaultLog ops that mean the *device* (not the program) degraded
    _FAULT_OPS = ("device_lost", "fallback", "poison")

    def _record_outcome(self, req: Request, mod, before: dict) -> None:
        """Classify the request's outcome for the resilience layer: a
        device-originated degradation (loss, poisoning, host fallback —
        read as deltas of the device's fault counters across the
        execution) feeds the circuit breaker and marks the session's
        task chain as fault-poisoned; a clean completion feeds back as
        breaker success (closing a half-open probe)."""
        counters = mod.faultlog.counters
        delta = sum(counters.get(op, 0) - before.get(op, 0)
                    for op in self._FAULT_OPS)
        req.device_fault = delta > 0
        if req.device_fault and req.status == "failed":
            self._session_fault.add(req.session.sid)
        if self.breakers is None:
            return
        breaker = self.breakers[req.device]
        now = self.clock.now()
        if mod.lost:
            breaker.trip_lost(now)
        elif delta > 0:
            breaker.record_failure(now, detail=f"req{req.seq}")
        elif req.status == "done":
            breaker.record_success(now)

    def _on_submit(self, event=None, **kw) -> None:
        req = self._current_request
        if req is not None and req.first_launch_wall is None:
            req.first_launch_wall = time.perf_counter()

    # -- resilience: routing, failover, migration, drains ---------------------
    def _breaker_allows(self, k: int) -> bool:
        """Passive breaker check — no state transition, so filters (shard
        participant selection, placement) never consume the probe slot."""
        return (self.breakers is None
                or self.breakers[k].allows(self.clock.now()))

    def _routable(self, k: int) -> bool:
        """May new work land on device ``k``: not lost, not under a
        planned drain, breaker not holding it open."""
        return (not self.devices[k].lost and k not in self._draining
                and self._breaker_allows(k))

    def _shard_ok(self, k: int) -> bool:
        # the per-request Ort's shard participant filter
        return k not in self._draining and self._breaker_allows(k)

    def _pick_target(self, exclude: Optional[int] = None) -> Optional[int]:
        """The healthiest routable device (ties: lowest ordinal),
        optionally excluding one; None when nowhere is routable."""
        best = None
        best_key = None
        for k in range(self.num_devices):
            if k == exclude or not self._routable(k):
                continue
            key = (-self.health.score(k), k)
            if best_key is None or key < best_key:
                best, best_key = k, key
        return best

    def _route_around(self, k: int) -> bool:
        """The head-of-queue device is unroutable (lost, draining, or its
        breaker holds open past the cooldown check): migrate its queued
        sessions to routable devices.  False when ``k`` may dispatch — a
        closed/half-open breaker, or nowhere else to go (single device /
        whole registry down), in which case the legacy per-offload
        recovery (retry, host fallback) still applies."""
        t = max(self.clock.now(), self.queue.head_arrival(k))
        unroutable = self.devices[k].lost or k in self._draining
        if not unroutable and self.breakers is not None:
            # active check: an elapsed cooldown flips open -> half_open
            # here and admits the head request as the canary
            unroutable = not self.breakers[k].routable(t)
        if not unroutable:
            return False
        if self._pick_target(exclude=k) is None:
            return False
        moved = False
        for sess in self.queue.queued_sessions(k):
            target = self._pick_target(exclude=k)
            if target is None:
                break
            self.migrate_session(sess, target, reason="route_around")
            moved = True
        return moved

    def _reject_deadline(self, req: Request, why: str,
                         t: Optional[float] = None) -> None:
        req.status = "rejected"
        req.error = f"DeadlineExceeded: {why}"
        self.stats.deadline_rejections += 1
        self._rnote("deadline", device=req.device
                    if req.device is not None else req.session.device,
                    session=req.session.sid, request=req.seq,
                    t=t, detail=why)

    def _undo_failure(self, req: Request) -> None:
        """Back out the failure counters :meth:`_execute` charged, ahead
        of a failover re-execution (the retry re-charges whatever its
        own outcome is)."""
        if (req.error or "").startswith("cancelled"):
            self.stats.cancelled -= 1
        else:
            self.stats.failed -= 1

    def _maybe_retry(self, req: Request) -> Optional[float]:
        """Failover: a request that failed because its *device* failed
        (directly, or cancelled behind a fault-poisoned session chain)
        re-executes on another healthy device after a backoff, bounded by
        ``MAX_RETRIES`` and the request deadline.  Returns the retry
        arrival time when the request was re-enqueued, else None (the
        request's current outcome stands)."""
        if req.status != "failed":
            return None
        sid = req.session.sid
        cancelled = (req.error or "").startswith("cancelled")
        if not (req.device_fault or (cancelled
                                     and sid in self._session_fault)):
            return None                     # program error: not retryable
        if req.retries >= self.MAX_RETRIES:
            return None
        failed_dev = req.device
        target = self._pick_target(exclude=failed_dev)
        if target is None:
            # nowhere healthy to fail over.  With the whole registry gone
            # the contract degrades to PR 4's: complete on the host, not
            # stay failed — so retry in place when the device can still
            # serve the request through its host-fallback path.
            mod = self.devices[req.session.device]
            if not (mod.lost and getattr(mod.recovery, "host_fallback",
                                         True)):
                return None                 # a routable device may heal
            target = req.session.device
        rec = self.devices[0].recovery
        backoff = rec.backoff_s * (rec.backoff_factor ** req.retries)
        retry_at = self.clock.now() + backoff
        if req.deadline is not None and retry_at > req.deadline:
            self._undo_failure(req)
            self._reject_deadline(req, "retry would miss deadline")
            return None
        try:
            self.quotas.admit_pending(req.session.tenant)
        except QuotaError as exc:
            self._undo_failure(req)
            req.status = "rejected"
            req.error = f"QuotaError: {exc}"
            self.stats.rejections += 1
            return None
        self._undo_failure(req)
        if req.session.device == failed_dev and target != failed_dev:
            # the retry must run elsewhere: the failed device's task
            # chain for this session is poisoned (and the device may be
            # gone).  min_arrival floors the session's later queued
            # requests so per-session FIFO survives the backoff.
            self.migrate_session(req.session, target, reason="retry",
                                 min_arrival=retry_at)
        else:
            # retry in place (or the session already migrated): still
            # floor any later queued requests behind the backoff arrival
            self.queue.retarget(sid, req.session.device, retry_at)
        self._session_fault.discard(sid)
        req.session.pending += 1
        req.status = "queued"
        req.error = None
        req.result.clear()
        req.stdout = ""
        req.exit_code = 0
        req.task = None
        req.device_fault = False
        req.batch_size = 0
        req.retries += 1
        req.arrival = retry_at
        self.stats.retries += 1
        self.queue.push(req)
        self._rnote("retry", device=failed_dev, session=sid,
                    request=req.seq, target=req.session.device,
                    detail=f"attempt {req.retries}")
        return retry_at

    def _requeue(self, req: Request, min_arrival: float) -> bool:
        """Re-enqueue a popped batch member whose session just failed
        over mid-batch: it runs after the retried head on the new device
        instead of out of order.  False when it could not be requeued
        (deadline or quota), with the request carrying its typed
        rejection."""
        if req.deadline is not None and min_arrival > req.deadline:
            self._reject_deadline(req, "failover requeue past deadline")
            return False
        try:
            self.quotas.admit_pending(req.session.tenant)
        except QuotaError as exc:
            req.status = "rejected"
            req.error = f"QuotaError: {exc}"
            self.stats.rejections += 1
            return False
        req.session.pending += 1
        req.arrival = max(req.arrival, min_arrival)
        self.queue.push(req)
        return True

    def migrate_session(self, session: Session, target: int, *,
                        reason: str = "",
                        min_arrival: Optional[float] = None) -> int:
        """Live-migrate a session to ``target``: every parked
        :class:`ResidentBuffer` moves device-to-device via
        ``cuMemcpyPeer`` and is digest-verified against its park-time
        hash (bit-identical or dropped — a dropped buffer simply
        re-uploads from the host copy on next use), queued requests
        retarget to the new device's admission queue, and the session
        re-pins.  Returns the warm bytes moved."""
        src_k = session.device
        target = int(target)
        if target == src_k or session.closed:
            return 0
        src = self.devices[src_k]
        dst = self.devices[target]
        moved = 0
        for key in list(session.resident):
            buf = session.resident[key]
            dst_addr = None
            try:
                dst_addr = dst.mem_alloc(buf.size)
                src.peer_copy(dst, dst_addr, buf.dev_addr, buf.size)
                data = dst.driver.gmem.copy_out(dst_addr, buf.size)
                if content_digest(data) != buf.digest:
                    raise ValueError(
                        f"migration digest mismatch for {buf.size} bytes "
                        f"dev{src_k}->dev{target}")
            except (CudaError, DeviceLost, MemoryError_, ValueError):
                # source unreadable, target full, or verify failed: drop
                # the warm buffer rather than migrate unverified bytes
                if dst_addr is not None:
                    try:
                        dst.mem_free(dst_addr)
                    except (CudaError, DeviceLost):
                        pass
                try:
                    src.mem_free(buf.dev_addr)
                except (CudaError, DeviceLost):
                    pass
                del session.resident[key]
                session.resident_bytes -= buf.size
                self.quotas.uncharge_resident(session.tenant, buf.size)
                self._device_resident[src_k] -= buf.size
                continue
            try:
                src.mem_free(buf.dev_addr)
            except (CudaError, DeviceLost):
                pass
            buf.dev_addr = dst_addr
            self._device_resident[src_k] -= buf.size
            self._device_resident[target] += buf.size
            moved += buf.size
        self.queue.retarget(session.sid, target, min_arrival)
        session.device = target
        session.migrations += 1
        self.stats.migrations += 1
        self.stats.migrated_bytes += moved
        self._rnote("migrate", device=src_k, session=session.sid,
                    target=target, nbytes=moved, detail=reason)
        return moved

    def start_drain(self, device: int) -> None:
        """Begin a *planned* drain of device ``k``: it leaves placement
        and routing, and its sessions (warm state included) migrate to
        routable peers while the device is still healthy — the opposite
        of reacting to its loss.  :meth:`resume` returns it to service."""
        k = int(device)
        if not 0 <= k < self.num_devices:
            raise ValueError(f"no such device {device}")
        if k in self._draining:
            return
        self._draining.add(k)
        self._rnote("drain", device=k)
        for sess in list(self.sessions.values()):
            if sess.device != k or sess.closed:
                continue
            target = self._pick_target(exclude=k)
            if target is None:
                break                     # nowhere to go: keep serving on k
            self.migrate_session(sess, target, reason="drain")

    def resume(self, device: int) -> None:
        """End a planned drain: the device re-enters placement/routing
        (existing sessions stay where they migrated to)."""
        k = int(device)
        if k in self._draining:
            self._draining.discard(k)
            self._rnote("resume", device=k)

    # -- warm state accounting (called by SessionDataEnv) --------------------
    def try_park(self, session: Session, device_module,
                 entry) -> bool:
        """Adopt a dying map entry into the session's warm pool if the
        tenant quota and the device resident watermark allow it (evicting
        colder idle sessions first); False tells the caller to free."""
        if session.closed or self.closed:
            return False
        k = session.device
        size = entry.size
        if self.quotas.resident_over(session.tenant, size):
            # tenant quota is global: shed the tenant's coldest idle
            # session on any device
            self.evict_idle(None, tenant=session.tenant, need=size)
            if self.quotas.resident_over(session.tenant, size):
                return False
        cap = int(device_module.driver.gmem.capacity
                  * self.MAX_RESIDENT_FRACTION)
        if self._device_resident[k] + size > cap:
            self.evict_idle(k, need=self._device_resident[k] + size - cap)
            if self._device_resident[k] + size > cap:
                return False
        data = device_module.driver.gmem.copy_out(entry.dev_addr, size)
        session.park(ResidentBuffer(entry.host_addr, size, entry.dev_addr,
                                    content_digest(data)))
        session.resident_bytes += size
        self.quotas.charge_resident(session.tenant, size)
        self._device_resident[k] += size
        return True

    def note_borrow(self, session: Session, size: int) -> None:
        session.resident_bytes -= size
        self.quotas.uncharge_resident(session.tenant, size)
        self._device_resident[session.device] -= size

    def note_reuse(self, session: Session, size: int) -> None:
        self.stats.reuse_hits += 1
        self.stats.reuse_bytes += size
        self._note("reuse", session=session.sid, tenant=session.tenant,
                   device=session.device, nbytes=size)

    def evict_idle(self, device: Optional[int], tenant: Optional[str] = None,
                   need: int = 0) -> int:
        """Shed idle sessions' parked buffers, coldest
        (:attr:`Session.last_active`, then sid) first, until ``need``
        bytes are freed (0: evict everything idle).  ``device`` limits
        victims to one device (memory-pressure eviction); ``None`` spans
        the registry (tenant-quota eviction).  Busy sessions — one of
        their requests is executing or in flight — are never touched.
        Returns the bytes freed."""
        victims = sorted(
            (s for s in self.sessions.values()
             if (device is None or s.device == device) and not s.busy
             and s.resident
             and (tenant is None or s.tenant == tenant)),
            key=lambda s: (s.last_active, s.sid))
        freed = 0
        trimmed: set[int] = set()
        for s in victims:
            n = self._free_resident(s)
            freed += n
            trimmed.add(s.device)
            self.stats.evictions += 1
            self.stats.evicted_bytes += n
            self._note("evict", device=s.device, session=s.sid,
                       tenant=s.tenant, nbytes=n)
            if need and freed >= need:
                break
        for k in trimmed:
            self.devices[k].trim_arena()
        return freed

    def _free_resident(self, session: Session) -> int:
        mod = self.devices[session.device]
        freed = 0
        for buf in session.resident.values():
            try:
                mod.mem_free(buf.dev_addr)
            except (CudaError, DeviceLost):
                pass  # a lost device reclaims nothing; forget the handle
            self.quotas.uncharge_resident(session.tenant, buf.size)
            self._device_resident[session.device] -= buf.size
            freed += buf.size
        session.resident.clear()
        session.resident_bytes = 0
        return freed

    # -- observability --------------------------------------------------------
    def _note(self, op: str, *, device: Optional[int] = None,
              session: int = -1, tenant: str = "", request: int = -1,
              program: str = "", batch: int = 0, queue_depth: int = 0,
              nbytes: int = 0, detail: str = "",
              t_start: Optional[float] = None) -> None:
        if self.prof is None:
            return
        t = self.clock.now() if t_start is None else t_start
        self.prof.emit(ServingActivity(
            op=op, session=session, tenant=tenant, request=request,
            program=program, batch=batch, queue_depth=queue_depth,
            nbytes=nbytes, detail=detail, device=device,
            t_start=t, t_end=t,
        ))

    def _rnote(self, op: str, *, device: Optional[int] = None,
               t: Optional[float] = None, session: int = -1,
               request: int = -1, state: str = "", target: int = -1,
               score: float = -1.0, nbytes: int = 0,
               detail: str = "") -> None:
        """Emit one resilience-track activity record (breaker
        transitions, migrations, deadline rejections, retries, drains,
        health scores); also the breakers' ``note`` callback."""
        if self.prof is None:
            return
        ts = self.clock.now() if t is None else t
        self.prof.emit(ResilienceActivity(
            op=op, session=session, request=request, state=state,
            target=target, score=score, nbytes=nbytes, detail=detail,
            device=device, t_start=ts, t_end=ts,
        ))
