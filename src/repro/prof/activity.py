"""CUPTI-style activity records and the bounded activity recorder.

The profiler mirrors how CUPTI exposes a CUDA run: every driver-level
action (kernel launch, transfer, module load, synchronisation) and every
runtime-level action (nowait-task lifecycle, stream waits) is emitted as
one *typed activity record* carrying its placement on the modelled
timeline.  Producers hold an ``Optional[ActivityRecorder]`` and guard the
emission with ``if recorder is not None`` — a disabled profiler is a
``None`` attribute, so the hot paths pay a single identity check and
nothing else.

Records are buffered in a bounded ring: when the buffer is full the
*oldest* record is dropped and :attr:`ActivityRecorder.dropped` counts the
loss, so a profiled long run degrades to "the last N activities" instead
of growing without bound (CUPTI's activity buffers behave the same way).

Determinism note: every field of a record is derived from the simulated
run except the ``wall_s`` fields, which measure *host* wall-clock spent
executing the simulation.  :meth:`ActivityRecord.identity` returns the
record with volatile fields removed — two runs of the same program (e.g.
with ``REPRO_KERNEL_FASTPATH=on`` vs ``off``) must produce identical
identity streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator, Optional

#: record fields that legitimately differ between runs of the same program
#: (host wall-clock measurements); everything else is modelled and must be
#: deterministic.
VOLATILE_FIELDS = ("wall_s",)

#: default ring capacity (records, not bytes)
DEFAULT_CAPACITY = 1 << 16


@dataclass
class ActivityRecord:
    """Base class: one action with its span on the modelled timeline.

    ``t_start == t_end`` marks an instantaneous record; ``stream`` is the
    CUDA stream the action was placed on (None: host-side, no stream).
    """

    kind: ClassVar[str] = "activity"

    t_start: float = 0.0
    t_end: float = 0.0
    stream: Optional[int] = None
    #: ordinal of the device the action belongs to (None: host-side or a
    #: driver not owned by a device registry).  Stamped by the per-device
    #: :class:`DeviceRecorder` so multi-device runs share one ring while
    #: staying attributable per device.
    device: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    def identity(self) -> dict:
        """The record as a dict minus volatile (wall-clock) fields — the
        deterministic content two equivalent runs must agree on."""
        out = self.to_dict()
        for name in VOLATILE_FIELDS:
            out.pop(name, None)
        return out


@dataclass
class KernelActivity(ActivityRecord):
    """One ``cuLaunchKernel`` with its modelled time and dynamic counters.

    The counters are the (possibly sampling-extrapolated) full-grid
    :class:`~repro.cuda.sim.engine.KernelStats` the timing model priced;
    ``wall_s`` is the host wall-clock the functional simulation of this
    launch took (the modelled-vs-wall comparison CUPTI tools draw).
    """

    kind: ClassVar[str] = "kernel"

    name: str = ""
    grid: tuple[int, int, int] = (1, 1, 1)
    block: tuple[int, int, int] = (1, 1, 1)
    modelled_s: float = 0.0
    overhead_s: float = 0.0          # launch overhead (3-phase dispatch)
    wall_s: float = 0.0              # host wall-clock (volatile)
    bound: str = ""                  # compute | bandwidth | latency
    occupancy_warps: float = 0.0
    resident_blocks: int = 0
    registers_per_thread: int = 0
    smem_per_block: int = 0
    instructions: int = 0
    global_mem_instructions: int = 0
    global_transactions: int = 0
    divergent_branches: int = 0
    barriers: int = 0
    atomics: int = 0
    shared_accesses: int = 0
    local_accesses: int = 0


@dataclass
class KernelExecActivity(ActivityRecord):
    """One functional execution inside the sim engine (what actually ran).

    Under sampling this covers only the representative blocks/warps, so the
    counters are the *executed* subset, not the extrapolated grid — the
    complement of :class:`KernelActivity`.  Both the tree-walk engine and
    the closure-compiled fast path emit this record from the same hook
    with identical content (asserted by the profiler tests).
    """

    kind: ClassVar[str] = "kernel_exec"

    name: str = ""
    grid: tuple[int, int, int] = (1, 1, 1)
    block: tuple[int, int, int] = (1, 1, 1)
    blocks_run: int = 0
    warps_run: int = 0
    instructions: int = 0
    global_transactions: int = 0
    divergent_branches: int = 0
    barriers: int = 0
    shared_accesses: int = 0
    local_accesses: int = 0
    spins: int = 0


@dataclass
class MemcpyActivity(ActivityRecord):
    """A host/device transfer (HtoD, DtoH, or a memset on the copy path)."""

    kind: ClassVar[str] = "memcpy"

    direction: str = ""              # 'h2d' | 'd2h'
    nbytes: int = 0
    bandwidth_gbps: float = 0.0      # nbytes / modelled seconds
    detail: str = ""                 # e.g. 'memset'


@dataclass
class MemoryActivity(ActivityRecord):
    """Device memory management: alloc/free with the usage watermark."""

    kind: ClassVar[str] = "memory"

    op: str = ""                     # 'alloc' | 'free' | 'module_global'
    nbytes: int = 0
    addr: int = 0
    in_use: int = 0                  # device bytes allocated after the op
    peak: int = 0                    # high-water mark so far


@dataclass
class ModuleActivity(ActivityRecord):
    """Module load; for PTX images the JIT compilation span + cache verdict."""

    kind: ClassVar[str] = "module"

    name: str = ""
    image_kind: str = ""             # 'ptx' | 'cubin'
    jit_cached: bool = False
    jit_s: float = 0.0


@dataclass
class SyncActivity(ActivityRecord):
    """A host-blocking synchronisation: the span the host waited."""

    kind: ClassVar[str] = "sync"

    op: str = ""                     # 'stream_sync' | 'ctx_sync' | 'event_sync'
    handle: int = 0
    waited_s: float = 0.0


@dataclass
class WaitActivity(ActivityRecord):
    """A device-side ``cuStreamWaitEvent`` that actually delayed a stream
    (emitted by the stream table; no-op waits are not recorded)."""

    kind: ClassVar[str] = "stream_wait"

    event: int = 0


@dataclass
class EventActivity(ActivityRecord):
    """A ``cuEventRecord`` timeline mark."""

    kind: ClassVar[str] = "event"

    op: str = "record"
    handle: int = 0
    timestamp: float = 0.0


@dataclass
class TaskActivity(ActivityRecord):
    """Lifecycle of a deferred offload task (``target nowait``)."""

    kind: ClassVar[str] = "task"

    op: str = ""     # 'begin' | 'end' | 'sync' | 'taskwait' | 'fail' | 'cancel'
    tid: int = 0
    label: str = ""
    deps: tuple = ()
    preds: tuple = ()


@dataclass
class FaultActivity(ActivityRecord):
    """One fault-related happening: an injected driver failure or a
    recovery action the runtime took in response (emitted by the
    :class:`repro.faults.injector.FaultLog`, so chrome traces show the
    degradation alongside the work it disturbed)."""

    kind: ClassVar[str] = "fault"

    #: 'inject' | 'retry' | 'evict' | 'fallback' | 'device_lost'
    #: | 'task_fail' | 'cancel' | 'poison' | 'reset'
    op: str = ""
    api: str = ""                    # driver API (or kernel/task label)
    fault: str = ""                  # CUresult name of the failure
    attempt: int = 0                 # retry attempt number (op == 'retry')
    nbytes: int = 0
    detail: str = ""


@dataclass
class ServingActivity(ActivityRecord):
    """One serving-runtime happening: request/session lifecycle, batching
    and eviction decisions of the persistent offload server.  Request
    spans carry ``t_start`` = admission and ``t_end`` = completion on the
    modelled timeline, so the chrome exporter can draw a serving track
    above the device tracks that produced the work."""

    kind: ClassVar[str] = "serving"

    #: 'session_open' | 'session_close' | 'enqueue' | 'admit' | 'batch'
    #: | 'request' | 'evict' | 'reject' | 'reuse'
    op: str = ""
    session: int = -1
    tenant: str = ""
    request: int = -1                # per-server request sequence number
    program: str = ""                # program cache key prefix / name
    batch: int = 0                   # members in the admitted batch
    queue_depth: int = 0             # admission queue depth after the op
    nbytes: int = 0                  # bytes moved/evicted, if relevant
    detail: str = ""


@dataclass
class ResilienceActivity(ActivityRecord):
    """One serving-resilience happening: circuit-breaker transitions,
    session migrations, deadline rejections, retries, planned drains and
    periodic device-health scores.  Everything is stamped on the virtual
    clock, so two chaos runs with the same seed produce identical
    resilience tracks."""

    kind: ClassVar[str] = "resilience"

    #: 'breaker_open' | 'breaker_half_open' | 'breaker_closed' | 'migrate'
    #: | 'deadline' | 'retry' | 'drain' | 'resume' | 'health'
    op: str = ""
    session: int = -1
    request: int = -1
    state: str = ""                  # breaker state after a transition
    target: int = -1                 # migration target device
    score: float = -1.0              # health score (op == 'health')
    nbytes: int = 0                  # bytes migrated, if relevant
    detail: str = ""


class ActivityRecorder:
    """Bounded ring buffer of :class:`ActivityRecord` instances."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("recorder capacity must be positive")
        self.capacity = int(capacity)
        self._buf: deque[ActivityRecord] = deque(maxlen=self.capacity)
        #: records pushed out of the full ring (oldest-first loss)
        self.dropped = 0
        #: total records ever emitted (dropped + retained)
        self.emitted = 0

    def emit(self, record: ActivityRecord) -> None:
        if len(self._buf) == self.capacity:
            self.dropped += 1
        self.emitted += 1
        self._buf.append(record)

    # -- access ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[ActivityRecord]:
        return iter(self._buf)

    def records(self, *kinds: str) -> list[ActivityRecord]:
        """Retained records in emission order, optionally filtered by kind."""
        if not kinds:
            return list(self._buf)
        wanted = set(kinds)
        return [r for r in self._buf if r.kind in wanted]

    def identities(self, *kinds: str) -> list[dict]:
        """Deterministic view of the retained records (volatile fields
        stripped) — what equivalent runs must agree on."""
        return [r.identity() for r in self.records(*kinds)]

    def clear(self) -> None:
        self._buf.clear()
        self.dropped = 0
        self.emitted = 0


class DeviceRecorder:
    """A view of a shared :class:`ActivityRecorder` that stamps every
    emitted record with one device ordinal.

    Multi-device runs hand each simulated driver its own ``DeviceRecorder``
    over a single shared ring, so the merged activity stream stays in
    emission order while every record remains attributable to the device
    that produced it (the chrome exporter splits tracks on this field).
    Read access delegates to the underlying recorder.
    """

    def __init__(self, base: ActivityRecorder, device: int):
        self.base = base
        self.device = int(device)

    def emit(self, record: ActivityRecord) -> None:
        if record.device is None:
            record.device = self.device
        self.base.emit(record)

    # -- delegated read access ---------------------------------------------
    @property
    def capacity(self) -> int:
        return self.base.capacity

    @property
    def dropped(self) -> int:
        return self.base.dropped

    @property
    def emitted(self) -> int:
        return self.base.emitted

    def __len__(self) -> int:
        return len(self.base)

    def __iter__(self) -> Iterator[ActivityRecord]:
        return iter(self.base)

    def records(self, *kinds: str) -> list[ActivityRecord]:
        return self.base.records(*kinds)

    def identities(self, *kinds: str) -> list[dict]:
        return self.base.identities(*kinds)

    def clear(self) -> None:
        self.base.clear()


def resolve_profile(spec) -> tuple[Optional[ActivityRecorder], Optional[str]]:
    """Resolve a user-facing profile spec into ``(recorder, trace_path)``.

    ``spec`` may be:

    * ``None``/``False``/``''``/``'off'``/``'0'`` — disabled;
    * ``True``/``'on'``/``'1'`` — enabled, in-memory only;
    * an ``int`` — enabled with that ring capacity;
    * a path string — enabled, trace exported there at end of run;
    * an :class:`ActivityRecorder` — use the caller's recorder (lets tests
      and tools share one buffer across drivers).
    """
    if isinstance(spec, (ActivityRecorder, DeviceRecorder)):
        return spec, None
    if spec is None or spec is False or spec in ("", "off", "0"):
        return None, None
    if spec is True or spec in ("on", "1"):
        return ActivityRecorder(), None
    if isinstance(spec, int):
        return ActivityRecorder(capacity=spec), None
    if isinstance(spec, str):
        return ActivityRecorder(), spec
    raise ValueError(f"bad profile spec {spec!r}")
