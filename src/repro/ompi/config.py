"""OMPi configuration (the knobs of the real compiler's configure step).

A runtime field left ``None`` defers to its ``REPRO_*`` environment
variable; :mod:`repro.settings` holds the one precedence rule (explicit
argument > config field > environment > default)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class OmpiConfig:
    #: kernel binary mode (paper §3.3): 'cubin' (default: everything compiled
    #: and linked ahead of time) or 'ptx' (JIT at first launch + disk cache)
    binary_mode: str = "cubin"
    #: target architecture for cubins
    arch: str = "sm_53"
    #: threads per block for master/worker kernels (paper §4.2.2: fixed 128,
    #: matching the 128 cores of the Nano's single SM)
    mw_block_threads: int = 128
    #: default threads per block for combined constructs without num_threads
    default_num_threads: int = 128
    #: how a flat num_threads value maps to 2D block dimensions: OMPi "maps
    #: these values to two dimensions, so as to match the block and grid
    #: dimensions of the equivalent cuda applications" (§5).  None applies
    #: the default rule (x = min(n, 32), y = n/32); a tuple forces a shape.
    block_shape: Optional[tuple[int, int, int]] = None
    #: emit the generated sources into this dict for inspection (--keep)
    keep_generated: bool = True
    #: closure-compiled kernel execution ('on' by default, 'off', 'verify'):
    #: 'verify' runs both the compiled fast path and the tree-walk reference
    #: on every launch and fails if memory, stdout or stats diverge.
    kernel_fastpath: Optional[str] = None
    #: closure-compiled *host* execution ('on' by default, 'off', 'verify').
    #: Loop nests and whole functions of the recognised C subset run as
    #: vectorized numpy plans (cfront/hostcompile.py); 'verify' runs every
    #: compiled region against the tree-walk interpreter and fails on any
    #: memory or result divergence.
    host_fastpath: Optional[str] = None
    #: activity profiling (repro.prof), off by default:
    #: True/'on' enables recording; a string enables recording *and* names
    #: the Chrome-trace JSON written when the program finishes; an int sets
    #: the ring-buffer capacity; an ActivityRecorder instance is used as-is
    #: (lets callers inspect records directly); False/'off' disables.
    profile: object = None
    #: fault injection (repro.faults), off by default: a spec
    #: string (preset name or 'kind@api:key=val,...;...' rules), FaultPlan
    #: or FaultInjector enables injection; False/'off' disables.
    faults: object = None
    #: recovery policy: None uses defaults; a RecoveryPolicy or a string
    #: like 'retries=5,backoff=1e-3,fallback=off' overrides.
    recovery: object = None
    #: number of simulated CUDA devices in the runtime's registry
    #: (default 1).  Each device gets its own
    #: driver state, memory arena, stream pool, data environment and fault
    #: domain; device(k) routes to device k and shard(n) splits a target
    #: teams distribute across the first n healthy devices.
    num_devices: Optional[int] = None
    #: heterogeneous device registry: a spec ("nano,v100"), a sequence of
    #: backend names / DeviceBackend objects, or None (the homogeneous
    #: num_devices path).  Overrides
    #: num_devices when set; device(k) then routes to the k-th named
    #: backend.  Runtime-only: the registry shape never changes generated
    #: code, so it stays out of the compile-cache fingerprint (the
    #: per-device *arch* enters via image retargeting at bind time).
    devices: object = None
    #: reduction lowering mode: 'tree' (default — deterministic warp-
    #: shuffle + shared-memory tree within each team, fixed-order
    #: cross-team combine on copy-back; bit-identical to the sequential
    #: loop and across device counts / shard(n)) or 'atomic' (legacy
    #: baseline — every thread merges straight into the mapped scalar
    #: with atomic RMWs; order-dependent for floats, not shard-safe).
    #: Changes generated code, so it enters the compile-cache fingerprint.
    reduction_mode: str = "tree"
    #: serving: default per-request deadline budget in modelled seconds
    #: (none by default; ''/'off'/0 disables).  The
    #: offload server applies it as arrival + budget; requests past the
    #: bound are rejected with a typed DeadlineExceeded.  Runtime-only —
    #: stays out of the compile-cache fingerprint.
    serve_deadline: object = None
    #: serving: per-device circuit-breaker policy — default knobs unless
    #: set: a BreakerPolicy passes through,
    #: 'off' disables, or 'threshold=2,cooldown=1e-3' overrides knobs.
    #: Runtime-only — stays out of the compile-cache fingerprint.
    breaker: object = None

    def block_dims(self, num_threads: int) -> tuple[int, int, int]:
        if self.block_shape is not None:
            return self.block_shape
        n = max(1, num_threads)
        if n <= 32:
            return (n, 1, 1)
        x = 32
        y = max(1, n // 32)
        return (x, y, 1)
