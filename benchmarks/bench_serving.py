"""Serving gates: many concurrent sessions over a shared registry.

Simulates an open-loop multi-tenant workload against the persistent
:class:`repro.serving.OffloadServer`: sessions arrive in bursts on the
virtual clock, submit small offload programs (several distinct kernels,
so the compile cache and the batcher both see a mix), and run multiple
rounds so warm-state reuse and quota-driven eviction are exercised.
Every completed request must equal a standalone ``CompiledProgram.run``
of the same program and seed.

``bench_runner.py serving [--check]`` runs the load (64 sessions over 4
devices with ``--check``, 256 without) and the cold vs warm
time-to-first-launch of two servers sharing one compile cache.  It fails
on any failed request, output divergence, p99 latency above the
checked-in budget (``benchmarks/serving_budget.json``), warm TTFL speedup
below 5x, no multi-request batches, an idle device or no evictions.

``bench_runner.py resilience`` runs the 64x4 load fault-free and under
``devlost:p=0.02,seed=42`` (each launch may stickily kill its device,
with per-device decorrelated draws).  It fails on output divergence, a
request that neither completes nor carries a *typed* rejection
(``DeadlineExceeded``/``QuotaError``), a chaos run that lost no device or
triggered no failover, or chaos p99 inflation over the fault-free p99
above ``benchmarks/resilience_budget.json``.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np

from repro.ompi.cache import CompileCache
from repro.ompi.config import OmpiConfig
from repro.serving import OffloadServer, TenantQuota

#: simulated seconds between arrival bursts
BURST_GAP_S = 0.0005
#: sessions arriving in one burst (same arrival instant — the
#: deterministic session-id tie-break orders them)
BURST_SIZE = 8


def _vadd_src(n: int) -> str:
    return f"""
float a[{n}], b[{n}], c[{n}];
int main(void) {{
  #pragma omp target teams distribute parallel for map(to: a, b) map(from: c)
  for (int i = 0; i < {n}; i++) c[i] = a[i] * 2.0f + b[i];
  return 0;
}}
"""


def _scale_src(n: int) -> str:
    return f"""
float x[{n}], y[{n}];
int main(void) {{
  #pragma omp target teams distribute parallel for map(to: x) map(tofrom: y)
  for (int i = 0; i < {n}; i++) y[i] = 2.5f * x[i] + y[i];
  return 0;
}}
"""


def _gemm_src(n: int) -> str:
    return f"""
float A[{n}][{n}], B[{n}][{n}], C[{n}][{n}];
int main(void) {{
  #pragma omp target teams distribute parallel for collapse(2) \\
      map(to: A, B) map(tofrom: C)
  for (int i = 0; i < {n}; i++)
    for (int j = 0; j < {n}; j++) {{
      float acc = 0.0f;
      for (int k = 0; k < {n}; k++) acc = acc + A[i][k] * B[k][j];
      C[i][j] = acc;
    }}
  return 0;
}}
"""


def _seeded(shape, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random(shape, dtype=np.float32)


class ProgramDef:
    def __init__(self, name: str, source: str, seed_arrays: dict,
                 outputs: tuple):
        self.name = name
        self.source = source
        self.seed_arrays = seed_arrays
        self.outputs = outputs


def program_mix() -> list[ProgramDef]:
    n = 64
    g = 8
    return [
        ProgramDef("vadd", _vadd_src(n),
                   {"a": _seeded(n, 1), "b": _seeded(n, 2)}, ("c",)),
        ProgramDef("scale", _scale_src(n),
                   {"x": _seeded(n, 3), "y": _seeded(n, 4)}, ("y",)),
        ProgramDef("gemm", _gemm_src(g),
                   {"A": _seeded((g, g), 5), "B": _seeded((g, g), 6),
                    "C": np.zeros((g, g), dtype=np.float32)}, ("C",)),
    ]


def standalone_reference(progdef: ProgramDef, cache: CompileCache,
                         config: OmpiConfig) -> dict[str, bytes]:
    """One classic (non-serving) run of the program — the bytes every
    session's result must match exactly."""
    prog = cache.get(progdef.source, progdef.name, config)
    run = prog.run(seed_arrays=progdef.seed_arrays, num_devices=1)
    return {out: np.asarray(run.machine.global_array(out)).tobytes()
            for out in progdef.outputs}


#: the quota that makes the idle sessions' parked buffers evictable
QUOTA = TenantQuota(max_resident_bytes=512)
DEVICES = 4
#: the chaos plan: every kernel launch may stickily lose its device
FAULT_SPEC = "devlost:p=0.02,seed=42"
#: generous per-request deadline budget (simulated seconds) — active so
#: late completions become typed rejections, loose enough that the
#: fault-free run never hits it
DEADLINE_S = 0.25
#: rejection prefixes that count as *typed* (everything else is silent
#: degradation and fails the gate)
TYPED = ("DeadlineExceeded", "QuotaError")


def load_test(num_sessions: int, num_devices: int, rounds: int,
              cache: CompileCache | None = None, faults=None,
              deadline=None, quota: TenantQuota | None = QUOTA,
              idle: int = BURST_SIZE) -> tuple:
    """Run ``rounds`` of bursts; after the first round the first ``idle``
    sessions go quiet, so quota pressure evicts their warm state.

    Returns ``(makespan_s, digest, counters)``: the simulated span from
    the first arrival to the last completion, the sha256 of every
    completed request's outputs in submission order, and the server's
    summary plus the gate counters.
    """
    config = OmpiConfig()
    cache = cache if cache is not None else CompileCache()
    programs = program_mix()
    server = OffloadServer(
        num_devices=num_devices, config=config, compile_cache=cache,
        default_quota=quota, faults=faults, deadline=deadline)
    sessions = [server.open_session(f"tenant{i % 8}")
                for i in range(num_sessions)]
    requests = []
    t = 0.0
    for r in range(rounds):
        active = sessions[idle:] if r else sessions
        for start in range(0, len(active), BURST_SIZE):
            for s in active[start:start + BURST_SIZE]:
                # one program per session, stable across rounds, so later
                # rounds hit the session's parked buffers
                p = programs[s.sid % len(programs)]
                requests.append(server.submit(
                    s, p.source, name=p.name, seed_arrays=p.seed_arrays,
                    outputs=p.outputs, arrival=t))
            t += BURST_GAP_S
        server.drain()
        t = max(t, server.clock.now())

    refs = {p.name: standalone_reference(p, cache, config)
            for p in programs}
    h = hashlib.sha256()
    mismatches = untyped = 0
    for req in requests:
        if req.status == "done":
            for out, arr in req.result.items():
                got = np.asarray(arr).tobytes()
                h.update(got)
                mismatches += got != refs[req.name][out]
        elif not (req.status == "rejected"
                  and (req.error or "").startswith(TYPED)):
            untyped += 1
    done_times = [r.done_time for r in requests if r.status == "done"]
    makespan = (max(done_times) - min(r.arrival for r in requests)
                if done_times else 0.0)
    counters = {**server.summary(),
                "sessions": num_sessions, "devices": num_devices,
                "requests": len(requests),
                "untyped_failures": untyped,
                "output_mismatches": mismatches,
                "devices_used": sorted({r.session.device for r in requests}),
                "lost_devices": [k for k, m in enumerate(server.devices)
                                 if m.lost]}
    counters["compile_cache"] = {k: v for k, v in cache.stats.items()
                                 if k != "compile_wall_s"}
    server.close()
    return makespan, h.hexdigest()[:16], counters


def _ttfl(cache: CompileCache) -> tuple:
    """One server's first requests: their mean host wall-clock time to
    first kernel submission."""
    server = OffloadServer(num_devices=1, compile_cache=cache)
    sess = server.open_session("ttfl")
    for p in program_mix():
        server.submit(sess, p.source, name=p.name,
                      seed_arrays=p.seed_arrays, outputs=p.outputs)
    ttfl = [r.ttfl for r in server.drain() if r.ttfl is not None]
    now = server.clock.now()
    server.close()
    return now, None, {"ttfl_wall_s": float(np.mean(ttfl)) if ttfl else 0.0}


def points(check: bool):
    """The load, then two servers sharing one compile cache: the second
    skips the whole OMPi+nvcc pipeline and must reach its first kernel
    submission at least 5x sooner."""
    sessions = 64 if check else 256
    yield {"point": f"load:{sessions}x{DEVICES}",
           "load": partial(load_test, sessions, DEVICES, 3)}
    cache = CompileCache()
    for phase in ("cold", "warm"):
        yield {"point": f"ttfl/{phase}", "load": partial(_ttfl, cache)}


def failures(records: list[dict], budget: dict) -> list[str]:
    load, cold, warm = records
    c = load["counters"]
    out = []
    if c["failed"]:
        out.append(f"{c['failed']} requests failed")
    if c["output_mismatches"]:
        out.append(f"{c['output_mismatches']} outputs diverged from the "
                   f"standalone run")
    if c["completed"] != c["requests"]:
        out.append(f"only {c['completed']}/{c['requests']} requests "
                   f"completed")
    p99_budget = budget.get("p99_latency_s")
    if p99_budget is not None and c["latency_p99_s"] > p99_budget:
        out.append(f"p99 latency {c['latency_p99_s']:.6f}s exceeds budget "
                   f"{p99_budget:.6f}s")
    cold_s = cold["counters"]["ttfl_wall_s"]
    warm_s = warm["counters"]["ttfl_wall_s"]
    speedup = cold_s / warm_s if warm_s else 0.0
    if speedup < 5.0:
        out.append(f"warm TTFL speedup {speedup:.2f}x below 5x")
    if not any(int(k) > 1 for k in c["batch_histogram"]):
        out.append("no multi-request batches were formed")
    if c["devices_used"] != list(range(c["devices"])):
        out.append(f"expected sessions on devices "
                   f"{list(range(c['devices']))}, got {c['devices_used']}")
    if c["evictions"] == 0:
        out.append("quota pressure produced no evictions")
    return out


def budget(records: list[dict]) -> dict:
    c = records[0]["counters"]
    return {"p99_latency_s": round(c["latency_p99_s"] * 1.5, 6),
            "source": f"{c['sessions']} sessions x {c['devices']} devices"}


# ----------------------------------------------------------------- resilience


def chaos_points(check: bool):
    """Fault-free, then under :data:`FAULT_SPEC`, through one compile
    cache, with every session active in both rounds and no quota."""
    cache = CompileCache()
    for label, faults in (("baseline", None), ("chaos", FAULT_SPEC)):
        yield {"point": f"load:64x{DEVICES}/{label}",
               "load": partial(load_test, 64, DEVICES, 2, cache=cache,
                               faults=faults, deadline=DEADLINE_S,
                               quota=None, idle=0)}


def _inflation(base: dict, chaos: dict) -> float:
    p99 = base["counters"]["latency_p99_s"]
    return chaos["counters"]["latency_p99_s"] / p99 if p99 else 0.0


def chaos_failures(records: list[dict], budget: dict) -> list[str]:
    base, chaos = records
    out = []
    for r in records:
        label, c = r["point"].rpartition("/")[2], r["counters"]
        if c["output_mismatches"]:
            out.append(f"{label}: {c['output_mismatches']} outputs diverged "
                       f"from the standalone run")
        if c["untyped_failures"]:
            out.append(f"{label}: {c['untyped_failures']} requests neither "
                       f"completed nor typed-rejected")
    b, c = base["counters"], chaos["counters"]
    if b["completed"] != b["requests"]:
        out.append(f"baseline: only {b['completed']}/{b['requests']} "
                   f"requests completed")
    if not c["lost_devices"]:
        out.append("chaos: the fault plan lost no device — the run "
                   "exercised nothing")
    if c["retries"] == 0 and c["migrations"] == 0:
        out.append("chaos: device loss triggered no failover (no retries, "
                   "no migrations)")
    factor = budget.get("p99_inflation_max")
    if factor is not None and _inflation(base, chaos) > factor:
        out.append(f"chaos p99 inflation {_inflation(base, chaos):.2f}x "
                   f"exceeds budget {factor:.2f}x")
    return out


def chaos_budget(records: list[dict]) -> dict:
    c = records[0]["counters"]
    return {"p99_inflation_max":
            round(max(_inflation(*records), 1.0) * 1.5, 2),
            "source": f"{c['sessions']} sessions x {c['devices']} devices, "
                      f"{FAULT_SPEC}"}
