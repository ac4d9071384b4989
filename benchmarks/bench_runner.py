"""The one command line for the eight benchmark gates.

    PYTHONPATH=src python benchmarks/bench_runner.py GATE [--check]
        [--output P] [--update-budget]

A gate is a list of points and a list of invariants.  ``points(check)``
yields one spec per run (``--check`` picks the CI smoke sizes);
:func:`run_point` runs a spec and returns the record every gate shares,
``{point, wall_s, simulated_s, digest, counters}``; ``failures(records,
budget)`` returns one message per broken invariant.  The runner writes
``BENCH_<gate>.json`` at the repository root as ``{gate, check, records,
failures, ok}``, prints every failure as ``[bench] FAIL ...`` and exits 1
if there is one.  With ``--check``, ``failures`` also gets the gate's
checked-in budget, ``benchmarks/<gate>_budget.json``, which
``--update-budget`` first rewrites from the run.

Gates:

``kernel-fastpath``
    gemm/mvt/atax in sampled mode with the tree-walk kernel engine
    (``off``) and the compiled one (``on``): outputs, modelled time and
    the summed ``KernelStats`` memory counters of the launches
    (:class:`KernelCounters`) identical, and the compiled engine not
    slower.
``host-fastpath``
    the host-heavy gemm/mvt/atax of :mod:`repro.bench.hostinit` with the
    host fast path off and on: outputs, stdout and modelled time
    bit-identical, every workload at least 3x faster and two of three at
    least 10x, no function tree-walked with the fast path on (``main``
    included), and the second compile of each source a disk-cache hit.
    A triangular case runs both its nests per row and must clear 10x
    on its own.
``profile-overhead``
    gramschmidt:256 in sampled mode (one kernel launch per column, so
    over a thousand activity records) with profiling off and on, best of
    4 alternating runs: enabling the profiler costs at most 10%.
``shard``
    gemm:128 on one device and with ``shard(4)`` on four: bit-identical,
    and every device launched a shard.
``reductions``
    see ``bench_reductions.py``.
``portability``
    see ``bench_portability.py``.
``serving`` / ``resilience``
    see ``bench_serving.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

import bench_portability
import bench_reductions
import bench_serving
from bench_portability import app_spec, shard_source

from repro.bench import get_app
from repro.bench.hostinit import CHECK_SIZES, HOST_WORKLOADS, ROWS_WORKLOAD
from repro.ompi.cache import CompileCache
from repro.ompi.config import OmpiConfig
from repro.ompi.diskcache import DiskCompileCache

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def output_digest(run, outputs: Iterable[str]) -> str:
    """sha256 of the output arrays' bytes, then stdout (16 hex digits)."""
    h = hashlib.sha256()
    for name in outputs:
        h.update(run.machine.global_array(name).tobytes())
    h.update(run.stdout.encode())
    return h.hexdigest()[:16]


def run_point(spec: dict) -> dict:
    """Run one point; returns ``{point, wall_s, simulated_s, digest,
    counters}``.

    A program spec holds ``source``, ``name`` and ``outputs``, and may
    hold ``config`` (:class:`OmpiConfig` fields), ``run``
    (``CompiledProgram.run`` arguments), ``cache`` (the compile cache to
    compile through), ``counters`` (``run -> dict``) and ``patch`` (a
    context manager around compile and run).  ``wall_s`` times the run
    alone, so a cold or warm compile does not skew a mode comparison.
    A load spec holds ``load`` instead: a callable that does its own work
    and returns ``(simulated_s, digest, counters)``.
    """
    with spec.get("patch") or nullcontext():
        if "load" in spec:
            t0 = time.perf_counter()
            simulated_s, digest, counters = spec["load"]()
            wall = time.perf_counter() - t0
        else:
            cache = spec["cache"] if "cache" in spec else CompileCache()
            prog = cache.get(spec["source"], spec["name"],
                             OmpiConfig(**spec.get("config", {})))
            t0 = time.perf_counter()
            run = prog.run(**spec.get("run", {}))
            wall = time.perf_counter() - t0
            simulated_s = run.measured_time
            digest = output_digest(run, spec["outputs"])
            counters = spec["counters"](run) if spec.get("counters") else {}
    return {"point": spec["point"], "wall_s": round(wall, 4),
            "simulated_s": simulated_s, "digest": digest,
            "counters": counters}


def pairs(records: list[dict]) -> list[tuple[dict, dict]]:
    """Consecutive records two by two: the two modes of one point."""
    return list(zip(records[::2], records[1::2]))


def _base(record: dict) -> str:
    return record["point"].rpartition("/")[0]


# ------------------------------------------------------------ kernel-fastpath

#: the paper's kernel-heavy applications used for the headline numbers
KERNEL_POINTS = (("gemm", 256), ("mvt", 2048), ("atax", 2048))
KERNEL_CHECK_POINTS = (("gemm", 128),)


class KernelCounters:
    """Sums the memory counters (and ``instructions``) of every launch the
    functional engine runs while it is entered: a ``patch`` and the
    ``counters`` of one spec."""

    FIELDS = ("global_transactions", "global_mem_instructions",
              "load_instructions", "store_instructions", "shared_accesses",
              "local_accesses", "instructions")

    def __enter__(self):
        from repro.cuda.sim.engine import FunctionalEngine

        self.sums = dict.fromkeys(self.FIELDS, 0)
        self._engine = FunctionalEngine
        real = self._real = FunctionalEngine.launch

        def launch(engine, *args, **kw):
            stats = real(engine, *args, **kw)
            for name in self.FIELDS:
                self.sums[name] += getattr(stats, name)
            return stats

        FunctionalEngine.launch = launch
        return self

    def __exit__(self, *exc) -> None:
        self._engine.launch = self._real

    def __call__(self, run) -> dict:
        return {"kernel_stats": dict(self.sums)}


def kernel_points(check: bool):
    for name, n in KERNEL_CHECK_POINTS if check else KERNEL_POINTS:
        app = get_app(name)
        for mode in ("off", "on"):
            counters = KernelCounters()
            yield app_spec(f"{name}:{n}/{mode}", app, n,
                           config={"kernel_fastpath": mode},
                           counters=counters, patch=counters,
                           launch_mode="sample")


def kernel_failures(records: list[dict], budget: dict) -> list[str]:
    out = []
    for off, on in pairs(records):
        label = _base(off)
        if off["digest"] != on["digest"]:
            out.append(f"{label}: outputs diverged between modes")
        if off["simulated_s"] != on["simulated_s"]:
            out.append(f"{label}: simulated time diverged between modes")
        if off["counters"] != on["counters"]:
            out.append(f"{label}: KernelStats memory counters diverged "
                       "between modes")
        speedup = off["wall_s"] / max(on["wall_s"], 1e-9)
        if speedup < 1.0:
            out.append(f"{label}: fast path slower than reference "
                       f"({speedup:.2f}x)")
    return out


# -------------------------------------------------------------- host-fastpath

#: speedup every host-heavy workload must clear
HOST_SPEEDUP_FLOOR = 3.0
#: speedup two of the three must clear, and the per-row case on its own
HOST_SPEEDUP = 10.0
#: loop nests each program runs over its whole index grid: every init
#: nest, mvt's transposed fold and atax's A.tmp / A^T.t nest
HOST_NESTS = {"gemm": 1, "mvt": 2, "atax": 2}
#: loop nests each program runs per row: the triangular fill and fold,
#: whose inner ranges move with the row
HOST_ROW_NESTS = {"triangle": 2}
_CACHE_KEYS = ("hits", "misses", "compiles", "disk_hits", "disk_misses")


def host_points(check: bool):
    """Both modes compile through a fresh in-memory tier (two processes,
    in effect) over one shared disk tier: the config fingerprint excludes
    runtime knobs, so the ``on`` compile must be a disk hit, which skips
    the whole cfront parse/outline/codegen pipeline."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        for name, w in [*HOST_WORKLOADS.items(),
                        (ROWS_WORKLOAD.name, ROWS_WORKLOAD)]:
            n = CHECK_SIZES[name] if check else w.default_n
            for mode in ("off", "on"):
                cache = CompileCache(disk=DiskCompileCache(root))
                yield {"point": f"{name}:{n}/{mode}", "source": w.source(n),
                       "name": f"{name}_host", "outputs": w.outputs,
                       "cache": cache, "config": {"host_fastpath": mode},
                       "run": {"launch_mode": "sample",
                               "heap_capacity": w.heap_capacity(n)},
                       "counters": lambda run, c=cache: {
                           **{k: c.stats[k] for k in _CACHE_KEYS},
                           **run.machine.host_stats}}


def host_failures(records: list[dict], budget: dict) -> list[str]:
    out = []
    cleared = 0
    for off, on in pairs(records):
        label = _base(off)
        if off["digest"] != on["digest"]:
            out.append(f"{label}: outputs or stdout differ between modes")
        if off["simulated_s"] != on["simulated_s"]:
            out.append(f"{label}: simulated time differs between modes")
        cc = on["counters"]
        if cc["compiles"] != 0 or cc["disk_hits"] != 1:
            out.append(f"{label}: second compile not served from the disk "
                       f"cache")
        name = label.partition(":")[0]
        nests = HOST_NESTS.get(name, 0)
        if (cc["nest_whole"], cc["nest_rows"], cc["loop_fallback"],
                cc["loop_unplanned"]) \
                != (nests, HOST_ROW_NESTS.get(name, 0), 0, 0):
            out.append(f"{label}: {cc['nest_whole']}/{nests} nests ran "
                       f"whole, {cc['nest_rows']} per row, "
                       f"{cc['loop_fallback']} loops tree-walked, "
                       f"{cc['loop_unplanned']} run with no loop plan")
        if cc["fn_fallback"] != 0:
            out.append(f"{label}: {cc['fn_fallback']} functions "
                       f"tree-walked (the offload driver runs compiled)")
        speedup = off["wall_s"] / max(on["wall_s"], 1e-9)
        floor = HOST_SPEEDUP_FLOOR
        if name in HOST_WORKLOADS:
            cleared += speedup >= HOST_SPEEDUP
        else:
            floor = HOST_SPEEDUP
        if speedup < floor:
            out.append(f"{label}: speedup {speedup:.2f}x below the "
                       f"{floor}x floor")
    if cleared < 2:
        out.append(f"only {cleared}/{len(HOST_WORKLOADS)} workloads "
                   f"cleared the {HOST_SPEEDUP}x speedup (need 2)")
    return out


# ----------------------------------------------------------- profile-overhead

#: permitted wall-clock cost of enabling the activity recorder
PROFILE_OVERHEAD_LIMIT = 0.10
PROFILE_POINT = ("gramschmidt", 256)
PROFILE_REPEATS = 4


def overhead_points(check: bool):
    name, n = PROFILE_POINT
    app = get_app(name)
    for i in range(PROFILE_REPEATS):
        # alternate which mode runs first, so host drift hits both
        for mode in ("off", "on") if i % 2 == 0 else ("on", "off"):
            yield app_spec(f"{name}:{n}/{mode}", app, n,
                           config={"profile": True} if mode == "on" else {},
                           launch_mode="sample",
                           counters=lambda run: {"records": (
                               run.profile.emitted if run.profile else 0)})


def overhead_failures(records: list[dict], budget: dict) -> list[str]:
    best = {mode: min(r["wall_s"] for r in records
                      if r["point"].endswith("/" + mode))
            for mode in ("off", "on")}
    out = []
    overhead = best["on"] / max(best["off"], 1e-9) - 1.0
    if overhead > PROFILE_OVERHEAD_LIMIT:
        out.append(f"profiler overhead {overhead * 100:.1f}% exceeds "
                   f"{PROFILE_OVERHEAD_LIMIT * 100:.0f}%")
    if not any(r["counters"]["records"] for r in records):
        out.append("the profiled runs emitted no activity records")
    return out


# ---------------------------------------------------------------------- shard

SHARDS = 4


def shard_points(check: bool):
    """Sharded launches never sample, so both sides run every block."""
    app, n = get_app("gemm"), 128
    yield app_spec(f"gemm:{n}/single", app, n, name="gemm_single",
                   config={"num_devices": 1, "profile": False},
                   launch_mode="full")
    yield app_spec(f"gemm:{n}/shard({SHARDS})", app, n,
                   source=shard_source(app.omp_source(n), SHARDS),
                   name="gemm_sharded",
                   config={"num_devices": SHARDS, "profile": True},
                   launch_mode="full",
                   counters=lambda run: {"devices_used": sorted(
                       {r.device for r in run.profile.records("kernel")})})


def shard_failures(records: list[dict], budget: dict) -> list[str]:
    single, sharded = records
    out = []
    if single["digest"] != sharded["digest"]:
        out.append("sharded output differs from single-device run")
    used = sharded["counters"]["devices_used"]
    if used != list(range(SHARDS)):
        out.append(f"expected kernels on devices {list(range(SHARDS))}, "
                   f"got {used}")
    return out


# ---------------------------------------------------------------------- gates

class Gate(NamedTuple):
    points: Callable[[bool], Iterable[dict]]
    failures: Callable[[list, dict], list]
    #: records -> the budget file's new contents (gates with a budget)
    budget: Optional[Callable[[list], dict]] = None


GATES = {
    "kernel-fastpath": Gate(kernel_points, kernel_failures),
    "host-fastpath": Gate(host_points, host_failures),
    "profile-overhead": Gate(overhead_points, overhead_failures),
    "shard": Gate(shard_points, shard_failures),
    "reductions": Gate(bench_reductions.points, bench_reductions.failures),
    "portability": Gate(bench_portability.points,
                        bench_portability.failures),
    "serving": Gate(bench_serving.points, bench_serving.failures,
                    bench_serving.budget),
    "resilience": Gate(bench_serving.chaos_points,
                       bench_serving.chaos_failures,
                       bench_serving.chaos_budget),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("gate", choices=GATES)
    ap.add_argument("--check", action="store_true",
                    help="CI smoke sizes, checked against the gate's budget")
    ap.add_argument("--output", default=None,
                    help="artifact path (default: BENCH_<gate>.json at the "
                         "repository root)")
    ap.add_argument("--update-budget", action="store_true",
                    help="rewrite benchmarks/<gate>_budget.json from this "
                         "run before checking against it")
    args = ap.parse_args(argv)
    gate = GATES[args.gate]
    stem = args.gate.replace("-", "_")
    budget_path = HERE / f"{stem}_budget.json"
    if args.update_budget and gate.budget is None:
        ap.error(f"the {args.gate} gate has no budget")

    records = []
    for spec in gate.points(args.check):
        print(f"[bench] {args.gate} {spec['point']} ...", flush=True)
        rec = run_point(spec)
        print(f"[bench]   wall {rec['wall_s']}s  simulated "
              f"{rec['simulated_s']}  digest {rec['digest']}", flush=True)
        records.append(rec)

    if args.update_budget:
        budget_path.write_text(json.dumps(gate.budget(records), indent=2)
                               + "\n")
        print(f"[bench] wrote {budget_path}")
    budget = (json.loads(budget_path.read_text())
              if args.check and budget_path.exists() else {})
    failures = gate.failures(records, budget)
    out_path = Path(args.output or ROOT / f"BENCH_{stem}.json")
    out_path.write_text(json.dumps(
        {"gate": args.gate, "check": args.check, "records": records,
         "failures": failures, "ok": not failures}, indent=2) + "\n")
    print(f"[bench] wrote {out_path}")
    for msg in failures:
        print(f"[bench] FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
