"""The five workloads of the end-to-end benchmark, and the process that
runs one of them.

    python benchmarks/e2e/workloads.py --workload NAME --seed N --seconds S
        --t0 T [--trace] [--smoke] [--setup-only] [--golden PATH]
        [--artifacts PREFIX]

``run.py`` starts this in a fresh interpreter with a pinned environment.
The process builds the workload (set-up, timed from ``--t0``, the
parent's monotonic clock just before it spawned this process), then runs
whole rounds of the workload's fixed op list until ``--seconds`` have
passed.  Every op's output is checked after its timed call; the records
of round 0 are compared with ``golden.json``.  The last stdout line
is one JSON object with the samples, which ``run.py`` turns into
metrics.

Every time is scaled to a host of reference speed: before the first op
of each round, before every op that follows ``PROBE_EVERY_S`` of timed
work, and after set-up, :func:`host_probe` times a fixed piece of
interpreter and numpy work, and the times that follow are multiplied by
``REF_PROBE_S / probe``.  A shared host that runs the whole process up
to 1.7x slower for minutes (as shared 2-vCPU cloud VMs do) then moves
the probe as much as the workload, and the scaled times stay put; a
change to the program moves only the workload.  The raw times are
reported beside the scaled ones.

With ``--trace`` the rounds alternate between untraced and traced (the
:class:`layers.Tracer` wrappers installed), so the trace's own overhead
is measured in the same process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[2]
# the reduction and serving programs are the ones their gate benchmarks use
sys.path.insert(0, str(ROOT / "benchmarks"))

import numpy as np  # noqa: E402

from repro.bench import harness  # noqa: E402
from repro.bench.hostinit import HOST_WORKLOADS  # noqa: E402
from repro.bench.suite import ALL_APPS, EXTENDED_APP_NAMES, get_app  # noqa: E402
from repro.ompi import OmpiCompiler, OmpiConfig  # noqa: E402
from repro.ompi.cache import CompileCache  # noqa: E402
from repro.ompi.diskcache import DiskCompileCache  # noqa: E402
from repro.serving import OffloadServer, TenantQuota, percentile  # noqa: E402

import bench_reductions  # noqa: E402
import bench_serving  # noqa: E402
from layers import Tracer  # noqa: E402


#: seconds of timed work between two host probes (a probe takes ~19 ms)
PROBE_EVERY_S = 0.25
#: host_probe()'s median time on the reference host (a quiet 2-vCPU Xeon
#: KVM VM, Python 3.11): scaled times equal raw times measured there
REF_PROBE_S = 0.0186


def host_probe() -> float:
    """Seconds a fixed piece of work takes now: integer arithmetic and
    dict stores in the interpreter, then small numpy array ops, the mix
    the workloads spend their time in.  It touches nothing of the
    program under test, so only the host's speed moves it."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(150000):
        table[i & 255] = acc
        acc = (acc * 31 + i) % 1000003
    a = np.arange(4096, dtype=np.float32)
    for _ in range(1500):
        a = a * np.float32(1.0001) + np.float32(0.5)
    return time.perf_counter() - t0


def host_speed() -> float:
    """Host speed relative to the reference host (1.0 = reference, 0.5 =
    half as fast); the median of three probes, as the first probe of a
    process runs slow."""
    return REF_PROBE_S / median(host_probe() for _ in range(3))


class CheckError(Exception):
    """An op's output is wrong."""


def config(**kw) -> OmpiConfig:
    """A config that states every knob the environment could otherwise
    set: fast paths, profiling and fault injection."""
    return OmpiConfig(kernel_fastpath="on", host_fastpath="on",
                      profile=False, faults=False, **kw)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        elif isinstance(part, str):
            part = part.encode()
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def program_record(source: str, run, outputs) -> dict:
    """What a golden file pins for one program run."""
    if run.exit_code != 0:
        raise CheckError(f"exit code {run.exit_code}")
    return {"source_sha256": digest(source),
            "outputs_sha256": digest(*(run.machine.global_array(o)
                                       for o in outputs)),
            "stdout": run.stdout,
            "modelled_s": run.measured_time}


@dataclass
class Op:
    """One timed operation of a workload round."""

    key: str
    #: the timed call
    run: Callable[[], object]
    #: untimed: checks the output and returns its golden record (or None)
    check: Callable[[object], Optional[dict]]
    #: the latency sample of a timed, untraced run, from (output, seconds)
    latency: Callable[[object, float], float] = lambda out, dt: dt


class Workload:
    name = ""
    #: golden record fields that depend on --seed
    seeded_fields: frozenset = frozenset()
    ops: list[Op]

    def start_round(self, r: int) -> None:
        pass

    def end_round(self, r: int) -> None:
        pass

    def extra_records(self) -> dict:
        """Golden records that belong to no single op: a mismatch in one
        fails the whole workload."""
        return {}

    def detail(self, round_walls: list[float], speed: float) -> dict:
        """Workload-specific figures printed beside the metrics, from the
        scaled round walls and the run's median host speed."""
        return {}

    def close(self) -> None:
        pass


class Fig4Sample(Workload):
    """The paper's Figure-4 sweep: OMPi versions of the six apps in
    sampled launch mode, cold compiler per point (as harness.run_ompi)."""

    name = "fig4-sample"
    # a round of about 1.1 s, so that even a host at half speed repeats
    # it some eight times in a run: enough for the medians over rounds
    POINTS = (("3dconv", 128), ("bicg", 128), ("atax", 128), ("mvt", 128),
              ("gemm", 96), ("gramschmidt", 96))
    SMOKE = (("3dconv", 32), ("bicg", 64), ("atax", 64), ("mvt", 64),
             ("gemm", 32), ("gramschmidt", 32))

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.ops = [self._op(get_app(a), n)
                    for a, n in (self.SMOKE if smoke else self.POINTS)]

    @staticmethod
    def _op(app, n: int) -> Op:
        source = app.omp_source(n)
        cfg = config(block_shape=app.block_shape, num_devices=1)
        name = harness._prog_name(app, n)
        heap = harness._heap_capacity(app, n)

        def run():
            prog = OmpiCompiler(cfg).compile(source, name)
            return prog.run(launch_mode="sample", seed_arrays=app.seed(n),
                            heap_capacity=heap)

        return Op(f"{app.name}:{n}", run,
                  lambda out: program_record(source, out, app.outputs))


class ShardReduce(Workload):
    """Reduction kernels split with shard(2) across a nano and a v100,
    every block executed."""

    name = "shard-reduce"
    seeded_fields = frozenset({"outputs_sha256", "modelled_s"})
    # a round of about 0.65 s (see Fig4Sample)
    SIZES = {"correlation": 32, "covariance": 32, "doitgen": 12}
    SMOKE = {"correlation": 16, "covariance": 16, "doitgen": 8}
    REFERENCE = {
        "correlation": lambda n, d: bench_reductions.correlation_ref(
            n, n, d["data"]),
        "covariance": lambda n, d: bench_reductions.covariance_ref(
            n, n, d["data"]),
        "doitgen": lambda n, d: bench_reductions.doitgen_ref(
            n, d["A"], d["C4"]),
    }

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        rng = np.random.default_rng(seed)
        sizes = self.SMOKE if smoke else self.SIZES
        self.ops = []
        for workload in bench_reductions.WORKLOADS:
            n = sizes[workload]
            sources, shapes, array = bench_reductions._sources(workload, n)
            data = {k: rng.random(v.shape, dtype=np.float32)
                    for k, v in shapes.items()}
            self.ops.append(self._op(workload, n, sources["sharded"], data,
                                     array, self.REFERENCE[workload](n, data)))

    @staticmethod
    def _op(workload, n, source, data, array, reference) -> Op:
        cfg = config(devices="nano,v100")

        def run():
            prog = OmpiCompiler(cfg).compile(source, f"{workload}_sharded")
            return prog.run(launch_mode="full", seed_arrays=data,
                            heap_capacity=bench_reductions.HEAP)

        def check(out):
            got = np.asarray(out.machine.global_array(array))
            checksum = float(out.machine.global_array("checksum").item())
            if not np.allclose(got, reference, rtol=2e-3, atol=1e-5):
                raise CheckError("result differs from the numpy reference")
            fold = np.float64(0.0)
            for v in got.ravel():
                fold = np.float64(fold + np.float64(v))
            if checksum != float(fold):
                raise CheckError(f"checksum {checksum!r} is not the "
                                 f"sequential fold {float(fold)!r}")
            return {"source_sha256": digest(source),
                    "outputs_sha256": digest(got, repr(checksum)),
                    "modelled_s": out.measured_time}

        return Op(f"{workload}:{n}", run, check)


class HostInit(Workload):
    """Host-heavy gemm/mvt/atax, compiled once into an in-memory cache in
    set-up, then run."""

    name = "host-init"

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        n = 128 if smoke else 1024
        cfg = config(num_devices=1)
        cache = CompileCache()
        self.ops = []
        for wname, w in HOST_WORKLOADS.items():
            source, name = w.source(n), f"host_{wname}"
            cache.get(source, name, cfg)
            self.ops.append(Op(
                f"{wname}:{n}",
                lambda s=source, p=name, h=w.heap_capacity(n):
                    cache.get(s, p, cfg).run(heap_capacity=h),
                lambda out, s=source, o=w.outputs: program_record(s, out, o)))


class CompileCold(Workload):
    """Sixteen sources compiled cold into a fresh on-disk cache per round,
    then fetched again through a new cache on that root (a disk hit)."""

    name = "compile-cold"
    HOST_SIZES = (256, 512, 1024)
    # bench_reductions builds n^3 seed arrays beside each doitgen source;
    # small cubes keep them from setting the process's peak RSS
    REDUCTION_SIZES = {"correlation": (32, 48, 64, 96),
                       "covariance": (32, 48, 64, 96),
                       "doitgen": (12, 16, 20, 24)}

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.root = tmp
        self.hit_s: list[float] = []
        self.ops = []
        for a in ALL_APPS + EXTENDED_APP_NAMES:
            app = get_app(a)
            n = int(rng.choice(app.sizes))
            self._add(f"{a}:{n}", app.omp_source(n), harness._prog_name(app, n),
                      config(block_shape=app.block_shape))
        for wname, w in HOST_WORKLOADS.items():
            n = int(rng.choice(self.HOST_SIZES))
            self._add(f"host-{wname}:{n}", w.source(n), f"host_{wname}_{n}",
                      config())
        for workload in bench_reductions.WORKLOADS:
            n = int(rng.choice(self.REDUCTION_SIZES[workload]))
            source = bench_reductions._sources(workload, n)[0]["sharded"]
            self._add(f"{workload}-shard:{n}", source,
                      f"{workload}_sharded_{n}", config())

    def _add(self, key: str, source: str, name: str, cfg: OmpiConfig) -> None:
        def run():
            t0 = time.perf_counter()
            cold = CompileCache(disk=DiskCompileCache(self.root))
            prog = cold.get(source, name, cfg)
            t1 = time.perf_counter()
            warm = CompileCache(disk=DiskCompileCache(self.root))
            hit = warm.get(source, name, cfg)
            return cold, prog, warm, hit, t1 - t0, time.perf_counter() - t1

        def check(out):
            cold, prog, warm, hit, _, hit_s = out
            if cold.compiles != 1 or warm.disk_hits != 1 or warm.compiles:
                raise CheckError("the second fetch was not a disk hit")
            if (hit.kernel_sources != prog.kernel_sources
                    or hit.host_source != prog.host_source):
                raise CheckError("the disk hit differs from the cold compile")
            return {"source_sha256": digest(source),
                    "outputs_sha256": digest(prog.host_source, *(
                        k + "\x00" + v
                        for k, v in sorted(prog.kernel_sources.items())))}

        self.ops.append(Op(key, run, check, latency=self._cold_latency))

    def _cold_latency(self, out, dt: float) -> float:
        *_, cold_s, hit_s = out
        self.hit_s.append(hit_s)
        return cold_s

    def start_round(self, r: int) -> None:
        self.root = self.tmp / f"disk-cache-{r}"

    def end_round(self, r: int) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def detail(self, round_walls, speed):
        return {"disk_hit_p50_ms": median(self.hit_s) * speed * 1e3}


class ServeMix(Workload):
    """A closed loop of 8 logical clients in one thread against a 4-device
    OffloadServer: each op is one burst of 8 seed-drawn sessions that
    submit and then drain."""

    name = "serve-mix"
    seeded_fields = frozenset({"latency_p50_s", "latency_p99_s",
                               "batch_histogram"})
    SESSIONS = 64
    TENANTS = 8
    CLIENTS = 8
    BURSTS = 25
    SMOKE_BURSTS = 4

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.cfg = config()
        self.cache = CompileCache()
        self.programs = bench_serving.program_mix()
        self.server = OffloadServer(
            num_devices=4, config=self.cfg, compile_cache=self.cache,
            max_batch=8, default_quota=TenantQuota(max_resident_bytes=512),
            profile=False)
        self.sessions = [self.server.open_session(f"tenant{i % self.TENANTS}")
                         for i in range(self.SESSIONS)]
        for p in self.programs:
            self.cache.get(p.source, p.name, self.cfg)
        self.rng = np.random.default_rng(seed)
        self.arrival = 0.0
        self.refs: Optional[dict] = None
        bursts = self.SMOKE_BURSTS if smoke else self.BURSTS
        self.ops = [Op(f"burst{i}", self._burst, self._check)
                    for i in range(bursts)]

    def _burst(self):
        server, reqs = self.server, []
        for sid in self.rng.choice(self.SESSIONS, self.CLIENTS, replace=False):
            s = self.sessions[sid]
            p = self.programs[s.sid % len(self.programs)]
            reqs.append(server.submit(s, p.source, name=p.name,
                                      seed_arrays=p.seed_arrays,
                                      outputs=p.outputs, arrival=self.arrival))
        server.drain()
        self.arrival = max(self.arrival + bench_serving.BURST_GAP_S,
                           server.clock.now())
        return reqs

    def _check(self, reqs) -> None:
        if self.refs is None:
            self.refs = {p.name: bench_serving.standalone_reference(
                p, self.cache, self.cfg) for p in self.programs}
        for req in reqs:
            if req.status != "done":
                raise CheckError(f"request {req.seq} {req.status}: {req.error}")
            got = {k: np.asarray(v).tobytes() for k, v in req.result.items()}
            if got != self.refs[req.name]:
                raise CheckError(f"request {req.seq} differs from a "
                                 f"standalone run of {req.name}")
        return None

    def end_round(self, r: int) -> None:
        if r == 0:
            stats = self.server.stats
            self.round0 = {
                "latency_p50_s": percentile(stats.latencies, 50),
                "latency_p99_s": percentile(stats.latencies, 99),
                "batch_histogram": {str(k): v for k, v in
                                    sorted(stats.batches.items())}}

    def extra_records(self) -> dict:
        """The programs' sources and standalone outputs, and round 0's
        modelled latency and batching (keyed by its burst count)."""
        records = {f"round0-bursts{len(self.ops)}": self.round0}
        if self.refs is not None:
            records.update({p.name: {
                "source_sha256": digest(p.source),
                "outputs_sha256": digest(*(self.refs[p.name][o]
                                           for o in p.outputs))}
                for p in self.programs})
        return records

    def detail(self, round_walls, speed):
        return {"serve_rps": self.CLIENTS * len(self.ops) / median(round_walls)}

    def close(self) -> None:
        self.server.close()


WORKLOADS = {w.name: w for w in (Fig4Sample, ShardReduce, HostInit,
                                 CompileCold, ServeMix)}


def measure(wl: Workload, seconds: float, tracer: Optional[Tracer]) -> dict:
    """Run whole rounds until ``seconds`` have passed.  Round 0 warms the
    process up (lazy imports, first-call caches): it is checked but not
    timed.  At least one timed round follows; with a tracer, odd rounds
    are traced and even ones untraced, at least one of each.  Each op's
    time is scaled by the host speed last probed before it: at the start
    of the round and then after every ``PROBE_EVERY_S`` of timed work."""
    runs: dict[str, int] = defaultdict(int)
    fails: dict[str, int] = defaultdict(int)
    first: dict[str, dict] = {}
    problems: list[str] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    samples: dict[str, list[float]] = defaultdict(list)
    speeds: list[float] = []
    raw_walls: list[float] = []
    round_p90: list[float] = []
    start = time.perf_counter()
    r = 0
    while (r < (3 if tracer is not None else 2)
           or time.perf_counter() - start < seconds):
        traced = tracer is not None and r % 2 == 1
        wl.start_round(r)
        gc.collect()
        if traced:
            tracer.install()
        wall = raw_wall = 0.0
        latencies: list[float] = []
        since_probe = PROBE_EVERY_S
        try:
            for op in wl.ops:
                if since_probe >= PROBE_EVERY_S:
                    speed = REF_PROBE_S / host_probe()
                    since_probe = 0.0
                    if r and not traced:
                        speeds.append(speed)
                runs[op.key] += 1
                try:
                    with tracer.op(op.key) if traced else nullcontext():
                        t0 = time.perf_counter()
                        out = op.run()
                        dt = time.perf_counter() - t0
                    since_probe += dt
                    raw_wall += dt
                    wall += dt * speed
                    record = op.check(out)
                except Exception as exc:  # a failed op must not end the run
                    fails[op.key] += 1
                    problems.append(f"{op.key}: {type(exc).__name__}: {exc}")
                    continue
                if record is not None and first.setdefault(op.key,
                                                           record) != record:
                    fails[op.key] += 1
                    problems.append(f"{op.key}: output differs from round 0")
                    continue
                if r and not traced:
                    latency = op.latency(out, dt) * speed
                    samples[op.key].append(latency)
                    latencies.append(latency)
        finally:
            if traced:
                tracer.restore()
        wl.end_round(r)
        if r:
            walls[traced].append(wall)
        if r and not traced:
            raw_walls.append(raw_wall)
            if latencies:
                latencies.sort()
                round_p90.append(
                    latencies[math.ceil(0.9 * len(latencies)) - 1])
        r += 1
    return {"runs": runs, "fails": fails, "records": first,
            "problems": problems, "round_walls": walls[False],
            "traced_walls": walls[True], "samples": samples,
            "round_p90": round_p90,
            "speed": median(speeds), "raw_wall_s": median(raw_walls)}


def golden_problems(wl: Workload, records: dict, seed: int,
                    golden: dict) -> dict[str, list[str]]:
    """Record key -> fields that differ from the golden file.  Keys the
    file does not hold (other sizes) are not compared, nor are seeded
    fields away from the golden seed."""
    same_seed = seed == golden.get("seed")
    bad = {}
    for key, want in golden.get("workloads", {}).get(wl.name, {}).items():
        have = records.get(key)
        if have is None:
            continue
        fields = [f for f, v in want.items()
                  if (same_seed or f not in wl.seeded_fields)
                  and have.get(f) != v]
        if fields:
            bad[key] = fields
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.monotonic() just before the spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--golden", default=None)
    ap.add_argument("--artifacts", default=None,
                    help="path prefix for the trace's layers/chrome JSON")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.smoke,
                                  Path(tempfile.gettempdir()))
    setup_raw_s = time.monotonic() - args.t0
    setup_s = setup_raw_s * host_speed()
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = Tracer() if args.trace else None
    try:
        res = measure(wl, args.seconds, tracer)
        records = {**res["records"], **wl.extra_records()}
        golden = json.loads(Path(args.golden).read_text()) \
            if args.golden else {}
        runs, fails, problems = res["runs"], res["fails"], res["problems"]
        for key, fields in golden_problems(wl, records, args.seed,
                                           golden).items():
            problems.append(f"{key}: golden mismatch in {', '.join(fields)}")
            if key in runs:
                fails[key] = runs[key]
            else:  # a workload-level record
                fails = dict(runs)
        out = {
            "workload": wl.name, "seed": args.seed, "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "attempted": sum(runs.values()), "failed": sum(fails.values()),
            "problems": problems[:20], "round_walls": res["round_walls"],
            "samples": res["samples"], "round_p90": res["round_p90"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "detail": {**wl.detail(res["round_walls"], res["speed"]),
                       "host_speed": res["speed"],
                       "raw_wall_s": res["raw_wall_s"]},
            "records": records,
        }
    finally:
        wl.close()
    if tracer is not None:
        rounds = len(res["traced_walls"])
        out["trace"] = {"rounds": rounds, "wall_s": tracer.wall_s / rounds,
                        "untraced_walls": res["round_walls"],
                        "traced_walls": res["traced_walls"],
                        "layers": tracer.layers(rounds)}
        if args.artifacts:
            Path(args.artifacts + ".layers.json").write_text(
                json.dumps({"workload": wl.name, **out["trace"]}, indent=1))
            tracer.write_chrome_trace(args.artifacts + ".chrome.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
