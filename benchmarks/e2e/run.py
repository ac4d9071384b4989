"""End-to-end benchmark: five workloads, host wall-clock metrics and an
externally traced per-layer breakdown.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N]
        [--trace [0|1]] [--smoke] [--out DIR] [--golden PATH]
        [--update-golden]
    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR

Each workload runs in fresh subprocesses (workloads.py), one after
another, with every ``REPRO_*`` variable removed from their environment.
A run prints every metric by name with its unit and sample count, writes
a result file under ``--out``, and with ``--workload`` ends its stdout
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  Times are scaled to a host of reference speed
(``workloads.host_probe``); the raw medians and the host speed are
printed as detail lines.  ``compare`` judges two directories of result files
by the alternating-pairs rule (README.md).  The exit code is non-zero if
any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 1
#: set-up-only processes per run; with the measuring process's own
#: set-up, setup_s is the median of SETUP_PROBES + 1 fresh processes
SETUP_PROBES = 4
#: a workload's processes are stopped after this long; a run of one
#: workload must end within 180 s
DEADLINE_S = 170.0
WORKLOAD_ORDER = ("fig4-sample", "shard-reduce", "host-init", "compile-cold",
                  "serve-mix")


def child_env(tmp: Path) -> tuple[dict, list[str]]:
    """The pinned environment of a workload process, and the names of the
    REPRO_* variables removed from it."""
    stripped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items()
           if k not in stripped and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # warm bytecode, written inside the checkout only
        PYTHONPYCACHEPREFIX=str(ROOT / ".e2e_pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        # 2 MiB huge pages on large arrays made peak RSS jump between runs
        NUMPY_MADVISE_HUGEPAGE="0",
        REPRO_CACHE_DIR=str(tmp / "repro-cache"),
        TMPDIR=str(tmp),
    )
    return env, stripped


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run workloads.py to completion and return its last stdout line."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *argv, "--t0", repr(t0)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], res: dict) -> dict:
    """name -> (value, sample count).  ``op_p50_ms`` is the median over
    the round's ops of each op's median, ``op_tail_ms`` the median over
    rounds of the round's p90 op (its slowest op when it has ten or
    fewer).  Pooled percentiles of a few distinct ops sit on the edge
    between two of them, and which edge depends on the round count, that
    is on the host's speed."""
    walls, per_op = res["round_walls"], res["samples"].values()
    n_ops = sum(len(xs) for xs in per_op)
    tails = res["round_p90"]
    return {
        "setup_s": (median(setups), len(setups)),
        "wall_s": (median(walls), len(walls)),
        "op_p50_ms": (median(median(xs) for xs in per_op) * 1e3, n_ops),
        "op_tail_ms": (median(tails) * 1e3, len(tails)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(trace: dict, names: list[str]) -> dict:
    """name -> (value, traced rounds) for the per-layer metrics ``names``:
    ``<layer>.<field>`` of the traced layers (0 where the layer never
    ran), or one of the ratios derived here."""
    layers, n = trace["layers"], trace["rounds"]
    sim, cache = layers["cuda.sim"], layers["ompi.cache"]
    drain = layers["serving.drain"]
    untraced, traced = trace["untraced_walls"], trace["traced_walls"]
    derived = {
        "cuda.sim.minstr_per_s": _ratio(sim.get("instructions", 0),
                                        sim["self_s"] * 1e6),
        "ompi.cache.hit_ratio": _ratio(cache.get("hits", 0), cache["calls"]),
        "serving.drain.mean_batch": _ratio(drain.get("batched_requests", 0),
                                           drain.get("batches", 0)),
        "trace.wall_s": median(traced),
        "trace.overhead_pct": 100.0 * (median(traced) / median(untraced) - 1),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = (derived[name], n)
        else:
            layer, field = name.rsplit(".", 1)
            out[name] = (layers[layer].get(field, 0.0), n)
    return out


def next_index(out: Path, name: str, seed: int) -> int:
    k = 0
    while (out / f"{name}.s{seed}.{k}.json").exists():
        k += 1
    return k


def run_workload(name: str, args, bench: dict, deadline: float) -> dict:
    """Run one workload (set-up probes, then the measuring process) and
    return its result record."""
    tmp_root = ROOT / ".e2e_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    env, stripped = child_env(tmp)
    common = ["--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = next_index(out_dir, name, args.seed)
    prefix = out_dir / f"{name}.s{args.seed}.{index}"
    argv = [*common, "--seconds", str(args.seconds)]
    if args.trace:
        argv += ["--trace", "--artifacts", str(prefix)]
    if not args.update_golden:
        argv += ["--golden", str(args.golden)]
    try:
        probes = 0 if args.trace else (1 if args.smoke else SETUP_PROBES)
        setups = [run_child([*common, "--setup-only"], env, deadline)
                  for _ in range(probes)]
        res = run_child(argv, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res)
    res["detail"]["raw_setup_s"] = median(s["setup_raw_s"] for s in setups)
    setups = [s["setup_s"] for s in setups]
    if args.trace:
        spec = bench["per_layer"]
        values = per_layer(res["trace"], [m["name"] for m in spec])
    else:
        spec, values = bench["end_to_end"], end_to_end(setups, res)
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"],
                           "n": values[m["name"]][1]} for m in spec}
    result = {
        "workload": name, "seed": args.seed, "index": index,
        "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke,
        "stripped_env": stripped, "attempted": res["attempted"],
        "failed": res["failed"], "correct": res["failed"] == 0,
        "metrics": metrics, "detail": res["detail"],
        "problems": res["problems"], "records": res["records"],
    }
    Path(f"{prefix}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    print(f"[e2e] {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']}  trace={int(result['trace'])}  "
          f"stripped env: {', '.join(result['stripped_env']) or 'none'}")
    for name, m in result["metrics"].items():
        print(f"[e2e]   {name:32s} {m['value']:14.6g} {m['unit']:9s} "
              f"n={m['n']}")
    for key, value in result["detail"].items():
        print(f"[e2e]   detail {key} = {value:.6g}")
    print(f"[e2e]   ops {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"[e2e]   FAIL {problem}", file=sys.stderr)


def update_golden(results: list[dict], path: Path) -> None:
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden["seed"] = GOLDEN_SEED
    workloads = golden.setdefault("workloads", {})
    for r in results:
        workloads[r["workload"]] = r["records"]
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"[e2e] wrote {path}")


# -- A/B comparison -----------------------------------------------------------

def load_results(directory: Path) -> dict[str, list[dict]]:
    """workload -> untraced results, ordered by (seed, run index)."""
    runs: dict[str, list[dict]] = {}
    for path in directory.glob("*.json"):
        if not path.stem.rsplit(".", 1)[-1].isdigit():
            continue  # a trace artifact, not a result file
        r = json.loads(path.read_text())
        if "metrics" in r and not r["trace"]:
            runs.setdefault(r["workload"], []).append(r)
    return {w: sorted(v, key=lambda r: (r["seed"], r["index"]))
            for w, v in runs.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, share of pairs the change won), by choosing-metrics §8:
    improved needs >= 9/10 of the pairs and a median gap wider than the
    parent's own quartile spread; regressed means the median is worse by
    more than the bound; a parent spread wider than the bound leaves the
    metric unresolved unless every change run beats every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1, pm, q3 = quartiles(parent)
    cm = median(change)
    worse = sign * (cm - pm) / pm
    if share >= 0.9 and worse < 0 and abs(cm - pm) > q3 - q1:
        return "improved", share
    if worse > bound:
        return "regressed", share
    every = all(sign * (c - p) < 0 for c in change for p in parent)
    if (q3 - q1) / pm > bound and not every:
        return "unresolved", share
    return "unchanged", share


def compare(parent_dir: Path, change_dir: Path, bench: dict) -> int:
    parent, change = load_results(parent_dir), load_results(change_dir)
    regressed = False
    print(f"{'workload':13s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for name in WORKLOAD_ORDER:
        if not parent.get(name) or not change.get(name):
            continue
        p_runs, c_runs = parent[name], change[name]
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            v, share = verdict(p, c, m["better"], m["bound"])
            regressed |= v == "regressed"
            cols = []
            for xs in (p, c):
                q1, q2, q3 = quartiles(xs)
                cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] {m['unit']}")
            print(f"{name:13s} {m['name']:12s} {cols[0]:>34s} {cols[1]:>34s} "
                  f"{share:5.0%}  {v}")
        p_fail = sum(r["failed"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs)
        print(f"{name:13s} {'failed ops':12s} {p_fail:>34d} {c_fail:>34d}"
              f"{'':7s}{'regressed' if c_fail > p_fail else 'unchanged'}")
        regressed |= c_fail > p_fail
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT_DIR CHANGE_DIR",
                  file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]), bench)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[e2e] no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_ORDER,
                    help="run one workload and end with the JSON line "
                         "(default: all five)")
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measured seconds per workload")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, for tests")
    ap.add_argument("--out", default=str(ROOT / ".e2e_out"),
                    help="directory for result and trace files")
    ap.add_argument("--golden", default=str(GOLDEN))
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite the golden file from this run")
    args = ap.parse_args(argv)
    if args.update_golden and (args.smoke or args.seed != GOLDEN_SEED):
        ap.error(f"--update-golden needs the default sizes and seed "
                 f"{GOLDEN_SEED}")

    names = [args.workload] if args.workload else list(WORKLOAD_ORDER)
    results = []
    for name in names:
        try:
            result = run_workload(name, args, bench,
                                  time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError, IndexError) as exc:
            print(f"[e2e] {name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        results.append(result)
    if args.update_golden:
        update_golden(results, Path(args.golden))
    failed = sum(r["failed"] for r in results)
    if args.workload:
        r = results[0]
        print(json.dumps({
            "correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in r["metrics"].items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
