"""Every benchmark gate's invariants, checked on hand-made records.

No workload runs: each gate's ``failures(records, budget)`` gets one
record set that passes, then one set per invariant with that invariant
broken, and must report exactly that one failure.
"""

import copy
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_runner  # noqa: E402
import bench_serving  # noqa: E402


def rec(point, simulated_s=1e-3, digest="d0", wall_s=1.0, **counters):
    return {"point": point, "wall_s": wall_s, "simulated_s": simulated_s,
            "digest": digest, "counters": counters}


def put(record, **fields):
    for key, value in fields.items():
        if key in record:
            record[key] = value
        else:
            record["counters"][key] = value


def _per_device(a, b):
    return {"per_device_kernel_s": {"0": a, "1": b}}


def _load(**over):
    c = dict(failed=0, output_mismatches=0, untyped_failures=0,
             completed=176, requests=176, latency_p99_s=0.007,
             batch_histogram={"1": 5, "2": 3}, devices=4, sessions=64,
             devices_used=[0, 1, 2, 3], evictions=8, lost_devices=[],
             retries=0, migrations=0)
    c.update(over)
    return c


#: gate -> (passing records, budget)
PASSING = {
    "kernel-fastpath": (
        [rec("gemm:128/off", wall_s=2.0), rec("gemm:128/on", wall_s=0.2)],
        {}),
    "host-fastpath": (
        [r for w in ("gemm", "mvt", "atax") for r in (
            rec(f"{w}:96/off", wall_s=2.0, compiles=1, disk_hits=0),
            rec(f"{w}:96/on", wall_s=0.05, compiles=0, disk_hits=1,
                nest_whole=bench_runner.HOST_NESTS[w], nest_rows=0,
                loop_fallback=0, loop_unplanned=0, fn_fallback=0))]
        + [rec("triangle:128/off", wall_s=2.0, compiles=1, disk_hits=0),
           rec("triangle:128/on", wall_s=0.05, compiles=0, disk_hits=1,
               nest_whole=0, nest_rows=2, loop_fallback=0, loop_unplanned=0,
               fn_fallback=0)],
        {}),
    "profile-overhead": (
        [rec(f"gramschmidt:256/{m}", wall_s=1.0 if m == "off" else 1.05,
             records=0 if m == "off" else 1306)
         for i in range(4) for m in (("off", "on"), ("on", "off"))[i % 2]],
        {}),
    "shard": (
        [rec("gemm:128/single"),
         rec("gemm:128/shard(4)", devices_used=[0, 1, 2, 3])],
        {}),
    "reductions": (
        [rec(f"{w}:32/{k}", checksum=1.5, reference_ok=True,
             sequential_fold=True)
         for w in ("correlation", "covariance", "doitgen")
         for k in ("single", "sharded")]
        + [rec("reduce2d:2048/tree", simulated_s=1e-3, total=2.0),
           rec("reduce2d:2048/atomic", simulated_s=5e-3, total=2.0)],
        {}),
    "portability": (
        [rec(f"{a}/{b}", digest=a, arch="sm_53")
         for a in ("atax:96", "gemm:64") for b in ("nano", "tx2", "v100")]
        + [rec("gemm:64/single-nano", digest="g"),
           rec("gemm:64/shard(2)-equal", simulated_s=2e-3, digest="g",
               **_per_device(1.0, 3.0)),
           rec("gemm:64/shard(2)-throughput", simulated_s=1e-3,
               digest="g", **_per_device(1.0, 1.2))],
        {}),
    "serving": (
        [rec("load:64x4", **_load()),
         rec("ttfl/cold", ttfl_wall_s=0.01),
         rec("ttfl/warm", ttfl_wall_s=0.001)],
        {"p99_latency_s": 0.01}),
    "resilience": (
        [rec("load:64x4/baseline", digest="b", **_load(
             completed=128, requests=128, latency_p99_s=0.005)),
         rec("load:64x4/chaos", digest="c", **_load(
             completed=128, requests=128, latency_p99_s=0.006,
             lost_devices=[1], retries=2, migrations=3))],
        {"p99_inflation_max": 1.5}),
}

#: (gate, record index, fields to break, words of the one FAIL message)
BROKEN = [
    ("kernel-fastpath", 1, dict(digest="d1"), "outputs diverged"),
    ("kernel-fastpath", 1, dict(simulated_s=2e-3), "simulated time diverged"),
    ("kernel-fastpath", 1, dict(wall_s=3.0), "fast path slower"),
    ("host-fastpath", 3, dict(digest="d1"), "outputs or stdout differ"),
    ("host-fastpath", 3, dict(simulated_s=2e-3), "simulated time differs"),
    ("host-fastpath", 5, dict(compiles=1, disk_hits=0),
     "not served from the disk cache"),
    ("host-fastpath", 1, dict(wall_s=1.0), "below the 3.0x floor"),
    ("host-fastpath", 3, dict(nest_whole=1, nest_rows=1),
     "mvt:96: 1/2 nests ran whole, 1 per row"),
    ("host-fastpath", 5, dict(nest_whole=1, loop_fallback=1),
     "atax:96: 1/2 nests ran whole, 0 per row, 1 loops tree-walked"),
    ("host-fastpath", 1, dict(loop_unplanned=1),
     "gemm:96: 1/1 nests ran whole, 0 per row, 0 loops tree-walked, "
     "1 run with no loop plan"),
    ("host-fastpath", 1, dict(fn_fallback=1),
     "gemm:96: 1 functions tree-walked"),
    ("host-fastpath", [1, 3], dict(wall_s=0.5),
     "only 1/3 workloads cleared the 10.0x speedup"),
    ("host-fastpath", 7, dict(nest_whole=1, nest_rows=1),
     "triangle:128: 1/0 nests ran whole, 1 per row"),
    ("host-fastpath", 7, dict(wall_s=0.5),
     "triangle:128: speedup 4.00x below the 10.0x floor"),
    ("profile-overhead", [1, 2, 5, 6], dict(wall_s=1.2),
     "profiler overhead 20.0% exceeds 10%"),
    ("profile-overhead", [1, 2, 5, 6], dict(records=0),
     "no activity records"),
    ("shard", 1, dict(digest="d1"), "differs from single-device run"),
    ("shard", 1, dict(devices_used=[0, 1, 3]),
     "expected kernels on devices [0, 1, 2, 3], got [0, 1, 3]"),
    ("reductions", 2, dict(reference_ok=False),
     "covariance:32: outputs diverge from the numpy reference"),
    ("reductions", 4, dict(sequential_fold=False),
     "doitgen:32: reduction checksum is not the sequential fold"),
    ("reductions", 1, dict(digest="d1"),
     "correlation:32: shard(2) run differs"),
    ("reductions", 6, dict(simulated_s=6e-3),
     "does not beat the atomic-merge baseline"),
    ("reductions", 7, dict(total=2.5), "totals diverge"),
    ("portability", 4, dict(digest="x"),
     "gemm:64/tx2: output differs from gemm:64/nano"),
    ("portability", 8, dict(digest="x"),
     "shard(2)-throughput: output differs from the single-Nano run"),
    ("portability", 8, dict(simulated_s=2e-3), "does not beat equal split"),
    ("portability", 8, _per_device(1.0, 4.0), "imbalance 4.00 exceeds"),
    ("serving", 0, dict(failed=2), "2 requests failed"),
    ("serving", 0, dict(output_mismatches=3), "3 outputs diverged"),
    ("serving", 0, dict(completed=170), "only 170/176 requests completed"),
    ("serving", 0, dict(latency_p99_s=0.02), "p99 latency 0.020000s exceeds"),
    ("serving", 2, dict(ttfl_wall_s=0.005), "warm TTFL speedup 2.00x"),
    ("serving", 0, dict(batch_histogram={"1": 9}), "no multi-request"),
    ("serving", 0, dict(devices_used=[0, 1, 2]),
     "expected sessions on devices"),
    ("serving", 0, dict(evictions=0), "no evictions"),
    ("resilience", 1, dict(output_mismatches=1), "chaos: 1 outputs diverged"),
    ("resilience", 0, dict(untyped_failures=4),
     "baseline: 4 requests neither completed nor typed-rejected"),
    ("resilience", 0, dict(completed=120), "baseline: only 120/128"),
    ("resilience", 1, dict(lost_devices=[]), "lost no device"),
    ("resilience", 1, dict(retries=0, migrations=0), "no failover"),
    ("resilience", 1, dict(latency_p99_s=0.01),
     "chaos p99 inflation 2.00x exceeds budget 1.50x"),
]


def _failures(gate, records, budget):
    return bench_runner.GATES[gate].failures(records, budget)


def test_every_gate_has_cases():
    assert set(PASSING) == set(bench_runner.GATES)
    assert {g for g, *_ in BROKEN} == set(bench_runner.GATES)


@pytest.mark.parametrize("gate", sorted(PASSING))
def test_passing_records_pass(gate):
    records, budget = PASSING[gate]
    assert _failures(gate, copy.deepcopy(records), budget) == []


@pytest.mark.parametrize(
    "gate,index,fields,message", BROKEN,
    ids=[f"{g}-" + re.sub(r"\W+", "-", m[:32]).strip("-")
         for g, _, _, m in BROKEN])
def test_each_broken_invariant_fails_alone(gate, index, fields, message):
    records, budget = PASSING[gate]
    records = copy.deepcopy(records)
    for i in index if isinstance(index, list) else [index]:
        put(records[i], **copy.deepcopy(fields))
    failures = _failures(gate, records, budget)
    assert len(failures) == 1, failures
    assert message in failures[0]


def test_budgets_apply_only_when_given():
    """Without ``--check`` the runner passes no budget: the serving p99
    and the chaos inflation bounds describe the smoke shape only."""
    for gate, index in (("serving", 0), ("resilience", 1)):
        records = copy.deepcopy(PASSING[gate][0])
        put(records[index], latency_p99_s=1.0)
        assert _failures(gate, records, {}) == []


def test_budget_updates_keep_headroom():
    serving = bench_serving.budget(PASSING["serving"][0])
    assert serving == {"p99_latency_s": 0.0105,
                       "source": "64 sessions x 4 devices"}
    chaos = bench_serving.chaos_budget(PASSING["resilience"][0])
    assert chaos["p99_inflation_max"] == 1.8
    assert chaos["source"].endswith(bench_serving.FAULT_SPEC)


def test_update_budget_refused_for_a_gate_without_one():
    with pytest.raises(SystemExit):
        bench_runner.main(["shard", "--update-budget"])
