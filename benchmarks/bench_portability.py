"""Portability gate: the Figure-4 kernel suite on every device backend.

The paper's central claim is that one OpenMP source runs unchanged on any
CUDA device OMPi carries a transformation set for.  This gate makes that
measurable for the reproduction's heterogeneous registry
(``repro.devices``):

* **matrix** — every Figure-4 kernel runs on every named backend
  (``nano``, ``tx2``, ``v100``); outputs must be *bit-identical* to the
  Nano run (the kernels are compiled once for the primary arch and
  retargeted per device), while the modelled times reflect each
  device's timing model;
* **mixed shard** — a ``shard(2)`` GEMM on a ``nano,v100`` registry under
  equal-split vs throughput-balanced planning: both must stay
  bit-identical to the single-Nano run, and the throughput plan must
  lower both the total modelled time and the per-device imbalance
  (max/min shard kernel time over devices that received work).  The
  equal-split baseline substitutes
  :func:`repro.devices.throughput.equal_split` for the planner.

Run it with ``bench_runner.py portability [--check]``.
"""

from __future__ import annotations

from unittest import mock

from repro.bench import get_app
from repro.bench.harness import _heap_capacity, _prog_name
from repro.devices.throughput import equal_split

#: the Fig. 4 suite at bit-identity-friendly sizes (full functional runs)
MATRIX_POINTS = (("3dconv", 20), ("bicg", 96), ("atax", 96),
                 ("mvt", 64), ("gemm", 64), ("gramschmidt", 24))
CHECK_POINTS = (("atax", 96), ("gemm", 64))

BACKENDS = ("nano", "tx2", "v100")

SHARD_APP, SHARD_N = "gemm", 64


def app_spec(point: str, app, n: int, source: str | None = None,
             name: str | None = None, config: dict | None = None,
             counters=None, patch=None, **run) -> dict:
    """A ``run_point`` spec for one run of a suite application at size
    ``n``: its seed arrays, heap and block shape; ``run`` holds the other
    ``CompiledProgram.run`` arguments."""
    return {"point": point, "source": source or app.omp_source(n),
            "name": name or _prog_name(app, n), "outputs": app.outputs,
            "config": {"block_shape": app.block_shape, **(config or {})},
            "run": {"seed_arrays": app.seed(n),
                    "heap_capacity": _heap_capacity(app, n), **run},
            "counters": counters, "patch": patch}


def shard_source(source: str, shards: int) -> str:
    """``source`` with ``shard(shards)`` on its first combined construct."""
    marker = "target teams distribute parallel for"
    return source.replace(marker, f"{marker} shard({shards})", 1)


def _per_device_kernel_s(run) -> dict:
    per: dict[int, float] = {}
    for rec in run.profile.records("kernel"):
        per[rec.device] = per.get(rec.device, 0.0) + (rec.t_end - rec.t_start)
    return {"per_device_kernel_s": {str(k): v for k, v in sorted(per.items())}}


def _imbalance(record: dict) -> float:
    busy = [t for t in record["counters"]["per_device_kernel_s"].values()
            if t > 0.0]
    return max(busy) / min(busy) if busy else float("inf")


def points(check: bool):
    """Each run compiles fresh, so per-arch image maps never leak between
    configurations."""
    for name, n in CHECK_POINTS if check else MATRIX_POINTS:
        app = get_app(name)
        for backend in BACKENDS:
            yield app_spec(f"{name}:{n}/{backend}", app, n,
                           launch_mode="full", devices=[backend],
                           counters=lambda run: {
                               "arch": run.ort.cudadev.backend.arch})

    app = get_app(SHARD_APP)
    sharded = shard_source(app.omp_source(SHARD_N), 2)
    label = f"{SHARD_APP}:{SHARD_N}"
    yield app_spec(f"{label}/single-nano", app, SHARD_N, launch_mode="full",
                   num_devices=1)
    equal = mock.patch("repro.devices.throughput.plan_shards",
                       lambda total, weights: equal_split(total, len(weights)))
    for mode, planner in (("equal", equal), ("throughput", None)):
        yield app_spec(f"{label}/shard(2)-{mode}", app, SHARD_N,
                       source=sharded, config={"profile": True},
                       launch_mode="full", devices="nano,v100",
                       counters=_per_device_kernel_s, patch=planner)


def failures(records: list[dict], budget: dict) -> list[str]:
    *matrix, single, equal, throughput = records
    out = []
    for i in range(0, len(matrix), len(BACKENDS)):
        nano, *others = matrix[i:i + len(BACKENDS)]
        for r in others:
            if r["digest"] != nano["digest"]:
                out.append(f"{r['point']}: output differs from "
                           f"{nano['point']}")
    for r in (equal, throughput):
        if r["digest"] != single["digest"]:
            out.append(f"{r['point']}: output differs from the single-Nano "
                       f"run")
    if not throughput["simulated_s"] < equal["simulated_s"]:
        out.append(f"throughput planning ({throughput['simulated_s']:.6g}s) "
                   f"does not beat equal split ({equal['simulated_s']:.6g}s)")
    if _imbalance(throughput) > _imbalance(equal):
        out.append(f"throughput planning imbalance "
                   f"{_imbalance(throughput):.2f} exceeds equal split's "
                   f"{_imbalance(equal):.2f}")
    return out
