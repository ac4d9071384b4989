"""Tests of the end-to-end benchmark at smoke sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from layers import LAYERS, Tracer
from run import verdict

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run_bench(tmp_path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=240)


def test_every_metric_is_printed_with_unit_and_n(tmp_path):
    proc = run_bench(tmp_path)
    assert proc.returncode == 0, proc.stderr
    blocks = re.split(r"^\[e2e\] (\S+)  seed=.*$", proc.stdout, flags=re.M)
    printed = dict(zip(blocks[1::2], blocks[2::2]))
    assert list(printed) == [w["name"] for w in BENCH["workloads"]]
    for name, block in printed.items():
        for m in BENCH["end_to_end"]:
            line = rf"^\[e2e\]\s+{re.escape(m['name'])}\s+\S+\s+" \
                   rf"{re.escape(m['unit'])}\s+n=[1-9]\d*$"
            assert re.search(line, block, flags=re.M), (name, m["name"])
        assert re.search(r"^\[e2e\]\s+ops [1-9]\d*  failed 0$", block,
                         flags=re.M), name


def test_trace_restores_every_wrapped_attribute():
    from repro.cfront.parser import parse_translation_unit
    from repro.ompi import compiler
    from repro.ompi.cache import CompileCache
    from repro.ompi.config import OmpiConfig

    source = """
float a[64], b[64];
int main(void) {
  #pragma omp target teams distribute parallel for map(to: a) map(from: b)
  for (int i = 0; i < 64; i++) b[i] = a[i] * 2.0f;
  return 0;
}
"""
    tracer = Tracer()
    tracer.install()
    installed = list(tracer.installed)
    try:
        # a by-name import is replaced too, not only the defining module
        assert compiler.parse_translation_unit is not parse_translation_unit
        with tracer.op("vadd"):
            run = CompileCache().get(source, "vadd", OmpiConfig()).run(
                seed_arrays={"a": np.arange(64, dtype=np.float32)})
    finally:
        tracer.restore()
    for owner, name, original in installed:
        assert vars(owner)[name] is original, (owner, name)
    assert compiler.parse_translation_unit is parse_translation_unit
    assert np.array_equal(run.machine.global_array("b"),
                          np.arange(64, dtype=np.float32) * 2)
    for layer in ("cfront.parse", "ompi.xform", "cuda.nvcc", "ompi.cache",
                  "ompi.bind", "cfront.host", "hostrt.ort",
                  "cuda.driver.launch", "cuda.sim", "timing.gpumodel"):
        assert tracer.calls[layer] > 0, layer
    layers = tracer.layers(1)
    total = sum(layers[k]["self_s"] for k in (*LAYERS, "other"))
    assert abs(total - tracer.wall_s) < 1e-9


def test_trace_self_times_cover_the_wall_on_fig4(tmp_path):
    proc = run_bench(tmp_path, "--workload", "fig4-sample", "--trace")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    trace = json.loads(next(tmp_path.glob("*.layers.json")).read_text())
    layers = trace["layers"]
    assert sum(layers[k]["self_s"] for k in LAYERS) <= trace["wall_s"]
    assert layers["other"]["self_s"] < 0.1 * trace["wall_s"]
    events = json.loads(next(tmp_path.glob("*.chrome.json")).read_text())[
        "traceEvents"]
    assert {"cuda.sim", "cfront.parse"} <= {e["name"] for e in events
                                            if e["ph"] == "X"}
    assert {e["args"]["name"] for e in events if e["ph"] == "M"} == {
        "simulator"}


def test_corrupted_golden_digest_fails_that_op(tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"seed": 1, "workloads": {"host-init": {
        "gemm:128": {"outputs_sha256": "0" * 64}}}}))
    proc = run_bench(tmp_path, "--workload", "host-init",
                     "--golden", str(golden))
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert 0 < last["failed"] < last["attempted"]
    assert "gemm:128: golden mismatch in outputs_sha256" in proc.stderr


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in parent]
    assert verdict(parent, faster, "lower", 0.1) == ("improved", 1.0)
    assert verdict(parent, [x * 1.2 for x in parent], "lower",
                   0.1)[0] == "regressed"
    assert verdict(parent, parent, "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
