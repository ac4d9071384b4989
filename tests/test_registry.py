"""The device registry is built in one place (repro.hostrt.registry).

``CompiledProgram.run`` and ``OffloadServer`` must hand out the same
devices for the same settings: backend, arch, memory arena, kernel fast
path, block sampling, fault seed and fault-log sink.  A drift between
the two roots shows up here as a column that differs.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.cuda.driver import CudaDriver
from repro.hostrt.registry import DeviceRegistry, resolve_settings
from repro.ompi.compiler import OmpiCompiler
from repro.serving import OffloadServer
from repro.settings import VARIABLES, Settings

SRC = r"""
float x[32];
int main(void) {
    int i;
    #pragma omp target teams distribute parallel for map(tofrom: x[0:32])
    for (i = 0; i < 32; i++) x[i] = x[i] + 1.0f;
    return 0;
}
"""

SPEC = "transient:p=0.5,seed=7"


@pytest.fixture(autouse=True)
def _no_repro_env(monkeypatch):
    for var, _ in VARIABLES.values():
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(scope="module")
def prog():
    return OmpiCompiler().compile(SRC, "registry_prog")


def _columns(devices) -> list[tuple]:
    """What each device was built with, one row per device."""
    return [(mod.backend.name if mod.backend is not None else None,
             mod.driver.device_props.arch,
             mod.driver.gmem.base,
             mod.driver.fastpath,
             mod.driver.sample_blocks,
             mod.driver.faults.seed if mod.driver.faults is not None
             else None,
             mod.faultlog.path)
            for mod in devices]


#: case -> (environment, root arguments, expected fault seeds)
CASES = {
    "default": ({}, {}, [None]),
    "num-devices-3": ({}, {"num_devices": 3}, [None] * 3),
    "nano-v100": ({}, {"devices": "nano,v100"}, [None, None]),
    "shared-spec": ({}, {"num_devices": 2, "faults": SPEC}, [7, 8]),
    "per-device-map": ({}, {"num_devices": 2, "faults": {1: SPEC}},
                       [None, 7]),
    "kernel-fastpath-off": ({"REPRO_KERNEL_FASTPATH": "off"},
                            {"num_devices": 2}, [None, None]),
    "faults-log": ({"REPRO_FAULTS_LOG": "events.jsonl"},
                   {"num_devices": 2, "faults": SPEC}, [7, 8]),
}


@pytest.mark.parametrize("env, kwargs, seeds", list(CASES.values()),
                         ids=list(CASES))
def test_run_and_server_build_the_same_devices(monkeypatch, tmp_path, prog,
                                               env, kwargs, seeds):
    monkeypatch.chdir(tmp_path)  # the relative REPRO_FAULTS_LOG sink
    for var, text in env.items():
        monkeypatch.setenv(var, text)
    run = _columns(prog.run(**kwargs).ort.devices)
    server = _columns(OffloadServer(**kwargs).devices)
    assert run == server
    assert [row[5] for row in run] == seeds


TWO_DEVICES = r"""
float x[32];
int main(void) {
    int i;
    #pragma omp target teams distribute parallel for device(0) \
        map(tofrom: x[0:32])
    for (i = 0; i < 32; i++) x[i] = x[i] + 1.0f;
    #pragma omp target teams distribute parallel for device(1) \
        map(tofrom: x[0:32])
    for (i = 0; i < 32; i++) x[i] = x[i] * 2.0f;
    return 0;
}
"""


def test_shared_faults_log_lines_name_their_device(monkeypatch, tmp_path):
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_FAULTS_LOG", str(path))
    prog = OmpiCompiler().compile(TWO_DEVICES, "registry_two")
    run = prog.run(num_devices=2,
                   faults="transfer@cuMemcpyHtoD*:count=1")
    assert [mod.fault_stats.get("inject") for mod in run.ort.devices] \
        == [1, 1]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert {line["device"] for line in lines if line["op"] == "inject"} \
        == {0, 1}


def test_one_site_builds_device_modules():
    root = Path(repro.__file__).parent
    sites = sorted(str(path.relative_to(root))
                   for path in root.rglob("*.py")
                   for _ in re.finditer(r"(?<!class )\bCudadevModule\(",
                                        path.read_text()))
    assert sites == ["hostrt/registry.py"]


def _count_from_env(monkeypatch) -> list:
    calls = []
    real = Settings.from_env.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Settings, "from_env", classmethod(counting))
    return calls


def test_registry_reads_the_environment_once(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE_BLOCKS", "2")
    calls = _count_from_env(monkeypatch)
    registry = DeviceRegistry(resolve_settings(num_devices=4))
    assert len(registry.devices) == 4
    assert len(calls) == 1
    # every driver still sees the environment, through the registry
    assert [mod.driver.sample_blocks for mod in registry.devices] == [2] * 4


def test_standalone_driver_resolves_its_own_settings(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE_BLOCKS", "2")
    calls = _count_from_env(monkeypatch)
    assert CudaDriver().sample_blocks == 2
    assert len(calls) == 1
