"""The ``REPRO_*`` environment variables (repro.settings), table-driven.

Every variable parses through one table, reaches each root object that
honours it, loses to an ``OmpiConfig`` field and to an explicit argument,
and names itself when its value is bad.  The ``OffloadServer`` cases pin
the resolution it shares with ``CompiledProgram.run``.
"""

from __future__ import annotations

import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

import repro
from repro.cfront.interp import Machine
from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import Dim3
from repro.cuda.driver import CudaDriver
from repro.cuda.ptx.jit import JitCache
from repro.hostrt.ort import Ort
from repro.ompi.cache import GLOBAL_COMPILE_CACHE
from repro.ompi.cli import main as ompicc
from repro.ompi.compiler import OmpiCompiler
from repro.ompi.config import OmpiConfig
from repro.serving import OffloadServer
from repro.serving import server as server_module
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

VARS = sorted(var for var, _ in VARIABLES.values())


@pytest.fixture(autouse=True)
def _no_repro_env(monkeypatch):
    """Start every case with no REPRO_* variable set (the CI legs set
    some for the whole suite)."""
    for var in VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(scope="module")
def prog():
    return OmpiCompiler(OmpiConfig()).compile(SRC, "settings_prog")


def _machine(**kw) -> Machine:
    return Machine(parse_translation_unit("int main(void) { return 0; }"),
                   **kw)


def _request_modes(monkeypatch, server) -> set:
    """Host fast-path modes of the per-request machines one request of
    ``server`` builds."""
    seen = []

    class Spy(Machine):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            seen.append(self.host_fastpath)

    monkeypatch.setattr(server_module, "Machine", Spy)
    session = server.open_session()
    server.submit(session, SRC, name="settings_prog", outputs=("x",))
    server.drain()
    assert seen
    return set(seen)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

#: (variable, text, Settings field, parsed value)
PARSED = [
    ("REPRO_KERNEL_FASTPATH", "Verify", "kernel_fastpath", "verify"),
    ("REPRO_HOST_FASTPATH", " off ", "host_fastpath", "off"),
    ("REPRO_PROFILE", "trace.json", "profile", "trace.json"),
    ("REPRO_FAULTS", "oom@cuMemAlloc:count=1", "faults",
     "oom@cuMemAlloc:count=1"),
    ("REPRO_FAULTS_LOG", "events.jsonl", "faults_log", "events.jsonl"),
    ("REPRO_NUM_DEVICES", "3", "num_devices", 3),
    ("REPRO_DEVICES", " nano,v100 ", "devices", "nano,v100"),
    ("REPRO_SAMPLE_BLOCKS", "1", "sample_blocks", 1),
    ("REPRO_CACHE_DIR", "store", "cache_dir", "store"),
    ("REPRO_CUDA_CACHE_DIR", "cubins", "cuda_cache_dir", "cubins"),
    ("REPRO_SERVE_DEADLINE", "5e-3", "serve_deadline", 5e-3),
    ("REPRO_SERVE_DEADLINE", "off", "serve_deadline", None),
    ("REPRO_BREAKER", "threshold=7", "breaker", "threshold=7"),
]


def test_table_holds_the_twelve_variables():
    assert VARS == sorted([
        "REPRO_BREAKER", "REPRO_CACHE_DIR", "REPRO_CUDA_CACHE_DIR",
        "REPRO_DEVICES", "REPRO_FAULTS", "REPRO_FAULTS_LOG",
        "REPRO_HOST_FASTPATH", "REPRO_KERNEL_FASTPATH", "REPRO_NUM_DEVICES",
        "REPRO_PROFILE", "REPRO_SAMPLE_BLOCKS", "REPRO_SERVE_DEADLINE"])
    assert set(VARIABLES) == {f.name for f in fields(Settings)}
    assert sorted({var for var, *_ in PARSED}) == VARS


@pytest.mark.parametrize("var, text, field, value", PARSED)
def test_from_env_parses_each_variable(var, text, field, value):
    assert getattr(Settings.from_env({var: text}), field) == value
    # unset and empty both keep every default
    assert Settings.from_env({var: " "}) == Settings.from_env({}) \
        == Settings()


@pytest.mark.parametrize("var, text", [
    ("REPRO_KERNEL_FASTPATH", "fast"),
    ("REPRO_HOST_FASTPATH", "sometimes"),
    ("REPRO_NUM_DEVICES", "0"),
    ("REPRO_NUM_DEVICES", "two"),
    ("REPRO_SAMPLE_BLOCKS", "three"),
    ("REPRO_SERVE_DEADLINE", "soon"),
])
def test_bad_value_raises_naming_the_variable(var, text):
    with pytest.raises(ValueError, match=var):
        Settings.from_env({var: text})


#: grammars another layer owns are checked by the roots that read them
@pytest.mark.parametrize("var, text, root", [
    ("REPRO_DEVICES", "nano,turing", "run"),
    ("REPRO_DEVICES", "nano,turing", "server"),
    ("REPRO_FAULTS", "frobnicate@cuInit", "run"),
    ("REPRO_FAULTS", "frobnicate@cuInit", "server"),
    ("REPRO_BREAKER", "frobnicate=1", "server"),
    ("REPRO_HOST_FASTPATH", "sometimes", "machine"),
    ("REPRO_KERNEL_FASTPATH", "fast", "driver"),
    ("REPRO_SAMPLE_BLOCKS", "three", "driver"),
])
def test_bad_value_fails_the_root_naming_the_variable(
        monkeypatch, prog, var, text, root):
    monkeypatch.setenv(var, text)
    build = {"run": prog.run, "server": OffloadServer, "machine": _machine,
             "driver": CudaDriver}[root]
    with pytest.raises(ValueError, match=var):
        build()


# ---------------------------------------------------------------------------
# each variable reaches each root that honours it
# ---------------------------------------------------------------------------

def _case(var, text, root, probe, expected):
    return pytest.param(var, text, probe, expected, id=f"{var}-{root}")


#: (variable, text, root, root probe, expected)
REACHES = [
    _case("REPRO_KERNEL_FASTPATH", "off", "driver",
          lambda p: CudaDriver().fastpath, "off"),
    _case("REPRO_KERNEL_FASTPATH", "off", "run",
          lambda p: p.run().ort.cudadev.driver.fastpath, "off"),
    _case("REPRO_KERNEL_FASTPATH", "off", "server",
          lambda p: OffloadServer().devices[0].driver.fastpath, "off"),
    _case("REPRO_HOST_FASTPATH", "off", "machine",
          lambda p: _machine().host_fastpath, "off"),
    _case("REPRO_HOST_FASTPATH", "off", "run",
          lambda p: p.run().machine.host_fastpath, "off"),
    _case("REPRO_HOST_FASTPATH", "off", "server",
          lambda p: OffloadServer().host_fastpath, "off"),
    _case("REPRO_PROFILE", "1", "driver",
          lambda p: CudaDriver().prof is not None, True),
    _case("REPRO_PROFILE", "out.json", "driver-trace",
          lambda p: CudaDriver().prof_path, "out.json"),
    _case("REPRO_PROFILE", "1", "run",
          lambda p: p.run().profile is not None, True),
    _case("REPRO_PROFILE", "1", "ort",
          lambda p: Ort(_machine()).prof is not None, True),
    _case("REPRO_PROFILE", "1", "server",
          lambda p: OffloadServer().prof is not None, True),
    _case("REPRO_FAULTS", "oom@cuMemAlloc:count=1", "run",
          lambda p: p.run().ort.cudadev.driver.faults is not None, True),
    _case("REPRO_FAULTS", "off", "run-off",
          lambda p: p.run().ort.cudadev.driver.faults, None),
    _case("REPRO_FAULTS", "oom@cuMemAlloc:count=1", "ort",
          lambda p: Ort(_machine()).cudadev.driver.faults is not None, True),
    _case("REPRO_FAULTS", "oom@cuMemAlloc:count=1", "server",
          lambda p: OffloadServer().devices[0].driver.faults is not None,
          True),
    # raw drivers opt in to injection explicitly
    _case("REPRO_FAULTS", "oom@cuMemAlloc:count=1", "driver",
          lambda p: CudaDriver().faults, None),
    _case("REPRO_FAULTS_LOG", "events.jsonl", "driver",
          lambda p: CudaDriver().faultlog.path, "events.jsonl"),
    _case("REPRO_FAULTS_LOG", "events.jsonl", "run",
          lambda p: p.run().ort.cudadev.driver.faultlog.path, "events.jsonl"),
    _case("REPRO_NUM_DEVICES", "3", "run",
          lambda p: p.run().ort.num_devices, 3),
    _case("REPRO_NUM_DEVICES", "3", "ort",
          lambda p: Ort(_machine()).num_devices, 3),
    _case("REPRO_NUM_DEVICES", "3", "server",
          lambda p: OffloadServer().num_devices, 3),
    _case("REPRO_DEVICES", "nano,v100", "run",
          lambda p: [m.backend.name for m in p.run().ort.devices],
          ["nano", "v100"]),
    _case("REPRO_DEVICES", "nano,v100", "ort",
          lambda p: [m.backend.name for m in Ort(_machine()).devices],
          ["nano", "v100"]),
    _case("REPRO_DEVICES", "nano,v100", "server",
          lambda p: [b.name for b in OffloadServer().backends],
          ["nano", "v100"]),
    _case("REPRO_SAMPLE_BLOCKS", "1", "driver",
          lambda p: CudaDriver()._sample_blocks(Dim3(8, 1, 1)), [(4, 0, 0)]),
    _case("REPRO_SAMPLE_BLOCKS", "2", "run",
          lambda p: p.run().ort.cudadev.driver.sample_blocks, 2),
    _case("REPRO_CACHE_DIR", "store", "server",
          lambda p: OffloadServer().compile_cache.disk.root, Path("store")),
    _case("REPRO_CUDA_CACHE_DIR", "cubins", "jitcache",
          lambda p: JitCache().dir, Path("cubins")),
    _case("REPRO_SERVE_DEADLINE", "5e-3", "server",
          lambda p: OffloadServer().deadline_budget, 5e-3),
    _case("REPRO_BREAKER", "threshold=7", "server",
          lambda p: OffloadServer().breakers[0].policy.failure_threshold, 7),
    _case("REPRO_BREAKER", "off", "server-off",
          lambda p: OffloadServer().breakers, None),
]


def test_every_variable_reaches_a_root():
    assert sorted({case.values[0] for case in REACHES}) == VARS


@pytest.mark.parametrize("var, text, probe, expected", REACHES)
def test_env_reaches_root(monkeypatch, prog, var, text, probe, expected):
    monkeypatch.setenv(var, text)
    assert probe(prog) == expected


def test_defaults_without_environment(prog):
    run = prog.run()
    assert run.machine.host_fastpath == "on"
    assert run.ort.cudadev.driver.fastpath == "on"
    assert run.ort.num_devices == 1 and run.profile is None
    assert run.ort.cudadev.driver.faults is None
    assert run.ort.cudadev.driver.faultlog.path is None
    assert run.ort.cudadev.driver.sample_blocks == 3
    assert JitCache().dir == Path.home() / ".repro_nv" / "ComputeCache"
    server = OffloadServer()
    # the library stays off the filesystem unless REPRO_CACHE_DIR opts in
    assert server.compile_cache is GLOBAL_COMPILE_CACHE
    assert server.deadline_budget is None
    assert server.breakers[0].policy.failure_threshold == 3


def test_cache_dir_reaches_ompicc(monkeypatch, tmp_path):
    source = tmp_path / "p.c"
    source.write_text("int main(void) { return 0; }")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    assert ompicc([str(source), "--no-run"]) == 0
    assert any((tmp_path / "store").rglob("*.pkl"))


def test_values_are_read_when_the_root_is_built(monkeypatch, prog):
    """Nothing reads the environment per launch or per request."""
    driver = CudaDriver()
    server = OffloadServer()
    monkeypatch.setenv("REPRO_SAMPLE_BLOCKS", "1")
    monkeypatch.setenv("REPRO_HOST_FASTPATH", "verify")
    assert len(driver._sample_blocks(Dim3(8, 1, 1))) == 3
    assert _request_modes(monkeypatch, server) == {"on"}


# ---------------------------------------------------------------------------
# precedence: explicit argument > config field > environment > default
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [
    "kernel_fastpath", "host_fastpath", "profile", "faults",
    "serve_deadline", "breaker"])
def test_overlay_precedence(field):
    env = replace(Settings(), **{field: "env"})
    config = OmpiConfig(**{field: "config"})
    assert getattr(Settings().overlay(), field) == getattr(Settings(), field)
    assert getattr(env.overlay(), field) == "env"
    assert getattr(env.overlay(OmpiConfig()), field) == "env"
    assert getattr(env.overlay(config), field) == "config"
    assert getattr(env.overlay(config, **{field: "arg"}), field) == "arg"


def test_overlay_rejects_unknown_names():
    with pytest.raises(TypeError, match="host_fast_path"):
        Settings().overlay(host_fast_path="on")


def test_host_fastpath_precedence_through_run(monkeypatch, prog):
    assert prog.run().machine.host_fastpath == "on"
    monkeypatch.setenv("REPRO_HOST_FASTPATH", "off")
    assert prog.run().machine.host_fastpath == "off"
    configured = OmpiCompiler(OmpiConfig(host_fastpath="verify")).compile(
        SRC, "settings_cfg")
    assert configured.run().machine.host_fastpath == "verify"
    assert configured.run(host_fastpath="on").machine.host_fastpath == "on"


#: (environment, config fields, explicit arguments, device_given)
#:   -> (devices, num_devices)
REGISTRY = {
    "default": ({}, {}, {}, False, (None, 1)),
    "env-count": ({"REPRO_NUM_DEVICES": "3"}, {}, {}, False, (None, 3)),
    "env-spec": ({"REPRO_DEVICES": "nano,tx2"}, {}, {}, False,
                 ("nano,tx2", None)),
    "env-spec-beats-env-count": (
        {"REPRO_DEVICES": "nano,tx2", "REPRO_NUM_DEVICES": "3"}, {}, {},
        False, ("nano,tx2", None)),
    "arg-count-beats-env-spec": (
        {"REPRO_DEVICES": "nano,tx2"}, {}, {"num_devices": 2}, False,
        (None, 2)),
    "config-count-beats-env-spec": (
        {"REPRO_DEVICES": "nano,tx2"}, {"num_devices": 2}, {}, False,
        (None, 2)),
    "arg-spec-beats-env-spec": (
        {"REPRO_DEVICES": "nano,tx2"}, {}, {"devices": "v100"}, False,
        ("v100", None)),
    "config-spec-beats-arg-count": (
        {}, {"devices": "v100"}, {"num_devices": 4}, False, ("v100", None)),
    "device-profile-suppresses-env-spec": (
        {"REPRO_DEVICES": "nano,tx2", "REPRO_NUM_DEVICES": "3"}, {}, {},
        True, (None, 3)),
}


@pytest.mark.parametrize("env, config, explicit, device_given, expected",
                         list(REGISTRY.values()), ids=list(REGISTRY))
def test_registry_precedence(env, config, explicit, device_given, expected):
    s = Settings.from_env(env).overlay(
        OmpiConfig(**config), device_given=device_given, **explicit)
    assert (s.devices, s.num_devices) == expected


# ---------------------------------------------------------------------------
# OffloadServer resolves like CompiledProgram.run
# ---------------------------------------------------------------------------

def test_server_honours_config_fastpath_faults_profile(monkeypatch):
    server = OffloadServer(config=OmpiConfig(
        host_fastpath="off", faults="oom@cuMemAlloc:count=1", profile=True))
    assert server.prof is not None
    assert server.devices[0].driver.faults is not None
    assert _request_modes(monkeypatch, server) == {"off"}


def test_server_honours_config_registry():
    assert OffloadServer(config=OmpiConfig(num_devices=3)).num_devices == 3
    server = OffloadServer(config=OmpiConfig(devices="nano,v100"))
    assert [b.name for b in server.backends] == ["nano", "v100"]


def test_num_devices_env_gives_run_ort_and_server_one_count(monkeypatch,
                                                            prog):
    monkeypatch.setenv("REPRO_NUM_DEVICES", "3")
    assert prog.run().ort.num_devices == Ort(_machine()).num_devices \
        == OffloadServer().num_devices == 3


# ---------------------------------------------------------------------------
# one reader
# ---------------------------------------------------------------------------

def test_only_settings_reads_the_environment():
    root = Path(repro.__file__).parent
    reader = re.compile(r"\bos\.environ\b|\bgetenv\(|import environ")
    readers = sorted(str(path.relative_to(root))
                     for path in root.rglob("*.py")
                     if reader.search(path.read_text()))
    assert readers == ["settings.py"]
