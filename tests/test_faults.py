"""Tests for the fault-injection subsystem and fault-tolerant offload:
deterministic seeded injection, bounded retry, OOM eviction, context
poisoning, device-loss host fallback, and host-fallback registration."""

import json

import numpy as np
import pytest

from repro.cuda.driver import CudaDriver
from repro.cuda.errors import CudaError, CUresult
from repro.cuda.nvcc import compile_device
from repro.faults import (
    FaultLog, FaultPlan, FaultSpecError, RecoveryPolicy, resolve_faults,
    resolve_recovery,
)
from repro.hostrt.devices import HostDevice
from repro.ompi.compiler import OmpiCompiler
from repro.ompi.config import OmpiConfig

SRC = """
__global__ void scale(float *p, float a, int n)
{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) p[i] = a * p[i];
}
"""

OFFLOAD_SRC = r"""
#include <stdio.h>
int main(void) {
    int n = 512;
    double a[512], b[512];
    int i;
    for (i = 0; i < n; i = i + 1) { a[i] = i * 0.5; b[i] = 0.0; }
    #pragma omp target teams distribute parallel for \
            map(to: a[0:512]) map(from: b[0:512])
    for (i = 0; i < n; i = i + 1)
        b[i] = 2.0 * a[i] + 1.0;
    {
        double sum = 0.0;
        for (i = 0; i < n; i = i + 1) sum = sum + b[i];
        printf("sum=%.1f\n", sum);
    }
    return 0;
}
"""


def make_driver(**kw):
    drv = CudaDriver(**kw)
    drv.cuInit(0)
    dev = drv.cuDeviceGet(0)
    ctx = drv.cuDevicePrimaryCtxRetain(dev)
    drv.cuCtxSetCurrent(ctx)
    return drv


def loaded_kernel(drv):
    handle = drv.cuModuleLoadData(compile_device(SRC, "m", mode="cubin"))
    return drv.cuModuleGetFunction(handle, "scale")


# ---------------------------------------------------------------------------
# Fault plan / spec parsing
# ---------------------------------------------------------------------------

def test_spec_grammar_rules():
    plan = FaultPlan.parse(
        "oom@cuMemAlloc:count=3,min_bytes=4096;"
        "transfer@cuMemcpy*:p=0.25,seed=99")
    assert len(plan.rules) == 2
    oom, xfer = plan.rules
    assert oom.kind == "oom" and oom.count == 3 and oom.min_bytes == 4096
    assert oom.times == 1               # count rules default to firing once
    assert xfer.probability == 0.25 and xfer.api == "cuMemcpy*"
    assert plan.seed == 99


def test_spec_presets():
    assert len(FaultPlan.parse("transient:seed=42").rules) == 3
    assert FaultPlan.parse("transient:seed=42").seed == 42
    devlost = FaultPlan.parse("devlost")
    assert devlost.rules[0].api == "cuInit"
    oom = FaultPlan.parse("oom:count=2")
    assert oom.rules[0].count == 2
    # the probabilistic variant models mid-run loss: a sticky launch
    # fault instead of failing device discovery outright
    midrun = FaultPlan.parse("devlost:p=0.02,seed=42")
    rule = midrun.rules[0]
    assert rule.api == "cuLaunchKernel"
    assert rule.kind == "device_unavailable"
    assert rule.probability == 0.02 and rule.sticky
    assert midrun.seed == 42


def test_spec_errors_and_off():
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("frobnicate@cuInit")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("oom@cuMemAlloc:count=0")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("oom@cuMemAlloc:bogus=1")
    assert FaultPlan.parse("off").rules == []
    assert resolve_faults("") is None
    assert resolve_faults(False) is None
    assert resolve_faults("none") is None


def test_resolve_recovery_parsing():
    policy = resolve_recovery("retries=5,backoff=1e-3,fallback=off")
    assert policy.max_retries == 5
    assert policy.backoff_s == 1e-3
    assert policy.host_fallback is False
    assert policy.oom_evict is True
    assert resolve_recovery(None) == RecoveryPolicy()
    with pytest.raises(ValueError):
        resolve_recovery("bogus=1")


# ---------------------------------------------------------------------------
# Injection mechanics on the raw driver
# ---------------------------------------------------------------------------

def test_count_rule_fires_on_exact_call_and_leaves_state_clean():
    drv = make_driver(faults=resolve_faults("oom@cuMemAlloc:count=3"))
    drv.cuMemAlloc(1024)
    drv.cuMemAlloc(1024)
    in_use = drv.gmem.bytes_in_use
    with pytest.raises(CudaError) as err:
        drv.cuMemAlloc(1024)
    assert err.value.result == CUresult.CUDA_ERROR_OUT_OF_MEMORY
    assert err.value.injected
    # injection happens before any side effect: allocator state unchanged,
    # and an immediate replay of the same call succeeds
    assert drv.gmem.bytes_in_use == in_use
    assert drv.cuMemAlloc(1024) > 0
    assert drv.faultlog.count("inject") == 1


def test_size_threshold_rule_only_hits_large_transfers():
    drv = make_driver(
        faults=resolve_faults("transfer@cuMemcpyHtoDAsync:min_bytes=65536"))
    a = drv.cuMemAlloc(1 << 20)
    drv.cuMemcpyHtoD(a, np.zeros(16, dtype=np.float32))      # small: passes
    with pytest.raises(CudaError) as err:
        drv.cuMemcpyHtoD(a, np.zeros(1 << 16, dtype=np.float32))
    assert err.value.result == CUresult.CUDA_ERROR_UNKNOWN


def test_seeded_probability_injection_is_deterministic():
    def run(seed):
        drv = make_driver(
            faults=resolve_faults(f"transfer@cuMemcpy*:p=0.3,seed={seed}"))
        a = drv.cuMemAlloc(4096)
        outcomes = []
        for _ in range(40):
            try:
                drv.cuMemcpyHtoD(a, np.zeros(16, dtype=np.float32))
                outcomes.append("ok")
            except CudaError:
                outcomes.append("fault")
        return outcomes

    assert run(7) == run(7)             # same seed: identical fault pattern
    assert run(7) != run(8)             # different seed: different pattern
    assert "fault" in run(7) and "ok" in run(7)


def test_poison_is_sticky_until_primary_ctx_reset():
    drv = make_driver(faults=resolve_faults("poison@cuMemAlloc:count=1"))
    with pytest.raises(CudaError) as err:
        drv.cuMemAlloc(64)
    assert err.value.sticky
    # every later call fails with the same sticky result...
    with pytest.raises(CudaError) as err2:
        drv.cuMemGetInfo()
    assert err2.value.sticky
    assert err2.value.result == err.value.result
    # ...except device queries and the reset itself (poison-exempt)
    assert drv.cuDeviceGetCount() == 1
    drv.cuDevicePrimaryCtxReset(0)
    assert drv.cuMemAlloc(64) > 0       # context healthy again
    assert drv.faultlog.count("poison") == 1
    assert drv.faultlog.count("reset") == 1


def test_primary_ctx_reset_releases_device_state():
    drv = make_driver()
    drv.cuMemAlloc(4096)
    loaded_kernel(drv)
    assert drv.gmem.bytes_in_use > 0
    drv.cuDevicePrimaryCtxReset(0)
    assert drv.gmem.bytes_in_use == 0
    assert not drv._modules


def test_fault_log_jsonl_export(tmp_path):
    path = tmp_path / "faults.jsonl"
    drv = make_driver(faults=resolve_faults("oom@cuMemAlloc:count=1"))
    drv.faultlog.path = str(path)
    with pytest.raises(CudaError):
        drv.cuMemAlloc(64)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines and lines[0]["op"] == "inject"
    assert lines[0]["api"] == "cuMemAlloc"
    assert lines[0]["fault"] == "CUDA_ERROR_OUT_OF_MEMORY"


def test_fault_log_jsonl_sink_is_size_bounded(tmp_path):
    path = tmp_path / "faults.jsonl"
    drv = make_driver(faults=resolve_faults("transfer@cuMemcpy*:p=1.0"))
    drv.faultlog.path = str(path)
    drv.faultlog.max_bytes = 512     # tiny cap to force rotation
    addr = None
    for _ in range(40):
        try:
            if addr is None:
                addr = drv.cuMemAlloc(64)
            drv.cuMemcpyHtoD(addr, b"\0" * 64)
        except CudaError:
            pass
    assert path.exists()
    # the live file stays under one rotation's worth of the cap and the
    # overflow went to the single .1 file (old .1 contents are dropped)
    assert path.stat().st_size <= 512 + 256
    assert (tmp_path / "faults.jsonl.1").exists()
    assert drv.faultlog.dropped_lines > 0
    # every surviving line is still valid jsonl
    for line in path.read_text().splitlines():
        json.loads(line)


# ---------------------------------------------------------------------------
# Recovery through the OMPi pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def offload_prog():
    return OmpiCompiler().compile(OFFLOAD_SRC, name="faulty")


def test_transient_transfer_retried(offload_prog):
    base = offload_prog.run()
    run = offload_prog.run(faults="transfer@cuMemcpyHtoDAsync:count=1")
    assert run.stdout == base.stdout
    stats = run.ort.cudadev.fault_stats
    assert stats.get("inject") == 1 and stats.get("retry") == 1
    assert "fallback" not in stats      # recovered by replay, no fallback


def test_transient_launch_retried(offload_prog):
    base = offload_prog.run()
    run = offload_prog.run(faults="launch_failed@cuLaunchKernel:count=1")
    assert run.stdout == base.stdout
    assert run.ort.cudadev.fault_stats.get("retry") == 1
    # exactly one kernel event despite the failed attempt (injection
    # precedes scheduling, so the retry is the only recorded launch)
    kernels = [e for e in run.log.events if e.kind == "kernel"]
    assert len(kernels) == 1


def test_oom_alloc_evicts_and_retries(offload_prog):
    base = offload_prog.run()
    run = offload_prog.run(faults="oom@cuMemAlloc:count=1")
    assert run.stdout == base.stdout
    stats = run.ort.cudadev.fault_stats
    assert stats.get("inject") == 1 and stats.get("evict") == 1


def test_permanent_launch_failure_falls_back_with_resync(offload_prog):
    """Launch fails beyond the retry budget on a healthy device: the region
    runs the *_hostfn and the device copies are resynced, so results are
    numerically identical."""
    base = offload_prog.run()
    run = offload_prog.run(
        faults="launch_failed@cuLaunchKernel:p=1.0,times=1000")
    assert run.stdout == base.stdout
    stats = run.ort.cudadev.fault_stats
    assert stats.get("fallback") == 1
    assert stats.get("retry") == 3      # full default budget burned first
    assert not run.ort.cudadev.lost     # device itself is still healthy


def test_device_lost_runs_whole_program_on_host(offload_prog):
    """Acceptance: under a permanent device-loss plan every target region
    completes via host fallback with fallback events in the profile."""
    base = offload_prog.run()
    run = offload_prog.run(faults="devlost", profile=True)
    assert run.stdout == base.stdout
    assert run.ort.cudadev.lost
    stats = run.ort.cudadev.fault_stats
    assert stats.get("device_lost") == 1
    assert stats.get("fallback", 0) >= 1
    fault_records = run.profile.records("fault")
    assert any(r.op == "fallback" for r in fault_records)
    assert any(r.op == "device_lost" for r in fault_records)
    # nothing ever launched on the device
    assert not [e for e in run.log.events if e.kind == "kernel"]


def test_chaos_transient_preset_is_deterministic_and_correct(offload_prog):
    """Seeded transient chaos: same results as the clean run, and two
    chaos runs with the same seed behave identically."""
    base = offload_prog.run()
    r1 = offload_prog.run(faults="transient:p=0.2,seed=11")
    r2 = offload_prog.run(faults="transient:p=0.2,seed=11")
    assert r1.stdout == base.stdout
    assert r1.ort.cudadev.fault_stats == r2.ort.cudadev.fault_stats
    assert r1.ort.cudadev.faultlog.events == r2.ort.cudadev.faultlog.events


def test_recovery_disabled_surfaces_the_failure(offload_prog):
    with pytest.raises(Exception) as err:
        offload_prog.run(
            faults="launch_failed@cuLaunchKernel:p=1.0,times=1000",
            recovery="retries=0,fallback=off")
    assert "LAUNCH_FAILED" in str(err.value)


def test_ompiconfig_faults_field():
    prog = OmpiCompiler(OmpiConfig(faults="oom@cuMemAlloc:count=1")).compile(
        OFFLOAD_SRC, name="cfg_faults")
    run = prog.run()
    assert run.ort.cudadev.fault_stats.get("evict") == 1
    assert "sum=" in run.stdout


def test_declare_target_module_pinned_against_eviction():
    src = r"""
    #include <stdio.h>
    #pragma omp declare target
    double gain = 3.0;
    #pragma omp end declare target
    int main(void) {
        double x[64];
        int i;
        for (i = 0; i < 64; i = i + 1) x[i] = 1.0;
        #pragma omp target teams distribute parallel for map(tofrom: x[0:64])
        for (i = 0; i < 64; i = i + 1)
            x[i] = x[i] * gain;
        printf("x0=%.1f\n", x[0]);
        return 0;
    }
    """
    prog = OmpiCompiler().compile(src, name="pinned")
    base = prog.run()
    assert "x0=3.0" in base.stdout
    # OOM pressure mid-run evicts caches but must not unload the module
    # owning the declare-target global
    run = prog.run(faults="oom@cuMemAlloc:count=3")
    assert run.stdout == base.stdout


# ---------------------------------------------------------------------------
# Host-fallback registration and lookup (HostDevice)
# ---------------------------------------------------------------------------

class _FakeMachine:
    def __init__(self):
        self.calls = []

    def call(self, fn, *args):
        self.calls.append((fn, args))


def test_host_device_default_hostfn_suffix():
    m = _FakeMachine()
    host = HostDevice(m)
    host.offload("kern_a", [1, 2], (1, 1, 1), (1, 1, 1))
    assert m.calls == [("kern_a_hostfn", (1, 2))]


def test_host_device_explicit_fallback_registration():
    m = _FakeMachine()
    host = HostDevice(m)
    host.register_fallback("kern_b", "custom_host_impl")
    host.offload("kern_b", [], (1, 1, 1), (1, 1, 1))
    host.offload("kern_c", [7], (1, 1, 1), (1, 1, 1))  # unregistered: suffix
    assert m.calls == [("custom_host_impl", ()), ("kern_c_hostfn", (7,))]


def test_host_device_requires_machine():
    host = HostDevice(None)
    with pytest.raises(RuntimeError, match="no interpreter"):
        host.offload("kern", [], (1, 1, 1), (1, 1, 1))


def test_compiled_program_registers_hostfn_fallbacks(offload_prog):
    run = offload_prog.run(main=False)
    fallbacks = run.ort.host_device._fallbacks
    assert fallbacks
    assert all(v == k + "_hostfn" for k, v in fallbacks.items())
    # every registered fallback exists in the translated host program
    for fn in fallbacks.values():
        assert fn in run.machine.globals


# ---------------------------------------------------------------------------
# Multi-tenant fault isolation on the serving runtime
# ---------------------------------------------------------------------------
def test_serving_devlost_does_not_poison_other_sessions():
    """A lost device in one session's launch must not leak into a
    concurrent session bound to another device: the healthy neighbour
    completes bitwise-correct, its device records zero fault events, and
    the victim's request still finishes via host fallback."""
    import numpy as np

    from repro.serving import OffloadServer

    n = 64
    src = f"""
float a[{n}], b[{n}], c[{n}];
int main(void) {{
  #pragma omp target teams distribute parallel for map(to: a, b) map(from: c)
  for (int i = 0; i < {n}; i++) c[i] = a[i] * 2.0f + b[i];
  return 0;
}}
"""
    seeds = {
        "a": np.random.default_rng(1).random(n, dtype=np.float32),
        "b": np.random.default_rng(2).random(n, dtype=np.float32),
    }
    expect = (seeds["a"] * np.float32(2.0) + seeds["b"]).tobytes()

    server = OffloadServer(num_devices=2, faults={0: "devlost"})
    victim = server.open_session("victim", device=0)
    neighbour = server.open_session("neighbour", device=1)
    r_victim = server.submit(victim, src, name="vadd", seed_arrays=seeds,
                             outputs=("c",), arrival=0.0)
    r_neighbour = server.submit(neighbour, src, name="vadd",
                                seed_arrays=seeds, outputs=("c",),
                                arrival=0.0)
    server.drain()

    # the victim's region recovered onto the host and is still correct
    assert r_victim.status == "done"
    assert server.devices[0].lost
    assert server.devices[0].fault_stats.get("device_lost") == 1
    assert np.asarray(r_victim.result["c"]).tobytes() == expect

    # the neighbour's device never saw a fault and computed on-device
    assert r_neighbour.status == "done"
    assert not server.devices[1].lost
    assert not server.devices[1].fault_stats
    assert np.asarray(r_neighbour.result["c"]).tobytes() == expect

    # later requests keep both tenants alive: the victim reruns on the
    # host path, the neighbour stays on its healthy device
    r2v = server.submit(victim, src, name="vadd", seed_arrays=seeds,
                        outputs=("c",))
    r2n = server.submit(neighbour, src, name="vadd", seed_arrays=seeds,
                        outputs=("c",))
    server.drain()
    assert r2v.status == "done" and r2n.status == "done"
    assert np.asarray(r2v.result["c"]).tobytes() == expect
    assert np.asarray(r2n.result["c"]).tobytes() == expect
    server.close()
