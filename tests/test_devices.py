"""Tests for the heterogeneous device-backend subsystem (repro.devices):
registry resolution, mixed ``device(k)`` routing, throughput-aware
``shard(n)`` planning, and per-arch compile-cache/image separation."""

import hashlib
import os

import numpy as np
import pytest

from repro.cfront.errors import InterpError
from repro.cuda.device import JETSON_NANO_GPU, TESLA_V100_GPU
from repro.cuda.driver import CudaDriver
from repro.cuda.errors import CudaError, CUresult
from repro.cuda.nvcc import compile_device
from repro.devices import (
    BACKENDS, ThroughputTracker, UnknownBackendError, get_backend,
    parse_devices, plan_shards,
)
from repro.devices import throughput
from repro.devices.throughput import equal_split
from repro.ompi.cache import CompileCache, config_fingerprint
from repro.ompi.compiler import OmpiCompiler
from repro.ompi.config import OmpiConfig


def compile_run(src, name="prog", config=None, **run_kw):
    prog = OmpiCompiler(config or OmpiConfig()).compile(src, name)
    return prog, prog.run(**run_kw)


def _digest(run, *names):
    h = hashlib.sha256()
    for name in names:
        h.update(run.machine.global_array(name).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_known_backends_and_arch():
    assert get_backend("nano").arch == "sm_53"
    assert get_backend("tx2").arch == "sm_62"
    assert get_backend("v100").arch == "sm_70"
    assert get_backend("V100") is BACKENDS["v100"]  # case-insensitive
    assert BACKENDS["v100"].props is TESLA_V100_GPU


def test_unknown_backend_name_raises_listing_known():
    with pytest.raises(UnknownBackendError, match="sm90"):
        get_backend("sm90")
    with pytest.raises(UnknownBackendError, match="v100"):
        # the error message lists the known names
        get_backend("a100")
    with pytest.raises(UnknownBackendError):
        parse_devices("nano,,nope")


def test_parse_devices_accepts_spec_and_sequences():
    assert [b.name for b in parse_devices("nano,v100")] == ["nano", "v100"]
    assert [b.name for b in parse_devices(["tx2", BACKENDS["v100"]])] \
        == ["tx2", "v100"]
    with pytest.raises(UnknownBackendError, match="empty"):
        parse_devices("")


def test_v100_profile_and_calibration():
    b = get_backend("v100")
    assert b.props.multiprocessor_count == 80
    assert b.props.compute_capability == (7, 0)
    assert b.props.concurrent_kernels > 1
    # Volta: fp64 at 1:2 rate, not Maxwell's 1:32
    assert b.calibration.f64_penalty == 2.0
    assert get_backend("nano").calibration.f64_penalty == 32.0
    # the calibrated throughput hint orders the devices correctly
    assert b.calibrated_throughput() \
        > get_backend("tx2").calibrated_throughput() \
        > get_backend("nano").calibrated_throughput()


# ---------------------------------------------------------------------------
# shard planner
# ---------------------------------------------------------------------------

def test_plan_shards_uniform_matches_legacy_ceil_split():
    for total, n in [(8, 2), (10, 4), (3, 4), (0, 2), (7, 3), (64, 5)]:
        legacy = equal_split(total, n)
        assert plan_shards(total, None, n) == legacy
        assert plan_shards(total, [1.0] * n) == legacy
        assert plan_shards(total, [3.7] * n) == legacy


def test_plan_shards_weighted_contiguous_and_complete():
    for total, weights in [(100, [1, 9]), (8, [1, 60]), (17, [2, 3, 5]),
                           (1, [5, 1]), (12, [0.0, 1.0])]:
        ranges = plan_shards(total, weights)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == total
        for (_, hi), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi == lo2  # contiguous, in device order
        counts = [hi - lo for lo, hi in ranges]
        assert sum(counts) == total
    # proportionality: a 9x faster device gets ~9x the blocks
    ranges = plan_shards(100, [1, 9])
    assert ranges == [(0, 10), (10, 100)]


def test_throughput_tracker_ewma():
    t = ThroughputTracker(hint=50.0)
    assert t.weight == 50.0          # calibrated hint before any launch
    t.note(10, 1.0)
    assert t.weight == 10.0          # first observation replaces the hint
    t.note(30, 1.0)
    assert 10.0 < t.weight < 30.0    # EWMA moves toward the new rate
    t.note(0, 1.0)                   # degenerate samples are ignored
    t.note(10, 0.0)
    assert t.samples == 2


# ---------------------------------------------------------------------------
# mixed device(k) routing
# ---------------------------------------------------------------------------

MIXED_SRC = r'''
int N = 128;
float a[128], b[128], c[128];
int main(void) {
  int i;
  for (i = 0; i < N; i++) { a[i] = i * 0.5f; b[i] = i * 0.25f; }
  #pragma omp target teams distribute parallel for map(to: a, b) map(from: c)
  for (i = 0; i < N; i++) c[i] = a[i] + b[i];
  #pragma omp target teams distribute parallel for device(1) \
      map(to: a) map(tofrom: b)
  for (i = 0; i < N; i++) b[i] = b[i] + a[i];
  return 0;
}
'''


def test_mixed_registry_device_routing_bit_identical():
    prog = OmpiCompiler(OmpiConfig(profile=True)).compile(MIXED_SRC, "mix")
    base = prog.run(num_devices=2)
    het = prog.run(devices="nano,v100")
    assert _digest(het, "a", "b", "c") == _digest(base, "a", "b", "c")
    assert [m.driver.device_props.arch for m in het.ort.devices] \
        == ["sm_53", "sm_70"]
    assert [m.backend.name for m in het.ort.devices] == ["nano", "v100"]
    # device(1) really ran on the V100: it recorded kernel activity
    devs_used = {r.device for r in het.profile.records()
                 if r.kind == "kernel"}
    assert devs_used == {0, 1}


def test_mixed_registry_out_of_range_device_raises():
    src = r'''
    float x[8];
    int main(void) {
      int i;
      #pragma omp target teams distribute parallel for device(5) \
          map(tofrom: x)
      for (i = 0; i < 8; i++) x[i] = 1.0f;
      return 0;
    }
    '''
    with pytest.raises(InterpError, match="invalid device number 5"):
        compile_run(src, config=OmpiConfig(devices="nano,v100"))


def test_run_devices_spec_rejects_unknown_backend():
    prog = OmpiCompiler(OmpiConfig()).compile(MIXED_SRC, "mix2")
    with pytest.raises(UnknownBackendError, match="turing"):
        prog.run(devices="nano,turing")


def test_repro_devices_env_builds_mixed_registry(monkeypatch):
    monkeypatch.setenv("REPRO_DEVICES", "nano,v100")
    prog = OmpiCompiler(OmpiConfig()).compile(MIXED_SRC, "mix3")
    run = prog.run()
    assert [m.backend.name for m in run.ort.devices] == ["nano", "v100"]
    base = prog.run(num_devices=2)
    assert _digest(run, "a", "b", "c") == _digest(base, "a", "b", "c")


# ---------------------------------------------------------------------------
# throughput-balanced shard(n)
# ---------------------------------------------------------------------------

SHARD_SRC = r'''
float a[48][48], b[48][48], c[48][48];
int main(void)
{
    int i, j, k;
    for (i = 0; i < 48; i++)
        for (j = 0; j < 48; j++) {
            a[i][j] = (float)((i + j) % 7) * 0.5f;
            b[i][j] = (float)((i * 3 + j * 5) % 11) - 4.0f;
            c[i][j] = 0.0f;
        }
    #pragma omp target teams distribute parallel for num_teams(16) shard(2) \
        map(to: a, b) map(tofrom: c)
    for (i = 0; i < 48; i++)
        for (j = 0; j < 48; j++) {
            float acc = 0.0f;
            for (k = 0; k < 48; k++)
                acc += a[i][k] * b[k][j];
            c[i][j] = acc;
        }
    return 0;
}
'''


def test_shard_throughput_bit_identical_to_equal_split(monkeypatch):
    prog = OmpiCompiler(OmpiConfig()).compile(SHARD_SRC, "sgemm")
    single = prog.run(num_devices=1)
    tp = prog.run(devices="nano,v100")
    with monkeypatch.context() as m:
        # the equal-split baseline: the planner ignores the weights
        m.setattr(throughput, "plan_shards",
                  lambda total, weights: equal_split(total, len(weights)))
        eq = prog.run(devices="nano,v100")
    assert _digest(single, "c") == _digest(eq, "c") == _digest(tp, "c")
    # the balanced run finishes sooner on the modelled timeline
    assert tp.measured_time < eq.measured_time


def test_shard_homogeneous_registry_keeps_legacy_split():
    prog = OmpiCompiler(OmpiConfig(profile=True)).compile(SHARD_SRC, "sgemm2")
    run = prog.run(num_devices=2)
    blocks = sorted(
        (r.device, r.grid) for r in run.profile.records()
        if r.kind == "kernel")
    # 16 teams, equal ceil split: both devices launch (global grid dims)
    assert {d for d, _ in blocks} == {0, 1}


def test_shard_weight_seeded_by_calibration_then_observed():
    from repro.devices.throughput import registry_weights
    prog = OmpiCompiler(OmpiConfig()).compile(SHARD_SRC, "sgemm3")
    run = prog.run(devices="nano,v100")
    nano, v100 = run.ort.devices
    # hints seed the plan: the V100 outweighs the Nano before and after
    w = registry_weights([nano.throughput, v100.throughput])
    assert w[1] > w[0]
    # any device that launched refined its estimate from observation
    assert any(mod.throughput.samples for mod in run.ort.devices)
    for mod in run.ort.devices:
        if mod.throughput.samples:
            assert mod.throughput.observed is not None
    # hint scale never mixes with observed scale in one weight vector
    a = ThroughputTracker(hint=1e11)
    b = ThroughputTracker(hint=7e12)
    b.note(8, 1e-3)
    assert registry_weights([a, b]) == [1e11, 7e12]
    a.note(2, 1e-3)
    assert registry_weights([a, b]) == [a.observed, b.observed]


def test_shard_devlost_on_mixed_registry_degrades_whole_region_to_host():
    # one shard device of a heterogeneous registry dies mid-shard(n):
    # the whole region must degrade to the host fallback bit-identically
    # — no half-sharded result assembled from a poisoned device.
    prog = OmpiCompiler(OmpiConfig()).compile(SHARD_SRC, "sgemm_lost")
    single = prog.run(num_devices=1)
    faulty = prog.run(
        devices="nano,v100",
        faults={1: "device_unavailable@cuLaunchKernel:count=1,sticky=1"})
    assert _digest(single, "c") == _digest(faulty, "c")
    nano, v100 = faulty.ort.devices
    # the v100 shard hit the sticky loss and the region fell back ...
    assert v100.lost
    assert v100.fault_stats["device_lost"] == 1
    assert v100.fault_stats["fallback"] == 1
    # ... while the healthy nano was neither faulted nor lost (dict
    # faults target exactly one ordinal)
    assert not nano.lost
    assert not nano.fault_stats


# ---------------------------------------------------------------------------
# per-arch compile-cache and image separation
# ---------------------------------------------------------------------------

KERNEL_SRC = r'''
float x[64];
int main(void) {
  int i;
  #pragma omp target teams distribute parallel for map(tofrom: x)
  for (i = 0; i < 64; i++) x[i] = x[i] + 1.0f;
  return 0;
}
'''


def test_compile_cache_keys_separate_arches():
    cfg53 = OmpiConfig(arch="sm_53")
    cfg70 = OmpiConfig(arch="sm_70")
    assert config_fingerprint(cfg53) != config_fingerprint(cfg70)
    cache = CompileCache()
    p53 = cache.get(KERNEL_SRC, "karch", cfg53)
    p70 = cache.get(KERNEL_SRC, "karch", cfg70)
    assert cache.misses == 2          # no cross-arch serving
    assert p53 is not p70
    k = p53.plans[0].kernel_name
    assert p53.images[k].arch == "sm_53"
    assert p70.images[k].arch == "sm_70"
    # and the sm_53 entry is a genuine hit for a second sm_53 request
    # (hits return a config-rebound copy sharing the compiled artifacts)
    again = cache.get(KERNEL_SRC, "karch", OmpiConfig(arch="sm_53"))
    assert again.images is p53.images
    assert cache.hits == 1


def test_driver_rejects_cross_arch_cubin():
    image = compile_device("__global__ void k(float *p) { }", "k",
                           mode="cubin", arch="sm_53")
    drv = CudaDriver(TESLA_V100_GPU)
    drv.cuInit(0)
    ctx = drv.cuDevicePrimaryCtxRetain(drv.cuDeviceGet(0))
    drv.cuCtxSetCurrent(ctx)
    with pytest.raises(CudaError) as exc:
        drv.cuModuleLoadData(image)
    assert exc.value.result == CUresult.CUDA_ERROR_INVALID_IMAGE


def test_bind_retargets_cubins_per_device_arch():
    prog = OmpiCompiler(OmpiConfig(arch="sm_53")).compile(KERNEL_SRC, "kb")
    run = prog.run(devices="nano,v100")
    k = prog.plans[0].kernel_name
    # the original sm_53 image is untouched; an sm_70 twin was memoised
    assert prog.images[k].arch == "sm_53"
    assert prog.images[f"{k}@sm_70"].arch == "sm_70"
    nano, v100 = run.ort.devices
    assert nano._images[k].arch == "sm_53"
    assert v100._images[k].arch == "sm_70"


def test_ptx_mode_images_are_arch_agnostic_across_registry():
    prog = OmpiCompiler(OmpiConfig(binary_mode="ptx")).compile(
        KERNEL_SRC, "kptx")
    base = prog.run(num_devices=2)
    het = prog.run(devices="nano,v100")
    assert _digest(het, "x") == _digest(base, "x")
    # no cubin retarget entries: the JIT keys on device arch instead
    assert all("@" not in name for name in prog.images)
