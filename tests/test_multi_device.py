"""Tests for the multi-device registry: ``num_devices``, ``device(k)``
routing, peer copies, and the ``shard`` clause splitting a ``target teams
distribute`` across several simulated GPUs."""

import numpy as np
import pytest

from repro.cfront.errors import InterpError
from repro.hostrt.mapping import MAP_TO
from repro.ompi.compiler import OmpiCompiler
from repro.ompi.config import OmpiConfig
from repro.openmp import OmpValidationError, parse_omp_pragma, validate_directive


def compile_run(src, name="prog", config=None, **run_kw):
    prog = OmpiCompiler(config or OmpiConfig()).compile(src, name)
    return prog, prog.run(**run_kw)


GEMM_SRC = r'''
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
    #pragma omp target teams distribute parallel for num_teams(8) %SHARD% \
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


# ---------------------------------------------------------------------------
# device registry
# ---------------------------------------------------------------------------

def test_num_devices_reflected_in_api():
    src = r'''
    int vals[3];
    int main(void)
    {
        vals[0] = omp_get_num_devices();
        vals[1] = omp_get_initial_device();
        vals[2] = omp_get_default_device();
        return 0;
    }
    '''
    _, run = compile_run(src, config=OmpiConfig(num_devices=3))
    vals = list(run.machine.global_array("vals"))
    assert vals[0] == 3
    assert vals[1] == 3          # initial device id = num_devices
    assert vals[2] == 0
    assert run.ort.num_devices == 3
    assert len(run.ort.devices) == 3
    assert len({id(m.driver) for m in run.ort.devices}) == 3


def test_env_var_sets_device_count(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_DEVICES", "2")
    _, run = compile_run("int main(void) { return 0; }")
    assert run.ort.num_devices == 2


def test_devices_have_disjoint_memory_arenas():
    _, run = compile_run("int main(void) { return 0; }",
                         config=OmpiConfig(num_devices=3))
    bases = [m.driver.gmem.base for m in run.ort.devices]
    sizes = [m.driver.gmem.capacity for m in run.ort.devices]
    spans = sorted(zip(bases, sizes))
    for (lo_a, sz_a), (lo_b, _) in zip(spans, spans[1:]):
        assert lo_a + sz_a <= lo_b   # no overlap between device arenas


def test_device_clause_routes_launch_and_maps():
    src = r'''
    float x[256];
    int main(void)
    {
        int i;
        #pragma omp target teams distribute parallel for device(1) \
            map(tofrom: x)
        for (i = 0; i < 256; i++) x[i] = (float)(3 * i);
        #pragma omp target enter data map(to: x) device(2)
        return 0;
    }
    '''
    _, run = compile_run(src, config=OmpiConfig(num_devices=3, profile=True))
    assert (run.machine.global_array("x")
            == 3 * np.arange(256, dtype=np.float32)).all()
    kernels = [r for r in run.ort.prof if r.kind == "kernel"]
    assert kernels and all(r.device == 1 for r in kernels)
    # the un-exited enter data lives in device 2's environment only
    addr = run.machine.global_binding("x").addr
    assert run.ort.dataenvs[2].is_present(addr)
    assert not run.ort.dataenvs[0].is_present(addr)
    assert not run.ort.dataenvs[1].is_present(addr)


def test_invalid_device_number_raises():
    src = r'''
    float x[8];
    int main(void)
    {
        int i;
        #pragma omp target teams distribute parallel for device(7) \
            map(tofrom: x)
        for (i = 0; i < 8; i++) x[i] = 1.0f;
        return 0;
    }
    '''
    with pytest.raises(InterpError, match=r"invalid device number 7"):
        compile_run(src, config=OmpiConfig(num_devices=2))


def test_omp_set_default_device_out_of_range_launch_raises():
    src = r'''
    float x[8];
    int main(void)
    {
        int i;
        omp_set_default_device(5);
        #pragma omp target teams distribute parallel for map(tofrom: x)
        for (i = 0; i < 8; i++) x[i] = 1.0f;
        return 0;
    }
    '''
    with pytest.raises(InterpError, match=r"invalid device number 5"):
        compile_run(src)


# ---------------------------------------------------------------------------
# peer (device-to-device) transfers
# ---------------------------------------------------------------------------

def test_peer_update_moves_bytes_between_devices():
    src = "float buf[16];\nint main(void) { return 0; }"
    _, run = compile_run(src, config=OmpiConfig(num_devices=2))
    ort = run.ort
    buf = run.machine.global_array("buf")
    addr = run.machine.global_binding("buf").addr
    buf[...] = np.arange(16, dtype=np.float32)
    ort.dataenvs[0].map_enter(addr, 64, MAP_TO)   # dev 0 holds the data
    buf[...] = 0.0
    ort.dataenvs[1].map_enter(addr, 64, MAP_TO)   # dev 1 holds zeros
    ort.peer_update(addr, 64, src_dev=0, dst_dev=1)
    ort.dataenvs[1].update_from(addr, 64)         # read back dev 1's copy
    assert (run.machine.global_array("buf")
            == np.arange(16, dtype=np.float32)).all()
    d2d = [e for e in ort.log.events if e.kind == "memcpy_d2d"]
    assert d2d and d2d[0].detail == "peer"


# ---------------------------------------------------------------------------
# shard: splitting target teams distribute across devices
# ---------------------------------------------------------------------------

def test_shard_gemm_bit_identical_to_single_device():
    sharded = GEMM_SRC.replace("%SHARD%", "shard(4)")
    single = GEMM_SRC.replace("%SHARD% \\", "\\")
    _, run4 = compile_run(sharded, "gemm4", OmpiConfig(num_devices=4))
    _, run1 = compile_run(single, "gemm1", OmpiConfig(num_devices=1))
    c4 = np.array(run4.machine.global_array("c"))
    c1 = np.array(run1.machine.global_array("c"))
    assert c4.tobytes() == c1.tobytes()


def test_shard_launches_one_kernel_per_device_concurrently():
    sharded = GEMM_SRC.replace("%SHARD%", "shard(4)")
    _, run = compile_run(sharded, "gemm4",
                         OmpiConfig(num_devices=4, profile=True))
    kernels = [r for r in run.ort.prof if r.kind == "kernel"]
    assert sorted(r.device for r in kernels) == [0, 1, 2, 3]
    # each shard launches with the full global grid (indices stay global)
    assert all(tuple(r.grid) == (8, 1, 1) for r in kernels)
    # the shards overlap in simulated time: every kernel starts before the
    # earliest one finishes (they run on independent devices)
    first_end = min(r.t_end for r in kernels)
    assert all(r.t_start < first_end for r in kernels)


def test_shard_trace_has_per_device_tracks():
    from repro.prof.chrome import chrome_trace
    sharded = GEMM_SRC.replace("%SHARD%", "shard(2)")
    _, run = compile_run(sharded, "gemm2",
                         OmpiConfig(num_devices=2, profile=True))
    trace = chrome_trace(run.ort.prof)
    kernel_tids = {e["tid"] for e in trace["traceEvents"]
                   if e.get("ph") == "X" and e["pid"] == 1
                   and e.get("cat") == "kernel"}
    assert len(kernel_tids) >= 2     # one stream track per device
    names = {e["args"]["name"] for e in trace["traceEvents"]
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    assert any(n.startswith("dev1 stream") for n in names)
    assert "dev1 engine:compute" in names


def test_shard_clamps_to_available_devices():
    # asking for more shards than devices uses every healthy device
    sharded = GEMM_SRC.replace("%SHARD%", "shard(8)")
    _, run = compile_run(sharded, "gemm8",
                         OmpiConfig(num_devices=2, profile=True))
    single = GEMM_SRC.replace("%SHARD% \\", "\\")
    _, run1 = compile_run(single, "gemm1", OmpiConfig(num_devices=1))
    assert (np.array(run.machine.global_array("c")).tobytes()
            == np.array(run1.machine.global_array("c")).tobytes())
    kernels = [r for r in run.ort.prof if r.kind == "kernel"]
    assert sorted(r.device for r in kernels) == [0, 1]


def test_shard_on_single_device_registry_degenerates():
    sharded = GEMM_SRC.replace("%SHARD%", "shard(4)")
    single = GEMM_SRC.replace("%SHARD% \\", "\\")
    _, runs = compile_run(sharded, "gemms", OmpiConfig(num_devices=1))
    _, run1 = compile_run(single, "gemm1", OmpiConfig(num_devices=1))
    assert (np.array(runs.machine.global_array("c")).tobytes()
            == np.array(run1.machine.global_array("c")).tobytes())


def test_shard_preserves_enclosing_target_data():
    # a shard region inside target data must leave the enclosing per-device
    # mappings consistent with the merged host values
    src = r'''
    float x[512];
    float out;
    int main(void)
    {
        int i;
        #pragma omp target data map(tofrom: x)
        {
            #pragma omp target teams distribute parallel for num_teams(4) \
                shard(2) map(tofrom: x)
            for (i = 0; i < 512; i++) x[i] = (float)(i + 1);
            #pragma omp target teams distribute parallel for num_teams(4) \
                map(tofrom: x)
            for (i = 0; i < 512; i++) x[i] = x[i] * 2.0f;
        }
        return 0;
    }
    '''
    _, run = compile_run(src, config=OmpiConfig(num_devices=2))
    expect = (np.arange(512, dtype=np.float32) + 1) * 2
    assert (run.machine.global_array("x") == expect).all()


FAILOVER_SRC = r'''
float x[512];
int main(void)
{
    int i;
    #pragma omp target data map(tofrom: x)
    {
        #pragma omp target teams distribute parallel for num_teams(4) \
            %SHARD% map(tofrom: x)
        for (i = 0; i < 512; i++) x[i] = (float)(i + 1);
        #pragma omp target teams distribute parallel for num_teams(4) \
            map(tofrom: x)
        for (i = 0; i < 512; i++) x[i] = x[i] * 2.0f;
    }
    return 0;
}
'''


@pytest.mark.parametrize("shard, run_kw", [
    ("shard(2)", dict(num_devices=2, faults={
        1: "launch_failed@cuLaunchKernel:probability=1"})),
    ("", dict(num_devices=1, recovery="retries=0", faults={
        0: "launch_failed@cuLaunchKernel:count=1"})),
    # device 1 dies while the shard region replicates its maps
    ("shard(2)", dict(num_devices=2, faults={
        1: "device_unavailable@cuMemAlloc:count=1,sticky=1"})),
], ids=["shard", "plain", "shard-setup"])
def test_failover_inside_target_data_resyncs_devices(shard, run_kw):
    # the first region runs on the host instead of its device(s); the
    # device copy held by the enclosing target data must then carry the
    # host result, or its exit copies stale device bytes back over it
    _, run = compile_run(FAILOVER_SRC.replace("%SHARD%", shard), **run_kw)
    assert run.ort.fault_stats["inject"] >= 1
    expect = (np.arange(512, dtype=np.float32) + 1) * 2
    assert (run.machine.global_array("x") == expect).all()


def test_shard_partitions_work_disjointly():
    # per-device kernels see disjoint team subranges: total instructions
    # across shards stay close to the single-device count (no duplicate
    # execution of the iteration space)
    sharded = GEMM_SRC.replace("%SHARD%", "shard(4)")
    single = GEMM_SRC.replace("%SHARD% \\", "\\")
    _, run4 = compile_run(sharded, "gemm4",
                          OmpiConfig(num_devices=4, profile=True))
    _, run1 = compile_run(single, "gemm1",
                          OmpiConfig(num_devices=1, profile=True))
    insn4 = sum(r.instructions for r in run4.ort.prof if r.kind == "kernel")
    insn1 = sum(r.instructions for r in run1.ort.prof if r.kind == "kernel")
    assert insn4 == insn1


# ---------------------------------------------------------------------------
# shard clause validation
# ---------------------------------------------------------------------------

def test_shard_requires_teams_distribute():
    d = parse_omp_pragma("omp target shard(2)")
    with pytest.raises(OmpValidationError, match="teams distribute"):
        validate_directive(d)


def test_shard_rejects_nowait_and_device():
    for clause in ("nowait", "device(1)"):
        d = parse_omp_pragma(
            f"omp target teams distribute shard(2) {clause}")
        with pytest.raises(OmpValidationError):
            validate_directive(d)


def test_shard_accepted_on_combined_construct():
    d = parse_omp_pragma(
        "omp target teams distribute parallel for shard(2)")
    validate_directive(d)   # must not raise
