"""End-to-end tests of the OMPi translator + runtime pipeline."""

import numpy as np
import pytest

from repro.cfront import astnodes as A
from repro.ompi import OmpiCompiler, OmpiConfig


def compile_run(src, name="prog", config=None, **run_kw):
    prog = OmpiCompiler(config).compile(src, name)
    run = prog.run(**run_kw)
    return prog, run


SAXPY = r'''
float x[512], y[512];

void saxpy_device(float a, int size)
{
    #pragma omp target map(to: a,size,x[0:size]) map(tofrom: y[0:size])
    {
        int i;
        #pragma omp parallel for
        for (i = 0; i < size; i++)
            y[i] = a * x[i] + y[i];
    }
}

int main(void)
{
    int i;
    for (i = 0; i < 512; i++) { x[i] = i; y[i] = 1.0f; }
    saxpy_device(2.5f, 512);
    return 0;
}
'''


def test_saxpy_masterworker_correct():
    _, run = compile_run(SAXPY, "saxpy")
    y = run.machine.global_array("y")
    assert np.allclose(y, 2.5 * np.arange(512) + 1)


def test_kernel_file_has_fig3b_markers():
    prog = OmpiCompiler().compile(SAXPY, "saxpy")
    text = prog.kernel_sources["saxpy_kernel0"]
    for marker in ("_mw_thrid", "cudadev_in_masterwarp", "cudadev_is_masterthr",
                   "cudadev_register_parallel", "cudadev_workerfunc",
                   "cudadev_exit_target", "cudadev_push_shmem",
                   "cudadev_pop_shmem", "__shared__ struct vars_st0",
                   "__global__ void saxpy_kernel0"):
        assert marker in text, f"missing {marker}"


def test_kernel_file_is_standalone_cuda_c():
    """The emitted kernel file must re-parse and re-compile on its own."""
    from repro.cuda.nvcc import compile_device
    prog = OmpiCompiler().compile(SAXPY, "saxpy")
    image = compile_device(prog.kernel_sources["saxpy_kernel0"], "again")
    assert "saxpy_kernel0" in image.module.kernels


def test_host_code_has_runtime_calls():
    prog = OmpiCompiler().compile(SAXPY, "saxpy")
    host = prog.host_source
    assert "ort_map" in host
    assert "ort_arg_ptr" in host
    assert 'ort_offload(__dev, "saxpy_kernel0"' in host
    assert "ort_unmap" in host
    assert "#pragma omp" not in host


COMBINED = r'''
float A[4096], B[4096], C[4096];

int main(void)
{
    int i, j, n = 64;
    for (i = 0; i < n * n; i++) { A[i] = i % 9; B[i] = i % 5; C[i] = 7.0f; }
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A[0:n*n], B[0:n*n], n) map(from: C[0:n*n]) \
        num_teams(16) num_threads(256)
    for (i = 0; i < n; i++)
        for (j = 0; j < n; j++)
            C[i * n + j] = A[i * n + j] + B[i * n + j];
    return 0;
}
'''


def test_combined_construct_correct():
    _, run = compile_run(COMBINED, "vadd")
    C = run.machine.global_array("C")
    A = np.arange(4096) % 9
    B = np.arange(4096) % 5
    assert np.allclose(C, A + B)


def test_combined_kernel_has_two_phase_distribution():
    prog = OmpiCompiler().compile(COMBINED, "vadd")
    text = prog.kernel_sources["vadd_kernel0"]
    assert "cudadev_get_distribute_chunk" in text
    assert "cudadev_get_static_chunk" in text
    assert "__shared__ struct vars_st" not in text  # no master/worker (§4.2.2)
    assert "cudadev_target_init(0)" in text


def test_combined_grid_block_mapping():
    prog, run = compile_run(COMBINED, "vadd")
    stats = run.ort.cudadev.driver.last_kernel_stats
    # 256 threads -> (32, 8); 16 teams with inner count 64 -> gx=2, gy=8
    assert stats.block == (32, 8, 1)
    assert stats.grid[0] * stats.grid[1] * stats.grid[2] == 16


def test_from_map_does_not_copy_in():
    prog, run = compile_run(COMBINED, "vadd")
    h2d = [e for e in run.log.events if e.kind == "memcpy_h2d"]
    d2h = [e for e in run.log.events if e.kind == "memcpy_d2h"]
    # A and B copied in (n passes by value); only C copied out
    assert len(h2d) == 2
    assert len(d2h) == 1


def test_dynamic_schedule():
    src = COMBINED.replace("num_teams(16) num_threads(256)",
                           "num_teams(16) num_threads(256) schedule(dynamic, 8)")
    prog, run = compile_run(src, "vadd_dyn")
    assert "cudadev_get_dynamic_chunk" in prog.kernel_sources["vadd_dyn_kernel0"]
    C = run.machine.global_array("C")
    assert np.allclose(C, np.arange(4096) % 9 + np.arange(4096) % 5)


def test_guided_schedule():
    src = COMBINED.replace("num_teams(16) num_threads(256)",
                           "num_teams(16) num_threads(256) schedule(guided)")
    _, run = compile_run(src, "vadd_g")
    C = run.machine.global_array("C")
    assert np.allclose(C, np.arange(4096) % 9 + np.arange(4096) % 5)


def test_target_data_avoids_repeated_transfers():
    src = r'''
    float v[256];
    int main(void)
    {
        int i, n = 256;
        for (i = 0; i < n; i++) v[i] = 1.0f;
        #pragma omp target data map(tofrom: v[0:n])
        {
            #pragma omp target teams distribute parallel for map(tofrom: v[0:n]) \
                num_teams(2) num_threads(128)
            for (i = 0; i < n; i++) v[i] = v[i] + 1.0f;
            #pragma omp target teams distribute parallel for map(tofrom: v[0:n]) \
                num_teams(2) num_threads(128)
            for (i = 0; i < n; i++) v[i] = v[i] * 2.0f;
        }
        return 0;
    }
    '''
    prog, run = compile_run(src, "tdata")
    v = run.machine.global_array("v")
    assert np.allclose(v, 4.0)
    # the enclosing target data means one copy-in and one copy-out for the
    # array (small transfers are the implicitly-mapped scalar n)
    h2d = [e for e in run.log.events if e.kind == "memcpy_h2d" and e.bytes >= 1024]
    d2h = [e for e in run.log.events if e.kind == "memcpy_d2h" and e.bytes >= 1024]
    assert len(h2d) == 1
    assert len(d2h) == 1


def test_target_enter_exit_data_and_update():
    src = r'''
    float v[64];
    int main(void)
    {
        int i, n = 64;
        for (i = 0; i < n; i++) v[i] = 3.0f;
        #pragma omp target enter data map(to: v[0:n])
        for (i = 0; i < n; i++) v[i] = 100.0f;   /* host-side change */
        #pragma omp target update to(v[0:n])
        #pragma omp target teams distribute parallel for map(tofrom: v[0:n]) \
            num_teams(1) num_threads(64)
        for (i = 0; i < n; i++) v[i] = v[i] + 1.0f;
        #pragma omp target update from(v[0:n])
        #pragma omp target exit data map(from: v[0:n])
        return 0;
    }
    '''
    _, run = compile_run(src, "tenter")
    v = run.machine.global_array("v")
    assert np.allclose(v, 101.0)


def test_device_clause_initial_device_runs_host_fallback():
    src = SAXPY.replace("#pragma omp target map",
                        "#pragma omp target device(1) map")
    _, run = compile_run(src, "saxhost")
    y = run.machine.global_array("y")
    assert np.allclose(y, 2.5 * np.arange(512) + 1)
    # no kernels ran on the GPU
    assert run.log.count("kernel") == 0


def test_if_clause_false_runs_host_fallback():
    src = SAXPY.replace("#pragma omp target map",
                        "#pragma omp target if(size > 100000) map")
    _, run = compile_run(src, "saxif")
    assert np.allclose(run.machine.global_array("y"),
                       2.5 * np.arange(512) + 1)
    assert run.log.count("kernel") == 0


def test_device_critical_region():
    src = r'''
    int total[1];
    int main(void)
    {
        total[0] = 0;
        #pragma omp target map(tofrom: total)
        {
            #pragma omp parallel num_threads(96)
            {
                #pragma omp critical
                {
                    total[0] = total[0] + 1;
                }
            }
        }
        return 0;
    }
    '''
    prog, run = compile_run(src, "crit")
    assert "cudadev_trylock" in prog.kernel_sources["crit_kernel0"]
    assert run.machine.global_array("total")[0] == 96


def test_device_barrier_and_single():
    src = r'''
    int data[97];
    int main(void)
    {
        int i;
        for (i = 0; i < 97; i++) data[i] = 0;
        #pragma omp target map(tofrom: data)
        {
            #pragma omp parallel num_threads(96)
            {
                data[omp_get_thread_num()] = 1;
                #pragma omp barrier
                #pragma omp single
                {
                    int t, total = 0;
                    for (t = 0; t < 96; t++) total += data[t];
                    data[96] = total;
                }
            }
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "barr")
    assert run.machine.global_array("data")[96] == 96


def test_device_sections():
    src = r'''
    int out[3];
    int main(void)
    {
        out[0] = 0; out[1] = 0; out[2] = 0;
        #pragma omp target map(tofrom: out)
        {
            #pragma omp parallel num_threads(96)
            {
                #pragma omp sections
                {
                    #pragma omp section
                    { out[0] = out[0] + 1; }
                    #pragma omp section
                    { out[1] = out[1] + 1; }
                    #pragma omp section
                    { out[2] = out[2] + 1; }
                }
            }
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "sect")
    assert list(run.machine.global_array("out")) == [1, 1, 1]


def test_device_reduction_add():
    src = r'''
    float s[1];
    float vals[256];
    int main(void)
    {
        int i, n = 256;
        for (i = 0; i < n; i++) vals[i] = 0.5f;
        s[0] = 0.0f;
        #pragma omp target teams distribute parallel for \
            map(to: vals[0:n], n) map(tofrom: s) num_teams(2) num_threads(128)
        for (i = 0; i < n; i++)
        {
            #pragma omp atomic
            s[0] += vals[i];
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "red")
    assert np.isclose(run.machine.global_array("s")[0], 128.0)


def test_host_parallel_for():
    src = r'''
    float out[100];
    int main(void)
    {
        int i, n = 100;
        #pragma omp parallel for num_threads(4)
        for (i = 0; i < n; i++)
            out[i] = 2 * i;
        return 0;
    }
    '''
    _, run = compile_run(src, "hostpar")
    assert np.allclose(run.machine.global_array("out"), 2 * np.arange(100))


def test_host_parallel_thread_ids():
    src = r'''
    int tids[4];
    int main(void)
    {
        #pragma omp parallel num_threads(4)
        {
            tids[omp_get_thread_num()] = omp_get_thread_num() + 10;
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "tids")
    assert list(run.machine.global_array("tids")) == [10, 11, 12, 13]


def test_declare_target_function_embedded_in_kernel():
    src = r'''
    float x[64];
    #pragma omp declare target
    float twice(float v) { return 2.0f * v; }
    #pragma omp end declare target
    int main(void)
    {
        int i, n = 64;
        for (i = 0; i < n; i++) x[i] = i;
        #pragma omp target teams distribute parallel for map(tofrom: x[0:n], n) \
            num_teams(1) num_threads(64)
        for (i = 0; i < n; i++)
            x[i] = twice(x[i]);
        return 0;
    }
    '''
    prog, run = compile_run(src, "dclt")
    assert "__device__ float twice" in prog.kernel_sources["dclt_kernel0"]
    assert np.allclose(run.machine.global_array("x"), 2.0 * np.arange(64))


def test_scalar_tofrom_copied_back():
    src = r'''
    int flag[1];
    int main(void)
    {
        flag[0] = 0;
        #pragma omp target map(tofrom: flag)
        {
            flag[0] = 42;
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "scl")
    assert run.machine.global_array("flag")[0] == 42


def test_unmapped_pointer_rejected():
    src = r'''
    void f(float *p, int n)
    {
        int i;
        #pragma omp target map(to: n)
        {
            #pragma omp parallel for
            for (i = 0; i < n; i++) p[i] = 0.0f;
        }
    }
    int main(void) { return 0; }
    '''
    from repro.ompi.outline import OutlineError
    with pytest.raises(OutlineError):
        OmpiCompiler().compile(src, "bad")


def test_ptx_mode_jits_and_caches(tmp_path):
    from repro.cuda.ptx.jit import JitCache
    config = OmpiConfig(binary_mode="ptx")
    prog = OmpiCompiler(config).compile(SAXPY, "saxptx")
    cache = JitCache(tmp_path / "cc")
    run1 = prog.run(jit_cache=cache)
    assert np.allclose(run1.machine.global_array("y"), 2.5 * np.arange(512) + 1)
    jit1 = [e for e in run1.log.events if e.kind == "jit"]
    assert len(jit1) == 1 and jit1[0].detail == "compiled"
    # second process run: disk cache hit, much cheaper
    run2 = prog.run(jit_cache=cache)
    jit2 = [e for e in run2.log.events if e.kind == "jit"]
    assert jit2[0].detail == "cache hit"
    assert jit2[0].seconds < jit1[0].seconds


def test_cubin_mode_never_jits():
    prog = OmpiCompiler(OmpiConfig(binary_mode="cubin")).compile(SAXPY, "saxcb")
    run = prog.run()
    assert run.log.count("jit") == 0


def test_lazy_device_initialization():
    src = r'''
    int main(void)
    {
        printf("no offloading here\n");
        return 0;
    }
    '''
    prog, run = compile_run(src, "noop")
    assert not run.ort.cudadev.initialized
    _, run2 = compile_run(SAXPY, "saxlazy")
    assert run2.ort.cudadev.initialized
    assert run2.ort.cudadev.attributes["WARP_SIZE"] == 32


def test_mw_kernel_launches_128_threads():
    prog, run = compile_run(SAXPY, "sax128")
    stats = run.ort.cudadev.driver.last_kernel_stats
    assert stats.block == (128, 1, 1)
    assert stats.grid == (1, 1, 1)


def test_omp_get_wtime_monotonic_virtual():
    src = r'''
    float x[512], y[512];
    double t0[1], t1[1];
    int main(void)
    {
        int i;
        for (i = 0; i < 512; i++) { x[i] = i; y[i] = 0.0f; }
        t0[0] = omp_get_wtime();
        #pragma omp target teams distribute parallel for \
            map(to: x[0:512]) map(from: y[0:512]) num_teams(4) num_threads(128)
        for (i = 0; i < 512; i++) y[i] = x[i];
        t1[0] = omp_get_wtime();
        return 0;
    }
    '''
    _, run = compile_run(src, "wtime")
    t0 = run.machine.global_array("t0")[0]
    t1 = run.machine.global_array("t1")[0]
    assert t1 > t0 > 0.0 or (t0 >= 0.0 and t1 > t0)


def test_lastprivate_on_combined_construct():
    src = r'''
    float v[96];
    int outv[1];
    int main(void)
    {
        int i, n = 96, last = -1;
        #pragma omp target teams distribute parallel for lastprivate(last) \
            map(tofrom: v[0:n]) map(to: n) num_teams(1) num_threads(96)
        for (i = 0; i < n; i++)
        {
            v[i] = 1.0f;
            last = i + 1000;
        }
        outv[0] = last;
        return 0;
    }
    '''
    _, run = compile_run(src, "lastp")
    assert run.machine.global_array("outv")[0] == 1095
    assert (run.machine.global_array("v") == 1.0).all()


def test_simd_directives_accepted():
    src = r'''
    float v[64];
    int main(void)
    {
        int i, n = 64;
        #pragma omp target map(tofrom: v[0:n], n)
        {
            #pragma omp parallel num_threads(32)
            {
                #pragma omp for simd
                for (i = 0; i < n; i++)
                    v[i] = 4.0f;
            }
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "simd")
    assert (run.machine.global_array("v") == 4.0).all()


def test_host_sections_round_robin():
    src = r'''
    int who[3];
    int main(void)
    {
        #pragma omp parallel num_threads(2)
        {
            #pragma omp sections
            {
                #pragma omp section
                { who[0] = 10 + omp_get_thread_num(); }
                #pragma omp section
                { who[1] = 20 + omp_get_thread_num(); }
                #pragma omp section
                { who[2] = 30 + omp_get_thread_num(); }
            }
        }
        return 0;
    }
    '''
    _, run = compile_run(src, "hsect")
    assert list(run.machine.global_array("who")) == [10, 21, 30]


def test_defaults_without_num_teams_num_threads():
    """Without num_teams/num_threads OMPi picks defaults: 128 threads and
    enough teams to cover the iteration space."""
    src = r'''
    float v[1000];
    int main(void)
    {
        int i, n = 1000;
        #pragma omp target teams distribute parallel for \
            map(tofrom: v[0:n]) map(to: n)
        for (i = 0; i < n; i++)
            v[i] = 3.0f;
        return 0;
    }
    '''
    _, run = compile_run(src, "defaults")
    assert (run.machine.global_array("v") == 3.0).all()
    stats = run.ort.cudadev.driver.last_kernel_stats
    threads_per_block = stats.block[0] * stats.block[1] * stats.block[2]
    assert threads_per_block == 128
    total = stats.grid[0] * stats.grid[1] * stats.grid[2] * threads_per_block
    assert total >= 1000


def test_thread_limit_caps_num_threads():
    src = r'''
    float v[512];
    int main(void)
    {
        int i, n = 512;
        #pragma omp target teams distribute parallel for \
            map(tofrom: v[0:n]) map(to: n) \
            num_teams(8) num_threads(256) thread_limit(64)
        for (i = 0; i < n; i++)
            v[i] = 3.0f;
        return 0;
    }
    '''
    _, run = compile_run(src, "tlimit")
    assert (run.machine.global_array("v") == 3.0).all()
    stats = run.ort.cudadev.driver.last_kernel_stats
    assert stats.block[0] * stats.block[1] * stats.block[2] == 64


# -- equivalent spellings translate alike ---------------------------------------
# A pragma under a do-while, or a combined construct split over nested
# pragmas, must behave like its while-loop or one-line twin.

def _while_twin(src):
    """``src`` with its ``do { ... } while (r < 3);`` loop as a while loop."""
    head, rest = src.split("do {", 1)
    body, tail = rest.split("} while (r < 3);", 1)
    return head + "while (r < 3) {" + body + "}" + tail


def _twin_outputs(srcs, array, **run_kw):
    """The global ``array`` after running each program, as lists."""
    return [list(compile_run(src, f"twin{i}", **run_kw)[1]
                 .machine.global_array(array))
            for i, src in enumerate(srcs)]


HOST_DO_SINGLE = r'''
int hits[4];
int main(void)
{
    int total = 0;
    #pragma omp parallel num_threads(4)
    {
        int r = 0;
        do {
            #pragma omp single
            { total = total + 1; }
            hits[omp_get_thread_num()] += 1;
            r++;
        } while (r < 3);
    }
    hits[0] += 10 * total;
    return 0;
}
'''


def test_do_while_with_single_in_host_parallel_region():
    do, twin = _twin_outputs(
        (HOST_DO_SINGLE, _while_twin(HOST_DO_SINGLE)), "hits")
    assert do == twin == [33, 3, 3, 3]


TARGET_DO_PARALLEL = r'''
int out[64];
int main(void)
{
    #pragma omp target map(tofrom: out)
    {
        int r = 0;
        do {
            #pragma omp parallel num_threads(64)
            { out[omp_get_thread_num()] += r + 1; }
            r++;
        } while (r < 3);
    }
    return 0;
}
'''


def test_do_while_with_parallel_in_target_master_region():
    do, twin = _twin_outputs(
        (TARGET_DO_PARALLEL, _while_twin(TARGET_DO_PARALLEL)), "out")
    assert do == twin == [6] * 64


SPLIT_TARGET = r'''
float a[64];
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) a[i] = i;
    #pragma omp target if(0) map(tofrom: a)
    #pragma omp teams distribute parallel for
    for (i = 0; i < 64; i++)
        a[i] = 2.0f * a[i] + 1.0f;
    return 0;
}
'''
ONE_LINE_TARGET = SPLIT_TARGET.replace(
    "target if(0) map(tofrom: a)\n    #pragma omp teams distribute parallel for",
    "target teams distribute parallel for if(0) map(tofrom: a)")


@pytest.mark.parametrize("device", [False, True], ids=["if0", "launch-failed"])
def test_split_combined_region_host_fallback(device):
    # on the device every launch fails, so both spellings run the hostfn
    kw = {}
    srcs = (SPLIT_TARGET, ONE_LINE_TARGET)
    if device:
        srcs = tuple(s.replace(" if(0)", "") for s in srcs)
        kw = dict(faults="launch_failed@cuLaunchKernel:probability=1",
                  recovery="retries=0")
    split, one_line = _twin_outputs(srcs, "a", **kw)
    assert split == one_line == list(2.0 * np.arange(64) + 1.0)


def test_clone_copies_nodes_and_shares_immutable_leaves():
    from repro.cfront.parser import parse_translation_unit
    from repro.cfront.unparse import unparse
    from repro.ompi.astutil import clone
    from repro.openmp.validator import validate_unit

    unit = parse_translation_unit(SAXPY, "saxpy.c")
    validate_unit(unit)
    body = next(d.body for d in unit.functions() if d.name == "saxpy_device")
    copy = clone(body)
    assert unparse(copy) == unparse(body)
    old, new = list(body.walk()), list(copy.walk())
    assert len(old) == len(new)
    assert not {id(n) for n in old} & {id(n) for n in new}
    for a, b in zip(old, new):
        assert type(a) is type(b) and b.loc is a.loc
        if hasattr(a, "type"):
            assert b.type is a.type
        if isinstance(a, A.PragmaStmt):
            assert b.directive == a.directive
            assert b.directive is not a.directive
    assert any(isinstance(n, A.PragmaStmt) for n in old)
