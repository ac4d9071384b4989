"""Golden checks on generated code (host side and kernel side).

The structural tests pin down the *shape* of the translator output —
runtime-call ordering, launch-geometry computation, Fig. 3b structure —
so codegen regressions surface as readable text diffs rather than
downstream execution failures.

``test_codegen_digests_match_table`` pins the exact bytes: sha256
digests of the host program and of every kernel file, for each suite app
at its smallest size and each host workload at n=256, under both
reduction modes, against ``codegen_digests.json``.  Regenerate the table
with ``PYTHONPATH=src python tests/test_ompi_codegen_golden.py --write``
only for a deliberate codegen change, and record that change in
CHANGES.md.

``test_handed_over_tree_lowers_like_its_text`` guards the nvcc boundary:
the compiler hands nvcc the kernel tree it built rather than re-parsing
the kernel file it emits, so the tree and the parse of its text must
lower to equal IR and identical PTX.  It covers the pinned programs plus
the reduction gate's programs and a master-worker region without
``num_threads``, whose kernels hold the literals the translator builds
itself (``__shfl_down_sync``'s ``-1`` mask, the default thread count).
"""

import functools
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_reductions  # noqa: E402
from repro.cfront import astnodes as A
from repro.cfront.parser import parse_translation_unit
from repro.cfront.unparse import unparse
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.ptx.ptxwriter import module_to_ptx
from repro.devrt import INTRINSIC_SIGS
from repro.devrt.api import DEVICE_LIBRARY_HEADER
from repro.ompi import OmpiCompiler, OmpiConfig
from repro.ompi.compiler import _header_decls, kernel_file_unit

COMBINED = r'''
float A[4096], B[4096];
int main(void)
{
    int i, j, n = 64;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A[0:n*n], n) map(from: B[0:n*n]) \
        num_teams(16) num_threads(256) schedule(static)
    for (i = 0; i < n; i++)
        for (j = 0; j < n; j++)
            B[i * n + j] = 2.0f * A[i * n + j];
    return 0;
}
'''


@pytest.fixture(scope="module")
def combined():
    return OmpiCompiler().compile(COMBINED, "gold")


def test_host_call_ordering(combined):
    host = combined.host_source
    order = [m.group(0) for m in re.finditer(
        r"ort_(map|arg_ptr|arg_val|offload|unmap)", host)]
    # maps, then args, then one offload, then unmaps
    first_arg = order.index("ort_arg_ptr") if "ort_arg_ptr" in order else \
        order.index("ort_arg_val")
    assert all(o == "ort_map" for o in order[:first_arg])
    offload_at = order.index("ort_offload")
    assert all(o in ("ort_arg_ptr", "ort_arg_val")
               for o in order[first_arg:offload_at])
    assert all(o == "ort_unmap" for o in order[offload_at + 1:])


def test_host_unmap_reverse_order(combined):
    host = combined.host_source
    maps = re.findall(r"ort_map\(__dev, (\w+)", host)
    unmaps = re.findall(r"ort_unmap\(__dev, (\w+)", host)
    assert maps == list(reversed(unmaps))


def test_host_grid_block_computation(combined):
    host = combined.host_source
    for var in ("__nth", "__bx", "__by", "__gx", "__gy", "__teams", "__hn0",
                "__hn1"):
        assert re.search(rf"long {var}", host), f"missing {var}"
    # grid.x covers the innermost (j) dimension
    assert "__hn1" in host.split("long __gx")[1].splitlines()[0]


def test_host_code_reparses(combined):
    # the transformed host program is valid C for our frontend
    parse_translation_unit(combined.host_source, "again.c")


def test_kernel_reparses_and_roundtrips(combined):
    text = combined.kernel_sources["gold_kernel0"]
    unit = parse_translation_unit(text, "again.cu")
    from repro.cfront.unparse import unparse
    again = unparse(unit)
    unit2 = parse_translation_unit(again, "again2.cu")
    assert unparse(unit2) == again


def test_combined_kernel_dim_structure(combined):
    text = combined.kernel_sources["gold_kernel0"]
    # outer dimension (i) distributes along y (dim 1), inner (j) along x
    assert "cudadev_get_distribute_chunk_dim(1" in text
    assert "cudadev_get_distribute_chunk_dim(0" in text
    y_pos = text.index("cudadev_get_static_chunk_dim(1")
    x_pos = text.index("cudadev_get_static_chunk_dim(0")
    assert y_pos < x_pos                     # y loop wraps the x loop
    assert "cudadev_target_init(0);" in text


def test_by_value_scalar_parameter(combined):
    text = combined.kernel_sources["gold_kernel0"]
    assert re.search(r"__global__ void gold_kernel0\(float \*A, int n, float \*B\)",
                     text)
    host = combined.host_source
    assert "ort_arg_val(__dev, n)" in host
    assert not re.search(r"ort_map\(__dev, &n", host)


def test_dynamic_schedule_uses_linear_scheme():
    src = COMBINED.replace("schedule(static)", "schedule(dynamic, 4)")
    prog = OmpiCompiler().compile(src, "dyn")
    text = prog.kernel_sources["dyn_kernel0"]
    assert "cudadev_get_dynamic_chunk(" in text
    body = text[text.index("__global__"):]
    assert "cudadev_get_distribute_chunk(0" in body
    assert "_chunk_dim(0" not in body and "_chunk_dim(1" not in body
    assert "__niter" in body


MW = r'''
float data[128];
int main(void)
{
    #pragma omp target map(tofrom: data)
    {
        float total = 0.0f;
        int i;
        #pragma omp parallel num_threads(64) firstprivate(total)
        {
            total = 1.0f;
            data[omp_get_thread_num()] = total;
        }
        for (i = 64; i < 128; i++)
            data[i] = 7.0f;
    }
    return 0;
}
'''


def test_masterworker_structure():
    prog = OmpiCompiler().compile(MW, "mw")
    text = prog.kernel_sources["mw_kernel0"]
    # Fig. 3b shape, in order
    markers = [
        "int _mw_thrid",
        "cudadev_target_init(1)",
        "if (cudadev_in_masterwarp(_mw_thrid))",
        "if (!cudadev_is_masterthr(_mw_thrid))",
        "__shared__ struct vars_st0 vars;",
        "cudadev_register_parallel(thrFunc0",
        "cudadev_exit_target();",
        "cudadev_workerfunc(_mw_thrid);",
    ]
    pos = -1
    for marker in markers:
        nxt = text.index(marker)
        assert nxt > pos, f"{marker} out of order"
        pos = nxt


def test_masterworker_firstprivate_copies_value():
    prog = OmpiCompiler().compile(MW, "mw")
    text = prog.kernel_sources["mw_kernel0"]
    assert "float total = *vars->total;" in text


def test_masterworker_num_threads_forwarded():
    prog = OmpiCompiler().compile(MW, "mw")
    assert "cudadev_register_parallel(thrFunc0, (void *) &vars, 64);" in \
        prog.kernel_sources["mw_kernel0"]


def test_mw_launch_dims():
    prog = OmpiCompiler().compile(MW, "mw")
    host = prog.host_source
    assert "long __bx = 128;" in host      # the paper's fixed 128 threads
    assert "long __gx = (long) 1;" in host or "long __gx = 1;" in host


DIGESTS = Path(__file__).with_name("codegen_digests.json")


def _digest_sources():
    """(key, source, program name, block shape) for every pinned program."""
    from repro.bench.harness import _prog_name
    from repro.bench.hostinit import HOST_WORKLOADS
    from repro.bench.suite import ALL_APPS, EXTENDED_APP_NAMES, get_app
    for name in ALL_APPS + EXTENDED_APP_NAMES:
        app = get_app(name)
        n = min(app.sizes)
        yield (f"{name}:{n}", app.omp_source(n), _prog_name(app, n),
               app.block_shape)
    for name, w in HOST_WORKLOADS.items():
        yield f"host-{name}:256", w.source(256), f"host_{name}_256", None


def _reduction_sources():
    """The reduction gate's programs at check size, single and shard(2),
    and a master-worker region left at the default thread count."""
    for workload in bench_reductions.WORKLOADS:
        n = bench_reductions.CHECK_SIZES[workload]
        sources = bench_reductions._sources(workload, n)[0]
        for layout, source in sources.items():
            yield (f"{workload}-{layout}:{n}", source,
                   f"{workload}_{layout}_{n}", None)
    yield "mw-default-threads", MW.replace(" num_threads(64)", ""), "mwd", None


@functools.cache
def _compiled(sources) -> dict:
    """``{"<mode>/<key>": CompiledProgram}`` over both reduction modes."""
    return {
        f"{mode}/{key}": OmpiCompiler(OmpiConfig(
            block_shape=shape, reduction_mode=mode)).compile(source, prog_name)
        for mode in ("tree", "atomic")
        for key, source, prog_name, shape in sources()}


def _digest_programs() -> dict:
    return _compiled(_digest_sources)


def codegen_digests() -> dict[str, dict[str, str]]:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    table: dict[str, dict[str, str]] = {}
    for key, prog in _digest_programs().items():
        entry = {"host": sha(prog.host_source)}
        entry.update((kernel, sha(text)) for kernel, text
                     in sorted(prog.kernel_sources.items()))
        table[key] = entry
    return table


def test_codegen_digests_match_table():
    expected = json.loads(DIGESTS.read_text())
    actual = codegen_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"generated code changed for {changed}"


def test_handed_over_tree_lowers_like_its_text():
    mismatched = []
    programs = {**_digest_programs(), **_compiled(_reduction_sources)}
    header = A.TranslationUnit(list(_header_decls()))
    header_text = unparse(header)
    for key, prog in programs.items():
        for plan in prog.plans:
            name = plan.kernel_name
            text = prog.kernel_sources[name]
            tree = lower_translation_unit(kernel_file_unit(plan),
                                          INTRINSIC_SIGS, name)
            reparsed = lower_translation_unit(
                parse_translation_unit(text, f"{name}.cu"), INTRINSIC_SIGS,
                name)
            if (tree.kernels != reparsed.kernels
                    or module_to_ptx(tree) != module_to_ptx(reparsed)):
                mismatched.append(f"{key}:{name}")
            # lowering reads the tree, never rewrites it
            assert DEVICE_LIBRARY_HEADER + "\n" + unparse(
                plan.kernel_unit) == text, f"{key}:{name} tree changed"
    assert not mismatched, f"tree and text lower differently: {mismatched}"
    # every kernel unit shares the header's prototypes, which stay as parsed
    assert unparse(header) == header_text == unparse(
        parse_translation_unit(DEVICE_LIBRARY_HEADER))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_ompi_codegen_golden.py --write")
    DIGESTS.write_text(json.dumps(codegen_digests(), indent=1,
                                  sort_keys=True) + "\n")
