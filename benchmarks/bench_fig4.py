"""Figure 4 reproduction: execution time vs problem size, pure CUDA vs
OMPi cudadev (paper §5), one panel per application: (a) 3dconv,
(b) bicg, (c) atax, (d) mvt, (e) gemm, (f) gramschmidt.

Run with `pytest benchmarks/bench_fig4.py --benchmark-only`, or add
`-k gemm` for one panel.  The simulated times land in
`extra_info.simulated_seconds`.
"""

import pytest

from conftest import bench_sizes, run_panel_point

from repro.bench.suite import ALL_APPS


@pytest.mark.parametrize("app_name,size", [
    (app_name, size) for app_name in ALL_APPS
    for size in bench_sizes(app_name)])
@pytest.mark.parametrize("version", ["cuda", "ompi"])
def test_fig4(benchmark, app_name, size, version):
    benchmark.group = f"{app_name} n={size}"
    run_panel_point(benchmark, app_name, size, version)
