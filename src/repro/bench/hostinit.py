"""Host-heavy benchmark workloads for the host fast path.

The paper's Figure-4 applications seed their arrays from numpy
(:meth:`AppSpec.seed`), so their wall-clock is all device simulation
and the host fast path has nothing to accelerate.  Real OpenMP
benchmark programs are not like that: PolyBench-style sources spend
significant *host* time in init loops, normalisation passes and
checksum reductions around the offloaded region.  This module holds
host-heavy variants of gemm/mvt/atax written that way — every array is
initialised by C loop nests, a small region offloads to the device,
and teardown loops normalise and reduce the result on the host.

``REPRO_HOST_FASTPATH=off`` runs these loops through the tree-walk
interpreter; ``on`` runs them as closure-compiled numpy plans
(:mod:`repro.cfront.hostcompile`).  Outputs must be bit-identical
between the modes — the fast path implements the interpreter's exact
C99 float semantics — which is what ``bench_runner
host-fastpath --check`` and ``BENCH_host_fastpath.json`` assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.apps.base import fmt

_GEMM = r'''
float A[{NN}], B[{NN}], C[{NN}];

int main(void)
{
    int i, j;
    int n = {N};
    int nn = {NN};
    float alpha = 1.5f;
    float beta = 0.5f;
    double s;

    /* host init: PolyBench-style deterministic fill */
    for (i = 0; i < n; i++)
    {
        for (j = 0; j < n; j++)
        {
            A[i * n + j] = ((i * 17 + j * 3) % 1024) * 0.001f + 1.0f;
            B[i * n + j] = ((i * 5 + j * 11) % 512) * 0.002f - 0.25f;
            C[i * n + j] = ((i + j) % 64) * 0.01f;
        }
    }

    /* offloaded region: one saxpy row on the device */
    #pragma omp target teams distribute parallel for \
        map(to: A[0:n], B[0:n], alpha, beta, n) map(tofrom: C[0:n])
    for (i = 0; i < n; i++)
        C[i] = alpha * A[i] + beta * B[i];

    /* host teardown: normalise and reduce */
    s = 0.0;
    for (i = 0; i < nn; i++)
    {
        C[i] = C[i] * 0.5f + A[i] * 0.25f - B[i] * 0.125f;
        s += C[i];
    }
    printf("gemm-host checksum %.6f\n", s);
    return 0;
}
'''

_MVT = r'''
float A[{NN}], x1[{N}], x2[{N}], y1[{N}], y2[{N}];

int main(void)
{
    int i, j;
    int n = {N};
    double s1;
    double s2;

    for (i = 0; i < n; i++)
    {
        x1[i] = (i % 256) * 0.01f;
        x2[i] = (i % 128) * 0.02f;
        y1[i] = ((i * 3) % 512) * 0.005f;
        y2[i] = ((i * 7) % 256) * 0.0025f;
        for (j = 0; j < n; j++)
            A[i * n + j] = ((i * 13 + j * 7) % 2048) * 0.0005f;
    }

    #pragma omp target teams distribute parallel for \
        map(to: y1[0:n], n) map(tofrom: x1[0:n])
    for (i = 0; i < n; i++)
        x1[i] = x1[i] + y1[i] * 2.0f;

    /* host: the transposed product stays on the CPU */
    for (i = 0; i < n; i++)
    {
        for (j = 0; j < n; j++)
            x2[i] += A[j * n + i] * y2[j];
    }

    s1 = 0.0;
    s2 = 0.0;
    for (i = 0; i < n; i++)
    {
        s1 += x1[i];
        s2 += x2[i];
    }
    printf("mvt-host checksums %.6f %.6f\n", s1, s2);
    return 0;
}
'''

_ATAX = r'''
float A[{NN}], x[{N}], y[{N}], tmp[{N}];

int main(void)
{
    int i, j;
    int n = {N};
    double s;

    for (i = 0; i < n; i++)
    {
        x[i] = ((i * 11) % 1024) * 0.001f;
        y[i] = 0.0f;
        tmp[i] = 0.0f;
        for (j = 0; j < n; j++)
            A[i * n + j] = ((i * 19 + j * 23) % 4096) * 0.00025f;
    }

    #pragma omp target teams distribute parallel for \
        map(to: x[0:n], n) map(tofrom: tmp[0:n])
    for (i = 0; i < n; i++)
        tmp[i] = x[i] * 3.0f;

    /* host: t = A tmp, then y = A^T t */
    for (i = 0; i < n; i++)
    {
        float t = 0.0f;
        for (j = 0; j < n; j++)
            t += A[i * n + j] * tmp[j];
        for (j = 0; j < n; j++)
            y[j] += A[i * n + j] * t;
    }

    s = 0.0;
    for (i = 0; i < n; i++)
        s += y[i];
    printf("atax-host checksum %.6f\n", s);
    return 0;
}
'''

_TRIANGLE = r'''
float L[{NN}], U[{NN}], r[{N}];

int main(void)
{
    int i, j;
    int n = {N};
    double s;

    /* lower-triangle fill: the inner bound moves with the row */
    for (i = 0; i < n; i++)
    {
        for (j = 0; j <= i; j++)
        {
            L[i * n + j] = ((i * 7 + j * 3) % 97) * 0.01f + 0.5f;
            U[i * n + j] = L[i * n + j] * 0.5f - 0.125f;
        }
    }

    /* column fold below the diagonal: the inner start moves with the row */
    for (i = 0; i < n; i++)
    {
        for (j = i; j < n; j++)
            r[i] += L[j * n + i] * U[j * n + j];
    }

    s = 0.0;
    for (i = 0; i < n; i++)
        s += r[i];
    printf("triangle-host checksum %.6f\n", s);
    return 0;
}
'''


@dataclass(frozen=True)
class HostWorkload:
    name: str
    template: str
    default_n: int
    #: global arrays compared bitwise between fastpath modes
    outputs: tuple[str, ...]

    def source(self, n: int | None = None) -> str:
        n = n or self.default_n
        return fmt(self.template, N=n, NN=n * n)

    def heap_capacity(self, n: int | None = None) -> int:
        n = n or self.default_n
        return max(3 * n * n * 4 + (64 << 20), 256 << 20)


HOST_WORKLOADS: dict[str, HostWorkload] = {
    w.name: w for w in (
        HostWorkload("gemm", _GEMM, 384, ("C",)),
        HostWorkload("mvt", _MVT, 320, ("x1", "x2")),
        HostWorkload("atax", _ATAX, 288, ("y", "tmp")),
    )
}

#: a triangular workload whose two nests run per row (their inner ranges
#: move with the outer index); kept out of HOST_WORKLOADS, which the e2e
#: benchmark's host-init workload runs
ROWS_WORKLOAD = HostWorkload("triangle", _TRIANGLE, 256, ("L", "U", "r"))

#: smaller sizes for the CI smoke check
CHECK_SIZES = {"gemm": 128, "mvt": 96, "atax": 96, "triangle": 128}
