"""Deterministic-reduction benchmark gate (DESIGN.md §16).

Three reduction-heavy Polybench workloads — ``correlation``,
``covariance`` and ``doitgen`` — run through the OMPi pipeline with the
tree reduction lowering, and a 2048x2048 sum-reduction headline point
compares the tree lowering against the legacy atomic-merge baseline
(``reduction_mode='atomic'``).

The gate asserts, per workload:

* outputs match the numpy reference (float32 tolerance — the matrix
  arithmetic itself is ordinary float work);
* the ``reduction(+: checksum)`` scalar is **bit-identical** to folding
  the device-produced matrix sequentially in iteration order (the §16
  fixed-order combine contract, checked on real float data);
* a ``shard(2)`` run on two devices is **bit-identical** to the
  single-device run — outputs and checksum (`==`, not `approx`).

The headline point must show the tree combine strictly beating the
atomic-merge baseline on modelled time (per-thread atomics serialise in
the timing model; the tree replaces them with shuffles, shared memory
and one barrier).  Run it with ``bench_runner.py reductions [--check]``.
"""

from __future__ import annotations

import numpy as np

HEAP = 256 << 20

# ------------------------------------------------------------------ correlation

_CORRELATION = r'''
float data[{N}][{M}];
float corr[{M}][{M}], mean[{M}], stddev[{M}];
double checksum;

int main(void)
{
    int i, j, j1, j2;
    #pragma omp target teams distribute parallel for \
        map(tofrom: data) map(from: mean, stddev) num_teams({MTEAMS})
    for (j = 0; j < {M}; j++)
    {
        float m, s, d;
        m = 0.0f;
        for (i = 0; i < {N}; i++)
            m += data[i][j];
        m = m / (float){N};
        s = 0.0f;
        for (i = 0; i < {N}; i++)
        {
            d = data[i][j] - m;
            s += d * d;
        }
        s = sqrtf(s / (float){N});
        if (s <= 0.005f)
            s = 1.0f;
        mean[j] = m;
        stddev[j] = s;
    }
    #pragma omp target teams distribute parallel for collapse(2) \
        map(tofrom: data) map(to: mean, stddev) num_teams({NMTEAMS})
    for (i = 0; i < {N}; i++)
        for (j = 0; j < {M}; j++)
            data[i][j] = (data[i][j] - mean[j]) / stddev[j];
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: data) map(from: corr) num_teams({MMTEAMS})
    for (j1 = 0; j1 < {M}; j1++)
        for (j2 = 0; j2 < {M}; j2++)
        {
            float acc;
            acc = 0.0f;
            for (i = 0; i < {N}; i++)
                acc += data[i][j1] * data[i][j2];
            corr[j1][j2] = acc / (float){N};
        }
    checksum = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: corr) map(tofrom: checksum) reduction(+: checksum) \
        num_teams({MMTEAMS}) {SHARD}
    for (j1 = 0; j1 < {M}; j1++)
        for (j2 = 0; j2 < {M}; j2++)
            checksum += (double) corr[j1][j2];
    return 0;
}
'''


def correlation_seed(n: int, m: int) -> dict[str, np.ndarray]:
    i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    return {"data": (((i * 13 + j * 7) % 29) / np.float32(29))
            .astype(np.float32)}


def correlation_ref(n: int, m: int, data: np.ndarray) -> np.ndarray:
    d = data.astype(np.float64)
    mean = d.mean(axis=0)
    std = np.sqrt(((d - mean) ** 2).mean(axis=0))
    std = np.where(std <= 0.005, 1.0, std)
    norm = (d - mean) / std
    return ((norm.T @ norm) / n).astype(np.float32)


# ------------------------------------------------------------------- covariance

_COVARIANCE = r'''
float data[{N}][{M}];
float cov[{M}][{M}], mean[{M}];
double checksum;

int main(void)
{
    int i, j, j1, j2;
    #pragma omp target teams distribute parallel for \
        map(to: data) map(from: mean) num_teams({MTEAMS})
    for (j = 0; j < {M}; j++)
    {
        float m;
        m = 0.0f;
        for (i = 0; i < {N}; i++)
            m += data[i][j];
        mean[j] = m / (float){N};
    }
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: data, mean) map(from: cov) num_teams({MMTEAMS})
    for (j1 = 0; j1 < {M}; j1++)
        for (j2 = 0; j2 < {M}; j2++)
        {
            float acc;
            acc = 0.0f;
            for (i = 0; i < {N}; i++)
                acc += (data[i][j1] - mean[j1]) * (data[i][j2] - mean[j2]);
            cov[j1][j2] = acc / (float)({N} - 1);
        }
    checksum = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: cov) map(tofrom: checksum) reduction(+: checksum) \
        num_teams({MMTEAMS}) {SHARD}
    for (j1 = 0; j1 < {M}; j1++)
        for (j2 = 0; j2 < {M}; j2++)
            checksum += (double) cov[j1][j2];
    return 0;
}
'''


def covariance_seed(n: int, m: int) -> dict[str, np.ndarray]:
    i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    return {"data": (((i * 11 + j * 5) % 23) / np.float32(23))
            .astype(np.float32)}


def covariance_ref(n: int, m: int, data: np.ndarray) -> np.ndarray:
    d = data.astype(np.float64)
    c = d - d.mean(axis=0)
    return ((c.T @ c) / (n - 1)).astype(np.float32)


# --------------------------------------------------------------------- doitgen

_DOITGEN = r'''
float A[{NR}][{NQ}][{NP}], C4[{NP}][{NP}], S[{NR}][{NQ}][{NP}];
double checksum;

int main(void)
{
    int r, q, p, s;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A, C4) map(from: S) num_teams({RQTEAMS})
    for (r = 0; r < {NR}; r++)
        for (q = 0; q < {NQ}; q++)
            for (p = 0; p < {NP}; p++)
            {
                float acc;
                acc = 0.0f;
                for (s = 0; s < {NP}; s++)
                    acc += A[r][q][s] * C4[s][p];
                S[r][q][p] = acc;
            }
    checksum = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: S) map(tofrom: checksum) reduction(+: checksum) \
        num_teams({RQTEAMS}) {SHARD}
    for (r = 0; r < {NR}; r++)
        for (q = 0; q < {NQ}; q++)
            for (p = 0; p < {NP}; p++)
                checksum += (double) S[r][q][p];
    return 0;
}
'''


def doitgen_seed(n: int) -> dict[str, np.ndarray]:
    r, q, p = np.meshgrid(np.arange(n), np.arange(n), np.arange(n),
                          indexing="ij")
    s, t = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return {
        "A": (((r * q + p) % 19) / np.float32(19)).astype(np.float32),
        "C4": (((s * t) % 13) / np.float32(13)).astype(np.float32),
    }


def doitgen_ref(n: int, A: np.ndarray, C4: np.ndarray) -> np.ndarray:
    return np.einsum("rqs,sp->rqp", A.astype(np.float64),
                     C4.astype(np.float64)).astype(np.float32)


# -------------------------------------------------------------------- plumbing

def _fmt(template: str, **kw) -> str:
    out = template
    for key, value in kw.items():
        out = out.replace("{" + key + "}", str(value))
    return out


def _teams(total: int, threads: int = 128) -> int:
    return max(1, (total + threads - 1) // threads)


def _sources(workload: str, n: int) -> tuple[dict[str, str], dict, str]:
    """(single/sharded sources, seed arrays, checksum source array name)."""
    if workload == "correlation":
        kw = dict(N=n, M=n, MTEAMS=_teams(n), NMTEAMS=_teams(n * n),
                  MMTEAMS=_teams(n * n))
        template, seed, arr = _CORRELATION, correlation_seed(n, n), "corr"
    elif workload == "covariance":
        kw = dict(N=n, M=n, MTEAMS=_teams(n), MMTEAMS=_teams(n * n))
        template, seed, arr = _COVARIANCE, covariance_seed(n, n), "cov"
    elif workload == "doitgen":
        kw = dict(NR=n, NQ=n, NP=n, RQTEAMS=_teams(n * n))
        template, seed, arr = _DOITGEN, doitgen_seed(n), "S"
    else:
        raise ValueError(workload)
    return ({"single": _fmt(template, SHARD="", **kw),
             "sharded": _fmt(template, SHARD="shard(2)", **kw)},
            seed, arr)


# -------------------------------------------------------- tree vs atomic merge

_REDUCE2D = r'''
float A[{N}][{N}];
double total;

int main(void)
{
    int i, j;
    total = 0.0;
    #pragma omp target teams distribute parallel for collapse(2) \
        map(to: A) map(tofrom: total) reduction(+: total) \
        num_teams({TEAMS}) num_threads(256)
    for (i = 0; i < {N}; i++)
        for (j = 0; j < {N}; j++)
            total += (double) A[i][j];
    return 0;
}
'''


def _reference(workload: str, n: int, seed: dict) -> np.ndarray:
    if workload == "correlation":
        return correlation_ref(n, n, seed["data"])
    if workload == "covariance":
        return covariance_ref(n, n, seed["data"])
    return doitgen_ref(n, seed["A"], seed["C4"])


def _reduction_counters(array: str, ref: np.ndarray):
    def counters(run) -> dict:
        got = np.asarray(run.machine.global_array(array))
        checksum = float(run.machine.global_array("checksum").item())
        # §16 contract on real float data: the reduction scalar equals
        # the sequential fold of the device-produced matrix in order
        fold = np.float64(0.0)
        for v in got.ravel():
            fold = np.float64(fold + np.float64(v))
        return {"checksum": checksum,
                "reference_ok": bool(np.allclose(got, ref, rtol=2e-3,
                                                 atol=1e-5)),
                "sequential_fold": checksum == float(fold)}
    return counters


WORKLOADS = ("correlation", "covariance", "doitgen")
DEFAULT_SIZES = {"correlation": 48, "covariance": 48, "doitgen": 20}
CHECK_SIZES = {"correlation": 32, "covariance": 32, "doitgen": 12}
HEADLINE_N = 2048


def points(check: bool):
    """Each workload single-device then ``shard(2)``, both with the tree
    lowering; then the headline sum with the tree and the atomic merge.
    The headline always runs at 2048x2048."""
    sizes = CHECK_SIZES if check else DEFAULT_SIZES
    for workload in WORKLOADS:
        n = sizes[workload]
        sources, seed, array = _sources(workload, n)
        counters = _reduction_counters(array, _reference(workload, n, seed))
        for key, ndev in (("single", 1), ("sharded", 2)):
            yield {"point": f"{workload}:{n}/{key}", "source": sources[key],
                   "name": f"{workload}_{key}",
                   "outputs": (array, "checksum"),
                   "config": {"num_devices": ndev},
                   "run": {"launch_mode": "full", "seed_arrays": seed,
                           "heap_capacity": HEAP},
                   "counters": counters}

    n = HEADLINE_N
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    seed = {"A": (((i + j) % 17) / np.float32(17)).astype(np.float32)}
    source = _fmt(_REDUCE2D, N=n, TEAMS=_teams(n * n, 256))
    for mode in ("tree", "atomic"):
        yield {"point": f"reduce2d:{n}/{mode}", "source": source,
               "name": f"reduce2d_{mode}", "outputs": ("total",),
               "config": {"reduction_mode": mode},
               "run": {"launch_mode": "sample", "seed_arrays": seed,
                       "heap_capacity": HEAP},
               "counters": lambda run: {"total": float(
                   run.machine.global_array("total").item())}}


def failures(records: list[dict], budget: dict) -> list[str]:
    """The atomic merge's total is order-dependent (that is the point of
    replacing it), so the two headline totals only agree within float
    tolerance."""
    *workloads, (tree, atomic) = zip(records[::2], records[1::2])
    out = []
    for single, sharded in workloads:
        label = single["point"].rpartition("/")[0]
        if not single["counters"]["reference_ok"]:
            out.append(f"{label}: outputs diverge from the numpy reference")
        if not single["counters"]["sequential_fold"]:
            out.append(f"{label}: reduction checksum is not the sequential "
                       f"fold of the result matrix")
        if single["digest"] != sharded["digest"]:
            out.append(f"{label}: shard(2) run differs from the "
                       f"single-device run")
    label = tree["point"].rpartition("/")[0]
    if not tree["simulated_s"] < atomic["simulated_s"]:
        out.append(f"{label}: tree lowering ({tree['simulated_s']:.6g}s) "
                   f"does not beat the atomic-merge baseline "
                   f"({atomic['simulated_s']:.6g}s)")
    if not np.isclose(tree["counters"]["total"], atomic["counters"]["total"],
                      rtol=1e-9):
        out.append(f"{label}: tree and atomic totals diverge beyond float "
                   f"tolerance")
    return out
