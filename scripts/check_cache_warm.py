"""CI gate: a second ``ompicc`` *process* must skip codegen entirely.

Runs each compilation twice in separate interpreter processes with one
shared ``REPRO_CACHE_DIR``.  The first run compiles and persists; the
second must be served from the disk tier — its ``--cache-stats``
counters have to show ``compiles=0`` and one disk hit, and both runs
must print identical program output.  Two programs go through it: a
plain vector kernel, and a ``reduction(+: s)`` whose tree-mode kernel
holds warp shuffles and a barrier.

Usage::

    PYTHONPATH=src python scripts/check_cache_warm.py

Exits non-zero on any miss, recompile or output divergence.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

VECTOR = r"""
#include <stdio.h>
float a[128], b[128];
int main(void)
{
    int i;
    float s = 0.0f;
    for (i = 0; i < 128; i++) { a[i] = (i % 32) * 0.25f; b[i] = 0.0f; }
    #pragma omp target teams distribute parallel for \
        map(to: a[0:128]) map(tofrom: b[0:128])
    for (i = 0; i < 128; i++)
        b[i] = a[i] * 2.0f + 0.5f;
    for (i = 0; i < 128; i++) s += b[i];
    printf("%f\n", s);
    return 0;
}
"""

REDUCTION = r"""
#include <stdio.h>
float a[512];
double s;
int main(void)
{
    int i;
    for (i = 0; i < 512; i++) a[i] = (i % 29) * 0.125f;
    s = 0.0;
    #pragma omp target teams distribute parallel for \
        map(to: a[0:512]) map(tofrom: s) reduction(+: s) \
        num_teams(4) num_threads(64)
    for (i = 0; i < 512; i++)
        s += a[i];
    printf("%f\n", s);
    return 0;
}
"""

PROGRAMS = {"warmcheck": VECTOR, "warmreduce": REDUCTION}


def run_ompicc(src_path: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.ompi.cli", str(src_path),
         "--cache-stats"],
        capture_output=True, text=True, env=env, timeout=600)


def counters(stderr: str) -> dict:
    """Parse the --cache-stats counter lines into one flat dict."""
    out: dict[str, int] = {}
    for line in stderr.splitlines():
        m = re.match(r"ompicc: (compile|disk) cache: (.*)", line)
        if not m:
            continue
        prefix = "mem" if m.group(1) == "compile" else "disk"
        for key, val in re.findall(r"(\w+)=(\d+)", m.group(2)):
            out[f"{prefix}_{key}"] = int(val)
    return out


def check_program(name: str, source: str, tmp: Path, env: dict) -> list[str]:
    """Cold then warm ompicc run of one program; the failures found."""
    failures: list[str] = []
    src_path = tmp / f"{name}.c"
    src_path.write_text(source)
    cold = run_ompicc(src_path, env)
    warm = run_ompicc(src_path, env)
    for label, proc in (("cold", cold), ("warm", warm)):
        print(f"--- {name}: {label} run (exit {proc.returncode}) ---")
        print(proc.stderr, end="")
        if proc.returncode != 0:
            failures.append(f"{label} run exited {proc.returncode}")

    c, w = counters(cold.stderr), counters(warm.stderr)
    if c.get("mem_compiles") != 1:
        failures.append(f"cold run should compile exactly once: {c}")
    if c.get("disk_stores") != 1 or c.get("disk_store_errors") != 0:
        failures.append(f"cold run should persist one entry: {c}")
    if w.get("mem_compiles") != 0:
        failures.append(f"warm run recompiled: {w}")
    if w.get("disk_hits") != 1:
        failures.append(f"warm run missed the disk cache: {w}")
    if "[from disk cache]" not in warm.stderr:
        failures.append("warm run did not report the disk-cache source")
    if cold.stdout != warm.stdout or not cold.stdout.strip():
        failures.append(
            f"output divergence: cold={cold.stdout!r} warm={warm.stdout!r}")
    return [f"{name}: {msg}" for msg in failures]


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-cache-warm-") as tmp:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        env.setdefault("PYTHONPATH", str(repo / "src"))
        for name, source in PROGRAMS.items():
            failures += check_program(name, source, Path(tmp), env)

    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if not failures:
        print("cache-warm check passed: second processes served from disk")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
