"""Closure-compiled host fast path (repro.cfront.hostcompile).

The engine lowers interpreted host C — loop nests, whole functions —
to vectorized numpy closures with the tree-walk interpreter's exact
C99 float semantics.  These tests pin the mode plumbing, the
bit-identity contract between all three modes, the verify-mode
divergence detector, the per-region fallback discipline and the
``_resync_device`` digest gate that rides along in this change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cfront import hostcompile
from repro.cfront.hostcompile import (
    HostFastpathVerifyError, resolve_host_fastpath,
)
from repro.cfront.interp import Machine
from repro.cfront.parser import parse_translation_unit
from repro.ompi.compiler import OmpiCompiler
from repro.ompi.config import OmpiConfig

HOST_SRC = r"""
#include <stdio.h>
float a[64], b[64], c[64];
int main(void) {
    int i, j;
    float s = 0.0f;
    double d = 0.0;
    for (i = 0; i < 64; i++) {
        a[i] = (i % 16) * 0.25f;
        b[i] = (i * 3 % 8) * 0.5f;
        c[i] = 0.0f;
    }
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++)
            c[i * 8 + j] = a[i * 8 + j] * 2.0f + b[j];
    }
    for (i = 0; i < 64; i++) {
        s += c[i];
        d += a[i] * b[i];
    }
    printf("%f %f\n", s, d);
    return 0;
}
"""

OFFLOAD_SRC = r"""
#include <stdio.h>
float x[32], y[32];
int main(void) {
    int i;
    float s = 0.0f;
    for (i = 0; i < 32; i++) { x[i] = i * 0.125f; y[i] = 0.0f; }
    #pragma omp target teams distribute parallel for \
        map(to: x[0:32]) map(tofrom: y[0:32])
    for (i = 0; i < 32; i++)
        y[i] = x[i] * 3.0f + 1.0f;
    for (i = 0; i < 32; i++) s += y[i];
    printf("%f\n", s);
    return 0;
}
"""


def _run_host(mode: str) -> Machine:
    unit = parse_translation_unit(HOST_SRC, "host.c")
    machine = Machine(unit, host_fastpath=mode)
    machine.run()
    return machine


# ---------------------------------------------------------------------------
# Mode resolution
# ---------------------------------------------------------------------------

def test_resolve_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_host_fastpath("sometimes")


def test_config_threads_through_run():
    prog = OmpiCompiler(OmpiConfig(host_fastpath="off")).compile(
        OFFLOAD_SRC, "hf_cfg")
    run = prog.run()
    assert run.machine.host_fastpath == "off"
    # per-run override wins over the config
    run = prog.run(host_fastpath="verify")
    assert run.machine.host_fastpath == "verify"


# ---------------------------------------------------------------------------
# Bit-identity across modes
# ---------------------------------------------------------------------------

def test_all_modes_bit_identical():
    machines = {m: _run_host(m) for m in ("on", "off", "verify")}
    ref = machines["off"]
    for mode in ("on", "verify"):
        m = machines[mode]
        assert m.output() == ref.output(), mode
        for name in ("a", "b", "c"):
            got = np.asarray(m.global_array(name))
            want = np.asarray(ref.global_array(name))
            assert got.tobytes() == want.tobytes(), (mode, name)


def test_offload_program_identical_across_modes():
    prog = OmpiCompiler().compile(OFFLOAD_SRC, "hf_modes")
    outs = {m: prog.run(host_fastpath=m) for m in ("on", "off", "verify")}
    assert outs["on"].stdout == outs["off"].stdout == outs["verify"].stdout
    assert (outs["on"].log.measured_time == outs["off"].log.measured_time
            == outs["verify"].log.measured_time)


# ---------------------------------------------------------------------------
# Stats and fallback discipline
# ---------------------------------------------------------------------------

def test_host_stats_count_compiled_loops():
    m = _run_host("on")
    assert m.host_stats["loop_fast"] > 0
    assert m.host_stats["verified_regions"] == 0
    m = _run_host("off")
    assert m.host_stats["loop_fast"] == 0
    m = _run_host("verify")
    assert m.host_stats["verified_regions"] > 0


def test_unsupported_loop_falls_back_quietly():
    src = r"""
int n;
int main(void) {
    int i;
    n = 0;
    for (i = 0; i < 100; i++) {
        if (i == 7) break;   /* break: not in the compiled subset */
        n = n + 1;
    }
    return 0;
}
"""
    unit = parse_translation_unit(src, "fb.c")
    machine = Machine(unit, host_fastpath="on")
    machine.run()
    assert int(np.asarray(machine.global_array("n")).reshape(-1)[0]) == 7
    assert machine.host_stats["loop_fast"] == 0
    assert machine.host_stats["loop_fallback"] > 0


def test_function_fastpath_counts():
    src = r"""
float out[32];
float scale(float v) { return v * 2.0f + 1.0f; }
void fill(void) {
    int i;
    for (i = 0; i < 32; i++)
        out[i] = out[i] * 0.5f;
}
int main(void) {
    int i;
    for (i = 0; i < 32; i++) out[i] = scale(i * 0.25f);
    fill();
    return 0;
}
"""
    unit = parse_translation_unit(src, "fn.c")
    on = Machine(unit, host_fastpath="on")
    on.run()
    off = Machine(unit, host_fastpath="off")
    off.run()
    assert (np.asarray(on.global_array("out")).tobytes()
            == np.asarray(off.global_array("out")).tobytes())
    assert on.host_stats["fn_fast"] + on.host_stats["loop_fast"] > 0


# ---------------------------------------------------------------------------
# Verify mode detects real divergence
# ---------------------------------------------------------------------------

def test_verify_raises_on_injected_divergence(monkeypatch):
    """Corrupt the compiled engine's binop so its results differ from the
    tree-walk reference; verify mode must refuse to let that through."""
    real = hostcompile._apply_np

    def corrupt(op, lhs, rhs):
        out = real(op, lhs, rhs)
        if op == "*" and isinstance(out, np.ndarray) and out.dtype.kind == "f":
            return out + np.asarray(1.0, dtype=out.dtype)
        return out

    monkeypatch.setattr(hostcompile, "_apply_np", corrupt)
    unit = parse_translation_unit(HOST_SRC, "host.c")
    machine = Machine(unit, host_fastpath="verify")
    with pytest.raises(HostFastpathVerifyError):
        machine.run()


def test_on_mode_trusts_the_compiled_result(monkeypatch):
    """Same corruption in plain 'on' mode is (by design) not caught —
    this is exactly the risk verify mode exists to police, and the
    contrast keeps the two tests honest about what each mode checks."""
    real = hostcompile._apply_np

    def corrupt(op, lhs, rhs):
        out = real(op, lhs, rhs)
        if op == "*" and isinstance(out, np.ndarray) and out.dtype.kind == "f":
            return out + np.asarray(1.0, dtype=out.dtype)
        return out

    monkeypatch.setattr(hostcompile, "_apply_np", corrupt)
    unit = parse_translation_unit(HOST_SRC, "host.c")
    machine = Machine(unit, host_fastpath="on")
    machine.run()  # no error: results differ from the reference
    ref = _run_host("off")
    assert machine.output() != ref.output()


# ---------------------------------------------------------------------------
# Resync digest gate (satellite: skip unchanged buffers on fallback)
# ---------------------------------------------------------------------------

def test_resync_skips_unchanged_to_buffers():
    """A permanent launch failure falls back to the *_hostfn; the resync
    pushes the written tofrom buffer but skips the read-only to-mapped
    input, whose device copy already matches the host bytes."""
    prog = OmpiCompiler().compile(OFFLOAD_SRC, "hf_resync")
    base = prog.run()
    run = prog.run(faults="launch_failed@cuLaunchKernel:p=1.0,times=1000")
    assert run.stdout == base.stdout
    stats = run.ort.cudadev.fault_stats
    assert stats.get("fallback") == 1
    assert stats.get("resync_skip", 0) >= 1


def test_resync_skip_counts_aggregate():
    prog = OmpiCompiler().compile(OFFLOAD_SRC, "hf_resync2")
    run = prog.run(faults="launch_failed@cuLaunchKernel:p=1.0,times=1000")
    assert run.ort.fault_stats.get("resync_skip", 0) >= 1
