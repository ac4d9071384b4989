"""Calibrated model constants.

These constants are fitted so the simulated Jetson Nano lands in the
absolute ranges of the paper's Figure 4 (execution times between ~0.05 s
and ~10 s across the six applications) while every *relative* effect —
who wins, scaling with problem size, the gemm@2048 gap — emerges from the
model structure, not from per-benchmark fudge factors.  EXPERIMENTS.md
records the paper-vs-measured comparison.

Hardware-anchored values (clock rate, core counts, warp size, bandwidth)
come from :mod:`repro.cuda.device` and are not repeated here.
"""

# -- GPU core model ------------------------------------------------------------
#: peak warp instructions issued per cycle on the single Maxwell SM
#: (4 schedulers, but realistic ILP keeps sustained issue below that)
IPC_PEAK = 4.0
#: resident warps needed to reach peak issue (latency hiding knee)
WARPS_FOR_PEAK = 16.0
#: minimum issue efficiency with a single resident warp
MIN_ISSUE_EFF = 0.14
#: f64 ALU throughput penalty on Maxwell (1/32 rate)
F64_PENALTY = 32.0
#: special-function (sqrt/exp/...) penalty relative to f32 ALU
SFU_PENALTY = 4.0
#: shared-memory access cost in cycles per warp access
SHARED_ACCESS_CYCLES = 0.5
#: local-memory access cost (local is DRAM-backed but L1-cached)
LOCAL_ACCESS_CYCLES = 0.25
#: cycles per 32-byte DRAM segment at peak bandwidth:
#: 921.6 MHz / (14.4 GB/s / 32 B) = ~2.05 cycles per segment
def dram_cycles_per_segment(clock_hz: float, bandwidth_gbps: float) -> float:
    return clock_hz / (bandwidth_gbps * 1e9 / 32.0)

#: average DRAM access latency in cycles (LPDDR4 on Tegra X1)
DRAM_LATENCY_CYCLES = 420.0
#: barrier cost per warp arrival, cycles
BARRIER_CYCLES = 32.0
#: atomic op cost, cycles each (global, serialised)
ATOMIC_CYCLES = 60.0
#: cost of a divergent branch re-convergence, cycles
DIVERGENCE_CYCLES = 4.0

#: register file per SM (Maxwell: 64K 32-bit registers)
REGISTERS_PER_SM = 65536
#: maximum resident threads / blocks per SM (cc 5.3)
MAX_THREADS_PER_SM = 2048
MAX_BLOCKS_PER_SM = 32

# -- launch / runtime overheads -----------------------------------------------
#: fixed kernel-launch latency (driver + hardware), seconds — Jetson-class
LAUNCH_LATENCY_S = 95e-6
#: additional per-launch cost of the cudadev module's three launch phases
#: (locate function, prepare parameters, set dims), seconds
CUDADEV_LAUNCH_PHASES_S = 22e-6
#: per-parameter preparation cost, seconds
PARAM_PREP_S = 0.6e-6
#: device memory allocation/free cost, seconds
MEM_ALLOC_S = 40e-6
#: fixed DMA setup latency per memcpy, seconds
MEMCPY_LATENCY_S = 18e-6
#: host<->device sustained copy bandwidth, GB/s (shared LPDDR4: a copy
#: reads and writes the same DRAM, so ~half the raw bandwidth)
MEMCPY_BANDWIDTH_GBPS = 6.8

# -- run-to-run jitter ---------------------------------------------------------
#: relative sigma of per-run multiplicative jitter ("negligible variation
#: among runs", paper §5)
RUN_JITTER_SIGMA = 0.004

# -- per-architecture calibration sets ------------------------------------------
# The module-level constants above are the Maxwell (Jetson Nano) fit the
# whole reproduction was calibrated against; they stay authoritative for
# sm_5x.  Other device backends bring their own set through
# :class:`ArchCalibration` — the timing model reads every constant through
# its calibration object, and the Maxwell instance reproduces the module
# constants exactly, so single-SM Nano timings are bit-identical to the
# pre-backend-subsystem model.

from dataclasses import dataclass


@dataclass(frozen=True)
class ArchCalibration:
    """The per-SM microarchitecture constants of one compute capability."""

    ipc_peak: float = IPC_PEAK
    warps_for_peak: float = WARPS_FOR_PEAK
    min_issue_eff: float = MIN_ISSUE_EFF
    f64_penalty: float = F64_PENALTY
    sfu_penalty: float = SFU_PENALTY
    shared_access_cycles: float = SHARED_ACCESS_CYCLES
    local_access_cycles: float = LOCAL_ACCESS_CYCLES
    dram_latency_cycles: float = DRAM_LATENCY_CYCLES
    barrier_cycles: float = BARRIER_CYCLES
    atomic_cycles: float = ATOMIC_CYCLES
    divergence_cycles: float = DIVERGENCE_CYCLES
    registers_per_sm: int = REGISTERS_PER_SM
    max_threads_per_sm: int = MAX_THREADS_PER_SM
    max_blocks_per_sm: int = MAX_BLOCKS_PER_SM


#: the Nano fit (identical to the module constants by construction)
MAXWELL_CALIBRATION = ArchCalibration()

#: Volta (V100): 1:2 fp64 rate instead of Maxwell's 1:32, a lower
#: latency-hiding knee (independent int/fp pipes dual-issue), HBM2
#: latency in the same cycle range at a higher clock.
VOLTA_CALIBRATION = ArchCalibration(
    f64_penalty=2.0,
    sfu_penalty=4.0,
    warps_for_peak=12.0,
    min_issue_eff=0.18,
    dram_latency_cycles=400.0,
    atomic_cycles=30.0,
)

#: compute-capability major -> calibration (Pascal Tegra boards share the
#: Maxwell fit: same issue structure, the clocks/bandwidth differ and
#: those are device properties, not calibration constants)
_CALIBRATIONS = {5: MAXWELL_CALIBRATION, 6: MAXWELL_CALIBRATION,
                 7: VOLTA_CALIBRATION}


def calibration_for(compute_capability: tuple[int, int]) -> ArchCalibration:
    """The calibration set for a device's compute capability (unknown
    majors fall back to the Maxwell fit rather than failing: a new
    device model runs conservatively until someone fits constants)."""
    return _CALIBRATIONS.get(compute_capability[0], MAXWELL_CALIBRATION)
