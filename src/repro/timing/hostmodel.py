"""Host-side timing: LPDDR4 host<->device transfers and allocations.

The Jetson's host and device share physical LPDDR4; the CUDA programming
model still performs explicit copies between host allocations and device
allocations (both benchmark suites use cudaMemcpy / the cudadev mapping
machinery), so copies cost real bandwidth — roughly half the raw DRAM
rate, because a copy reads and writes the same memory.
"""

from __future__ import annotations

from repro.timing import calibration as C


class HostModel:
    def __init__(self, memcpy_bandwidth_gbps: float | None = None):
        #: per-device copy bandwidth (DeviceProperties.copy_bandwidth_gbps);
        #: defaults to the Nano's shared-LPDDR4 calibration constant
        self.memcpy_bandwidth_gbps = (
            memcpy_bandwidth_gbps if memcpy_bandwidth_gbps
            else C.MEMCPY_BANDWIDTH_GBPS)

    def memcpy_time(self, nbytes: int) -> float:
        """Host<->device transfer time (either direction)."""
        if nbytes <= 0:
            return C.MEMCPY_LATENCY_S
        return C.MEMCPY_LATENCY_S + nbytes / (self.memcpy_bandwidth_gbps * 1e9)

    def alloc_time(self) -> float:
        return C.MEM_ALLOC_S
