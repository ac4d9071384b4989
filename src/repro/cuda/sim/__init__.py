"""Warp-lockstep functional engine for the simulated Maxwell GPU.

* :mod:`repro.cuda.sim.coalesce` — memory-transaction model (32-byte
  segments per warp access, Maxwell-style).
* :mod:`repro.cuda.sim.warp` — executes structured IR over 32 numpy lanes
  with divergence masks; generator-based so warps can suspend at named
  barriers and spin loops.
* :mod:`repro.cuda.sim.engine` — block scheduler (named barriers, shared
  memory, deadlock detection) and the kernel-launch entry point.
* :mod:`repro.cuda.sim.locality` — which kernels may be sampled or run
  block-wide, and which loops may suspend a warp.
"""

from repro.cuda.sim.engine import (
    FunctionalEngine, KernelStats, KernelVerifyError, LaunchError,
)

__all__ = ["FunctionalEngine", "KernelStats", "KernelVerifyError",
           "LaunchError"]
