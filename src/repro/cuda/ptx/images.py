"""Binary image containers: PTX (portable, JIT-able) and cubin (AOT).

Paper §3.3: OMPi can emit either *ptx* kernels — architecture-agnostic,
JIT-compiled at first launch and cached on disk — or *cubin* kernels —
fully compiled ahead of time for one architecture (the default, to avoid
JIT overhead at runtime).

A PTX image here carries the PTX-like text (inspection) plus the portable
ModuleIR; "JIT compilation" resolves the IR against a concrete device
(arch check, shared-memory budget check, device-library linking) and
produces a CubinImage, exactly mirroring where work happens in the real
tool-chain.
"""

from __future__ import annotations

import io
import pickle
import zlib
from dataclasses import dataclass, field

from repro.cuda.errors import CUresult, CudaError
from repro.cuda.ptx.ir import KernelIR, ModuleIR

_PTX_MAGIC = b"REPROPTX1\n"
_CUBIN_MAGIC = b"REPROCUBIN1\n"


@dataclass
class PtxImage:
    """Architecture-agnostic kernel image (one per kernel file)."""

    module: ModuleIR
    text: str

    def to_bytes(self) -> bytes:
        payload = pickle.dumps((self.module, self.text), protocol=pickle.HIGHEST_PROTOCOL)
        return _PTX_MAGIC + zlib.compress(payload)

    @staticmethod
    def from_bytes(data: bytes) -> "PtxImage":
        if not data.startswith(_PTX_MAGIC):
            raise CudaError(CUresult.CUDA_ERROR_INVALID_IMAGE, "not a PTX image")
        module, text = pickle.loads(zlib.decompress(data[len(_PTX_MAGIC):]))
        return PtxImage(module, text)

    def content_hash(self) -> str:
        import hashlib
        return hashlib.sha256(self.text.encode() + self.module.to_bytes()).hexdigest()


@dataclass
class CubinImage:
    """Architecture-specific image: resolved IR + launch metadata.

    ``linked`` records whether the device runtime library has been linked
    in (cubins produced by the OMPi cubin-mode scripts are pre-linked; a
    JIT-ed PTX must be linked at load time, paper §4.2.1)."""

    module: ModuleIR
    arch: str
    linked: bool = True
    #: per-kernel resource usage, filled by the "assembler"
    resources: dict[str, dict] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        payload = pickle.dumps(
            (self.module, self.arch, self.linked, self.resources),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return _CUBIN_MAGIC + zlib.compress(payload)

    @staticmethod
    def from_bytes(data: bytes) -> "CubinImage":
        if not data.startswith(_CUBIN_MAGIC):
            raise CudaError(CUresult.CUDA_ERROR_INVALID_IMAGE, "not a cubin image")
        module, arch, linked, resources = pickle.loads(
            zlib.decompress(data[len(_CUBIN_MAGIC):])
        )
        return CubinImage(module, arch, linked, resources)


def estimate_resources(kernel: KernelIR) -> dict:
    """Static resource estimate recorded in cubins (register pressure is
    approximated by the number of distinct virtual registers, which the
    timing model uses for its occupancy term)."""
    from repro.cuda.ptx.ir import Reg, costed_ops

    regs: set[str] = set()
    ops = 0
    for op in costed_ops(kernel.body):
        ops += 1
        for attr in ("dst", "a", "b", "addr", "value", "cond", "pred"):
            v = getattr(op, attr, None)
            if isinstance(v, Reg):
                regs.add(v.name)
    # Virtual-register counts vastly overstate allocated registers (ptxas
    # reuses registers across disjoint live ranges); the divisor reflects
    # typical reuse on Maxwell-era ptxas output.
    return {
        "registers": max(16, min(255, len(regs) // 6 + 14)),
        "static_ops": ops,
        "smem_static": kernel.smem_static,
    }


def assemble_cubin(module: ModuleIR, arch: str, linked: bool = True) -> CubinImage:
    """'ptxas': resolve a portable module for one architecture."""
    image = CubinImage(module, arch, linked)
    for name, kernel in module.kernels.items():
        image.resources[name] = estimate_resources(kernel)
    return image


def identify_image(data: bytes) -> str:
    if data.startswith(_PTX_MAGIC):
        return "ptx"
    if data.startswith(_CUBIN_MAGIC):
        return "cubin"
    raise CudaError(CUresult.CUDA_ERROR_INVALID_IMAGE, "unrecognised image format")
