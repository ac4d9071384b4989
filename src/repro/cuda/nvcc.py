"""``nvcc`` driver simulation.

Real nvcc splits a ``.cu`` file into host code (compiled with the host
toolchain, triple-chevron launches lowered to runtime-API calls) and
device code (lowered to PTX, optionally assembled into a cubin).  Our
stand-in does the same split over the cfront AST:

* :func:`compile_device` — all ``__global__``/``__device__`` definitions
  become a :class:`ModuleIR`, packaged as a PTX or cubin image (paper
  §3.3's two binary modes);
* the *host* part of a ``.cu`` program is simply the same translation
  unit executed by the cfront interpreter with the CUDA runtime API
  natives attached (:mod:`repro.cuda.runtimeapi`) — kernel definitions are
  skipped by the interpreter because they are never called from host code.

OMPi invokes this through its device-compilation scripts (paper Fig. 2,
"NVIDIA CUDA Compiler (nvcc)" box).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cfront import astnodes as A
from repro.cfront.parser import parse_translation_unit
from repro.cuda.ptx.images import CubinImage, PtxImage, assemble_cubin
from repro.cuda.ptx.ir import ModuleIR
from repro.cuda.ptx.lower import lower_translation_unit
from repro.cuda.ptx.ptxwriter import module_to_ptx


class NvccError(Exception):
    """Compilation failed."""


def compile_device(
    source: Union[str, A.TranslationUnit],
    module_name: str = "module",
    mode: str = "cubin",
    arch: str = "sm_53",
    intrinsic_sigs: Optional[dict] = None,
    link_device_library: bool = True,
) -> Union[PtxImage, CubinImage]:
    """Compile the device code of a CUDA C source to a kernel image.

    ``source`` is CUDA C text, or its already-parsed translation unit:
    ompicc hands over the kernel tree it built (see
    :func:`repro.ompi.compiler.kernel_file_unit`), which is only read.

    ``mode='ptx'`` produces an architecture-agnostic image whose final
    compilation (and device-library linking) happens at module-load time
    with disk caching; ``mode='cubin'`` (the OMPi default) performs all
    steps now.
    """
    if mode not in ("ptx", "cubin"):
        raise NvccError(f"unknown binary mode {mode!r}")
    if intrinsic_sigs is None:
        from repro.devrt import INTRINSIC_SIGS
        intrinsic_sigs = INTRINSIC_SIGS
    unit = source if isinstance(source, A.TranslationUnit) else \
        parse_translation_unit(source, f"{module_name}.cu")
    try:
        module = lower_translation_unit(unit, intrinsic_sigs, module_name,
                                        arch=arch if mode == "cubin" else "sm_30")
    except Exception as exc:
        raise NvccError(f"nvcc: {exc}") from exc
    if not module.kernels:
        raise NvccError(f"{module_name}: no __global__ kernels in source")
    if mode == "ptx":
        # PTX is architecture-agnostic; record the lowest target
        text = module_to_ptx(module)
        return PtxImage(module, text)
    module.arch = arch
    return assemble_cubin(module, arch, linked=link_device_library)


def kernel_names(source: str) -> list[str]:
    unit = parse_translation_unit(source)
    return [d.name for d in unit.decls
            if isinstance(d, A.FuncDef) and "__global__" in d.quals]
