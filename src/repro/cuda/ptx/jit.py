"""Runtime JIT of PTX images, with the on-disk compilation cache.

Paper §3.3: in ptx mode "the final step of their compilation is handled at
runtime just before the actual offloading ... it utilizes disk caching, a
CUDA feature that aims to eliminate repetitive compilations of the same
kernels."  The cache below mirrors CUDA's ComputeCache: keyed by
(PTX content hash, target arch), storing finished cubins.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.cuda.device import DeviceProperties
from repro.cuda.errors import CUresult, CudaError
from repro.cuda.ptx.images import CubinImage, PtxImage, assemble_cubin
from repro.settings import Settings

#: model costs (virtual seconds) for JIT work; calibrated so that a first
#: ptx-mode launch pays a visible one-off cost relative to cubin mode,
#: matching the paper's motivation for defaulting to cubin.
JIT_BASE_COST_S = 35e-3
JIT_PER_OP_COST_S = 18e-6
LINK_COST_S = 6e-3
CACHE_HIT_COST_S = 1.2e-3


class JitCache:
    """On-disk cubin cache (the ComputeCache stand-in)."""

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        if cache_dir is None:
            cache_dir = Settings.from_env().cuda_cache_dir
        self.dir = Path(cache_dir).expanduser()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.cubin"

    def lookup(self, key: str) -> Optional[CubinImage]:
        path = self._path(key)
        if path.is_file():
            try:
                image = CubinImage.from_bytes(path.read_bytes())
            except (CudaError, OSError, EOFError):
                return None
            self.hits += 1
            return image
        self.misses += 1
        return None

    def insert(self, key: str, image: CubinImage) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self._path(key).write_bytes(image.to_bytes())

    def clear(self) -> None:
        if self.dir.is_dir():
            for path in self.dir.glob("*.cubin"):
                path.unlink()


class JitResult:
    def __init__(self, image: CubinImage, compile_time_s: float, cached: bool):
        self.image = image
        self.compile_time_s = compile_time_s
        self.cached = cached


def jit_compile(
    ptx: PtxImage,
    device: DeviceProperties,
    cache: Optional[JitCache] = None,
    link_device_library: bool = True,
) -> JitResult:
    """Compile a PTX image for ``device`` (and link the device runtime
    library), consulting the disk cache first."""
    target_major = int(device.arch[3])
    ptx_major = int(ptx.module.arch[3]) if ptx.module.arch.startswith("sm_") else target_major
    if ptx_major > target_major:
        raise CudaError(
            CUresult.CUDA_ERROR_INVALID_IMAGE,
            f"PTX targets {ptx.module.arch}, device is {device.arch}",
        )
    key = f"{ptx.content_hash()}-{device.arch}"
    if cache is not None:
        hit = cache.lookup(key)
        if hit is not None:
            return JitResult(hit, CACHE_HIT_COST_S, cached=True)
    total_ops = sum(k.static_op_count() for k in ptx.module.kernels.values())
    compile_time = JIT_BASE_COST_S + JIT_PER_OP_COST_S * total_ops
    if link_device_library:
        compile_time += LINK_COST_S
    image = assemble_cubin(ptx.module, device.arch, linked=link_device_library)
    for name, res in image.resources.items():
        smem = res["smem_static"]
        if smem > device.shared_mem_per_block:
            raise CudaError(
                CUresult.CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES,
                f"kernel {name} needs {smem} bytes of shared memory, "
                f"device has {device.shared_mem_per_block}",
            )
    if cache is not None:
        cache.insert(key, image)
    return JitResult(image, compile_time, cached=False)
