"""Device-side ``omp_*`` API and the intrinsic/signature tables.

``INTRINSICS`` declares each intrinsic once.  ``INTRINSIC_SIGS``, its
signature view, is consumed by the nvcc-simulator's lowering pass (for
argument conversions) and ``build_intrinsics`` produces the callable table
the functional engine links against a kernel — the moral equivalent of
linking the cudadev device library (at build time for cubins, at JIT time
for PTX, paper §§3.3, 4.2.1).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cuda.sim.warp import WarpExec
from repro.devrt import barriers, masterworker, schedules, sections, shmem, shuffle, sync
from repro.devrt.atomics import ATOMIC_RED_INTRINSICS
from repro.devrt.state import block_state, pure, region_thread_ids, region_threads


@pure
def omp_get_thread_num(warp: WarpExec, mask, args):
    return region_thread_ids(warp)


@pure
def omp_get_num_threads(warp: WarpExec, mask, args):
    return np.full(mask.size, region_threads(warp), dtype=np.int32)


@pure
def omp_get_team_num(warp: WarpExec, mask, args):
    gx, gy, _gz = warp.block.grid_dim
    cx, cy, cz = warp.block.block_idx
    return np.full(mask.size, cx + gx * (cy + gy * cz), dtype=np.int32)


@pure
def omp_get_num_teams(warp: WarpExec, mask, args):
    gx, gy, gz = warp.block.grid_dim
    return np.full(mask.size, gx * gy * gz, dtype=np.int32)


@pure
def omp_is_initial_device(warp: WarpExec, mask, args):
    return np.zeros(mask.size, dtype=np.int32)


@pure
def omp_get_max_threads(warp: WarpExec, mask, args):
    return np.full(mask.size, block_state(warp)["nthreads_block"], dtype=np.int32)


_CHUNK_PARAMS = ("s32", "s64", "s64", "s64", "u64", "u64")
_SHFL_PARAMS = ("u32", "any", "s32")


#: name -> (implementation, (parameter dtypes...), return dtype or None);
#: "any" skips the lowering-time conversion for that argument.
INTRINSICS: dict[str, tuple[Callable, tuple[str, ...], str | None]] = {
    # omp device API
    "omp_get_thread_num": (omp_get_thread_num, (), "s32"),
    "omp_get_num_threads": (omp_get_num_threads, (), "s32"),
    "omp_get_team_num": (omp_get_team_num, (), "s32"),
    "omp_get_num_teams": (omp_get_num_teams, (), "s32"),
    "omp_get_max_threads": (omp_get_max_threads, (), "s32"),
    "omp_is_initial_device": (omp_is_initial_device, (), "s32"),
    # master/worker scheme
    "cudadev_target_init": (masterworker.cudadev_target_init, ("s32",), None),
    "cudadev_in_masterwarp": (masterworker.cudadev_in_masterwarp,
                              ("s32",), "s32"),
    "cudadev_is_masterthr": (masterworker.cudadev_is_masterthr,
                             ("s32",), "s32"),
    "cudadev_register_parallel": (masterworker.cudadev_register_parallel,
                                  ("s32", "u64", "s32"), None),
    "cudadev_workerfunc": (masterworker.cudadev_workerfunc, ("s32",), None),
    "cudadev_exit_target": (masterworker.cudadev_exit_target, (), None),
    "cudadev_getaddr": (masterworker.cudadev_getaddr, ("u64",), "u64"),
    # shared-memory stack
    "cudadev_push_shmem": (shmem.cudadev_push_shmem, ("u64", "s64"), "u64"),
    "cudadev_pop_shmem": (shmem.cudadev_pop_shmem, ("u64", "s64"), None),
    # worksharing
    "cudadev_get_distribute_chunk": (schedules.cudadev_get_distribute_chunk,
                                     ("s64", "s64", "u64", "u64"), None),
    "cudadev_get_distribute_chunk_dim": (
        schedules.cudadev_get_distribute_chunk_dim,
        ("s32", "s64", "s64", "u64", "u64"), None),
    "cudadev_get_static_chunk_dim": (
        schedules.cudadev_get_static_chunk_dim,
        ("s32", "s32", "s64", "s64", "s64", "u64", "u64"), "s32"),
    "cudadev_get_static_chunk": (schedules.cudadev_get_static_chunk,
                                 _CHUNK_PARAMS, "s32"),
    "cudadev_get_dynamic_chunk": (schedules.cudadev_get_dynamic_chunk,
                                  _CHUNK_PARAMS, "s32"),
    "cudadev_get_guided_chunk": (schedules.cudadev_get_guided_chunk,
                                 _CHUNK_PARAMS, "s32"),
    "cudadev_sections_init": (sections.cudadev_sections_init,
                              ("s32", "s32"), None),
    "cudadev_next_section": (sections.cudadev_next_section, ("s32",), "s32"),
    # synchronisation
    "cudadev_barrier": (barriers.cudadev_barrier, (), None),
    "cudadev_trylock": (sync.cudadev_trylock, ("s32",), "s32"),
    "cudadev_lock": (sync.cudadev_lock, ("s32",), None),
    "cudadev_unlock": (sync.cudadev_unlock, ("s32",), None),
    # warp shuffles and type-generic atomics are *polymorphic* in the
    # value operand: the lowering pass special-cases them (result dtype
    # follows the value / pointee operand), so these signatures only
    # document the shapes — "any" skips argument conversion.
    "__shfl_sync": (shuffle.shfl_sync, _SHFL_PARAMS, "any"),
    "__shfl_down_sync": (shuffle.shfl_down_sync, _SHFL_PARAMS, "any"),
    "__shfl_up_sync": (shuffle.shfl_up_sync, _SHFL_PARAMS, "any"),
    "__shfl_xor_sync": (shuffle.shfl_xor_sync, _SHFL_PARAMS, "any"),
    **{name: (fn, ("u64", "any"), "any")
       for name, fn in ATOMIC_RED_INTRINSICS.items()},
}

#: name -> ((parameter dtypes...), return dtype or None), for lowering.
INTRINSIC_SIGS: dict[str, tuple[tuple[str, ...], str | None]] = {
    name: (params, ret) for name, (_fn, params, ret) in INTRINSICS.items()}

#: C prototypes injected into generated kernel files so they compile as
#: standalone CUDA C (the device-library header, paper Fig. 2's "GPU
#: kernel files" are self-contained translation units).
DEVICE_LIBRARY_HEADER = """\
/* cudadev device runtime library interface (auto-generated) */
__device__ int omp_get_thread_num(void);
__device__ int omp_get_num_threads(void);
__device__ int omp_get_team_num(void);
__device__ int omp_get_num_teams(void);
__device__ int omp_get_max_threads(void);
__device__ int omp_is_initial_device(void);
__device__ void cudadev_target_init(int mode);
__device__ int cudadev_in_masterwarp(int thrid);
__device__ int cudadev_is_masterthr(int thrid);
__device__ void cudadev_register_parallel(void *fn, void *args, int nthreads);
__device__ void cudadev_workerfunc(int thrid);
__device__ void cudadev_exit_target(void);
__device__ void *cudadev_getaddr(void *p);
__device__ void *cudadev_push_shmem(void *src, long size);
__device__ void cudadev_pop_shmem(void *dst, long size);
__device__ void cudadev_get_distribute_chunk(long lo, long hi, long *tlo, long *thi);
__device__ void cudadev_get_distribute_chunk_dim(int dim, long lo, long hi, long *tlo, long *thi);
__device__ int cudadev_get_static_chunk_dim(int dim, int id, long lo, long hi, long chunk, long *tlo, long *thi);
__device__ int cudadev_get_static_chunk(int id, long lo, long hi, long chunk, long *tlo, long *thi);
__device__ int cudadev_get_dynamic_chunk(int id, long lo, long hi, long chunk, long *tlo, long *thi);
__device__ int cudadev_get_guided_chunk(int id, long lo, long hi, long chunk, long *tlo, long *thi);
__device__ void cudadev_sections_init(int id, int nsections);
__device__ int cudadev_next_section(int id);
__device__ void cudadev_barrier(void);
__device__ int cudadev_trylock(int id);
__device__ void cudadev_lock(int id);
__device__ void cudadev_unlock(int id);
/* __shfl_*_sync and cudadev_atomic_red_* are type-generic (value-
   polymorphic) builtins: like atomicAdd they carry no C prototype here —
   the nvcc-simulator lowers calls to them directly, typing the result
   from the value / pointee operand. */
"""


def build_intrinsics() -> dict:
    """The callable table the engine dispatches CallOp through."""
    return {name: fn for name, (fn, _params, _ret) in INTRINSICS.items()}
