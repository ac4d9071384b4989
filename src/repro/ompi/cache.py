"""Shared compile cache: source hash + config fingerprint -> program.

The ompicc pipeline is deterministic — the same source text under the
same codegen-relevant configuration always produces the same outlined
host program and kernel images — so compilation results can be shared
freely: between requests of a serving runtime, between the CLI and an
embedding application, between sessions of different tenants.

``compile_cached()`` is the single entry point.  The cache key is

* the SHA-256 of the source text,
* the program name (it prefixes every generated kernel symbol), and
* the *config fingerprint*: only the :class:`~repro.ompi.config.OmpiConfig`
  fields that change what the compiler emits (binary mode, target arch,
  block-geometry knobs).  Runtime-only fields (fastpath, profiling, fault
  injection, device count) deliberately stay out of the key — a cached
  program is re-bound to the caller's full config on every hit, so two
  callers differing only in runtime knobs share one compilation.

The in-memory map serves one process; an optional persistent tier
(:class:`repro.ompi.diskcache.DiskCompileCache`) extends the same keys
across processes and sessions: an in-memory miss consults the disk
store before compiling, and every fresh compilation is written back.
The entry pickled to disk carries a *canonical* config reduced to the
fingerprint fields — runtime knobs (fastpath, profiling, fault
injection, recorder objects) never reach the pickle, and every hit is
re-bound to the caller's full config exactly like an in-memory hit.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Optional

from repro.ompi.compiler import CompiledProgram, OmpiCompiler
from repro.ompi.config import OmpiConfig


def config_fingerprint(config: OmpiConfig) -> str:
    """The codegen-relevant slice of a config, as a stable string."""
    return "|".join((
        config.binary_mode,
        config.arch,
        str(config.default_num_threads),
        str(config.block_shape),
        config.reduction_mode,
    ))


def source_key(source: str, name: str = "prog",
               config: Optional[OmpiConfig] = None) -> str:
    """Content-addressed cache key (hex digest) for one compilation."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\x00")
    h.update(name.encode())
    h.update(b"\x00")
    h.update(config_fingerprint(config or OmpiConfig()).encode())
    return h.hexdigest()


class CompileCache:
    """Map of :func:`source_key` -> :class:`CompiledProgram`.

    ``max_entries`` bounds the cache with LRU eviction (None: unbounded —
    the CLI compiles one program per process; a serving runtime should
    set a bound matched to its program population).

    ``disk`` attaches a persistent tier
    (:class:`repro.ompi.diskcache.DiskCompileCache`): in-memory misses
    consult it before compiling, fresh compilations are written back.
    """

    def __init__(self, max_entries: Optional[int] = None, disk=None):
        self.max_entries = max_entries
        self.disk = disk
        self._cache: dict[str, CompiledProgram] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_misses = 0
        #: disk-tier writes that raised (the compile itself still succeeds)
        self.store_errors = 0
        #: actual OmpiCompiler.compile invocations (misses both tiers)
        self.compiles = 0
        #: host wall-clock spent inside OmpiCompiler.compile (compiles only)
        self.compile_wall_s = 0.0

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, source: str, name: str = "prog",
            config: Optional[OmpiConfig] = None) -> CompiledProgram:
        """The compiled program for ``source``, compiling on first use.

        The returned program carries the *caller's* config (runtime knobs
        like fastpath/profile/faults apply per run), sharing the host
        unit, kernel plans and images with every other hit on the key.
        """
        config = config or OmpiConfig()
        key = source_key(source, name, config)
        prog = self._cache.get(key)
        if prog is not None:
            self.hits += 1
            # LRU touch: re-insertion order is eviction order
            self._cache[key] = self._cache.pop(key)
        else:
            self.misses += 1
            prog = self._load_disk(key) if self.disk is not None else None
            if prog is None:
                t0 = time.perf_counter()
                prog = OmpiCompiler(config).compile(source, name)
                self.compiles += 1
                self.compile_wall_s += time.perf_counter() - t0
                if self.disk is not None:
                    self._store_disk(key, prog)
            if (self.max_entries is not None
                    and len(self._cache) >= self.max_entries):
                self._cache.pop(next(iter(self._cache)))
                self.evictions += 1
            self._cache[key] = prog
        return replace(prog, config=config)

    def _load_disk(self, key: str) -> Optional[CompiledProgram]:
        prog = self.disk.load(key)
        if prog is None:
            self.disk_misses += 1
            return None
        if not isinstance(prog, CompiledProgram):
            # foreign object under our key: treat as a corrupt miss
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        return prog

    def _store_disk(self, key: str, prog: CompiledProgram) -> None:
        # persist with a canonical codegen-only config so runtime objects
        # (recorders, fault injectors) never reach the pickle
        canon = OmpiConfig(binary_mode=prog.config.binary_mode,
                           arch=prog.config.arch,
                           default_num_threads=prog.config.default_num_threads,
                           block_shape=prog.config.block_shape,
                           reduction_mode=prog.config.reduction_mode)
        try:
            self.disk.store(key, replace(prog, config=canon))
        except Exception:
            # a full disk or unpicklable image must not fail compilation,
            # but a disk tier that never fills must show in the stats
            self.store_errors += 1

    def clear(self) -> None:
        self._cache.clear()

    @property
    def stats(self) -> dict:
        out = {
            "entries": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compiles": self.compiles,
            "compile_wall_s": self.compile_wall_s,
        }
        if self.disk is not None:
            out["disk_hits"] = self.disk_hits
            out["disk_misses"] = self.disk_misses
            out["store_errors"] = self.store_errors
            out["disk"] = self.disk.stats
        return out


#: process-wide default cache (what ``compile_cached`` uses when the
#: caller does not bring its own): the CLI, the serving runtime and ad-hoc
#: embedders all share it, so a warm process never recompiles a program
GLOBAL_COMPILE_CACHE = CompileCache()


def compile_cached(source: str, name: str = "prog",
                   config: Optional[OmpiConfig] = None,
                   cache: Optional[CompileCache] = None) -> CompiledProgram:
    """Compile ``source`` through a shared cache (see module docstring)."""
    return (cache if cache is not None else GLOBAL_COMPILE_CACHE).get(
        source, name, config)
