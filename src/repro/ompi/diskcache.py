"""Persistent on-disk tier for the ompicc compile cache.

The in-memory :class:`repro.ompi.cache.CompileCache` makes repeated
compilations free *within* one process; this module makes them free
*across* processes and sessions.  Entries are whole pickled
:class:`~repro.ompi.compiler.CompiledProgram` objects — the outlined
host translation unit plus every kernel plan and device image — keyed
by the same content-addressed :func:`repro.ompi.cache.source_key`, so
a warm cache turns ``ompicc`` into "deserialize and run": no cfront
parse, no outlining, no device codegen.

Layout and invariants
---------------------

* Store root: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-ompi``
  (the CLI enables the disk tier by default; the offload server only
  uses it when the environment opts in, keeping tests hermetic).
* Entries live under ``<root>/v<SCHEMA_VERSION>/<key>.pkl``.  The
  schema version is part of the path *and* of each entry's header, so
  a format change simply stops finding old entries (recompile, never
  misparse) and a header mismatch inside a file is treated as a miss.
* Writes are atomic: serialize to a ``.tmp`` sibling, ``os.replace``
  into place.  Readers either see a complete entry or none.
* Any failure to read or unpickle an entry (truncation, corruption,
  incompatible pickles from another interpreter) deletes the entry and
  reports a miss — the cache can only ever cost a recompile, never an
  error.
* The store is bounded by ``max_bytes`` with LRU eviction: loads touch
  the entry's mtime, stores evict oldest-mtime entries until the total
  size fits.
* Cross-process safety: every load/store/evict holds an exclusive
  ``fcntl.flock`` on ``<root>/.lock``, so concurrent compilers see
  consistent entries and eviction never races a half-written file.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Optional

try:  # POSIX; on platforms without fcntl the lock degrades to a no-op
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: bump when the pickled entry format (or anything reachable from a
#: CompiledProgram pickle) changes incompatibly
SCHEMA_VERSION = 4

#: default size bound for the store (256 MiB is hundreds of programs)
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_MAGIC = "repro-ompi-cache"


def default_root() -> Path:
    """The store root the CLI uses when REPRO_CACHE_DIR is unset."""
    return Path.home() / ".cache" / "repro-ompi"


class DiskCompileCache:
    """Content-addressed pickle store for compiled programs (module doc)."""

    def __init__(self, root: os.PathLike | str,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.dir = self.root / f"v{SCHEMA_VERSION}"
        # store-level counters (the owning CompileCache counts hits/misses)
        self.stores = 0
        self.evictions = 0
        self.corrupt_dropped = 0
        self.lock_degraded = 0

    # -- locking --------------------------------------------------------------
    def _locked(self):
        return _FileLock(self.root / ".lock", on_degraded=self._note_degraded)

    def _note_degraded(self) -> None:
        self.lock_degraded += 1

    # -- paths ----------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.dir / f"{key}.pkl"

    # -- load / store ---------------------------------------------------------
    def load(self, key: str):
        """The stored object for ``key``, or None (miss / dropped entry)."""
        path = self.path_for(key)
        with self._locked():
            try:
                data = path.read_bytes()
            except OSError:
                return None
            try:
                magic, version, entry_key, obj = pickle.loads(data)
                if (magic != _MAGIC or version != SCHEMA_VERSION
                        or entry_key != key):
                    raise ValueError("schema/key mismatch")
            except Exception:
                # corrupted, truncated or foreign entry: drop it so the
                # next store rewrites a clean one, report a miss
                self.corrupt_dropped += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            _touch(path)  # LRU: loads refresh recency
            return obj

    def store(self, key: str, obj) -> None:
        """Atomically persist ``obj`` under ``key`` and enforce the bound."""
        path = self.path_for(key)
        data = pickle.dumps((_MAGIC, SCHEMA_VERSION, key, obj),
                            protocol=pickle.HIGHEST_PROTOCOL)
        with self._locked():
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
            self.stores += 1
            self._evict_over_bound(keep=path)

    def _evict_over_bound(self, keep: Optional[Path] = None) -> None:
        """Delete oldest-mtime entries until total size <= max_bytes.

        ``keep`` (the entry just written) is never evicted — a single
        oversized program must not make the store thrash itself empty.
        """
        entries = []
        total = 0
        for p in self.dir.glob("*.pkl"):
            try:
                st = p.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, p))
            total += st.st_size
        entries.sort()
        for _mtime, size, p in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and p == keep:
                continue
            try:
                p.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.dir.glob("*.pkl"))
        except OSError:
            return 0

    @property
    def size_bytes(self) -> int:
        total = 0
        try:
            for p in self.dir.glob("*.pkl"):
                try:
                    total += p.stat().st_size
                except OSError:
                    pass
        except OSError:
            pass
        return total

    @property
    def stats(self) -> dict:
        return {
            "root": str(self.root),
            "entries": len(self),
            "size_bytes": self.size_bytes,
            "max_bytes": self.max_bytes,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
            "lock_degraded": self.lock_degraded,
        }

    def clear(self) -> None:
        with self._locked():
            try:
                for p in self.dir.glob("*.pkl"):
                    try:
                        p.unlink()
                    except OSError:
                        pass
            except OSError:
                pass


class _FileLock:
    """Exclusive advisory lock on a sentinel file (flock; no-op without
    fcntl).  Reentrant use is not needed — the cache never nests locks."""

    def __init__(self, path: Path, on_degraded=None):
        self.path = path
        self.on_degraded = on_degraded
        self._fh = None

    def __enter__(self):
        if fcntl is None:  # pragma: no cover
            return self
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a+")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        except OSError:
            # degraded: proceed unlocked — but never silently; the store
            # counts these so `ompicc --cache-stats` surfaces a cache
            # running without cross-process exclusion
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
            self._fh = None
            if self.on_degraded is not None:
                self.on_degraded()
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            self._fh.close()
            self._fh = None


def _touch(path: Path) -> None:
    try:
        os.utime(path, (time.time(), time.time()))
    except OSError:
        pass
