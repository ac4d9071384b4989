"""Persistent on-disk compile cache (repro.ompi.diskcache).

Covers the disk tier's contract: cold/warm round-trips across fresh
in-memory caches (simulating separate processes), corrupted-entry
recovery, schema-version mismatch behaviour, LRU size-bound eviction
and cross-process flock serialisation.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.ompi import diskcache
from repro.ompi.cache import CompileCache, source_key
from repro.ompi.config import OmpiConfig
from repro.ompi.diskcache import SCHEMA_VERSION, DiskCompileCache

SRC = r"""
#include <stdio.h>
float a[16];
int main(void) {
    int i; float s = 0.0f;
    for (i = 0; i < 16; i++) a[i] = i * 0.5f;
    #pragma omp target teams distribute parallel for map(tofrom: a[0:16])
    for (i = 0; i < 16; i++) a[i] = a[i] + 1.0f;
    for (i = 0; i < 16; i++) s += a[i];
    printf("%f\n", s);
    return 0;
}
"""


def _variant(tag: int) -> str:
    return SRC.replace("+ 1.0f", f"+ {tag}.0f")


def test_cold_then_warm_round_trip(tmp_path):
    root = tmp_path / "store"
    c1 = CompileCache(disk=DiskCompileCache(root))
    p1 = c1.get(SRC, "t")
    assert c1.compiles == 1 and c1.disk_hits == 0

    # a fresh in-memory cache over the same store: pure disk hit
    c2 = CompileCache(disk=DiskCompileCache(root))
    p2 = c2.get(SRC, "t")
    assert c2.compiles == 0 and c2.disk_hits == 1
    assert p2.host_source == p1.host_source
    assert sorted(p2.images) == sorted(p1.images)

    r1, r2 = p1.run(), p2.run()
    assert r1.stdout == r2.stdout
    assert r1.log.measured_time == r2.log.measured_time


def test_deserialized_program_carries_callers_config(tmp_path):
    disk = DiskCompileCache(tmp_path / "store")
    CompileCache(disk=disk).get(SRC, "t")
    cfg = OmpiConfig(host_fastpath="verify")
    prog = CompileCache(disk=disk).get(SRC, "t", cfg)
    assert prog.config.host_fastpath == "verify"


def test_runtime_knobs_share_one_disk_entry(tmp_path):
    """host_fastpath (a runtime knob) stays out of the key: compiling
    under 'off' then requesting 'on' must be a disk hit, not a compile."""
    disk = DiskCompileCache(tmp_path / "store")
    CompileCache(disk=disk).get(SRC, "t", OmpiConfig(host_fastpath="off"))
    warm = CompileCache(disk=disk)
    warm.get(SRC, "t", OmpiConfig(host_fastpath="on"))
    assert warm.compiles == 0 and warm.disk_hits == 1
    assert len(disk) == 1


def test_corrupted_entry_recovers_by_recompiling(tmp_path):
    disk = DiskCompileCache(tmp_path / "store")
    cold = CompileCache(disk=disk)
    cold.get(SRC, "t")
    key = source_key(SRC, "t", OmpiConfig())
    disk.path_for(key).write_bytes(b"\x00garbage, not a pickle")

    warm = CompileCache(disk=DiskCompileCache(tmp_path / "store"))
    warm.get(SRC, "t")
    assert warm.compiles == 1  # fell back to a real compile
    assert warm.disk.corrupt_dropped == 1
    # the rewritten entry is healthy again
    again = CompileCache(disk=DiskCompileCache(tmp_path / "store"))
    again.get(SRC, "t")
    assert again.compiles == 0 and again.disk_hits == 1


def test_truncated_entry_recovers(tmp_path):
    disk = DiskCompileCache(tmp_path / "store")
    CompileCache(disk=disk).get(SRC, "t")
    key = source_key(SRC, "t", OmpiConfig())
    path = disk.path_for(key)
    path.write_bytes(path.read_bytes()[: 64])
    warm = CompileCache(disk=DiskCompileCache(tmp_path / "store"))
    warm.get(SRC, "t")
    assert warm.compiles == 1 and warm.disk.corrupt_dropped == 1


def test_schema_version_mismatch_recompiles(tmp_path, monkeypatch):
    root = tmp_path / "store"
    CompileCache(disk=DiskCompileCache(root)).get(SRC, "t")

    # a future schema looks in a different subdirectory: clean miss
    monkeypatch.setattr(diskcache, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
    newer = CompileCache(disk=DiskCompileCache(root))
    newer.get(SRC, "t")
    assert newer.compiles == 1 and newer.disk_hits == 0

    # an entry whose *header* carries the wrong version (e.g. copied
    # between stores) is dropped as corrupt, never unpickled into use
    monkeypatch.setattr(diskcache, "SCHEMA_VERSION", SCHEMA_VERSION)
    disk = DiskCompileCache(root)
    key = source_key(SRC, "t", OmpiConfig())
    payload = pickle.loads(disk.path_for(key).read_bytes())
    forged = (payload[0], SCHEMA_VERSION + 1) + payload[2:]
    disk.path_for(key).write_bytes(pickle.dumps(forged))
    assert disk.load(key) is None
    assert disk.corrupt_dropped == 1


def test_foreign_object_under_key_is_a_miss(tmp_path):
    disk = DiskCompileCache(tmp_path / "store")
    key = source_key(SRC, "t", OmpiConfig())
    disk.store(key, {"not": "a program"})
    cache = CompileCache(disk=disk)
    cache.get(SRC, "t")
    assert cache.compiles == 1 and cache.disk_hits == 0


def test_lru_eviction_bounds_store_size(tmp_path):
    disk = DiskCompileCache(tmp_path / "store")
    CompileCache(disk=disk).get(_variant(1), "t")
    entry_bytes = disk.size_bytes
    assert entry_bytes > 0

    # room for roughly two entries; insert three
    disk.max_bytes = int(entry_bytes * 2.5)
    keys = []
    for tag in (1, 2, 3):
        src = _variant(tag)
        CompileCache(disk=disk).get(src, "t")
        keys.append(source_key(src, "t", OmpiConfig()))
        # deterministic mtime order even on coarse filesystems
        import os
        os.utime(disk.path_for(keys[-1]), (tag, tag))
        disk._evict_over_bound(keep=disk.path_for(keys[-1]))

    assert disk.size_bytes <= disk.max_bytes
    assert disk.evictions >= 1
    assert not disk.path_for(keys[0]).exists()   # oldest evicted
    assert disk.path_for(keys[2]).exists()       # newest kept


def test_loads_refresh_lru_recency(tmp_path):
    import os
    disk = DiskCompileCache(tmp_path / "store")
    k1 = source_key(_variant(1), "t", OmpiConfig())
    k2 = source_key(_variant(2), "t", OmpiConfig())
    CompileCache(disk=disk).get(_variant(1), "t")
    CompileCache(disk=disk).get(_variant(2), "t")
    os.utime(disk.path_for(k1), (1, 1))
    os.utime(disk.path_for(k2), (2, 2))
    assert disk.load(k1) is not None  # touch: k1 becomes the newest
    disk.max_bytes = disk.size_bytes - 1
    disk._evict_over_bound()
    assert disk.path_for(k1).exists()
    assert not disk.path_for(k2).exists()


def _hammer(root: str, tag: int, rounds: int, out):
    try:
        for i in range(rounds):
            cache = CompileCache(disk=DiskCompileCache(root))
            prog = cache.get(_variant(tag + (i % 2)), "t")
            assert prog.run().exit_code == 0
        out.put(("ok", tag))
    except Exception as exc:  # pragma: no cover - failure reporting
        out.put(("fail", f"{tag}: {exc!r}"))


def test_concurrent_processes_share_one_store(tmp_path):
    """N processes compile/load the same keys concurrently; flock keeps
    every entry either absent or complete, so nobody ever observes a
    torn pickle."""
    root = str(tmp_path / "store")
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    procs = [ctx.Process(target=_hammer, args=(root, tag, 3, out))
             for tag in (1, 2, 1, 2)]
    for p in procs:
        p.start()
    results = [out.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=120)
    assert all(status == "ok" for status, _ in results), results
    # and the store is still healthy afterwards
    warm = CompileCache(disk=DiskCompileCache(root))
    warm.get(_variant(1), "t")
    assert warm.compiles == 0 and warm.disk_hits == 1


def test_stats_shape(tmp_path):
    disk = DiskCompileCache(tmp_path / "store", max_bytes=123)
    cache = CompileCache(disk=disk)
    cache.get(SRC, "t")
    s = cache.stats
    assert s["compiles"] == 1
    assert s["disk_hits"] == 0 and s["disk_misses"] == 1
    assert s["disk"]["entries"] == 1 and s["disk"]["stores"] == 1
    assert s["disk"]["max_bytes"] == 123


def test_degraded_lock_is_counted_not_silent(tmp_path):
    root = tmp_path / "store"
    disk = DiskCompileCache(root)
    # make the lock sentinel unopenable: a directory where the file goes
    (root / ".lock").mkdir(parents=True)
    cache = CompileCache(disk=disk)
    cache.get(SRC, "t")             # load (miss) + store, both degraded
    assert disk.lock_degraded >= 2
    assert cache.stats["disk"]["lock_degraded"] == disk.lock_degraded
    # the store still works unlocked: a fresh cache gets a disk hit
    c2 = CompileCache(disk=DiskCompileCache(root))
    c2.get(SRC, "t")
    assert c2.disk_hits == 1


def test_memory_tier_still_wins_when_warm(tmp_path):
    disk = DiskCompileCache(tmp_path / "store")
    cache = CompileCache(disk=disk)
    cache.get(SRC, "t")
    cache.get(SRC, "t")
    assert cache.hits == 1 and cache.disk_hits == 0


def test_disk_cached_program_is_functionally_identical(tmp_path):
    """A program round-tripped through the pickle store produces the
    same memory image as a fresh compile (paranoia for AST pickling)."""
    disk = DiskCompileCache(tmp_path / "store")
    p_fresh = CompileCache().get(SRC, "t")
    CompileCache(disk=disk).get(SRC, "t")
    p_disk = CompileCache(disk=disk).get(SRC, "t")
    r_fresh, r_disk = p_fresh.run(), p_disk.run()
    a = np.asarray(r_fresh.machine.global_array("a"))
    b = np.asarray(r_disk.machine.global_array("a"))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["on", "off", "verify"])
def test_disk_cached_program_runs_under_every_host_fastpath(tmp_path, mode):
    disk = DiskCompileCache(tmp_path / "store")
    CompileCache(disk=disk).get(SRC, "t")
    cache = CompileCache(disk=disk)
    prog = cache.get(SRC, "t", OmpiConfig(host_fastpath=mode))
    assert cache.disk_hits == 1
    run = prog.run()
    assert run.exit_code == 0
    assert run.stdout.startswith("76.0")


def test_failing_store_still_compiles_and_is_counted(tmp_path, capsys):
    from repro.ompi.cli import _print_cache_stats

    disk = DiskCompileCache(tmp_path / "store")

    def full_disk(key, obj):
        raise OSError("no space left on device")

    disk.store = full_disk
    cache = CompileCache(disk=disk)
    prog = cache.get(SRC, "t")
    assert cache.compiles == 1 and cache.store_errors == 1
    assert cache.stats["store_errors"] == 1
    assert prog.run().stdout.startswith("76.0")
    _print_cache_stats(cache)
    assert "store_errors=1" in capsys.readouterr().err
    # nothing reached the store: the next process compiles again
    again = CompileCache(disk=DiskCompileCache(tmp_path / "store"))
    again.get(SRC, "t")
    assert again.compiles == 1 and again.store_errors == 0


REDUCTION_SRC = r"""
#include <stdio.h>
float a[256];
double s;
int main(void) {
    int i;
    for (i = 0; i < 256; i++) a[i] = (i % 17) * 0.25f;
    s = 0.0;
    #pragma omp target teams distribute parallel for \
        map(to: a) map(tofrom: s) reduction(+: s) num_teams(2) num_threads(64)
    for (i = 0; i < 256; i++) s += a[i];
    printf("%f\n", s);
    return 0;
}
"""


@pytest.mark.parametrize("binary_mode", ["cubin", "ptx"])
def test_disk_hit_of_tree_reduction_equals_cold_compile(tmp_path,
                                                        binary_mode):
    """The tree-mode reduction kernel (shuffles, a barrier) comes back
    from a schema-4 entry exactly as compiled: host text, kernel files
    and the PTX of every image."""
    from repro.cuda.ptx.ptxwriter import module_to_ptx

    assert SCHEMA_VERSION == 4
    config = OmpiConfig(binary_mode=binary_mode, reduction_mode="tree")
    root = tmp_path / "store"
    cold_cache = CompileCache(disk=DiskCompileCache(root))
    cold = cold_cache.get(REDUCTION_SRC, "red", config)
    assert cold_cache.store_errors == 0
    assert list((root / "v4").glob("*.pkl"))
    warm_cache = CompileCache(disk=DiskCompileCache(root))
    hit = warm_cache.get(REDUCTION_SRC, "red", config)
    assert warm_cache.disk_hits == 1 and warm_cache.compiles == 0
    assert "__shfl_down_sync" in "".join(cold.kernel_sources.values())
    assert hit.host_source == cold.host_source
    assert hit.kernel_sources == cold.kernel_sources
    assert sorted(hit.images) == sorted(cold.images)
    for name, image in cold.images.items():
        assert module_to_ptx(hit.images[name].module) == \
            module_to_ptx(image.module)
    assert hit.run().stdout == cold.run().stdout


def test_disk_hit_of_gramschmidt_equals_cold_compile(tmp_path):
    """Nodes the translator builds share one default location
    (``NO_LOC``), which the store pickles once.  A disk hit still equals
    the cold compile: host text, kernel files, the PTX of every image
    and the run's stdout and modelled time."""
    from repro.bench import harness
    from repro.bench.suite import get_app
    from repro.cfront.astnodes import NO_LOC
    from repro.cuda.ptx.ptxwriter import module_to_ptx

    app = get_app("gramschmidt")
    n = 16
    source = app.omp_source(n)
    config = OmpiConfig(block_shape=app.block_shape)
    root = tmp_path / "store"
    cold = CompileCache(disk=DiskCompileCache(root)).get(source, "gs", config)
    warm_cache = CompileCache(disk=DiskCompileCache(root))
    hit = warm_cache.get(source, "gs", config)
    assert warm_cache.disk_hits == 1 and warm_cache.compiles == 0
    for prog in (cold, hit):
        defaults = {id(node.loc) for node in prog.host_unit.walk()
                    if node.loc == NO_LOC}
        assert len(defaults) == 1
    assert hit.host_source == cold.host_source
    assert hit.kernel_sources == cold.kernel_sources
    assert sorted(hit.images) == sorted(cold.images)
    for name, image in cold.images.items():
        assert module_to_ptx(hit.images[name].module) == \
            module_to_ptx(image.module)
    runs = [prog.run(seed_arrays=app.seed(n),
                     heap_capacity=harness._heap_capacity(app, n))
            for prog in (cold, hit)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].log.measured_time == runs[1].log.measured_time
