"""External per-layer tracer for the end-to-end benchmark.

The tracer wraps the public entry point of each pipeline layer from
outside the program: nothing under ``src/`` knows it exists.  Each
wrapper opens a span on a span stack, so a layer's *self* time is its
span minus the time spent in the spans of layers it called.  Spans are
recorded only inside an :meth:`Tracer.op` root span (one timed benchmark
operation); a wrapped call outside any op passes straight through.
Whatever an op spends outside every wrapped layer is reported as
``other``.

Wrapping rules, so that the traced run executes the same program:

* wrappers are installed only for traced rounds, and :meth:`Tracer.restore`
  puts every original back (``getattr(owner, attr) is original`` after);
* only boundaries called at most about 10^4 times per workload are
  wrapped -- never per-warp code;
* a module-level function is replaced in *every* module that imported it
  by name (``parse_translation_unit`` lives in ``repro.cfront.parser``,
  ``repro.ompi.compiler``, ``repro.cuda.nvcc`` and ``repro.bench.harness``);
* methods are patched on the class, so the ``ort_*`` natives must be
  installed before an ``Ort`` is built: ``Ort._natives`` captures bound
  methods into the interpreter's native table.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _nbytes(obj) -> int:
    return len(obj) if isinstance(obj, (bytes, bytearray)) else obj.nbytes


def _arg(a, kw, index, name):
    return a[index] if len(a) > index else kw[name]


def _cache_snapshot(a, kw):
    cache = a[0]
    return cache.hits + cache.disk_hits, cache.disk_hits, cache.compiles


def _cache_counts(a, kw, result, before):
    now = _cache_snapshot(a, kw)
    return {k: now[i] - before[i]
            for i, k in enumerate(("hits", "disk_hits", "compiles"))}


def _drain_snapshot(a, kw):
    stats = a[0].stats
    return (sum(size * n for size, n in stats.batches.items()),
            sum(stats.batches.values()), stats.reuse_hits, stats.evictions)


def _drain_counts(a, kw, result, before):
    now = _drain_snapshot(a, kw)
    return {k: now[i] - before[i] for i, k in enumerate(
        ("batched_requests", "batches", "reuse_hits", "evictions"))}


def _host_counts(a, kw, result, before):
    hs = a[0].host_stats
    return {"fast_regions": hs["loop_fast"] + hs["fn_fast"],
            "fallback_regions": hs["loop_fallback"] + hs["fn_fallback"]}


def _sim_counts(a, kw, stats, before):
    return {"blocks": stats.blocks_launched, "warps": stats.warps_launched,
            "instructions": stats.instructions}


#: attribute -> (snapshot taken before the call or None, counters after
#: the call): counts are gathered at the boundary where the work happens
_COUNTERS = {
    "FunctionalEngine.launch": (None, _sim_counts),
    "CudaDriver.cuMemcpyHtoDAsync": (
        None, lambda a, kw, r, b: {"mb": _nbytes(_arg(a, kw, 2, "src")) / 1e6}),
    "CudaDriver.cuMemcpyDtoHAsync": (
        None, lambda a, kw, r, b: {"mb": _arg(a, kw, 2, "nbytes") / 1e6}),
    "CudaDriver.cuMemcpyPeer": (
        None, lambda a, kw, r, b: {"mb": _arg(a, kw, 4, "nbytes") / 1e6}),
    "parse_translation_unit": (
        None, lambda a, kw, r, b: {"src_kb": len(_arg(a, kw, 0, "src")) / 1024}),
    "OmpiCompiler.compile": (
        None, lambda a, kw, r, b: {"kernels": len(r.kernel_sources)}),
    "CompileCache.get": (_cache_snapshot, _cache_counts),
    "Machine.run": (None, _host_counts),
    "OffloadServer.drain": (_drain_snapshot, _drain_counts),
}

_ORT_NATIVES = ("_ort_offload", "_ort_map", "_ort_unmap", "_ort_update_to",
                "_ort_update_from", "_ort_shard_begin", "_ort_shard_end",
                "_ort_red_end")

#: (layer, module, attribute, rebind by-name imports in other modules)
ENTRY_POINTS = (
    ("cuda.sim", "repro.cuda.sim.engine", "FunctionalEngine.launch", True),
    ("cuda.sim.jit", "repro.cuda.sim.compile", "CompiledKernelCache.get", True),
    ("cuda.driver.launch", "repro.cuda.driver", "CudaDriver.cuLaunchKernel",
     True),
    ("timing.gpumodel", "repro.timing.gpumodel", "GpuTimingModel.kernel_time",
     True),
    # the synchronous copies delegate to the Async methods
    ("cuda.driver.memcpy", "repro.cuda.driver",
     "CudaDriver.cuMemcpyHtoDAsync", True),
    ("cuda.driver.memcpy", "repro.cuda.driver",
     "CudaDriver.cuMemcpyDtoHAsync", True),
    ("cuda.driver.memcpy", "repro.cuda.driver", "CudaDriver.cuMemcpyPeer",
     True),
    ("cfront.parse", "repro.cfront.parser", "parse_translation_unit", True),
    ("openmp.validate", "repro.openmp.validator", "validate_unit", True),
    ("ompi.xform", "repro.ompi.compiler", "OmpiCompiler.compile", True),
    ("cuda.nvcc", "repro.cuda.nvcc", "compile_device", True),
    ("ompi.cache", "repro.ompi.cache", "CompileCache.get", True),
    ("ompi.bind", "repro.ompi.compiler", "CompiledProgram.bind", True),
    # Only the attribute CompiledProgram.image_for_arch looks up at call
    # time: nvcc and the PTX JIT imported assemble_cubin by name, and their
    # calls are first-time assembly, which belongs to their own layers.
    ("cuda.ptx.retarget", "repro.cuda.ptx.images", "assemble_cubin", False),
    ("cfront.host", "repro.cfront.interp", "Machine.run", True),
    *(("hostrt.ort", "repro.hostrt.ort", f"Ort.{n}", True)
      for n in _ORT_NATIVES),
    ("serving.submit", "repro.serving.server", "OffloadServer.submit", True),
    ("serving.drain", "repro.serving.server", "OffloadServer.drain", True),
)

#: every layer, in pipeline order; ``other`` is op time outside them all
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


class Tracer:
    """Span stack, per-layer self time and counters (module docstring)."""

    def __init__(self):
        #: child-time accumulator of each open span, innermost last
        self.stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.other_s = 0.0
        self.wall_s = 0.0
        #: (name, start, duration), kept in memory until the run ends
        self.spans: list[tuple[str, float, float]] = []
        #: (owner, attribute, original) for everything install() replaced
        self.installed: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original) while installed
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, layer: str, fn, counters):
        stack, perf = self.stack, time.perf_counter
        self_s, calls, spans = self.self_s, self.calls, self.spans
        layer_counters = self.counters[layer]
        before_fn, after_fn = counters or (None, None)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if not stack:
                return fn(*a, **kw)
            before = before_fn(a, kw) if before_fn is not None else None
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*a, **kw)
            finally:
                dur = perf() - t0
                child = stack.pop()
                stack[-1] += dur
                self_s[layer] += dur - child
                calls[layer] += 1
                spans.append((layer, t0, dur))
            if after_fn is not None:
                for key, value in after_fn(a, kw, result, before).items():
                    layer_counters[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every entry point with its wrapper."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for layer, modname, attr, rebind in ENTRY_POINTS:
            module = importlib.import_module(modname)
            owner, name = module, attr
            if "." in attr:
                cls, name = attr.split(".")
                owner = vars(module)[cls]
            original = vars(owner)[name]
            wrapper = self._wrap(layer, original, _COUNTERS.get(attr))
            self._wrappers[id(wrapper)] = (wrapper, original)
            self._replace(owner, name, original, wrapper)
            if rebind and owner is module:
                for other in list(sys.modules.values()):
                    if (other is not module and getattr(
                            other, "__dict__", {}).get(name) is original):
                        self._replace(other, name, original, wrapper)

    def _replace(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self.installed.append((owner, name, original))

    def restore(self) -> None:
        """Put every original back, including by-name copies a module
        imported while the wrappers were installed."""
        for owner, name, original in reversed(self.installed):
            setattr(owner, name, original)
        self.installed.clear()
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._wrappers.clear()

    # -- root spans ---------------------------------------------------------
    @contextmanager
    def op(self, name: str):
        """One timed benchmark operation: the root of a span tree."""
        self.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self.other_s += dur - self.stack.pop()
            self.wall_s += dur
            self.spans.append((f"op:{name}", t0, dur))

    # -- reports --------------------------------------------------------------
    def layers(self, rounds: int) -> dict:
        """Per-layer calls, self seconds, share of op wall time and
        counters, each averaged over ``rounds`` traced rounds."""
        wall = self.wall_s or 1.0
        out = {}
        for layer in LAYERS:
            out[layer] = {"calls": self.calls[layer] / rounds,
                          "self_s": self.self_s[layer] / rounds,
                          "self_pct": 100.0 * self.self_s[layer] / wall,
                          **{k: v / rounds
                             for k, v in self.counters[layer].items()}}
        out["other"] = {"self_s": self.other_s / rounds,
                        "self_pct": 100.0 * self.other_s / wall}
        return out

    def write_chrome_trace(self, path) -> None:
        """The spans as a Chrome trace on one "simulator" track."""
        t0 = min((start for _, start, _ in self.spans), default=0.0)
        events = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "simulator"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "simulator"}},
        ]
        events += [{"ph": "X", "pid": 1, "tid": 1, "name": name,
                    "ts": (start - t0) * 1e6, "dur": dur * 1e6}
                   for name, start, dur in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
