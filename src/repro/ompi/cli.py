"""``ompicc`` — command-line driver for the OMPi reproduction.

Mirrors the workflow of the real compiler::

    python3 -m repro.ompi.cli program.c                 # compile + run
    python3 -m repro.ompi.cli program.c --keep out/     # keep generated files
    python3 -m repro.ompi.cli program.c --ptx           # ptx binary mode
    python3 -m repro.ompi.cli program.c --no-run        # compile only
    python3 -m repro.ompi.cli program.c --device tx2    # another board
    python3 -m repro.ompi.cli program.c --time          # event breakdown

Generated artifacts written by ``--keep``: the transformed host program
(``<name>_ompi.c``), one ``<kernel>.cu`` per target region, the matching
``.ptx`` listings, and (in ptx mode) the image files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cuda.device import (
    JETSON_NANO_4GB_GPU, JETSON_NANO_GPU, JETSON_TX2_GPU,
)
from repro.cuda.nvcc import compile_device
from repro.cuda.ptx.jit import JitCache
from repro.cuda.ptx.ptxwriter import module_to_ptx
from repro.ompi.cache import CompileCache, GLOBAL_COMPILE_CACHE
from repro.ompi.config import OmpiConfig
from repro.ompi.diskcache import DiskCompileCache, default_root
from repro.settings import Settings

DEVICES = {
    "nano2gb": JETSON_NANO_GPU,
    "nano4gb": JETSON_NANO_4GB_GPU,
    "tx2": JETSON_TX2_GPU,
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompicc",
        description="OMPi source-to-source OpenMP compiler for the "
                    "(simulated) Jetson Nano platform",
    )
    parser.add_argument("source", help="OpenMP C source file")
    parser.add_argument("--name", default=None,
                        help="program name (default: source stem)")
    parser.add_argument("--ptx", action="store_true",
                        help="emit PTX kernel images (JIT at launch); "
                             "default is cubin mode")
    parser.add_argument("--arch", default=None,
                        help="cubin target architecture (default sm_53, or "
                             "the primary backend's arch with --devices)")
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="write generated host/kernel sources to DIR")
    parser.add_argument("--no-run", action="store_true",
                        help="compile only, do not execute")
    parser.add_argument("--device", choices=sorted(DEVICES), default=None,
                        help="board to run on (default nano2gb, or the "
                             "REPRO_DEVICES registry when that is set)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="JIT compilation cache directory (ptx mode)")
    parser.add_argument("--time", action="store_true",
                        help="print the modelled event breakdown after the run")
    parser.add_argument("--profile", nargs="?", const=True, default=None,
                        metavar="TRACE.json",
                        help="record device activity; with an argument, also "
                             "write a chrome://tracing JSON trace there "
                             "(see also REPRO_PROFILE)")
    parser.add_argument("--block-shape", default=None, metavar="X,Y,Z",
                        help="force thread-block shape for combined constructs")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject driver faults: a preset (transient, "
                             "devlost, oom) or 'kind@api:key=val,...' rules "
                             "(see also REPRO_FAULTS)")
    parser.add_argument("--recovery", default=None, metavar="OPTS",
                        help="recovery policy overrides, e.g. "
                             "'retries=5,backoff=1e-3,fallback=off'")
    parser.add_argument("--num-devices", type=int, default=None, metavar="N",
                        help="number of simulated CUDA devices in the "
                             "runtime's registry (default 1; see also "
                             "REPRO_NUM_DEVICES).  device(k) routes to "
                             "device k, shard(n) splits target teams "
                             "distribute across n devices")
    parser.add_argument("--devices", default=None, metavar="SPEC",
                        help="heterogeneous device registry: comma-separated "
                             "backend names, e.g. 'nano,v100' (see also "
                             "REPRO_DEVICES).  device(k) routes to the k-th "
                             "named backend; shard(n) load-balances by "
                             "per-device throughput.  Overrides "
                             "--num-devices; kernels compile for the first "
                             "backend's transformation set and retarget per "
                             "device at bind time")
    parser.add_argument("--host-fastpath", choices=("on", "off", "verify"),
                        default=None,
                        help="closure-compiled host execution: on (default), "
                             "off (pure tree-walk), or verify (run both and "
                             "fail on any divergence; see also "
                             "REPRO_HOST_FASTPATH)")
    parser.add_argument("--reduction-mode", choices=("tree", "atomic"),
                        default=None,
                        help="reduction lowering: tree (default — "
                             "deterministic warp-shuffle/shared-memory tree "
                             "with fixed-order cross-team combine, "
                             "bit-identical to the sequential loop) or "
                             "atomic (legacy atomic-merge baseline)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the persistent compile cache "
                             "(REPRO_CACHE_DIR or ~/.cache/repro-ompi)")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print compile-cache hit/miss/evict counters "
                             "(in-memory and on-disk tiers) after the run")
    return parser


def _print_cache_stats(cache: CompileCache) -> None:
    s = cache.stats
    print("ompicc: compile cache: "
          f"memory hits={s['hits']} misses={s['misses']} "
          f"evictions={s['evictions']} compiles={s['compiles']} "
          f"wall={s['compile_wall_s'] * 1e3:.1f}ms", file=sys.stderr)
    if cache.disk is not None:
        d = s["disk"]
        print("ompicc: disk cache: "
              f"hits={s['disk_hits']} misses={s['disk_misses']} "
              f"stores={d['stores']} store_errors={s['store_errors']} "
              f"evictions={d['evictions']} "
              f"corrupt_dropped={d['corrupt_dropped']} "
              f"lock_degraded={d['lock_degraded']} "
              f"entries={d['entries']} bytes={d['size_bytes']} "
              f"[{d['root']}]", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    path = Path(args.source)
    try:
        source = path.read_text()
    except OSError as exc:
        print(f"ompicc: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    name = args.name or path.stem.replace("-", "_")
    shape = None
    if args.block_shape:
        parts = [int(v) for v in args.block_shape.split(",")]
        shape = tuple(parts + [1] * (3 - len(parts)))[:3]
    backends = None
    if args.devices:
        from repro.devices import UnknownBackendError, parse_devices
        try:
            backends = parse_devices(args.devices)
        except UnknownBackendError as exc:
            print(f"ompicc: {exc}", file=sys.stderr)
            return 2
    config = OmpiConfig(binary_mode="ptx" if args.ptx else "cubin",
                        arch=args.arch or "sm_53", block_shape=shape,
                        profile=args.profile,
                        faults=args.faults, recovery=args.recovery,
                        num_devices=args.num_devices,
                        host_fastpath=args.host_fastpath,
                        devices=args.devices,
                        reduction_mode=args.reduction_mode or "tree")
    if backends is not None and args.arch is None:
        # compile for the primary (first) backend's transformation set;
        # bind retargets the images for the rest of the registry
        config = backends[0].specialize(config)
    # the process-wide compile cache: a repeated ompicc invocation in one
    # process (tests, embedders) reuses the compiled program, and the
    # serving runtime shares the same cache.  The CLI additionally attaches
    # the persistent tier so a second *process* skips codegen too.
    cache = GLOBAL_COMPILE_CACHE
    if not args.no_disk_cache:
        root = Settings.from_env().cache_dir or default_root()
        cache = CompileCache(disk=DiskCompileCache(root))
        cache._cache = GLOBAL_COMPILE_CACHE._cache  # share the warm tier
    try:
        program = cache.get(source, name, config)
    except Exception as exc:
        print(f"ompicc: {exc}", file=sys.stderr)
        return 1

    if args.keep:
        out = Path(args.keep)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}_ompi.c").write_text(program.host_source)
        for kernel_name, text in program.kernel_sources.items():
            (out / f"{kernel_name}.cu").write_text(text)
            image = compile_device(text, kernel_name, mode="ptx")
            (out / f"{kernel_name}.ptx").write_text(module_to_ptx(image.module))
            if args.ptx:
                (out / f"{kernel_name}.img").write_bytes(
                    program.images[kernel_name].to_bytes())
        print(f"ompicc: generated sources written to {out}/", file=sys.stderr)

    how = ("  [from disk cache]" if cache.disk is not None and cache.disk_hits
           else "  [from memory cache]" if cache.hits else "")
    print(f"ompicc: compiled {len(program.plans)} kernel(s): "
          + ", ".join(f"{p.kernel_name} [{p.mode}]" for p in program.plans)
          + how, file=sys.stderr)
    if args.cache_stats:
        _print_cache_stats(cache)
    if args.no_run:
        return 0

    cache = JitCache(args.cache) if args.cache else None
    run = program.run(device=DEVICES[args.device] if args.device else None,
                      jit_cache=cache)
    sys.stdout.write(run.stdout)
    if args.time:
        print("--- modelled events ---", file=sys.stderr)
        for event in run.log.events:
            print(f"  {event.kind:16s} {event.seconds * 1e6:10.1f} us  "
                  f"{event.kernel or ''} {event.detail}", file=sys.stderr)
        print(f"  measured (kernel + memory ops): "
              f"{run.measured_time * 1e3:.3f} ms", file=sys.stderr)
    stats = run.ort.fault_stats
    if stats:
        print("ompicc: fault/recovery events: "
              + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())),
              file=sys.stderr)
    if run.profile is not None:
        from repro.prof.report import summary
        print(summary(run.profile,
                      compile_cache=cache if args.cache_stats else None),
              file=sys.stderr)
        if isinstance(args.profile, str):
            print(f"ompicc: chrome trace written to {args.profile}",
                  file=sys.stderr)
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
