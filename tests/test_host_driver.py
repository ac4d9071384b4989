"""The compiled offload driver: every transformed ``main`` runs on the
host fast path, and runs as the tree walk does.

* generated driver-shaped functions (nested and shadowing blocks,
  ``int``/``long`` declarations that wrap, ``/`` and ``%`` on negative
  values, ``?:``, ``&&``, ``||``, ``if``/``else``, address-taken locals
  passed to a recording native that writes through its pointer, a
  non-nest ``for`` that calls natives, string literals) give the same
  stdout, global bytes, exit code and native-call trace under ``off``,
  ``on`` and ``verify``;
* the serving mix and the six Figure-4 mains run with no function and no
  loop tree-walked under ``on``;
* the profiler record stream of a driver is the same under ``off`` and
  ``on``.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_reductions  # noqa: E402
import bench_serving  # noqa: E402

from repro.bench import harness  # noqa: E402
from repro.bench.suite import get_app  # noqa: E402
from repro.cfront import hostcompile  # noqa: E402
from repro.cfront.hostcompile import HostFastpathVerifyError  # noqa: E402
from repro.cfront.interp import Machine, Ptr  # noqa: E402
from repro.cfront.parser import parse_translation_unit  # noqa: E402
from repro.ompi.compiler import OmpiCompiler  # noqa: E402
from repro.ompi.config import OmpiConfig  # noqa: E402

MODES = ("off", "on", "verify")

#: the six Figure-4 apps at small sizes
FIG4_POINTS = (("3dconv", 16), ("bicg", 32), ("atax", 32), ("mvt", 32),
               ("gemm", 16), ("gramschmidt", 16))
#: loops a compiled ``main`` runs one iteration at a time, with no loop
#: plan: gramschmidt's ``k`` loop of three target regions
UNPLANNED_LOOPS = {"gramschmidt:16": 1}


# ---------------------------------------------------------------------------
# generated driver programs
# ---------------------------------------------------------------------------

def _recording_natives(trace: list) -> dict:
    """``note(tag, v)`` records and returns ``2v + 1``; ``pair(a, b)``
    records both and returns ``a - b``; ``poke(p, v)`` records the
    address and the old value, stores ``3v - 7`` through ``p`` and
    returns the old value."""

    def note(m, args, loc):
        tag, v = args
        trace.append(("note", m.read_cstring(tag), v))
        return 2 * v + 1

    def pair(m, args, loc):
        a, b = args
        trace.append(("pair", a, b))
        return a - b

    def poke(m, args, loc):
        p, v = args
        assert isinstance(p, Ptr)
        old = m.load_value(p.mem, p.addr, p.ctype)
        trace.append(("poke", p.addr, old, v))
        m.store_value(p.mem, p.addr, p.ctype, 3 * v - 7)
        return old

    return {"note": note, "pair": pair, "poke": poke}


class _DriverGen:
    """Draws one ``main`` over globals ``int g; long h; int arr[4];``."""

    LITERALS = (0, 1, 2, 3, 7, 100, 65536, 2147483647)
    DIVISORS = ("3", "-3", "7", "-2", "5")

    def __init__(self, draw):
        self.draw = draw
        self.fresh = itertools.count()
        #: per open scope, ``{name: kind}``
        self.scopes: list[dict] = [{}]
        #: loop variables: read, never written (the loops must end)
        self.loop_vars: set = set()

    def pick(self, options):
        return self.draw(st.sampled_from(list(options)))

    def visible(self) -> list:
        names: dict = {}
        for scope in self.scopes:
            names.update(scope)
        return sorted(names)

    def writable(self) -> list:
        return [n for n in self.visible() if n not in self.loop_vars] \
            + ["g", "h"]

    # -- expressions ----------------------------------------------------------
    def expr(self, depth: int) -> str:
        kinds = ["lit", "var"]
        if depth > 0:
            kinds += ["bin", "div", "cmp", "cond", "and", "or", "not",
                      "neg", "cast", "note", "pair", "poke"]
        kind = self.pick(kinds)
        sub = lambda: self.expr(depth - 1)  # noqa: E731
        if kind == "lit":
            return str(self.pick(self.LITERALS))
        if kind == "var":
            return self.pick(self.visible() + ["g", "h", "arr[1]"])
        if kind == "bin":
            return f"({sub()} {self.pick('+-*')} {sub()})"
        if kind == "div":
            return f"({sub()} {self.pick('/%')} {self.pick(self.DIVISORS)})"
        if kind == "cmp":
            return f"({sub()} {self.pick(['<', '==', '!=', '>='])} {sub()})"
        if kind == "cond":
            return f"({sub()} ? {sub()} : {sub()})"
        if kind in ("and", "or"):
            op = "&&" if kind == "and" else "||"
            return f"({sub()} {op} {sub()})"
        if kind == "not":
            return f"(!{sub()})"
        if kind == "neg":
            return f"(-{sub()})"
        if kind == "cast":
            return f"(({self.pick(['int', 'long'])}) {sub()})"
        if kind == "note":
            return f'note("e{next(self.fresh)}", {sub()})'
        if kind == "pair":
            return f"pair({sub()}, {sub()})"
        return f"poke(&{self.pick(self.writable())}, {sub()})"

    # -- statements -----------------------------------------------------------
    def decl(self) -> str:
        scope = self.scopes[-1]
        outer = [n for n in self.visible() if n not in scope]
        # a new name, or one that shadows a variable of an outer block
        name = self.pick(outer + [f"v{next(self.fresh)}"] * 2)
        kind = self.pick(["int", "long"])
        init = self.expr(2)
        scope[name] = kind
        return f"{kind} {name} = {init};"

    def block(self, depth: int) -> str:
        self.scopes.append({})
        body = [self.decl() for _ in range(self.draw(st.integers(0, 2)))]
        body += [self.stmt(depth - 1)
                 for _ in range(self.draw(st.integers(0, 3)))]
        self.scopes.pop()
        return "{ " + " ".join(body) + " }"

    def stmt(self, depth: int) -> str:
        kinds = ["assign", "note", "poke", "printf", "arr"]
        if depth > 0:
            kinds += ["if", "block", "for"]
        kind = self.pick(kinds)
        if kind == "assign":
            target = self.pick(self.writable())
            op = self.pick(["", "+", "-", "*"])
            return f"{target} {op}= {self.expr(2)};"
        if kind == "note":
            return f'note("s{next(self.fresh)}", {self.expr(2)});'
        if kind == "poke":
            target = self.pick(self.writable())
            return f"poke(&{target}, {self.expr(2)});"
        if kind == "printf":
            return f'printf("%ld\\n", (long) ({self.expr(2)}));'
        if kind == "arr":
            return f"arr[{self.pick('0123')}] = {self.expr(2)};"
        if kind == "if":
            other = f" else {self.block(depth)}" if self.draw(st.booleans()) \
                else ""
            return f"if ({self.expr(2)}) {self.block(depth)}{other}"
        if kind == "block":
            return self.block(depth)
        # a loop that calls a native: not a nest, so it runs one
        # iteration at a time in the compiled main
        var = f"i{next(self.fresh)}"
        self.scopes[-1][var] = "int"
        self.loop_vars.add(var)
        trips = self.draw(st.integers(0, 3))
        self.scopes.append({})
        body = self.stmt(depth - 1)
        self.scopes.pop()
        return (f"int {var}; for ({var} = 0; {var} < {trips}; {var}++) "
                f'{{ note("loop", {var}); {body} }}')

    def program(self) -> str:
        body = [self.decl() for _ in range(self.draw(st.integers(1, 3)))]
        body += [self.stmt(2) for _ in range(self.draw(st.integers(1, 5)))]
        return ("int g; long h; int arr[4];\n"
                "int main(void) {\n    " + "\n    ".join(body)
                + f"\n    return (int) ({self.expr(1)} % 100);\n}}\n")


@st.composite
def driver_programs(draw):
    return _DriverGen(draw).program()


def run_driver(src: str, mode: str):
    """``(stdout, global bytes, exit code, native trace, host stats)``."""
    trace: list = []
    machine = Machine(parse_translation_unit(src, "driver.c"),
                      host_fastpath=mode)
    machine.natives.update(_recording_natives(trace))
    code = machine.run()
    globs = {name: machine.heap.view(b.addr, b.ctype.sizeof(), "u1")
             .tobytes() for name in ("g", "h", "arr")
             for b in [machine.global_binding(name)]}
    return machine.output(), globs, code, trace, machine.host_stats


def check_driver(src: str) -> None:
    runs = {mode: run_driver(src, mode) for mode in MODES}
    ref = runs["off"][:4]
    for mode in ("on", "verify"):
        assert runs[mode][:4] == ref, (mode, src)
        hs = runs[mode][4]
        assert (hs["fn_fast"], hs["fn_fallback"]) == (1, 0), (mode, hs, src)


@settings(max_examples=60)
@given(driver_programs())
def test_generated_drivers_match_tree_walk(src):
    check_driver(src)


#: each pins one way the compiled driver could part from the tree walk
PINNED_DRIVERS = {
    # a native writes an address-taken local: the next read sees it
    "stale-after-call": """
int g; long h; int arr[4];
int main(void) {
    int x = 5;
    poke(&x, 2);
    note("x", x);
    return 0;
}
""",
    # arguments left to right: the poke runs before x is read
    "argument-order": """
int g; long h; int arr[4];
int main(void) {
    int x = 1;
    pair(poke(&x, 4), x);
    return 0;
}
""",
    # every local has its heap slot: &y comes after x's slot
    "slot-per-local": """
int g; long h; int arr[4];
int main(void) {
    long x = 3;
    { int y = 2; poke(&y, x); note("s", y); }
    return x;
}
""",
    # a shadowing local hides and then restores the outer one
    "shadowing": """
int g; long h; int arr[4];
int main(void) {
    int x = 7;
    { long x = -9; poke(&x, 1); h = x; }
    note("x", x / -2 + x % -3);
    return (x > 0 && note("and", x)) || note("or", g);
}
""",
    # int and long declarations wrap at the store
    "wrap": """
int g; long h; int arr[4];
int main(void) {
    int i = 2147483647 * 3;
    long l = 2147483647 * 2147483647 * 5;
    printf("%ld %ld\\n", (long) i, l);
    g = i + 1;
    return 0;
}
""",
}


@pytest.mark.parametrize("name", sorted(PINNED_DRIVERS))
def test_pinned_drivers_match_tree_walk(name):
    check_driver(PINNED_DRIVERS[name])


def test_verify_replay_checks_each_call_argument(monkeypatch):
    """Without the post-call invalidation the compiled driver passes a
    stale ``x``: verify's replay finds call 1's argument differs."""
    monkeypatch.setattr(hostcompile.Frame, "invalidate", lambda self: None)
    with pytest.raises(HostFastpathVerifyError,
                       match=r"call 1: note\(.*\) != recorded note"):
        run_driver(PINNED_DRIVERS["stale-after-call"], "verify")


def test_verify_replay_checks_memory_before_each_call(monkeypatch):
    """A byte the compiled driver changes between two native calls is
    seen at the next call, before it is replayed."""
    real = hostcompile.Frame.invalidate

    def tampered(self):
        real(self)
        b = self.machine.global_binding("h")
        self.machine.heap.buf[b.addr - self.machine.heap.base] ^= 1

    monkeypatch.setattr(hostcompile.Frame, "invalidate", tampered)
    with pytest.raises(HostFastpathVerifyError,
                       match=r"before call 1 \(note\): host: block"):
        run_driver(PINNED_DRIVERS["stale-after-call"], "verify")


# ---------------------------------------------------------------------------
# every driver of the serving mix and of Figure 4 runs compiled
# ---------------------------------------------------------------------------

def _program_runs():
    for p in bench_serving.program_mix():
        yield p.name, p.source, OmpiConfig(), dict(seed_arrays=p.seed_arrays)
    for name, n in FIG4_POINTS:
        app = get_app(name)
        yield (f"{name}:{n}", app.omp_source(n),
               OmpiConfig(block_shape=app.block_shape),
               dict(launch_mode="sample", seed_arrays=app.seed(n),
                    heap_capacity=harness._heap_capacity(app, n)))


@pytest.mark.parametrize("name,source,config,kw",
                         list(_program_runs()),
                         ids=[r[0] for r in _program_runs()])
def test_no_function_or_loop_is_tree_walked(name, source, config, kw):
    run = OmpiCompiler(config).compile(source, name.replace(":", "_")).run(
        host_fastpath="on", faults=False, **kw)
    assert run.exit_code == 0
    hs = run.machine.host_stats
    assert hs["fn_fast"] >= 1
    assert (hs["fn_fallback"], hs["loop_fallback"]) == (0, 0), hs
    assert hs["loop_unplanned"] == UNPLANNED_LOOPS.get(name, 0), hs


# ---------------------------------------------------------------------------
# the profiler sees the same driver in every mode
# ---------------------------------------------------------------------------

def _profiled_runs():
    app = get_app("gramschmidt")
    yield ("gramschmidt:32", app.omp_source(32),
           OmpiConfig(block_shape=app.block_shape),
           dict(launch_mode="sample", seed_arrays=app.seed(32),
                heap_capacity=harness._heap_capacity(app, 32)))
    sources, seed, _arr = bench_reductions._sources("correlation", 16)
    yield ("correlation:16/shard(2)", sources["sharded"],
           OmpiConfig(devices="nano,nano"),
           dict(launch_mode="full", seed_arrays=seed,
                heap_capacity=bench_reductions.HEAP))


@pytest.mark.parametrize("name,source,config,kw", list(_profiled_runs()),
                         ids=[r[0] for r in _profiled_runs()])
def test_profiler_stream_is_the_same_in_every_mode(name, source, config,
                                                   kw):
    prog = OmpiCompiler(config).compile(source, "prof_driver")
    streams = {}
    for mode in ("off", "on"):
        run = prog.run(host_fastpath=mode, profile=True, faults=False, **kw)
        assert run.exit_code == 0
        streams[mode] = [r.identity() for r in run.profile.records()]
    assert streams["off"], name
    assert streams["on"] == streams["off"], name
