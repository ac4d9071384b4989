"""The master-regex lexer against the character-at-a-time reference.

``tests/reference_lexer.py`` is the scanner ``repro.cfront.lexer``
replaced.  On every input both must give the same
``(kind, text, value, loc)`` stream, or fail with the same error message
at the same location: random token soups (valid and malformed), every
suite source with its generated host and kernel files, and every pragma
payload in them, lexed the way the pragma parser lexes it.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.hostinit import HOST_WORKLOADS
from repro.bench.suite import ALL_APPS, EXTENDED_APP_NAMES, get_app
from repro.cfront.lexer import Lexer
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, TokenKind
from repro.ompi import OmpiCompiler, OmpiConfig
from tests.reference_lexer import ReferenceLexer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_reductions  # noqa: E402


def stream(lexer_cls, source: str, filename: str = "<memory>"):
    """The token stream as tuples, or the error the lexer raised."""
    try:
        return [(t.kind, t.text, t.value, t.loc)
                for t in lexer_cls(source, filename).tokens()]
    except Exception as exc:  # LexError, or chr() on a huge \x escape
        return (type(exc), str(exc), getattr(exc, "loc", None))


def assert_same(source: str, filename: str = "<memory>") -> None:
    assert stream(Lexer, source, filename) == \
        stream(ReferenceLexer, source, filename), repr(source)


# -- hand-picked malformed and edge inputs -------------------------------------

EDGE_CASES = [
    "", " ", "\n", "\r\n", "\t\tx", "a\r\nb", "\f", "x\vy",
    # comments
    "/* never closed", "a /* b */ c", "/*/", "/**/", "/* a\nb */ c",
    "// tail", "a // b\nc", "/", "a/b", "a/=b",
    # strings and chars
    '"abc', '"abc\n"', '"a\\"b"', '"\\x41g"', '"\\x"', '"\\q"', '"\\',
    '"\\\n"', "'a'", "'\\n'", "'ab'", "'", "'\\", "''", "'''", "'\n'",
    "'\\x41'", "'\\x'", "'\\z'", '"\\x110000"', "'\\xFFFFFFFFFF'",
    # numbers
    "0", "00", "0x", "0xg", "0X1F", "0x1fz", "0x1Full", "00x1", "1.", ".5",
    "1..2", "1e5", "1e", "1e+", "1e+5", "1.5e-2f", "1.5q", "1.5L", "2f",
    "10uz9", "10u9", "7LLU", "3.f", "1.e5", "9ul", "0x1.5",
    # directives
    "#pragma omp parallel for\nint x;", "  \t#pragma omp barrier",
    "int x; #pragma omp barrier", "x\n#define N 100\n", "#include <stdio.h>\nx",
    "#\nx", "# \t \nx", "#pragmatic", "#pragma omp target \\\n map(to: a)",
    "#pragma omp x \\\r\n y", "#pragma a\\\r", "#pragma a\\\rb\nc",
    "#pragma a /* b */ c\nd", "#pragma a /* b\nc */ d\ne", "#pragma a /* b",
    "x\n#pragma a /* b\ncc", "#pragma a // b \\\nc", "#pragma a\\b",
    "#pragma a/b", "\r#pragma x",
    "/* c */ #pragma x", "/* a\n */#pragma x", "#include", "# pragma omp",
    # punctuators and strays
    "k<<<g, b>>>(x)", "a<<<=b", "a+++b", "x<<=2", "a->b", "...", "..", "$",
    "int $x;", "@", "`", "\\", "é", "x y",
]


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_match_reference(source):
    assert_same(source)


# -- random token soups ----------------------------------------------------------

FRAGMENTS = sorted(KEYWORDS) + list(PUNCTUATORS) + [
    "x", "_y1", "abc", "0", "42", "0x1F", "0x", "7u", "9ul", "10uz9", "1.5",
    "2.5f", ".25", "1e3", "1e", "1.5q", "3.", "2f", "'a'", "'\\n'", "'ab'",
    "'", '"hi\\tthere"', '"abc', '"', "\\x", "/* c */", "/* a\nb */", "/*",
    "// c", "#pragma omp parallel for", "#include <x.h>", "#define N",
    "#", "\\\n", "\\\r\n", "\\", "$", "@", "é",
]
SEPARATORS = ["", " ", "\t", "\n", "\r\n", "  ", "\n  "]

soups = st.lists(st.tuples(st.sampled_from(FRAGMENTS),
                           st.sampled_from(SEPARATORS)),
                 max_size=40).map(lambda parts: "".join(a + b for a, b in parts))


@given(soups)
def test_property_token_soups_match_reference(source):
    assert_same(source)


@given(st.text(alphabet="ab019xXeEfuUlL._+-*/<>=!&|#'\"\\ \t\r\n(){};:,?$",
               max_size=60))
def test_property_character_soups_match_reference(source):
    assert_same(source)


# -- every suite source, its generated code and its pragma payloads --------------


def _suite_sources():
    for name in ALL_APPS + EXTENDED_APP_NAMES:
        app = get_app(name)
        n = min(app.sizes)
        yield f"{name}.c", app.omp_source(n), app.block_shape
        yield f"{name}.cu", app.cuda_source(n), None
    for name, w in HOST_WORKLOADS.items():
        yield f"host_{name}.c", w.source(256), None
    for workload in bench_reductions.WORKLOADS:
        sources = bench_reductions._sources(
            workload, bench_reductions.CHECK_SIZES[workload])[0]
        yield f"{workload}.c", sources["sharded"], None


def test_suite_sources_and_generated_code_match_reference():
    pragmas = set()
    for filename, source, shape in _suite_sources():
        assert_same(source, filename)
        pragmas.update(t.text for t in Lexer(source, filename).tokens()
                       if t.kind is TokenKind.PRAGMA)
        if filename.endswith(".cu"):
            continue
        prog = OmpiCompiler(OmpiConfig(block_shape=shape)).compile(
            source, filename[:-2].replace("-", "_"))
        assert_same(prog.host_source, "host.c")
        for name, text in prog.kernel_sources.items():
            assert_same(text, f"{name}.cu")
    assert pragmas
    for payload in sorted(pragmas):
        assert_same(payload, "<pragma>")
