"""Tokenizer for the C subset used throughout the reproduction.

Design notes
------------
* Sources are Python strings (OMPi-style in-memory buffers); there is no
  preprocessor.  ``#include`` lines are skipped (headers are provided as
  builtin declarations by :mod:`repro.cfront.builtins`), ``#pragma`` lines
  become :class:`Token` objects of kind :data:`TokenKind.PRAGMA` whose text
  is the pragma payload (continuation backslashes folded, comments
  stripped), and any other ``#`` directive is a :class:`LexError`.
* The CUDA kernel-launch punctuators ``<<<`` / ``>>>`` are lexed as single
  tokens.  Valid C never juxtaposes three of those characters, so this is
  safe for plain C input too, mirroring what nvcc's frontend does.
* Scanning is one master regular expression matched at the current
  position; only ``#`` directives and char/string literals (rare, and
  the only places with escapes or line continuations) are finished by
  hand.  Locations count every character, tabs included, as one column.
  ``tests/reference_lexer.py`` keeps the character-at-a-time scanner
  this replaced, and ``tests/test_lexer_oracle.py`` holds the two to the
  same tokens, locations and errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.cfront.errors import LexError, SourceLoc
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}

#: one alternative per lexical class, tried in order at the scan position;
#: ``num`` only recognises a number's start, ``ucom`` an unterminated
#: ``/*``, and ``char`` takes one character the scan loop finishes by hand
#: ('#', a quote, or a stray character)
_MASTER = re.compile("|".join((
    r"(?P<trivia>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<num>(?=\.?[0-9]))",
    r"(?P<ucom>/\*)",
    "(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")",
    r"(?P<char>.)",
)), re.S)

_NUMBER = re.compile(
    r"0[xX](?P<hex>[0-9a-fA-F]*)(?P<hsuf>[A-Za-z_]*)"
    r"|(?P<dec>[0-9]*(?P<frac>\.[0-9]*)?(?P<exp>[eE][+-]?[0-9]+)?)"
    r"(?P<suf>[A-Za-z_]*)")
_INT_SUFFIXES = frozenset(("", "u", "l", "ul", "lu", "ll", "ull", "llu", "f"))
_FLOAT_SUFFIXES = frozenset(("", "f", "l"))

#: a directive line's pieces: a backslash continuation, a comment, or text
_DIRECTIVE = re.compile(
    r"(?P<cont>\\(?:\n|\r.?))|(?P<lcom>//[^\n]*)|(?P<bcom>/\*.*?\*/)"
    r"|(?P<ucom>/\*)|(?P<text>[^\\\n/]+|[\\/])", re.S)

_HEX_RUN = re.compile(r"[0-9a-fA-F]*")
_STRING_RUN = re.compile(r'[^"\\\n]*')


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    loc: SourceLoc
    value: object | None = None  # decoded literal value where applicable

    def is_punct(self, spelling: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == spelling

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.value}, {self.text!r} @ {self.loc})"


class Lexer:
    """Single-pass tokenizer.  Call :meth:`tokens` to exhaust the input."""

    def __init__(self, source: str, filename: str = "<memory>"):
        self.src = source
        self.filename = filename

    def _scan(self) -> Iterator[Token]:
        src, filename = self.src, self.filename
        n = len(src)
        match = _MASTER.match
        keywords = KEYWORDS
        IDENT, KEYWORD, PUNCT = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
        pos = line_start = 0
        line = 1
        while pos < n:
            m = match(src, pos)
            kind = m.lastgroup
            end = m.end()
            if kind == "trivia":
                newlines = src.count("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = src.rindex("\n", pos, end) + 1
                pos = end
                continue
            loc = SourceLoc(filename, line, pos - line_start + 1)
            if kind == "ident":
                text = m.group()
                yield Token(KEYWORD if text in keywords else IDENT, text, loc)
            elif kind == "punct":
                yield Token(PUNCT, m.group(), loc)
            elif kind == "num":
                tok, end = self._number(pos, loc)
                yield tok
            elif kind == "ucom":
                raise LexError("unterminated block comment", loc)
            else:
                ch = m.group()
                if ch == "#":
                    if src[line_start:pos].strip(" \t"):
                        raise LexError("'#' must start a line", loc)
                    tok, end = self._directive(pos, loc)
                elif ch == "'":
                    tok, end = self._char(pos, loc)
                elif ch == '"':
                    tok, end = self._string(pos, loc)
                else:
                    raise LexError(f"stray character {ch!r}", loc)
                # a continued directive or a raw newline quoted as a char
                # spans lines
                newlines = src.count("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = src.rindex("\n", pos, end) + 1
                if tok is not None:
                    yield tok
            pos = end
        yield Token(TokenKind.EOF, "", SourceLoc(filename, line,
                                                 pos - line_start + 1))

    # -- directive lines ----------------------------------------------------
    def _directive(self, pos: int, loc: SourceLoc) -> tuple[Token | None, int]:
        """The ``#`` line at ``pos``, continuations folded and comments
        blanked: a PRAGMA token, or None for a skipped directive."""
        src = self.src
        parts: list[str] = []
        i = pos + 1
        match = _DIRECTIVE.match
        while (m := match(src, i)) is not None:   # stops at a newline
            kind = m.lastgroup
            i = m.end()
            if kind == "text":
                parts.append(m.group())
            elif kind == "lcom":
                break
            elif kind == "ucom":   # reported where the input ends
                raise LexError("unterminated comment in directive", SourceLoc(
                    self.filename, src.count("\n") + 1,
                    len(src) - src.rfind("\n")))
            else:
                parts.append(" ")
        body = "".join(parts).strip()
        if body.startswith("pragma"):
            return Token(TokenKind.PRAGMA, body[len("pragma"):].strip(), loc), i
        if body.startswith("include") or body == "":
            return None, i  # headers are builtin; null directive
        raise LexError(f"unsupported preprocessor directive: #{body.split()[0]}", loc)

    # -- literals ------------------------------------------------------------
    def _number(self, pos: int, loc: SourceLoc) -> tuple[Token, int]:
        m = _NUMBER.match(self.src, pos)
        full = m.group()
        if m.group("dec") is None:
            digits = m.group("hex")
            if not digits:
                raise LexError("malformed hex literal", loc)
            value: int | float = int(digits, 16)
            suffix = m.group("hsuf").lower()
        else:
            suffix = m.group("suf").lower()
            if m.group("frac") is not None or m.group("exp") is not None:
                if suffix not in _FLOAT_SUFFIXES:
                    raise LexError(f"bad float suffix {suffix!r}", loc)
                return Token(TokenKind.FLOAT_LIT, full, loc,
                             float(m.group("dec"))), m.end()
            value = int(m.group("dec"), 10)
        if suffix not in _INT_SUFFIXES:
            raise LexError(f"bad integer suffix {suffix!r}", loc)
        if suffix == "f":
            return Token(TokenKind.FLOAT_LIT, full, loc, float(value)), m.end()
        return Token(TokenKind.INT_LIT, full, loc, value), m.end()

    def _escape(self, pos: int, loc: SourceLoc) -> tuple[str, int]:
        """Decode the escape whose backslash is at ``pos``."""
        ch = self.src[pos + 1 : pos + 2]
        if ch in _SIMPLE_ESCAPES:
            return _SIMPLE_ESCAPES[ch], pos + 2
        if ch == "x":
            digits = _HEX_RUN.match(self.src, pos + 2).group()
            if not digits:
                raise LexError("\\x with no hex digits", loc)
            return chr(int(digits, 16)), pos + 2 + len(digits)
        raise LexError(f"unsupported escape \\{ch}", loc)

    def _char(self, pos: int, loc: SourceLoc) -> tuple[Token, int]:
        src = self.src
        i = pos + 1
        if src[i : i + 1] == "\\":
            ch, i = self._escape(i, loc)
        else:
            ch = src[i : i + 1]
            i += 1
        if src[i : i + 1] != "'":
            raise LexError("multi-character char literal", loc)
        return Token(TokenKind.CHAR_LIT, f"'{ch}'", loc, ord(ch)), i + 1

    def _string(self, pos: int, loc: SourceLoc) -> tuple[Token, int]:
        src = self.src
        chars: list[str] = []
        i = pos + 1
        while True:
            run = _STRING_RUN.match(src, i).group()
            chars.append(run)
            i += len(run)
            ch = src[i : i + 1]
            if ch == '"':
                break
            if ch != "\\":     # end of input or a newline
                raise LexError("unterminated string literal", loc)
            text, i = self._escape(i, loc)
            chars.append(text)
        value = "".join(chars)
        return Token(TokenKind.STRING_LIT, '"' + value + '"', loc, value), i + 1

    def tokens(self) -> list[Token]:
        return list(self._scan())


def tokenize(source: str, filename: str = "<memory>") -> list[Token]:
    """Tokenize ``source`` fully (including the trailing EOF token)."""
    return Lexer(source, filename).tokens()
