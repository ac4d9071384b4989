"""The character-at-a-time C lexer, kept as the reference for
:mod:`repro.cfront.lexer`.

``repro.cfront.lexer`` scans with one master regular expression; this is
the scanner it replaced, unchanged apart from this docstring and the
class name.  ``tests/test_lexer_oracle.py`` requires both to produce the
same ``(kind, text, value, loc)`` token streams and the same
``LexError`` messages and locations.
"""

from __future__ import annotations

from repro.cfront.errors import LexError, SourceLoc
from repro.cfront.lexer import Token
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, TokenKind

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


class ReferenceLexer:
    """Single-pass tokenizer.  Call :meth:`tokens` to exhaust the input."""

    def __init__(self, source: str, filename: str = "<memory>"):
        self.src = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1
        self._at_line_start = True

    # -- low-level helpers -------------------------------------------------
    def _loc(self) -> SourceLoc:
        return SourceLoc(self.filename, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def _advance(self, n: int = 1) -> str:
        taken = self.src[self.pos : self.pos + n]
        for ch in taken:
            if ch == "\n":
                self.line += 1
                self.col = 1
                self._at_line_start = True
            else:
                self.col += 1
                if ch not in " \t":
                    self._at_line_start = False
        self.pos += n
        return taken

    # -- whitespace / comments ---------------------------------------------
    def _skip_trivia(self) -> None:
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                loc = self._loc()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.src):
                        raise LexError("unterminated block comment", loc)
                    self._advance()
                self._advance(2)
            else:
                return

    # -- directive lines ----------------------------------------------------
    def _read_directive_line(self) -> str:
        """Consume to end-of-line honouring backslash continuations; return
        the accumulated text (without the leading ``#``)."""
        parts: list[str] = []
        while self.pos < len(self.src):
            ch = self._peek()
            if ch == "\\" and self._peek(1) in ("\n", "\r"):
                self._advance(1)          # backslash
                if self._peek() == "\r":
                    self._advance(1)
                self._advance(1)          # newline — continuation
                parts.append(" ")
            elif ch == "\n":
                break
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
                break
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.src):
                        raise LexError("unterminated comment in directive", self._loc())
                    self._advance()
                self._advance(2)
                parts.append(" ")
            else:
                parts.append(self._advance())
        return "".join(parts)

    def _lex_hash(self, loc: SourceLoc) -> Token | None:
        self._advance()  # '#'
        body = self._read_directive_line().strip()
        if body.startswith("pragma"):
            return Token(TokenKind.PRAGMA, body[len("pragma"):].strip(), loc)
        if body.startswith("include"):
            return None  # headers are builtin; ignore
        if body == "":
            return None  # null directive
        raise LexError(f"unsupported preprocessor directive: #{body.split()[0]}", loc)

    # -- literals ------------------------------------------------------------
    def _lex_number(self, loc: SourceLoc) -> Token:
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if self._peek() not in _HEX_DIGITS:
                raise LexError("malformed hex literal", loc)
            while self._peek() in _HEX_DIGITS:
                self._advance()
            text = self.src[start : self.pos]
            value = int(text, 16)
        else:
            while self._peek() in _DIGITS:
                self._advance()
            if self._peek() == ".":
                is_float = True
                self._advance()
                while self._peek() in _DIGITS:
                    self._advance()
            if self._peek() in ("e", "E") and (
                self._peek(1) in _DIGITS
                or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
            ):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek() in _DIGITS:
                    self._advance()
            text = self.src[start : self.pos]
            value = float(text) if is_float else int(text, 10)
        # suffixes
        suffix_start = self.pos
        while self._peek() in _IDENT_START:
            self._advance()
        suffix = self.src[suffix_start : self.pos].lower()
        if is_float:
            if suffix not in ("", "f", "l"):
                raise LexError(f"bad float suffix {suffix!r}", loc)
            full = self.src[start : self.pos]
            return Token(TokenKind.FLOAT_LIT, full, loc, value)
        if suffix not in ("", "u", "l", "ul", "lu", "ll", "ull", "llu", "f"):
            raise LexError(f"bad integer suffix {suffix!r}", loc)
        full = self.src[start : self.pos]
        if suffix == "f":
            return Token(TokenKind.FLOAT_LIT, full, loc, float(value))
        return Token(TokenKind.INT_LIT, full, loc, value)

    def _lex_escape(self, loc: SourceLoc) -> str:
        self._advance()  # backslash
        ch = self._advance()
        if ch in _SIMPLE_ESCAPES:
            return _SIMPLE_ESCAPES[ch]
        if ch == "x":
            digits = ""
            while self._peek() in _HEX_DIGITS:
                digits += self._advance()
            if not digits:
                raise LexError("\\x with no hex digits", loc)
            return chr(int(digits, 16))
        raise LexError(f"unsupported escape \\{ch}", loc)

    def _lex_char(self, loc: SourceLoc) -> Token:
        self._advance()  # opening quote
        if self._peek() == "\\":
            ch = self._lex_escape(loc)
        else:
            ch = self._advance()
        if self._peek() != "'":
            raise LexError("multi-character char literal", loc)
        self._advance()
        return Token(TokenKind.CHAR_LIT, f"'{ch}'", loc, ord(ch))

    def _lex_string(self, loc: SourceLoc) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.src) or self._peek() == "\n":
                raise LexError("unterminated string literal", loc)
            if self._peek() == '"':
                self._advance()
                break
            if self._peek() == "\\":
                chars.append(self._lex_escape(loc))
            else:
                chars.append(self._advance())
        return Token(TokenKind.STRING_LIT, '"' + "".join(chars) + '"', loc, "".join(chars))

    # -- main loop -------------------------------------------------------------
    def next_token(self) -> Token:
        while True:
            self._skip_trivia()
            loc = self._loc()
            if self.pos >= len(self.src):
                return Token(TokenKind.EOF, "", loc)
            ch = self._peek()
            if ch == "#":
                if not self._at_line_start:
                    raise LexError("'#' must start a line", loc)
                tok = self._lex_hash(loc)
                if tok is not None:
                    return tok
                continue  # skipped directive; keep scanning
            if ch in _IDENT_START:
                start = self.pos
                while self._peek() in _IDENT_CONT:
                    self._advance()
                text = self.src[start : self.pos]
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                return Token(kind, text, loc)
            if ch in _DIGITS or (ch == "." and self._peek(1) in _DIGITS):
                return self._lex_number(loc)
            if ch == "'":
                return self._lex_char(loc)
            if ch == '"':
                return self._lex_string(loc)
            for punct in PUNCTUATORS:
                if self.src.startswith(punct, self.pos):
                    self._advance(len(punct))
                    return Token(TokenKind.PUNCT, punct, loc)
            raise LexError(f"stray character {ch!r}", loc)

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out
