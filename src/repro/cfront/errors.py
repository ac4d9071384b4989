"""Diagnostics: source locations and frontend error types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceLoc:
    """A position in an input source buffer.

    ``filename`` is whatever name the caller handed to the lexer (benchmarks
    use virtual names like ``"gemm_omp.c"`` since sources live in Python
    strings, exactly like OMPi's in-memory transformation buffers).
    """

    filename: str = "<memory>"
    line: int = 1
    col: int = 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.filename}:{self.line}:{self.col}"

    # immutable: copies share it, and it pickles as a plain tuple
    def __copy__(self) -> "SourceLoc":
        return self

    def __deepcopy__(self, memo) -> "SourceLoc":
        return self

    def __reduce__(self):
        return SourceLoc, (self.filename, self.line, self.col)


class CFrontError(Exception):
    """Base class for all frontend diagnostics."""

    def __init__(self, message: str, loc: SourceLoc | None = None):
        self.loc = loc
        self.message = message
        super().__init__(f"{loc}: {message}" if loc else message)


class LexError(CFrontError):
    """Raised on malformed input at the token level."""


class ParseError(CFrontError):
    """Raised on syntactically invalid input."""


class InterpError(CFrontError):
    """Raised when the host interpreter hits undefined behaviour it detects
    (out-of-bounds access, call to an unknown function, ...)."""
