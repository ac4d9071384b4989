"""AST node classes for the C subset.

All nodes derive from :class:`Node`, which provides generic child iteration
(used by the OMPi translator's capture analysis, call-graph discovery and
rewriting passes).  Nodes are plain mutable dataclasses: OMPi transforms the
tree in place, and so do we.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.cfront.ctypes_ import CType
from repro.cfront.errors import SourceLoc

#: the location of a node built by a pass rather than parsed: one shared
#: immutable value, so copies and pickles of a translated tree carry it once
NO_LOC = SourceLoc()


@dataclass
class Node:
    """Base AST node.  Subclasses must place ``loc`` last with a default."""

    def children(self) -> list["Node"]:
        """Direct child nodes in field order (descending into
        lists/tuples)."""
        out = []
        for name in child_slots(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                out += [item for item in value if isinstance(item, Node)]
        return out

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order.  A node's
        children are read when the walk resumes after yielding it."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            kids = node.children()
            kids.reverse()
            stack += kids


_CHILD_SLOTS: dict[type, tuple[str, ...]] = {}


def child_slots(cls: type) -> tuple[str, ...]:
    """Names of the fields of node class ``cls`` that can hold child nodes:
    those whose annotation names a Node class.  Built once per class."""
    slots = _CHILD_SLOTS.get(cls)
    if slots is None:
        slots = _CHILD_SLOTS[cls] = tuple(
            f.name for f in dataclasses.fields(cls)
            if any(map(_names_node, re.findall(r"\w+", f.type))))
    return slots


def _names_node(word: str) -> bool:
    t = globals().get(word)
    return isinstance(t, type) and issubclass(t, Node)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int
    loc: SourceLoc = NO_LOC


@dataclass
class FloatLit(Expr):
    value: float
    #: True when the literal carried an 'f' suffix (single precision).
    single: bool = False
    loc: SourceLoc = NO_LOC


@dataclass
class CharLit(Expr):
    value: int
    loc: SourceLoc = NO_LOC


@dataclass
class StringLit(Expr):
    value: str
    loc: SourceLoc = NO_LOC


@dataclass
class Ident(Expr):
    name: str
    loc: SourceLoc = NO_LOC


#: Unary operator spellings.  ``p++``/``p--`` are post forms.
UNARY_OPS = ("-", "+", "!", "~", "*", "&", "++", "--", "p++", "p--")


@dataclass
class Unary(Expr):
    op: str
    operand: Expr = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class Binary(Expr):
    op: str
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class Assign(Expr):
    """``target op= value``; ``op`` is None for plain assignment."""

    target: Expr
    value: Expr = None  # type: ignore[assignment]
    op: Optional[str] = None
    loc: SourceLoc = NO_LOC


@dataclass
class Cond(Expr):
    """Ternary ``cond ? then : other``."""

    cond: Expr
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class Comma(Expr):
    parts: list[Expr] = field(default_factory=list)
    loc: SourceLoc = NO_LOC


@dataclass
class Call(Expr):
    func: Expr
    args: list[Expr] = field(default_factory=list)
    loc: SourceLoc = NO_LOC


@dataclass
class CudaKernelCall(Expr):
    """CUDA triple-chevron launch: ``func<<<grid, block[, shmem]>>>(args)``."""

    func: Expr
    grid: Expr = None  # type: ignore[assignment]
    block: Expr = None  # type: ignore[assignment]
    shmem: Optional[Expr] = None
    args: list[Expr] = field(default_factory=list)
    loc: SourceLoc = NO_LOC


@dataclass
class Index(Expr):
    base: Expr
    index: Expr = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class Member(Expr):
    """``base.name`` (arrow=False) or ``base->name`` (arrow=True)."""

    base: Expr
    name: str = ""
    arrow: bool = False
    loc: SourceLoc = NO_LOC


@dataclass
class Cast(Expr):
    type: CType
    operand: Expr = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class SizeofExpr(Expr):
    operand: Expr
    loc: SourceLoc = NO_LOC


@dataclass
class SizeofType(Expr):
    type: CType
    loc: SourceLoc = NO_LOC


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr]
    loc: SourceLoc = NO_LOC


@dataclass
class VarDecl(Node):
    """A single declarator within a declaration."""

    name: str
    type: CType = None  # type: ignore[assignment]
    init: Optional[Expr] = None
    storage: Optional[str] = None          # 'static' | 'extern' | None
    quals: tuple[str, ...] = ()            # e.g. ('__shared__',), ('const',)
    loc: SourceLoc = NO_LOC


@dataclass
class DeclStmt(Stmt):
    decls: list[VarDecl] = field(default_factory=list)
    loc: SourceLoc = NO_LOC


@dataclass
class Compound(Stmt):
    body: list[Stmt] = field(default_factory=list)
    loc: SourceLoc = NO_LOC


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None
    loc: SourceLoc = NO_LOC


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class For(Stmt):
    init: Optional[Stmt]                   # ExprStmt or DeclStmt or None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    loc: SourceLoc = NO_LOC


@dataclass
class Break(Stmt):
    loc: SourceLoc = NO_LOC


@dataclass
class Continue(Stmt):
    loc: SourceLoc = NO_LOC


@dataclass
class PragmaStmt(Stmt):
    """A statement-level ``#pragma`` with, for block-associated pragmas, the
    statement it applies to.  The OpenMP layer parses ``text`` into a
    directive and the OMPi translator rewrites these nodes."""

    text: str
    body: Optional[Stmt] = None
    #: Filled by the OpenMP layer: the parsed directive object.
    directive: Any = None
    loc: SourceLoc = NO_LOC


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------

@dataclass
class Param(Node):
    name: str
    type: CType = None  # type: ignore[assignment]
    loc: SourceLoc = NO_LOC


@dataclass
class FuncDef(Node):
    name: str
    return_type: CType = None  # type: ignore[assignment]
    params: list[Param] = field(default_factory=list)
    body: Compound = None  # type: ignore[assignment]
    quals: tuple[str, ...] = ()            # ('__global__',) / ('__device__',) / ('static',)
    loc: SourceLoc = NO_LOC


@dataclass
class FuncProto(Node):
    name: str
    return_type: CType = None  # type: ignore[assignment]
    params: list[Param] = field(default_factory=list)
    quals: tuple[str, ...] = ()
    loc: SourceLoc = NO_LOC


@dataclass
class StructDef(Node):
    name: str
    #: (field name, field type) in declaration order.
    fields_: list[tuple[str, CType]] = field(default_factory=list)
    loc: SourceLoc = NO_LOC


@dataclass
class GlobalDecl(Node):
    decls: list[VarDecl] = field(default_factory=list)
    loc: SourceLoc = NO_LOC


@dataclass
class PragmaDecl(Node):
    """A file-scope pragma (e.g. ``declare target``)."""

    text: str
    directive: Any = None
    loc: SourceLoc = NO_LOC


@dataclass
class TranslationUnit(Node):
    decls: list[Node] = field(default_factory=list)
    filename: str = "<memory>"
    loc: SourceLoc = NO_LOC

    def functions(self) -> list[FuncDef]:
        return [d for d in self.decls if isinstance(d, FuncDef)]
