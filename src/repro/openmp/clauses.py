"""Clause model for OpenMP directives.

Clauses carry parsed C expression ASTs (:mod:`repro.cfront.astnodes`) for
their arguments; the translator evaluates or re-emits them as needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import astnodes as A


class Clause:
    """Base class; ``kind`` is the clause keyword as written."""

    kind: str = ""


@dataclass
class MapItem:
    """One list item of a ``map``/``to``/``from`` clause.

    ``sections`` holds OpenMP array sections as ``(lower, length)`` pairs of
    expression ASTs; either element may be None (``x[:n]``, ``x[0:]``).
    A plain scalar variable has no sections.
    """

    name: str
    sections: list[tuple[Optional[A.Expr], Optional[A.Expr]]] = field(default_factory=list)


#: map types from OpenMP 4.5 used by the paper
MAP_TYPES = ("to", "from", "tofrom", "alloc", "release", "delete")


@dataclass
class MapClause(Clause):
    map_type: str = "tofrom"
    items: list[MapItem] = field(default_factory=list)
    kind: str = "map"


@dataclass
class MotionClause(Clause):
    """``to``/``from`` on ``target update``."""

    direction: str = "to"
    items: list[MapItem] = field(default_factory=list)
    kind: str = "motion"


@dataclass
class ExprClause(Clause):
    """Single-expression clauses: num_teams, num_threads, thread_limit,
    collapse, safelen, ordered(n), priority..."""

    kind: str = ""
    expr: A.Expr = None  # type: ignore[assignment]


@dataclass
class IfClause(Clause):
    expr: A.Expr = None  # type: ignore[assignment]
    modifier: Optional[str] = None      # e.g. 'target', 'parallel'
    kind: str = "if"


@dataclass
class DeviceClause(Clause):
    expr: A.Expr = None  # type: ignore[assignment]
    kind: str = "device"


@dataclass
class DataSharingClause(Clause):
    """private / firstprivate / lastprivate / shared / copyprivate / linear."""

    kind: str = "private"
    names: list[str] = field(default_factory=list)


#: reduction operators supported end-to-end (parser, device tree combine,
#: host fallback, cross-team/cross-device merge).  `-` reduces like `+`
#: per the OpenMP spec.  `&&`/`||` are rejected at parse time: short-
#: circuit semantics have no deterministic tree-combine shape here.
SUPPORTED_REDUCTION_OPS = ("+", "-", "*", "max", "min", "&", "|", "^")


@dataclass
class ReductionClause(Clause):
    op: str = "+"
    names: list[str] = field(default_factory=list)
    kind: str = "reduction"


#: memory-order forms of the atomic construct (OpenMP 4.5 atomic clauses)
ATOMIC_KINDS = ("read", "write", "update", "capture")


@dataclass
class AtomicClause(Clause):
    """The read/write/update/capture form selector on ``atomic``."""

    atomic_kind: str = "update"
    kind: str = "atomic_kind"


@dataclass
class ScheduleClause(Clause):
    schedule: str = "static"            # static | dynamic | guided | auto | runtime
    chunk: Optional[A.Expr] = None
    kind: str = "schedule"


@dataclass
class DistScheduleClause(Clause):
    schedule: str = "static"
    chunk: Optional[A.Expr] = None
    kind: str = "dist_schedule"


@dataclass
class DefaultClause(Clause):
    mode: str = "shared"                # shared | none
    kind: str = "default"


@dataclass
class NowaitClause(Clause):
    kind: str = "nowait"


#: dependence types accepted on depend() (OpenMP 4.5 task dependences)
DEPEND_TYPES = ("in", "out", "inout")


@dataclass
class DependClause(Clause):
    """``depend(in|out|inout: list)`` on deferrable constructs.

    ``dep_type`` is kept as written so the validator can reject unknown
    dependence types with a diagnostic naming the offender; items reuse
    :class:`MapItem` so array-sectioned dependences (``depend(out:
    A[0:n])``) parse like map list items."""

    dep_type: str = "inout"
    items: list[MapItem] = field(default_factory=list)
    kind: str = "depend"


@dataclass
class NameClause(Clause):
    """The optional name of a ``critical`` region."""

    name: str = ""
    kind: str = "name"


@dataclass
class ProcBindClause(Clause):
    mode: str = "close"
    kind: str = "proc_bind"
