"""AST construction and rewriting helpers for the transformation sets."""

from __future__ import annotations

import copy
from typing import Callable, Optional, Sequence

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import CType, LONG


#: the non-child node fields that hold mutable objects: copied, not shared
_MUTABLE_FIELDS = ("directive", "fields_")


def clone(node):
    """Deep copy of an AST subtree.  Every node and child list is new;
    the immutable leaves (types, locations, names, literal values) are
    shared; a pragma's directive and a struct's field list are copied."""
    if isinstance(node, list):
        return [clone(item) for item in node]
    if not isinstance(node, A.Node):
        return copy.deepcopy(node)
    new = object.__new__(type(node))
    fields = new.__dict__
    fields.update(node.__dict__)
    for name in A.child_slots(type(node)):
        value = fields[name]
        if isinstance(value, (A.Node, list)):
            fields[name] = clone(value)
    for name in _MUTABLE_FIELDS:
        if name in fields:
            fields[name] = copy.deepcopy(fields[name])
    return new


def ident(name: str) -> A.Ident:
    return A.Ident(name)


def intlit(value: int) -> A.Expr:
    """An integer literal as the parser builds it from its text: C has no
    negative literals, so ``-1`` is unary minus applied to ``1``."""
    value = int(value)
    if value < 0:
        return A.Unary("-", A.IntLit(-value))
    return A.IntLit(value)


def call(name: str, *args: A.Expr) -> A.Call:
    return A.Call(ident(name), list(args))


def callstmt(name: str, *args: A.Expr) -> A.ExprStmt:
    return A.ExprStmt(call(name, *args))


def assign(target: A.Expr, value: A.Expr, op: Optional[str] = None) -> A.ExprStmt:
    return A.ExprStmt(A.Assign(target, value, op))


def binop(op: str, left: A.Expr, right: A.Expr) -> A.Binary:
    return A.Binary(op, left, right)


def addr_of(expr: A.Expr) -> A.Unary:
    return A.Unary("&", expr)


def deref(expr: A.Expr) -> A.Unary:
    return A.Unary("*", expr)


def cast(ctype: CType, expr: A.Expr) -> A.Cast:
    return A.Cast(ctype, expr)


def decl(name: str, ctype: CType, init: Optional[A.Expr] = None,
         quals: tuple[str, ...] = ()) -> A.DeclStmt:
    return A.DeclStmt([A.VarDecl(name, ctype, init, None, quals)])


def decl_long(name: str, init: Optional[A.Expr] = None) -> A.DeclStmt:
    return decl(name, LONG, init)


def block(*stmts) -> A.Compound:
    flat: list[A.Stmt] = []
    for s in stmts:
        if isinstance(s, (list, tuple)):
            flat.extend(s)
        elif s is not None:
            flat.append(s)
    return A.Compound(flat)


def string(value: str) -> A.StringLit:
    return A.StringLit(value)


def sizeof_expr(expr: A.Expr) -> A.SizeofExpr:
    return A.SizeofExpr(expr)


def sizeof_type(ctype: CType) -> A.SizeofType:
    return A.SizeofType(ctype)


def ceil_div(num: A.Expr, den: A.Expr) -> A.Expr:
    """(num + den - 1) / den as an expression."""
    return binop("/", binop("-", binop("+", num, clone(den)), intlit(1)), clone(den))


def product(exprs: Sequence[A.Expr]) -> A.Expr:
    out = clone(exprs[0])
    for e in exprs[1:]:
        out = binop("*", out, clone(e))
    return out


def rename_idents(node: A.Node, mapping: dict[str, A.Expr]) -> A.Node:
    """Deep-copy ``node`` replacing every Ident whose name is in ``mapping``
    (except call targets and declarations, which carry names, not Idents)."""
    if isinstance(node, A.Ident):
        return clone(mapping.get(node.name, node))
    node = clone(node)
    _rename_in_place(node, mapping)
    return node


def _rename_in_place(node: A.Node, mapping: dict[str, A.Expr]) -> None:
    for name in A.child_slots(type(node)):
        value = getattr(node, name)
        if isinstance(value, A.Ident):
            if value.name in mapping and not (
                isinstance(node, A.Call) and node.func is value
            ):
                setattr(node, name, clone(mapping[value.name]))
        elif isinstance(value, A.Node):
            _rename_in_place(value, mapping)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, A.Ident):
                    if item.name in mapping:
                        value[i] = clone(mapping[item.name])
                elif isinstance(item, A.Node):
                    _rename_in_place(item, mapping)


def map_stmts(stmt: A.Stmt, pragma: Callable[[A.PragmaStmt], A.Stmt],
              expr: Callable[[A.Node], A.Node]) -> A.Stmt:
    """Copy a statement tree, keeping every ``loc``: each PragmaStmt at any
    depth becomes ``pragma(p)``; every expression and leaf statement
    becomes ``expr(x)``.  The one statement walk of the transformers."""
    def stmts(s: Optional[A.Stmt]) -> Optional[A.Stmt]:
        return None if s is None else map_stmts(s, pragma, expr)

    def exprs(x: Optional[A.Node]) -> Optional[A.Node]:
        return None if x is None else expr(x)

    if isinstance(stmt, A.PragmaStmt):
        return pragma(stmt)
    if isinstance(stmt, A.Compound):
        return A.Compound([stmts(s) for s in stmt.body], loc=stmt.loc)
    if isinstance(stmt, A.If):
        return A.If(expr(stmt.cond), stmts(stmt.then), stmts(stmt.other),
                    loc=stmt.loc)
    if isinstance(stmt, A.While):
        return A.While(expr(stmt.cond), stmts(stmt.body), loc=stmt.loc)
    if isinstance(stmt, A.DoWhile):
        return A.DoWhile(stmts(stmt.body), expr(stmt.cond), loc=stmt.loc)
    if isinstance(stmt, A.For):
        return A.For(exprs(stmt.init), exprs(stmt.cond), exprs(stmt.step),
                     stmts(stmt.body), loc=stmt.loc)
    return expr(stmt)


def strip_pragmas(stmt: A.Stmt) -> A.Stmt:
    """Deep copy with every PragmaStmt, ``stmt`` itself included, replaced
    by its body (or dropped): used for sequential host-fallback code."""
    def body(p: A.PragmaStmt) -> A.Stmt:
        return A.ExprStmt(None) if p.body is None else strip_pragmas(p.body)
    return map_stmts(stmt, body, clone)


def written_names(stmt: A.Stmt) -> set[str]:
    """Names of variables assigned/incremented anywhere in ``stmt``."""
    out: set[str] = set()
    for node in stmt.walk():
        target = None
        if isinstance(node, A.Assign):
            target = node.target
        elif isinstance(node, A.Unary) and node.op in ("++", "--", "p++", "p--"):
            target = node.operand
        if isinstance(target, A.Ident):
            out.add(target.name)
    return out
