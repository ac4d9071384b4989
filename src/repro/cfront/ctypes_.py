"""The C type system (LP64 layout, matching the 64-bit ARM A57 of the
Jetson Nano).

Types are immutable value objects; equality is structural.  Only the
features the reproduction needs are modelled: basic arithmetic types,
pointers, (possibly multi-dimensional) arrays, functions and simple
structs.  ``dim3`` (CUDA's grid/block dimension triple) is provided as a
builtin struct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class CType:
    """Base class for all C types."""

    # immutable: copies of an AST share its types
    def __copy__(self) -> "CType":
        return self

    def __deepcopy__(self, memo) -> "CType":
        return self

    def sizeof(self) -> int:
        raise NotImplementedError

    def alignof(self) -> int:
        return self.sizeof()

    # Convenience predicates -------------------------------------------------
    @property
    def is_arithmetic(self) -> bool:
        return isinstance(self, BasicType) and self.kind != "void"

    @property
    def is_integer(self) -> bool:
        return isinstance(self, BasicType) and self.kind in _INT_KINDS

    @property
    def is_floating(self) -> bool:
        return isinstance(self, BasicType) and self.kind in ("float", "double")

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, BasicType) and self.kind == "void"

    def decay(self) -> "CType":
        """Array-to-pointer decay (identity for non-arrays)."""
        if isinstance(self, ArrayType):
            return PointerType(self.elem)
        return self


_INT_KINDS = ("char", "short", "int", "long")
_SIZES = {"void": 0, "char": 1, "short": 2, "int": 4, "long": 8,
          "float": 4, "double": 8}

#: numpy dtypes backing each basic kind; memory in the simulated device and
#: in the host interpreter is numpy-typed so arithmetic wraps exactly like C.
_DTYPES = {
    ("char", True): np.int8, ("char", False): np.uint8,
    ("short", True): np.int16, ("short", False): np.uint16,
    ("int", True): np.int32, ("int", False): np.uint32,
    ("long", True): np.int64, ("long", False): np.uint64,
    ("float", True): np.float32, ("double", True): np.float64,
}


# precomputed (kind, signed) -> np.dtype: the interpreter fallback path
# resolves a dtype on every scalar load/store, so this lookup is hot — the
# dict probe is inlined at the call site in BasicType.dtype (no wrapper
# frame at all) and the domain is small and closed
_DTYPE_CACHE = {key: np.dtype(value) for key, value in _DTYPES.items()}


_U64 = np.dtype(np.uint64)


@dataclass(frozen=True)
class BasicType(CType):
    kind: str                  # void/char/short/int/long/float/double
    signed: bool = True

    def __post_init__(self):
        if self.kind not in _SIZES:
            raise ValueError(f"unknown basic type kind {self.kind!r}")

    def sizeof(self) -> int:
        return _SIZES[self.kind]

    def dtype(self) -> np.dtype:
        return _DTYPE_CACHE[(self.kind, self.signed or self.is_floating)]

    def __str__(self) -> str:
        prefix = "" if self.signed or self.kind in ("float", "double", "void") else "unsigned "
        return prefix + self.kind


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType

    def sizeof(self) -> int:
        return 8  # LP64

    def dtype(self) -> np.dtype:
        return _U64

    def __str__(self) -> str:
        return f"{self.pointee} *"


@dataclass(frozen=True)
class ArrayType(CType):
    elem: CType
    length: Optional[int] = None   # None: incomplete ('x[]')

    def sizeof(self) -> int:
        if self.length is None:
            raise ValueError("sizeof incomplete array type")
        return self.elem.sizeof() * self.length

    def alignof(self) -> int:
        return self.elem.alignof()

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.elem} [{n}]"


@dataclass(frozen=True)
class FunctionType(CType):
    return_type: CType
    param_types: tuple[CType, ...] = ()
    variadic: bool = False

    def sizeof(self) -> int:
        raise ValueError("sizeof function type")

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types) or "void"
        if self.variadic:
            params += ", ..."
        return f"{self.return_type} (*)({params})"


@dataclass(frozen=True)
class StructType(CType):
    name: str
    #: resolved field list; may be empty for a forward reference that gets
    #: looked up in the parser's struct table.
    fields_: tuple[tuple[str, CType], ...] = field(default=())

    def layout(self) -> tuple[dict[str, int], int, int]:
        """Return ({field: offset}, total size, alignment)."""
        offsets: dict[str, int] = {}
        off = 0
        align = 1
        for fname, ftype in self.fields_:
            a = ftype.alignof()
            align = max(align, a)
            off = (off + a - 1) // a * a
            offsets[fname] = off
            off += ftype.sizeof()
        size = (off + align - 1) // align * align if off else 0
        return offsets, size, align

    def field_type(self, name: str) -> CType:
        for fname, ftype in self.fields_:
            if fname == name:
                return ftype
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def sizeof(self) -> int:
        return self.layout()[1]

    def alignof(self) -> int:
        return self.layout()[2]

    def __str__(self) -> str:
        return f"struct {self.name}"


# Canonical singletons ------------------------------------------------------
VOID = BasicType("void")
CHAR = BasicType("char")
UCHAR = BasicType("char", signed=False)
SHORT = BasicType("short")
INT = BasicType("int")
UINT = BasicType("int", signed=False)
LONG = BasicType("long")
ULONG = BasicType("long", signed=False)
FLOAT = BasicType("float")
DOUBLE = BasicType("double")
VOIDP = PointerType(VOID)
CHARP = PointerType(CHAR)

#: CUDA's dim3: three unsigned ints (x, y, z).
DIM3 = StructType("dim3", (("x", UINT), ("y", UINT), ("z", UINT)))


def usual_arithmetic(a: CType, b: CType) -> CType:
    """C's usual arithmetic conversions, reduced to the subset's ranks."""
    if not (a.is_arithmetic and b.is_arithmetic):
        raise ValueError(f"usual_arithmetic on non-arithmetic {a}, {b}")
    assert isinstance(a, BasicType) and isinstance(b, BasicType)
    if a.kind == "double" or b.kind == "double":
        return DOUBLE
    if a.kind == "float" or b.kind == "float":
        return FLOAT
    rank = {"char": 0, "short": 1, "int": 2, "long": 3}
    ra, rb = max(rank[a.kind], 2), max(rank[b.kind], 2)  # integer promotion
    kind = "long" if max(ra, rb) == 3 else "int"
    wide = a if rank[a.kind] >= rank[b.kind] else b
    signed = a.signed and b.signed if rank[a.kind] == rank[b.kind] else wide.signed
    if kind == "int" and rank[a.kind] < 3 and rank[b.kind] < 3:
        signed = True  # both promoted to plain int
    return BasicType(kind, signed)


def promote(t: CType) -> CType:
    """Integer promotion of small types to int."""
    if isinstance(t, BasicType) and t.kind in ("char", "short"):
        return INT
    return t
