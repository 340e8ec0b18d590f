"""Type grammar of the linear calculus.

    A, B ::= R | 1 | T | A (x) B | A & B | A -o B | !A

Two sub-grammars matter for AD: tensor sequences ``D ::= R | 1 | !D (x) !E``
carry primal data, with sequences ``L ::= R | T | L & H`` carry tangent
data.  The affine modality is a derived form: par(A) = 1 & A.
"""

from __future__ import annotations

from dataclasses import dataclass


class LType:
    __slots__ = ()

    def __repr__(self):
        return type_str(self)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class _Real(LType):
    pass


@dataclass(repr=False, slots=True, unsafe_hash=True)
class _One(LType):
    pass


@dataclass(repr=False, slots=True, unsafe_hash=True)
class _Top(LType):
    pass


@dataclass(repr=False, slots=True, unsafe_hash=True)
class Tensor(LType):
    left: LType
    right: LType


@dataclass(repr=False, slots=True, unsafe_hash=True)
class With(LType):
    left: LType
    right: LType


@dataclass(repr=False, slots=True, unsafe_hash=True)
class Lolli(LType):
    dom: LType
    cod: LType


@dataclass(repr=False, slots=True, unsafe_hash=True)
class Bang(LType):
    inner: LType


Real = _Real()
One = _One()
Top = _Top()


def affine(a: LType) -> LType:
    """The derived modality: an affine resource is 1 & A."""
    return With(One, a)


def is_tensor_seq(a: LType) -> bool:
    match a:
        case _Real() | _One():
            return True
        case Tensor(Bang(l), Bang(r)):
            return is_tensor_seq(l) and is_tensor_seq(r)
        case _:
            return False


def is_with_seq(a: LType) -> bool:
    match a:
        case _Real() | _Top():
            return True
        case With(l, r):
            return is_with_seq(l) and is_with_seq(r)
        case _:
            return False


def is_ground(a: LType) -> bool:
    """No arrow anywhere in the type."""
    match a:
        case Lolli(_, _):
            return False
        case Tensor(l, r) | With(l, r):
            return is_ground(l) and is_ground(r)
        case Bang(i):
            return is_ground(i)
        case _:
            return True


def workload_type(a: LType) -> int:
    """Occurrences of R not under a bang."""
    match a:
        case _Real():
            return 1
        case Tensor(l, r) | With(l, r) | Lolli(l, r):
            return workload_type(l) + workload_type(r)
        case Bang(_):
            return 0
        case _:
            return 0


def with_tuple_type(components: list[LType]) -> LType:
    """Right-nested n-ary &; empty is T, singleton is the component."""
    if not components:
        return Top
    out = components[-1]
    for c in reversed(components[:-1]):
        out = With(c, out)
    return out


def type_str(a: LType) -> str:
    match a:
        case _Real():
            return "R"
        case _One():
            return "1"
        case _Top():
            return "T"
        case With(l, r) if l is One:
            return f"par({type_str(r)})"
        case Tensor(l, r):
            return f"({type_str(l)} (x) {type_str(r)})"
        case With(l, r):
            return f"({type_str(l)} & {type_str(r)})"
        case Lolli(l, r):
            return f"({type_str(l)} -o {type_str(r)})"
        case Bang(i):
            return f"!{type_str(i)}"
    raise AssertionError(a)
