"""Runtime values: nested tuples of doubles."""

from __future__ import annotations

from dataclasses import dataclass

from linlog.errors import LinlogError
from linlog.linear_a.expr import JaxType, JOne, JProd, JReal


class ShapeMismatch(LinlogError):
    pass


class NumTuple:
    __slots__ = ()

    def __repr__(self):
        match self:
            case Scalar(v):
                return f"{v:g}"
            case _UnitTup():
                return "()"
            case NPair(l, r):
                return f"({l!r}, {r!r})"
        raise AssertionError


@dataclass(frozen=True, repr=False)
class Scalar(NumTuple):
    value: float


@dataclass(frozen=True, repr=False)
class _UnitTup(NumTuple):
    pass


@dataclass(frozen=True, repr=False)
class NPair(NumTuple):
    left: NumTuple
    right: NumTuple


UnitTup = _UnitTup()


def zero_of(t: JaxType) -> NumTuple:
    match t:
        case x if x is JReal:
            return Scalar(0.0)
        case x if x is JOne:
            return UnitTup
        case JProd(l, r):
            return NPair(zero_of(l), zero_of(r))
    raise AssertionError(t)


def nt_add(a: NumTuple, b: NumTuple) -> NumTuple:
    match a, b:
        case (Scalar(x), Scalar(y)):
            return Scalar(x + y)
        case (_UnitTup(), _UnitTup()):
            return UnitTup
        case (NPair(l1, r1), NPair(l2, r2)):
            return NPair(nt_add(l1, l2), nt_add(r1, r2))
    raise ShapeMismatch(f"add on {a!r} / {b!r}")


def nt_scale(s: float, a: NumTuple) -> NumTuple:
    match a:
        case Scalar(x):
            return Scalar(s * x)
        case _UnitTup():
            return UnitTup
        case NPair(l, r):
            return NPair(nt_scale(s, l), nt_scale(s, r))
    raise AssertionError(a)


def flatten(a: NumTuple) -> list[float]:
    match a:
        case Scalar(x):
            return [x]
        case _UnitTup():
            return []
        case NPair(l, r):
            return flatten(l) + flatten(r)
    raise AssertionError(a)

