"""Membership in the four syntactic sorts used by the AD transformations.

The primal sort admits, besides the basic grammar, promoted pairs
!(P, Q) and tensor-pattern lets over a variable, both of which the
encoding of primal tuples produces.  The mixed sort likewise admits
tensor-pattern lets.  Variables are classified by their types: tensor
sequences are primal data, with sequences tangent data, functions
between with sequences tangent maps.
"""

from __future__ import annotations

import enum

from linlog.errors import SortViolation
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, PBang, PTensor, PUnit, PVar, PWith, PlusDot,
    Pattern, PrimFn, TensorPair, Term, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, pattern_type, pattern_var_types,
)
from linlog.lll.types import (
    Bang, LType, Lolli, One, Real, Tensor, is_tensor_seq, is_with_seq,
)


class Sort(enum.Enum):
    LLL_P = "P"
    LLL_T = "t"
    LLL_F = "f"
    LLL_A = "A"
    OTHER = "other"


def _is_tan_fn_type(ty: LType) -> bool:
    return (isinstance(ty, Lolli) and is_with_seq(ty.dom)
            and is_with_seq(ty.cod))


def _tensor_seq_var(name, types) -> bool:
    ty = types.get(name)
    return ty is not None and (
        is_tensor_seq(ty) or (isinstance(ty, Bang) and is_tensor_seq(ty.inner)))


def _is_section_pat(p: Pattern) -> bool:
    return (isinstance(p, PWith) and isinstance(p.left, PUnit)
            and isinstance(p.right, PVar))


def _is_section_val(m: Term) -> bool:
    return isinstance(m, WithPair) and isinstance(m.left, UnitVal)


def _is_tensor_seq_pattern(p: Pattern) -> bool:
    match p:
        case PBang(_, _) | PUnit():
            return True
        case PVar(_, ty):
            return is_tensor_seq(ty)
        case PTensor(l, r):
            return _is_tensor_seq_pattern(l) and _is_tensor_seq_pattern(r)
        case _:
            return False


def _prim_bang_var_args(arg: Term, arity: int, types) -> bool:
    def leaf(t):
        return (isinstance(t, BangVal) and isinstance(t.inner, Var)
                and _tensor_seq_var(t.inner.name, types))

    def go(t, n):
        if n == 1:
            return leaf(t)
        return isinstance(t, TensorPair) and leaf(t.left) and go(t.right, n - 1)

    return go(arg, arity)


def is_primal_sort(m: Term, types: dict[str, LType]) -> bool:
    match m:
        case BangVal(Var(x)):
            return _tensor_seq_var(x, types)
        case BangVal(Numeral(_)) | BangVal(Zero()) | BangVal(UnitVal()):
            return True
        case BangVal(TensorPair(p, q)):
            return is_primal_sort(p, types) and is_primal_sort(q, types)
        case App(PrimFn(f), arg):
            return _prim_bang_var_args(arg, f.arity, types)
        case App(Abs(PBang(x, ty), body), q):
            return (is_primal_sort(q, types)
                    and is_primal_sort(body, types | {x: Bang(ty)}))
        case App(Abs(p, body), Var(z)) if _is_tensor_seq_pattern(p):
            return (_tensor_seq_var(z, types)
                    and is_primal_sort(body, types | pattern_var_types(p)))
        case _:
            return False


def primal_inner_type(p: Term, tys: dict[str, LType]) -> LType:
    """The inner type E of a primal-sort term of type !E; `tys` maps the
    free !-variables to their inner types.  Walks a let chain in a loop,
    binding into one copy of `tys`."""
    tys = dict(tys)
    while True:
        match p:
            case BangVal(Var(x)):
                return tys[x]
            case BangVal(Numeral(_)) | BangVal(Zero()):
                return Real
            case BangVal(UnitVal()):
                return One
            case BangVal(TensorPair(a, b)):
                return Tensor(Bang(primal_inner_type(a, tys)),
                              Bang(primal_inner_type(b, tys)))
            case App(PrimFn(_), _):
                return Real
            case App(Abs(PBang(x, ty), body), _):
                tys[x] = ty
            case App(Abs(pat, body), Var(_)):
                tys.update((n, t.inner if isinstance(t, Bang) else t)
                           for n, t in pattern_var_types(pat).items())
            case _:
                raise SortViolation(f"not a primal-sort term: {p!r}")
        p = body


def is_tangent_sort(m: Term, types: dict[str, LType]) -> bool:
    match m:
        case Var(x):
            ty = types.get(x)
            return ty is not None and is_with_seq(ty)
        case Zero() | TopVal():
            return True
        case WithPair(l, r):
            return is_tangent_sort(l, types) and is_tangent_sort(r, types)
        case App(f, a):
            return is_tanfn_sort(f, types) and is_tangent_sort(a, types)
        case _:
            return False


def is_tanfn_sort(m: Term, types: dict[str, LType]) -> bool:
    match m:
        case Var(f):
            ty = types.get(f)
            return ty is not None and _is_tan_fn_type(ty)
        case PlusDot():
            return True
        case App(TimesDot(), Var(x)):
            return types.get(x) == Real or types.get(x) == Bang(Real)
        case App(TimesDot(), Numeral(_)):
            return True
        case Abs(p, body):
            return (is_with_seq(pattern_type(p))
                    and is_tangent_sort(body, types | pattern_var_types(p)))
        case App(Abs(p, g), val) if _is_section_pat(p) and _is_section_val(val):
            return (is_tanfn_sort(val.right, types)
                    and is_tanfn_sort(g, types | pattern_var_types(p)))
        case _:
            return False


def is_mixed_sort(m: Term, types: dict[str, LType]) -> bool:
    match m:
        case TensorPair(p, s) if _is_section_val(s):
            return is_primal_sort(p, types) and is_tanfn_sort(s.right, types)
        case App(Abs(PTensor(PBang(_, _) as pb, pw), body), s) if _is_section_pat(pw):
            inner = types | pattern_var_types(PTensor(pb, pw))
            return is_mixed_sort(s, types) and is_mixed_sort(body, inner)
        case App(Abs(p, body), val) if _is_section_pat(p) and _is_section_val(val):
            return (is_tanfn_sort(val.right, types)
                    and is_mixed_sort(body, types | pattern_var_types(p)))
        case App(Abs(PBang(x, ty), body), p):
            return (is_primal_sort(p, types)
                    and is_mixed_sort(body, types | {x: Bang(ty)}))
        case App(Abs(p, body), Var(z)) if _is_tensor_seq_pattern(p):
            return (_tensor_seq_var(z, types)
                    and is_mixed_sort(body, types | pattern_var_types(p)))
        case _:
            return False


def classify_sort(m: Term, var_types: dict[str, LType] | None = None) -> Sort:
    types = dict(var_types or {})
    if is_primal_sort(m, types):
        return Sort.LLL_P
    if is_mixed_sort(m, types):
        return Sort.LLL_A
    if is_tanfn_sort(m, types):
        return Sort.LLL_F
    if is_tangent_sort(m, types):
        return Sort.LLL_T
    return Sort.OTHER
