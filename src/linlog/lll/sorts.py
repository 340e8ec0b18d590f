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
from linlog.lll.lets import LetKind, bind, let_kind, spine, unbind
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, PBang, PTensor, PUnit, PVar, PlusDot, Pattern,
    PrimFn, TensorPair, Term, TimesDot, TopVal, UnitVal, Var, WithPair, Zero,
    pattern_type, pattern_var_types, prim_args,
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


def primal_inner_type(p: Term, tys: dict[str, LType]) -> LType:
    """The inner type E of a primal-sort term of type !E; `tys` maps the
    free !-variables to their inner types.  Walks a let chain in a loop,
    binding into one copy of `tys`."""
    tys = dict(tys)
    frames, p = spine(p)
    for pat, rhs in frames:
        if let_kind(pat, rhs) not in (LetKind.BANG, LetKind.TENSOR):
            raise SortViolation(f"not a primal-sort let: {pat!r} = {rhs!r}")
        tys.update((n, t.inner if isinstance(t, Bang) else t)
                   for n, t in pattern_var_types(pat).items())
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
    raise SortViolation(f"not a primal-sort term: {p!r}")


# the lets each sort admits (the tangent sort reads a let as an
# application), and the sort of each let's right-hand side
_LETS = {Sort.LLL_P: (LetKind.BANG, LetKind.TENSOR), Sort.LLL_A: tuple(LetKind),
         Sort.LLL_F: (LetKind.SECTION,)}
_RHS_SORT = {LetKind.BANG_SECTION: Sort.LLL_A, LetKind.SECTION: Sort.LLL_F,
             LetKind.BANG: Sort.LLL_P}


def _tail(sort: Sort, m: Term, types, todo) -> bool:
    """Whether `m`, no let unless of the tangent sort, passes the checks of
    `sort` on its root; pushes the tasks for its parts."""
    P, T, F = Sort.LLL_P, Sort.LLL_T, Sort.LLL_F
    match sort, m:
        case Sort.LLL_P, BangVal(Var(x)):
            return _tensor_seq_var(x, types)
        case Sort.LLL_P, BangVal(Numeral() | Zero() | UnitVal()):
            return True
        case Sort.LLL_P, BangVal(TensorPair(p, q)):
            todo += ((P, p), (P, q))
        case Sort.LLL_P, App(PrimFn(f), arg):
            args = prim_args(arg, f.arity)
            return args is not None and all(
                isinstance(a.inner, Var)
                and _tensor_seq_var(a.inner.name, types) for a in args)
        case Sort.LLL_T, Var(x):
            return (ty := types.get(x)) is not None and is_with_seq(ty)
        case Sort.LLL_T, Zero() | TopVal():
            return True
        case Sort.LLL_T, WithPair(l, r):
            todo += ((T, l), (T, r))
        case Sort.LLL_T, App(f, a):
            todo += ((F, f), (T, a))
        case Sort.LLL_F, Var(f):
            return (ty := types.get(f)) is not None and _is_tan_fn_type(ty)
        case Sort.LLL_F, PlusDot() | App(TimesDot(), Numeral()):
            return True
        case Sort.LLL_F, App(TimesDot(), Var(x)):
            return types.get(x) == Real or types.get(x) == Bang(Real)
        case Sort.LLL_F, Abs(p, body) if is_with_seq(pattern_type(p)):
            todo.append(bind(types, pattern_var_types(p)))
            todo.append((T, body))
        case Sort.LLL_A, TensorPair(p, WithPair(UnitVal(), f)):
            todo += ((P, p), (F, f))
        case _:
            return False
    return True


def in_sort(sort: Sort, m: Term, types: dict[str, LType]) -> bool:
    """Whether `m` is of `sort` (not OTHER); `types` gives the types of its
    free variables.  One walk over an explicit stack of (sort, term) tasks
    and one type dictionary: entering a binder adds its variables and
    pushes, beneath the tasks of its scope, the saved entries that restore
    them.  A spine's lets are entered in order, and each right-hand side's
    task lies beneath its own let's entries, so it sees the lets before."""
    types = dict(types)
    todo: list = [(sort, m)]
    while todo:
        task = todo.pop()
        if task.__class__ is list:
            unbind(types, task)
            continue
        sort, t = task
        frames, t = ([], t) if sort is Sort.LLL_T else spine(t)
        for pat, rhs in frames:
            kind = let_kind(pat, rhs)
            if kind not in _LETS[sort]:
                return False
            if kind is LetKind.TENSOR:
                if not (_is_tensor_seq_pattern(pat)
                        and _tensor_seq_var(rhs.name, types)):
                    return False
            else:
                todo.append((_RHS_SORT[kind],
                             rhs.right if kind is LetKind.SECTION else rhs))
            todo.append(bind(types, pattern_var_types(pat)))
        if not _tail(sort, t, types, todo):
            return False
    return True


def classify_sort(m: Term, var_types: dict[str, LType] | None = None) -> Sort:
    types = var_types or {}
    for sort in (Sort.LLL_P, Sort.LLL_A, Sort.LLL_F, Sort.LLL_T):
        if in_sort(sort, m, types):
            return sort
    return Sort.OTHER
