"""The restarting simplifier, kept as the reference for the one-pass
`linlog.lll.reduce.simplify`.

Each round walks the term from the root, pre-order and left to right,
applies the rules of `_simplify_once` at the first node where one fires,
and starts again from the root, until no rule fires.  The !-bound names
of the enclosing binders travel down the walk; an inner binder adds its
own and removes none.
"""

from linlog.lll.reduce import BudgetExhausted, _simplify_once
from linlog.lll.terms import (
    Abs, App, BangVal, PBang, PTensor, PWith, TensorPair, WithPair,
    pattern_vars,
)


def ref_simplify(term, fuel=50_000):
    def walk(m, exp_vars):
        r = _simplify_once(m, exp_vars)
        if r is not None:
            return r
        match m:
            case Abs(p, body):
                inner = exp_vars | {v for v in pattern_vars(p)
                                    if _exp_bound(p, v)}
                b = walk(body, inner)
                return None if b is None else Abs(p, b)
            case App(f, a):
                f2 = walk(f, exp_vars)
                if f2 is not None:
                    return App(f2, a)
                a2 = walk(a, exp_vars)
                return None if a2 is None else App(f, a2)
            case TensorPair(l, r):
                l2 = walk(l, exp_vars)
                if l2 is not None:
                    return TensorPair(l2, r)
                r2 = walk(r, exp_vars)
                return None if r2 is None else TensorPair(l, r2)
            case WithPair(l, r):
                l2 = walk(l, exp_vars)
                if l2 is not None:
                    return WithPair(l2, r)
                r2 = walk(r, exp_vars)
                return None if r2 is None else WithPair(l, r2)
            case BangVal(i):
                i2 = walk(i, exp_vars)
                return None if i2 is None else BangVal(i2)
            case _:
                return None

    for _ in range(fuel):
        r = walk(term, set())
        if r is None:
            return term
        term = r
    raise BudgetExhausted("simplifier did not reach a fixpoint")


def _exp_bound(p, name):
    match p:
        case PBang(n, _):
            return n == name
        case PTensor(l, r) | PWith(l, r):
            return _exp_bound(l, name) or _exp_bound(r, name)
        case _:
            return False
