"""Static flop bound and the safety predicate.

The workload of a term counts numeric operations outside any bang plus
the numerals an erasing abstraction may discard; on safe closed terms it
bounds the number of numeric steps of any maximal safe reduction.
"""

from __future__ import annotations

from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, PlusDot, PrimFn, Term, TensorPair, TimesDot,
    TopVal, UnitVal, Var, WithPair, Zero, free_vars, pattern_var_types,
)
from linlog.lll.types import LType, is_ground, workload_type


def workload_term(m: Term) -> int:
    return _workload_fv(m)[0]


def _workload_fv(m: Term) -> tuple[int, set[str]]:
    """Workload and free variables of `m` in one bottom-up pass.  The set
    is new and owned by the caller; a pair merges its smaller set into its
    larger one.  It leaves the `free_vars` cache alone: this pass visits
    every node of a large term once, and caching a set on each would cost
    more memory than it saves."""
    match m:
        case PrimFn(_) | PlusDot() | TimesDot():
            return 1, set()
        case Var(name):
            return 0, {name}
        case UnitVal() | TopVal() | Numeral(_) | Zero():
            return 0, set()
        case BangVal(i):
            return 0, _workload_fv(i)[1]
        case Abs(p, body):
            w, fv = _workload_fv(body)
            for x, ty in pattern_var_types(p).items():
                if x in fv:
                    fv.remove(x)
                else:
                    w += workload_type(ty)
            return w, fv
        case App(f, a) | TensorPair(f, a) | WithPair(f, a):
            wf, left = _workload_fv(f)
            wa, right = _workload_fv(a)
            if len(left) < len(right):
                left, right = right, left
            left |= right
            return wf + wa, left
    raise AssertionError(m)


def is_safe(m: Term, var_types: dict[str, LType] | None = None) -> bool:
    """Definition-of-safety check: no workload under a bang, and additive
    pairs share only ground variables.  `var_types` gives the resource
    types of the term's free variables (needed for the ground test)."""
    types = dict(var_types or {})

    def go(t, types):
        match t:
            case BangVal(i):
                return workload_term(i) == 0 and go(i, types)
            case WithPair(l, r):
                shared = free_vars(l) & free_vars(r)
                for x in shared:
                    ty = types.get(x)
                    if ty is None or not is_ground(ty):
                        return False
                return go(l, types) and go(r, types)
            case Abs(p, body):
                return go(body, types | pattern_var_types(p))
            case App(f, a) | TensorPair(f, a):
                return go(f, types) and go(a, types)
            case _:
                return True

    return go(m, types)
