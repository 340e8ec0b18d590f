"""Static flop bound and the safety predicate.

The workload of a term counts numeric operations outside any bang plus
the numerals an erasing abstraction may discard; on safe closed terms it
bounds the number of numeric steps of any maximal safe reduction.
"""

from __future__ import annotations

from linlog.lll.lets import bind, unbind
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, PBang, PlusDot, PrimFn, PVar, Term,
    TensorPair, TimesDot, TopVal, UnitVal, Var, WithPair, Zero, children,
    free_vars, pattern_var_types,
)
from linlog.lll.types import Bang, LType, is_ground, workload_type


def workload_term(m: Term) -> int:
    return _workload_fv(m)[0]


def _workload_fv(m: Term) -> tuple[int, set[str]]:
    """Workload and free variables of `m` in one bottom-up pass.  The set
    is new and owned by the caller; a pair merges its smaller set into its
    larger one.  It leaves the `free_vars` cache alone: this pass visits
    every node of a large term once, and caching a set on each would cost
    more memory than it saves.  It needs no Python recursion: the nodes
    are listed in pre-order from an explicit stack, then folded in the
    reverse order, which puts every child before its parent.  Both loops
    dispatch on the class, not with `match`, whose class patterns cost
    several times more per node."""
    order: list[Term] = []
    todo = [m]
    while todo:
        t = todo.pop()
        order.append(t)
        cls = t.__class__
        if cls is App:
            todo.append(t.arg)
            todo.append(t.fn)
        elif cls is TensorPair or cls is WithPair:
            todo.append(t.right)
            todo.append(t.left)
        elif cls is Abs:
            todo.append(t.body)
        elif cls is BangVal:
            todo.append(t.inner)
    done: list[tuple[int, set[str]]] = []  # the last child folded is on top
    for t in reversed(order):
        cls = t.__class__
        if cls is Var:
            done.append((0, {t.name}))
        elif cls is App or cls is TensorPair or cls is WithPair:
            wf, left = done.pop()
            wa, right = done.pop()
            if len(left) < len(right):
                left, right = right, left
            left |= right
            done.append((wf + wa, left))
        elif cls is Abs:
            w, fv = done.pop()
            p = t.pat
            pc = p.__class__
            if pc is PVar or pc is PBang:  # one leaf: no pattern walk
                if p.name in fv:
                    fv.remove(p.name)
                elif pc is PVar:  # an unused !x discards no workload
                    w += workload_type(p.ty)
            else:
                for x, ty in pattern_var_types(p).items():
                    if x in fv:
                        fv.remove(x)
                    else:
                        w += workload_type(ty)
            done.append((w, fv))
        elif cls is BangVal:
            done.append((0, done.pop()[1]))
        elif cls is PrimFn or cls is PlusDot or cls is TimesDot:
            done.append((1, set()))
        elif cls is UnitVal or cls is TopVal or cls is Numeral or cls is Zero:
            done.append((0, set()))
        else:
            raise AssertionError(t)
    return done.pop()


def is_safe(m: Term, var_types: dict[str, LType] | None = None) -> bool:
    """Definition-of-safety check: no workload under a bang, and additive
    pairs share only ground variables.  `var_types` gives the resource
    types of the term's free variables (needed for the ground test).  The
    walk uses an explicit stack and one type dictionary: a binder adds its
    variables, and the saved entries pushed beneath its body restore them."""
    types = dict(var_types or {})
    todo: list = [m]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is list:
            unbind(types, t)
        elif cls is BangVal:
            if workload_term(t.inner):
                return False
            todo.append(t.inner)
        elif cls is WithPair:
            for x in free_vars(t.left) & free_vars(t.right):
                ty = types.get(x)
                if ty is None or not is_ground(ty):
                    return False
            todo += (t.right, t.left)
        elif cls is Abs:
            p = t.pat
            pc = p.__class__
            if pc is PVar:  # one leaf: no pattern walk
                leaves = {p.name: p.ty}
            elif pc is PBang:
                leaves = {p.name: Bang(p.ty)}
            else:
                leaves = pattern_var_types(p)
            todo.append(bind(types, leaves))
            todo.append(t.body)
        elif cls is App or cls is TensorPair:
            todo += children(t)
    return True
