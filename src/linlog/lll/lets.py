"""The let grammar of the AD transformations, and scoped environments.

`spine` reads the lets along the body positions of a term,
``let p1 = N1 in ... let pk = Nk in M``, as (pattern, right-hand side)
frames in one loop, so that no stage recurses once per let; `rebuild` is
its inverse and `let_kind` names a frame's kind.  `bind` and `unbind`
extend one environment at a binder and restore it on leaving the
binder's scope, in place of a copy per binder.
"""

from __future__ import annotations

import enum

from linlog.lll.terms import (
    Abs, App, Pattern, PBang, PTensor, PUnit, PVar, PWith, Term, UnitVal, Var,
    WithPair, let_,
)


class LetKind(enum.Enum):
    BANG_SECTION = "let (!x, par(f)) = A in"
    SECTION = "let par(f) = par(F) in"
    BANG = "let !x = P in"
    TENSOR = "let p = z in"


def let_kind(p: Pattern, n: Term) -> LetKind | None:
    """The kind of the let frame (p, N) by its shape alone.  A bang-section
    let over a variable is also a tensor let; it is matched first.  The
    sorts check the leaves of a tensor let's pattern."""
    match p, n:
        case PTensor(PBang(), PWith(PUnit(), PVar())), _:
            return LetKind.BANG_SECTION
        case PWith(PUnit(), PVar()), WithPair(UnitVal()):
            return LetKind.SECTION
        case PBang(), _:
            return LetKind.BANG
        case PTensor() | PUnit() | PVar(), Var():
            return LetKind.TENSOR
    return None


def spine(m: Term) -> tuple[list[tuple[Pattern, Term]], Term]:
    """The frames of the lets around `m`'s tail, outermost first, and the
    tail, which is no let."""
    frames = []
    while m.__class__ is App and m.fn.__class__ is Abs:
        frames.append((m.fn.pat, m.arg))
        m = m.fn.body
    return frames, m


def rebuild(frames, tail: Term) -> Term:
    for p, n in reversed(frames):
        tail = let_(p, n, tail)
    return tail


_ABSENT = object()


def bind(env: dict, entries: dict) -> list:
    """Add `entries` to `env`; returns what `unbind` needs to undo it."""
    saved = [(k, env.get(k, _ABSENT)) for k in entries]
    env.update(entries)
    return saved


def unbind(env: dict, saved: list) -> None:
    for k, old in saved:
        if old is _ABSENT:
            del env[k]
        else:
            env[k] = old
