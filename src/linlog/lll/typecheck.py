"""Syntax-directed typechecker.

Church typing makes types unique, so checking is a one-pass synthesis
that computes, for every subterm, which parts of each environment entry
it consumes.  The consumption of an entry mirrors the entry's pattern:

* tensor nodes may split across the two sides of an application or
  multiplicative pair;
* with nodes must be projected to one side within a multiplicative
  thread, but the two components of an additive pair may project
  differently (additive contraction);
* Zero and TopVal absorb any leftover context ("slack"), which is the
  only way a linear variable may go unused.

The checker rejects shadowing: a pattern may not rebind a name already
in scope.  Transformation output always satisfies this because fresh
names come from a dedicated supply.
"""

from __future__ import annotations

from dataclasses import dataclass

from linlog.errors import LinlogError
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PrimFn, PTensor,
    PUnit, PVar, PWith, TensorPair, Term, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, children, pattern_var_types, pattern_vars,
    prim_arg_type,
)
from linlog.lll.types import Bang, LType, Lolli, One, Real, Tensor, Top, With


class LinError(LinlogError):
    pass


class UnboundVariable(LinError):
    pass


class LinearityViolation(LinError):
    pass


class PromotionViolation(LinError):
    pass


class TypeMismatch(LinError):
    pass


class PatternShapeMismatch(LinError):
    pass


@dataclass(frozen=True)
class TypingEnv:
    entries: tuple[Pattern, ...] = ()

    @staticmethod
    def of(*patterns: Pattern) -> "TypingEnv":
        return TypingEnv(tuple(patterns))


# Usage trees: None untouched, "used" leaf, "sat" completely consumed,
# ("pair", l, r), ("projL", u), ("projR", u).

USED = "used"
SAT = "sat"


def _mk_leaf(path):
    # build bottom-up along the path
    u = USED
    for step in reversed(path):
        if step == "tl":
            u = ("pair", u, None)
        elif step == "tr":
            u = ("pair", None, u)
        elif step == "wl":
            u = ("projL", u)
        else:
            u = ("projR", u)
    return u


def droppable(p: Pattern) -> bool:
    match p:
        case PBang(_, _) | PUnit():
            return True
        case PVar(_, _):
            return False
        case PTensor(l, r):
            return droppable(l) and droppable(r)
        case PWith(l, r):
            return droppable(l) or droppable(r)
    raise AssertionError(p)


def is_full(u, p: Pattern) -> bool:
    if u == SAT:
        return True
    if u is None:
        return droppable(p)
    match p:
        case PBang(_, _) | PUnit():
            return True
        case PVar(_, _):
            return u == USED
        case PTensor(l, r):
            assert u[0] == "pair"
            return is_full(u[1], l) and is_full(u[2], r)
        case PWith(l, r):
            if u[0] == "projL":
                return is_full(u[1], l)
            if u[0] == "projR":
                return is_full(u[1], r)
    return False


def _weakenable(u, p: Pattern) -> bool:
    """May a derivation consume exactly `u` of `p` for free?"""
    if u is None:
        return True
    if u == SAT:
        return droppable(p)
    match p:
        case PBang(_, _):
            return True
        case PVar(_, _):
            return False
        case PUnit():
            return True
        case PTensor(l, r):
            assert u[0] == "pair"
            return _weakenable(u[1], l) and _weakenable(u[2], r)
        case PWith(l, r):
            if u[0] == "projL":
                return _weakenable(u[1], l)
            if u[0] == "projR":
                return _weakenable(u[1], r)
    return False


def combine(u1, u2, p: Pattern):
    """Multiplicative composition of two usages of one entry."""
    if u1 is None:
        return u2
    if u2 is None:
        return u1
    if u1 == SAT or u2 == SAT:
        raise LinearityViolation(f"resource {p!r} consumed twice across a split")
    match p:
        case PBang(_, _):
            return USED
        case PVar(name, _):
            raise LinearityViolation(f"linear variable {name} used twice across a split")
        case PTensor(l, r):
            return ("pair", combine(u1[1], u2[1], l), combine(u1[2], u2[2], r))
        case PWith(l, r):
            if u1[0] == u2[0] == "projL":
                return ("projL", combine(u1[1], u2[1], l))
            if u1[0] == u2[0] == "projR":
                return ("projR", combine(u1[1], u2[1], r))
            raise LinearityViolation(
                f"with-resource {p!r} split across incompatible projections")
    raise AssertionError(p)


def _close(u, p: Pattern, slack: bool):
    if is_full(u, p):
        return SAT
    if slack:
        return SAT
    raise LinearityViolation(
        f"additive branch leaves {p!r} incompletely consumed")


def _join_none(u, p: Pattern):
    """One branch consumed `u` of `p`, the other nothing and has no
    slack: the idle branch must be able to match for free, by weakening
    exponentials or by projecting a with node onto a droppable side."""
    if u is None:
        return None
    if u == SAT:
        if droppable(p):
            return SAT
        raise LinearityViolation(f"one additive branch ignores {p!r}")
    match p:
        case PBang(_, _) | PUnit():
            return u
        case PVar(name, _):
            raise LinearityViolation(f"one additive branch ignores {name}")
        case PTensor(l, r):
            return ("pair", _join_none(u[1], l), _join_none(u[2], r))
        case PWith(l, r):
            side = l if u[0] == "projL" else r
            if _weakenable(u[1], side):
                return u
            if is_full(u[1], side) and droppable(p):
                return SAT
            raise LinearityViolation(f"one additive branch ignores {p!r}")
    raise AssertionError(p)


def join(u1, s1, u2, s2, p: Pattern):
    """Additive superposition: both branches must account for the same
    resources, up to weakening of exponentials and slack."""
    if u1 is None and u2 is None:
        return None
    if u1 is None:
        return u2 if s1 else _join_none(u2, p)
    if u2 is None:
        return u1 if s2 else _join_none(u1, p)
    if u1 == SAT:
        return _close(u2, p, s2)
    if u2 == SAT:
        return _close(u1, p, s1)
    match p:
        case PBang(_, _):
            return USED
        case PVar(_, _):
            return USED
        case PTensor(l, r):
            return ("pair", join(u1[1], s1, u2[1], s2, l),
                    join(u1[2], s1, u2[2], s2, r))
        case PWith(l, r):
            if u1[0] == u2[0] == "projL":
                return ("projL", join(u1[1], s1, u2[1], s2, l))
            if u1[0] == u2[0] == "projR":
                return ("projR", join(u1[1], s1, u2[1], s2, r))
            # opposite projections: each side must be complete on its own
            a = u1[1] if u1[0] == "projL" else u2[1]
            b = u1[1] if u1[0] == "projR" else u2[1]
            sa = s1 if u1[0] == "projL" else s2
            sb = s1 if u1[0] == "projR" else s2
            _close(a, l, sa)
            _close(b, r, sb)
            return SAT
    raise AssertionError(p)


class _Scope:
    """The entries in scope.  `index` maps each bound name to (entry id,
    the usage of that name's leaf alone, the name's type); `entries` maps
    the id of each entry that usage maps track to its pattern.

    An entry whose whole pattern is one `PBang` is not tracked: every usage
    it can have is accepted by `combine`, `join`, `is_full` and
    `_weakenable`, and none of them makes it SAT, so it can neither raise
    nor change a result.  Its leaf usage is None and usage maps leave it
    out, so a map holds only the linear entries its subterm uses, not the
    exponential ones of a whole let spine.  Ids are drawn for every entry,
    tracked or not, one per binder in the order the binders are entered."""

    __slots__ = ("entries", "index", "next")

    def __init__(self):
        self.entries: dict[int, Pattern] = {}
        self.index: dict[str, tuple[int, object, LType]] = {}
        self.next = 0

    def bind(self, eid: int, p: Pattern) -> tuple[tuple[str, ...], LType]:
        """Bind the names of `p` as the entry `eid`; returns its names and
        the type of `p`, both from one walk of the pattern, which a
        composite pattern keeps for its next binding."""
        cls = p.__class__
        composite = cls is PTensor or cls is PWith
        walk = p._walk if composite else None
        if walk is None:
            walk = _walk(p)
            if composite:
                p._walk = walk
        names, ty, leaves = walk
        if cls is not PBang:
            self.entries[eid] = p
        index = self.index
        for name, leaf, leaf_ty in leaves:
            if name in index:
                raise LinearityViolation(
                    f"name {name} shadows an enclosing binding")
            index[name] = (eid, leaf, leaf_ty)
        return names, ty


def _walk(p: Pattern) -> tuple:
    """(names, type, (name, leaf usage, type) per leaf) of a well-formed
    `p`; the leaf usage is None for a `p` that is one `PBang`."""
    leaves: list = []
    ty = _walk_pattern(p, (), leaves)
    names = tuple([leaf[0] for leaf in leaves])
    _check_pattern_wf(p, names)
    tracked = p.__class__ is not PBang
    return names, ty, tuple([(name, _mk_leaf(path) if tracked else None,
                              leaf_ty) for name, path, leaf_ty in leaves])


def _walk_pattern(q: Pattern, path: tuple, leaves: list) -> LType:
    """The type of `q`; appends (name, path, type) for each of its leaves,
    left to right.  A pattern nests as deep as its type, not as the term."""
    cls = q.__class__
    if cls is PVar:
        leaves.append((q.name, path, q.ty))
        return q.ty
    if cls is PBang:
        leaves.append((q.name, path, q.ty))
        return Bang(q.ty)
    if cls is PTensor:
        return Tensor(_walk_pattern(q.left, path + ("tl",), leaves),
                      _walk_pattern(q.right, path + ("tr",), leaves))
    if cls is PWith:
        return With(_walk_pattern(q.left, path + ("wl",), leaves),
                    _walk_pattern(q.right, path + ("wr",), leaves))
    if cls is PUnit:
        return One
    raise AssertionError(q)


def _check_pattern_wf(p: Pattern, names: list[str] | tuple[str, ...]):
    if len(names) != len(set(names)):
        raise PatternShapeMismatch(f"pattern {p!r} binds a name twice")


def typecheck(env: TypingEnv, term: Term) -> LType:
    """Type of `term` under `env`; raises a LinError subclass otherwise."""
    scope = _Scope()
    entry_ids = []
    seen: set[str] = set()
    for p in env.entries:
        names = pattern_vars(p)
        _check_pattern_wf(p, names)
        for n in names:
            if n in seen:
                raise LinearityViolation(f"variable {n} occurs in two env entries")
            seen.add(n)
        entry_ids.append(scope.next)
        scope.bind(scope.next, p)
        scope.next += 1

    ty, usage, slack = _check(term, scope)

    for eid in entry_ids:
        p = scope.entries.get(eid)
        if p is not None and not (slack or is_full(usage.get(eid), p)):
            raise LinearityViolation(f"environment entry {p!r} not fully consumed")
    return ty


# A subterm's usage map is new and owned by its parent, which merges the
# smaller of two maps into the larger in place; a subterm that uses no
# tracked entry shares `_UNUSED`, which no merge writes to (it is never
# the larger of two maps but when both are empty).
_UNUSED: dict = {}

_REAL = (Real, _UNUSED, False)
_ZERO = (Real, _UNUSED, True)
_ONE = (One, _UNUSED, False)
_TOP = (Top, _UNUSED, True)
_PLUS = (Lolli(With(Real, Real), Real), _UNUSED, False)
_TIMES = (Lolli(Real, Lolli(Real, Real)), _UNUSED, False)


def _combine_usages(u1, u2, entries):
    """Multiplicative composition of two usage maps."""
    if len(u1) < len(u2):
        u1, u2 = u2, u1
    for eid, u in u2.items():
        v = u1.get(eid)
        u1[eid] = u if v is None else combine(v, u, entries[eid])
    return u1


def _join_usages(u1, s1, u2, s2, entries):
    """Additive superposition of two usage maps, with their slacks."""
    if len(u1) < len(u2):
        u1, s1, u2, s2 = u2, s2, u1, s1
    if not s2:  # each entry only u1 uses must be able to idle in u2
        for eid, u in u1.items():
            if eid not in u2:
                u1[eid] = _join_none(u, entries[eid])
    for eid, u in u2.items():
        v = u1.get(eid)
        if v is not None:
            u1[eid] = join(v, s1, u, s2, entries[eid])
        else:
            u1[eid] = u if s1 else _join_none(u, entries[eid])
    return u1


def _check(term: Term, scope: _Scope):
    """(type, usage map, slack) of `term`, by one walk on an explicit stack:
    a node is visited, its children are checked, then it is finished from
    their results, in the order of a left-to-right post-order recursion,
    so that the first error found is the one that recursion would raise.
    `todo` holds nodes to visit; a None on it says that the node beneath
    is to be finished, and a tuple is a binder whose scope ends there.
    It dispatches on the class, not with `match`, whose class patterns
    cost several times more per node."""
    index, entries = scope.index, scope.entries
    results: list = []  # (type, usage, slack) of the children checked
    todo: list = [term]
    while todo:
        t = todo.pop()
        if t is None:  # finish the node beneath from its children's results
            t = todo.pop()
            cls = t.__class__
            ty_r, u_r, s_r = results.pop()
            if cls is BangVal:
                for eid, u in u_r.items():
                    if not _weakenable(u, entries[eid]):
                        raise PromotionViolation(
                            "promotion over a non-exponential free variable")
                results.append((Bang(ty_r), u_r, False))
                continue
            ty_l, u_l, s_l = results.pop()
            if cls is App:
                if ty_l.__class__ is not Lolli:
                    raise TypeMismatch(f"applying non-function of type {ty_l!r}")
                if ty_l.dom is not ty_r and ty_l.dom != ty_r:
                    raise TypeMismatch(f"argument type {ty_r!r} does not "
                                       f"match domain {ty_l.dom!r}")
                ty = ty_l.cod
            elif cls is TensorPair:
                ty = Tensor(ty_l, ty_r)
            else:
                if u_l or u_r:
                    try:
                        u_l = _join_usages(u_l, s_l, u_r, s_r, entries)
                    except LinearityViolation:
                        _raise_first(t, scope)
                results.append((With(ty_l, ty_r), u_l, s_l and s_r))
                continue
            if u_r:
                if u_l:
                    try:
                        u_l = _combine_usages(u_l, u_r, entries)
                    except LinearityViolation:
                        _raise_first(t, scope)
                else:
                    u_l = u_r
            results.append((ty, u_l, s_l or s_r))
            continue
        cls = t.__class__
        if cls is Var:
            info = index.get(t.name)
            if info is None:
                raise UnboundVariable(t.name)
            eid, leaf, ty = info
            results.append((ty, _UNUSED if leaf is None else {eid: leaf},
                            False))
        elif cls is App:
            todo += (t, None, t.arg, t.fn)
        elif cls is tuple:  # leave a binder's scope
            eid, p, names, ty_p = t
            ty_b, u_b, s_b = results.pop()
            u = u_b.pop(eid, None) if u_b else None
            if not s_b:  # a lone variable is full once used, a !x always
                pc = p.__class__
                if not (u is not None if pc is PVar
                        else pc is PBang or is_full(u, p)):
                    raise LinearityViolation(
                        f"bound pattern {p!r} not fully consumed")
            if names.__class__ is str:
                del index[names]
            else:
                for name in names:
                    del index[name]
            results.append((Lolli(ty_p, ty_b), u_b, s_b))
        elif cls is Abs:
            p = t.pat
            pc = p.__class__
            eid = scope.next
            scope.next = eid + 1
            if pc is PVar or pc is PBang:  # one leaf: no pattern walk
                name = p.name
                if name in index:
                    raise LinearityViolation(
                        f"name {name} shadows an enclosing binding")
                ty = p.ty
                if pc is PVar:
                    entries[eid] = p
                    index[name] = (eid, USED, ty)
                else:
                    index[name] = (eid, None, ty)
                    ty = Bang(ty)
                todo += ((eid, p, name, ty), t.body)
            else:
                todo += ((eid, p) + scope.bind(eid, p), t.body)
        elif cls is WithPair or cls is TensorPair:
            todo += (t, None, t.right, t.left)
        elif cls is UnitVal:
            results.append(_ONE)
        elif cls is BangVal:
            todo += (t, None, t.inner)
        elif cls is TopVal:
            results.append(_TOP)
        elif cls is Numeral:
            results.append(_REAL)
        elif cls is Zero:
            results.append(_ZERO)
        elif cls is PrimFn:
            results.append((Lolli(prim_arg_type(t.fn.arity), Bang(Real)),
                            _UNUSED, False))
        elif cls is PlusDot:
            results.append(_PLUS)
        elif cls is TimesDot:
            results.append(_TIMES)
        else:
            raise AssertionError(t)
    return results.pop()


def _raise_first(m: Term, scope: _Scope):
    """Raise the violation that merging the usages of `m`'s children meets
    first.  `m` is an App, TensorPair or WithPair whose children check but
    whose usages do not merge; several entries may fail.  The one reported
    is the first in the order of `_usage_order`: of the right child's usage
    for a multiplicative node, of the union of both children's usages for
    an additive pair.  The children are checked again, as the merge that
    failed has consumed their maps."""
    left, right = children(m)
    _, u1, s1 = _check(left, scope)
    _, u2, s2 = _check(right, scope)
    entries, index = scope.entries, scope.index
    if m.__class__ is WithPair:
        for eid in set(_usage_order(left, index)) | set(_usage_order(right, index)):
            if eid in u1 or eid in u2:
                join(u1.get(eid), s1, u2.get(eid), s2, entries[eid])
    else:
        for eid in _usage_order(right, index):
            if eid in u1 and eid in u2:
                combine(u1[eid], u2[eid], entries[eid])
    raise AssertionError(m)


def _usage_order(m: Term, index) -> dict:
    """The ids of the entries in scope that `m` uses, exponential ones too,
    as the keys of a dict in a fixed order: the order in which a checker
    keeps them that copies the left map at each multiplicative node and
    adds the right one's entries after it, and at an additive pair takes
    the order of the Python set union of the two sides' entries.  Which
    error a term with several violations at one node gets depends on it,
    and on no merge order.  Nodes are listed in pre-order from an explicit
    stack, then folded children first."""
    order, todo = [], [m]
    while todo:
        t = todo.pop()
        order.append(t)
        todo += reversed(children(t))
    done: list[dict] = []  # the leftmost child folded is on top
    for t in reversed(order):
        cls = t.__class__
        if cls is Var:
            info = index.get(t.name)  # a name bound inside m is not in scope
            done.append({} if info is None else {info[0]: None})
        elif cls is App or cls is TensorPair:
            left = done.pop()
            left.update(done.pop())
            done.append(left)
        elif cls is WithPair:
            left = done.pop()
            done.append(dict.fromkeys(set(left) | set(done.pop())))
        elif cls is not Abs and cls is not BangVal:
            done.append({})
    return done.pop()


def free_var_types(env: TypingEnv) -> dict[str, LType]:
    """Resource type of every env variable (!A for bang patterns)."""
    out: dict[str, LType] = {}
    for p in env.entries:
        out.update(pattern_var_types(p))
    return out
