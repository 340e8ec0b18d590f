"""The recursive LLL typechecker, kept as the reference for the
stack-flat one in `linlog.lll.typecheck`.

It checks each subterm by one Python call per nesting level and gives
every `App` and `TensorPair` a copy of its left child's usage map, which
holds every entry the subterm uses, exponential ones included.
`tests/test_typecheck_differential.py` runs both checkers on the same
inputs and asks for the same type, or the same error class and message.
"""

from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PrimFn, PTensor,
    PUnit, PVar, PWith, TensorPair, Term, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, pattern_type, pattern_vars, prim_arg_type,
)
from linlog.lll.typecheck import (
    LinearityViolation, PatternShapeMismatch, PromotionViolation,
    TypeMismatch, TypingEnv, UnboundVariable,
)
from linlog.lll.types import Bang, LType, Lolli, One, Real, Tensor, Top, With


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
    def __init__(self):
        self.entries: dict[int, Pattern] = {}
        self.index: dict[str, tuple[int, tuple, bool, LType]] = {}
        self._next = 0

    def push(self, p: Pattern) -> int:
        eid = self._next
        self._next += 1
        self.entries[eid] = p

        def walk(q, path):
            match q:
                case PVar(name, ty):
                    self._bind(name, (eid, path, False, ty))
                case PBang(name, ty):
                    self._bind(name, (eid, path, True, ty))
                case PTensor(l, r):
                    walk(l, path + ("tl",))
                    walk(r, path + ("tr",))
                case PWith(l, r):
                    walk(l, path + ("wl",))
                    walk(r, path + ("wr",))
                case PUnit():
                    pass
        walk(p, ())
        return eid

    def _bind(self, name, info):
        if name in self.index:
            raise LinearityViolation(f"name {name} shadows an enclosing binding")
        self.index[name] = info

    def pop(self, eid: int):
        p = self.entries.pop(eid)
        for name in pattern_vars(p):
            del self.index[name]


def _check_pattern_wf(p: Pattern):
    names = pattern_vars(p)
    if len(names) != len(set(names)):
        raise PatternShapeMismatch(f"pattern {p!r} binds a name twice")


def typecheck(env: TypingEnv, term: Term) -> LType:
    """Type of `term` under `env`; raises a LinError subclass otherwise."""
    scope = _Scope()
    entry_ids = []
    seen: set[str] = set()
    for p in env.entries:
        _check_pattern_wf(p)
        for n in pattern_vars(p):
            if n in seen:
                raise LinearityViolation(f"variable {n} occurs in two env entries")
            seen.add(n)
        entry_ids.append(scope.push(p))

    ty, usage, slack = _check(term, scope)

    for eid in entry_ids:
        p = scope.entries[eid]
        if not (slack or is_full(usage.get(eid), p)):
            raise LinearityViolation(f"environment entry {p!r} not fully consumed")
    return ty


def _combine_usages(u1, u2, scope):
    out = dict(u1)
    for eid, u in u2.items():
        out[eid] = combine(out.get(eid), u, scope.entries[eid])
    return out


def _join_usages(u1, s1, u2, s2, scope):
    out = {}
    for eid in set(u1) | set(u2):
        j = join(u1.get(eid), s1, u2.get(eid), s2, scope.entries[eid])
        if j is not None:
            out[eid] = j
    return out


def _check(term: Term, scope: _Scope):
    match term:
        case Var(name):
            if name not in scope.index:
                raise UnboundVariable(name)
            eid, path, _is_bang, ty = scope.index[name]
            return ty, {eid: _mk_leaf(path)}, False

        case Numeral(_):
            return Real, {}, False
        case Zero():
            return Real, {}, True
        case TopVal():
            return Top, {}, True
        case UnitVal():
            return One, {}, False
        case PlusDot():
            return Lolli(With(Real, Real), Real), {}, False
        case TimesDot():
            return Lolli(Real, Lolli(Real, Real)), {}, False
        case PrimFn(f):
            return Lolli(prim_arg_type(f.arity), Bang(Real)), {}, False

        case Abs(p, body):
            _check_pattern_wf(p)
            eid = scope.push(p)
            ty_body, usage, slack = _check(body, scope)
            u = usage.pop(eid, None)
            if not (slack or is_full(u, p)):
                scope.pop(eid)
                raise LinearityViolation(f"bound pattern {p!r} not fully consumed")
            scope.pop(eid)
            return Lolli(pattern_type(p), ty_body), usage, slack

        case App(f, a):
            ty_f, u_f, s_f = _check(f, scope)
            ty_a, u_a, s_a = _check(a, scope)
            if not isinstance(ty_f, Lolli):
                raise TypeMismatch(f"applying non-function of type {ty_f!r}")
            if ty_f.dom != ty_a:
                raise TypeMismatch(
                    f"argument type {ty_a!r} does not match domain {ty_f.dom!r}")
            return ty_f.cod, _combine_usages(u_f, u_a, scope), s_f or s_a

        case TensorPair(l, r):
            ty_l, u_l, s_l = _check(l, scope)
            ty_r, u_r, s_r = _check(r, scope)
            return Tensor(ty_l, ty_r), _combine_usages(u_l, u_r, scope), s_l or s_r

        case WithPair(l, r):
            ty_l, u_l, s_l = _check(l, scope)
            ty_r, u_r, s_r = _check(r, scope)
            return With(ty_l, ty_r), _join_usages(u_l, s_l, u_r, s_r, scope), s_l and s_r

        case BangVal(inner):
            ty_i, u_i, _s = _check(inner, scope)
            for eid, u in u_i.items():
                if not _weakenable(u, scope.entries[eid]):
                    raise PromotionViolation(
                        "promotion over a non-exponential free variable")
            return Bang(ty_i), u_i, False

    raise AssertionError(term)
