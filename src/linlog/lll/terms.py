"""Terms and binder patterns of the linear calculus.

Church style: every bound variable's type is fixed by its pattern
occurrence.  ``let p = N in M`` is notation for ``App(Abs(p, M), N)`` and
``par(M)`` (the affine box, displayed as a section sign in the sources
this grammar models) is notation for ``WithPair(UnitVal, M)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from linlog.lll.prims import PrimId
from linlog.lll.types import (
    Bang, LType, One, Real, Tensor, With, type_str,
)

# ---------------------------------------------------------------- patterns


class Pattern:
    __slots__ = ()

    def __repr__(self):
        return pattern_str(self)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class PVar(Pattern):
    name: str
    ty: LType


@dataclass(repr=False, slots=True, unsafe_hash=True)
class PBang(Pattern):
    name: str
    ty: LType  # the inner type A; the pattern itself has type !A


@dataclass(repr=False, slots=True, unsafe_hash=True)
class PUnit(Pattern):
    pass


# The composite patterns keep the typechecker's walk of them in `_walk`,
# filled when it first binds one; like the terms' `_fv`, it takes no part
# in equality, hashing, matching or printing.

@dataclass(repr=False, slots=True, unsafe_hash=True)
class PTensor(Pattern):
    left: Pattern
    right: Pattern
    _walk: tuple | None = field(default=None, init=False, compare=False)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class PWith(Pattern):
    left: Pattern
    right: Pattern
    _walk: tuple | None = field(default=None, init=False, compare=False)


def pattern_type(p: Pattern) -> LType:
    match p:
        case PVar(_, ty):
            return ty
        case PBang(_, ty):
            return Bang(ty)
        case PUnit():
            return One
        case PTensor(l, r):
            return Tensor(pattern_type(l), pattern_type(r))
        case PWith(l, r):
            return With(pattern_type(l), pattern_type(r))
    raise AssertionError(p)


def _leaves(p: Pattern) -> list[Pattern]:
    """The variable leaves of `p`, left to right."""
    # dispatch on the class, not with `match`, as `children` does: the
    # passes call this at every binder
    cls = p.__class__
    if cls is PVar or cls is PBang:
        return [p]
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        cls = q.__class__
        if cls is PVar or cls is PBang:
            out.append(q)
        elif cls is PTensor or cls is PWith:
            todo.append(q.right)
            todo.append(q.left)
        elif cls is not PUnit:
            raise AssertionError(q)
    return out


def pattern_vars(p: Pattern) -> list[str]:
    return [q.name for q in _leaves(p)]


def pattern_var_types(p: Pattern) -> dict[str, LType]:
    """Name -> type of the variable as a resource (!A for bang leaves)."""
    return {q.name: Bang(q.ty) if q.__class__ is PBang else q.ty
            for q in _leaves(p)}


def with_pattern(leaves: list[Pattern]) -> Pattern:
    """Right-nested n-ary with pattern; empty never occurs at call sites."""
    assert leaves
    out = leaves[-1]
    for p in reversed(leaves[:-1]):
        out = PWith(p, out)
    return out


def para_pattern(p: Pattern) -> Pattern:
    return PWith(PUnit(), p)


# ------------------------------------------------------------------- terms


class Term:
    __slots__ = ()

    def __repr__(self):
        return term_str(self)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class Var(Term):
    name: str


@dataclass(repr=False, slots=True, unsafe_hash=True)
class Numeral(Term):
    value: float


@dataclass(repr=False, slots=True, unsafe_hash=True)
class PrimFn(Term):
    fn: PrimId


@dataclass(repr=False, slots=True, unsafe_hash=True)
class PlusDot(Term):
    pass


@dataclass(repr=False, slots=True, unsafe_hash=True)
class TimesDot(Term):
    pass


@dataclass(repr=False, slots=True, unsafe_hash=True)
class Zero(Term):
    # behaves as the numeral 0.0 but is typeable under any context
    pass


# The composite nodes below keep their free variables in `_fv`, filled by
# `free_vars` on first request; it takes no part in equality, hashing,
# matching or printing.


@dataclass(repr=False, slots=True, unsafe_hash=True)
class Abs(Term):
    pat: Pattern
    body: Term
    _fv: frozenset[str] | None = field(default=None, init=False, compare=False)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class App(Term):
    fn: Term
    arg: Term
    _fv: frozenset[str] | None = field(default=None, init=False, compare=False)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class UnitVal(Term):
    pass


@dataclass(repr=False, slots=True, unsafe_hash=True)
class TensorPair(Term):
    left: Term
    right: Term
    _fv: frozenset[str] | None = field(default=None, init=False, compare=False)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class BangVal(Term):
    inner: Term
    _fv: frozenset[str] | None = field(default=None, init=False, compare=False)


@dataclass(repr=False, slots=True, unsafe_hash=True)
class TopVal(Term):
    pass


@dataclass(repr=False, slots=True, unsafe_hash=True)
class WithPair(Term):
    left: Term
    right: Term
    _fv: frozenset[str] | None = field(default=None, init=False, compare=False)


# ------------------------------------------------------------ conveniences

def para(m: Term) -> Term:
    return WithPair(UnitVal(), m)


def let_(p: Pattern, n: Term, m: Term) -> Term:
    return App(Abs(p, m), n)


def bang_let(name: str, ty: LType, n: Term, m: Term) -> Term:
    return let_(PBang(name, ty), n, m)


def with_tuple(components: list[Term]) -> Term:
    if not components:
        return TopVal()
    out = components[-1]
    for c in reversed(components[:-1]):
        out = WithPair(c, out)
    return out


def prim_app(p: PrimId, args: list[Term]) -> Term:
    """f(M1, ..., Mn): the argument is a right-nested tensor of the Mi."""
    assert len(args) == p.arity
    arg = args[-1]
    for a in reversed(args[:-1]):
        arg = TensorPair(a, arg)
    return App(PrimFn(p), arg)


def prim_args(arg: Term, arity: int) -> list[Term] | None:
    """The inverse of `prim_app` on bang values: the `arity` bang values of
    the right-nested tensor `arg`, or None when it is not such a tensor."""
    out = []
    for _ in range(arity - 1):
        if not (isinstance(arg, TensorPair) and isinstance(arg.left, BangVal)):
            return None
        out.append(arg.left)
        arg = arg.right
    if not isinstance(arg, BangVal):
        return None
    out.append(arg)
    return out


def prim_arg_type(arity: int) -> LType:
    out: LType = Bang(Real)
    for _ in range(arity - 1):
        out = Tensor(Bang(Real), out)
    return out


_NO_VARS: frozenset[str] = frozenset()
_COMPOSITE = (Abs, App, TensorPair, WithPair, BangVal)


def free_vars(m: Term) -> frozenset[str]:
    """The free variables of `m`.  A composite node keeps them in its
    `_fv` slot from the first request on, so later requests on it or on
    any of its subterms cost O(1)."""
    if not isinstance(m, _COMPOSITE):
        return frozenset((m.name,)) if isinstance(m, Var) else _NO_VARS
    if m._fv is None:
        # Fill the uncached nodes below `m`, children before parents, from
        # an explicit stack: a let-spine nests as deep as the program is
        # long.
        todo = [m]
        while todo:
            t = todo[-1]
            missing = [c for c in children(t)
                       if isinstance(c, _COMPOSITE) and c._fv is None]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            if t._fv is None:
                t._fv = _compute_free_vars(t)
    return m._fv


def children(m: Term) -> tuple[Term, ...]:
    # dispatch on the class, not with `match`: class patterns cost several
    # times more, and the walks over whole terms call this at every node
    cls = m.__class__
    if cls is App:
        return (m.fn, m.arg)
    if cls is TensorPair or cls is WithPair:
        return (m.left, m.right)
    if cls is Abs:
        return (m.body,)
    if cls is BangVal:
        return (m.inner,)
    return ()


def _compute_free_vars(m: Term) -> frozenset[str]:
    """The free variables of a composite node whose children are cached,
    reusing a child's set where it is already the answer."""
    cls = m.__class__
    if cls is Abs:
        fv = free_vars(m.body)
        bound = fv.intersection(pattern_vars(m.pat))
        return fv - bound if bound else fv
    if cls is BangVal:
        return free_vars(m.inner)
    f, a = children(m)
    left, right = free_vars(f), free_vars(a)
    if len(left) < len(right):
        left, right = right, left
    return left if right <= left else left | right


def all_names(m: Term) -> set[str]:
    """Every variable name occurring anywhere (free, bound, binders)."""
    out: set[str] = set()
    todo = [m]  # an explicit stack: a let-spine nests as deep as its program
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is Var:
            out.add(t.name)
        elif cls is Abs:
            out.update(pattern_vars(t.pat))
            todo.append(t.body)
        else:
            todo.extend(children(t))
    return out


def term_size(m: Term) -> int:
    """The number of nodes of `m`."""
    n = 0
    todo = [m]  # an explicit stack, as in `all_names`
    while todo:
        n += 1
        todo.extend(children(todo.pop()))
    return n


def alpha_eq(m: Term, n: Term, tol: float = 1e-9) -> bool:
    """Structural equality up to bound-variable names and a relative
    tolerance on numerals."""

    def num(t):
        match t:
            case Numeral(v):
                return v
            case Zero():
                return 0.0
        return None

    def close(a, b):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    def pat(p, q, env):
        # returns extended mapping or None on shape/type mismatch
        match p, q:
            case (PVar(a, ta), PVar(b, tb)) if ta == tb:
                return env | {a: b}
            case (PBang(a, ta), PBang(b, tb)) if ta == tb:
                return env | {a: b}
            case (PUnit(), PUnit()):
                return env
            case (PTensor(l1, r1), PTensor(l2, r2)) | (PWith(l1, r1), PWith(l2, r2)):
                env = pat(l1, l2, env)
                return None if env is None else pat(r1, r2, env)
        return None

    def go(a, b, env):
        na, nb = num(a), num(b)
        if na is not None or nb is not None:
            return na is not None and nb is not None and close(na, nb)
        match a, b:
            case (Var(x), Var(y)):
                return env.get(x, x) == y
            case (PrimFn(f), PrimFn(g)):
                return f == g
            case (PlusDot(), PlusDot()) | (TimesDot(), TimesDot()):
                return True
            case (UnitVal(), UnitVal()) | (TopVal(), TopVal()):
                return True
            case (Abs(p, m1), Abs(q, m2)):
                env2 = pat(p, q, env)
                return env2 is not None and go(m1, m2, env2)
            case (App(f1, a1), App(f2, a2)):
                return go(f1, f2, env) and go(a1, a2, env)
            case (TensorPair(f1, a1), TensorPair(f2, a2)):
                return go(f1, f2, env) and go(a1, a2, env)
            case (WithPair(f1, a1), WithPair(f2, a2)):
                return go(f1, f2, env) and go(a1, a2, env)
            case (BangVal(i1), BangVal(i2)):
                return go(i1, i2, env)
        return False

    return go(m, n, {})


# ------------------------------------------------------------ display

def pattern_str(p: Pattern) -> str:
    match p:
        case PVar(name, ty):
            return f"{name}:{type_str(ty)}"
        case PBang(name, _):
            return f"!{name}"
        case PUnit():
            return "()"
        case PTensor(l, r):
            return f"({pattern_str(l)}, {pattern_str(r)})"
        case PWith(l, r) if isinstance(l, PUnit):
            return f"par({pattern_str(r)})"
        case PWith(l, r):
            return f"<{pattern_str(l)}, {pattern_str(r)}>"
    raise AssertionError(p)


def term_str(m: Term) -> str:
    match m:
        case Var(name):
            return name
        case Numeral(v):
            return f"{v:g}"
        case PrimFn(f):
            return f.name
        case PlusDot():
            return "+."
        case TimesDot():
            return "*."
        case Zero():
            return "0."
        case App(Abs(p, body), n):
            return f"let {pattern_str(p)} = {term_str(n)} in {term_str(body)}"
        case Abs(p, body):
            return f"(\\{pattern_str(p)}. {term_str(body)})"
        case App(f, a):
            return f"({term_str(f)} {term_str(a)})"
        case UnitVal():
            return "()"
        case TensorPair(l, r):
            return f"({term_str(l)}, {term_str(r)})"
        case BangVal(i):
            return f"!{term_str(i)}"
        case TopVal():
            return "<>"
        case WithPair(l, r) if isinstance(l, UnitVal):
            return f"par({term_str(r)})"
        case WithPair(l, r):
            return f"<{term_str(l)}, {term_str(r)}>"
    raise AssertionError(m)
