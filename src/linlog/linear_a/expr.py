"""Core expressions of the primal/tangent calculus.

Primal variables may be shared and dropped; tangent variables are
linear, modified only by the dotted operators.  Surface sugar (primal
and tangent lets, expression-level pairs and tuples) is desugared by the
builders below into the core constructors; the matchers recognise the
canonical images so the transformations can be stated on the sugar
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from linlog.errors import SortViolation  # noqa: F401  (re-exported from its old home)
from linlog.fresh import NameSupply
from linlog.lll.prims import PrimId


# ------------------------------------------------------------------ types

class JaxType:
    __slots__ = ()

    def __repr__(self):
        match self:
            case _JReal():
                return "R"
            case _JOne():
                return "1"
            case JProd(l, r):
                return f"({l!r} (x) {r!r})"
        raise AssertionError


@dataclass(frozen=True, repr=False)
class _JReal(JaxType):
    pass


@dataclass(frozen=True, repr=False)
class _JOne(JaxType):
    pass


@dataclass(frozen=True, repr=False)
class JProd(JaxType):
    left: JaxType
    right: JaxType


JReal = _JReal()
JOne = _JOne()


def jax_workload_type(t: JaxType) -> int:
    match t:
        case _JReal():
            return 1
        case JProd(l, r):
            return jax_workload_type(l) + jax_workload_type(r)
        case _:
            return 0


def prod_of(types: list[JaxType]) -> JaxType:
    if not types:
        return JOne
    out = types[-1]
    for t in reversed(types[:-1]):
        out = JProd(t, out)
    return out


# ------------------------------------------------------------ expressions

class Expr:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class VarPair(Expr):
    primal: str
    tangent: str


@dataclass(slots=True, unsafe_hash=True)
class LetPair(Expr):
    primal: str
    tangent: str
    bound: Expr
    body: Expr
    _fv: tuple[frozenset[str], frozenset[str]] | None = field(
        default=None, init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class PrimTupIntro0(Expr):
    pass


@dataclass(slots=True, unsafe_hash=True)
class PrimTupIntro2(Expr):
    x1: str
    x2: str


@dataclass(slots=True, unsafe_hash=True)
class PrimTupElim0(Expr):
    var: str
    body: Expr
    _fv: tuple[frozenset[str], frozenset[str]] | None = field(
        default=None, init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class PrimTupElim2(Expr):
    x1: str
    x2: str
    var: str
    body: Expr
    _fv: tuple[frozenset[str], frozenset[str]] | None = field(
        default=None, init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class TanTupIntro0(Expr):
    pass


@dataclass(slots=True, unsafe_hash=True)
class TanTupIntro2(Expr):
    t1: str
    t2: str


@dataclass(slots=True, unsafe_hash=True)
class TanTupElim0(Expr):
    var: str
    body: Expr
    _fv: tuple[frozenset[str], frozenset[str]] | None = field(
        default=None, init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class TanTupElim2(Expr):
    t1: str
    t2: str
    var: str
    body: Expr
    _fv: tuple[frozenset[str], frozenset[str]] | None = field(
        default=None, init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Lit(Expr):
    value: float


@dataclass(slots=True, unsafe_hash=True)
class PrimApp(Expr):
    fn: PrimId
    args: tuple[str, ...]


@dataclass(slots=True, unsafe_hash=True)
class ZeroDot(Expr):
    ty: JaxType


@dataclass(slots=True, unsafe_hash=True)
class AddDot(Expr):
    t1: str
    t2: str


@dataclass(slots=True, unsafe_hash=True)
class ScaleDot(Expr):
    primal: str
    tangent: str


@dataclass(slots=True, unsafe_hash=True)
class Dup(Expr):
    tangent: str


@dataclass(slots=True, unsafe_hash=True)
class Drop(Expr):
    body: Expr
    _fv: tuple[frozenset[str], frozenset[str]] | None = field(
        default=None, init=False, compare=False, repr=False)


# The nodes with a body keep their free primal and tangent names in `_fv`,
# filled by `_free_names` on first request; it takes no part in equality,
# hashing, matching or printing.

_NO_NAMES: frozenset[str] = frozenset()
_COMPOSITE = (LetPair, PrimTupElim0, PrimTupElim2, TanTupElim0, TanTupElim2,
              Drop)


def fv_primal(e: Expr) -> frozenset[str]:
    return _free_names(e)[0]


def fv_tangent(e: Expr) -> frozenset[str]:
    return _free_names(e)[1]


def _free_names(e: Expr) -> tuple[frozenset[str], frozenset[str]]:
    """The free primal and free tangent names of `e`.  A node with a body
    keeps them from the first request on, so later requests on it or on any
    node below it cost O(1)."""
    if e.__class__ not in _COMPOSITE:
        return _leaf_names(e)
    if e._fv is None:
        # Fill the uncached nodes below `e`, children before parents, from
        # an explicit stack: a let spine nests as deep as the program is
        # long.
        todo = [e]
        while todo:
            t = todo[-1]
            missing = [c for c in _children(t)
                       if c.__class__ in _COMPOSITE and c._fv is None]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            if t._fv is None:
                t._fv = _node_names(t)
    return e._fv


def _children(e: Expr) -> tuple[Expr, ...]:
    return (e.bound, e.body) if e.__class__ is LetPair else (e.body,)


def _leaf_names(e: Expr) -> tuple[frozenset[str], frozenset[str]]:
    cls = e.__class__
    if cls is VarPair or cls is ScaleDot:
        return frozenset((e.primal,)), frozenset((e.tangent,))
    if cls is PrimApp:
        return frozenset(e.args), _NO_NAMES
    if cls is PrimTupIntro2:
        return frozenset((e.x1, e.x2)), _NO_NAMES
    if cls is TanTupIntro2 or cls is AddDot:
        return _NO_NAMES, frozenset((e.t1, e.t2))
    if cls is Dup:
        return _NO_NAMES, frozenset((e.tangent,))
    return _NO_NAMES, _NO_NAMES


def _node_names(e: Expr) -> tuple[frozenset[str], frozenset[str]]:
    """The free names of a node with a body whose children are cached,
    reusing a child's set where it is already the answer."""
    cls = e.__class__
    fp, ft = _free_names(e.body)
    if cls is LetPair:
        bp, bt = _free_names(e.bound)
        return (_union(bp, _without(fp, (e.primal,))),
                _union(bt, _without(ft, (e.tangent,))))
    if cls is PrimTupElim0:
        return _union(fp, frozenset((e.var,))), ft
    if cls is PrimTupElim2:
        return _union(_without(fp, (e.x1, e.x2)), frozenset((e.var,))), ft
    if cls is TanTupElim0:
        return fp, _union(ft, frozenset((e.var,)))
    if cls is TanTupElim2:
        return fp, _union(_without(ft, (e.t1, e.t2)), frozenset((e.var,)))
    return fp, ft  # Drop


def _without(names: frozenset[str], bound: tuple[str, ...]) -> frozenset[str]:
    return names.difference(bound) if any(b in names for b in bound) else names


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    if len(a) < len(b):
        a, b = b, a
    return a if b <= a else a | b


# ------------------------------------------------------------ sugar builders

def p_var(x: str, supply: NameSupply) -> Expr:
    """The primal variable occurrence: let td = ttup() in (x; td)."""
    z, td = supply.fresh("z"), supply.fresh("td")
    return LetPair(z, td, TanTupIntro0(), PrimTupElim0(z, VarPair(x, td)))


def t_var(t: str, supply: NameSupply) -> Expr:
    z, pd = supply.fresh("p"), supply.fresh("q")
    return LetPair(pd, z, PrimTupIntro0(), TanTupElim0(z, VarPair(pd, t)))


def let_p(x: str, e1: Expr, e2: Expr, supply: NameSupply) -> Expr:
    td = supply.fresh("td")
    return LetPair(x, td, e1, TanTupElim0(td, e2))


def let_t(t: str, e1: Expr, e2: Expr, supply: NameSupply) -> Expr:
    pd = supply.fresh("p")
    return LetPair(pd, t, e1, PrimTupElim0(pd, e2))


def pair_pt(e1: Expr, e2: Expr, supply: NameSupply) -> Expr:
    """(e1; e2): pair a purely primal with a purely tangent expression."""
    x, t = supply.fresh("x"), supply.fresh("t")
    return let_p(x, e1, let_t(t, e2, VarPair(x, t), supply), supply)


def ptup_e(e1: Expr, e2: Expr, supply: NameSupply) -> Expr:
    x, y = supply.fresh("x"), supply.fresh("y")
    return let_p(x, e1, let_p(y, e2, PrimTupIntro2(x, y), supply), supply)


def ttup_e(e1: Expr, e2: Expr, supply: NameSupply) -> Expr:
    a, b = supply.fresh("a"), supply.fresh("b")
    return let_t(a, e1, let_t(b, e2, TanTupIntro2(a, b), supply), supply)


def ttup_vars(names: list[str], supply: NameSupply) -> Expr:
    """The n-fold tangent tuple of variables, nested to the right."""
    if not names:
        return TanTupIntro0()
    if len(names) == 1:
        return t_var(names[0], supply)
    rest = supply.fresh("r")
    return let_t(rest, ttup_vars(names[1:], supply),
                 TanTupIntro2(names[0], rest), supply)


def tan_elim_seq(names: list[str], z: str, body: Expr, supply: NameSupply) -> Expr:
    """let ttup(names) = z in body, per the n-ary destructuring sugar."""
    if not names:
        return TanTupElim0(z, body)
    if len(names) == 1:
        return let_t(names[0], t_var(z, supply), body, supply)
    rest = supply.fresh("r")
    return TanTupElim2(names[0], rest, z,
                       tan_elim_seq(names[1:], rest, body, supply))


def fuse_jax(theta: list[str], part1: list[str], y1: str, y2: str,
             supply: NameSupply) -> Expr:
    """The fusion expression: regroup two tangent tuples into the order
    of theta.  part1 lists the entries carried by y1 (in theta order)."""
    part1_set = set(part1)
    part2 = [t for t in theta if t not in part1_set]
    fresh1 = {t: supply.fresh(t) for t in part1}
    fresh2 = {t: supply.fresh(t) for t in part2}
    out = ttup_vars([(fresh1 | fresh2)[t] for t in theta], supply)
    out = tan_elim_seq([fresh2[t] for t in part2], y2, out, supply)
    return tan_elim_seq([fresh1[t] for t in part1], y1, out, supply)


# -------------------------------------------------------------- matchers

def match_p_var(e: Expr):
    match e:
        case LetPair(z, td, TanTupIntro0(), PrimTupElim0(z2, VarPair(x, td2))) \
                if z == z2 and td == td2:
            return x
    return None


def match_t_var(e: Expr):
    match e:
        case LetPair(pd, z, PrimTupIntro0(), TanTupElim0(z2, VarPair(pd2, t))) \
                if z == z2 and pd == pd2:
            return t
    return None


def match_let_p(e: Expr):
    match e:
        case LetPair(x, td, e1, TanTupElim0(td2, e2)) if td == td2 and \
                td not in fv_tangent(e2):
            return x, e1, e2
    return None


def match_let_t(e: Expr):
    match e:
        case LetPair(pd, t, e1, PrimTupElim0(pd2, e2)) if pd == pd2 and \
                pd not in fv_primal(e2):
            return t, e1, e2
    return None


def is_primal_expr(e: Expr) -> bool:
    frames, tail = spine(e)
    if not all(is_primal_expr(f[2]) for f in frames if f[0] == "letp"):
        return False
    if tail.__class__ is Drop:
        return is_primal_expr(tail.body)
    return (match_p_var(tail) is not None
            or tail.__class__ in (Lit, PrimApp, PrimTupIntro0, PrimTupIntro2))


def is_tangent_expr(e: Expr) -> bool:
    if match_t_var(e) is not None:
        return True
    m = match_let_t(e)
    if m is not None:
        return is_tangent_expr(m[1]) and is_tangent_expr(m[2])
    match e:
        case Dup(_) | ZeroDot(_) | AddDot(_, _) | ScaleDot(_, _):
            return True
        case TanTupIntro0() | TanTupIntro2(_, _):
            return True
        case Drop(body):
            return is_tangent_expr(body)
        case TanTupElim0(_, body) | TanTupElim2(_, _, _, body):
            return is_tangent_expr(body)
        case _:
            return False


def is_linear_b(e: Expr) -> bool:
    frames, tail = spine(e)
    pair = pair_tail(frames, tail)
    return ((pair is not None or tail.__class__ is VarPair)
            and all(is_primal_expr(f[2]) for f in frames if f[0] == "letp")
            and (pair is None or is_tangent_expr(pair[1])))


# -------------------------------------------------------------- let view

def open_frame(e: Expr):
    """The frame that `e` opens along its body position, and its body; None
    if it opens none.  A frame is ("letp", x, e1) for `let x = e1 in`,
    ("pelim0", z) for `let ptup() = z in` or ("pelim2", x1, x2, z)."""
    m = match_let_p(e)
    if m is not None:
        return ("letp", m[0], m[1]), m[2]
    if e.__class__ is PrimTupElim0:
        return ("pelim0", e.var), e.body
    if e.__class__ is PrimTupElim2:
        return ("pelim2", e.x1, e.x2, e.var), e.body
    return None


def spine(e: Expr) -> tuple[list[tuple], Expr]:
    """The frames around `e`'s tail, outermost first, read in one loop,
    and the tail.  A pair (ep; et) is `let x = ep in let_t t = et in
    (x; t)`: its `let_p` is the last frame and its `let_t` the tail, which
    `pair_tail` reads back as the pair."""
    frames = []
    while (step := open_frame(e)) is not None:
        frame, e = step
        frames.append(frame)
    return frames, e


def rebuild(frames, tail: Expr, supply: NameSupply) -> Expr:
    """The inverse of `spine`; each `let_p` draws its fresh name innermost
    first."""
    for frame in reversed(frames):
        match frame:
            case ("letp", x, e1):
                tail = let_p(x, e1, tail, supply)
            case ("pelim0", z):
                tail = PrimTupElim0(z, tail)
            case ("pelim2", x1, x2, z):
                tail = PrimTupElim2(x1, x2, z, tail)
    return tail


def pair_tail(frames, tail: Expr):
    """The halves (ep, et) of the pair that the spine `frames`, `tail`
    ends in, its last frame binding ep; None if it ends in no pair."""
    m = match_let_t(tail)
    if m is None or not frames or frames[-1][0] != "letp":
        return None
    _, x, ep = frames[-1]
    return (ep, m[1]) if m[2] == VarPair(x, m[0]) else None
