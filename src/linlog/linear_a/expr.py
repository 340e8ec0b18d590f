"""Core expressions of the primal/tangent calculus.

Primal variables may be shared and dropped; tangent variables are
linear, modified only by the dotted operators.  Surface sugar (primal
and tangent lets, expression-level pairs and tuples) is desugared by the
builders below into the core constructors; the matchers recognise the
canonical images so the transformations can be stated on the sugar
level.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class VarPair(Expr):
    primal: str
    tangent: str


@dataclass(frozen=True)
class LetPair(Expr):
    primal: str
    tangent: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class PrimTupIntro0(Expr):
    pass


@dataclass(frozen=True)
class PrimTupIntro2(Expr):
    x1: str
    x2: str


@dataclass(frozen=True)
class PrimTupElim0(Expr):
    var: str
    body: Expr


@dataclass(frozen=True)
class PrimTupElim2(Expr):
    x1: str
    x2: str
    var: str
    body: Expr


@dataclass(frozen=True)
class TanTupIntro0(Expr):
    pass


@dataclass(frozen=True)
class TanTupIntro2(Expr):
    t1: str
    t2: str


@dataclass(frozen=True)
class TanTupElim0(Expr):
    var: str
    body: Expr


@dataclass(frozen=True)
class TanTupElim2(Expr):
    t1: str
    t2: str
    var: str
    body: Expr


@dataclass(frozen=True)
class Lit(Expr):
    value: float


@dataclass(frozen=True)
class PrimApp(Expr):
    fn: PrimId
    args: tuple[str, ...]


@dataclass(frozen=True)
class ZeroDot(Expr):
    ty: JaxType


@dataclass(frozen=True)
class AddDot(Expr):
    t1: str
    t2: str


@dataclass(frozen=True)
class ScaleDot(Expr):
    primal: str
    tangent: str


@dataclass(frozen=True)
class Dup(Expr):
    tangent: str


@dataclass(frozen=True)
class Drop(Expr):
    body: Expr


def fv_primal(e: Expr) -> frozenset[str]:
    match e:
        case VarPair(x, _):
            return frozenset((x,))
        case LetPair(x, _, b, body):
            return fv_primal(b) | (fv_primal(body) - {x})
        case PrimTupIntro2(x1, x2):
            return frozenset((x1, x2))
        case PrimTupElim0(z, body):
            return fv_primal(body) | {z}
        case PrimTupElim2(x1, x2, z, body):
            return (fv_primal(body) - {x1, x2}) | {z}
        case TanTupElim0(_, body) | TanTupElim2(_, _, _, body) | Drop(body):
            return fv_primal(body)
        case PrimApp(_, args):
            return frozenset(args)
        case ScaleDot(x, _):
            return frozenset((x,))
        case _:
            return frozenset()


def fv_tangent(e: Expr) -> frozenset[str]:
    match e:
        case VarPair(_, t):
            return frozenset((t,))
        case LetPair(_, t, b, body):
            return fv_tangent(b) | (fv_tangent(body) - {t})
        case TanTupIntro2(t1, t2):
            return frozenset((t1, t2))
        case TanTupElim0(z, body):
            return fv_tangent(body) | {z}
        case TanTupElim2(t1, t2, z, body):
            return (fv_tangent(body) - {t1, t2}) | {z}
        case PrimTupElim0(_, body) | PrimTupElim2(_, _, _, body) | Drop(body):
            return fv_tangent(body)
        case AddDot(t1, t2):
            return frozenset((t1, t2))
        case ScaleDot(_, t) | Dup(t):
            return frozenset((t,))
        case _:
            return frozenset()


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


def match_pair_pt(e: Expr):
    m = match_let_p(e)
    if m is not None:
        x, e1, rest = m
        m2 = match_let_t(rest)
        if m2 is not None:
            t, e2, leaf = m2
            if leaf == VarPair(x, t):
                return e1, e2
    return None


def is_primal_expr(e: Expr) -> bool:
    if match_p_var(e) is not None:
        return True
    m = match_let_p(e)
    if m is not None:
        return is_primal_expr(m[1]) and is_primal_expr(m[2])
    match e:
        case Lit(_) | PrimApp(_, _) | PrimTupIntro0() | PrimTupIntro2(_, _):
            return True
        case Drop(body):
            return is_primal_expr(body)
        case PrimTupElim0(_, body) | PrimTupElim2(_, _, _, body):
            return is_primal_expr(body)
        case _:
            return False


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
    if match_pair_pt(e) is not None:
        p, t = match_pair_pt(e)
        return is_primal_expr(p) and is_tangent_expr(t)
    if isinstance(e, VarPair):
        return True
    m = match_let_p(e)
    if m is not None:
        return is_primal_expr(m[1]) and is_linear_b(m[2])
    match e:
        case PrimTupElim0(_, body) | PrimTupElim2(_, _, _, body):
            return is_linear_b(body)
        case _:
            return False
