"""Encoding of the primal/tangent calculus into the linear calculus.

Primal data maps to exponential tensor sequences, tangent data to with
sequences.  An expression with primal env G and tangent enumeration
theta becomes a term of type

    !rho(G)  |-  !rho(tau) (x) par((&t(theta)) -o t(sigma))

pairing the (duplicable) primal result with an affine linear map that
carries the tangent computation.  The lighter delta_b applies to the
split fragment and mirrors the source shape: purely primal expressions
become primal-sort terms, purely tangent ones bare linear maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from linlog.errors import EnumerationMismatch, LinlogError, NotWithSeq
from linlog.fresh import NameSupply
from linlog.linear_a.expr import (
    AddDot, Drop, Dup, Expr, JaxType, JOne, JProd, JReal, LetPair, Lit,
    PrimApp, PrimTupElim0, PrimTupElim2, PrimTupIntro0, PrimTupIntro2,
    ScaleDot, SortViolation, TanTupElim0, TanTupElim2, TanTupIntro0,
    TanTupIntro2, VarPair, ZeroDot, fv_tangent, match_let_p, match_let_t,
    match_p_var, match_t_var,
)
from linlog.linear_a.transform import decompose_linear_b
from linlog.linear_a.typecheck import infer_types
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PTensor, PUnit, PVar,
    PWith, Term, TensorPair, TimesDot, TopVal, UnitVal, Var, WithPair, Zero,
    let_, para, para_pattern, prim_app, with_pattern, with_tuple,
)
from linlog.lll.types import (
    Bang, LType, Lolli, One, Real, Tensor, Top, With, is_with_seq,
    with_tuple_type,
)


class IndexOutOfRange(LinlogError):
    pass


def tangent_type(t: JaxType) -> LType:
    match t:
        case x if x is JReal:
            return Real
        case x if x is JOne:
            return Top
        case JProd(l, r):
            return With(tangent_type(l), tangent_type(r))
    raise AssertionError(t)


def primal_type(t: JaxType) -> LType:
    match t:
        case x if x is JReal:
            return Real
        case x if x is JOne:
            return One
        case JProd(l, r):
            return Tensor(Bang(primal_type(l)), Bang(primal_type(r)))
    raise AssertionError(t)


@dataclass(frozen=True)
class Enumeration:
    entries: tuple[tuple[str, JaxType], ...] = ()

    @staticmethod
    def of(*entries) -> "Enumeration":
        return Enumeration(tuple(entries))

    def __len__(self):
        return len(self.entries)

    def names(self) -> list[str]:
        return [n for n, _ in self.entries]

    def tangents(self) -> list[tuple[str, LType]]:
        """The entries with the tangent types of their types."""
        return [(n, tangent_type(t)) for n, t in self.entries]

    def position(self, name: str) -> int:
        for i, (n, _) in enumerate(self.entries):
            if n == name:
                return i
        raise EnumerationMismatch(f"{name} not in enumeration")

    def jax_type(self, name: str) -> JaxType:
        return self.entries[self.position(name)][1]

    def restrict(self, names) -> "Enumeration":
        keep = set(names)
        return Enumeration(tuple(e for e in self.entries if e[0] in keep))

    def prepend(self, name: str, ty: JaxType) -> "Enumeration":
        return Enumeration(((name, ty),) + self.entries)

    def remove(self, name: str) -> "Enumeration":
        return Enumeration(tuple(e for e in self.entries if e[0] != name))


# --------------------------------------------------- with-sequence builders

def _check_with_seq(h: LType):
    if not is_with_seq(h):
        raise NotWithSeq(f"{h!r} is not a with-sequence type")


def mk_zero(h: LType) -> Term:
    _check_with_seq(h)
    match h:
        case x if x is Real:
            return Zero()
        case x if x is Top:
            return TopVal()
        case With(l, r):
            return WithPair(mk_zero(l), mk_zero(r))
    raise AssertionError(h)


def with_tree(h: LType, supply: NameSupply, hint: str = "h"):
    """A fresh variable pattern for the with-sequence type h, one variable
    per leaf from left to right: the pattern, its leaves as (name, type)
    pairs, and the term that rebuilds the value it binds."""
    match h:
        case With(l, r):
            pl, vl, tl = with_tree(l, supply, hint)
            pr, vr, tr = with_tree(r, supply, hint)
            return PWith(pl, pr), vl + vr, WithPair(tl, tr)
    n = supply.fresh(hint)
    return PVar(n, h), [(n, h)], Var(n)


def mk_add(h: LType, supply: NameSupply | None = None) -> Term:
    """Pointwise addition, a closed term of type (H & H) -o H."""
    _check_with_seq(h)
    supply = supply or NameSupply()
    p1, v1, _ = with_tree(h, supply, "a")
    p2, v2, _ = with_tree(h, supply, "b")

    def zip_add(ty, i):
        match ty:
            case x if x is Real:
                return App(PlusDot(), WithPair(Var(v1[i][0]), Var(v2[i][0]))), i + 1
            case x if x is Top:
                return TopVal(), i + 1
            case With(l, r):
                a, i = zip_add(l, i)
                b, i = zip_add(r, i)
                return WithPair(a, b), i
        raise AssertionError(ty)

    body, _ = zip_add(h, 0)
    return Abs(PWith(p1, p2), body)


def add_app(h: LType, a: Term, b: Term, supply: NameSupply | None = None) -> Term:
    if h is Real:
        return App(PlusDot(), WithPair(a, b))
    return App(mk_add(h, supply), WithPair(a, b))


def scale_app(h: LType, x: Term, v: Term, supply: NameSupply | None = None) -> Term:
    """x *. v at a with-sequence type, as a term of type H."""
    _check_with_seq(h)
    supply = supply or NameSupply()
    if h is Real:
        return App(App(TimesDot(), x), v)
    p, leaves, _ = with_tree(h, supply, "s")

    def go(ty, i):
        match ty:
            case t if t is Real:
                return App(App(TimesDot(), x), Var(leaves[i][0])), i + 1
            case t if t is Top:
                return TopVal(), i + 1
            case With(l, r):
                a, i = go(l, i)
                b, i = go(r, i)
                return WithPair(a, b), i
        raise AssertionError(ty)

    body, _ = go(h, 0)
    return App(Abs(p, body), v)


def mk_split(index_set, comps: list[LType], supply: NameSupply | None = None) -> Term:
    """sigma_I: &comps -o (&_{i in I} comps) & (&_{not in I} comps)."""
    supply = supply or NameSupply()
    for i in index_set:
        if not 0 <= i < len(comps):
            raise IndexOutOfRange(str(i))
    for c in comps:
        _check_with_seq(c)
    if not comps:
        y = supply.fresh("y")
        return Abs(PVar(y, Top), WithPair(Var(y), TopVal()))
    names = [supply.fresh("x") for _ in comps]
    pat = with_pattern([PVar(n, c) for n, c in zip(names, comps)])
    ins = with_tuple([Var(names[i]) for i in range(len(comps)) if i in index_set])
    outs = with_tuple([Var(names[i]) for i in range(len(comps)) if i not in index_set])
    return Abs(pat, WithPair(ins, outs))


def mk_fuse(index_set, comps: list[LType], supply: NameSupply | None = None) -> Term:
    """sigma-bar_I, the inverse-shaped companion of mk_split."""
    supply = supply or NameSupply()
    for i in index_set:
        if not 0 <= i < len(comps):
            raise IndexOutOfRange(str(i))
    for c in comps:
        _check_with_seq(c)
    inside = [i for i in range(len(comps)) if i in index_set]
    outside = [i for i in range(len(comps)) if i not in index_set]
    names = {i: supply.fresh("x") for i in range(len(comps))}

    def group_pat(ixs):
        if not ixs:
            return PVar(supply.fresh("t"), Top)
        return with_pattern([PVar(names[i], comps[i]) for i in ixs])

    pat = PWith(group_pat(inside), group_pat(outside))
    if not comps:
        # T & T -o T: project the first component
        return Abs(pat, Var(pat.left.name))
    body = with_tuple([Var(names[i]) for i in range(len(comps))])
    return Abs(pat, body)


class TangentCtx:
    """One destructuring of the tangent tuple of an enumeration, given as
    (name, tangent type) pairs: a lambda over the tuple that binds a fresh
    variable to each component."""

    def __init__(self, pairs, supply: NameSupply):
        self.pairs = list(pairs)
        self.yvar = supply.fresh("y")
        self.leaf = {n: supply.fresh(n) for n, _ in self.pairs}

    @staticmethod
    def and_type(pairs) -> LType:
        """The type of the tuple of (name, tangent type) pairs."""
        return with_tuple_type([t for _, t in pairs])

    def lam(self, body: Term) -> Term:
        if not self.pairs:
            return Abs(PVar(self.yvar, Top), body)
        if len(self.pairs) == 1:
            n, t = self.pairs[0]
            return Abs(PVar(self.leaf[n], t), body)
        return self.lam_split(None, None, body)

    def lam_split(self, name, slot: Pattern, body: Term) -> Term:
        """A lambda over the tuple that binds the component `name` by the
        pattern `slot` instead of its variable."""
        tree = with_pattern([slot if n == name else PVar(self.leaf[n], t)
                             for n, t in self.pairs])
        return Abs(PVar(self.yvar, self.and_type(self.pairs)),
                   let_(tree, Var(self.yvar), body))

    def var(self, name: str) -> Term:
        return Var(self.leaf[name])

    def tuple_of(self, names, empty: Term | None = None,
                 comps: dict[str, Term] | None = None) -> Term:
        """The tuple of the components `names`, each its variable unless
        `comps` gives a term for it; `empty` when there are none, by
        default the unit (the whole tuple when the enumeration is empty)."""
        if not names:
            if empty is not None:
                return empty
            return Var(self.yvar) if not self.pairs else TopVal()
        comps = comps or {}
        return with_tuple([comps[n] if n in comps else self.var(n)
                           for n in names])


# ----------------------------------------------------------- delta proper

def _bang_pair_pat(x: str, xty: JaxType, f: str, fty: LType) -> Pattern:
    return PTensor(PBang(x, primal_type(xty)), para_pattern(PVar(f, fty)))


def _map_type(theta: Enumeration, out: LType) -> LType:
    return Lolli(TangentCtx.and_type(theta.tangents()), out)


def _split_lam(ctx: TangentCtx, zd: str, tz: JProd, rest: Enumeration,
               f: str, supply: NameSupply) -> Term:
    """The tangent map that splits the zd component of the tuple into its
    two halves in place and passes them, then the rest, to f."""
    a, b = supply.fresh("c"), supply.fresh("c")
    halves = PWith(PVar(a, tangent_type(tz.left)),
                   PVar(b, tangent_type(tz.right)))
    arg = with_tuple([Var(a), Var(b)] + [ctx.var(n) for n in rest.names()])
    return ctx.lam_split(zd, halves, App(Var(f), arg))


def delta(penv: dict[str, JaxType], theta: Enumeration, e: Expr,
          supply: NameSupply) -> Term:
    if set(theta.names()) != set(fv_tangent(e)):
        raise EnumerationMismatch(
            f"enumeration {theta.names()} vs free tangents {sorted(fv_tangent(e))}")
    return _delta(dict(penv), theta, e, supply)


def _tenv(theta: Enumeration):
    return {n: t for n, t in theta.entries}


def _delta(penv, theta: Enumeration, e: Expr, supply: NameSupply) -> Term:
    match e:
        case VarPair(x, _):
            ctx = TangentCtx(theta.tangents(), supply)
            return TensorPair(BangVal(Var(x)), para(ctx.lam(ctx.var(theta.names()[0]))))

        case LetPair(x, yd, e1, e2):
            ty1, sg1 = infer_types(e1, penv, _tenv(theta.restrict(fv_tangent(e1))))
            th1 = theta.restrict(fv_tangent(e1))
            th2 = theta.restrict(fv_tangent(e2) - {yd})
            inner = th2.prepend(yd, sg1)
            d1 = _delta(penv, th1, e1, supply)
            d2 = _delta(penv | {x: ty1}, inner, e2, supply)
            ty2, sg2 = infer_types(e2, penv | {x: ty1}, _tenv(inner))
            f, g, z = supply.fresh("f"), supply.fresh("g"), supply.fresh("z")
            ctx = TangentCtx(theta.tangents(), supply)
            farg = ctx.tuple_of(th1.names())
            garg = App(Var(f), farg)
            if len(th2):
                garg = WithPair(garg, ctx.tuple_of(th2.names()))
            body = ctx.lam(App(Var(g), garg))
            out = TensorPair(BangVal(Var(z)), para(body))
            out = let_(_bang_pair_pat(z, ty2, g, _map_type(inner, tangent_type(sg2))),
                       d2, out)
            return let_(_bang_pair_pat(x, ty1, f, _map_type(th1, tangent_type(sg1))),
                        d1, out)

        case PrimTupIntro0() | TanTupIntro0():
            ctx = TangentCtx(theta.tangents(), supply)
            return TensorPair(BangVal(UnitVal()), para(ctx.lam(TopVal())))

        case PrimTupIntro2(x1, x2):
            ctx = TangentCtx(theta.tangents(), supply)
            return TensorPair(BangVal(TensorPair(BangVal(Var(x1)), BangVal(Var(x2)))),
                              para(ctx.lam(TopVal())))

        case PrimTupElim0(z, body):
            return let_(PUnit(), Var(z), _delta(penv, theta, body, supply))

        case PrimTupElim2(x1, x2, z, body):
            tz = penv[z]
            inner = _delta(penv | {x1: tz.left, x2: tz.right}, theta, body, supply)
            pat = PTensor(PBang(x1, primal_type(tz.left)),
                          PBang(x2, primal_type(tz.right)))
            return let_(pat, Var(z), inner)

        case TanTupIntro2(t1, t2):
            ctx = TangentCtx(theta.tangents(), supply)
            return TensorPair(BangVal(UnitVal()),
                              para(ctx.lam(ctx.tuple_of([t1, t2]))))

        case TanTupElim0(zd, body):
            rest = theta.remove(zd)
            d = _delta(penv, rest, body, supply)
            _ty, sg = infer_types(body, penv, _tenv(rest))
            x, f = supply.fresh("x"), supply.fresh("f")
            ctx = TangentCtx(theta.tangents(), supply)
            arg = ctx.tuple_of(rest.names(),
                               empty=ctx.var(zd) if theta.entries else None)
            out = TensorPair(BangVal(Var(x)), para(ctx.lam(App(Var(f), arg))))
            return let_(_bang_pair_pat(x, _ty, f, _map_type(rest, tangent_type(sg))),
                        d, out)

        case TanTupElim2(t1, t2, zd, body):
            tz = theta.jax_type(zd)
            rest = theta.remove(zd)
            inner_enum = Enumeration(((t1, tz.left), (t2, tz.right))
                                     + rest.entries)
            d = _delta(penv, inner_enum, body, supply)
            _ty, sg = infer_types(body, penv, _tenv(inner_enum))
            x, f = supply.fresh("x"), supply.fresh("f")
            ctx = TangentCtx(theta.tangents(), supply)
            body_t = _split_lam(ctx, zd, tz, rest, f, supply)
            out = TensorPair(BangVal(Var(x)), para(body_t))
            return let_(_bang_pair_pat(x, _ty, f,
                                       _map_type(inner_enum, tangent_type(sg))),
                        d, out)

        case Lit(r):
            ctx = TangentCtx(theta.tangents(), supply)
            return TensorPair(BangVal(Numeral(r)), para(ctx.lam(TopVal())))

        case PrimApp(fn, args):
            ctx = TangentCtx(theta.tangents(), supply)
            return TensorPair(prim_app(fn, [BangVal(Var(a)) for a in args]),
                              para(ctx.lam(TopVal())))

        case ZeroDot(sg):
            ctx = TangentCtx(theta.tangents(), supply)
            return TensorPair(BangVal(UnitVal()),
                              para(ctx.lam(mk_zero(tangent_type(sg)))))

        case AddDot(t1, t2):
            h = tangent_type(theta.jax_type(t1))
            ctx = TangentCtx(theta.tangents(), supply)
            body = add_app(h, ctx.var(t1), ctx.var(t2), supply)
            return TensorPair(BangVal(UnitVal()), para(ctx.lam(body)))

        case ScaleDot(x, t):
            h = tangent_type(theta.jax_type(t))
            ctx = TangentCtx(theta.tangents(), supply)
            body = scale_app(h, Var(x), ctx.var(t), supply)
            return TensorPair(BangVal(UnitVal()), para(ctx.lam(body)))

        case Dup(t):
            ctx = TangentCtx(theta.tangents(), supply)
            v = ctx.var(t)
            return TensorPair(BangVal(UnitVal()), para(ctx.lam(WithPair(v, v))))

        case Drop(body):
            d = _delta(penv, theta, body, supply)
            ty, sg = infer_types(body, penv, _tenv(theta))
            x, f, z = supply.fresh("x"), supply.fresh("f"), supply.fresh("z")
            ctx = TangentCtx(theta.tangents(), supply)
            inner = let_(PVar(z, tangent_type(sg)),
                         App(Var(f), ctx.tuple_of(theta.names())), TopVal())
            out = TensorPair(BangVal(UnitVal()), para(ctx.lam(inner)))
            return let_(_bang_pair_pat(x, ty, f, _map_type(theta, tangent_type(sg))),
                        d, out)

    raise AssertionError(e)


# ----------------------------------------------------------- delta_b

def delta_b_primal(penv: dict[str, JaxType], ep: Expr, supply: NameSupply) -> Term:
    """Primal-sort image of a purely primal expression."""
    return _delta_bp(ep, dict(penv), supply)


def delta_b(penv: dict[str, JaxType], theta: Enumeration, d: Expr,
            supply: NameSupply) -> Term:
    """Translation of a Linear B expression; the primal and tangent
    sub-translations are exposed via delta_b_parts."""
    stack, ep, et = decompose_linear_b(d, supply)
    penv = dict(penv)
    out_p: list = []
    for frame in stack:
        match frame:
            case ("letp", x, e1):
                ty, _ = infer_types(e1, penv, {})
                out_p.append(("bang", x, ty, _delta_bp(e1, penv, supply)))
                penv[x] = ty
            case ("pelim0", z):
                out_p.append(("unit", z))
            case ("pelim2", x1, x2, z):
                tz = penv[z]
                penv[x1], penv[x2] = tz.left, tz.right
                out_p.append(("pair", x1, x2, z, tz))
    core_p = _delta_bp(ep, penv, supply)
    core_t = _delta_bt(et, penv, theta, supply)
    core = TensorPair(core_p, para(core_t))
    for frame in reversed(out_p):
        match frame:
            case ("bang", x, ty, tm):
                core = let_(PBang(x, primal_type(ty)), tm, core)
            case ("unit", z):
                core = let_(PUnit(), Var(z), core)
            case ("pair", x1, x2, z, tz):
                pat = PTensor(PBang(x1, primal_type(tz.left)),
                              PBang(x2, primal_type(tz.right)))
                core = let_(pat, Var(z), core)
    return core


def _delta_bp(ep: Expr, penv, supply: NameSupply) -> Term:
    x = match_p_var(ep)
    if x is not None:
        return BangVal(Var(x))
    m = match_let_p(ep)
    if m is not None:
        x, e1, e2 = m
        ty1, _ = infer_types(e1, penv, {})
        return let_(PBang(x, primal_type(ty1)), _delta_bp(e1, penv, supply),
                    _delta_bp(e2, penv | {x: ty1}, supply))
    match ep:
        case Lit(r):
            return BangVal(Numeral(r))
        case PrimApp(f, args):
            return prim_app(f, [BangVal(Var(a)) for a in args])
        case PrimTupIntro0():
            return BangVal(UnitVal())
        case PrimTupIntro2(x1, x2):
            return BangVal(TensorPair(BangVal(Var(x1)), BangVal(Var(x2))))
        case PrimTupElim0(z, body):
            return let_(PUnit(), Var(z), _delta_bp(body, penv, supply))
        case PrimTupElim2(x1, x2, z, body):
            tz = penv[z]
            pat = PTensor(PBang(x1, primal_type(tz.left)),
                          PBang(x2, primal_type(tz.right)))
            return let_(pat, Var(z),
                        _delta_bp(body, penv | {x1: tz.left, x2: tz.right}, supply))
        case Drop(body):
            ty, _ = infer_types(body, penv, {})
            x = supply.fresh("x")
            return let_(PBang(x, primal_type(ty)), _delta_bp(body, penv, supply),
                        BangVal(UnitVal()))
    raise SortViolation(f"not a purely primal expression: {ep!r}")


def _section_let(f: str, fty: LType, rhs: Term, body: Term) -> Term:
    return let_(para_pattern(PVar(f, fty)), para(rhs), body)


def _delta_bt(et: Expr, penv, theta: Enumeration, supply: NameSupply) -> Term:
    xd = match_t_var(et)
    if xd is not None:
        if theta.names() != [xd]:
            raise EnumerationMismatch(f"{theta.names()} vs variable {xd}")
        ctx = TangentCtx(theta.tangents(), supply)
        return ctx.lam(ctx.var(xd))

    m = match_let_t(et)
    if m is not None:
        yd, e1, e2 = m
        th1 = theta.restrict(fv_tangent(e1))
        _, sg1 = infer_types(e1, penv, _tenv(th1))
        th2 = theta.restrict(fv_tangent(e2) - {yd})
        inner = th2.prepend(yd, sg1)
        _, sg2 = infer_types(e2, penv, _tenv(inner))
        f, g = supply.fresh("f"), supply.fresh("g")
        ctx = TangentCtx(theta.tangents(), supply)
        garg = App(Var(f), ctx.tuple_of(th1.names()))
        if len(th2):
            garg = WithPair(garg, ctx.tuple_of(th2.names()))
        body = ctx.lam(App(Var(g), garg))
        return _section_let(
            f, _map_type(th1, tangent_type(sg1)), _delta_bt(e1, penv, th1, supply),
            _section_let(
                g, _map_type(inner, tangent_type(sg2)),
                _delta_bt(e2, penv, inner, supply), body))

    match et:
        case TanTupIntro0():
            ctx = TangentCtx(theta.tangents(), supply)
            return ctx.lam(TopVal())
        case TanTupIntro2(t1, t2):
            ctx = TangentCtx(theta.tangents(), supply)
            return ctx.lam(ctx.tuple_of([t1, t2]))
        case TanTupElim0(zd, body):
            rest = theta.remove(zd)
            f = supply.fresh("f")
            _, sg = infer_types(body, penv, _tenv(rest))
            ctx = TangentCtx(theta.tangents(), supply)
            arg = ctx.tuple_of(rest.names(),
                               empty=ctx.var(zd) if theta.entries else None)
            return _section_let(
                f, _map_type(rest, tangent_type(sg)),
                _delta_bt(body, penv, rest, supply),
                ctx.lam(App(Var(f), arg)))
        case TanTupElim2(t1, t2, zd, body):
            tz = theta.jax_type(zd)
            rest = theta.remove(zd)
            inner = Enumeration(((t1, tz.left), (t2, tz.right)) + rest.entries)
            _, sg = infer_types(body, penv, _tenv(inner))
            f = supply.fresh("f")
            ctx = TangentCtx(theta.tangents(), supply)
            lam = _split_lam(ctx, zd, tz, rest, f, supply)
            return _section_let(f, _map_type(inner, tangent_type(sg)),
                                _delta_bt(body, penv, inner, supply), lam)
        case Dup(t):
            ctx = TangentCtx(theta.tangents(), supply)
            v = ctx.var(t)
            return ctx.lam(WithPair(v, v))
        case ZeroDot(sg):
            ctx = TangentCtx(theta.tangents(), supply)
            return ctx.lam(mk_zero(tangent_type(sg)))
        case AddDot(t1, t2):
            h = tangent_type(theta.jax_type(t1))
            ctx = TangentCtx(theta.tangents(), supply)
            return ctx.lam(add_app(h, ctx.var(t1), ctx.var(t2), supply))
        case ScaleDot(x, t):
            h = tangent_type(theta.jax_type(t))
            ctx = TangentCtx(theta.tangents(), supply)
            return ctx.lam(scale_app(h, Var(x), ctx.var(t), supply))
        case Drop(body):
            _, sg = infer_types(body, penv, _tenv(theta))
            f, z = supply.fresh("f"), supply.fresh("z")
            ctx = TangentCtx(theta.tangents(), supply)
            inner = let_(PVar(z, tangent_type(sg)),
                         App(Var(f), ctx.tuple_of(theta.names())), TopVal())
            return _section_let(f, _map_type(theta, tangent_type(sg)),
                                _delta_bt(body, penv, theta, supply),
                                ctx.lam(inner))
    raise SortViolation(f"not a purely tangent expression: {et!r}")
