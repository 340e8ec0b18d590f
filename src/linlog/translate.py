"""Encoding of the primal/tangent calculus into the linear calculus.

Primal data maps to exponential tensor sequences, tangent data to with
sequences.  An expression with primal env G and tangent enumeration
theta becomes a term of type

    !rho(G)  |-  !rho(tau) (x) par((&t(theta)) -o t(sigma))

pairing the (duplicable) primal result with an affine linear map that
carries the tangent computation.  An enumeration theta is a list of
(name, type) pairs.  The lighter delta_b applies to the split fragment
and mirrors the source shape: purely primal expressions become
primal-sort terms, purely tangent ones bare linear maps.  On a purely
primal or purely tangent construct, delta is delta_b's image paired with
a trivial other half.
"""

from __future__ import annotations

from linlog.errors import EnumerationMismatch, NotWithSeq
from linlog.fresh import NameSupply
from linlog.linear_a.expr import (
    AddDot, Drop, Dup, Expr, JaxType, JOne, JProd, JReal, LetPair, Lit,
    PrimApp, PrimTupElim0, PrimTupElim2, PrimTupIntro0, PrimTupIntro2,
    ScaleDot, SortViolation, TanTupElim0, TanTupElim2, TanTupIntro0,
    TanTupIntro2, VarPair, ZeroDot, fv_tangent, match_let_t, match_p_var,
    match_t_var, open_frame, pair_tail, spine,
)
from linlog.linear_a.typecheck import frame_bindings, infer_types
from linlog.lll.lets import rebuild
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PTensor, PUnit, PVar,
    PWith, Term, TensorPair, TimesDot, TopVal, UnitVal, Var, WithPair, Zero,
    let_, para, para_pattern, prim_app, with_pattern, with_tuple,
)
from linlog.lll.types import (
    Bang, LType, Lolli, One, Real, Tensor, Top, With, is_with_seq,
    with_tuple_type,
)


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


def names(theta) -> list[str]:
    """The names of an enumeration, in its order."""
    return [n for n, _ in theta]


def restrict(theta, keep) -> list:
    """The entries of an enumeration whose names are in `keep`."""
    return [(n, t) for n, t in theta if n in keep]


def tangents(theta) -> list[tuple[str, LType]]:
    """The entries with the tangent types of their types."""
    return [(n, tangent_type(t)) for n, t in theta]


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


def _map_type(theta, out: LType) -> LType:
    return Lolli(TangentCtx.and_type(tangents(theta)), out)


def _split_lam(ctx: TangentCtx, zd: str, tz: JProd, rest, f: str,
               supply: NameSupply) -> Term:
    """The tangent map that splits the zd component of the tuple into its
    two halves in place and passes them, then the rest, to f."""
    a, b = supply.fresh("c"), supply.fresh("c")
    halves = PWith(PVar(a, tangent_type(tz.left)),
                   PVar(b, tangent_type(tz.right)))
    arg = with_tuple([Var(a), Var(b)] + [ctx.var(n) for n in names(rest)])
    return ctx.lam_split(zd, halves, App(Var(f), arg))


def _primal_let(frame, penv, supply: NameSupply) -> tuple[Pattern, Term]:
    """The let (pattern, right-hand side) that a primal frame of
    `expr.spine` translates to; adds the frame's bindings to `penv`."""
    binds = frame_bindings(frame, penv)
    bangs = [PBang(x, primal_type(t)) for x, t in binds.items()]
    if frame[0] == "letp":
        let = bangs[0], delta_b_primal(penv, frame[2], supply)
    else:  # a tuple elimination binds 0 or 2 names
        let = (PTensor(*bangs) if bangs else PUnit()), Var(frame[-1])
    penv.update(binds)
    return let


def delta(penv: dict[str, JaxType], theta: list[tuple[str, JaxType]],
          e: Expr, supply: NameSupply) -> Term:
    if set(names(theta)) != set(fv_tangent(e)):
        raise EnumerationMismatch(
            f"enumeration {names(theta)} vs free tangents {sorted(fv_tangent(e))}")
    return _delta(dict(penv), theta, e, supply)


def _delta(penv, theta, e: Expr, supply: NameSupply) -> Term:
    match e:
        case Lit(_) | PrimApp(_, _) | PrimTupIntro0() | PrimTupIntro2(_, _):
            ctx = TangentCtx(tangents(theta), supply)
            return TensorPair(delta_b_primal(penv, e, supply),
                              para(ctx.lam(TopVal())))

        case TanTupIntro0() | TanTupIntro2(_, _) | ZeroDot(_) | AddDot(_, _) | \
                ScaleDot(_, _) | Dup(_):
            return TensorPair(BangVal(UnitVal()),
                              para(_delta_bt(e, penv, theta, supply)))

        case VarPair(x, _):
            ctx = TangentCtx(tangents(theta), supply)
            return TensorPair(BangVal(Var(x)), para(ctx.lam(ctx.var(theta[0][0]))))

        case LetPair(x, yd, e1, e2):
            th1 = restrict(theta, fv_tangent(e1))
            ty1, sg1 = infer_types(e1, penv, dict(th1))
            th2 = restrict(theta, fv_tangent(e2) - {yd})
            inner = [(yd, sg1)] + th2
            d1 = _delta(penv, th1, e1, supply)
            d2 = _delta(penv | {x: ty1}, inner, e2, supply)
            ty2, sg2 = infer_types(e2, penv | {x: ty1}, dict(inner))
            f, g, z = supply.fresh("f"), supply.fresh("g"), supply.fresh("z")
            ctx = TangentCtx(tangents(theta), supply)
            garg = App(Var(f), ctx.tuple_of(names(th1)))
            if th2:
                garg = WithPair(garg, ctx.tuple_of(names(th2)))
            body = ctx.lam(App(Var(g), garg))
            out = TensorPair(BangVal(Var(z)), para(body))
            out = let_(_bang_pair_pat(z, ty2, g, _map_type(inner, tangent_type(sg2))),
                       d2, out)
            return let_(_bang_pair_pat(x, ty1, f, _map_type(th1, tangent_type(sg1))),
                        d1, out)

        case PrimTupElim0() | PrimTupElim2():
            frame, body = open_frame(e)
            penv = dict(penv)
            pat, rhs = _primal_let(frame, penv, supply)
            return let_(pat, rhs, _delta(penv, theta, body, supply))

        case TanTupElim0(zd, body):
            rest = [en for en in theta if en[0] != zd]
            d = _delta(penv, rest, body, supply)
            _ty, sg = infer_types(body, penv, dict(rest))
            x, f = supply.fresh("x"), supply.fresh("f")
            ctx = TangentCtx(tangents(theta), supply)
            arg = ctx.tuple_of(names(rest), empty=ctx.var(zd) if theta else None)
            out = TensorPair(BangVal(Var(x)), para(ctx.lam(App(Var(f), arg))))
            return let_(_bang_pair_pat(x, _ty, f, _map_type(rest, tangent_type(sg))),
                        d, out)

        case TanTupElim2(t1, t2, zd, body):
            tz = dict(theta)[zd]
            rest = [en for en in theta if en[0] != zd]
            inner = [(t1, tz.left), (t2, tz.right)] + rest
            d = _delta(penv, inner, body, supply)
            _ty, sg = infer_types(body, penv, dict(inner))
            x, f = supply.fresh("x"), supply.fresh("f")
            ctx = TangentCtx(tangents(theta), supply)
            body_t = _split_lam(ctx, zd, tz, rest, f, supply)
            out = TensorPair(BangVal(Var(x)), para(body_t))
            return let_(_bang_pair_pat(x, _ty, f, _map_type(inner, tangent_type(sg))),
                        d, out)

        case Drop(body):
            d = _delta(penv, theta, body, supply)
            ty, sg = infer_types(body, penv, dict(theta))
            x, f, z = supply.fresh("x"), supply.fresh("f"), supply.fresh("z")
            ctx = TangentCtx(tangents(theta), supply)
            inner = let_(PVar(z, tangent_type(sg)),
                         App(Var(f), ctx.tuple_of(names(theta))), TopVal())
            out = TensorPair(BangVal(UnitVal()), para(ctx.lam(inner)))
            return let_(_bang_pair_pat(x, ty, f, _map_type(theta, tangent_type(sg))),
                        d, out)

    raise AssertionError(e)


# ----------------------------------------------------------- delta_b

def delta_b(penv: dict[str, JaxType], theta: list[tuple[str, JaxType]],
            d: Expr, supply: NameSupply) -> Term:
    """Translation of a Linear B expression: its primal lets and
    eliminations over the pair of the images of its primal and tangent
    parts."""
    frames, tail = spine(d)
    pair = pair_tail(frames, tail)
    if pair is not None:
        frames = frames[:-1]
    elif tail.__class__ is not VarPair:
        raise SortViolation(f"not in the Linear B fragment: {tail!r}")
    penv = dict(penv)
    lets = [_primal_let(frame, penv, supply) for frame in frames]
    if pair is None:
        return rebuild(lets, _delta(penv, theta, tail, supply))
    return rebuild(lets, TensorPair(delta_b_primal(penv, pair[0], supply),
                                    para(_delta_bt(pair[1], penv, theta, supply))))


def delta_b_primal(penv: dict[str, JaxType], ep: Expr, supply: NameSupply) -> Term:
    """Primal-sort image of a purely primal expression."""
    frames, tail = spine(ep)
    if frames:
        penv = dict(penv)
    lets = [_primal_let(frame, penv, supply) for frame in frames]
    x = match_p_var(tail)
    if x is not None:
        return rebuild(lets, BangVal(Var(x)))
    match tail:
        case Lit(r):
            out = BangVal(Numeral(r))
        case PrimApp(f, args):
            out = prim_app(f, [BangVal(Var(a)) for a in args])
        case PrimTupIntro0():
            out = BangVal(UnitVal())
        case PrimTupIntro2(x1, x2):
            out = BangVal(TensorPair(BangVal(Var(x1)), BangVal(Var(x2))))
        case Drop(body):
            ty, _ = infer_types(body, penv, {})
            x = supply.fresh("x")
            out = let_(PBang(x, primal_type(ty)),
                       delta_b_primal(penv, body, supply), BangVal(UnitVal()))
        case _:
            raise SortViolation(f"not a purely primal expression: {tail!r}")
    return rebuild(lets, out)


def _section_let(f: str, fty: LType, rhs: Term, body: Term) -> Term:
    return let_(para_pattern(PVar(f, fty)), para(rhs), body)


def _delta_bt(et: Expr, penv, theta, supply: NameSupply) -> Term:
    xd = match_t_var(et)
    if xd is not None:
        if names(theta) != [xd]:
            raise EnumerationMismatch(f"{names(theta)} vs variable {xd}")
        ctx = TangentCtx(tangents(theta), supply)
        return ctx.lam(ctx.var(xd))

    m = match_let_t(et)
    if m is not None:
        yd, e1, e2 = m
        th1 = restrict(theta, fv_tangent(e1))
        _, sg1 = infer_types(e1, penv, dict(th1))
        th2 = restrict(theta, fv_tangent(e2) - {yd})
        inner = [(yd, sg1)] + th2
        _, sg2 = infer_types(e2, penv, dict(inner))
        f, g = supply.fresh("f"), supply.fresh("g")
        ctx = TangentCtx(tangents(theta), supply)
        garg = App(Var(f), ctx.tuple_of(names(th1)))
        if th2:
            garg = WithPair(garg, ctx.tuple_of(names(th2)))
        body = ctx.lam(App(Var(g), garg))
        return _section_let(
            f, _map_type(th1, tangent_type(sg1)), _delta_bt(e1, penv, th1, supply),
            _section_let(
                g, _map_type(inner, tangent_type(sg2)),
                _delta_bt(e2, penv, inner, supply), body))

    match et:
        case TanTupIntro0():
            ctx = TangentCtx(tangents(theta), supply)
            return ctx.lam(TopVal())
        case TanTupIntro2(t1, t2):
            ctx = TangentCtx(tangents(theta), supply)
            return ctx.lam(ctx.tuple_of([t1, t2]))
        case TanTupElim0(zd, body):
            rest = [en for en in theta if en[0] != zd]
            f = supply.fresh("f")
            _, sg = infer_types(body, penv, dict(rest))
            ctx = TangentCtx(tangents(theta), supply)
            arg = ctx.tuple_of(names(rest), empty=ctx.var(zd) if theta else None)
            return _section_let(
                f, _map_type(rest, tangent_type(sg)),
                _delta_bt(body, penv, rest, supply),
                ctx.lam(App(Var(f), arg)))
        case TanTupElim2(t1, t2, zd, body):
            tz = dict(theta)[zd]
            rest = [en for en in theta if en[0] != zd]
            inner = [(t1, tz.left), (t2, tz.right)] + rest
            _, sg = infer_types(body, penv, dict(inner))
            f = supply.fresh("f")
            ctx = TangentCtx(tangents(theta), supply)
            lam = _split_lam(ctx, zd, tz, rest, f, supply)
            return _section_let(f, _map_type(inner, tangent_type(sg)),
                                _delta_bt(body, penv, inner, supply), lam)
        case Dup(t):
            ctx = TangentCtx(tangents(theta), supply)
            v = ctx.var(t)
            return ctx.lam(WithPair(v, v))
        case ZeroDot(sg):
            ctx = TangentCtx(tangents(theta), supply)
            return ctx.lam(mk_zero(tangent_type(sg)))
        case AddDot(t1, t2):
            h = tangent_type(dict(theta)[t1])
            ctx = TangentCtx(tangents(theta), supply)
            return ctx.lam(add_app(h, ctx.var(t1), ctx.var(t2), supply))
        case ScaleDot(x, t):
            h = tangent_type(dict(theta)[t])
            ctx = TangentCtx(tangents(theta), supply)
            return ctx.lam(scale_app(h, Var(x), ctx.var(t), supply))
        case Drop(body):
            _, sg = infer_types(body, penv, dict(theta))
            f, z = supply.fresh("f"), supply.fresh("z")
            ctx = TangentCtx(tangents(theta), supply)
            inner = let_(PVar(z, tangent_type(sg)),
                         App(Var(f), ctx.tuple_of(names(theta))), TopVal())
            return _section_let(f, _map_type(theta, tangent_type(sg)),
                                _delta_bt(body, penv, theta, supply),
                                ctx.lam(inner))
    raise SortViolation(f"not a purely tangent expression: {et!r}")
