"""Forward, unzipping and transpose on the primal/tangent calculus.

Forward pairs every primal with a tangent sibling, inserting dup
preludes where a primal is shared.  Unzipping commutes all primal lets
to the front, leaving a pair of a purely primal and a purely tangent
expression.  Transpose reverses purely tangent expressions against an
output cotangent, producing the tuple of input cotangents in
enumeration order.
"""

from __future__ import annotations

from linlog.fresh import NameSupply
from linlog.linear_a.expr import (
    AddDot, Drop, Dup, Expr, JaxType, JProd, LetPair, Lit, PrimApp,
    PrimTupElim0, PrimTupElim2, PrimTupIntro0, PrimTupIntro2, ScaleDot,
    SortViolation, TanTupElim0, TanTupElim2, TanTupIntro0, TanTupIntro2,
    VarPair, ZeroDot, fv_primal, fv_tangent, let_p, let_t, match_let_p,
    match_let_t, match_p_var, match_pair_pt, match_t_var, pair_pt, prod_of,
    p_var, t_var, tan_elim_seq, ttup_vars, fuse_jax,
)
from linlog.linear_a.expr import JReal
from linlog.linear_a.typecheck import infer_types
from linlog.lll.prims import partial_of


# ---------------------------------------------------------------- forward

def jax_forward(phi: dict[str, str], ep: Expr, supply: NameSupply) -> Expr:
    """phi maps each free primal of the purely primal `ep` to a fresh
    tangent name; the result pairs ep's value with its derivative."""
    missing = fv_primal(ep) - set(phi)
    if missing:
        raise SortViolation(f"phi does not cover {sorted(missing)}")
    return _fwd({x: phi[x] for x in phi if x in fv_primal(ep)}, ep, supply)


def _dup_prelude(tangent: str, count: int, supply: NameSupply):
    """Split one tangent into `count` siblings; returns (wrap, names)."""
    if count == 1:
        return (lambda e: e), [tangent]
    names, wraps = [], []
    cur = tangent
    for _ in range(count - 1):
        a, w, rest = supply.fresh("a"), supply.fresh("w"), supply.fresh("v")
        wraps.append((a, cur, w, rest))
        names.append(w)
        cur = rest
    names.append(cur)

    def wrap(e):
        for a, src, w, rest in reversed(wraps):
            e = let_t(a, Dup(src), TanTupElim2(w, rest, a, e), supply)
        return e

    return wrap, names


def _fwd(phi: dict[str, str], ep: Expr, supply: NameSupply) -> Expr:
    x = match_p_var(ep)
    if x is not None:
        return VarPair(x, phi[x])

    m = match_let_p(ep)
    if m is not None:
        x, e1, e2 = m
        fv1, fv2_all = fv_primal(e1), fv_primal(e2)
        fv2 = fv2_all - {x}
        shared = [z for z in phi if z in fv1 and z in fv2]
        phi1 = {z: phi[z] for z in fv1 if z not in shared}
        phi2 = {z: phi[z] for z in fv2 if z not in shared}
        wraps = []
        for z in shared:
            a, w, v = supply.fresh("a"), supply.fresh("w"), supply.fresh("v")
            wraps.append((a, phi[z], w, v))
            phi1[z] = w
            phi2[z] = v
        ydot = supply.fresh("yd")
        if x in fv2_all:
            body = _fwd(phi2 | {x: ydot}, e2, supply)
        else:
            body = _drop_tangents([ydot], _fwd(phi2, e2, supply), supply)
        out = LetPair(x, ydot, _fwd(phi1, e1, supply), body)
        for a, src, w, v in reversed(wraps):
            out = let_t(a, Dup(src), TanTupElim2(w, v, a, out), supply)
        return out

    match ep:
        case Lit(r):
            return pair_pt(Lit(r), ZeroDot(JReal), supply)
        case PrimApp(f, args):
            return _fwd_prim(phi, f, list(args), supply)
        case Drop(inner):
            return Drop(_fwd(phi, inner, supply))
        case PrimTupIntro0():
            return pair_pt(PrimTupIntro0(), TanTupIntro0(), supply)
        case PrimTupIntro2(x1, x2):
            wrap, tangs = _occurrence_tangents(phi, [x1, x2], supply)
            return wrap(pair_pt(PrimTupIntro2(x1, x2),
                                TanTupIntro2(tangs[0], tangs[1]), supply))
        case PrimTupElim0(z, inner):
            sub = {v: t for v, t in phi.items() if v != z}
            return PrimTupElim0(z, TanTupElim0(phi[z], _fwd(sub, inner, supply)))
        case PrimTupElim2(x1, x2, z, inner):
            y1, y2 = supply.fresh("yd"), supply.fresh("yd")
            live = fv_primal(inner)
            sub = {v: t for v, t in phi.items() if v != z and v in live}
            sub |= {v: t for v, t in ((x1, y1), (x2, y2)) if v in live}
            orphans = [t for v, t in ((x1, y1), (x2, y2)) if v not in live]
            body = _drop_tangents(orphans, _fwd(sub, inner, supply), supply)
            return PrimTupElim2(x1, x2, z, TanTupElim2(y1, y2, phi[z], body))
    raise SortViolation(f"not a purely primal expression: {ep!r}")


def _drop_tangents(tangents: list[str], body: Expr, supply: NameSupply) -> Expr:
    # consume orphaned tangents: let _ = drop(t) in body
    for t in tangents:
        d = supply.fresh("d")
        body = let_t(d, Drop(t_var(t, supply)), TanTupElim0(d, body), supply)
    return body


def _occurrence_tangents(phi, occurrences: list[str], supply: NameSupply):
    counts: dict[str, int] = {}
    for x in occurrences:
        counts[x] = counts.get(x, 0) + 1
    pools: dict[str, list[str]] = {}
    wraps = []
    for x, n in counts.items():
        wrap, names = _dup_prelude(phi[x], n, supply)
        wraps.append(wrap)
        pools[x] = names
    tangs = [pools[x].pop(0) for x in occurrences]

    def wrap_all(e):
        for w in reversed(wraps):
            e = w(e)
        return e

    return wrap_all, tangs


def _fwd_prim(phi, f, args: list[str], supply: NameSupply) -> Expr:
    wrap, tangs = _occurrence_tangents(phi, args, supply)
    ws = [supply.fresh("w") for _ in args]
    zs = [supply.fresh("zd") for _ in args]

    def sum_of(names):
        if len(names) == 1:
            return t_var(names[0], supply)
        if len(names) == 2:
            return AddDot(names[0], names[1])
        s = supply.fresh("sd")
        return let_t(s, sum_of(names[1:]), AddDot(names[0], s), supply)

    out = pair_pt(PrimApp(f, tuple(args)), sum_of(zs), supply)
    for w, z, t in zip(reversed(ws), reversed(zs), reversed(tangs)):
        out = let_t(z, ScaleDot(w, t), out, supply)
    for i, w in reversed(list(enumerate(ws))):
        out = let_p(w, PrimApp(partial_of(f, i), tuple(args)), out, supply)
    return wrap(out)


# ---------------------------------------------------------------- unzipping

def jax_unzip(e: Expr, supply: NameSupply) -> Expr:
    stack, ep, et = _unzip(e, supply)
    return _assemble(stack, pair_pt(ep, et, supply), supply)


def _assemble(stack, core, supply):
    for frame in reversed(stack):
        match frame:
            case ("letp", x, ep):
                core = let_p(x, ep, core, supply)
            case ("pelim0", z):
                core = PrimTupElim0(z, core)
            case ("pelim2", x1, x2, z):
                core = PrimTupElim2(x1, x2, z, core)
    return core


def _unzip(e: Expr, supply):
    match e:
        case VarPair(x, t):
            return [], p_var(x, supply), t_var(t, supply)
        case LetPair(x, t, e1, e2):
            s1, p1, t1 = _unzip(e1, supply)
            s2, p2, t2 = _unzip(e2, supply)
            return (s1 + [("letp", x, p1)] + s2, p2, let_t(t, t1, t2, supply))
        case PrimTupIntro0() | TanTupIntro0():
            return [], PrimTupIntro0(), TanTupIntro0()
        case PrimTupIntro2(x1, x2):
            return [], PrimTupIntro2(x1, x2), TanTupIntro0()
        case TanTupIntro2(t1, t2):
            return [], PrimTupIntro0(), TanTupIntro2(t1, t2)
        case PrimTupElim0(z, body):
            s, p, t = _unzip(body, supply)
            return [("pelim0", z)] + s, p, t
        case PrimTupElim2(x1, x2, z, body):
            s, p, t = _unzip(body, supply)
            return [("pelim2", x1, x2, z)] + s, p, t
        case TanTupElim0(z, body):
            s, p, t = _unzip(body, supply)
            return s, p, TanTupElim0(z, t)
        case TanTupElim2(t1, t2, z, body):
            s, p, t = _unzip(body, supply)
            return s, p, TanTupElim2(t1, t2, z, t)
        case Lit(_) | PrimApp(_, _):
            return [], e, TanTupIntro0()
        case ZeroDot(_) | AddDot(_, _) | ScaleDot(_, _) | Dup(_):
            return [], PrimTupIntro0(), e
        case Drop(body):
            s, p, t = _unzip(body, supply)
            return s, Drop(p), Drop(t)
    raise AssertionError(e)


def decompose_linear_b(d: Expr, supply: NameSupply):
    """Split a Linear B expression into (primal let stack, e^p, e^t)."""
    m = match_pair_pt(d)
    if m is not None:
        return [], m[0], m[1]
    if isinstance(d, VarPair):
        return [], p_var(d.primal, supply), t_var(d.tangent, supply)
    m = match_let_p(d)
    if m is not None:
        x, e1, rest = m
        s, p, t = decompose_linear_b(rest, supply)
        return [("letp", x, e1)] + s, p, t
    match d:
        case PrimTupElim0(z, body):
            s, p, t = decompose_linear_b(body, supply)
            return [("pelim0", z)] + s, p, t
        case PrimTupElim2(x1, x2, z, body):
            s, p, t = decompose_linear_b(body, supply)
            return [("pelim2", x1, x2, z)] + s, p, t
    raise SortViolation(f"not in the Linear B fragment: {d!r}")


# ---------------------------------------------------------------- transpose

def jax_transpose(penv: dict[str, JaxType], theta: list[tuple[str, JaxType]],
                  udot: str, udot_ty: JaxType, d: Expr,
                  supply: NameSupply) -> Expr:
    """Transpose the tangent part of a Linear B expression against the
    fresh cotangent `udot`; the primal prefix commutes unchanged."""
    stack, ep, et = decompose_linear_b(d, supply)
    penv = dict(penv)
    for frame in stack:
        match frame:
            case ("letp", x, e1):
                ty, _ = infer_types(e1, penv, {})
                penv[x] = ty
            case ("pelim2", x1, x2, z):
                tz = penv[z]
                penv[x1], penv[x2] = tz.left, tz.right
    tet = _transpose_t(theta, udot, udot_ty, et, penv, supply)
    return _assemble(stack, pair_pt(ep, tet, supply), supply)


def _transpose_t(theta, u, uty, et, penv, supply) -> Expr:
    tenv = dict(theta)
    names = [n for n, _ in theta]

    x = match_t_var(et)
    if x is not None:
        if names != [x]:
            raise SortViolation(f"enumeration {names} does not match var {x}")
        return t_var(u, supply)

    m = match_let_t(et)
    if m is not None:
        xd, e1, e2 = m
        _, sg1 = infer_types(e1, penv, {n: t for n, t in theta
                                        if n in fv_tangent(e1)})
        th1 = [(n, t) for n, t in theta if n in fv_tangent(e1)]
        th2_tail = [(n, t) for n, t in theta if n in fv_tangent(e2) - {xd}]
        th2 = [(xd, sg1)] + th2_tail
        rec2 = _transpose_t(th2, u, uty, e2, penv, supply)
        xc = supply.fresh("xc")
        u1 = supply.fresh("u1")
        if not th2_tail:
            rec1 = _transpose_t(th1, xc, sg1, e1, penv, supply)
            return let_t(xc, rec2, rec1, supply)
        u2 = supply.fresh("u2")
        r = supply.fresh("r")
        rec1 = _transpose_t(th1, xc, sg1, e1, penv, supply)
        fuse = fuse_jax(names, [n for n, _ in th1], u1, u2, supply)
        return let_t(
            r, rec2,
            TanTupElim2(xc, u2, r, let_t(u1, rec1, fuse, supply)), supply)

    match et:
        case TanTupIntro0():
            return TanTupElim0(u, TanTupIntro0())
        case TanTupIntro2(t1, t2):
            u1, u2 = supply.fresh("u1"), supply.fresh("u2")
            comp = {t1: u1, t2: u2}
            return TanTupElim2(u1, u2, u, ttup_vars([comp[n] for n in names], supply))
        case TanTupElim0(z, body):
            rest = [(n, t) for n, t in theta if n != z]
            rec = _transpose_t(rest, u, uty, body, penv, supply)
            up, a = supply.fresh("up"), supply.fresh("a")
            fuse = fuse_jax(names, [z], a, up, supply)
            return let_t(a, TanTupIntro0(),
                         let_t(up, rec, fuse, supply), supply)
        case TanTupElim2(t1, t2, z, body):
            tz = tenv[z]
            assert isinstance(tz, JProd)
            rest = [(n, t) for n, t in theta if n != z]
            th = [(t1, tz.left), (t2, tz.right)] + rest
            rec = _transpose_t(th, u, uty, body, penv, supply)
            r = supply.fresh("r")
            fresh = {n: supply.fresh("c") for n, _ in th}
            zc = supply.fresh("zc")
            comp = {z: zc} | {n: fresh[n] for n, _ in rest}
            out = let_t(zc, TanTupIntro2(fresh[t1], fresh[t2]),
                        ttup_vars([comp[n] for n in names], supply), supply)
            return let_t(r, rec,
                         tan_elim_seq([fresh[n] for n, _ in th], r, out, supply),
                         supply)
        case Dup(_):
            z, w = supply.fresh("z"), supply.fresh("w")
            return TanTupElim2(z, w, u, AddDot(z, w))
        case AddDot(_, _):
            return Dup(u)
        case ZeroDot(_):
            return Drop(t_var(u, supply))
        case Drop(body):
            return TanTupElim0(u, ZeroDot(prod_of([t for _, t in theta])))
        case ScaleDot(x, _):
            return ScaleDot(x, u)
    raise SortViolation(f"not a purely tangent expression: {et!r}")
