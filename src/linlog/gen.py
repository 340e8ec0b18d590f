"""Seeded random generators for well-typed programs of every sort.

Each generator builds terms correct by construction: tangent
environments are threaded and consumed exactly, primal environments are
shared.  Used by the property suites and the check command; identical
seeds give identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from linlog.fresh import NameSupply
from linlog.linear_a.expr import (
    AddDot, Drop, Dup, Expr, JaxType, JOne, JProd, JReal, LetPair, Lit,
    PrimApp, ScaleDot, TanTupElim2, VarPair, ZeroDot, fv_primal, fv_tangent,
    jax_workload_type, let_p, let_t, pair_pt, p_var, t_var, ttup_e, ttup_vars,
)
from linlog.linear_a.typecheck import infer_types
from linlog.lll.machine import value_to_term
from linlog.lll.prims import REGISTRY, prim
from linlog.lll.reduce import substitute
from linlog.lll.sorts import primal_inner_type
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, PBang, PTensor, PVar, PWith, PlusDot, Term,
    TensorPair, TimesDot, TopVal, UnitVal, Var, WithPair, Zero, free_vars,
    let_, para, para_pattern, prim_app,
)
from linlog.lll.types import (
    Bang, LType, Lolli, Real, Tensor, Top, With, workload_type,
)
from linlog.oracle import random_value_of
from linlog.translate import (
    TangentCtx, delta, mk_zero, primal_type, tangent_type, tangents,
    with_tree,
)

UNARY_PRIMS = [p for p in REGISTRY.values() if p.arity == 1]
BINARY_PRIMS = [prim(n) for n in ("add2", "mul2", "sub2")]

SMALL_JAX_TYPES = [JReal, JReal, JReal, JOne, JProd(JReal, JReal),
                   JProd(JReal, JOne)]

# The size of the generated cases: the nesting depth of every corpus, the
# tangent dimension of a Linear-A environment, and the largest summed
# dimension of a tangent function's domain and codomain.
DEPTH = 3
TANGENT_DIM = 4
MAX_FN_DIM = 8


# ------------------------------------------------------- first-order layer

@dataclass
class JaxCase:
    penv: dict[str, JaxType]
    tenv: dict[str, JaxType]
    theta: list[tuple[str, JaxType]]
    expr: Expr
    supply: NameSupply


def _fresh_env(rng: random.Random, supply: NameSupply, tangent_dim: int):
    penv = {}
    for _ in range(rng.randint(1, 3)):
        penv[supply.fresh("x").replace("%", "p")] = JReal
    theta = []
    dim = 0
    while dim < tangent_dim and len(theta) < 3:
        ty = rng.choice(SMALL_JAX_TYPES)
        d = jax_workload_type(ty)
        if dim + d > tangent_dim:
            ty = JReal
            d = 1
        theta.append((supply.fresh("t").replace("%", "d"), ty))
        dim += d
    return penv, theta


def gen_tangent(rng, supply, penv, tenv: list, depth: int) -> Expr:
    """Purely tangent expression consuming tenv exactly."""
    names = [n for n, _ in tenv]
    scalars = sorted(n for n, t in penv.items() if t is JReal)
    if depth <= 0 or rng.random() < 0.25:
        if len(tenv) == 1 and rng.random() < 0.6:
            n, ty = tenv[0]
            choice = rng.random()
            if choice < 0.3:
                return Dup(n)
            if choice < 0.6 and scalars:
                return ScaleDot(rng.choice(scalars), n)
            return t_var(n, supply)
        if len(tenv) == 2 and tenv[0][1] == tenv[1][1] and rng.random() < 0.5:
            return AddDot(tenv[0][0], tenv[1][0])
        if not tenv and rng.random() < 0.4:
            return ZeroDot(rng.choice(SMALL_JAX_TYPES))
        return ttup_vars(names, supply)
    r = rng.random()
    if r < 0.30:
        k = rng.randint(0, len(tenv))
        left, right = tenv[:k], tenv[k:]
        t = supply.fresh("t").replace("%", "d")
        e1 = gen_tangent(rng, supply, penv, left, depth - 1)
        _, sg = infer_types(e1, penv, dict(left))
        e2 = gen_tangent(rng, supply, penv, right + [(t, sg)], depth - 1)
        return let_t(t, e1, e2, supply)
    if r < 0.45:
        k = rng.randint(0, len(tenv))
        e1 = gen_tangent(rng, supply, penv, tenv[:k], depth - 1)
        e2 = gen_tangent(rng, supply, penv, tenv[k:], depth - 1)
        return ttup_e(e1, e2, supply)
    if r < 0.55:
        return Drop(gen_tangent(rng, supply, penv, tenv, depth - 1))
    prods = [(n, t) for n, t in tenv if isinstance(t, JProd)]
    if prods and r < 0.75:
        n, t = rng.choice(prods)
        a = supply.fresh("a").replace("%", "d")
        b = supply.fresh("b").replace("%", "d")
        rest = [(m, s) for m, s in tenv if m != n]
        body = gen_tangent(rng, supply, penv,
                           [(a, t.left), (b, t.right)] + rest, depth - 1)
        return TanTupElim2(a, b, n, body)
    return gen_tangent(rng, supply, penv, tenv, 0)


def gen_primal(rng, supply, penv: dict, depth: int) -> Expr:
    """Purely primal expression over shared scalar variables."""
    scalars = sorted(n for n, t in penv.items() if t is JReal)
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if scalars and r < 0.5:
            return p_var(rng.choice(scalars), supply)
        if r < 0.75:
            return Lit(round(rng.uniform(-2, 2), 3))
        if scalars:
            f = rng.choice(BINARY_PRIMS)
            return PrimApp(f, (rng.choice(scalars), rng.choice(scalars)))
        return Lit(1.0)
    r = rng.random()
    if r < 0.55 and scalars:
        x = supply.fresh("v").replace("%", "p")
        e1 = _gen_scalar_primal(rng, supply, scalars)
        body = gen_primal(rng, supply, penv | {x: JReal}, depth - 1)
        if x not in fv_primal(body):
            body = _use_var(rng, supply, x, body)
        return let_p(x, e1, body, supply)
    if r < 0.65:
        return Drop(gen_primal(rng, supply, penv, depth - 1))
    if r < 0.8 and scalars:
        return _gen_scalar_primal(rng, supply, scalars)
    return gen_primal(rng, supply, penv, 0)


def _gen_scalar_primal(rng, supply, scalars) -> Expr:
    if rng.random() < 0.4:
        f = rng.choice(UNARY_PRIMS)
        return PrimApp(f, (rng.choice(scalars),))
    f = rng.choice(BINARY_PRIMS)
    return PrimApp(f, (rng.choice(scalars), rng.choice(scalars)))


def _use_var(rng, supply, x, body) -> Expr:
    # splice a consumer of x in front: let _ = f(x, x) in body
    y = supply.fresh("v").replace("%", "p")
    f = rng.choice(BINARY_PRIMS)
    return let_p(y, PrimApp(f, (x, x)),
                 body if rng.random() < 0.5 else Drop_body(y, body, supply),
                 supply)


def Drop_body(y, body, supply):
    z = supply.fresh("v").replace("%", "p")
    return let_p(z, Drop(p_var(y, supply)), body, supply)


def gen_linear_a(rng, supply, penv, tenv: list, depth: int) -> Expr:
    """General expression of the first-order calculus."""
    if depth <= 0 or rng.random() < 0.2:
        scalars = sorted(n for n, t in penv.items() if t is JReal)
        if len(tenv) == 1 and scalars and rng.random() < 0.5:
            return VarPair(rng.choice(scalars), tenv[0][0])
        return pair_pt(gen_primal(rng, supply, penv, depth),
                       gen_tangent(rng, supply, penv, tenv, depth), supply)
    r = rng.random()
    if r < 0.45:
        k = rng.randint(0, len(tenv))
        left, right = tenv[:k], tenv[k:]
        e1 = gen_linear_a(rng, supply, penv, left, depth - 1)
        ty1, sg1 = infer_types(e1, penv, dict(left))
        x = supply.fresh("v").replace("%", "p")
        t = supply.fresh("t").replace("%", "d")
        e2 = gen_linear_a(rng, supply, penv | {x: ty1},
                          right + [(t, sg1)], depth - 1)
        return LetPair(x, t, e1, e2)
    if r < 0.6:
        return Drop(gen_linear_a(rng, supply, penv, tenv, depth - 1))
    return gen_linear_a(rng, supply, penv, tenv, 0)


def gen_linear_b(rng, supply, penv, tenv: list, depth: int) -> Expr:
    stack_len = rng.randint(0, depth)
    frames = []
    penv = dict(penv)
    for _ in range(stack_len):
        x = supply.fresh("v").replace("%", "p")
        e = gen_primal(rng, supply, penv, depth - 1)
        frames.append((x, e))
        penv[x], _ = infer_types(e, penv, {})
    core = pair_pt(gen_primal(rng, supply, penv, depth - 1),
                   gen_tangent(rng, supply, penv, tenv, depth - 1), supply)
    for x, e in reversed(frames):
        core = let_p(x, e, core, supply)
    return core


def jax_cases(n: int, seed: int, kind: str = "linear-a") -> list[JaxCase]:
    out = []
    rng = random.Random(seed)
    for i in range(n):
        supply = NameSupply()
        penv, theta = _fresh_env(rng, supply, TANGENT_DIM)
        if kind == "primal":
            e = gen_primal(rng, supply, penv, DEPTH)
            theta = []
        elif kind == "tangent":
            e = gen_tangent(rng, supply, penv, theta, DEPTH)
        elif kind == "linear-b":
            e = gen_linear_b(rng, supply, penv, theta, DEPTH)
        else:
            e = gen_linear_a(rng, supply, penv, theta, DEPTH)
        theta = [(t, ty) for t, ty in theta if t in fv_tangent(e)]
        out.append(JaxCase(penv, dict(theta), theta, e, supply))
    return out


# ------------------------------------------------------------ linear layer

@dataclass
class PrimalCase:
    sigma: list[tuple[str, LType]]  # !-environment (inner types)
    term: Term
    supply: NameSupply


def gen_lll_p(rng, supply, sigma: list, depth: int) -> Term:
    """Primal-sort term over the !-environment.  Every binder is used
    and no numeric operation sits under a bang, the fragment the forward
    workload theorem covers."""
    scalars = [n for n, e in sigma if e is Real]
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if scalars and r < 0.5:
            return _prim_leaf(rng, scalars)
        if sigma and r < 0.7:
            return BangVal(Var(rng.choice([n for n, _ in sigma])))
        return _bang_value(rng, sigma, 1)
    r = rng.random()
    if r < 0.55:
        x = supply.fresh("v")
        q = gen_lll_p(rng, supply, sigma, depth - 1)
        ety = primal_inner_type(q, dict(sigma))
        for _ in range(4):
            body = gen_lll_p(rng, supply, sigma + [(x, ety)], depth - 1)
            if x in free_vars(body):
                break
        else:
            body = BangVal(Var(x))
        return let_(PBang(x, ety), q, body)
    if r < 0.7:
        return BangVal(TensorPair(_bang_value(rng, sigma, depth - 1),
                                  _bang_value(rng, sigma, depth - 1)))
    if r < 0.85 and any(isinstance(e, Tensor) for _, e in sigma):
        z, ety = rng.choice([(n, e) for n, e in sigma if isinstance(e, Tensor)])
        x1, x2 = supply.fresh("v"), supply.fresh("v")
        e1 = ety.left.inner if isinstance(ety.left, Bang) else ety.left
        e2 = ety.right.inner if isinstance(ety.right, Bang) else ety.right
        pat = PTensor(PBang(x1, e1), PBang(x2, e2))
        for _ in range(4):
            body = gen_lll_p(rng, supply, sigma + [(x1, e1), (x2, e2)], depth - 1)
            if x1 in free_vars(body) and x2 in free_vars(body):
                break
        else:
            body = BangVal(TensorPair(BangVal(Var(x1)), BangVal(Var(x2))))
        return let_(pat, Var(z), body)
    return gen_lll_p(rng, supply, sigma, 0)


def _bang_value(rng, sigma, depth) -> Term:
    """A primal-sort term of zero workload: promoted variables, numerals,
    units and pairs of these."""
    r = rng.random()
    if sigma and r < 0.4:
        return BangVal(Var(rng.choice([n for n, _ in sigma])))
    if r < 0.6:
        return BangVal(Numeral(round(rng.uniform(-2, 2), 3)))
    if r < 0.75 or depth <= 0:
        return BangVal(UnitVal())
    return BangVal(TensorPair(_bang_value(rng, sigma, depth - 1),
                              _bang_value(rng, sigma, depth - 1)))


def _prim_leaf(rng, scalars) -> Term:
    if rng.random() < 0.4:
        f = rng.choice(UNARY_PRIMS)
        return prim_app(f, [BangVal(Var(rng.choice(scalars)))])
    f = rng.choice(BINARY_PRIMS)
    return prim_app(f, [BangVal(Var(rng.choice(scalars))),
                        BangVal(Var(rng.choice(scalars)))])


def lll_p_cases(n: int, seed: int) -> list[PrimalCase]:
    out = []
    rng = random.Random(seed)
    for _ in range(n):
        supply = NameSupply()
        sigma = [(supply.fresh("x").replace("%", "s"), Real)
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            sigma.append((supply.fresh("x").replace("%", "s"),
                          Tensor(Bang(Real), Bang(Real))))
        t = gen_lll_p(rng, supply, sigma, DEPTH)
        sigma = [(x, e) for x, e in sigma if x in free_vars(t)]
        out.append(PrimalCase(sigma, t, supply))
    return out


# ------------------------------------------------------- tangent functions

SMALL_WITH_TYPES = [Real, Real, With(Real, Real), Top, With(Real, Top),
                    With(With(Real, Real), Real)]


@dataclass
class FnCase:
    sigma: list[tuple[str, LType]]  # scalar !-environment
    dom: LType
    cod: LType
    term: Term
    supply: NameSupply


def _gen_u(rng, supply, avail: list, target: LType, sigma, phi, depth) -> Term:
    """Tangent-sort term of the target type; avail holds the leaf
    variables of the enclosing with-pattern (each usable once per
    additive thread)."""
    matching = [n for n, t in avail if t == target]
    r = rng.random()
    if depth <= 0:
        if matching:
            return Var(rng.choice(matching))
        return mk_zero(target)
    match target:
        case t if t is Top:
            if matching and r < 0.5:
                return Var(rng.choice(matching))
            return TopVal()
        case t if t is Real:
            if matching and r < 0.45:
                return Var(rng.choice(matching))
            if r < 0.6:
                arg = _gen_u(rng, supply, avail, With(Real, Real), sigma, phi,
                             depth - 1)
                return App(PlusDot(), arg)
            if r < 0.8 and sigma:
                x = rng.choice([n for n, _ in sigma])
                arg = _gen_u(rng, supply, avail, Real, sigma, phi, depth - 1)
                return App(App(TimesDot(), Var(x)), arg)
            if phi and r < 0.9:
                f, (fl, fh) = rng.choice(sorted(phi.items()))
                if fh == target:
                    arg = _gen_u(rng, supply, avail, fl, sigma, phi, depth - 1)
                    return App(Var(f), arg)
            return Zero() if not matching else Var(rng.choice(matching))
        case With(l, rr):
            if matching and r < 0.3:
                return Var(rng.choice(matching))
            return WithPair(_gen_u(rng, supply, avail, l, sigma, phi, depth - 1),
                            _gen_u(rng, supply, avail, rr, sigma, phi, depth - 1))
    raise AssertionError(target)


def gen_lll_f(rng, supply, sigma, dom: LType, cod: LType, depth: int) -> Term:
    pat, leaves, _ = with_tree(dom, supply, "u")
    phi = {}
    wrap = []
    for _ in range(rng.randint(0, 1)):
        g = supply.fresh("g")
        gl = rng.choice([Real, With(Real, Real)])
        gh = rng.choice([Real, With(Real, Real)])
        inner = gen_lll_f(rng, supply, sigma, gl, gh, 0)
        wrap.append((g, Lolli(gl, gh), inner))
        phi[g] = (gl, gh)
    body = _gen_u(rng, supply, leaves, cod, sigma, phi, depth)
    out = Abs(pat, body)
    for g, gty, inner in reversed(wrap):
        if g in free_vars(body):
            out = let_(para_pattern(PVar(g, gty)), para(inner), out)
    return out


def lll_f_cases(n: int, seed: int) -> list[FnCase]:
    out = []
    rng = random.Random(seed)
    while len(out) < n:
        supply = NameSupply()
        dom = rng.choice(SMALL_WITH_TYPES)
        cod = rng.choice(SMALL_WITH_TYPES)
        if workload_type(dom) + workload_type(cod) > MAX_FN_DIM:
            continue
        sigma = [(supply.fresh("x").replace("%", "s"), Real)
                 for _ in range(rng.randint(0, 2))]
        t = gen_lll_f(rng, supply, sigma, dom, cod, DEPTH)
        sigma = [(x, e) for x, e in sigma if x in free_vars(t)]
        out.append(FnCase(sigma, dom, cod, t, supply))
    return out


# ----------------------------------------------------- safe ground corpus

@dataclass
class GroundCase:
    term: Term  # closed, safe, ground type


def safe_ground_cases(n: int, seed: int) -> list[GroundCase]:
    """Closed safe terms of ground type: encodings of random first-order
    programs applied to numerals, plus small arithmetic terms."""
    out = []
    rng = random.Random(seed)
    for i in range(n):
        supply = NameSupply()
        if i % 3 == 2:
            out.append(GroundCase(_gen_arith(rng, 3)))
            continue
        penv, theta = _fresh_env(rng, supply, 3)
        e = gen_linear_a(rng, supply, penv, theta, 2)
        theta = [(t, ty) for t, ty in theta if t in fv_tangent(e)]
        d = delta(penv, theta, e, supply)
        # close the primal environment with numerals
        term = d
        for x in sorted(fv_primal(e)):
            term = _subst_bang_numeral(term, x, rng)
        # apply the tangent map to a sampled tuple
        z, g = supply.fresh("z"), supply.fresh("g")
        ltype = TangentCtx.and_type(tangents(theta))
        ty, sg = infer_types(e, penv, dict(theta))
        svec = value_to_term(random_value_of(ltype, rng))
        pat = PTensor(PBang(z, primal_type(ty)),
                      para_pattern(PVar(g, Lolli(ltype, tangent_type(sg)))))
        out.append(GroundCase(
            let_(pat, term, TensorPair(BangVal(Var(z)), App(Var(g), svec)))))
    return out


def _subst_bang_numeral(term: Term, x: str, rng) -> Term:
    return substitute(term, PBang(x, Real), BangVal(Numeral(rng.uniform(-2, 2))))


def _gen_arith(rng, depth: int) -> Term:
    if depth <= 0:
        return Numeral(round(rng.uniform(-2, 2), 3))
    r = rng.random()
    if r < 0.3:
        return App(PlusDot(), WithPair(_gen_arith(rng, depth - 1),
                                       _gen_arith(rng, depth - 1)))
    if r < 0.5:
        return App(App(TimesDot(), _gen_arith(rng, depth - 1)),
                   _gen_arith(rng, depth - 1))
    if r < 0.7:
        # numeric arguments only: workload under a bang must stay zero
        f = rng.choice(UNARY_PRIMS)
        inner = prim_app(f, [BangVal(Numeral(round(rng.uniform(-2, 2), 3)))])
        x = f"a{rng.randint(0, 10 ** 6)}"
        return let_(PBang(x, Real), inner,
                    App(PlusDot(), WithPair(Var(x), Var(x))))
    if r < 0.85:
        x = f"b{rng.randint(0, 10 ** 6)}"
        return let_(PVar(x, Real), _gen_arith(rng, depth - 1),
                    App(App(TimesDot(), Numeral(2.0)), Var(x)))
    return App(Abs(PWith(PVar(f"u{rng.randint(0, 10**6)}", Real),
                         PVar(f"w{rng.randint(0, 10**6)}", Real)),
                   Zero()),
               WithPair(_gen_arith(rng, depth - 1), _gen_arith(rng, depth - 1)))

