"""Structural golden tests for the worked example, all four stages."""

import hashlib

from linlog import NameSupply
from linlog.autodiff import forward, transpose, transpose_f, unzip
from linlog.frontend import parse
from linlog.gen import jax_cases, lll_f_cases, lll_p_cases
from linlog.lll import (
    Bang, PBang, Real, TypingEnv, alpha_eq, simplify, typecheck, workload_term,
)
from linlog.linear_a.expr import JReal, VarPair, fv_primal
from linlog.linear_a.typecheck import jax_workload
from linlog.lll.sorts import Sort, classify_sort
from linlog.lll.terms import term_str
from linlog.lll.typecheck import free_var_types
from linlog.translate import delta, delta_b, delta_b_primal, primal_type
from tests.terms9 import fig9a_env, fig9a_term, fig9b_term, fig9c_term, fig9d_term
from tests.test_linear_a import G_ENV, g_expr
from tests.test_oracle import chain_program


def test_delta_b_of_source_is_fig9a():
    s = NameSupply()
    got = simplify(delta_b_primal(G_ENV, g_expr(s), s))
    assert alpha_eq(got, fig9a_term())
    assert typecheck(fig9a_env(), got) == Bang(Real)


def test_delta_b_of_a_bare_pair_is_delta_of_it():
    """The one Linear-B form that is neither a let nor a (primal; tangent)
    pair: no generated corpus reaches it."""
    penv, theta = {"x": JReal}, [("t'", JReal)]
    d_b = delta_b(penv, theta, VarPair("x", "t'"), NameSupply())
    d = delta(penv, theta, VarPair("x", "t'"), NameSupply())
    env = TypingEnv.of(PBang("x", Real))
    assert typecheck(env, d_b) == typecheck(env, d)
    assert alpha_eq(d_b, d)


def test_delta_b_full_translation_types():
    s = NameSupply()
    d = delta_b(G_ENV, [], g_expr(s), s)
    ty = typecheck(fig9a_env(), d)
    assert isinstance(ty, type(Bang(Real))) or ty  # tensor of primal and map
    assert classify_sort(d, free_var_types(fig9a_env())) == Sort.LLL_A


def test_forward_golden():
    s = NameSupply()
    f, _ = forward([("x", Real), ("y", Real)], fig9a_term(), s)
    assert alpha_eq(simplify(f), fig9b_term())


def test_unzip_golden():
    s = NameSupply()
    f, _ = forward([("x", Real), ("y", Real)], fig9a_term(), s)
    u = unzip(simplify(f), s)
    assert alpha_eq(simplify(u), fig9c_term())


def test_transpose_golden():
    s = NameSupply()
    f, _ = forward([("x", Real), ("y", Real)], fig9a_term(), s)
    u = unzip(simplify(f), s)
    t = transpose(None, simplify(u), s)
    assert alpha_eq(simplify(t), fig9d_term())


def test_pipeline_types_and_sorts():
    s = NameSupply()
    env = fig9a_env()
    tys = free_var_types(env)
    p = fig9a_term()
    assert classify_sort(p, tys) == Sort.LLL_P
    f, _ = forward([("x", Real), ("y", Real)], p, s)
    assert classify_sort(f, tys) == Sort.LLL_A
    u = unzip(f, s)
    t = transpose(None, u, s)
    for stage in (f, u, t):
        typecheck(env, stage)
    assert classify_sort(u, tys) == Sort.LLL_A
    assert classify_sort(t, tys) == Sort.LLL_A


def test_workload_chain_on_example():
    s = NameSupply()
    p = fig9a_term()
    f, _ = forward([("x", Real), ("y", Real)], p, s)
    u = unzip(f, s)
    t = transpose(None, u, s)
    wp, wf, wu, wt = map(workload_term, (p, f, u, t))
    assert wf <= 6 * wp
    assert wu <= wf
    # W(T(R)) + W(L) <= W(R) + W(H) with L = R&R, H = R
    assert wt + 2 <= wu + 1


def pipeline_text(theta, term, supply) -> str:
    """The printed F, U, T(U) and T(F) images of a primal term and the
    next fresh name: `alpha_eq` and the value digests miss a change in the
    order fresh names are drawn, this text does not."""
    f, _ = forward(theta, term, supply)
    u = unzip(f, supply)
    tu = transpose(None, u, supply)
    tf = transpose(None, f, supply)
    return "\n".join([*map(term_str, (f, u, tu, tf)), supply.fresh()])


def digest(texts) -> str:
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()[:16]


def test_pipeline_text_is_pinned():
    fig9a = pipeline_text([("x", Real), ("y", Real)], fig9a_term(), NameSupply())
    corpus = [pipeline_text(c.sigma, c.term, c.supply)
              for c in lll_p_cases(30, 17)]
    sf = parse(chain_program(30))
    supply = NameSupply()
    term = delta_b_primal(dict(sf.primal), sf.body, supply)
    theta = [(x, primal_type(t)) for x, t in sf.primal
             if x in fv_primal(sf.body)]
    chain = pipeline_text(theta, term, supply)
    assert (digest([fig9a]), digest(corpus), digest([chain])) == (
        "d052a96aac3c693a", "c9609353b20e33ac", "b986bb5be0211426")


def straight_line(n_lets: int, n_inputs: int, n_outputs: int) -> str:
    """A straight-line Linear-A program over x0.. that cycles through sin,
    add2 (of an input), cos, sub2 and mul2 and returns a tuple of its last
    `n_outputs` values."""
    xs = [f"x{i}" for i in range(n_inputs)]
    lets, names = [], list(xs)
    for i in range(n_lets):
        op = ("sin", "add2", "cos", "sub2", "mul2")[i % 5]
        b = xs[i // 5 % n_inputs] if op == "add2" else names[-2]
        args = names[-1] if op in ("sin", "cos") else f"{names[-1]} {b}"
        lets.append(f"(let-p v{i} (prim {op} {args})")
        names.append(f"v{i}")
    body = f"(var-p {names[-1]})"
    for o in reversed(names[-n_outputs:-1]):
        body = f"(ptup-e (var-p {o}) {body})"
    header = " ".join(f"({x} real)" for x in xs)
    return (f"(linear-a (primal {header}) (expr {' '.join(lets)} {body}"
            + ")" * n_lets + "))")


def test_straight_line_pipeline_text_is_pinned():
    """The printed F, U, T(U) and T(F) images of three straight-line
    programs, one of them with a 3-component tuple output, with the next
    fresh name and the static workload of T(U) and T(F)."""
    texts = []
    for shape in ((12, 3, 3), (20, 2, 2), (25, 2, 1)):
        sf = parse(straight_line(*shape))
        supply = NameSupply()
        term = delta_b_primal(dict(sf.primal), sf.body, supply)
        theta = [(x, primal_type(t)) for x, t in sf.primal
                 if x in fv_primal(sf.body)]
        f, _ = forward(theta, term, supply)
        u = unzip(f, supply)
        tu = transpose(None, u, supply)
        tf = transpose(None, f, supply)
        texts.append("\n".join([*map(term_str, (f, u, tu, tf)),
                                supply.fresh(), str(workload_term(tu)),
                                str(workload_term(tf))]))
    assert digest(texts) == "42d5673076a51364"


def test_transpose_f_text_is_pinned():
    """T of the tangent functions of the matrix-transpose corpus (nested
    lambdas, `*. x`, section lets), printed with the next fresh name."""
    texts = ["\n".join([term_str(transpose_f({}, c.term, c.supply)),
                        c.supply.fresh()])
             for c in lll_f_cases(60, 41)]
    assert digest(texts) == "1e8dcbf70975e9c4"


def test_delta_text_is_pinned():
    """The printed Delta, Delta_b and Delta_b^p images of generated cases,
    each with the next fresh name, and the static workload of a Linear-A
    corpus."""
    def text(image, supply):
        return "\n".join([term_str(image), supply.fresh()])

    d = [text(delta(c.penv, c.theta, c.expr, c.supply), c.supply)
         for c in jax_cases(60, 81, "linear-a")]
    d_b = [text(delta_b(c.penv, c.theta, c.expr, c.supply), c.supply)
           for c in jax_cases(60, 82, "linear-b")]
    d_bp = [text(delta_b_primal(c.penv, c.expr, c.supply), c.supply)
            for c in jax_cases(60, 83, "primal")]
    assert (digest(d), digest(d_b), digest(d_bp)) == (
        "1c77990ab4e3c2bf", "9e0b8119e02eaa9a", "f193d420a3403b27")
    ws = [jax_workload(c.penv, c.tenv, c.expr)
          for c in jax_cases(200, 84, "linear-a")]
    assert (sum(ws), digest(map(str, ws))) == (578, "5581fb4f725de4de")
