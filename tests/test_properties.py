"""Cross-cutting invariants not covered by the acceptance criteria."""

import random

import pytest

from linlog import NameSupply
from linlog.autodiff import forward
from linlog.checks import check_skip_unzip
from linlog.frontend import parse
from linlog.gen import jax_cases, lll_p_cases, safe_ground_cases
from linlog.linear_a import (
    JReal, Scalar, eval_primal, eval_tangent, jax_forward, jax_transpose,
    jax_unzip, typecheck_jax,
)
from linlog.linear_a.expr import JProd, fv_primal
from linlog.linear_a.typecheck import infer_types
from linlog.lll import PBang, Real, TypingEnv, typecheck
from linlog.lll.types import with_tuple_type
from linlog.oracle import EquivConfig, basis, equiv_check
from linlog.translate import (
    delta, delta_b, delta_b_primal, primal_type, tangent_type,
)
from tests.test_translate import mk_fuse, mk_split

CFG = EquivConfig(sample_count=4)


def test_jax_typing_closure():
    # forward, unzip and transpose outputs retypecheck at the stated types
    rng = random.Random(71)
    for c in jax_cases(60, 71, "primal"):
        s = c.supply
        fv = sorted(fv_primal(c.expr))
        phi = {x: f"{x}'" for x in fv}
        tau, _ = infer_types(c.expr, c.penv, {})
        fwd = jax_forward(phi, c.expr, s)
        tenv = {phi[x]: c.penv[x] for x in fv}
        assert typecheck_jax(c.penv, tenv, fwd) == (tau, tau)
        uz = jax_unzip(fwd, s)
        assert typecheck_jax(c.penv, tenv, uz) == (tau, tau)
        theta = [(phi[x], c.penv[x]) for x in fv]
        tr = jax_transpose(c.penv, theta, "u'", tau, uz, s)
        want_sigma = _prod_of([t for _, t in theta])
        assert typecheck_jax(c.penv, {"u'": tau}, tr) == (tau, want_sigma)


def _prod_of(types):
    from linlog.linear_a.expr import JOne
    if not types:
        return JOne
    out = types[-1]
    for t in reversed(types[:-1]):
        out = JProd(t, out)
    return out


def test_jax_forward_matches_finite_differences():
    rng = random.Random(72)
    h = 1e-6
    checked = 0
    for c in jax_cases(80, 72, "primal"):
        if checked >= 25:
            break
        ty, _ = infer_types(c.expr, c.penv, {})
        if ty is not JReal:
            continue
        fv = sorted(fv_primal(c.expr))
        if not fv:
            continue
        phi = {x: f"{x}'" for x in fv}
        fwd = jax_forward(phi, c.expr, c.supply)
        point = {x: Scalar(rng.uniform(-1.2, 1.2)) for x in fv}
        checked += 1
        for x in fv:
            up = dict(point) | {x: Scalar(point[x].value + h)}
            dn = dict(point) | {x: Scalar(point[x].value - h)}
            fd = (eval_primal(c.expr, up).value
                  - eval_primal(c.expr, dn).value) / (2 * h)
            senv = {phi[y]: Scalar(1.0 if y == x else 0.0) for y in fv}
            got = eval_tangent(fwd, dict(point), senv).value
            assert got == pytest.approx(fd, abs=1e-5, rel=1e-4), (c.expr, x)
    assert checked >= 20


def test_delta_and_delta_b_extensionally_equivalent():
    # the two encodings of the split fragment agree
    from linlog.checks import _jax_lll_env
    for c in jax_cases(60, 73, "linear-b"):
        lhs = delta(c.penv, c.theta, c.expr, c.supply)
        rhs = delta_b(c.penv, c.theta, c.expr, c.supply)
        env = _jax_lll_env(c.penv)
        ty = typecheck(env, lhs)
        assert typecheck(env, rhs) == ty
        v = equiv_check(lhs, rhs, env, CFG)
        assert v.equivalent and v.ty == ty, c.expr


def test_split_fuse_retraction_random():
    from linlog.lll import App
    from linlog.lll.machine import run, values_close
    rng = random.Random(74)
    for _ in range(30):
        n = rng.randint(1, 4)
        comps = [rng.choice([Real, tangent_type(JProd(JReal, JReal))])
                 for _ in range(n)]
        idx = {i for i in range(n) if rng.random() < 0.5}
        split, fuse = mk_split(idx, comps), mk_fuse(idx, comps)
        h = with_tuple_type(comps)
        for b in basis(h):
            got, _ = run(App(fuse, App(split, b)))
            want, _ = run(b)
            assert values_close(got, want, 1e-12)


def test_basis_completeness():
    from linlog.lll.types import Top, With, workload_type
    for h in [Real, With(Real, Real), With(With(Real, Top), Real),
              With(Top, Top)]:
        if h is not Top:
            assert len(basis(h)) == workload_type(h)


def test_corpus_determinism():
    a = [c.expr for c in jax_cases(20, 99, "linear-a")]
    b = [c.expr for c in jax_cases(20, 99, "linear-a")]
    assert a == b
    ta = [c.term for c in lll_p_cases(20, 98)]
    tb = [c.term for c in lll_p_cases(20, 98)]
    assert ta == tb
    ga = [c.term for c in safe_ground_cases(10, 97)]
    gb = [c.term for c in safe_ground_cases(10, 97)]
    assert ga == gb


def test_forward_enum_respects_free_variables():
    from linlog.autodiff import EnumerationMismatch
    with pytest.raises(EnumerationMismatch):
        from linlog.lll import BangVal, Var
        forward([("x", Real), ("ghost", Real)], BangVal(Var("x")), NameSupply())


def test_simplify_preserves_values_on_ground_corpus():
    from linlog.lll import simplify
    from linlog.lll.machine import run, values_close
    for c in safe_ground_cases(60, 96):
        before, _ = run(c.term)
        after, _ = run(simplify(c.term))
        assert values_close(before, after, 1e-9), c.term


def test_simplify_preserves_pipeline_semantics():
    from linlog.checks import _sigma_env
    from linlog.autodiff import transpose, unzip
    from linlog.lll import simplify
    for c in lll_p_cases(25, 95):
        f, _ = forward(c.sigma, c.term, c.supply)
        t = transpose(None, unzip(f, c.supply), c.supply)
        env = _sigma_env(c.sigma)
        ty = typecheck(env, t)
        ts = simplify(t)
        assert typecheck(env, ts) == ty
        v = equiv_check(t, ts, env, CFG)
        assert v.equivalent and v.ty == ty


def test_grad_simplify_flag_agrees():
    from linlog.oracle import run_grad
    from tests.terms9 import fig9a_term
    theta = [("x", Real), ("y", Real)]
    r1 = run_grad(fig9a_term(), theta, [Scalar(0.3), Scalar(-1.1)], "tuf")
    r2 = run_grad(fig9a_term(), theta, [Scalar(0.3), Scalar(-1.1)], "tuf",
                  simplify_output=True)
    assert [g.value for g in r1.gradient] == \
        pytest.approx([g.value for g in r2.gradient], rel=1e-12)
    assert r2.flops <= r1.flops  # simplification never adds numeric work


def test_subject_reduction_on_open_transform_outputs():
    from linlog.checks import _mixed_corpus
    from linlog.lll import beta_step
    for env, term, _supply in _mixed_corpus(30, 94):
        ty = typecheck(env, term)
        cur = term
        for _ in range(60):
            step = beta_step(cur)
            if step is None:
                break
            cur = step[0]
            assert typecheck(env, cur) == ty


def test_equiv_oracle_catches_wrong_enumeration_order():
    # encoding an asymmetric program against a swapped enumeration gives
    # a different linear map; the tester must find a counterexample
    from linlog.checks import _jax_lll_env
    from linlog.linear_a import ScaleDot, let_t, AddDot
    s1, s2 = NameSupply(), NameSupply()
    e = let_t("s'", AddDot("a'", "b'"), ScaleDot("c", "s'"), s1)
    e = let_t("w'", ScaleDot("c", "a'"), ScaleDot("c", "w'"), s2)
    penv = {"c": JReal}
    th_good = [("a'", JReal)]
    d_good = delta(penv, th_good, e, NameSupply())
    # a map that scales once instead of twice: inequivalent
    from linlog.translate import delta as _delta
    e2 = ScaleDot("c", "a'")
    d_bad = _delta(penv, th_good, e2, NameSupply())
    env = _jax_lll_env(penv)
    ty = typecheck(env, d_good)
    v = equiv_check(d_good, d_bad, env, CFG)
    assert not v.equivalent and v.counterexample is not None
    assert v.ty == ty


def test_equiv_oracle_catches_broken_transpose():
    # transposing and then deliberately swapping the cotangent wiring
    from linlog.checks import _sigma_env
    from linlog.autodiff import transpose, unzip
    from linlog.lll import Abs, App, PVar, Var, WithPair
    from linlog.lll.terms import PWith, TensorPair as TP
    c = lll_p_cases(40, 93)
    found = 0
    for case in c:
        if found >= 5:
            break
        f, _ = forward(case.sigma, case.term, case.supply)
        t = transpose(None, unzip(f, case.supply), case.supply)
        env = _sigma_env(case.sigma)
        ty = typecheck(env, t)
        dom = ty.right.right.dom
        cod = ty.right.right.cod
        from linlog.lll.types import With
        if not isinstance(cod, With) or cod.left != cod.right:
            continue
        found += 1
        # swap the two output components of the transposed map
        u = case.supply.fresh("u")
        sw = case.supply.fresh("s")
        swap = Abs(PWith(PVar(u, cod.left), PVar(sw, cod.right)),
                   WithPair(Var(sw), Var(u)))
        z, g = case.supply.fresh("z"), case.supply.fresh("g")
        from linlog.lll import PBang, PTensor, para, para_pattern, let_, BangVal
        pat = PTensor(PBang(z, ty.left.inner),
                      para_pattern(PVar(g, ty.right.right)))
        from linlog.lll.terms import Abs as _Abs
        uu = case.supply.fresh("q")
        mangled = let_(pat, t,
                       TP(BangVal(Var(z)),
                          para(_Abs(PVar(uu, dom),
                                    App(swap, App(Var(g), Var(uu)))))))
        assert typecheck(env, mangled) == ty
        v = equiv_check(t, mangled, env, CFG)
        assert v.ty == ty
        # equivalence may hold by accident only if the map is symmetric;
        # require at least one detected counterexample across the sample
        if not v.equivalent:
            return
    assert found >= 1, "no suitable case generated"
    pytest.skip("all sampled maps were symmetric under the swap")


@pytest.mark.parametrize("body", [
    "(let-p z (ptup x y) (let-ptup (a b) z (prim mul2 a b)))",
    "(let-p z (ptup x x) (let-ptup (a b) z (prim add2 a b)))",
    "(let-p u (ptup) (let-ptup () u (prim sin x)))",
    "(ptup x y)",
])
def test_forward_commutes_on_primal_tuples(body):
    """The forward square of `check_commute_forward` on programs that build
    and split primal tuples, which the generated corpus never does."""
    supply = NameSupply()
    sf = parse(f"(linear-a (primal (x real) (y real)) (expr {body}))", supply)
    penv, e = dict(sf.primal), sf.body
    fv = [x for x in penv if x in fv_primal(e)]
    phi = {x: f"{x}'" for x in fv}
    theta = [(x, primal_type(penv[x])) for x in fv]
    lhs, used = forward(theta, delta_b_primal(penv, e, supply), supply)
    rhs_jax = jax_forward(phi, e, supply)
    theta2 = [(phi[x], penv[x]) for x, _ in used]
    rhs = delta(penv, theta2, rhs_jax, supply)
    env = TypingEnv.of(*[PBang(x, primal_type(penv[x])) for x in sorted(fv)])
    assert equiv_check(lhs, rhs, env, EquivConfig(sample_count=16))


def test_skip_unzip_skips_a_case_that_overflows():
    """The one generated case of this seed overflows `exp` in both TUF and
    TF at a sampled input; it is skipped, not counted or raised."""
    r = check_skip_unzip(2, 2108007016, EquivConfig(sample_count=16))
    assert r.line() == "PASS skip-unzipping: 1 cases, 0 violations"
