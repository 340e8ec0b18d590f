import math

import pytest

from linlog import NameSupply
from linlog.linear_a import (
    AddDot, Drop, Dup, JOne, JProd, JReal, Lit, NPair, PrimApp, Scalar,
    ScaleDot, TangentLinearityViolation, UnitTup, VarPair,
    ZeroDot, eval_primal, eval_tangent, fv_primal, fv_tangent, is_linear_b,
    is_primal_expr, is_tangent_expr, jax_forward, jax_transpose, jax_unzip,
    jax_workload, let_p, pair_pt, p_var, t_var, typecheck_jax,
)
from linlog.linear_a.expr import pair_tail, rebuild, spine
from linlog.linear_a.values import flatten, zero_of
from linlog.lll.prims import prim


def unflatten(xs, t):
    """The tuple of type `t` whose scalars, left to right, are `xs`."""
    rest = iter(xs)

    def go(ty):
        if ty is JReal:
            return Scalar(next(rest))
        if ty is JOne:
            return UnitTup
        return NPair(go(ty.left), go(ty.right))
    return go(t)


def basis_tuples(t):
    """The unit tuples of type `t`, one per scalar component."""
    n = len(flatten(zero_of(t)))
    out = []
    for i in range(n):
        xs = [0.0] * n
        xs[i] = 1.0
        out.append(unflatten(xs, t))
    return out


def g_expr(supply):
    """let v1 = sin(x) in let v2 = v1*y in let v3 = cos(x) in
       let v4 = v2+v3 in v4  -- computes sin(x)*y + cos(x)."""
    return let_p(
        "v1", PrimApp(prim("sin"), ("x",)),
        let_p(
            "v2", PrimApp(prim("mul2"), ("v1", "y")),
            let_p(
                "v3", PrimApp(prim("cos"), ("x",)),
                let_p("v4", PrimApp(prim("add2"), ("v2", "v3")),
                      p_var("v4", supply), supply), supply), supply), supply)


G_ENV = {"x": JReal, "y": JReal}


def g_value(x, y):
    return math.sin(x) * y + math.cos(x)


def g_grad(x, y):
    return (math.cos(x) * y - math.sin(x), math.sin(x))


def test_g_is_primal_and_types():
    e = g_expr(NameSupply())
    assert is_primal_expr(e)
    assert typecheck_jax(G_ENV, {}, e) == (JReal, JOne)


def test_eval_primal_g():
    e = g_expr(NameSupply())
    assert eval_primal(e, {"x": Scalar(0.0), "y": Scalar(1.0)}) == Scalar(1.0)
    got = eval_primal(e, {"x": Scalar(0.5), "y": Scalar(2.0)})
    assert got.value == pytest.approx(g_value(0.5, 2.0))


def test_drop_evaluates_to_unit():
    e = Drop(g_expr(NameSupply()))
    assert eval_primal(e, {"x": Scalar(1.0), "y": Scalar(2.0)}) == UnitTup


def test_tangent_linearity_violation():
    with pytest.raises(TangentLinearityViolation):
        typecheck_jax({}, {"t": JReal}, AddDot("t", "t"))


def test_forward_types_and_directional_derivative():
    s = NameSupply()
    e = g_expr(s)
    fwd = jax_forward({"x": "dx", "y": "dy"}, e, s)
    assert typecheck_jax(G_ENV, {"dx": JReal, "dy": JReal}, fwd) == (JReal, JReal)
    for (x, y) in [(0.0, 1.0), (0.5, 2.0), (-1.2, 0.7)]:
        renv = {"x": Scalar(x), "y": Scalar(y)}
        assert eval_primal(fwd, renv).value == pytest.approx(g_value(x, y))
        gx, gy = g_grad(x, y)
        d = eval_tangent(fwd, renv, {"dx": Scalar(1.0), "dy": Scalar(0.0)})
        assert d.value == pytest.approx(gx)
        d = eval_tangent(fwd, renv, {"dx": Scalar(0.0), "dy": Scalar(1.0)})
        assert d.value == pytest.approx(gy)


def test_forward_of_variable_is_varpair():
    s = NameSupply()
    assert jax_forward({"x": "dx"}, p_var("x", s), s) == VarPair("x", "dx")


def test_unzip_preserves_type_and_semantics():
    s = NameSupply()
    fwd = jax_forward({"x": "dx", "y": "dy"}, g_expr(s), s)
    uz = jax_unzip(fwd, s)
    assert is_linear_b(uz)
    tenv = {"dx": JReal, "dy": JReal}
    assert typecheck_jax(G_ENV, tenv, uz) == (JReal, JReal)
    renv = {"x": Scalar(0.3), "y": Scalar(-1.1)}
    senv = {"dx": Scalar(0.25), "dy": Scalar(2.0)}
    assert eval_primal(uz, renv).value == pytest.approx(eval_primal(fwd, renv).value)
    assert eval_tangent(uz, renv, senv).value == \
        pytest.approx(eval_tangent(fwd, renv, senv).value)


def test_unzip_of_varpair_is_identity_shape():
    s = NameSupply()
    uz = jax_unzip(VarPair("x", "dx"), s)
    frames, tail = spine(uz)
    ep, et = pair_tail(frames, tail)
    # the pair's own let_p is the only frame: no primal prefix
    assert [f[0] for f in frames] == ["letp"] and frames[0][2] is ep
    assert is_primal_expr(ep) and is_tangent_expr(et)


def test_spine_and_rebuild_round_trip_on_unzipped_programs():
    from linlog.gen import jax_cases

    kinds = set()
    for c in jax_cases(40, 5, "linear-a"):
        frames, tail = spine(jax_unzip(c.expr, c.supply))
        again = spine(rebuild(frames, tail, c.supply))
        assert again == (frames, tail)
        assert pair_tail(frames, tail) is not None
        kinds |= {f[0] for f in frames}
    assert kinds == {"letp", "pelim0"}


def test_transpose_of_variable():
    s = NameSupply()
    t = jax_transpose({}, [("dx", JReal)], "u", JReal, jax_unzip(t_var("dx", s), s), s)
    assert typecheck_jax({}, {"u": JReal}, t) == (JOne, JReal)
    assert eval_tangent(t, {}, {"u": Scalar(3.0)}) == Scalar(3.0)


def test_transpose_duality_on_g():
    # the Jacobian of the tangent map equals the transpose of the
    # transposed map's Jacobian, entry by entry
    s = NameSupply()
    fwd = jax_forward({"x": "dx", "y": "dy"}, g_expr(s), s)
    uz = jax_unzip(fwd, s)
    theta = [("dx", JReal), ("dy", JReal)]
    tr = jax_transpose(G_ENV, theta, "u", JReal, uz, s)
    assert typecheck_jax(G_ENV, {"u": JReal}, tr) == (JReal, JProd(JReal, JReal))
    renv = {"x": Scalar(0.7), "y": Scalar(-0.4)}
    gx, gy = g_grad(0.7, -0.4)
    cot = eval_tangent(tr, renv, {"u": Scalar(1.0)})
    assert flatten(cot) == pytest.approx([gx, gy])


def test_transpose_small_cases():
    s = NameSupply()
    # T(x +. y) = dup(u)
    add = AddDot("a", "b")
    # wrap in linear-b pair first
    d = pair_pt(Lit(0.0), add, s)
    tr = jax_transpose({}, [("a", JReal), ("b", JReal)], "u", JReal, d, s)
    out = eval_tangent(tr, {}, {"u": Scalar(5.0)})
    assert flatten(out) == [5.0, 5.0]
    # T(0.) = drop(u)
    d0 = pair_pt(Lit(0.0), ZeroDot(JReal), s)
    tr0 = jax_transpose({}, [], "u", JReal, d0, s)
    assert eval_tangent(tr0, {}, {"u": Scalar(9.0)}) == UnitTup
    # T(scale) = scale
    dsc = pair_pt(Lit(0.0), ScaleDot("c", "a"), s)
    trs = jax_transpose({"c": JReal}, [("a", JReal)], "u", JReal, dsc, s)
    assert eval_tangent(trs, {"c": Scalar(2.0)}, {"u": Scalar(3.0)}) == Scalar(6.0)
    # T(dup) sums the two cotangent components
    dd = pair_pt(Lit(0.0), Dup("a"), s)
    trd = jax_transpose({}, [("a", JReal)], "u", JProd(JReal, JReal), dd, s)
    assert eval_tangent(trd, {}, {"u": NPair(Scalar(2.0), Scalar(4.0))}) == Scalar(6.0)


def test_transpose_matrix_duality_random_tangent():
    # on a compound tangent expression, materialize both linear maps on
    # bases and compare as matrices
    s = NameSupply()
    #  let t = a +. b in <c *. t (x). a'>  with a' := dup etc: build simple
    from linlog.linear_a import let_t
    et = let_t("t", AddDot("a", "b"),
               ScaleDot("c", "t"), s)
    d = pair_pt(Lit(0.0), et, s)
    theta = [("a", JReal), ("b", JReal)]
    penv = {"c": JReal}
    renv = {"c": Scalar(1.7)}
    tr = jax_transpose(penv, theta, "u", JReal, d, s)
    fwd_mat = []
    for b in basis_tuples(JProd(JReal, JReal)):
        senv = {"a": b.left, "b": b.right}
        fwd_mat.append(flatten(eval_tangent(d, renv, senv)))
    back_mat = []
    for b in basis_tuples(JReal):
        back_mat.append(flatten(eval_tangent(tr, renv, {"u": b})))
    # fwd_mat is dim-out x dim-in when transposed correctly
    assert len(fwd_mat) == 2 and len(back_mat) == 1
    for i in range(2):
        assert fwd_mat[i][0] == pytest.approx(back_mat[0][i])


def test_workload_examples():
    s = NameSupply()
    assert jax_workload({}, {}, Lit(3.0)) == 1
    assert jax_workload({}, {}, ZeroDot(JReal)) == 2
    assert jax_workload({}, {"a": JReal}, Dup("a")) == 0
    e = g_expr(s)
    assert jax_workload(G_ENV, {}, e) == 4
    drop_e = Drop(e)
    assert jax_workload(G_ENV, {}, drop_e) == 4 + 1 + 0


def test_fv_functions():
    s = NameSupply()
    e = g_expr(s)
    assert fv_primal(e) == {"x", "y"}
    assert fv_tangent(e) == frozenset()


def test_each_walk_has_one_environment_and_delta_b_stays_linear(monkeypatch):
    """On the Linear-B form of a let chain, the checker, Delta and Delta_b
    each extend and restore one primal environment, and Delta_b asks the
    checker about each construct a bounded number of times."""
    import sys
    import threading

    from linlog.linear_a import typecheck as checker
    from linlog.translate import delta, delta_b
    from tests.test_oracle import chain_expr

    seen = []
    check = checker._check

    def recording(e, penv, tenv):
        seen.append(penv)
        return check(e, penv, tenv)

    monkeypatch.setattr(checker, "_check", recording)

    def walks(k):
        s = NameSupply()
        b = jax_unzip(jax_forward({"x0": "x0'", "x1": "x1'"},
                                  chain_expr(k, s), s), s)
        penv = {"x0": JReal, "x1": JReal}
        theta = [(t, JReal) for t in ("x0'", "x1'") if t in fv_tangent(b)]
        out = {}
        for name, run in (
                ("typecheck_jax", lambda: typecheck_jax(penv, dict(theta), b)),
                ("delta", lambda: delta(penv, theta, b, s)),
                ("delta_b", lambda: delta_b(penv, theta, b, s))):
            seen.clear()
            run()
            out[name] = (len(seen), len({id(p) for p in seen}))
        return out

    got = {}
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(20_000)
    threading.stack_size(128 << 20)
    try:
        worker = threading.Thread(
            target=lambda: got.update({k: walks(k) for k in (25, 50)}))
        worker.start()
        worker.join(300)
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    assert not worker.is_alive() and len(got) == 2
    for k in (25, 50):
        assert {name: envs for name, (_, envs) in got[k].items()} == {
            "typecheck_jax": 1, "delta": 1, "delta_b": 1}, k
    assert got[50]["delta_b"][0] <= 2.2 * got[25]["delta_b"][0]
