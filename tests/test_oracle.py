import functools
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from linlog import NameSupply, autodiff, checks, oracle
from linlog.autodiff import forward, seq_tangent, transpose, unzip
from linlog.errors import LinlogError
from linlog.frontend import parse
from linlog.gen import lll_p_cases
from linlog.linear_a import PrimApp, Scalar, let_p, p_var
from linlog.linear_a.expr import fv_primal
from linlog.lll import (
    Abs, App, Numeral, PVar, PWith, PlusDot, Real, Top, TopVal, TypeMismatch,
    TypingEnv, Var, With, WithPair, Zero, normalize, workload_type,
)
from linlog.lll.machine import run
from linlog.lll.prims import prim
from linlog.lll.reduce import simplify
from linlog.lll.sorts import primal_inner_type
from linlog.lll.terms import BangVal, PBang, PTensor, TensorPair, para_pattern
from linlog.lll.types import Lolli
from linlog.lll.workload import workload_term
from linlog.oracle import (
    EquivConfig, _split_tangent, basis, basis_values, equiv_check,
    finite_diff_grad, flatten_value, inner_product, mk_dual, mk_undual,
    naive_transpose, numtuple_to_primal_value, random_value_of, run_grad,
    term_to_value, value_to_numtuple,
)
from linlog.translate import TangentCtx, delta_b_primal, primal_type
from tests import ref_oracle
from tests.terms9 import fig9a_term
from tests.test_linear_a import g_grad, g_value

RR = With(Real, Real)


def test_basis_shapes():
    assert basis(Real) == [Numeral(1.0)]
    assert basis(Top) == [TopVal()]
    b = basis(RR)
    assert len(b) == 2 == workload_type(RR)
    vals = [flatten_value(term_to_value(t)) for t in b]
    assert vals == [[1.0, 0.0], [0.0, 1.0]]


def test_basis_gram_matrix_is_identity():
    h = With(RR, Top)
    ip = inner_product(h)
    bs = basis(h)
    for i, vi in enumerate(bs):
        for j, vj in enumerate(bs):
            from linlog.lll.terms import TensorPair
            out = normalize(App(ip, TensorPair(vi, vj))).result
            expect = 1.0 if i == j else 0.0
            assert out == Numeral(expect) or (expect == 0.0 and out == Zero())


def test_inner_product_scalar():
    from linlog.lll.terms import TensorPair
    out = normalize(App(inner_product(Real),
                        TensorPair(Numeral(2.0), Numeral(3.0)))).result
    assert out == Numeral(6.0)


def test_dual_undual_roundtrip_on_basis():
    h = RR
    dual, undual = mk_dual(h), mk_undual(h)
    for v in basis(h):
        roundtrip = App(undual, App(dual, v))
        got, _ = run(roundtrip)
        assert flatten_value(got) == pytest.approx(flatten_value(term_to_value(v)))


def test_equiv_reflexive_and_distinguishing():
    m = Abs(PVar("u", Real), Var("u"))
    n = Abs(PVar("u", Real),
            App(PlusDot(), WithPair(Var("u"), Zero())))
    k = Abs(PVar("u", Real), App(PlusDot(), WithPair(Var("u"), Var("u"))))
    ty = Lolli(Real, Real)
    for v in (equiv_check(m, m, TypingEnv()),
              equiv_check(m, n, TypingEnv())):  # u + 0 == u, exact on basis
        assert v and v.ty == ty
    bad = equiv_check(m, k, TypingEnv())
    assert not bad.equivalent and bad.counterexample is not None
    assert bad.ty == ty
    with pytest.raises(TypeMismatch, match="does not match"):
        equiv_check(m, Numeral(1.0), TypingEnv())


def test_naive_transpose_identity():
    s = NameSupply()
    p = PVar("u", Real)
    q, body = naive_transpose(p, Var("u"), Real, s)
    # feeding the unit cotangent returns the unit vector
    val, _ = run(App(Abs(q, body), Numeral(1.0)))
    assert flatten_value(val) == [1.0]


def test_naive_transpose_contraction():
    # U = <<u, u>, u'> under p = <u, u'>: basis cotangents recover the
    # additive contraction + passthrough matrix
    s = NameSupply()
    p = PWith(PVar("u", Real), PVar("u2", Real))
    u = WithPair(WithPair(Var("u"), Var("u")), Var("u2"))
    h = With(With(Real, Real), Real)
    q, body = naive_transpose(p, u, h, s)
    lam = Abs(q, body)
    rows = []
    from linlog.oracle import basis_values
    for b in basis_values(h):
        from linlog.lll.machine import apply_value, Flops
        v = apply_value(term_to_value(lam), b, Flops())
        rows.append(flatten_value(v))
    # transpose of [[1,0],[1,0],[0,1]]
    assert rows == [pytest.approx([1.0, 0.0]), pytest.approx([1.0, 0.0]),
                    pytest.approx([0.0, 1.0])]


def test_finite_diff_on_g():
    p = fig9a_term()
    theta = [("x", Real), ("y", Real)]
    [g] = finite_diff_grad(p, theta, [Scalar(0.0), Scalar(1.0)])
    assert g == pytest.approx([1.0, 0.0], abs=1e-5)
    [g2] = finite_diff_grad(p, theta, [Scalar(0.5), Scalar(2.0)])
    assert g2 == pytest.approx(list(g_grad(0.5, 2.0)), abs=1e-5)


def test_run_grad_tuf_and_tf_agree():
    p = fig9a_term()
    theta = [("x", Real), ("y", Real)]
    for (x, y) in [(0.0, 1.0), (0.5, 2.0), (-1.5, 0.25)]:
        r1 = run_grad(p, theta, [Scalar(x), Scalar(y)], pipeline="tuf")
        r2 = run_grad(p, theta, [Scalar(x), Scalar(y)], pipeline="tf")
        assert r1.primal.value == pytest.approx(g_value(x, y))
        gx, gy = g_grad(x, y)
        assert r1.gradient[0].value == pytest.approx(gx)
        assert r1.gradient[1].value == pytest.approx(gy)
        assert r2.gradient[0].value == pytest.approx(r1.gradient[0].value)
        assert r2.gradient[1].value == pytest.approx(r1.gradient[1].value)
        assert r1.flops <= r1.workload_bound
        assert r2.flops <= r2.workload_bound


def test_run_grad_jacobian_for_tuple_output():
    import math
    from linlog import NameSupply
    from linlog.lll import BangVal, TensorPair, Var, bang_let, prim, prim_app
    # P = !(sin(x), mul(x, y)): Jacobian is [[cos x, 0], [y, x]]
    def bang(x):
        return BangVal(Var(x))
    p = bang_let("a", Real, prim_app(prim("sin"), [bang("x")]),
                 bang_let("b", Real, prim_app(prim("mul2"), [bang("x"), bang("y")]),
                          BangVal(TensorPair(bang("a"), bang("b")))))
    theta = [("x", Real), ("y", Real)]
    x0, y0 = 0.4, 1.7
    res = run_grad(p, theta, [Scalar(x0), Scalar(y0)], "tuf",
                   supply=NameSupply())
    assert res.jacobian_t is not None and len(res.jacobian_t) == 2
    row_a = [v.value for v in res.jacobian_t[0]]
    row_b = [v.value for v in res.jacobian_t[1]]
    assert row_a == pytest.approx([math.cos(x0), 0.0])
    assert row_b == pytest.approx([y0, x0])
    assert res.flops <= res.workload_bound


def test_finite_diff_rows_follow_the_jacobian_of_a_tuple_output():
    from linlog.lll import BangVal, TensorPair, Var, bang_let, prim, prim_app

    def bang(x):
        return BangVal(Var(x))
    p = bang_let("a", Real, prim_app(prim("sin"), [bang("x")]),
                 bang_let("b", Real, prim_app(prim("mul2"), [bang("x"), bang("y")]),
                          BangVal(TensorPair(bang("a"), bang("b")))))
    theta = [("x", Real), ("y", Real)]
    point = [Scalar(0.4), Scalar(1.7)]
    res = run_grad(p, theta, point, "tuf")
    fd = finite_diff_grad(p, theta, point)
    assert len(fd) == len(res.jacobian_t) == 2
    for got, row in zip(fd, res.jacobian_t):
        assert got == pytest.approx([v.value for v in row], abs=1e-6)


def chain_program(n_lets):
    """A straight-line Linear-A program of `n_lets` lets over x0, x1 whose
    values stay within 2.5 and whose gradient neither vanishes nor blows
    up: a sin or cos of the last value, then that plus (or times) an
    input."""
    prev, lets = "x0", []
    for i in range(n_lets):
        v = f"v{i}"
        if i % 2 == 0:
            lets.append(f"(let-p {v} (prim {('sin', 'cos')[i // 2 % 2]} {prev})")
        else:
            op = "mul2" if i % 8 == 7 else "add2"
            lets.append(f"(let-p {v} (prim {op} {prev} x{i // 2 % 2})")
        prev = v
    body = " ".join(lets) + f" (var-p {prev})" + ")" * n_lets
    return f"(linear-a (primal (x0 real) (x1 real)) (expr {body}))"


def chain_expr(n_lets, supply):
    """The body of `chain_program(n_lets)`, built directly with `let_p`
    and `PrimApp`: the parser, whose reader nests one call per let, fails
    at about 1000 lets."""
    prev, rhss = "x0", []
    for i in range(n_lets):
        if i % 2 == 0:
            rhss.append(PrimApp(prim(("sin", "cos")[i // 2 % 2]), (prev,)))
        else:
            op = "mul2" if i % 8 == 7 else "add2"
            rhss.append(PrimApp(prim(op), (prev, f"x{i // 2 % 2}")))
        prev = f"v{i}"
    e = p_var(prev, supply)
    for i in reversed(range(n_lets)):
        e = let_p(f"v{i}", rhss[i], e, supply)
    return e


def test_gradient_of_a_150_let_chain_at_the_default_recursion_limit():
    import sys
    from linlog.frontend import parse
    from linlog.linear_a.expr import fv_primal
    from linlog.translate import delta_b_primal, primal_type

    assert sys.getrecursionlimit() <= 1000
    sf = parse(chain_program(150))
    supply = NameSupply()
    term = delta_b_primal(dict(sf.primal), sf.body, supply)
    theta = [(x, primal_type(t)) for x, t in sf.primal
             if x in fv_primal(sf.body)]
    point = [Scalar(0.7), Scalar(-0.4)]
    res = run_grad(term, theta, point, pipeline="tuf", supply=supply)
    [fd] = finite_diff_grad(term, theta, point)
    got = [g.value for g in res.gradient]
    assert len(got) == len(fd) == 2
    assert all(abs(g) > 0.1 for g in got), got
    assert got == pytest.approx(fd, rel=1e-5, abs=1e-5)
    assert 0 < res.flops <= res.workload_bound


# ------------------------------------------- linearizing once, against the
# per-cotangent loop that `run_grad` replaced

LADDER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.py"


@functools.cache
def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER_PATH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lowered(prog):
    """(term, theta, supply) of a ladder program, lowered as the command
    line's grad lowers it."""
    supply = NameSupply()
    sf = parse(prog.source(), supply)
    term = delta_b_primal(dict(sf.primal), sf.body, supply)
    theta = [(x, primal_type(t)) for x, t in sf.primal
             if x in fv_primal(sf.body)]
    return term, theta, supply


def ladder_case(n_lets, n_inputs, n_outputs, seed=0):
    """A straight-line program of the benchmark's gradient ladder, lowered,
    with a point."""
    rng = random.Random(f"ladder:{seed}:{n_lets}:{n_outputs}")
    term, theta, supply = lowered(
        _ladder().generate(rng, n_lets, n_inputs, n_outputs))
    point = [Scalar(rng.uniform(-1.5, 1.5)) for _ in theta]
    return term, theta, point, supply


def reference_run_grad(p, theta, point, pipeline, simplify_output, supply):
    """`run_grad` before it linearized once: for each basis cotangent it
    wraps the transposed term, compiles it, runs it whole, primal included,
    and walks the wrapper for its workload; flops and bounds add up.
    Returns (primal, rows, flops, bound); the primal is None when the
    output has no basis cotangent."""
    f, enum = forward(theta, p, supply)
    r = transpose(None, unzip(f, supply) if pipeline == "tuf" else f, supply)
    if simplify_output:
        r = simplify(r)
    ein = TangentCtx.and_type([(n, seq_tangent(e)) for n, e in enum])
    out_e = primal_inner_type(p, dict(theta))
    hty = seq_tangent(out_e)
    values = {n: numtuple_to_primal_value(v) for (n, _), v in zip(theta, point)}

    def one_run(cotangent):
        z, g = supply.fresh("z"), supply.fresh("g")
        pat = PTensor(PBang(z, out_e), para_pattern(PVar(g, Lolli(hty, ein))))
        total = App(Abs(pat, TensorPair(BangVal(Var(z)),
                                        App(Var(g), cotangent))), r)
        out, flops = run(total, values)
        by_name = dict(zip([n for n, _ in enum],
                           _split_tangent(out.right, enum)))
        return (value_to_numtuple(out.left.inner),
                [by_name[n] for n, _ in theta], flops, workload_term(total))

    # one cotangent per scalar dimension: a bare () output has none
    # (`basis(Top)` keeps its single point only to probe maps out of it)
    runs = [one_run(b) for b in ([] if hty is Top else basis(hty))]
    return (runs[-1][0] if runs else None, [row for _, row, _, _ in runs],
            sum(fl for *_, fl, _ in runs), sum(wb for *_, wb in runs))


def _rows_of(res):
    return [res.gradient] if res.jacobian_t is None else res.jacobian_t


def _same_as_reference(term, theta, point, supply, pipeline, simplify_output):
    """Checks one run against the reference; returns (k, result, reference).
    Where the output has no basis cotangent the reference never ran, and
    only the linearized run has a primal and flops."""
    ref = reference_run_grad(term, theta, point, pipeline, simplify_output,
                             supply.clone())
    res = run_grad(term, theta, point, pipeline,
                   simplify_output=simplify_output, supply=supply.clone())
    primal, rows, flops, bound = ref
    assert repr(_rows_of(res)) == repr(rows)
    assert res.flops <= res.workload_bound
    if not rows:
        assert primal is None and res.primal is not None
    elif res.jacobian_t is None:
        assert repr(res.primal) == repr(primal)
        assert (res.flops, res.workload_bound) == (flops, bound)
    else:
        assert repr(res.primal) == repr(primal)
        assert res.flops <= flops and res.workload_bound <= bound
    return len(rows), res, ref


# (lets, inputs, outputs)
LADDER_SHAPES = [(30, 2, 1), (15, 3, 2), (10, 2, 3), (30, 3, 6)]


@pytest.mark.parametrize("pipeline", ["tuf", "tf"])
@pytest.mark.parametrize("simplify_output", [False, True])
def test_run_grad_matches_the_per_cotangent_loop_on_ladder_programs(
        pipeline, simplify_output):
    for shape in LADDER_SHAPES:
        k, res, (_, _, flops, bound) = _same_as_reference(
            *ladder_case(*shape), pipeline, simplify_output)
        assert k == shape[2]
        if k > 1:
            # one primal run instead of k
            assert res.flops < flops and res.workload_bound < bound


@pytest.mark.parametrize("pipeline", ["tuf", "tf"])
@pytest.mark.parametrize("simplify_output", [False, True])
def test_run_grad_matches_the_per_cotangent_loop_on_tuple_outputs(
        pipeline, simplify_output):
    rng = random.Random(81)
    jacobians = 0
    for c in lll_p_cases(60, 81):
        if primal_inner_type(c.term, dict(c.sigma)) is Real:
            continue
        point = [value_to_numtuple(random_value_of(e, rng)) for _, e in c.sigma]
        try:
            k, _, _ = _same_as_reference(c.term, c.sigma, point, c.supply,
                                         pipeline, simplify_output)
        except OverflowError:
            continue
        jacobians += k > 1
    assert jacobians >= 15


def test_run_grad_compiles_once_whatever_the_number_of_outputs(
        monkeypatch):
    calls = {"compile_term": 0, "workload_term": 0}
    for name in calls:
        def counted(*args, _real=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(oracle, name, counted)
    term, theta, point, supply = ladder_case(10, 2, 3)
    res = run_grad(term, theta, point, supply=supply)
    assert len(res.jacobian_t) == 3
    assert calls["compile_term"] == 1 and calls["workload_term"] <= 2


# ---- the lane-batched comparison against the per-value reference

SQUARE_CHECKS = [("check_commute_forward", 10, 131),
                 ("check_commute_unzip", 10, 132),
                 ("check_commute_transpose", 10, 133),
                 ("check_skip_unzip", 8, 151)]
SQUARE_CFG = EquivConfig(sample_count=16)


def square_sides(checks_run=SQUARE_CHECKS):
    """(m, n, env) of every `equiv_check` the commutation-square checks
    make on small corpora: their F, U and T images and the Linear-A
    images they are compared with."""
    sides = []

    def record(m, n, env, cfg=None):
        sides.append((m, n, env))
        return equiv_check(m, n, env, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "equiv_check", record)
        for name, n, seed in checks_run:
            getattr(checks, name)(n, seed, SQUARE_CFG)
    return sides


@functools.cache
def square_corpus():
    return square_sides()


def verdict_of(check, m, n, env):
    try:
        v = check(m, n, env, SQUARE_CFG)
    except (LinlogError, OverflowError) as e:
        return type(e), str(e)
    return v.equivalent, v.ty, repr(v.counterexample)


def test_equiv_check_matches_the_per_value_reference_on_the_squares():
    sides = square_corpus()
    assert len(sides) >= 35
    for m, n, env in sides:
        got = verdict_of(equiv_check, m, n, env)
        assert got == verdict_of(ref_oracle.equiv_check, m, n, env)
        assert got[0] is True


def test_equiv_check_matches_the_reference_on_a_wrong_transpose():
    """T with its with-pair rule wrong: a pair of two variables of one
    type is transposed as if its components were swapped, which keeps
    every type.  The check must fail, with the reference's counterexample."""
    real = autodiff.transpose_t

    def swapped(phi, p, u, supply, env=None, occurs=None):
        if u.__class__ is WithPair and env:
            x, y = u.left, u.right
            if (x.__class__ is Var and y.__class__ is Var and x.name in env
                    and y.name in env and env[x.name][1] == env[y.name][1]):
                u = WithPair(y, x)
        return real(phi, p, u, supply, env, occurs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autodiff, "transpose_t", swapped)
        sides = square_sides([("check_commute_transpose", 30, 133)])
    verdicts = [verdict_of(equiv_check, m, n, env) for m, n, env in sides]
    assert verdicts == [verdict_of(ref_oracle.equiv_check, m, n, env)
                        for m, n, env in sides]
    failed = [v for v in verdicts if v[0] is False]
    assert len(failed) >= 3 and all(v[2] != "None" for v in failed)
