import pytest

from linlog import NameSupply
from linlog.autodiff import forward
from linlog.lll import (
    Abs, App, Bang, BangVal, Lolli, Numeral, PVar, PWith, Real, Tensor, Top,
    TopVal, Var, With, WithPair, affine, is_ground, is_safe, is_tensor_seq,
    is_with_seq, prim, prim_app, workload_term, workload_type,
)
from linlog.lll.sorts import Sort, classify_sort
from linlog.lll.terms import PBang, PlusDot, TimesDot

RR = With(Real, Real)


def test_workload_type_examples():
    assert workload_type(RR) == 2
    assert workload_type(Tensor(Bang(Real), Bang(Real))) == 0
    # the affine modality is a derived form: par(R -o R) = 1 & (R -o R)
    assert workload_type(affine(Lolli(Real, Real))) == 2
    assert workload_type(Top) == 0


def test_type_predicates():
    assert is_tensor_seq(Tensor(Bang(Real), Bang(Tensor(Bang(Real), Bang(Real)))))
    assert not is_tensor_seq(Tensor(Real, Real))
    assert is_with_seq(With(RR, Top))
    assert not is_with_seq(Tensor(Bang(Real), Bang(Real)))
    assert is_ground(Tensor(Bang(Real), Bang(Real)))
    assert not is_ground(affine(Lolli(Real, Real)))


def test_workload_term_primitive_application():
    t = prim_app(prim("mul2"), [BangVal(Var("x1")), BangVal(Var("x2"))])
    assert workload_term(t) == 1


def test_workload_term_erasing_abstraction():
    assert workload_term(Abs(PVar("u", Real), TopVal())) == 1
    # erased exponential variables cost nothing
    assert workload_term(Abs(PBang("u", Real), TopVal())) == 0


def test_workload_forward_of_binary_primitive_is_six():
    s = NameSupply()
    t = prim_app(prim("mul2"), [BangVal(Var("x1")), BangVal(Var("x2"))])
    f, _ = forward([("x1", Real), ("x2", Real)], t, s)
    assert workload_term(f) == 6
    assert workload_term(f) <= 6 * workload_term(t)


def test_is_safe_examples():
    x = prim_app(prim("sin"), [BangVal(Var("x"))])
    assert not is_safe(BangVal(x), {"x": Bang(Real)})
    shared_fn = WithPair(App(Var("f"), Var("u")), App(Var("f"), Var("u2")))
    # sharing a function variable across components breaks safety
    t = Abs(PWith(PVar("u", Real), PVar("u2", Real)), shared_fn)
    assert not is_safe(t, {"f": Lolli(Real, Real)})
    # sharing only ground variables is fine
    ok = Abs(PVar("u", Real), WithPair(Var("u"), Var("u")))
    assert is_safe(ok, {})


def test_classify_sort_tangent_function():
    body = App(PlusDot(), WithPair(
        App(App(TimesDot(), Var("y1")), Var("u1")),
        App(App(TimesDot(), Var("y2")), Var("u2"))))
    t = Abs(PWith(PVar("u1", Real), PVar("u2", Real)), body)
    tys = {"y1": Bang(Real), "y2": Bang(Real)}
    assert classify_sort(t, tys) == Sort.LLL_F


def test_classify_sort_tangent_term():
    tys = {"u": Real}
    assert classify_sort(Var("u"), tys) == Sort.LLL_T
    assert classify_sort(WithPair(Var("u"), Var("u")), tys) == Sort.LLL_T


def test_prop3_pointwise_soundness():
    # delta of a program computes the same primal and tangent values
    import math
    import random
    from linlog.gen import jax_cases
    from linlog.linear_a import eval_primal, eval_tangent
    from linlog.lll.machine import apply_value, eval_term, Flops
    from linlog.oracle import (numtuple_to_primal_value,
                               numtuple_to_tangent_value, value_to_numtuple)
    from linlog.linear_a.values import flatten
    from linlog.translate import delta

    rng = random.Random(17)
    for c in jax_cases(40, 17, "linear-a"):
        d = delta(c.penv, c.theta, c.expr, c.supply)
        renv, values = {}, {}
        for x, ty in c.penv.items():
            nt = _random_numtuple(ty, rng)
            renv[x] = nt
            values[x] = numtuple_to_primal_value(nt)
        senv = {}
        tanvals = []
        for n, ty in c.theta:
            nt = _random_numtuple(ty, rng)
            senv[n] = nt
            tanvals.append(numtuple_to_tangent_value(nt))
        out = eval_term(d, values, Flops())
        primal = value_to_numtuple(out.left.inner)
        want_p = eval_primal(c.expr, renv)
        assert flatten(primal) == pytest.approx(flatten(want_p)), c.expr
        if tanvals:
            from linlog.lll.machine import VWith
            tv = tanvals[-1]
            for v in reversed(tanvals[:-1]):
                tv = VWith(v, tv)
        else:
            from linlog.lll.machine import VTop
            tv = VTop()
        tangent = value_to_numtuple(apply_value(out.right.right, tv, Flops()))
        want_t = eval_tangent(c.expr, renv, senv)
        assert flatten(tangent) == pytest.approx(flatten(want_t)), c.expr


def _random_numtuple(ty, rng):
    from linlog.linear_a.expr import JProd, JReal
    from linlog.linear_a.values import NPair, Scalar, UnitTup
    match ty:
        case t if t is JReal:
            return Scalar(rng.uniform(-2, 2))
        case JProd(l, r):
            return NPair(_random_numtuple(l, rng), _random_numtuple(r, rng))
        case _:
            return UnitTup


def test_vector_space_laws():
    # associativity, commutativity, zero neutrality, scale distributivity
    import random
    from linlog.lll.machine import run, values_close
    from linlog.oracle import random_value_of
    from linlog.lll.machine import value_to_term
    from linlog.translate import add_app, mk_zero, scale_app

    rng = random.Random(23)
    h = With(RR, With(Top, Real))
    for _ in range(25):
        a = value_to_term(random_value_of(h, rng))
        b = value_to_term(random_value_of(h, rng))
        c = value_to_term(random_value_of(h, rng))
        s = rng.uniform(-2, 2)
        lhs, _ = run(add_app(h, a, add_app(h, b, c)))
        rhs, _ = run(add_app(h, add_app(h, a, b), c))
        assert values_close(lhs, rhs, 1e-9)
        lhs, _ = run(add_app(h, a, b))
        rhs, _ = run(add_app(h, b, a))
        assert values_close(lhs, rhs, 1e-9)
        lhs, _ = run(add_app(h, a, mk_zero(h)))
        rhs, _ = run(a)
        assert values_close(lhs, rhs, 1e-9)
        lhs, _ = run(scale_app(h, Numeral(s), add_app(h, a, b)))
        rhs, _ = run(add_app(h, scale_app(h, Numeral(s), a),
                             scale_app(h, Numeral(s), b)))
        assert values_close(lhs, rhs, 1e-8)
