"""The compiled evaluator against the rewriting engine, its executable
specification, plus the binding and error behaviour compilation must keep,
the scoping of let right-hand sides flattened at compile time, and the
host stack depth that flattening bounds."""

import inspect
import random
import re
import sys
import threading

import pytest

from linlog import NameSupply
from linlog.autodiff import forward, transpose, transpose_f, unzip
from linlog.frontend import parse
from linlog.gen import lll_f_cases, safe_ground_cases
from linlog.linear_a.expr import fv_primal
from linlog.linear_a import Scalar
from linlog.lll import (
    Abs, App, BangVal, Lolli, Numeral, PBang, PlusDot, PTensor, PVar, PWith,
    Real, TensorPair, TimesDot, UnitVal, Var, WithPair, let_, prim,
    safe_reduce, workload_term,
)
from linlog.lll.machine import (
    Flops, MachineError, VBang, VLanes, VNum, VPair, VPlus, VPrim, VTimes,
    VTop, VUnit, VWith, apply_lanes, apply_value, compile_term,
    eval_compiled, eval_term, run, values_close,
)
from linlog.lll.typecheck import typecheck
from linlog.lll.types import Bang, Tensor, With, is_ground, is_with_seq
from linlog.oracle import (
    _close_env, basis_values, finite_diff_grad, random_value_of, run_grad,
)
from linlog.translate import delta_b_primal, primal_type
from tests.test_oracle import chain_program, square_corpus


def times(a, b):
    return App(App(TimesDot(), a), b)


def test_machine_matches_safe_reduce_on_ground_corpus():
    for i, c in enumerate(safe_ground_cases(200, 97)):
        out = safe_reduce(c.term)
        v, flops = run(c.term)
        ref, _ = run(out.result)
        assert values_close(v, ref, 0.0), (i, v, ref)
        assert flops == out.numeric_steps, (i, flops, out.numeric_steps)


def test_long_let_chain_at_default_recursion_limit():
    n = 450
    m = Var(f"x{n}")
    for i in range(n, 0, -1):
        m = let_(PVar(f"x{i}", Real), times(Numeral(1.0), Var(f"x{i - 1}")), m)
    v, flops = run(m, {"x0": VNum(2.0)})
    assert v == VNum(2.0)
    assert flops == n


def test_shadowing_and_closure_reuse():
    # let x = 2 in let f = \y. x *. y in let x = 3 in (f x, f 5)
    f = Abs(PVar("y", Real), times(Var("x"), Var("y")))
    m = let_(PVar("x", Real), Numeral(2.0),
             let_(PVar("f", Lolli(Real, Real)), f,
                  let_(PVar("x", Real), Numeral(3.0),
                       TensorPair(App(Var("f"), Var("x")),
                                  App(Var("f"), Numeral(5.0))))))
    v, flops = run(m)
    assert v == VPair(VNum(6.0), VNum(10.0))
    assert flops == 2


def test_compiled_term_runs_repeatedly_with_fresh_environments():
    c = compile_term(Abs(PVar("y", Real), times(Var("k"), Var("y"))))
    for k in (2.0, -1.5):
        fl = Flops()
        fn = eval_compiled(c, {"k": VNum(k)}, fl)
        assert apply_value(fn, VNum(4.0), fl) == VNum(4.0 * k)
        assert apply_value(fn, VNum(0.5), fl) == VNum(0.5 * k)
        assert fl.count == 2


def test_unbound_variable_fails_only_when_evaluated():
    lam = Abs(PVar("y", Real), Var("ghost"))
    v, _ = run(lam)
    with pytest.raises(MachineError, match="unbound ghost"):
        apply_value(v, VNum(1.0), Flops())


def test_pattern_mismatch_messages():
    with pytest.raises(MachineError, match=r"pattern !z against"):
        run(let_(PBang("z", Real), Numeral(1.0), Var("z")))
    with pytest.raises(MachineError, match="tensor pattern against"):
        run(let_(PTensor(PVar("a", Real), PVar("b", Real)), Numeral(1.0),
                 Var("a")))
    with pytest.raises(MachineError, match="expected a number"):
        run(times(BangVal(Numeral(1.0)), Numeral(2.0)))


# ---- let right-hand sides flattened at compile time

def num(x):
    return Numeral(float(x))


def real(name):
    return PVar(name, Real)


def agrees_with_safe_reduce(m):
    """The machine's value of the closed term `m`, after checking it and
    its flops against `safe_reduce`."""
    out = safe_reduce(m)
    v, flops = run(m)
    ref, _ = run(out.result)
    assert values_close(v, ref, 0.0), (v, ref)
    assert flops == out.numeric_steps, (flops, out.numeric_steps)
    return v


def test_split_pair_reads_outer_names_in_its_second_component():
    # let x = 2 in let <x, y> = <3 *. x, x *. 5> in x *. y
    m = let_(real("x"), num(2),
             let_(PWith(real("x"), real("y")),
                  WithPair(times(num(3), Var("x")), times(Var("x"), num(5))),
                  times(Var("x"), Var("y"))))
    assert agrees_with_safe_reduce(m) == VNum(60.0)


def test_names_of_a_let_in_a_right_hand_side_end_with_it():
    # let q = 7 in let p = (let q = 2 in q *. 3) in p *. q
    m = let_(real("q"), num(7),
             let_(real("p"), let_(real("q"), num(2), times(Var("q"), num(3))),
                  times(Var("p"), Var("q"))))
    assert agrees_with_safe_reduce(m) == VNum(42.0)
    # let p = 5 in let q = 7 in
    # let <p, r> = <(let q = 2 in q *. 3), p *. q> in p *. (r *. q)
    m = let_(real("p"), num(5), let_(real("q"), num(7), let_(
        PWith(real("p"), real("r")),
        WithPair(let_(real("q"), num(2), times(Var("q"), num(3))),
                 times(Var("p"), Var("q"))),
        times(Var("p"), times(Var("r"), Var("q"))))))
    assert agrees_with_safe_reduce(m) == VNum(6.0 * 35.0 * 7.0)


def test_nested_split_reads_outer_names():
    # let a = 2 in let b = 3 in
    # let <a, <b, c>> = <b *. 5, <a *. 7, a *. b>> in a *. (b *. c)
    m = let_(real("a"), num(2), let_(real("b"), num(3), let_(
        PWith(real("a"), PWith(real("b"), real("c"))),
        WithPair(times(Var("b"), num(5)),
                 WithPair(times(Var("a"), num(7)), times(Var("a"), Var("b")))),
        times(Var("a"), times(Var("b"), Var("c"))))))
    assert agrees_with_safe_reduce(m) == VNum(15.0 * 14.0 * 6.0)


def test_tensor_split_under_bang_patterns():
    # let !x = !2 in let (!x (x) !y) = (!(x *. 3) (x) !(x *. 5)) in !(x *. y)
    m = let_(PBang("x", Real), BangVal(num(2)), let_(
        PTensor(PBang("x", Real), PBang("y", Real)),
        TensorPair(BangVal(times(Var("x"), num(3))),
                   BangVal(times(Var("x"), num(5)))),
        BangVal(times(Var("x"), Var("y")))))
    assert agrees_with_safe_reduce(m) == VBang(VNum(60.0))


def test_binder_mismatch_inside_a_split_keeps_its_message():
    # let x = 4 in let <!x, y> = <!0.5, x *. 2> in x *. y
    m = let_(real("x"), num(4), let_(
        PWith(PBang("x", Real), real("y")),
        WithPair(BangVal(num(0.5)), times(Var("x"), num(2))),
        times(Var("x"), Var("y"))))
    assert agrees_with_safe_reduce(m) == VNum(4.0)
    message = re.escape("pattern !x against VNum(value=0.5)")
    for pat, pair in ((PWith, WithPair), (PTensor, TensorPair)):
        bad = let_(pat(PBang("x", Real), real("y")), pair(num(0.5), num(1)),
                   Var("y"))
        with pytest.raises(MachineError, match=message):
            run(bad)


# ---- specialised codes: slot operands, aliased lets, fused arithmetic

def plus(a, b):
    return App(PlusDot(), WithPair(a, b))


def test_an_alias_keeps_its_value_under_shadowing():
    # let x = 2 in let y = x in let x = 3 in y *. x
    m = let_(real("x"), num(2), let_(real("y"), Var("x"), let_(
        real("x"), num(3), times(Var("y"), Var("x")))))
    assert agrees_with_safe_reduce(m) == VNum(6.0)
    # the same under an abstraction, whose argument is aliased
    f = Abs(real("x"), let_(real("y"), Var("x"), let_(
        real("x"), num(3), times(Var("y"), Var("x")))))
    assert agrees_with_safe_reduce(App(f, num(2))) == VNum(6.0)


def test_an_aliased_split():
    # let x = 2 in let y = 5 in let <a, b> = <x, y> in
    # let <x, y> = <b, a> in <a *. y, x +. b>
    m = let_(real("x"), num(2), let_(real("y"), num(5), let_(
        PWith(real("a"), real("b")), WithPair(Var("x"), Var("y")), let_(
            PWith(real("x"), real("y")), WithPair(Var("b"), Var("a")),
            WithPair(times(Var("a"), Var("y")), plus(Var("x"), Var("b")))))))
    assert agrees_with_safe_reduce(m) == VWith(VNum(4.0), VNum(10.0))


@pytest.mark.parametrize("m, flops, bad", [
    (plus(BangVal(num(1)), num(2)), 1, "VBang(inner=VNum(value=1.0))"),
    (let_(real("u"), UnitVal(), plus(num(1), Var("u"))), 1, "VUnit()"),
    (let_(real("u"), UnitVal(), plus(times(num(1), num(2)), Var("u"))), 2,
     "VUnit()"),
    (let_(real("u"), UnitVal(), times(num(2), Var("u"))), 1, "VUnit()"),
    (times(let_(real("u"), UnitVal(), Var("u")), num(2)), 0, "VUnit()"),
])
def test_fused_arithmetic_rejects_a_non_number_after_its_flop(m, flops, bad):
    """The flop is counted, and the first non-number rejected, as applying
    `+.` or `*.` as a value does."""
    fl = Flops()
    with pytest.raises(MachineError, match=re.escape(
            f"expected a number, got {bad}")):
        eval_compiled(compile_term(m), {}, fl)
    assert fl.count == flops


def test_an_unsaturated_product_is_a_value():
    # let x = 2 in let f = *. x in (\g. <g 3, g 5>) f
    g = Abs(PVar("g", Lolli(Real, Real)),
            WithPair(App(Var("g"), num(3)), App(Var("g"), num(5))))
    m = let_(real("x"), num(2), let_(PVar("f", Lolli(Real, Real)),
                                     App(TimesDot(), Var("x")), App(g, Var("f"))))
    assert agrees_with_safe_reduce(m) == VWith(VNum(6.0), VNum(10.0))
    v, flops = run(App(TimesDot(), num(4)))
    assert v == VTimes(4.0) and flops == 0


def test_a_let_of_an_unbound_variable_still_fails():
    with pytest.raises(MachineError, match="unbound ghost"):
        run(let_(real("y"), Var("ghost"), num(1)))
    lam, _ = run(Abs(real("z"), let_(real("y"), Var("ghost"), Var("z"))))
    with pytest.raises(MachineError, match="unbound ghost"):
        apply_value(lam, VNum(1.0), Flops())


def test_gradient_of_a_460_let_chain_at_the_default_recursion_limit():
    """Each level of the transposed map costs the evaluator two host
    frames, its application and the callee's entry.  Under pytest 470 lets
    pass and 480 do not (in T, also two frames per level), so a pass that
    costs one more frame per level of the program fails here."""
    assert sys.getrecursionlimit() <= 1000
    sf = parse(chain_program(460))
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


# ---- host stack depth

ENV = {"x0": VNum(0.7), "x1": VNum(-0.4)}


def transposed_chain(n_lets):
    """The Δ term of `chain_program(n_lets)` and T(U) of its F image."""
    sf = parse(chain_program(n_lets))
    supply = NameSupply()
    term = delta_b_primal(dict(sf.primal), sf.body, supply)
    theta = [(x, primal_type(t)) for x, t in sf.primal
             if x in fv_primal(sf.body)]
    f, _ = forward(theta, term, supply)
    return term, transpose(None, unzip(f, supply), supply)


def with_headroom(frames, fn, *args):
    """`fn(*args)` with the recursion limit `frames` above this call."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def test_evaluator_depth_does_not_grow_with_the_program():
    for n in (75, 400):
        term, r = transposed_chain(n)
        c = with_headroom(60, compile_term, r)
        out = with_headroom(30, eval_compiled, c, ENV, Flops())
        assert out.left == run(term, ENV)[0], n


def test_a_transposed_1000_let_chain_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    built = []
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(50_000)
    threading.stack_size(256 << 20)
    try:
        worker = threading.Thread(
            target=lambda: built.append(transposed_chain(1000)))
        worker.start()
        worker.join(300)
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    assert not worker.is_alive() and built
    [(term, r)] = built
    fl = Flops()
    out = eval_compiled(compile_term(r), ENV, fl)
    primal, _ = run(term, ENV)
    assert type(primal) is VBang and out.left == primal
    assert 0 < fl.count <= workload_term(r)


# ---- values

VALUES = [
    (VNum(1.5), "VNum(value=1.5)", ("value",)),
    (VUnit(), "VUnit()", ()),
    (VTop(), "VTop()", ()),
    (VPair(VNum(1.0), VUnit()), "VPair(left=VNum(value=1.0), right=VUnit())",
     ("left", "right")),
    (VWith(VTop(), VNum(2.0)), "VWith(left=VTop(), right=VNum(value=2.0))",
     ("left", "right")),
    (VBang(VNum(1.0)), "VBang(inner=VNum(value=1.0))", ("inner",)),
    (VPrim(prim("sin")), "VPrim(fn=prim:sin)", ("fn",)),
    (VPlus(), "VPlus()", ()),
    (VTimes(), "VTimes(partial=None)", ("partial",)),
    (VTimes(2.0), "VTimes(partial=2.0)", ("partial",)),
    (VLanes((1.0, -2.0)), "VLanes(values=(1.0, -2.0))", ("values",)),
]


def test_values_are_slotted_and_compare_by_their_fields():
    for v, text, fields in VALUES:
        assert repr(v) == text
        assert type(v).__match_args__ == fields
        assert not hasattr(v, "__dict__"), text
        twin = type(v)(*(getattr(v, f) for f in fields))
        assert twin is not v and twin == v and hash(twin) == hash(v), text
    assert VPair(VUnit(), VTop()) != VWith(VUnit(), VTop())
    assert VNum(1.0) != VNum(2.0) and VTimes() != VTimes(1.0)


# ---- lanes: one run over k arguments against k runs

def same_in_lanes(f, vals):
    """`apply_lanes` gives the values of the per-argument loop, bit for
    bit, and its flops."""
    ref, fl = Flops(), Flops()
    want = [apply_value(f, v, ref) for v in vals]
    assert repr(apply_lanes(f, vals, fl)) == repr(want)
    assert fl.count == ref.count


def probes(dom, rng):
    return basis_values(dom) + [random_value_of(dom, rng) for _ in range(6)]


def linear_maps(ty, v):
    """(type, value) of each map in `v` of type `ty` with a with-sequence
    domain and a ground codomain, outside other maps."""
    cls = ty.__class__
    if cls is Lolli:
        if is_with_seq(ty.dom) and is_ground(ty.cod):
            yield ty, v
    elif cls is Tensor or cls is With:
        yield from linear_maps(ty.left, v.left)
        yield from linear_maps(ty.right, v.right)
    elif cls is Bang:
        yield from linear_maps(ty.inner, v.inner)


def test_lanes_match_the_loop_on_tangent_maps_and_their_transposes():
    rng = random.Random(5)
    for c in lll_f_cases(60, 7):
        values = {x: random_value_of(e, rng) for x, e in c.sigma}
        f = eval_term(c.term, dict(values), Flops())
        tf = eval_term(transpose_f({}, c.term, c.supply), values, Flops())
        same_in_lanes(f, probes(c.dom, rng))
        same_in_lanes(tf, probes(c.cod, rng))


def test_lanes_match_the_loop_on_the_maps_of_the_squares():
    """The F, U and T images of the commutation squares, and the Linear-A
    images they are compared with."""
    rng = random.Random(6)
    maps = 0
    for m, n, env in square_corpus():
        values = _close_env(env, rng)
        ty = typecheck(env, m)
        for side in (m, n):
            v = eval_term(side, values, Flops())
            for fty, f in linear_maps(ty, v):
                same_in_lanes(f, probes(fty.dom, rng))
                maps += 1
    assert maps >= 60


def test_lanes_match_the_loop_on_bare_arithmetic():
    nums = [VNum(x) for x in (1.5, -2.0, 0.0, 3.25)]
    same_in_lanes(VPlus(), [VWith(x, y) for x, y in zip(nums, nums[::-1])])
    same_in_lanes(VTimes(), nums)
    same_in_lanes(VTimes(-0.5), nums)
    same_in_lanes(VPrim(prim("sin")), [])
    fl = Flops()
    [x, y] = apply_lanes(VTimes(), nums[:2], fl)
    assert (x, y, fl.count) == (VTimes(1.5), VTimes(-2.0), 0)
    assert apply_lanes(x, [VNum(2.0)], fl) == [VNum(3.0)] and fl.count == 1
    for f, v in [(VPlus(), VWith(VNum(1.0), VUnit())), (VTimes(), VTop()),
                 (VTimes(2.0), VUnit())]:
        with pytest.raises(MachineError, match="expected a number"):
            apply_lanes(f, [v, v], Flops())


def test_lanes_refuse_what_they_cannot_carry():
    with pytest.raises(MachineError, match="different shapes"):
        apply_lanes(VTimes(2.0), [VNum(1.0), VUnit()], Flops())
    with pytest.raises(MachineError, match="in lanes"):
        apply_lanes(VPrim(prim("sin")), [VBang(VNum(1.0))] * 2, Flops())
    closure = run(Abs(PVar("x", Real), Abs(PVar("y", Real),
                                            plus(Var("x"), Var("y")))))[0]
    with pytest.raises(MachineError, match="into lanes"):
        apply_lanes(closure, [VNum(1.0), VNum(2.0)], Flops())
