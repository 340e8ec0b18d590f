import sys

import pytest

from linlog import NameSupply
from linlog.autodiff import (
    EMPTY_RENAMING, CaptureDetected, Renaming, forward, nu, rename_project,
    transpose, transpose_f, transpose_t, unzip, unzip_decompose,
)
from linlog.lll import (
    Abs, App, BangVal, Numeral, PBang, PTensor, PVar, PWith, PlusDot, Real,
    TensorPair, TimesDot, Top, TopVal, TypingEnv, Var, With, WithPair, Zero,
    alpha_eq, para, typecheck, workload_term,
)
from linlog.lll.machine import Flops, apply_value, run
from linlog.lll.reduce import rename_pattern
from linlog.oracle import basis_values, flatten_value

RR = With(Real, Real)


def pvar(n):
    return PVar(n, Real)


def test_forward_of_variable():
    s = NameSupply()
    f, enum = forward([("x", Real)], BangVal(Var("x")), s)
    assert isinstance(f, TensorPair)
    fn = f.right.right
    assert isinstance(fn, Abs) and fn.body == Var(fn.pat.name)


def test_forward_of_numeral():
    s = NameSupply()
    f, _ = forward([], BangVal(Numeral(3.0)), s)
    assert f.left == BangVal(Numeral(3.0))
    assert f.right.right.body == Zero()


def test_rename_project_examples():
    # p = <<x, y>, u>, alpha = {x -> x1, y -> y1}
    p = PWith(PWith(pvar("x"), pvar("y")), pvar("u"))
    alpha = Renaming((("x", "x1"), ("y", "y1")))
    assert rename_project(alpha, p) == PWith(pvar("x1"), pvar("y1"))
    assert rename_pattern(p, alpha.map) == \
        PWith(PWith(pvar("x1"), pvar("y1")), pvar("u"))
    # empty domain: a fresh top variable
    out = rename_project(EMPTY_RENAMING, p, NameSupply())
    assert isinstance(out, PVar) and out.ty == Top


def test_nu_examples():
    p = PWith(PWith(pvar("x"), pvar("y")), pvar("u"))
    a1 = Renaming((("x", "x1"), ("y", "y1")))
    a2 = Renaming((("x", "x2"),))
    out = nu(p, a1, a2)
    expect = WithPair(
        WithPair(App(PlusDot(), WithPair(Var("x1"), Var("x2"))), Var("y1")),
        Zero())
    assert out == expect
    # both empty: the zero vector
    assert nu(p, EMPTY_RENAMING, EMPTY_RENAMING) == \
        WithPair(WithPair(Zero(), Zero()), Zero())
    # disjoint domains: no addition emitted
    a3 = Renaming((("y", "y3"),))
    assert workload_term(nu(p, a2, a3)) == workload_term(
        WithPair(WithPair(Var("x2"), Var("y3")), Zero()))


def test_transpose_t_variable():
    s = NameSupply()
    q, body, used = transpose_t({}, pvar("u"), Var("u"), s)
    assert used == {"u"}
    assert body == Var(q.name)


def test_transpose_t_zero_and_top():
    s = NameSupply()
    q, body, used = transpose_t({}, pvar("u"), Zero(), s)
    assert body == TopVal() and used == set()
    q2, body2, _ = transpose_t({}, pvar("u"), TopVal(), s)
    assert body2 == TopVal()


def test_transpose_f_plus_and_scale():
    s = NameSupply()
    tp = transpose_f({}, PlusDot(), s)
    assert isinstance(tp, Abs) and isinstance(tp.body, WithPair)
    scale = App(TimesDot(), Var("x"))
    assert transpose_f({}, scale, s) == scale


def test_transpose_f_partial_use_inserts_zero():
    # T(\<x, y>. x) = \q. let x = q in <x, 0>
    s = NameSupply()
    f = Abs(PWith(pvar("x"), pvar("y")), Var("x"))
    tf = transpose_f({}, f, s)
    env = TypingEnv()
    from linlog.lll import Lolli
    assert typecheck(env, tf) == Lolli(Real, RR)
    v, _ = run(App(tf, Numeral(3.0)))
    assert flatten_value(v) == [3.0, 0.0]


def test_transpose_f_contraction_becomes_addition():
    # T(\<u, u'>. <<u, u>, u'>): cotangents for the two copies of u add up
    s = NameSupply()
    f = Abs(PWith(pvar("u"), pvar("u2")),
            WithPair(WithPair(Var("u"), Var("u")), Var("u2")))
    tf = transpose_f({}, f, s)
    vf, _ = run(tf)
    got = [flatten_value(apply_value(vf, b, Flops()))
           for b in basis_values(With(RR, Real))]
    assert got == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_unzip_decompose_literal_pair():
    s = NameSupply()
    r = TensorPair(BangVal(Numeral(1.0)), para(Abs(PVar("u", Top), TopVal())))
    ctx, p, f = unzip_decompose(r)
    assert ctx == []
    assert p == r.left and f == r.right.right


def test_unzip_idempotent():
    from linlog.gen import lll_p_cases
    for c in lll_p_cases(15, 5):
        f, _ = forward(c.sigma, c.term, c.supply)
        u1 = unzip(f, c.supply)
        u2 = unzip(u1, c.supply)
        assert alpha_eq(u1, u2)


def test_transpose_equiv_with_and_without_unzip():
    from linlog.gen import lll_p_cases
    from linlog.oracle import EquivConfig, equiv_check
    from linlog.lll import PBang
    cfg = EquivConfig(sample_count=4)
    for c in lll_p_cases(10, 6):
        f, _ = forward(c.sigma, c.term, c.supply)
        t1 = transpose(None, f, c.supply)
        t2 = transpose(None, unzip(f, c.supply), c.supply)
        env = TypingEnv.of(*[PBang(x, e) for x, e in c.sigma])
        ty = typecheck(env, t1)
        assert typecheck(env, t2) == ty
        v = equiv_check(t1, t2, env, cfg)
        assert v.equivalent and v.ty == ty


def test_nu_rejects_codomain_overlap():
    from linlog.autodiff import CodomainOverlap
    p = PWith(pvar("x"), pvar("y"))
    a1 = Renaming((("x", "z"),))
    a2 = Renaming((("y", "z"),))
    with pytest.raises(CodomainOverlap):
        nu(p, a1, a2)


def test_with_pair_renaming_detects_capture():
    # T renames x apart in the two components of <x, *.(%x#2) x>; the
    # second renaming draws %x#2, a name its component already uses
    f = Abs(PWith(pvar("x"), pvar("y")),
            WithPair(Var("x"), App(App(TimesDot(), Var("%x#2")), Var("x"))))
    r = TensorPair(BangVal(Numeral(1.0)), para(f))
    with pytest.raises(CaptureDetected):
        transpose(None, r, NameSupply())


def test_transpose_drops_dead_section_binding():
    # let par(f) = par(F) in G with f unused: the transpose removes F
    from linlog.lll import Lolli, para_pattern, let_
    s = NameSupply()
    g = Abs(pvar("u"), Var("u"))
    f_term = Abs(pvar("w"), App(App(TimesDot(), Var("c")), Var("w")))
    t = let_(para_pattern(PVar("f", Lolli(Real, Real))), para(f_term), g)
    out = transpose_f({}, t, s)
    # the dead binding is gone entirely
    from linlog.lll.terms import free_vars
    assert "c" not in free_vars(out)


def test_transpose_keeps_live_section_binding():
    from linlog.lll import Lolli, para_pattern, let_
    s = NameSupply()
    g = Abs(pvar("u"), App(Var("f"), Var("u")))
    f_term = Abs(pvar("w"), App(App(TimesDot(), Var("c")), Var("w")))
    t = let_(para_pattern(PVar("f", Lolli(Real, Real))), para(f_term), g)
    out = transpose_f({}, t, s)
    from linlog.lll.reduce import substitute
    from linlog.lll.terms import free_vars
    assert "c" in free_vars(out)
    vf, _ = run(substitute(out, PVar("c", Real), Numeral(3.0)))
    got = [flatten_value(apply_value(vf, b, Flops()))
           for b in basis_values(Real)]
    assert got == [[3.0]]


def pattern_nodes(p):
    match p:
        case PTensor(l, r) | PWith(l, r):
            return 1 + pattern_nodes(l) + pattern_nodes(r)
    return 1


def live_inputs_program(n_lets):
    """A straight-line Linear-A program over x0, x1, x2 whose binary lets
    take an input every other time, so that the tangent tuples T splits
    and sums carry several live variables."""
    inputs = ["x0", "x1", "x2"]
    names, lets = list(inputs), []
    for i in range(n_lets):
        op = ("sin", "mul2", "cos", "add2", "sub2")[i % 5]
        a = names[-1 - i % 3]
        b = (inputs[2 * i % 3] if i % 2
             else names[-1 - 5 * i % min(len(names), 6)])
        args = a if op in ("sin", "cos") else f"{a} {b}"
        lets.append(f"(let-p v{i} (prim {op} {args})")
        names.append(f"v{i}")
    body = " ".join(lets) + f" (var-p {names[-1]})" + ")" * n_lets
    return ("(linear-a (primal (x0 real) (x1 real) (x2 real)) "
            f"(expr {body}))")


def test_transpose_walks_patterns_a_bounded_number_of_times(monkeypatch):
    """A count guard on T's pattern analyses, not a timer: the pattern
    nodes `pattern_vars` and `pattern_var_types` visit while transposing
    an unzipped program stay within twice the nodes of the output, so no
    pattern is re-walked once per subterm it scopes over."""
    from linlog.frontend import parse
    from linlog.lll import terms
    from linlog.lll.terms import term_size
    from linlog.linear_a.expr import fv_primal
    from linlog.translate import delta_b_primal, primal_type

    visited = [0]
    pattern_vars, pattern_var_types = terms.pattern_vars, terms.pattern_var_types

    def counted_vars(p):
        visited[0] += 1  # it recurses through the module's own binding
        return pattern_vars(p)

    def counted_var_types(p):
        visited[0] += pattern_nodes(p)
        return pattern_var_types(p)

    for mod in [m for n, m in sys.modules.items() if n.startswith("linlog")]:
        for original, counted in ((pattern_vars, counted_vars),
                                  (pattern_var_types, counted_var_types)):
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, counted)
    for n_lets in (40, 80):
        sf = parse(live_inputs_program(n_lets))
        supply = NameSupply()
        term = delta_b_primal(dict(sf.primal), sf.body, supply)
        theta = [(x, primal_type(t)) for x, t in sf.primal
                 if x in fv_primal(sf.body)]
        f, _ = forward(theta, term, supply)
        u = unzip(f, supply)
        visited[0] = 0
        t = transpose(None, u, supply)
        assert 0 < visited[0] <= 2 * term_size(t), \
            (n_lets, visited[0], term_size(t))


def test_forward_derives_primal_types_without_re_walking(monkeypatch):
    """F returns each subterm's inner type along with its image, so it
    never asks `primal_inner_type`, which walks a whole let chain; only the
    roots of `run_grad` do, once each."""
    from linlog.frontend import parse
    from linlog.linear_a.expr import fv_primal
    from linlog.linear_a.values import Scalar
    from linlog.lll import sorts
    from linlog.oracle import run_grad
    from linlog.translate import delta_b_primal, primal_type

    calls = [0]
    original = sorts.primal_inner_type

    def counted(p, tys):
        calls[0] += 1
        return original(p, tys)

    for mod in [m for n, m in sys.modules.items() if n.startswith("linlog")]:
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, counted)
    sf = parse(live_inputs_program(30))
    supply = NameSupply()
    term = delta_b_primal(dict(sf.primal), sf.body, supply)
    theta = [(x, primal_type(t)) for x, t in sf.primal
             if x in fv_primal(sf.body)]
    forward(theta, term, supply)
    assert calls[0] == 0
    run_grad(term, theta, [Scalar(0.3)] * len(theta), supply=supply)
    assert calls[0] == 1


def chain_images(n_lets):
    """The supply, the types of the free variables, and F and U of
    `chain_program(n_lets)`.  F, U and T nest lets through right-hand
    sides as deep as the program is long; their let spines are walked in
    loops."""
    from linlog.frontend import parse
    from linlog.lll import Bang
    from linlog.linear_a.expr import fv_primal
    from linlog.translate import delta_b_primal, primal_type
    from tests.test_oracle import chain_program

    sf = parse(chain_program(n_lets))
    supply = NameSupply()
    term = delta_b_primal(dict(sf.primal), sf.body, supply)
    theta = [(x, primal_type(t)) for x, t in sf.primal
             if x in fv_primal(sf.body)]
    f, _ = forward(theta, term, supply)
    return supply, {x: Bang(e) for x, e in theta}, f, unzip(f, supply)


def test_a_400_let_chain_at_the_default_recursion_limit():
    from linlog.lll.sorts import Sort, classify_sort
    from linlog.lll.workload import is_safe

    assert sys.getrecursionlimit() <= 1000
    supply, tys, f, u = chain_images(400)
    for image in (f, u, transpose(None, u, supply), transpose(None, f, supply)):
        assert classify_sort(image, tys) == Sort.LLL_A
        assert is_safe(image, tys)


def test_transpose_fills_free_variable_caches_linearly():
    """A count guard, not a timer: the free-variable sets T caches on the
    nodes of U's output grow about linearly with the program, so T asks
    no let of the spine for the free variables of everything below it."""
    from linlog.lll.terms import _COMPOSITE
    from tests.test_terms import subterms

    def cached(n_lets):
        supply, _tys, _f, u = chain_images(n_lets)
        transpose(None, u, supply)
        return sum(len(t._fv) for t in subterms(u)
                   if isinstance(t, _COMPOSITE) and t._fv is not None)

    small, large = cached(200), cached(400)
    assert 0 < large <= 2.2 * small, (small, large)
