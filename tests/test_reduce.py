import hashlib
import random
import sys
from itertools import islice

import pytest

from linlog import NameSupply
from linlog.autodiff import forward, transpose, transpose_f, unzip
from linlog.lll import (
    Abs, App, BangVal, Numeral, PBang, PTensor, PVar, PWith, PlusDot,
    Real, TensorPair, TimesDot, TopVal, UnitVal, Var, WithPair, Zero,
    alpha_eq, bang_let, beta_step, is_progress_normal_form, is_strong_value,
    normalize, prim, prim_app, safe_reduce, simplify, substitute,
    value_for_pattern, workload_term, BudgetExhausted, StuckOpenTerm,
)
from linlog.checks import (
    RANDOM_STRATEGY_FRACTION, CheckResult, _mixed_corpus, check_flop_bound,
    check_metatheory,
)
from linlog.gen import jax_cases, lll_f_cases, lll_p_cases, safe_ground_cases
from linlog.linear_a import Scalar
from linlog.lll import reduce as lll_reduce
from linlog.lll.reduce import (
    _contract, rename_pattern, safe_contract, safe_redex, safe_step, subst,
    uniquify,
)
from linlog.lll.reduce import random_safe_reduce as _random_safe_reduce
from linlog.lll.terms import (
    children, free_vars, pattern_vars, term_size, term_str,
)
from linlog.oracle import run_grad
from linlog.translate import delta_b_primal
from tests.ref_reduce import (
    plug, redexes, ref_plug, ref_random_safe_reduce, ref_reduce, ref_redexes,
    ref_simplify, restart_random_steps, restart_steps,
)
from tests.terms9 import fig9a_term
from tests.test_oracle import _ladder, lowered


def num(v):
    return Numeral(v)


def plus(a, b):
    return App(PlusDot(), WithPair(a, b))


def times(a, b):
    return App(App(TimesDot(), a), b)


def test_identity_beta():
    t = App(Abs(PVar("x", Real), Var("x")), num(5.0))
    out = normalize(t)
    assert out.result == num(5.0)
    assert out.numeric_steps == 0


def test_times_is_numeric_step():
    out = normalize(times(num(2.0), num(3.0)))
    assert out.result == num(6.0)
    assert out.numeric_steps == 1


def test_prim_step():
    out = normalize(prim_app(prim("sin"), [BangVal(num(0.0))]))
    assert out.result == BangVal(num(0.0))
    assert out.numeric_steps == 1


def test_nested_plus_counts_two_flops():
    t = plus(num(1.0), plus(num(2.0), num(3.0)))
    out = normalize(t)
    assert out.result == num(6.0)
    assert out.numeric_steps == 2


def test_already_normal():
    out = normalize(TopVal())
    assert out.result == TopVal() and out.total_steps == 0


def test_zero_behaves_as_numeral():
    assert normalize(plus(Zero(), num(4.0))).result == num(4.0)
    # a zero operand may be absorbing context, so the result stays the
    # absorbing constant (numerically still zero)
    assert normalize(times(num(2.0), Zero())).result == Zero()
    assert normalize(plus(Zero(), Zero())).result == Zero()
    assert alpha_eq(normalize(times(num(2.0), Zero())).result, num(0.0))


def test_zero_preserving_step_keeps_typing():
    # <2 *. 0, u> : the zero component absorbs u; the step must not
    # break that (the subject-reduction corner the numeral rule misses)
    from linlog.lll import PVar, TypingEnv, typecheck
    from linlog.lll.terms import WithPair as WP
    env = TypingEnv.of(PVar("u", Real))
    t = WP(times(num(2.0), Zero()), Var("u"))
    ty = typecheck(env, t)
    stepped = beta_step(t)[0]
    assert typecheck(env, stepped) == ty


def test_value_for_pattern():
    pat = PTensor(PBang("x", Real), PVar("u", Real))
    assert value_for_pattern(TensorPair(BangVal(num(3.0)), UnitVal()), pat)
    assert value_for_pattern(TensorPair(BangVal(num(3.0)), num(1.0)), pat)
    assert not value_for_pattern(Abs(PVar("z", Real), Var("z")), PBang("x", Real))
    assert not value_for_pattern(Var("z"), PTensor(PVar("a", Real), PVar("b", Real)))
    assert value_for_pattern(WithPair(num(1.0), TopVal()),
                             PWith(PVar("a", Real), PVar("b", Real)))


def test_substitute_components():
    t = plus(Var("x"), Var("y"))
    pat = PWith(PVar("x", Real), PVar("y", Real))
    out = substitute(t, pat, WithPair(num(2.0), num(3.0)))
    assert out == plus(num(2.0), num(3.0))


def test_substitute_no_free_occurrence():
    m = num(7.0)
    assert substitute(m, PBang("x", Real), BangVal(num(1.0))) == m


def test_substitute_exponential_duplication():
    t = TensorPair(Var("y"), Var("y"))
    out = substitute(t, PBang("y", Real),
                     BangVal(prim_app(prim("sin"), [BangVal(Var("z"))])))
    expect = prim_app(prim("sin"), [BangVal(Var("z"))])
    assert out == TensorPair(expect, expect)


def test_capture_avoidance():
    # (\y. x +. y){y/x} must not capture the free y
    body = Abs(PVar("y", Real), plus(Var("x"), Var("y")))
    out = substitute(body, PVar("x", Real), Var("y"))
    assert isinstance(out, Abs)
    assert out.pat != PVar("y", Real)
    assert Var("y") in (out.body.arg.left,)  # the substituted free y survives


def test_components_are_substituted_at_once():
    # the second component's name b is also a pattern variable: it must
    # not be replaced again once a's component has brought it in
    a, b, c = Var("a"), Var("b"), Var("c")
    tensor = PTensor(PVar("a", Real), PVar("b", Real))
    with_ = PWith(PVar("a", Real), PVar("b", Real))
    for pat, pair in ((tensor, TensorPair), (with_, WithPair)):
        body, value, want = pair(a, b), pair(b, c), pair(b, c)
        assert substitute(body, pat, value) == want
        redex = App(Abs(pat, body), value)
        assert beta_step(redex) == (want, False)
        assert normalize(redex).result == want
        assert normalize(redex, strategy="rightmost-innermost").result == want
        assert simplified(redex) == want


def test_each_component_renames_the_binder_it_would_capture():
    # (λb. (a, b), λc. (b, c)){(b, c)/(a ⊗ b)}: the component b would be
    # captured by the first binder, the component c by the second
    body = TensorPair(Abs(PVar("b", Real), TensorPair(Var("a"), Var("b"))),
                      Abs(PVar("c", Real), TensorPair(Var("b"), Var("c"))))
    out = substitute(body, PTensor(PVar("a", Real), PVar("b", Real)),
                     TensorPair(Var("b"), Var("c")))
    want = TensorPair(Abs(PVar("b1", Real), TensorPair(Var("b"), Var("b1"))),
                      Abs(PVar("c1", Real), TensorPair(Var("c"), Var("c1"))))
    assert alpha_eq(out, want)
    assert free_vars(out) == {"b", "c"}
    assert [out.left.pat.name, out.right.pat.name] == ["b#r1", "c#r1"]


def test_a_renaming_substitutes_variables():
    t = Abs(PVar("y", Real), TensorPair(Var("x"), Var("y")))
    assert subst(t, {"x": Var("z")}) == \
        Abs(PVar("y", Real), TensorPair(Var("z"), Var("y")))
    assert subst(t, {"y": Var("z")}) is t  # y is bound, not free
    # the binder shadows y for the whole substitution, not only alone
    assert subst(t, {"x": Var("z"), "y": Var("w")}) == \
        Abs(PVar("y", Real), TensorPair(Var("z"), Var("y")))
    # renaming x to the bound name y renames the binder apart
    out = subst(t, {"x": Var("y")})
    assert out.pat == PVar("y#r1", Real)
    assert alpha_eq(out, Abs(PVar("w", Real), TensorPair(Var("y"), Var("w"))))


def path_of(ctx):
    out = []
    while ctx is not None:
        _, i, ctx = ctx
        out.append(i)
    return tuple(reversed(out))


def test_redexes_come_in_pre_order_and_its_reverse():
    seen = 0
    for c in safe_ground_cases(30, 5):
        t = c.term
        while t is not None:
            want = ref_redexes(t, safe_contract)
            got = list(redexes(t, safe_contract))
            assert [(path_of(ctx), r) for ctx, r in got] == want
            inner = [path_of(ctx) for ctx, _ in
                     redexes(t, safe_contract, innermost=True)]
            assert inner == [path for path, _ in reversed(want)]
            picked = list(redexes(t, safe_redex))
            assert [(path_of(ctx), safe_contract(m)) for ctx, m in picked] \
                == want
            for (ctx, (new, _)), (path, _) in zip(got, want):
                assert plug(ctx, new) == ref_plug(t, path, new)
            seen += len(got) > 1
            step = safe_step(t)
            assert step is None or step[0] == plug(got[0][0], got[0][1][0])
            t = step and step[0]
    assert seen > 20


def test_reductions_follow_the_reference_redex_list():
    """`normalize` (both strategies), `safe_reduce` and the battery's random
    safe reduction give the terms and counts of a loop over `ref_redexes`."""
    steps = 0
    for i, c in enumerate(safe_ground_cases(24, 3)):
        t = c.term
        for got, want in (
                (normalize(t), ref_reduce(t, _contract)),
                (normalize(t, strategy="rightmost-innermost"),
                 ref_reduce(t, _contract, innermost=True)),
                (safe_reduce(t), ref_reduce(t, safe_contract))):
            assert (got.result, got.numeric_steps, got.total_steps) == want
            steps += got.total_steps
        assert _random_safe_reduce(t, random.Random(i)) == \
            ref_random_safe_reduce(t, random.Random(i))
    assert steps > 500


def test_reductions_of_safe_ground_cases_are_pinned():
    """Step counts and results of safe reduction and of both normalizing
    strategies, hashed; pinned before the rewriting engine was rebuilt."""
    h = hashlib.sha256()
    for c in safe_ground_cases(200, 11):
        for out in (safe_reduce(c.term), normalize(c.term),
                    normalize(c.term, strategy="rightmost-innermost")):
            h.update(f"{out.numeric_steps} {out.total_steps} "
                     f"{term_str(out.result)}\n".encode())
    assert h.hexdigest()[:16] == "2c0bd2d272fa6a38"


def test_random_safe_reductions_of_the_flop_bound_check_are_pinned():
    """The (numeric steps, result) pairs of `check_flop_bound`'s random
    reductions on `safe_ground_cases(100, 11)`, hashed; pinned while every
    redex was contracted before one was chosen."""
    n, seed = 100, 11
    rng = random.Random(seed * 7 + 1)  # as check_flop_bound seeds it
    h = hashlib.sha256()
    for c in safe_ground_cases(n, seed)[:int(n * RANDOM_STRATEGY_FRACTION)]:
        term, numeric = _random_safe_reduce(c.term, rng)
        h.update(f"{numeric} {term_str(term)}\n".encode())
    assert h.hexdigest()[:16] == "3013e545e93e65a0"


def engine_and_reference(t, i):
    """The steps of each strategy from `t`, as (term', numeric) pairs: the
    engine's and the restarting reference's.  The random strategy draws
    from `random.Random(i)`."""
    return [
        (lll_reduce._steps(t, _contract), restart_steps(t, _contract)),
        (lll_reduce._steps(t, _contract, innermost=True),
         restart_steps(t, _contract, innermost=True)),
        (lll_reduce._steps(t, safe_contract),
         restart_steps(t, safe_contract)),
        (lll_reduce._random_steps(t, random.Random(i)),
         restart_random_steps(t, random.Random(i))),
    ]


def test_every_strategy_steps_as_the_restarting_reference():
    """Each intermediate term (dataclass `==`) and numeric flag of the
    refocusing drivers equals that of a search from the root."""
    steps = cases = 0
    for seed in (3, 5, 11):
        for i, c in enumerate(safe_ground_cases(140, seed)):
            for got, want in engine_and_reference(c.term, i):
                got = list(got)
                assert got == list(want), (seed, i)
                steps += len(got)
            cases += 1
    assert cases >= 400 and steps > 60_000


def test_every_strategy_steps_as_the_reference_on_open_terms():
    """The same on the first 300 steps of the F, U and T(U) images of
    generated LLL programs."""
    steps = 0
    for seed in range(5):
        for i, c in enumerate(lll_p_cases(40, seed)):
            f, _ = forward(c.sigma, c.term, c.supply)
            u = unzip(f, c.supply)
            for t in (f, u, transpose(None, u, c.supply)):
                for got, want in engine_and_reference(t, i):
                    got = list(islice(got, 300))
                    assert got == list(islice(want, 300)), (seed, i)
                    steps += len(got)
    assert steps > 15_000


def test_checks_on_reductions_keep_their_results():
    """The results the restarting engine gave these two checks."""
    for s in range(50):
        assert check_metatheory(2, s) == \
            CheckResult("metatheory-smoke", 2, 0), s
        assert check_flop_bound(2, s) == \
            CheckResult("flop-bound-safe-reduction", 2, 0), s


def counted(monkeypatch, name):
    """A list that grows by one at each call of `lll.reduce`'s `name`."""
    calls, orig = [], getattr(lll_reduce, name)

    def wrapper(m):
        calls.append(None)
        return orig(m)

    monkeypatch.setattr(lll_reduce, name, wrapper)
    return calls


def test_a_reduction_searches_each_node_about_once(monkeypatch):
    """Refocusing tests each node about once over a whole reduction, where
    a search from the root at every step made 2.31x (`normalize`) and
    2.50x (`safe_reduce`) as many `contract` calls as term size plus
    steps, and the random strategy 49,450 `safe_redex` calls."""
    cases = safe_ground_cases(40, 3)
    size = sum(term_size(c.term) for c in cases)
    for name, run in (("_contract", normalize),
                      ("safe_contract", safe_reduce)):
        calls = counted(monkeypatch, name)
        steps = sum(run(c.term).total_steps for c in cases)
        assert len(calls) <= 1.2 * (size + steps), name
    calls = counted(monkeypatch, "safe_redex")
    rng = random.Random(11 * 7 + 1)  # as check_flop_bound(n, 11) seeds it
    for c in safe_ground_cases(40, 11):
        _random_safe_reduce(c.term, rng)
    assert len(calls) <= 49_450 // 2


@pytest.mark.parametrize("budget, run", [
    ("STEP_BUDGET", normalize),
    ("STEP_BUDGET", safe_reduce),
    ("RANDOM_STEP_BUDGET", lambda t: _random_safe_reduce(t, random.Random(0))),
])
def test_a_reduction_takes_at_most_its_budget_of_steps(monkeypatch, budget,
                                                        run):
    """Each strategy may take as many steps as its budget, and one more
    raises `BudgetExhausted`."""
    t = plus(times(num(2), num(3)), num(1))  # two steps, both numeric
    monkeypatch.setattr(lll_reduce, budget, 2)
    run(t)
    monkeypatch.setattr(lll_reduce, budget, 1)
    with pytest.raises(BudgetExhausted, match="within 1 steps"):
        run(t)


def test_fig9a_evaluates_at_point():
    t = fig9a_term()
    closed = substitute(substitute(t, PBang("x", Real), BangVal(num(0.0))),
                        PBang("y", Real), BangVal(num(1.0)))
    out = safe_reduce(closed)
    assert out.result == BangVal(num(1.0))  # sin(0)*1 + cos(0) = 1
    assert out.numeric_steps <= workload_term(closed)


def test_safe_reduce_erases_exponential_without_flops():
    t = App(Abs(PBang("x", Real), BangVal(UnitVal())), BangVal(num(3.0)))
    out = safe_reduce(t)
    assert out.result == BangVal(UnitVal())
    assert out.numeric_steps == 0


def test_safe_reduce_rejects_open_terms():
    with pytest.raises(StuckOpenTerm):
        safe_reduce(Var("x"))


def test_safe_matches_normalize_on_ground_closed():
    t = bang_let("a", Real, prim_app(prim("exp"), [BangVal(num(0.0))]),
                 plus(Var("a"), times(num(2.0), Var("a"))))
    a = safe_reduce(t)
    b = normalize(t)
    assert a.result == b.result == num(3.0)


def test_strategies_agree_on_ground_terms():
    t = plus(times(num(2.0), num(3.0)), plus(num(1.0), num(1.0)))
    lo = normalize(t, strategy="leftmost-outermost")
    ri = normalize(t, strategy="rightmost-innermost")
    assert alpha_eq(lo.result, ri.result)


def test_strong_value_and_progress_grammar():
    assert is_strong_value(App(TimesDot(), num(2.0)))
    assert not is_strong_value(App(PlusDot(), WithPair(num(1.0), num(2.0))))
    v = normalize(TensorPair(BangVal(num(1.0)), WithPair(num(2.0), TopVal()))).result
    assert is_progress_normal_form(v)


def simplified(t):
    """`simplify(t)`, checked against the restarting reference."""
    out = simplify(t)
    assert out == ref_simplify(t), term_str(t)
    return out


def test_simplify_identity_redex():
    t = App(Abs(PVar("u", Real), Var("u")), times(Var("w"), Var("z")))
    assert simplified(t) == times(Var("w"), Var("z"))


def test_simplify_keeps_bare_bang_lets():
    t = bang_let("w", Real, BangVal(Var("y")), times(Var("w"), num(2.0)))
    assert simplified(t) == t


def test_simplify_folds_projection_primitives():
    t = prim_app(prim("proj2of2"), [BangVal(Var("a")), BangVal(Var("b"))])
    assert simplified(t) == BangVal(Var("b"))
    t2 = prim_app(prim("one2"), [BangVal(Var("a")), BangVal(Var("b"))])
    assert simplified(t2) == BangVal(num(1.0))


def test_simplify_commutes_section_level_lets():
    # (\u. u) ((\<a,b>. <b,a>) v)  stays stuck, but an inner let commutes out
    inner = App(Abs(PVar("q", Real), WithPair(Var("q"), Var("q"))), Var("v"))
    t = App(Abs(PVar("u", Real), Var("u")),
            App(Abs(PWith(PVar("a", Real), PVar("b", Real)), plus(Var("a"), Var("b"))),
                inner))
    out = simplified(t)
    # all administrative redexes melt: let q = v in a+b over <q,q>
    assert out == plus(Var("v"), Var("v"))


def test_simplify_walks_a_normal_subterm_again_under_a_new_bang():
    # (\a. b) y drops its dead value y only where y is !-bound, so a copy
    # found normal outside the scope of !y is not normal inside it
    dead = App(Abs(PVar("a", Real), Var("b")), Var("y"))
    one = BangVal(num(1.0))
    shared = TensorPair(dead, bang_let("y", Real, one, dead))
    assert simplified(shared) == \
        TensorPair(dead, bang_let("y", Real, one, Var("b")))
    moved = App(Abs(PVar("x", Real), bang_let("y", Real, one, Var("x"))),
                Abs(PVar("y", Real), dead))
    assert simplified(moved) == \
        bang_let("y", Real, one, Abs(PVar("y", Real), Var("b")))


def simplify_corpus(seed):
    """Generated terms and their pipeline images: F, U, T(U) and T(F) of
    LLL programs, safe ground terms, tangent functions and their
    transposes, mixed-sort terms with U and T, and Linear-A programs
    through Δ."""
    out = []
    for c in lll_p_cases(20, seed):
        f, _ = forward(c.sigma, c.term, c.supply)
        u = unzip(f, c.supply)
        out += [f, u, transpose(None, u, c.supply),
                transpose(None, f, c.supply)]
    out += [c.term for c in safe_ground_cases(20, seed)]
    for c in lll_f_cases(20, seed):
        out += [c.term, transpose_f({}, c.term, c.supply)]
    for _, m, supply in _mixed_corpus(20, seed):
        out += [m, unzip(m, supply), transpose(None, m, supply)]
    out += [delta_b_primal(c.penv, c.expr, c.supply)
            for c in jax_cases(20, seed, "primal")]
    return out


def ladder(n):
    """ladder(n): the benchmark's straight-line program of n lets over
    three inputs with one output."""
    return _ladder().generate(random.Random(n), n, 3, 1)


def ladder_images(n):
    """F, U and T(U) of ladder(n)."""
    term, theta, supply = lowered(ladder(n))
    f, _ = forward(theta, term, supply)
    u = unzip(f, supply)
    return f, u, transpose(None, u, supply)


def test_simplify_matches_the_restarting_reference():
    terms = simplify_corpus(1) + [*ladder_images(10), *ladder_images(30)]
    for i, t in enumerate(terms):
        assert simplify(t) == ref_simplify(t), (i, term_str(t))


def test_simplify_tries_the_rules_about_once_per_node(monkeypatch):
    rules = lll_reduce._simplify_once
    calls = []

    def counted(m, exp_vars):
        calls.append(None)
        return rules(m, exp_vars)

    monkeypatch.setattr(lll_reduce, "_simplify_once", counted)
    counts = []
    for n in (30, 60):
        t = ladder_images(n)[2]
        calls.clear()
        simplify(t)
        assert len(calls) <= term_size(t), n
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0], counts


def test_a_simplified_400_let_gradient_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    prog = ladder(400)
    term, theta, supply = lowered(prog)
    point = [0.5, -0.7, 1.1][:len(theta)]
    args = term, theta, [Scalar(v) for v in point]
    plain = run_grad(*args, supply=supply.clone())
    res = run_grad(*args, simplify_output=True, supply=supply)
    [want_out], [want_grad] = _ladder().reference(
        prog, {x: v for (x, _), v in zip(theta, point)})
    assert res.primal.value == pytest.approx(want_out, rel=1e-9)
    assert [g.value for g in res.gradient] == \
        pytest.approx(want_grad, rel=1e-9, abs=1e-12)
    assert res.flops == res.workload_bound < plain.flops


# ------------------------------------------------------------ uniquify

def ref_uniquify(term, supply):
    """The recursive definition: rebuilds every node and renames each
    repeated binder's body as it meets it."""
    seen = set(free_vars(term))

    def go(m):
        match m:
            case Abs(p, body):
                ren = {}
                for n in pattern_vars(p):
                    if n in seen:
                        ren[n] = supply.fresh(n.split("#")[0].lstrip("%"))
                    else:
                        seen.add(n)
                if ren:
                    p = rename_pattern(p, ren)
                    body = subst(body, {n: Var(f) for n, f in ren.items()})
                    seen.update(ren.values())
                return Abs(p, go(body))
            case App(f, a):
                return App(go(f), go(a))
            case TensorPair(l, r):
                return TensorPair(go(l), go(r))
            case WithPair(l, r):
                return WithPair(go(l), go(r))
            case BangVal(i):
                return BangVal(go(i))
            case _:
                return m

    return go(term)


def uniquify_corpus():
    """(term, supply) pairs: the generated corpora and their F/U images."""
    from linlog.autodiff import forward, unzip
    from linlog.gen import jax_cases, lll_f_cases, lll_p_cases
    from linlog.translate import delta
    out = []
    for c in lll_p_cases(25, 5):
        f, _ = forward(c.sigma, c.term, c.supply)
        out += [(c.term, c.supply), (f, c.supply),
                (unzip(f, c.supply), c.supply)]
    for c in jax_cases(15, 6, "linear-a"):
        d = delta(c.penv, c.theta, c.expr, c.supply)
        out += [(d, c.supply), (unzip(d, c.supply), c.supply)]
    out += [(c.term, c.supply) for c in lll_f_cases(20, 7)]
    out += [(c.term, NameSupply()) for c in safe_ground_cases(25, 8)]
    return out


def binders(m):
    todo, out = [m], []
    while todo:
        t = todo.pop()
        match t:
            case Abs(p, body):
                out += pattern_vars(p)
                todo.append(body)
            case App(f, a) | TensorPair(f, a) | WithPair(f, a):
                todo += [f, a]
            case BangVal(i):
                todo.append(i)
    return out


def occurring(m):
    """The names of the variable occurrences of `m`."""
    return {t.name for t in nodes(m) if isinstance(t, Var)}


def nodes(m):
    out, todo = [], [m]
    while todo:
        t = todo.pop()
        out.append(t)
        todo += children(t)
    return out


def test_uniquify_matches_recursive_definition():
    # the pipeline's terms bind every name once; pairing a term with a copy
    # of itself, or with a free occurrence of one of its binders, makes
    # uniquify rename
    renamed = 0
    for i, (m, supply) in enumerate(uniquify_corpus()):
        cases = [m, TensorPair(m, m)]
        if binders(m):
            cases.append(WithPair(Var(binders(m)[-1]), m))
        for t in cases:
            s_new, s_ref = supply.clone(), supply.clone()
            (got, names), want = uniquify(t, s_new), ref_uniquify(t, s_ref)
            assert got == want, (i, term_str(t))
            assert names == occurring(got), (i, term_str(t))
            assert s_new.fresh() == s_ref.fresh(), (i, term_str(t))
            renamed += got is not t
    assert renamed > 100


def test_uniquify_returns_a_clean_term_itself():
    t = App(Abs(PVar("x", Real), TensorPair(Var("x"), Var("y"))),
            WithPair(Var("z"), BangVal(Var("w"))))
    assert uniquify(t, NameSupply()) == (t, {"x", "y", "z", "w"})
    # a bound name that is also free elsewhere is renamed, but the
    # untouched subterms come back as they are
    t2 = App(Abs(PVar("y", Real), Var("y")), t)
    out = uniquify(t2, NameSupply())[0]
    assert out != t2 and out.arg is t and out.fn.body == Var(out.fn.pat.name)


def test_uniquify_renames_repeated_binders_apart():
    branch = App(Abs(PVar("u", Real), times(Var("u"), Var("u"))), Var("a"))
    t = Abs(PWith(PVar("a", Real), PVar("b", Real)),
            WithPair(branch, App(Abs(PVar("u", Real), Var("u")), Var("b"))))
    out = uniquify(t, NameSupply())[0]
    names = binders(out)
    assert len(names) == len(set(names)) == 4
    assert free_vars(out) == free_vars(t) == frozenset()
    assert alpha_eq(out, t)
