"""The stack-flat LLL typechecker against the recursive reference in
`tests/ref_typecheck.py`: on generated cases, every step of their
leftmost-outermost reduction, their F, U and T images, and single-node
mutations of all of these, both checkers give the same type or raise the
same error class with the same message."""

import random

from linlog.autodiff import forward, transpose, unzip
from linlog.errors import LinlogError
from linlog.gen import lll_p_cases, safe_ground_cases
from linlog.lll import (
    Abs, App, Bang, BangVal, LinError, Numeral, PBang, PTensor, PVar, PWith,
    Real, TensorPair, TypingEnv, UnitVal, Var, WithPair, typecheck,
)
from linlog.lll.reduce import beta_step
from linlog.lll.terms import children
from tests import ref_typecheck


def outcome(check, env, term):
    try:
        return "ok", check(env, term)
    except LinError as e:
        return type(e), str(e)


def same(env, term):
    want = outcome(ref_typecheck.typecheck, env, term)
    assert outcome(typecheck, env, term) == want, term
    return want


def nodes(term):
    """(path, node) for every node, in pre-order."""
    out, todo = [], [((), term)]
    while todo:
        path, t = todo.pop()
        out.append((path, t))
        kids = children(t)
        todo += [(path + (i,), kids[i]) for i in reversed(range(len(kids)))]
    return out


def replace(term, path, new):
    if not path:
        return new
    kids = list(children(term))
    kids[path[0]] = replace(kids[path[0]], path[1:], new)
    return Abs(term.pat, *kids) if isinstance(term, Abs) else type(term)(*kids)


def swap_pattern(p):
    """The pattern with its outermost ⊗ and & swapped, or None."""
    if isinstance(p, PTensor):
        return PWith(p.left, p.right)
    if isinstance(p, PWith):
        return PTensor(p.left, p.right)
    return None


def mutations(term, rng, per_kind=3):
    """Single-node mutations: drop a use (a variable becomes a numeral),
    use a variable twice (it becomes another variable of the term), swap
    ⊗ and & (in a pair or a pattern), and an argument of the wrong type.
    Up to `per_kind` sites of each kind are drawn, then mutated."""
    all_nodes = nodes(term)
    names = sorted({t.name for _, t in all_nodes if isinstance(t, Var)})
    kinds = {"drop": [], "twice": [], "swap": [], "arg": []}
    for path, t in all_nodes:
        if isinstance(t, Var):
            kinds["drop"].append((path, lambda t: Numeral(1.0)))
            if len(names) > 1:
                kinds["twice"].append((path, lambda t: Var(rng.choice(
                    [n for n in names if n != t.name]))))
        elif isinstance(t, TensorPair):
            kinds["swap"].append((path, lambda t: WithPair(t.left, t.right)))
        elif isinstance(t, WithPair):
            kinds["swap"].append((path, lambda t: TensorPair(t.left, t.right)))
        elif isinstance(t, Abs) and swap_pattern(t.pat) is not None:
            kinds["swap"].append((path, lambda t: Abs(swap_pattern(t.pat),
                                                      t.body)))
        elif isinstance(t, App):
            kinds["arg"].append((path, lambda t: App(t.fn, UnitVal())))
            kinds["arg"].append((path, lambda t: App(t.fn, BangVal(t.arg))))
    at = dict(all_nodes)
    return [replace(term, path, mutate(at[path]))
            for sites in kinds.values()
            for path, mutate in rng.sample(sites, min(per_kind, len(sites)))]


def lo_sequence(term, steps=40):
    out = [term]
    for _ in range(steps):
        step = beta_step(term)
        if step is None:
            break
        term = step[0]
        out.append(term)
    return out


def images(sigma, term, supply):
    """F, U and T(U) of a primal-sort term, or none if it is of no sort."""
    try:
        f, _ = forward(sigma, term, supply)
        u = unzip(f, supply)
        return [f, u, transpose(None, u, supply)]
    except LinlogError:
        return []


def corpus():
    """(env, term) pairs: the generated cases, their reduction steps and
    their F, U and T images."""
    out = []
    for c in lll_p_cases(40, 7):
        env = TypingEnv.of(*[PBang(x, e) for x, e in c.sigma])
        out += [(env, t) for t in lo_sequence(c.term)]
        out += [(env, t) for t in images(c.sigma, c.term, c.supply)]
    for c in safe_ground_cases(30, 8):
        out += [(TypingEnv(), t) for t in lo_sequence(c.term)]
        out += [(TypingEnv(), t) for t in images([], c.term, None)]
    return out


def test_checkers_agree_on_cases_steps_images_and_mutations():
    rng = random.Random(5)
    seen = {"ok": 0, "errors": set(), "mutants": 0}
    for env, term in corpus():
        assert same(env, term)[0] == "ok", term
        seen["ok"] += 1
        for bad in mutations(term, rng):
            got = same(env, bad)
            seen["mutants"] += 1
            if got[0] != "ok":
                seen["errors"].add(got[0].__name__)
    assert seen["ok"] > 500 and seen["mutants"] > 3000, seen
    assert seen["errors"] >= {"LinearityViolation", "TypeMismatch",
                              "PromotionViolation"}, seen


def test_competing_violations_report_the_same_entry():
    """Several entries fail at one node: the error names the entry that
    comes first in the reference's map order, whatever the merge order.
    The exponential entries in scope change the reference's set layouts."""
    bangs = [PBang(f"b{i}", Real) for i in range(12)]
    lin = [PVar(f"x{i}", Real) for i in range(6)]
    rng = random.Random(3)
    for _ in range(200):
        picked = rng.sample(lin, 4)
        env = TypingEnv.of(*rng.sample(bangs, rng.randint(0, 12)), *picked)
        used = [Var(p.name) for p in picked]
        extra = [Var(b.name) for b in bangs if b in env.entries][:3]
        left = used + extra
        right = list(reversed(used))
        rng.shuffle(left)
        rng.shuffle(right)
        for outer in (TensorPair, WithPair):
            for inner in (TensorPair, WithPair):
                assert same(env, outer(nest(left, inner), nest(right, inner)))
                assert same(env, outer(nest(left[:2], inner),
                                       nest(right, inner)))


def nest(terms, pair):
    """The left-nested pairs of `terms`."""
    out = terms[0]
    for t in terms[1:]:
        out = pair(out, t)
    return out


def test_exponential_entries_stay_out_of_usage_maps():
    """A `!x` binder is accepted used any number of times, under a bang,
    across both sides of pairs, or not at all."""
    env = TypingEnv.of(PBang("x", Real))
    x = Var("x")
    for term in (TensorPair(x, WithPair(x, BangVal(x))), Numeral(1.0),
                 App(Abs(PBang("y", Bang(Real)), TensorPair(x, x)),
                     BangVal(BangVal(x)))):
        assert same(env, term)[0] == "ok"
    assert same(TypingEnv.of(PVar("x", Real)),
                App(Abs(PBang("y", Real), BangVal(Var("y"))), BangVal(x)))
