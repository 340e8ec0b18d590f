"""Free variables, names, size and workload: the cached `free_vars`, the
stack-flat `all_names` and `term_size`, and the one-pass `workload_term`
against their plain recursive definitions."""

import sys
import threading

import pytest

from linlog import NameSupply
from linlog.autodiff import forward, transpose, transpose_f, unzip
from linlog.frontend import parse
from linlog.gen import jax_cases, lll_f_cases, lll_p_cases, safe_ground_cases
from linlog.lll import terms
from linlog.lll.terms import (
    Abs, App, BangVal, PBang, PVar, TensorPair, Var, WithPair, all_names,
    free_vars, pattern_var_types, pattern_vars, term_size, term_str,
)
from linlog.lll.typecheck import TypingEnv, free_var_types
from linlog.lll.types import Real, workload_type
from linlog.lll.workload import is_safe, workload_term
from linlog.linear_a.expr import fv_primal
from linlog.translate import delta, delta_b_primal, primal_type
from tests.test_reduce import ladder_images

def ref_free_vars(m):
    match m:
        case Var(name):
            return frozenset((name,))
        case Abs(p, body):
            return ref_free_vars(body) - frozenset(pattern_vars(p))
        case App(f, a) | TensorPair(f, a) | WithPair(f, a):
            return ref_free_vars(f) | ref_free_vars(a)
        case BangVal(i):
            return ref_free_vars(i)
    return frozenset()


def ref_workload(m, seen):
    """The recursive definition; records each subterm's workload in `seen`
    by id, so that checking every subterm costs one walk."""
    match m:
        case Abs(p, body):
            fv = ref_free_vars(body)
            erased = sum(workload_type(ty)
                         for x, ty in pattern_var_types(p).items() if x not in fv)
            w = ref_workload(body, seen) + erased
        case App(f, a) | TensorPair(f, a) | WithPair(f, a):
            w = ref_workload(f, seen) + ref_workload(a, seen)
        case BangVal(i):
            ref_workload(i, seen)
            w = 0
        case _:
            w = int(isinstance(m, (terms.PrimFn, terms.PlusDot, terms.TimesDot)))
    seen[id(m)] = w
    return w


def subterms(m):
    todo = [m]
    while todo:
        t = todo.pop()
        yield t
        todo += terms.children(t)


def composite_nodes(*ms):
    return len({id(t): t for m in ms for t in subterms(m)
                if isinstance(t, terms._COMPOSITE)})


def corpus():
    """Generated terms and their F/U/T images."""
    out = []
    for c in lll_p_cases(25, 5):
        f, _ = forward(c.sigma, c.term, c.supply)
        u = unzip(f, c.supply)
        out += [c.term, f, u, transpose(None, u, c.supply),
                transpose(None, f, c.supply)]
    for c in jax_cases(15, 6, "linear-a"):
        d = delta(c.penv, c.theta, c.expr, c.supply)
        u = unzip(d, c.supply)
        out += [d, u, transpose(None, u, c.supply)]
    for c in lll_f_cases(20, 7):
        out += [c.term, transpose_f({}, c.term, c.supply)]
    out += [c.term for c in safe_ground_cases(25, 8)]
    return out


@pytest.fixture(scope="module")
def terms_corpus():
    return corpus()


def test_free_vars_matches_reference_walk(terms_corpus):
    for i, m in enumerate(terms_corpus):
        for t in subterms(m):
            assert free_vars(t) == ref_free_vars(t), (i, term_str(t))


def test_workload_term_matches_recursive_definition(terms_corpus):
    for i, m in enumerate(terms_corpus):
        seen = {}
        ref_workload(m, seen)
        for t in subterms(m):
            assert workload_term(t) == seen[id(t)], (i, term_str(t))


def test_cached_free_vars_leave_equality_hash_and_printing_alone():
    def build():
        return App(Abs(PVar("x", Real), TensorPair(Var("x"), Var("y"))),
                   WithPair(Var("z"), BangVal(Var("w"))))

    cached, fresh = build(), build()
    before = (hash(cached), term_str(cached), repr(cached))
    assert free_vars(cached) == {"y", "z", "w"}
    assert cached.fn._fv is not None and fresh._fv is None
    assert cached == fresh and hash(cached) == hash(fresh)
    assert (hash(cached), term_str(cached), repr(cached)) == before
    assert App.__match_args__ == ("fn", "arg")


def ladder_program(n_lets):
    """A straight-line Linear-A program of `n_lets` lets over x0, x1."""
    names = ["x0", "x1"]
    lets = []
    for i in range(n_lets):
        a, b = names[-1], names[-3] if len(names) > 2 else names[0]
        op = ("sin", "cos", "mul2", "add2")[i % 4]
        args = a if op in ("sin", "cos") else f"{a} {b}"
        lets.append(f"(let-p v{i} (prim {op} {args})")
        names.append(f"v{i}")
    body = " ".join(lets) + f" (var-p {names[-1]})" + ")" * n_lets
    return f"(linear-a (primal (x0 real) (x1 real)) (expr {body}))"


def test_free_vars_computed_at_most_once_per_node(monkeypatch):
    sf = parse(ladder_program(75))
    supply = NameSupply()
    term = delta_b_primal(dict(sf.primal), sf.body, supply)
    theta = [(x, primal_type(t)) for x, t in sf.primal
             if x in fv_primal(sf.body)]
    computed = []
    compute = terms._compute_free_vars
    monkeypatch.setattr(terms, "_compute_free_vars",
                        lambda m: computed.append(m) or compute(m))
    f, _ = forward(theta, term, supply)
    u = unzip(f, supply)
    t = transpose(None, u, supply)
    assert workload_term(t) > 0
    env = TypingEnv.of(*[PBang(x, e) for x, e in theta])
    assert is_safe(t, free_var_types(env))
    # F, U and T also query terms they build and then discard, so the
    # nodes are counted over every term queried; a node computed twice
    # would make the count exceed them.
    assert 0 < len(computed) <= composite_nodes(*computed)
    assert len(computed) <= 2 * composite_nodes(term, f, u, t)


def ref_all_names(m):
    match m:
        case Var(name):
            return {name}
        case Abs(p, body):
            return set(pattern_vars(p)) | ref_all_names(body)
        case App(f, a) | TensorPair(f, a) | WithPair(f, a):
            return ref_all_names(f) | ref_all_names(a)
        case BangVal(i):
            return ref_all_names(i)
    return set()


def ref_term_size(m):
    return 1 + sum(map(ref_term_size, terms.children(m)))


def at_a_raised_limit(fn, *args):
    """`fn(*args)`, run in a thread with room for 50,000 frames."""
    out = []
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(50_000)
    threading.stack_size(256 << 20)
    try:
        worker = threading.Thread(target=lambda: out.append(fn(*args)))
        worker.start()
        worker.join(300)
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    assert not worker.is_alive() and out
    return out[0]


def test_names_and_size_of_deep_terms_at_the_default_recursion_limit():
    """U and T(U) of a 300-let ladder and F of a 400-let one nest deeper
    than the default limit allows a recursive walk."""
    assert sys.getrecursionlimit() <= 1000
    _, u, tu = ladder_images(300)
    for m in (u, tu, ladder_images(400)[0]):
        assert term_size(m) == at_a_raised_limit(ref_term_size, m)
        assert all_names(m) == at_a_raised_limit(ref_all_names, m)


def test_names_and_size_match_their_recursive_definitions(terms_corpus):
    for i, m in enumerate(terms_corpus):
        assert term_size(m) == ref_term_size(m), i
        assert all_names(m) == ref_all_names(m), i
