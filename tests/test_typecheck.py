import importlib
import subprocess
import sys
import threading

import pytest

from linlog.lll import (
    Abs, App, Bang, BangVal, LinearityViolation, Lolli, Numeral, PBang,
    PTensor, PUnit, PVar, PWith, PlusDot, PromotionViolation, Real, Tensor,
    TensorPair, TimesDot, Top, TopVal, TypeMismatch, TypingEnv, UnboundVariable,
    UnitVal, Var, With, WithPair, Zero, affine, para, prim, prim_app,
    typecheck,
)
from tests.terms9 import fig9a_term, fig9a_env
from tests.test_machine import transposed_chain
from tests.test_oracle import chain_program


def lam(name, ty, body):
    return Abs(PVar(name, ty), body)


def test_identity():
    assert typecheck(TypingEnv(), lam("x", Real, Var("x"))) == Lolli(Real, Real)


def test_fig9a_typechecks_at_bang_real():
    assert typecheck(fig9a_env(), fig9a_term()) == Bang(Real)


def test_additive_contraction_of_linear_variable():
    # \x:R. \<h1,h2>. <x *. h1, x *. h2> : the two occurrences of x sit in
    # different with-components, so linear typing accepts them.
    body = WithPair(
        App(App(TimesDot(), Var("x")), Var("h1")),
        App(App(TimesDot(), Var("x")), Var("h2")),
    )
    t = lam("x", Real, Abs(PWith(PVar("h1", Real), PVar("h2", Real)), body))
    assert typecheck(TypingEnv(), t) == \
        Lolli(Real, Lolli(With(Real, Real), With(Real, Real)))


def test_multiplicative_duplication_rejected():
    env = TypingEnv.of(PVar("x", Real))
    with pytest.raises(LinearityViolation):
        typecheck(env, TensorPair(Var("x"), Var("x")))


def test_additive_duplication_accepted():
    env = TypingEnv.of(PVar("x", Real))
    assert typecheck(env, WithPair(Var("x"), Var("x"))) == With(Real, Real)


def test_unused_linear_variable_rejected():
    env = TypingEnv.of(PVar("x", Real))
    with pytest.raises(LinearityViolation):
        typecheck(env, Numeral(1.0))


def test_zero_and_top_absorb_context():
    env = TypingEnv.of(PVar("x", Real))
    assert typecheck(env, Zero()) == Real
    assert typecheck(env, TopVal()) == Top
    # absorption also works on one side of a tensor pair
    assert typecheck(env, TensorPair(Numeral(1.0), Zero()))


def test_bang_weakening_and_contraction():
    env = TypingEnv.of(PBang("x", Real))
    assert typecheck(env, Numeral(2.0)) == Real
    assert typecheck(env, TensorPair(Var("x"), Var("x")))


def test_bang_var_used_at_inner_type():
    env = TypingEnv.of(PBang("x", Real))
    assert typecheck(env, Var("x")) == Real
    assert typecheck(env, BangVal(Var("x"))) == Bang(Real)


def test_promotion_violation():
    env = TypingEnv.of(PVar("x", Real))
    with pytest.raises(PromotionViolation):
        typecheck(env, BangVal(Var("x")))


def test_exponential_typed_var_is_not_exponential_pattern():
    # x : !R bound as a plain variable cannot be duplicated
    env = TypingEnv.of(PVar("x", Bang(Real)))
    with pytest.raises(LinearityViolation):
        typecheck(env, TensorPair(Var("x"), Var("x")))


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        typecheck(TypingEnv(), Var("ghost"))


def test_type_mismatch_on_application():
    t = App(lam("x", Real, Var("x")), UnitVal())
    with pytest.raises(TypeMismatch):
        typecheck(TypingEnv(), t)


def test_with_pattern_projection_erasure():
    # binding <h1,h2> and using only h1 is with-elimination, not an error
    t = Abs(PWith(PVar("h1", Real), PVar("h2", Real)), Var("h1"))
    assert typecheck(TypingEnv(), t) == Lolli(With(Real, Real), Real)


def test_with_entry_cannot_split_multiplicatively():
    t = Abs(PWith(PVar("h1", Real), PVar("h2", Real)),
            TensorPair(Var("h1"), Var("h2")))
    with pytest.raises(LinearityViolation):
        typecheck(TypingEnv(), t)


def test_tensor_pattern_splits():
    t = Abs(PTensor(PVar("a", Real), PVar("b", Real)),
            TensorPair(Var("a"), Var("b")))
    assert typecheck(TypingEnv(), t)


def test_section_pattern_weakens():
    # let par(f) = ... in body-not-using-f is fine
    t = Abs(PWith(PUnit(), PVar("f", Lolli(Real, Real))), Numeral(0.0))
    assert typecheck(TypingEnv(), t) == Lolli(affine(Lolli(Real, Real)), Real)


def test_prim_application_type():
    t = prim_app(prim("sin"), [BangVal(Numeral(0.0))])
    assert typecheck(TypingEnv(), t) == Bang(Real)
    t2 = prim_app(prim("mul2"), [BangVal(Numeral(2.0)), BangVal(Numeral(3.0))])
    assert typecheck(TypingEnv(), t2) == Bang(Real)


def test_plus_times_types():
    assert typecheck(TypingEnv(), PlusDot()) == Lolli(With(Real, Real), Real)
    assert typecheck(TypingEnv(), TimesDot()) == Lolli(Real, Lolli(Real, Real))


def test_non_ground_sharing_still_types():
    # additive sharing of a function variable is legal for typing
    env = TypingEnv.of(PVar("f", Lolli(Real, Real)))
    t = WithPair(App(Var("f"), Numeral(1.0)), App(Var("f"), Numeral(2.0)))
    assert typecheck(env, t) == With(Real, Real)


def test_section_function_cannot_split_multiplicatively():
    from linlog.lll import para, para_pattern, let_
    f_id = lam("w", Real, Var("w"))
    t = let_(para_pattern(PVar("f", Lolli(Real, Real))), para(f_id),
             TensorPair(App(Var("f"), Numeral(1.0)),
                        App(Var("f"), Numeral(2.0))))
    with pytest.raises(LinearityViolation):
        typecheck(TypingEnv(), t)


def test_section_function_shares_additively():
    from linlog.lll import para, para_pattern, let_
    f_id = lam("w", Real, Var("w"))
    t = let_(para_pattern(PVar("f", Lolli(Real, Real))), para(f_id),
             WithPair(App(Var("f"), Numeral(1.0)),
                      App(Var("f"), Numeral(2.0))))
    assert typecheck(TypingEnv(), t) == With(Real, Real)


def test_promotion_violation_through_redex():
    env = TypingEnv.of(PVar("x", Real))
    t = BangVal(App(lam("u", Real, Var("u")), Var("x")))
    with pytest.raises(PromotionViolation):
        typecheck(env, t)


def test_tensor_component_duplication_rejected():
    t = Abs(PTensor(PVar("a", Real), PVar("b", Real)),
            TensorPair(Var("a"), Var("a")))
    with pytest.raises(LinearityViolation):
        typecheck(TypingEnv(), t)


def test_mixed_additive_then_multiplicative_sharing():
    # <x, (x, 1)> : both branches consume x exactly once
    env = TypingEnv.of(PVar("x", Real))
    t = WithPair(Var("x"), TensorPair(Var("x"), Numeral(1.0)))
    assert typecheck(env, t)


def test_abstraction_without_consumption_rejected():
    t = Abs(PWith(PVar("a", Real), PVar("b", Real)), Numeral(1.0))
    with pytest.raises(LinearityViolation):
        typecheck(TypingEnv(), t)


# ---- depth and growth

CHAIN_ENV = TypingEnv.of(PBang("x0", Real), PBang("x1", Real))
CHAIN_TYPE = Tensor(Bang(Real), affine(Lolli(Real, With(Real, Real))))


def test_a_transposed_2000_let_chain_typechecks_at_the_default_limit():
    """The checker walks an explicit stack: T(U) of a 2000-let chain, built
    at a raised limit, checks at the default one."""
    assert sys.getrecursionlimit() <= 1000
    built = []
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(50_000)
    threading.stack_size(256 << 20)
    try:
        worker = threading.Thread(
            target=lambda: built.append(transposed_chain(2000)[1]))
        worker.start()
        worker.join(300)
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    assert not worker.is_alive() and built
    assert typecheck(CHAIN_ENV, built[0]) == CHAIN_TYPE


def test_check_passes_on_a_490_let_chain(tmp_path):
    """`linlog check` typechecks the source and T(U); other stages limit
    it to about 490 lets.  A fresh interpreter has none of pytest's
    frames."""
    src = tmp_path / "chain.lina"
    src.write_text(chain_program(490))
    proc = subprocess.run([sys.executable, "-m", "linlog.cli", "check",
                           str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "typecheck: ok" in proc.stdout


def merged_entries(n_lets, monkeypatch) -> int:
    """The usage-map entries that the merges of the check of T(U) of
    `chain_program(n_lets)` receive, both maps of each merge counted."""
    tc = importlib.import_module("linlog.lll.typecheck")
    count = 0

    def counting(merge, second):
        def counted(*args):
            nonlocal count
            count += len(args[0]) + len(args[second])
            return merge(*args)
        return counted
    r = transposed_chain(n_lets)[1]
    with monkeypatch.context() as m:
        m.setattr(tc, "_combine_usages", counting(tc._combine_usages, 1))
        m.setattr(tc, "_join_usages", counting(tc._join_usages, 2))
        assert typecheck(CHAIN_ENV, r) == CHAIN_TYPE
    return count


def test_usage_maps_grow_linearly_with_the_chain(monkeypatch):
    """Usage maps hold the linear entries in scope, not the tape: the
    entries merged grow at most 2.2x from 200 to 400 lets."""
    small, large = (merged_entries(n, monkeypatch) for n in (200, 400))
    assert 0 < large <= 2.2 * small, (small, large)
