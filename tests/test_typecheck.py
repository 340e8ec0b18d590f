import pytest

from linlog.lll import (
    Abs, App, Bang, BangVal, LinearityViolation, Lolli, Numeral, PBang,
    PTensor, PUnit, PVar, PWith, PlusDot, PromotionViolation, Real,
    TensorPair, TimesDot, Top, TopVal, TypeMismatch, TypingEnv, UnboundVariable,
    UnitVal, Var, With, WithPair, Zero, affine, para, prim, prim_app,
    typecheck,
)
from tests.terms9 import fig9a_term, fig9a_env


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
