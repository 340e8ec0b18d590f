import pytest

from linlog import NameSupply
from linlog.errors import LinlogError, NotWithSeq
from linlog.linear_a import (
    Dup, JOne, JProd, JReal, ScaleDot, TanTupIntro2, VarPair, ZeroDot,
)
from linlog.lll import (
    Abs, App, Bang, BangVal, Lolli, Numeral, One, PBang, PVar, Real,
    TensorPair, Tensor, Top, TopVal, TypingEnv, Var, With, WithPair, Zero,
    alpha_eq, normalize, typecheck,
)
from linlog.lll.machine import run
from linlog.lll.sorts import Sort, classify_sort
from linlog.lll.terms import PWith, with_pattern, with_tuple
from linlog.lll.typecheck import free_var_types
from linlog.lll.types import is_with_seq
from linlog.oracle import basis, flatten_value
from linlog.translate import (
    delta, mk_add, mk_zero, primal_type, scale_app, tangent_type,
)

RR = With(Real, Real)


class IndexOutOfRange(LinlogError):
    pass


def _check_split(index_set, comps):
    for i in index_set:
        if not 0 <= i < len(comps):
            raise IndexOutOfRange(str(i))
    for c in comps:
        if not is_with_seq(c):
            raise NotWithSeq(f"{c!r} is not a with-sequence type")


def mk_split(index_set, comps, supply=None):
    """sigma_I: &comps -o (&_{i in I} comps) & (&_{not in I} comps)."""
    supply = supply or NameSupply()
    _check_split(index_set, comps)
    if not comps:
        y = supply.fresh("y")
        return Abs(PVar(y, Top), WithPair(Var(y), TopVal()))
    names = [supply.fresh("x") for _ in comps]
    pat = with_pattern([PVar(n, c) for n, c in zip(names, comps)])
    ins = with_tuple([Var(names[i]) for i in range(len(comps)) if i in index_set])
    outs = with_tuple([Var(names[i]) for i in range(len(comps))
                       if i not in index_set])
    return Abs(pat, WithPair(ins, outs))


def mk_fuse(index_set, comps, supply=None):
    """sigma-bar_I, the inverse-shaped companion of mk_split."""
    supply = supply or NameSupply()
    _check_split(index_set, comps)
    inside = [i for i in range(len(comps)) if i in index_set]
    outside = [i for i in range(len(comps)) if i not in index_set]
    names = {i: supply.fresh("x") for i in range(len(comps))}

    def group_pat(ixs):
        if not ixs:
            return PVar(supply.fresh("t"), Top)
        return with_pattern([PVar(names[i], comps[i]) for i in ixs])

    pat = PWith(group_pat(inside), group_pat(outside))
    if not comps:
        # T & T -o T: project the first component
        return Abs(pat, Var(pat.left.name))
    return Abs(pat, with_tuple([Var(names[i]) for i in range(len(comps))]))


def test_tangent_type():
    assert tangent_type(JReal) == Real
    assert tangent_type(JOne) == Top
    assert tangent_type(JProd(JProd(JReal, JReal), JOne)) == With(RR, Top)


def test_primal_type():
    assert primal_type(JReal) == Real
    assert primal_type(JOne) == One
    assert primal_type(JProd(JReal, JOne)) == Tensor(Bang(Real), Bang(One))


def test_mk_zero():
    assert mk_zero(With(Real, Top)) == WithPair(Zero(), TopVal())


def test_mk_add_scalar_pair():
    out = normalize(App(mk_add(Real), WithPair(Numeral(2.0), Numeral(3.0))))
    assert out.result == Numeral(5.0)


def mk_scale(h, supply=None):
    """The curried map x, v -> x *. v on the with-sequence type `h`."""
    supply = supply or NameSupply()
    x = supply.fresh("x")
    v = supply.fresh("v")
    return Abs(PVar(x, Real),
               Abs(PVar(v, h), scale_app(h, Var(x), Var(v), supply)))


def test_mk_scale_compound():
    t = App(App(mk_scale(RR), Numeral(2.0)),
            WithPair(Numeral(1.0), Numeral(4.0)))
    v, _ = run(t)
    assert flatten_value(v) == [2.0, 8.0]


def test_mk_split_identity_shape():
    s = mk_split({0}, [Real, Real])
    assert typecheck(TypingEnv(), s) == Lolli(RR, RR)
    v, _ = run(App(s, WithPair(Numeral(1.0), Numeral(2.0))))
    assert flatten_value(v) == [1.0, 2.0]


def test_mk_split_empty_index():
    s = mk_split(set(), [Real, Real])
    ty = typecheck(TypingEnv(), s)
    assert ty == Lolli(RR, With(Top, RR))


def test_fuse_after_split_is_identity_on_basis():
    comps = [Real, Real, Real]
    idx = {1}
    split, fuse = mk_split(idx, comps), mk_fuse(idx, comps)
    from linlog.lll.types import with_tuple_type
    h = with_tuple_type(comps)
    for b in basis(h):
        v, _ = run(App(fuse, App(split, b)))
        want, _ = run(b)
        assert flatten_value(v) == flatten_value(want)


def test_delta_varpair():
    s = NameSupply()
    d = delta({"x": JReal}, [("y'", JReal)], VarPair("x", "y'"), s)
    # (!x, par(\u. u))
    assert isinstance(d, TensorPair)
    assert d.left == BangVal(Var("x"))
    fn = d.right.right
    assert alpha_eq(fn, Abs(PVar("u", Real), Var("u")))


def test_delta_dup():
    s = NameSupply()
    d = delta({}, [("y'", JReal)], Dup("y'"), s)
    fn = d.right.right
    assert isinstance(fn.body, WithPair)
    assert fn.body.left == fn.body.right


def test_delta_zerodot_add_scale_type_and_values():
    s = NameSupply()
    env = TypingEnv.of(PBang("c", Real))
    d = delta({"c": JReal}, [("a'", JReal)], ScaleDot("c", "a'"), s)
    ty = typecheck(env, d)
    assert ty == Tensor(Bang(One), With(One, Lolli(Real, Real)))
    d0 = delta({}, [], ZeroDot(JProd(JReal, JOne)), s)
    assert typecheck(TypingEnv(), d0) == \
        Tensor(Bang(One), With(One, Lolli(Top, With(Real, Top))))


def test_delta_output_is_mixed_sort_and_safe():
    from linlog.gen import jax_cases
    from linlog.lll.workload import is_safe
    for c in jax_cases(25, 99, "linear-a"):
        d = delta(c.penv, c.theta, c.expr, c.supply)
        env = TypingEnv.of(*[PBang(x, primal_type(t))
                             for x, t in sorted(c.penv.items())])
        tys = free_var_types(env)
        typecheck(env, d)
        assert classify_sort(d, tys) == Sort.LLL_A
        assert is_safe(d, tys)


def test_delta_tantup_respects_enumeration_order():
    s = NameSupply()
    # enumeration reversed relative to the tuple
    d = delta({}, [("b'", JReal), ("a'", JReal)],
              TanTupIntro2("a'", "b'"), s)
    fn = d.right.right
    v, _ = run(App(fn, WithPair(Numeral(5.0), Numeral(7.0))))
    # input (b', a') = (5, 7); output must be (a', b') = (7, 5)
    assert flatten_value(v) == [7.0, 5.0]


def test_delta_computes_the_free_names_of_each_node_once(monkeypatch):
    """Delta asks at every let-p whether the tangent it binds is free in the
    rest of the program.  A node's free names are computed once and kept,
    so the question costs O(1) and Delta is linear in the program."""
    from linlog.frontend import parse
    from linlog.linear_a import expr
    from linlog.translate import delta_b_primal
    from tests.test_oracle import chain_program

    sf = parse(chain_program(200))
    node_names, computed = expr._node_names, []

    def counted(e):
        computed.append(e)  # keeps e alive, so that its id stays its own
        return node_names(e)

    monkeypatch.setattr(expr, "_node_names", counted)
    delta_b_primal(dict(sf.primal), sf.body, NameSupply())
    ids = [id(e) for e in computed]
    assert len(ids) >= 2 * 200  # a let-p is a LetPair around a TanTupElim0
    assert len(set(ids)) == len(ids)
