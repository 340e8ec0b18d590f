"""The sort predicates and `is_safe` against their recursive definitions.

`in_sort` and `is_safe` walk terms over an explicit stack with one type
dictionary restored on leaving each binder's scope; the recursive
definitions below copy the dictionary at every binder instead.  Both must
answer alike on generated terms, on their F/U/T images and on subterms of
these (evenly sampled in large terms) under several typings, and on
hand-built ill-sorted and unsafe terms.
"""

from linlog.lll.sorts import (
    Sort, _is_tan_fn_type, _is_tensor_seq_pattern, _tensor_seq_var, in_sort,
)
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, PBang, PlusDot, PrimFn, PTensor, PUnit, PVar,
    PWith, TensorPair, TimesDot, TopVal, UnitVal, Var, WithPair, Zero, free_vars,
    let_, para, para_pattern, pattern_type, pattern_var_types, prim_app,
    prim_args,
)
from linlog.lll.lets import LetKind, let_kind
from linlog.lll.prims import prim
from linlog.lll.types import (
    Bang, Lolli, One, Real, Tensor, Top, With, is_ground, is_with_seq,
)
from linlog.lll.workload import is_safe, workload_term
from tests.test_terms import corpus, subterms

# ---- the recursive definitions


def _is_section_val(m):
    return isinstance(m, WithPair) and isinstance(m.left, UnitVal)


def _is_section_pat(p):
    return (isinstance(p, PWith) and isinstance(p.left, PUnit)
            and isinstance(p.right, PVar))


def is_primal_sort(m, types):
    match m:
        case BangVal(Var(x)):
            return _tensor_seq_var(x, types)
        case BangVal(Numeral(_)) | BangVal(Zero()) | BangVal(UnitVal()):
            return True
        case BangVal(TensorPair(p, q)):
            return is_primal_sort(p, types) and is_primal_sort(q, types)
        case App(PrimFn(f), arg):
            args = prim_args(arg, f.arity)
            return args is not None and all(
                isinstance(a.inner, Var)
                and _tensor_seq_var(a.inner.name, types) for a in args)
        case App(Abs(PBang(x, ty), body), q):
            return (is_primal_sort(q, types)
                    and is_primal_sort(body, types | {x: Bang(ty)}))
        case App(Abs(p, body), Var(z)) if _is_tensor_seq_pattern(p):
            return (_tensor_seq_var(z, types)
                    and is_primal_sort(body, types | pattern_var_types(p)))
        case _:
            return False


def is_tangent_sort(m, types):
    match m:
        case Var(x):
            ty = types.get(x)
            return ty is not None and is_with_seq(ty)
        case Zero() | TopVal():
            return True
        case WithPair(l, r):
            return is_tangent_sort(l, types) and is_tangent_sort(r, types)
        case App(f, a):
            return is_tanfn_sort(f, types) and is_tangent_sort(a, types)
        case _:
            return False


def is_tanfn_sort(m, types):
    match m:
        case Var(f):
            ty = types.get(f)
            return ty is not None and _is_tan_fn_type(ty)
        case PlusDot():
            return True
        case App(TimesDot(), Var(x)):
            return types.get(x) == Real or types.get(x) == Bang(Real)
        case App(TimesDot(), Numeral(_)):
            return True
        case Abs(p, body):
            return (is_with_seq(pattern_type(p))
                    and is_tangent_sort(body, types | pattern_var_types(p)))
        case App(Abs(p, g), val) if _is_section_pat(p) and _is_section_val(val):
            return (is_tanfn_sort(val.right, types)
                    and is_tanfn_sort(g, types | pattern_var_types(p)))
        case _:
            return False


def is_mixed_sort(m, types):
    match m:
        case TensorPair(p, s) if _is_section_val(s):
            return is_primal_sort(p, types) and is_tanfn_sort(s.right, types)
        case App(Abs(PTensor(PBang(_, _) as pb, pw), body), s) if _is_section_pat(pw):
            inner = types | pattern_var_types(PTensor(pb, pw))
            return is_mixed_sort(s, types) and is_mixed_sort(body, inner)
        case App(Abs(p, body), val) if _is_section_pat(p) and _is_section_val(val):
            return (is_tanfn_sort(val.right, types)
                    and is_mixed_sort(body, types | pattern_var_types(p)))
        case App(Abs(PBang(x, ty), body), p):
            return (is_primal_sort(p, types)
                    and is_mixed_sort(body, types | {x: Bang(ty)}))
        case App(Abs(p, body), Var(z)) if _is_tensor_seq_pattern(p):
            return (_tensor_seq_var(z, types)
                    and is_mixed_sort(body, types | pattern_var_types(p)))
        case _:
            return False


def ref_is_safe(m, types):
    match m:
        case BangVal(i):
            return workload_term(i) == 0 and ref_is_safe(i, types)
        case WithPair(l, r):
            for x in free_vars(l) & free_vars(r):
                ty = types.get(x)
                if ty is None or not is_ground(ty):
                    return False
            return ref_is_safe(l, types) and ref_is_safe(r, types)
        case Abs(p, body):
            return ref_is_safe(body, types | pattern_var_types(p))
        case App(f, a) | TensorPair(f, a):
            return ref_is_safe(f, types) and ref_is_safe(a, types)
        case _:
            return True


REFERENCE = {Sort.LLL_P: is_primal_sort, Sort.LLL_T: is_tangent_sort,
             Sort.LLL_F: is_tanfn_sort, Sort.LLL_A: is_mixed_sort}

# ---- the comparison

R_R = Lolli(Real, Real)
FREE_TYPES = [Bang(Real), Real, With(Real, Real), R_R, Top,
              Tensor(Bang(Real), Bang(Real)), One]


def typings(m):
    """Three typings of the names of `m`: none; every binder's own type
    with the free names at !R; and every name at a type drawn in turn from
    FREE_TYPES, so that binders and the names they shadow disagree."""
    binders = {}
    for t in subterms(m):
        if isinstance(t, Abs):
            binders.update(pattern_var_types(t.pat))
    names = sorted(set(binders) | free_vars(m))
    return [{}, {n: Bang(Real) for n in free_vars(m)} | binders,
            {n: FREE_TYPES[i % len(FREE_TYPES)] for i, n in enumerate(names)}]


def some_subterms(m, most=40):
    """`m` and, evenly spaced in pre-order, at most `most` of its
    subterms: the recursive definitions cost a walk per subterm."""
    ts = list(subterms(m))
    return [m] + ts[1::max(1, len(ts) // most)]


def compare(m, answers):
    for types in typings(m):
        for t in some_subterms(m):
            for sort, ref in REFERENCE.items():
                got = in_sort(sort, t, types)
                assert got == ref(t, types), (sort, repr(t), types)
                answers.add((sort, got))
            got = is_safe(t, types)
            assert got == ref_is_safe(t, types), ("safe", repr(t), types)
            answers.add(("safe", got))


def test_sort_walks_match_recursive_definitions_on_corpora():
    answers = set()
    for m in corpus():
        compare(m, answers)
    # every predicate answered both ways
    assert len(answers) == 10, sorted(map(str, answers))


def bang(x):
    return BangVal(Var(x))


def hand_built():
    """Ill-sorted and unsafe terms beside well-formed ones, for each let
    kind and each binder that shadows a name."""
    sin = prim("sin")
    f_rr = PVar("f", R_R)
    ident = Abs(PVar("u", Real), Var("u"))
    mixed = TensorPair(bang("x"), para(ident))
    return [
        # bang let: primal, mixed, then a right-hand side of the wrong sort
        let_(PBang("y", Real), prim_app(sin, [bang("x")]), bang("y")),
        let_(PBang("y", Real), prim_app(sin, [bang("x")]), mixed),
        let_(PBang("y", Real), mixed, bang("y")),
        # tensor let: tensor-sequence leaves, a with leaf, a variable leaf
        let_(PTensor(PBang("a", Real), PBang("b", Real)), Var("p"), bang("a")),
        let_(PTensor(PVar("a", Real), PVar("b", With(Real, Real))), Var("p"),
             bang("x")),
        let_(PVar("a", Real), Var("x"), bang("a")),
        let_(PUnit(), Var("x"), bang("x")),
        let_(PTensor(PBang("a", Real), PBang("b", Real)), bang("p"), bang("a")),
        # section let: well-formed, right-hand side not a section value,
        # right-hand side not a tangent function
        let_(para_pattern(f_rr), para(ident), Var("f")),
        let_(para_pattern(f_rr), para(ident), TensorPair(bang("x"), para(Var("f")))),
        let_(para_pattern(f_rr), ident, Var("f")),
        let_(para_pattern(f_rr), para(bang("x")), Var("f")),
        # bang-section let: mixed right-hand side, then a primal one
        let_(PTensor(PBang("y", Real), para_pattern(f_rr)), mixed,
             TensorPair(bang("y"), para(Var("f")))),
        let_(PTensor(PBang("y", Real), para_pattern(f_rr)), bang("x"),
             TensorPair(bang("y"), para(Var("f")))),
        let_(PTensor(PBang("y", Real), para_pattern(f_rr)), Var("x"),
             TensorPair(bang("y"), para(Var("f")))),
        # a right-hand side that uses its own let's binder, out of scope
        let_(PBang("y", Real), bang("y"), bang("y")),
        let_(para_pattern(f_rr), para(Var("f")), Var("f")),
        # a binder that shadows x, then x at its outer type
        Abs(PVar("u", Real), WithPair(App(Abs(PVar("x", Real), Var("x")),
                                          Var("u")), Var("x"))),
        App(Abs(PVar("x", R_R), Var("x")), WithPair(Var("x"), Var("x"))),
        # unsafe: work under a bang, a with-pair sharing a map
        BangVal(App(PlusDot(), WithPair(Numeral(1.0), Numeral(2.0)))),
        WithPair(Var("x"), App(Var("x"), Zero())),
        App(App(TimesDot(), Var("x")), Var("u")),
        App(App(TimesDot(), Numeral(2.0)), WithPair(Var("u"), Var("u"))),
    ]


def test_sort_walks_match_recursive_definitions_on_hand_built_terms():
    answers = set()
    for m in hand_built():
        compare(m, answers)
        for x in ("x", "p", "u"):
            for ty in FREE_TYPES:
                types = {x: ty}
                for sort, ref in REFERENCE.items():
                    assert in_sort(sort, m, types) == ref(m, types), \
                        (sort, repr(m), types)
                assert is_safe(m, types) == ref_is_safe(m, types)
    assert len(answers) == 10, sorted(map(str, answers))


def test_let_kinds_by_shape_bang_section_first():
    sec = para_pattern(PVar("f", R_R))
    bang_sec = PTensor(PBang("x", Real), sec)
    assert [let_kind(p, n) for p, n in [
        (bang_sec, Var("z")), (bang_sec, bang("z")), (sec, para(Var("g"))),
        (PBang("x", Real), Var("z")), (PTensor(PBang("a", Real), PUnit()), Var("z")),
        (PUnit(), Var("z")), (PVar("a", Real), Var("z")),
    ]] == [LetKind.BANG_SECTION, LetKind.BANG_SECTION, LetKind.SECTION,
           LetKind.BANG, LetKind.TENSOR, LetKind.TENSOR, LetKind.TENSOR]
    # a section pattern over no section value, a with pattern, a tensor
    # pattern over no variable: none of the four
    assert {let_kind(p, n) for p, n in [
        (sec, Var("g")), (PWith(PVar("a", Real), PVar("b", Real)), Var("z")),
        (PTensor(PBang("a", Real), PUnit()), bang("z")),
    ]} == {None}
