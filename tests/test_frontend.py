import subprocess
import sys

import pytest

from linlog.autodiff import forward, transpose, unzip
from linlog.frontend import (
    ReservedName, SortError, SourceFile, SyntaxErrorAt, parse, parse_point,
    pretty,
)
from linlog.gen import jax_cases, lll_f_cases, lll_p_cases, safe_ground_cases
from linlog.linear_a import JProd, JReal, Scalar, typecheck_jax
from linlog.linear_a.values import NPair
from linlog.lll import (
    Bang, BangVal, PBang, Real, TypingEnv, Var, alpha_eq, typecheck,
)

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


MODES = ["sugared", "core"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["primal", "tangent", "linear-a", "linear-b"])
def test_pretty_round_trips_generated_linear_a(kind, mode):
    """Printing sanitizes every name that would not reparse, header names
    included (the generators name tangents `dt#4`, without an apostrophe),
    and reparsing the printed text prints it again unchanged."""
    for c in jax_cases(100, 5, kind):
        text = pretty(SourceFile("linear-a", list(c.penv.items()), c.theta,
                                 body=c.expr), mode)
        assert pretty(parse(text), mode) == text


def lll_corpora():
    """(env, term) pairs: the primal corpus with its F, U and T images,
    the tangent-function corpus and the closed safe ground terms."""
    out = []
    for c in lll_p_cases(100, 6):
        env = [PBang(x, t) for x, t in c.sigma]
        f, _ = forward(c.sigma, c.term, c.supply)
        u = unzip(f, c.supply)
        out += [(env, m) for m in (c.term, f, u, transpose(None, u, c.supply))]
    out += [([PBang(x, t) for x, t in c.sigma], c.term)
            for c in lll_f_cases(100, 7)]
    out += [([], c.term) for c in safe_ground_cases(100, 8)]
    return out


@pytest.mark.parametrize("mode", MODES)
def test_pretty_round_trips_generated_lll(mode):
    for env, m in lll_corpora():
        sf = parse(pretty(SourceFile("lll", env=env, body=m), mode))
        assert sf.env == env
        assert alpha_eq(sf.body, m)


def test_pretty_renames_reserved_header_names():
    sf = SourceFile("lll", env=[PBang("%x#1", Real)],
                    body=BangVal(Var("%x#1")))
    back = parse(pretty(sf))
    assert (back.env, back.body) == ([PBang("g1", Real)], BangVal(Var("g1")))


def test_parse_keeps_its_depth_limit():
    """The reader reads each subform with one call of itself, one host
    frame per level of nesting: a fresh interpreter, free of pytest's own
    frames, parses a 990-let chain at the default recursion limit."""
    code = ("import sys; from linlog.frontend import parse; "
            "from tests.test_oracle import chain_program; "
            "assert sys.getrecursionlimit() <= 1000; "
            "parse(chain_program(990))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_a_form_is_checked_where_it_is():
    with pytest.raises(SyntaxErrorAt) as e:
        parse("(linear-a (primal (x real))\n  (expr (let-p y)))")
    assert (e.value.line, e.value.col) == (2, 8)
    assert "expected (let-p pname expr expr)" in str(e.value)

