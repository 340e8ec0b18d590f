"""Hand-built reference terms for the running example g(x,y) = sin(x)*y + cos(x).

These are the four stages of the worked example: the primal-sort source
term and the expected shapes after forward, unzipping and transpose
(each modulo the documented simplifications and alpha-equivalence).
"""

from linlog.lll import (
    Abs, App, BangVal, Lolli, Numeral, PBang, PVar, PWith, PlusDot,
    Real, TensorPair, TimesDot, TypingEnv, Var, With, WithPair,
    bang_let, let_, para, para_pattern, prim, prim_app,
)

RR = With(Real, Real)


def bang(x):
    return BangVal(Var(x))


def mul(a, b):
    return App(App(TimesDot(), a), b)


def add(a, b):
    return App(PlusDot(), WithPair(a, b))


def papp(name, *args):
    return prim_app(prim(name), list(args))


def let_pair(x, fname, fty, rhs, body):
    pat = TensorPair  # noqa: F841  (documentation: the pattern is (!x, par f))
    from linlog.lll import PTensor
    return let_(PTensor(PBang(x, Real), para_pattern(PVar(fname, fty))), rhs, body)


def let_section(fname, fty, rhs, body):
    return let_(para_pattern(PVar(fname, fty)), para(rhs), body)


def fig9a_env() -> TypingEnv:
    return TypingEnv.of(PBang("x", Real), PBang("y", Real))


def fig9a_term():
    return bang_let(
        "v1", Real, papp("sin", bang("x")),
        bang_let(
            "v2", Real, papp("mul2", bang("v1"), bang("y")),
            bang_let(
                "v3", Real, papp("cos", bang("x")),
                bang_let("v4", Real, papp("add2", bang("v2"), bang("v3")),
                         bang("v4")))))


def _tangent_composition():
    body = App(Var("f4"), WithPair(
        App(Var("f2"), WithPair(App(Var("f1"), Var("xt")), Var("yt"))),
        App(Var("f3"), Var("xt"))))
    return Abs(PVar("u", RR),
               let_(PWith(PVar("xt", Real), PVar("yt", Real)), Var("u"), body))


def fig9b_term():
    f1 = bang_let("w1", Real, papp("cos", bang("x")),
                  TensorPair(papp("sin", bang("x")),
                             para(Abs(PVar("u", Real), mul(Var("w1"), Var("u"))))))
    f2 = bang_let(
        "w2", Real, bang("y"),
        bang_let(
            "w3", Real, bang("v1"),
            TensorPair(papp("mul2", bang("v1"), bang("y")),
                       para(Abs(PWith(PVar("u1", Real), PVar("u2", Real)),
                                add(mul(Var("w2"), Var("u1")),
                                    mul(Var("w3"), Var("u2"))))))))
    f3 = bang_let("w4", Real, papp("negsin", bang("x")),
                  TensorPair(papp("cos", bang("x")),
                             para(Abs(PVar("u", Real), mul(Var("w4"), Var("u"))))))
    f4 = bang_let(
        "w5", Real, BangVal(Numeral(1.0)),
        bang_let(
            "w6", Real, BangVal(Numeral(1.0)),
            TensorPair(papp("add2", bang("v2"), bang("v3")),
                       para(Abs(PWith(PVar("u1", Real), PVar("u2", Real)),
                                add(mul(Var("w5"), Var("u1")),
                                    mul(Var("w6"), Var("u2"))))))))
    out = TensorPair(bang("v4"), para(_tangent_composition()))
    return let_pair("v1", "f1", Lolli(Real, Real), f1,
                    let_pair("v2", "f2", Lolli(RR, Real), f2,
                             let_pair("v3", "f3", Lolli(Real, Real), f3,
                                      let_pair("v4", "f4", Lolli(RR, Real), f4,
                                               out))))


def _tape_prefix(core):
    return bang_let(
        "w1", Real, papp("cos", bang("x")),
        bang_let(
            "v1", Real, papp("sin", bang("x")),
            bang_let(
                "w2", Real, bang("y"),
                bang_let(
                    "w3", Real, bang("v1"),
                    bang_let(
                        "v2", Real, papp("mul2", bang("v1"), bang("y")),
                        bang_let(
                            "w4", Real, papp("negsin", bang("x")),
                            bang_let(
                                "v3", Real, papp("cos", bang("x")),
                                bang_let(
                                    "w5", Real, BangVal(Numeral(1.0)),
                                    bang_let(
                                        "w6", Real, BangVal(Numeral(1.0)),
                                        bang_let(
                                            "v4", Real,
                                            papp("add2", bang("v2"), bang("v3")),
                                            core))))))))))


def fig9c_term():
    fpart = let_section(
        "f1", Lolli(Real, Real), Abs(PVar("u", Real), mul(Var("w1"), Var("u"))),
        let_section(
            "f2", Lolli(RR, Real),
            Abs(PWith(PVar("u1", Real), PVar("u2", Real)),
                add(mul(Var("w2"), Var("u1")), mul(Var("w3"), Var("u2")))),
            let_section(
                "f3", Lolli(Real, Real),
                Abs(PVar("u", Real), mul(Var("w4"), Var("u"))),
                let_section(
                    "f4", Lolli(RR, Real),
                    Abs(PWith(PVar("u1", Real), PVar("u2", Real)),
                        add(mul(Var("w5"), Var("u1")), mul(Var("w6"), Var("u2")))),
                    _tangent_composition()))))
    return _tape_prefix(TensorPair(bang("v4"), para(fpart)))


def fig9d_term():
    scale = lambda w: Abs(PVar("l", Real), mul(Var(w), Var("l")))  # noqa: E731
    fan = lambda wa, wb: Abs(PVar("l", Real),                       # noqa: E731
                             WithPair(mul(Var(wa), Var("l")),
                                      mul(Var(wb), Var("l"))))
    aggregation = Abs(
        PVar("z", Real),
        let_(PWith(PVar("za", Real), PVar("zb", Real)),
             App(Var("g4"), Var("z")),
             let_(PWith(PWith(PVar("x1", Real), PVar("y1", Real)), PVar("x2", Real)),
                  WithPair(
                      App(Abs(PWith(PVar("z1", Real), PVar("z2", Real)),
                              WithPair(App(Var("g1"), Var("z1")), Var("z2"))),
                          App(Var("g2"), Var("za"))),
                      App(Var("g3"), Var("zb"))),
                  WithPair(add(Var("x1"), Var("x2")), Var("y1")))))
    fpart = let_section(
        "g1", Lolli(Real, Real), scale("w1"),
        let_section(
            "g2", Lolli(Real, RR), fan("w2", "w3"),
            let_section(
                "g3", Lolli(Real, Real), scale("w4"),
                let_section("g4", Lolli(Real, RR), fan("w5", "w6"),
                            aggregation))))
    return _tape_prefix(TensorPair(bang("v4"), para(fpart)))
