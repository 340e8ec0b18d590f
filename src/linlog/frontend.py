"""Surface syntax: s-expression files for both dialects.

A source file declares its dialect, a typed free-variable header and a
body expression.  Identifiers starting with "%" are reserved for
generated names and rejected.  Tangent identifiers end with an
apostrophe; primal identifiers must not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from linlog.errors import LinlogError
from linlog.fresh import NameSupply, is_reserved
from linlog.linear_a.expr import (
    AddDot, Drop, Dup, Expr, JaxType, JOne, JProd, JReal, LetPair, Lit,
    PrimApp, PrimTupElim0, PrimTupElim2, PrimTupIntro0, PrimTupIntro2,
    ScaleDot, TanTupElim0, TanTupElim2, TanTupIntro0, TanTupIntro2, VarPair,
    ZeroDot, let_p, let_t, match_let_p, match_let_t, match_p_var, match_t_var,
    pair_pt, ptup_e, p_var, ttup_e, t_var,
)
from linlog.linear_a.values import NPair, NumTuple, Scalar, UnitTup
from linlog.lll.prims import PrimId, REGISTRY
from linlog.lll.reduce import rename_pattern, subst
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PTensor, PUnit, PVar, PWith,
    PlusDot, PrimFn, Term, TensorPair, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, all_names, pattern_vars, prim_app,
)
from linlog.lll.types import (
    Bang, LType, Lolli, One, Real, Tensor, Top, With, affine,
)


class SyntaxErrorAt(LinlogError):
    def __init__(self, msg, line=0, col=0):
        super().__init__(f"{line}:{col}: {msg}")
        self.line, self.col = line, col


class ReservedName(LinlogError):
    pass


class SortError(LinlogError):
    pass


# ------------------------------------------------------------ s-expressions

@dataclass
class _Sym:
    text: str
    line: int
    col: int

    def __repr__(self):
        return self.text


def _tokenize(text: str):
    line, col = 1, 0
    i = 0
    out = []
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 0
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append(_Sym(c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            out.append(_Sym(text[i:j], line, col))
            col += j - i
            i = j
    return out


def _read(tokens, pos):
    if pos >= len(tokens):
        raise SyntaxErrorAt("unexpected end of input")
    t = tokens[pos]
    if t.text == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise SyntaxErrorAt("missing )", t.line, t.col)
            if tokens[pos].text == ")":
                return items, pos + 1
            item, pos = _read(tokens, pos)
            items.append(item)
    if t.text == ")":
        raise SyntaxErrorAt("unexpected )", t.line, t.col)
    return t, pos + 1


def read_sexprs(text: str):
    tokens = _tokenize(text)
    out = []
    pos = 0
    while pos < len(tokens):
        item, pos = _read(tokens, pos)
        out.append(item)
    return out


def _sym(x, what="identifier") -> str:
    if not isinstance(x, _Sym):
        raise SyntaxErrorAt(f"expected {what}, got a list")
    return x.text


def _ident(x, what="identifier") -> str:
    name = _sym(x, what)
    if is_reserved(name):
        raise ReservedName(name)
    return name


def _number(x) -> float:
    try:
        return float(_sym(x, "number"))
    except ValueError:
        raise SyntaxErrorAt(f"expected a number, got {x!r}",
                            x.line, x.col) from None


def _head(x):
    return x[0].text if isinstance(x, list) and x and isinstance(x[0], _Sym) else None


def _primitive(x: list, n_args: int | None = None) -> PrimId:
    """The primitive named in the form `x`, which applies it to `n_args`
    arguments unless that is None."""
    name = _sym(x[1])
    p = REGISTRY.get(name)
    if p is None:
        raise SyntaxErrorAt(f"unknown primitive {name}", x[1].line, x[1].col)
    if n_args is not None and n_args != p.arity:
        raise SyntaxErrorAt(
            f"{name} expects {p.arity} arguments, got {n_args}",
            x[1].line, x[1].col)
    return p


# ---------------------------------------------------------------- types

def parse_ltype(x) -> LType:
    if isinstance(x, _Sym):
        match x.text:
            case "real":
                return Real
            case "one":
                return One
            case "top":
                return Top
        raise SyntaxErrorAt(f"unknown type {x.text}", x.line, x.col)
    match _head(x):
        case "tensor" | "otimes":
            return Tensor(parse_ltype(x[1]), parse_ltype(x[2]))
        case "with" | "amp":
            return With(parse_ltype(x[1]), parse_ltype(x[2]))
        case "lolli":
            return Lolli(parse_ltype(x[1]), parse_ltype(x[2]))
        case "bang":
            return Bang(parse_ltype(x[1]))
        case "para":
            return affine(parse_ltype(x[1]))
    raise SyntaxErrorAt(f"bad type {x!r}")


def print_ltype(t: LType) -> str:
    match t:
        case x if x is Real:
            return "real"
        case x if x is One:
            return "one"
        case x if x is Top:
            return "top"
        case Tensor(l, r):
            return f"(tensor {print_ltype(l)} {print_ltype(r)})"
        case With(l, r):
            return f"(with {print_ltype(l)} {print_ltype(r)})"
        case Lolli(l, r):
            return f"(lolli {print_ltype(l)} {print_ltype(r)})"
        case Bang(i):
            return f"(bang {print_ltype(i)})"
    raise AssertionError(t)


def parse_jax_type(x) -> JaxType:
    if isinstance(x, _Sym):
        match x.text:
            case "real":
                return JReal
            case "one":
                return JOne
        raise SyntaxErrorAt(f"unknown type {x.text}", x.line, x.col)
    if _head(x) in ("tensor", "otimes"):
        return JProd(parse_jax_type(x[1]), parse_jax_type(x[2]))
    raise SyntaxErrorAt(f"bad type {x!r}")


def print_jax_type(t: JaxType) -> str:
    match t:
        case x if x is JReal:
            return "real"
        case x if x is JOne:
            return "one"
        case JProd(l, r):
            return f"(tensor {print_jax_type(l)} {print_jax_type(r)})"
    raise AssertionError(t)


# ---------------------------------------------------------------- patterns

def parse_pattern(x) -> Pattern:
    if isinstance(x, _Sym) and x.text == "unit":
        return PUnit()
    if not isinstance(x, list):
        raise SyntaxErrorAt(f"bad pattern {x!r}", x.line, x.col)
    match _head(x):
        case "bang":
            return PBang(_ident(x[1]), parse_ltype(x[2]))
        case "tpair":
            return PTensor(parse_pattern(x[1]), parse_pattern(x[2]))
        case "wpair":
            return PWith(parse_pattern(x[1]), parse_pattern(x[2]))
        case "para":
            return PWith(PUnit(), parse_pattern(x[1]))
        case _:
            if len(x) == 2:
                return PVar(_ident(x[0]), parse_ltype(x[1]))
    raise SyntaxErrorAt(f"bad pattern {x!r}")


def print_pattern(p: Pattern) -> str:
    match p:
        case PVar(n, t):
            return f"({n} {print_ltype(t)})"
        case PBang(n, t):
            return f"(bang {n} {print_ltype(t)})"
        case PUnit():
            return "unit"
        case PTensor(l, r):
            return f"(tpair {print_pattern(l)} {print_pattern(r)})"
        case PWith(PUnit(), r):
            return f"(para {print_pattern(r)})"
        case PWith(l, r):
            return f"(wpair {print_pattern(l)} {print_pattern(r)})"
    raise AssertionError(p)


# ---------------------------------------------------------------- lll terms

def parse_lll_term(x) -> Term:
    if isinstance(x, _Sym):
        match x.text:
            case "zero":
                return Zero()
            case "plus":
                return PlusDot()
            case "times":
                return TimesDot()
            case "unit":
                return UnitVal()
            case "topv":
                return TopVal()
        try:
            return Numeral(float(x.text))
        except ValueError:
            pass
        return Var(_ident(x))
    match _head(x):
        case "num":
            return Numeral(_number(x[1]))
        case "prim":
            return PrimFn(_primitive(x))
        case "papp":
            return prim_app(_primitive(x, len(x) - 2),
                            [parse_lll_term(a) for a in x[2:]])
        case "lam":
            return Abs(parse_pattern(x[1]), parse_lll_term(x[2]))
        case "app":
            out = parse_lll_term(x[1])
            for a in x[2:]:
                out = App(out, parse_lll_term(a))
            return out
        case "bangv":
            return BangVal(parse_lll_term(x[1]))
        case "tpair":
            return TensorPair(parse_lll_term(x[1]), parse_lll_term(x[2]))
        case "wpair":
            return WithPair(parse_lll_term(x[1]), parse_lll_term(x[2]))
        case "para":
            return WithPair(UnitVal(), parse_lll_term(x[1]))
        case "let":
            return App(Abs(parse_pattern(x[1]), parse_lll_term(x[3])),
                       parse_lll_term(x[2]))
    raise SyntaxErrorAt(f"bad term {x!r}")


def print_lll_term(m: Term, sugared: bool = True) -> str:
    p = lambda t: print_lll_term(t, sugared)  # noqa: E731
    match m:
        case Var(n):
            return n
        case Numeral(v):
            return f"(num {v!r})"
        case Zero():
            return "zero"
        case PlusDot():
            return "plus"
        case TimesDot():
            return "times"
        case UnitVal():
            return "unit"
        case TopVal():
            return "topv"
        case PrimFn(f):
            return f"(prim {f.name})"
        case App(Abs(pat, body), rhs) if sugared:
            return f"(let {print_pattern(pat)} {p(rhs)} {p(body)})"
        case Abs(pat, body):
            return f"(lam {print_pattern(pat)} {p(body)})"
        case App(f, a):
            return f"(app {p(f)} {p(a)})"
        case BangVal(i):
            return f"(bangv {p(i)})"
        case TensorPair(l, r):
            return f"(tpair {p(l)} {p(r)})"
        case WithPair(UnitVal(), r) if sugared:
            return f"(para {p(r)})"
        case WithPair(l, r):
            return f"(wpair {p(l)} {p(r)})"
    raise AssertionError(m)


# ------------------------------------------------------------- linear a

def _tan_name(x) -> str:
    n = _ident(x, "tangent identifier")
    if not n.endswith("'"):
        raise SortError(f"tangent identifier {n} must end with '")
    return n


def _prim_name(x) -> str:
    n = _ident(x, "primal identifier")
    if n.endswith("'"):
        raise SortError(f"primal identifier {n} must not end with '")
    return n


class _LinaParser:
    def __init__(self, supply: NameSupply):
        self.supply = supply

    def expr(self, x) -> Expr:
        if isinstance(x, _Sym):
            raise SyntaxErrorAt(f"bad expression {x.text}", x.line, x.col)
        match _head(x):
            case "pair":
                return VarPair(_prim_name(x[1]), _tan_name(x[2]))
            case "let-pair":
                return LetPair(_prim_name(x[1]), _tan_name(x[2]),
                               self.expr(x[3]), self.expr(x[4]))
            case "ptup":
                if len(x) == 1:
                    return PrimTupIntro0()
                return PrimTupIntro2(_prim_name(x[1]), _prim_name(x[2]))
            case "let-ptup":
                if isinstance(x[1], list) and not x[1]:
                    return PrimTupElim0(_prim_name(x[2]), self.expr(x[3]))
                return PrimTupElim2(_prim_name(x[1][0]), _prim_name(x[1][1]),
                                    _prim_name(x[2]), self.expr(x[3]))
            case "ttup":
                if len(x) == 1:
                    return TanTupIntro0()
                return TanTupIntro2(_tan_name(x[1]), _tan_name(x[2]))
            case "let-ttup":
                if isinstance(x[1], list) and not x[1]:
                    return TanTupElim0(_tan_name(x[2]), self.expr(x[3]))
                return TanTupElim2(_tan_name(x[1][0]), _tan_name(x[1][1]),
                                   _tan_name(x[2]), self.expr(x[3]))
            case "lit":
                return Lit(_number(x[1]))
            case "prim":
                return PrimApp(_primitive(x, len(x) - 2),
                               tuple(_prim_name(a) for a in x[2:]))
            case "zerodot":
                return ZeroDot(parse_jax_type(x[1]))
            case "adddot":
                return AddDot(_tan_name(x[1]), _tan_name(x[2]))
            case "scaledot":
                return ScaleDot(_prim_name(x[1]), _tan_name(x[2]))
            case "dup":
                return Dup(_tan_name(x[1]))
            case "drop":
                return Drop(self.expr(x[1]))
            case "let-p":
                return let_p(_prim_name(x[1]), self.expr(x[2]),
                             self.expr(x[3]), self.supply)
            case "let-t":
                return let_t(_tan_name(x[1]), self.expr(x[2]),
                             self.expr(x[3]), self.supply)
            case "var-p":
                return p_var(_prim_name(x[1]), self.supply)
            case "var-t":
                return t_var(_tan_name(x[1]), self.supply)
            case "pair-e":
                return pair_pt(self.expr(x[1]), self.expr(x[2]), self.supply)
            case "ptup-e":
                return ptup_e(self.expr(x[1]), self.expr(x[2]), self.supply)
            case "ttup-e":
                return ttup_e(self.expr(x[1]), self.expr(x[2]), self.supply)
        raise SyntaxErrorAt(f"bad expression {x!r}")


def print_lina_expr(e: Expr, sugared: bool = True) -> str:
    p = lambda t: print_lina_expr(t, sugared)  # noqa: E731
    if sugared:
        x = match_p_var(e)
        if x is not None:
            return f"(var-p {x})"
        t = match_t_var(e)
        if t is not None:
            return f"(var-t {t})"
        m = match_let_p(e)
        if m is not None:
            return f"(let-p {m[0]} {p(m[1])} {p(m[2])})"
        m = match_let_t(e)
        if m is not None:
            return f"(let-t {m[0]} {p(m[1])} {p(m[2])})"
    match e:
        case VarPair(x, t):
            return f"(pair {x} {t})"
        case LetPair(x, t, b, body):
            return f"(let-pair {x} {t} {p(b)} {p(body)})"
        case PrimTupIntro0():
            return "(ptup)"
        case PrimTupIntro2(a, b):
            return f"(ptup {a} {b})"
        case PrimTupElim0(z, body):
            return f"(let-ptup () {z} {p(body)})"
        case PrimTupElim2(a, b, z, body):
            return f"(let-ptup ({a} {b}) {z} {p(body)})"
        case TanTupIntro0():
            return "(ttup)"
        case TanTupIntro2(a, b):
            return f"(ttup {a} {b})"
        case TanTupElim0(z, body):
            return f"(let-ttup () {z} {p(body)})"
        case TanTupElim2(a, b, z, body):
            return f"(let-ttup ({a} {b}) {z} {p(body)})"
        case Lit(v):
            return f"(lit {v!r})"
        case PrimApp(f, args):
            return f"(prim {f.name} {' '.join(args)})"
        case ZeroDot(t):
            return f"(zerodot {print_jax_type(t)})"
        case AddDot(a, b):
            return f"(adddot {a} {b})"
        case ScaleDot(x, t):
            return f"(scaledot {x} {t})"
        case Dup(t):
            return f"(dup {t})"
        case Drop(body):
            return f"(drop {p(body)})"
    raise AssertionError(e)


# ------------------------------------------------------- name sanitization

def _rename_lina(e: Expr, ren: dict[str, str]) -> Expr:
    r = lambda n: ren.get(n, n)  # noqa: E731
    match e:
        case VarPair(x, t):
            return VarPair(r(x), r(t))
        case LetPair(x, t, b, body):
            return LetPair(r(x), r(t), _rename_lina(b, ren), _rename_lina(body, ren))
        case PrimTupIntro2(a, b):
            return PrimTupIntro2(r(a), r(b))
        case PrimTupElim0(z, body):
            return PrimTupElim0(r(z), _rename_lina(body, ren))
        case PrimTupElim2(a, b, z, body):
            return PrimTupElim2(r(a), r(b), r(z), _rename_lina(body, ren))
        case TanTupIntro2(a, b):
            return TanTupIntro2(r(a), r(b))
        case TanTupElim0(z, body):
            return TanTupElim0(r(z), _rename_lina(body, ren))
        case TanTupElim2(a, b, z, body):
            return TanTupElim2(r(a), r(b), r(z), _rename_lina(body, ren))
        case PrimApp(f, args):
            return PrimApp(f, tuple(r(a) for a in args))
        case AddDot(a, b):
            return AddDot(r(a), r(b))
        case ScaleDot(x, t):
            return ScaleDot(r(x), r(t))
        case Dup(t):
            return Dup(r(t))
        case Drop(body):
            return Drop(_rename_lina(body, ren))
        case _:
            return e


def _lina_names(e: Expr, prim: set, tan: set):
    match e:
        case VarPair(x, t) | ScaleDot(x, t):
            prim.add(x)
            tan.add(t)
        case LetPair(x, t, b, body):
            prim.add(x)
            tan.add(t)
            _lina_names(b, prim, tan)
            _lina_names(body, prim, tan)
        case PrimTupIntro2(a, b):
            prim |= {a, b}
        case TanTupIntro2(a, b) | AddDot(a, b):
            tan |= {a, b}
        case PrimTupElim0(z, body):
            prim.add(z)
            _lina_names(body, prim, tan)
        case TanTupElim0(z, body):
            tan.add(z)
            _lina_names(body, prim, tan)
        case PrimTupElim2(a, b, z, body):
            prim |= {a, b, z}
            _lina_names(body, prim, tan)
        case TanTupElim2(a, b, z, body):
            tan |= {a, b, z}
            _lina_names(body, prim, tan)
        case PrimApp(_, args):
            prim |= set(args)
        case Dup(t):
            tan.add(t)
        case Drop(body):
            _lina_names(body, prim, tan)


def sanitize_lina(e: Expr) -> Expr:
    """Rename generated (reserved-prefix) names so output reparses;
    positions determine sorts, tangent names get a trailing apostrophe."""
    prim: set[str] = set()
    tan: set[str] = set()
    _lina_names(e, prim, tan)
    names = prim | tan
    ren = {}
    i = 0
    for n in sorted(names):
        if not is_reserved(n):
            continue
        while True:
            i += 1
            cand = f"g{i}'" if n in tan else f"g{i}"
            if cand not in names:
                break
        ren[n] = cand
    return _rename_lina(e, ren) if ren else e


def sanitize_lll(m: Term) -> Term:
    names = set(all_names(m))
    counter = [0]

    def fresh_safe():
        while True:
            counter[0] += 1
            cand = f"g{counter[0]}"
            if cand not in names:
                names.add(cand)
                return cand

    def go(t):
        match t:
            case Abs(p, body):
                ren = {n: fresh_safe() for n in pattern_vars(p) if is_reserved(n)}
                if ren:
                    p = rename_pattern(p, ren)
                    body = subst(body, {n: Var(g) for n, g in ren.items()})
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
                return t

    return go(m)


# ------------------------------------------------------------ source files

@dataclass
class SourceFile:
    dialect: str  # "linear-a" | "lll"
    primal: list = field(default_factory=list)    # [(name, JaxType)] for lina
    tangent: list = field(default_factory=list)   # [(name, JaxType)]
    env: list = field(default_factory=list)       # [Pattern] for lll
    body: object = None


def parse(text: str, supply: NameSupply | None = None) -> SourceFile:
    supply = supply or NameSupply()
    forms = read_sexprs(text)
    if len(forms) != 1 or not isinstance(forms[0], list):
        raise SyntaxErrorAt("expected a single top-level form")
    top = forms[0]
    head = _head(top)
    if head == "linear-a":
        sf = SourceFile("linear-a")
        parser = _LinaParser(supply)
        for section in top[1:]:
            match _head(section):
                case "primal":
                    sf.primal = [(_prim_name(d[0]), parse_jax_type(d[1]))
                                 for d in section[1:]]
                case "tangent":
                    sf.tangent = [(_tan_name(d[0]), parse_jax_type(d[1]))
                                  for d in section[1:]]
                case "expr":
                    sf.body = parser.expr(section[1])
                case other:
                    raise SyntaxErrorAt(f"unknown section {other}")
        if sf.body is None:
            raise SyntaxErrorAt("missing (expr ...) section")
        return sf
    if head == "lll":
        sf = SourceFile("lll")
        for section in top[1:]:
            match _head(section):
                case "env":
                    sf.env = [parse_pattern(d) for d in section[1:]]
                case "term":
                    sf.body = parse_lll_term(section[1])
                case other:
                    raise SyntaxErrorAt(f"unknown section {other}")
        if sf.body is None:
            raise SyntaxErrorAt("missing (term ...) section")
        return sf
    raise SyntaxErrorAt(f"unknown dialect {head}")


def pretty(sf: SourceFile, mode: str = "sugared") -> str:
    sugared = mode == "sugared"
    if sf.dialect == "linear-a":
        body = sanitize_lina(sf.body)
        lines = ["(linear-a"]
        if sf.primal:
            decls = " ".join(f"({n} {print_jax_type(t)})" for n, t in sf.primal)
            lines.append(f"  (primal {decls})")
        if sf.tangent:
            decls = " ".join(f"({n} {print_jax_type(t)})" for n, t in sf.tangent)
            lines.append(f"  (tangent {decls})")
        lines.append(f"  (expr {print_lina_expr(body, sugared)}))")
        return "\n".join(lines) + "\n"
    body = sanitize_lll(sf.body)
    lines = ["(lll"]
    if sf.env:
        decls = " ".join(print_pattern(p) for p in sf.env)
        lines.append(f"  (env {decls})")
    lines.append(f"  (term {print_lll_term(body, sugared)}))")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ points

def parse_point(text: str, shapes: list[JaxType]) -> list[NumTuple]:
    forms = read_sexprs(f"({text})")[0]
    if len(forms) != len(shapes):
        raise SyntaxErrorAt(
            f"point has {len(forms)} components, header declares {len(shapes)}")
    return [_point_value(f, t) for f, t in zip(forms, shapes)]


def _point_value(x, t: JaxType) -> NumTuple:
    match t:
        case ty if ty is JReal:
            return Scalar(_number(x))
        case ty if ty is JOne:
            if isinstance(x, list) and not x:
                return UnitTup
            raise SyntaxErrorAt(f"expected () for a unit component, got {x!r}")
        case JProd(l, r):
            if not (isinstance(x, list) and len(x) == 2):
                raise SyntaxErrorAt(f"expected a pair for {t!r}")
            return NPair(_point_value(x[0], l), _point_value(x[1], r))
    raise AssertionError(t)
