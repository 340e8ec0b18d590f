"""Surface syntax: s-expression files for both dialects.

A source file declares its dialect, a typed free-variable header and a
body expression.  Identifiers starting with "%" are reserved for
generated names and rejected.  Tangent identifiers end with an
apostrophe; primal identifiers must not.

Every fixed-shape form is one row of its category's grammar below: the
node class or sugar builder it makes, and a template naming the kind of
each subform.  Reading, printing and renaming all walk those rows, so a
form's shape is stated once (after Rendel & Ostermann, "Invertible syntax
descriptions: unifying parsing and pretty printing", Haskell 2010).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PTensor, PUnit, PVar, PWith,
    PlusDot, PrimFn, Term, TensorPair, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, let_, para, para_pattern, pattern_vars, prim_app,
)
from linlog.lll.types import (
    Bang, Lolli, One, Real, Tensor, Top, With, affine,
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


class _Form(list):
    """A parenthesised form, with the position of its opening parenthesis."""
    __slots__ = ("line", "col")

    def __repr__(self):
        return "(" + " ".join(map(repr, self)) + ")"


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
        items = _Form()
        items.line, items.col = t.line, t.col
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


def _head(x):
    return x[0].text if x and isinstance(x[0], _Sym) else None


# ------------------------------------------------------------------ leaves

def _sym(x, what="identifier") -> str:
    if not isinstance(x, _Sym):
        raise SyntaxErrorAt(f"expected {what}, got {x!r}", x.line, x.col)
    return x.text


def _ident(x, what="identifier") -> str:
    name = _sym(x, what)
    if is_reserved(name):
        raise ReservedName(name)
    try:
        float(name)
    except ValueError:
        return name
    raise SyntaxErrorAt(f"{name} reads as a number, not a name", x.line, x.col)


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


def _number(x) -> float:
    try:
        return float(_sym(x, "number"))
    except ValueError:
        raise SyntaxErrorAt(f"expected a number, got {x!r}",
                            x.line, x.col) from None


def _primitive(x) -> PrimId:
    p = REGISTRY.get(_sym(x, "primitive"))
    if p is None:
        raise SyntaxErrorAt(f"unknown primitive {x!r}", x.line, x.col)
    return p


# the kinds of subform that hold no subforms of their own
_LEAVES = {"name": _ident, "pname": _prim_name, "tname": _tan_name,
           "number": _number, "primitive": _primitive}


# ---------------------------------------------------------------- grammars

class _Row:
    """One form: the keyword it starts with (None when it starts with a
    name, as the pattern `(x real)` does), the node class or sugar builder
    that makes it, and the kind of each subform after the keyword.  A
    tuple kind is a parenthesised group of names."""
    __slots__ = ("head", "build", "kinds", "fresh", "template")

    def __init__(self, head, build, kinds, fresh=False, template=""):
        self.head, self.build, self.kinds = head, build, kinds
        self.fresh = fresh  # its builder takes the name supply last
        self.template = template

    def fits(self, subs) -> bool:
        if len(subs) != len(self.kinds):
            return False
        for k, s in zip(self.kinds, subs):
            if isinstance(k, tuple) and not (isinstance(s, list)
                                             and len(s) == len(k)):
                return False
        return True

    def flat(self) -> list[str]:
        """The kinds of the subforms with each group spread out, one per
        field of the node class."""
        return [k for g in self.kinds
                for k in (g if isinstance(g, tuple) else (g,))]


@dataclass
class _Grammar:
    """The forms of one syntactic category."""
    what: str
    atoms: dict                    # symbol -> node
    symbol: Callable | None = None  # reads a symbol that is no atom
    variadic: dict = field(default_factory=dict)  # head -> (form -> _Row)
    by_head: dict = field(default_factory=dict)   # keyword -> rows
    headless: list = field(default_factory=list)  # rows with no keyword

    def row(self, x: _Form) -> tuple[_Row, list]:
        """The row whose shape the form `x` has, and the subforms it reads."""
        head = _head(x)
        if head in self.variadic:
            return self.variadic[head](x), x[1:]
        rows, subs = self.by_head.get(head), x[1:]
        if rows is None:
            rows, subs = self.headless, x
        for row in rows:
            if row.fits(subs):
                return row, subs
        expected = " or ".join(row.template for row in rows)
        raise SyntaxErrorAt(f"bad {self.what} {x!r}"
                            + (f", expected {expected}" if rows else ""),
                            x.line, x.col)


_GRAMMARS: dict[str, _Grammar] = {}
# node class or builder -> its first row, which printing uses; atom class ->
# its symbol
_ROW_OF: dict = {}


def _grammar(kind, what, atoms, rows, symbol=None, variadic=None,
             fresh=False):
    """Declare the category `kind`: `rows` pairs each node class or sugar
    builder with a template of its form, which has no keyword when it
    starts with a leaf kind; the sugar builders of a `fresh` category draw
    names from the supply."""
    g = _GRAMMARS[kind] = _Grammar(what, atoms, symbol, variadic or {})
    for build, template in rows:
        [t] = read_sexprs(template)
        head = None if t[0].text in _LEAVES else t[0].text
        kinds = tuple(tuple(s.text for s in k) if isinstance(k, list)
                      else k.text for k in t[head is not None:])
        row = _Row(head, build, kinds, fresh and not isinstance(build, type),
                   template)
        assert not isinstance(build, type) or \
            len(build.__match_args__) == len(row.flat()), template
        if head is None:
            g.headless.append(row)
        else:
            g.by_head.setdefault(head, []).append(row)
        _ROW_OF.setdefault(build, row)
    for text, node in atoms.items():
        _ROW_OF[type(node)] = text


def _prim_row(head, arg, build):
    """The reader of `(head f a1 ... an)`, a primitive f applied to n
    arguments of kind `arg`, where n must be the arity of f."""
    rows = {p.arity: _Row(head, build, ("primitive",) + (arg,) * p.arity)
            for p in REGISTRY.values()}

    def row(x):
        if len(x) < 2:
            raise SyntaxErrorAt(f"expected ({head} primitive {arg} ...)",
                                x.line, x.col)
        p, n = _primitive(x[1]), len(x) - 2
        if n != p.arity:
            raise SyntaxErrorAt(f"{p.name} expects {p.arity} arguments, "
                                f"got {n}", x[1].line, x[1].col)
        return rows[n]
    return row


def _apps(f, *args) -> Term:
    for a in args:
        f = App(f, a)
    return f


def _app_row(x):
    """`(app f a1 ... an)` applies f to each argument in turn."""
    if len(x) < 3:
        raise SyntaxErrorAt(f"expected (app term term ...), got {x!r}",
                            x.line, x.col)
    return _Row("app", _apps, ("term",) * (len(x) - 1))


def _term_symbol(x) -> Term:
    try:
        return Numeral(float(x.text))
    except ValueError:
        return Var(_ident(x))


def _decl(name, ty):
    return name, ty


_grammar("type", "type", {"real": Real, "one": One, "top": Top}, [
    (Tensor, "(tensor type type)"), (Tensor, "(otimes type type)"),
    (With, "(with type type)"), (With, "(amp type type)"),
    (Lolli, "(lolli type type)"), (Bang, "(bang type)"),
    (affine, "(para type)"),
])
_grammar("jtype", "type", {"real": JReal, "one": JOne}, [
    (JProd, "(tensor jtype jtype)"), (JProd, "(otimes jtype jtype)"),
])
_grammar("pattern", "pattern", {"unit": PUnit()}, [
    (PVar, "(name type)"), (PBang, "(bang name type)"),
    (PTensor, "(tpair pattern pattern)"), (PWith, "(wpair pattern pattern)"),
    (para_pattern, "(para pattern)"),
])
_grammar("term", "term", {"zero": Zero(), "plus": PlusDot(),
                          "times": TimesDot(), "unit": UnitVal(),
                          "topv": TopVal()}, [
    (Numeral, "(num number)"), (PrimFn, "(prim primitive)"),
    (Abs, "(lam pattern term)"), (App, "(app term term)"),
    (BangVal, "(bangv term)"), (TensorPair, "(tpair term term)"),
    (WithPair, "(wpair term term)"), (para, "(para term)"),
    (let_, "(let pattern term term)"),
], symbol=_term_symbol, variadic={
    "app": _app_row,
    "papp": _prim_row("papp", "term", lambda p, *args: prim_app(p, list(args))),
})
_grammar("expr", "expression", {}, [
    (VarPair, "(pair pname tname)"),
    (LetPair, "(let-pair pname tname expr expr)"),
    (PrimTupIntro0, "(ptup)"), (PrimTupIntro2, "(ptup pname pname)"),
    (PrimTupElim0, "(let-ptup () pname expr)"),
    (PrimTupElim2, "(let-ptup (pname pname) pname expr)"),
    (TanTupIntro0, "(ttup)"), (TanTupIntro2, "(ttup tname tname)"),
    (TanTupElim0, "(let-ttup () tname expr)"),
    (TanTupElim2, "(let-ttup (tname tname) tname expr)"),
    (Lit, "(lit number)"), (ZeroDot, "(zerodot jtype)"),
    (AddDot, "(adddot tname tname)"), (ScaleDot, "(scaledot pname tname)"),
    (Dup, "(dup tname)"), (Drop, "(drop expr)"),
    (let_p, "(let-p pname expr expr)"), (let_t, "(let-t tname expr expr)"),
    (p_var, "(var-p pname)"), (t_var, "(var-t tname)"),
    (pair_pt, "(pair-e expr expr)"), (ptup_e, "(ptup-e expr expr)"),
    (ttup_e, "(ttup-e expr expr)"),
], fresh=True, variadic={
    "prim": _prim_row("prim", "pname", lambda p, *args: PrimApp(p, args)),
})
# header declarations: the primal and tangent sections of Linear-A
_grammar("pdecl", "declaration", {}, [(_decl, "(pname jtype)")])
_grammar("tdecl", "declaration", {}, [(_decl, "(tname jtype)")])


class _Reader:
    def __init__(self, supply: NameSupply):
        self.supply = supply

    def read(self, kind: str, x):
        """The node of the given kind that `x` denotes.  Each subform that
        is not a leaf is read by a call to `read` itself, so nesting costs
        one host frame per level."""
        g = _GRAMMARS[kind]
        if isinstance(x, _Sym):
            if x.text in g.atoms:
                return g.atoms[x.text]
            if g.symbol is None:
                raise SyntaxErrorAt(f"bad {g.what} {x!r}", x.line, x.col)
            return g.symbol(x)
        row, subs = g.row(x)
        args = []
        for k, sub in zip(row.kinds, subs):
            leaf = _LEAVES.get(k)
            if leaf is not None:
                args.append(leaf(sub))
            elif isinstance(k, tuple):
                for name_kind, name in zip(k, sub):
                    args.append(_LEAVES[name_kind](name))
            else:
                args.append(self.read(k, sub))
        if row.fresh:
            args.append(self.supply)
        return row.build(*args)


# ---------------------------------------------------------------- printing

def _fields(node) -> list:
    return [getattr(node, f) for f in type(node).__match_args__]


def _print_node(node, sugared: bool = True, row: _Row | None = None) -> str:
    """`node` printed by the row of its class, or, given `row`, the
    subforms `node` lists printed by that row."""
    if row is None:
        row = _ROW_OF[type(node)]
        if isinstance(row, str):
            return row
        node = _fields(node)
    parts = [row.head] if row.head else []
    values = iter(node)
    for k in row.kinds:
        if isinstance(k, tuple):
            parts.append("(" + " ".join([next(values) for _ in k]) + ")")
        else:
            show = _PRINTERS.get(k)
            v = next(values)
            parts.append(v if show is None else show(v, sugared))
    return "(" + " ".join(parts) + ")"


def print_pattern(p: Pattern) -> str:
    if isinstance(p, PWith) and isinstance(p.left, PUnit):
        return _print_node([p.right], row=_ROW_OF[para_pattern])
    return _print_node(p)


def print_lll_term(m: Term, sugared: bool = True) -> str:
    match m:
        case Var(n):
            return n
        case App(Abs(pat, body), rhs) if sugared:
            return _print_node([pat, rhs, body], sugared, _ROW_OF[let_])
        case WithPair(UnitVal(), r) if sugared:
            return _print_node([r], sugared, _ROW_OF[para])
    return _print_node(m, sugared)


# the sugar that printing recognises: matcher, and the builder of its row
_LINA_SUGAR = [(match_p_var, p_var), (match_t_var, t_var),
               (match_let_p, let_p), (match_let_t, let_t)]


def print_lina_expr(e: Expr, sugared: bool = True) -> str:
    if sugared:
        for match, build in _LINA_SUGAR:
            m = match(e)
            if m is not None:
                return _print_node(m if isinstance(m, tuple) else [m],
                                   sugared, _ROW_OF[build])
    if isinstance(e, PrimApp):
        return f"(prim {' '.join([e.fn.name, *e.args])})"
    return _print_node(e, sugared)


def _print_decl(kind):
    [row] = _GRAMMARS[kind].headless
    return lambda d, sugared: _print_node(d, sugared, row)


# kind -> printer; a name prints as itself
_PRINTERS = {
    "type": _print_node, "jtype": _print_node,
    "pattern": lambda p, _: print_pattern(p),
    "term": print_lll_term, "expr": print_lina_expr,
    "number": lambda v, _: repr(v), "primitive": lambda p, _: p.name,
    "pdecl": _print_decl("pdecl"), "tdecl": _print_decl("tdecl"),
}


# ---------------------------------------------------------------- renaming

def _rename(node, r):
    """`node` with each name n of kind k in it replaced by r(k, n)."""
    match node:
        case Var(n):
            return Var(r("name", n))
        case PrimApp(f, args):
            return PrimApp(f, tuple([r("pname", a) for a in args]))
    row = _ROW_OF[type(node)]
    if isinstance(row, str):
        return node
    args = []
    for k, v in zip(row.flat(), _fields(node)):
        if k in ("name", "pname", "tname"):
            v = r(k, v)
        elif k in ("pattern", "term", "expr"):
            v = _rename(v, r)
        args.append(v)
    return row.build(*args)


# ------------------------------------------------------------ source files

@dataclass
class SourceFile:
    dialect: str  # "linear-a" | "lll"
    primal: list = field(default_factory=list)    # [(name, JaxType)] for lina
    tangent: list = field(default_factory=list)   # [(name, JaxType)]
    env: list = field(default_factory=list)       # [Pattern] for lll
    body: object = None


# dialect -> its header sections (section -> kind of each declaration) and
# the kind of its body, whose section is named after that kind
_DIALECTS = {"linear-a": ({"primal": "pdecl", "tangent": "tdecl"}, "expr"),
             "lll": ({"env": "pattern"}, "term")}


def parse(text: str, supply: NameSupply | None = None) -> SourceFile:
    forms = read_sexprs(text)
    if len(forms) != 1 or not isinstance(forms[0], list):
        raise SyntaxErrorAt("expected a single top-level form")
    top = forms[0]
    dialect = _head(top)
    if dialect not in _DIALECTS:
        raise SyntaxErrorAt(f"unknown dialect {dialect}", top.line, top.col)
    header, body = _DIALECTS[dialect]
    reader = _Reader(supply or NameSupply())
    sections: dict = {}  # SourceFile field -> its contents
    declared: set[str] = set()
    for section in top[1:]:
        name = _head(section) if isinstance(section, list) else None
        if name not in header and name != body:
            raise SyntaxErrorAt(f"unknown section {section!r}",
                                section.line, section.col)
        if ("body" if name == body else name) in sections:
            raise SyntaxErrorAt(f"second ({name} ...) section",
                                section.line, section.col)
        if name == body:
            if len(section) != 2:
                raise SyntaxErrorAt(f"expected ({body} {body}), got "
                                    f"{section!r}", section.line, section.col)
            sections["body"] = reader.read(body, section[1])
            continue
        decls = []
        for d in section[1:]:
            decl = reader.read(header[name], d)
            for n in pattern_vars(decl) if dialect == "lll" else decl[:1]:
                if n in declared:
                    raise SyntaxErrorAt(f"{n} is declared twice",
                                        d.line, d.col)
                declared.add(n)
            decls.append(decl)
        sections[name] = decls
    if "body" not in sections:
        raise SyntaxErrorAt(f"missing ({body} ...) section")
    return SourceFile(dialect, **sections)


def _rename_file(sf: SourceFile, r) -> SourceFile:
    return SourceFile(sf.dialect, [(r("pname", n), t) for n, t in sf.primal],
                      [(r("tname", n), t) for n, t in sf.tangent],
                      [_rename(p, r) for p in sf.env], _rename(sf.body, r))


def _sanitized(sf: SourceFile) -> SourceFile:
    """`sf` with its names renamed so that it reparses: each reserved name,
    and in Linear-A each name whose apostrophe contradicts its sort, becomes
    a fresh g1, g2, ... (g1', ... for a tangent)."""
    names: set[str] = set()
    tan: set[str] = set()

    def collect(kind, n):
        names.add(n)
        if kind == "tname":
            tan.add(n)
        return n

    _rename_file(sf, collect)
    lina = sf.dialect == "linear-a"
    ren: dict[str, str] = {}
    i = 0
    for n in sorted(names):
        if is_reserved(n) or lina and n.endswith("'") != (n in tan):
            while True:
                i += 1
                cand = f"g{i}'" if n in tan else f"g{i}"
                if cand not in names:
                    break
            ren[n] = cand
    return _rename_file(sf, lambda _, n: ren.get(n, n)) if ren else sf


def pretty(sf: SourceFile, mode: str = "sugared") -> str:
    sugared = mode == "sugared"
    sf = _sanitized(sf)
    header, body = _DIALECTS[sf.dialect]
    lines = [f"({sf.dialect}"]
    for name, kind in header.items():
        decls = getattr(sf, name)
        if decls:
            printed = " ".join([_PRINTERS[kind](d, sugared) for d in decls])
            lines.append(f"  ({name} {printed})")
    lines.append(f"  ({body} {_PRINTERS[body](sf.body, sugared)}))")
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
