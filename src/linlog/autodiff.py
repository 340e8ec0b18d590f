"""Forward, unzipping and transpose on the linear calculus.

Forward maps a primal-sort term and an enumeration of its free
!-variables to a mixed-sort pair of the original computation and the
directional-derivative map.  Unzipping hoists exponential lets to the
front.  Transpose reverses tangent maps; its engine is the partial
renaming: occurrences of a with-pattern variable in different additive
components are renamed apart, transposed independently, and recombined
by a zero-parsimonious sum that emits an addition only where a variable
was actually shared and a zero only where one was erased.
"""

from __future__ import annotations

from linlog.errors import EnumerationMismatch, LinlogError, SortViolation
from linlog.fresh import NameSupply
from linlog.lll.lets import LetKind, bind, let_kind, rebuild, spine, unbind
from linlog.lll.reduce import scope_scan, uniquify
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PrimFn, PTensor,
    PUnit, PVar, PWith, TensorPair, Term, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, bang_let, free_vars, let_, para,
    para_pattern, pattern_type, pattern_var_types, prim_app,
    prim_args, with_pattern,
)
from linlog.lll.prims import partial_of
from linlog.lll.types import Bang, LType, Lolli, One, Real, Tensor, Top, With
from linlog.translate import TangentCtx, add_app, mk_zero, names, restrict


class CaptureDetected(LinlogError):
    pass


class CodomainOverlap(LinlogError):
    pass


def seq_tangent(e: LType) -> LType:
    """t(.) extended to tensor-sequence types."""
    match e:
        case x if x is Real:
            return Real
        case x if x is One:
            return Top
        case Tensor(Bang(l), Bang(r)):
            return With(seq_tangent(l), seq_tangent(r))
    raise SortViolation(f"{e!r} is not a tensor-sequence type")


# ------------------------------------------------------------------ forward

def _tangents(theta) -> list[tuple[str, LType]]:
    return [(n, seq_tangent(e)) for n, e in theta]


def _bang_section_pat(x: str, ety: LType, f: str, fty: LType) -> Pattern:
    return PTensor(PBang(x, ety), para_pattern(PVar(f, fty)))


def forward(theta: list[tuple[str, LType]], p: Term,
            supply: NameSupply | None = None) -> tuple[Term, list]:
    """F over primal-sort terms; theta enumerates FV(p) with the inner
    types of their !-bindings.  Returns the transformed term and the
    enumeration actually used: a primitive application at the root fixes
    argument order, otherwise the given order is kept."""
    supply = supply or NameSupply()
    ns = names(theta)
    if set(ns) != set(free_vars(p)) or len(ns) != len(set(ns)):
        raise EnumerationMismatch(
            f"enumeration {ns} vs free variables {sorted(free_vars(p))}")
    f, enum, _ = _fwd(theta, p, {n: e for n, e in theta}, supply)
    return f, enum


def _fwd(theta, p: Term, tys, supply) -> tuple[Term, list, LType]:
    """F of p, the enumeration it used, and the inner type E of p : !E."""
    if isinstance(p, App) and isinstance(p.fn, Abs):
        pat, pb, q = p.fn.pat, p.fn.body, p.arg
        kind = let_kind(pat, q)
        if kind is LetKind.BANG:
            x, xty = pat.name, pat.ty
            fq_t, thq, _ = _fwd(restrict(theta, free_vars(q)), q, tys, supply)
            thp = restrict(theta, free_vars(pb) - {x})
            live = x in free_vars(pb)
            hint = ([(x, xty)] if live else []) + thp
            fp_t, thg, ey = _fwd(hint, pb, tys | {x: xty}, supply)
            f, y, g = supply.fresh("f"), supply.fresh("y"), supply.fresh("g")
            ctx = TangentCtx(_tangents(theta), supply)
            comps = {}
            if live:
                comps[x] = App(Var(f), ctx.tuple_of(names(thq)))
            body = ctx.lam(App(Var(g), ctx.tuple_of(names(thg), comps=comps)))
            out = TensorPair(BangVal(Var(y)), para(body))
            out = let_(_bang_section_pat(y, ey, g, _fn_ty(thg, ey)), fp_t, out)
            return let_(_bang_section_pat(x, xty, f, _fn_ty(thq, xty)),
                        fq_t, out), theta, ey

        if kind is LetKind.TENSOR:
            z = q.name
            leaves = _tensor_pattern_leaves(pat)
            inner_tys = tys | {n: e for n, e in leaves}
            live = [(n, e) for n, e in leaves if n in free_vars(pb)]
            thp = restrict(theta, free_vars(pb) - {n for n, _ in leaves})
            fp_t, thg, ey = _fwd(live + thp, pb, inner_tys, supply)
            y, g = supply.fresh("y"), supply.fresh("g")
            ctx = TangentCtx(_tangents(theta), supply)
            # expand z's tangent component into the shape of the pattern:
            # the with-pattern and the term that rebuilds what it binds
            tanvars = {n: supply.fresh("v") for n, _ in leaves}

            def expand(q):
                match q:
                    case PBang(n, e):
                        return PVar(tanvars[n], seq_tangent(e)), Var(tanvars[n])
                    case PUnit():
                        t = supply.fresh("t")
                        return PVar(t, Top), Var(t)
                    case PTensor(l, r):
                        (pl, tl), (pr, tr) = expand(l), expand(r)
                        return PWith(pl, pr), WithPair(tl, tr)
                raise SortViolation(f"bad tensor pattern {q!r}")

            zslot, zterm = expand(pat)
            comps = {n: Var(tanvars[n]) for n, _ in live}
            comps[z] = zterm
            garg = ctx.tuple_of(names(thg), comps=comps)
            body = ctx.lam_split(z, zslot, App(Var(g), garg))
            out = TensorPair(BangVal(Var(y)), para(body))
            out = let_(_bang_section_pat(y, ey, g, _fn_ty(thg, ey)), fp_t, out)
            return let_(pat, Var(z), out), theta, ey

    match p:
        case BangVal(Var(x)):
            u, e = supply.fresh("u"), tys[x]
            tan = para(Abs(PVar(u, seq_tangent(e)), Var(u)))
            return TensorPair(BangVal(Var(x)), tan), theta, e
        case BangVal(Numeral(_)) | BangVal(Zero()):
            u = supply.fresh("u")
            return TensorPair(p, para(Abs(PVar(u, Top), Zero()))), theta, Real
        case BangVal(UnitVal()):
            u = supply.fresh("u")
            return TensorPair(p, para(Abs(PVar(u, Top), TopVal()))), theta, One

        case BangVal(TensorPair(pa, pb)):
            fa_t, tha, ea = _fwd(restrict(theta, free_vars(pa)), pa, tys, supply)
            fb_t, thb, eb = _fwd(restrict(theta, free_vars(pb)), pb, tys, supply)
            a, f = supply.fresh("x"), supply.fresh("f")
            b, g = supply.fresh("x"), supply.fresh("g")
            ctx = TangentCtx(_tangents(theta), supply)
            fa = App(Var(f), ctx.tuple_of(names(tha)))
            gb = App(Var(g), ctx.tuple_of(names(thb)))
            body = ctx.lam(WithPair(fa, gb))
            out = TensorPair(BangVal(TensorPair(BangVal(Var(a)), BangVal(Var(b)))),
                             para(body))
            out = let_(_bang_section_pat(b, eb, g, _fn_ty(thb, eb)), fb_t, out)
            out = let_(_bang_section_pat(a, ea, f, _fn_ty(tha, ea)), fa_t, out)
            return out, theta, Tensor(Bang(ea), Bang(eb))

        case App(PrimFn(fn), _) as ap:
            args = prim_args(ap.arg, fn.arity)
            if args is None or any(not isinstance(a.inner, Var) for a in args):
                raise SortViolation(f"primitive argument {ap.arg!r}")
            args = [a.inner.name for a in args]
            enum = []
            for n in args:  # first-occurrence argument order
                if n not in [m for m, _ in enum]:
                    enum.append((n, tys[n]))
            ys = [supply.fresh("w") for _ in range(fn.arity)]
            uvar = {n: supply.fresh("u") for n, _ in enum}
            prods = [App(App(TimesDot(), Var(y)), Var(uvar[x]))
                     for y, x in zip(ys, args)]
            acc = prods[-1]
            for t in reversed(prods[:-1]):
                acc = App(PlusDot(), WithPair(t, acc))
            # the tangent tuple is bound by a with-pattern directly
            pat = with_pattern([PVar(uvar[n], seq_tangent(e)) for n, e in enum])
            out = TensorPair(prim_app(fn, [BangVal(Var(x)) for x in args]),
                             para(Abs(pat, acc)))
            for i, y in reversed(list(enumerate(ys))):
                out = bang_let(y, Real,
                               prim_app(partial_of(fn, i),
                                        [BangVal(Var(x)) for x in args]), out)
            return out, enum, Real

    raise SortViolation(f"not a primal-sort term: {p!r}")


def _fn_ty(theta, out_e: LType) -> LType:
    return Lolli(TangentCtx.and_type(_tangents(theta)), seq_tangent(out_e))


def _tensor_pattern_leaves(pat: Pattern) -> list[tuple[str, LType]]:
    match pat:
        case PBang(n, e):
            return [(n, e)]
        case PUnit():
            return []
        case PTensor(l, r):
            return _tensor_pattern_leaves(l) + _tensor_pattern_leaves(r)
    raise SortViolation(f"bad tensor pattern {pat!r}")


# ---------------------------------------------------------------- unzipping

def unzip_decompose(s: Term) -> tuple[list, Term, Term]:
    """(frames, P, F) for a mixed-sort term: the exponential lets, to be
    hoisted in order around ``(P, par(F))``.  It loops over the let spine
    and recurses only into the right-hand side of a bang-section let."""
    frames, tail = spine(s)
    ctx, fframes = [], []
    for pat, rhs in frames:
        kind = let_kind(pat, rhs)
        if kind is LetKind.BANG_SECTION:
            e1, p1, f1 = unzip_decompose(rhs)
            ctx += e1
            ctx.append((pat.left, p1))
            fframes.append((pat.right, para(f1)))
        elif kind is LetKind.SECTION:
            fframes.append((pat, rhs))
        elif kind is not None:
            ctx.append((pat, rhs))
        else:
            raise SortViolation(f"not a mixed-sort let: {pat!r} = {rhs!r}")
    match tail:
        case TensorPair(p, WithPair(UnitVal(), f)):
            return ctx, p, rebuild(fframes, f)
    raise SortViolation(f"not a mixed-sort term: {tail!r}")


def unzip(s: Term, supply: NameSupply | None = None) -> Term:
    supply = supply or NameSupply()
    s = uniquify(s, supply)[0]
    ctx, p, f = unzip_decompose(s)
    return rebuild(ctx, TensorPair(p, para(f)))


# ---------------------------------------------------------------- renamings

class Renaming:
    """A finite map from pattern names to new names."""

    __slots__ = ("map",)

    def __init__(self, pairs=()):
        self.map: dict[str, str] = dict(pairs)

    def cod(self) -> set[str]:
        return set(self.map.values())


EMPTY_RENAMING = Renaming()


def _rename_apart(env: dict, fv, supply: NameSupply) -> tuple[dict, dict]:
    """The fresh renaming of the pattern variables that the names in `fv`
    stand for, in pattern order, and the environment of a component with
    free names `fv` through it."""
    alpha, sub = {}, {}
    for n, (v, ty) in env.items():
        if n in fv:
            w = alpha[v] = supply.fresh(v)
            sub[n] = (w, ty)
    return alpha, sub


def _with(left: Pattern | None, right: Pattern | None) -> Pattern | None:
    if left is None:
        return right
    return left if right is None else PWith(left, right)


def _split(p: Pattern, m1: dict, m2: dict, zeros: bool):
    """One walk of the with-sequence pattern `p` under two renamings of its
    variables, returning (p1, p2, s):

    - p1 and p2 are the sub-patterns of the leaves in the domain of m1 and
      of m2, renamed by it, or None where there is no such leaf;
    - s is the zero-parsimonious sum of the two renamings, with an
      addition only where a leaf is in both domains.  With `zeros` it
      spans all of `p`, a zero standing for each subtree in neither
      domain; without, it spans the sub-pattern of the leaves in either
      domain, or is None where there is none."""
    cls = p.__class__
    if cls is PVar:
        n, ty = p.name, p.ty
        a, b = m1.get(n), m2.get(n)
        if a is None:
            if b is None:
                return None, None, None
            return None, PVar(b, ty), Var(b)
        if b is None:
            return PVar(a, ty), None, Var(a)
        return PVar(a, ty), PVar(b, ty), add_app(ty, Var(a), Var(b))
    if cls is not PWith:
        raise SortViolation(f"not a with-sequence pattern: {p!r}")
    l1, l2, sl = _split(p.left, m1, m2, zeros)
    r1, r2, sr = _split(p.right, m1, m2, zeros)
    if sl is None and sr is None:
        s = None
    elif sl is not None and sr is not None:
        s = WithPair(sl, sr)
    elif not zeros:
        s = sr if sl is None else sl
    elif sl is None:
        s = WithPair(mk_zero(pattern_type(p.left)), sr)
    else:
        s = WithPair(sl, mk_zero(pattern_type(p.right)))
    return _with(l1, r1), _with(l2, r2), s


def _disjoint(cod1: set[str], cod2: set[str]) -> None:
    overlap = cod1 & cod2
    if overlap:
        raise CodomainOverlap(str(overlap))


def _fresh_top(supply: NameSupply | None) -> Pattern:
    return PVar((supply or NameSupply()).fresh("t"), Top)


def rename_project(alpha: Renaming, p: Pattern,
                   supply: NameSupply | None = None) -> Pattern:
    """alpha<p>: the sub-pattern of renamed components; sub-patterns
    disjoint from the domain vanish, and a fresh T variable stands in
    when nothing at all is renamed."""
    out = _split(p, alpha.map, {}, False)[0]
    return _fresh_top(supply) if out is None else out


def nu(p: Pattern, a1: Renaming, a2: Renaming) -> Term:
    """Zero-parsimonious sum of two renamings of a pattern."""
    _disjoint(a1.cod(), a2.cod())
    out = _split(p, a1.map, a2.map, True)[2]
    return mk_zero(pattern_type(p)) if out is None else out


# ---------------------------------------------------------------- transpose
#
# `phi` maps each section-bound function in scope to its cotangent sibling
# and its type: one dict, extended at a section binder and restored on
# leaving the binder's scope.  `env` maps each name of a tangent term to
# the pattern variable it stands for and that variable's type: T never
# renames its input, it renames the environment.  `occurs` holds every
# variable name occurring in T's input: after `uniquify` a binder's name
# occurs only in its scope, so a section binder whose name is not in it is
# dropped, and a fresh name in it would be captured.
#
# At a with-pair <u1, u2> the variables each component uses are renamed
# apart, and one walk of the pattern (`_split`) gives both projections,
# alpha1<p> and alpha2<p>, and the sum nu of the two renamings; a lambda's
# binder is projected and summed by the same walk.  `rename_project` and
# `nu` state the paper's definitions through it.  The walks dispatch on the
# node's class, as `terms.children` does.


def _own_env(p: Pattern) -> dict:
    """The environment in which each variable of `p` stands for itself."""
    return {n: (n, ty) for n, ty in pattern_var_types(p).items()}


def transpose_t(phi: dict, p: Pattern, u: Term, supply: NameSupply,
                env: dict | None = None, occurs: set[str] | None = None):
    """Returns (cotangent pattern q, body, used p-variables).  `env` maps
    the names that may occur free in `u` to the variables of `p` they
    stand for and their types, in pattern order (by default each variable
    of `p` stands for itself); below a with-pair, `p` is projected to the
    variables its component uses.  `occurs` holds the names occurring in
    T's input (by default those occurring in `u`)."""
    if env is None:
        env = _own_env(p)
    if occurs is None:
        occurs = scope_scan(u)[2]

    cls = u.__class__
    if cls is App:
        fc, hty = _transpose_f(phi, u.fn, supply, occurs)
        q1, b1, used1 = transpose_t(phi, p, u.arg, supply, env, occurs)
        q = supply.fresh("z")
        body = App(Abs(q1, b1), App(fc, Var(q)))
        return PVar(q, hty), body, used1

    if cls is WithPair:
        u1, u2 = u.left, u.right
        a1, env1 = _rename_apart(env, free_vars(u1), supply)
        a2, env2 = _rename_apart(env, free_vars(u2), supply)
        cod1, cod2 = set(a1.values()), set(a2.values())
        clash = (cod1 | cod2) & occurs
        if clash:
            raise CaptureDetected(
                f"codomain names {sorted(clash)} occur in the term")
        _disjoint(cod1, cod2)
        # Each component is transposed against p projected to the
        # variables it uses, renamed apart.  A component that uses none
        # keeps p (no variable of p occurs in it); the fresh T variable
        # standing in for its binder is drawn after both recursions, in
        # the order the fresh names have always been drawn.  The zeros
        # for the variables that neither component uses are emitted once,
        # by the enclosing lambda: the sum spans the used ones only.
        p1, p2, total = _split(p, a1, a2, False)
        q1, b1, used1 = transpose_t(
            phi, p if p1 is None else p1, u1, supply, env1, occurs)
        q2, b2, used2 = transpose_t(
            phi, p if p2 is None else p2, u2, supply, env2, occurs)
        assert used1 == cod1 and used2 == cod2
        binder = PWith(_fresh_top(supply) if p1 is None else p1,
                       _fresh_top(supply) if p2 is None else p2)
        if total is None:
            # no variable is used: the sum is over a fresh T variable
            total = mk_zero(_fresh_top(supply).ty)
        body = let_(binder, WithPair(b1, b2), total)
        return PWith(q1, q2), body, a1.keys() | a2.keys()

    if cls is Var and u.name in env:
        v, ty = env[u.name]
        q = supply.fresh("z")
        return PVar(q, ty), Var(q), {v}
    if cls is Zero:
        return PVar(supply.fresh("z"), Real), TopVal(), set()
    if cls is TopVal:
        return PVar(supply.fresh("z"), Top), TopVal(), set()
    raise SortViolation(f"not a tangent-sort term: {u!r}")


def transpose_f(phi: dict, f: Term, supply: NameSupply) -> Term:
    """T of a tangent-function term."""
    return _transpose_f(phi, f, supply, scope_scan(f)[2])[0]


def _transpose_f(phi: dict, f: Term, supply, occurs) -> tuple[Term, LType]:
    """T of a tangent-function term and the term's codomain, the type of
    the cotangent its transpose takes."""
    frames, f = spine(f)
    if frames:
        return _transpose_lets(phi, frames, (LetKind.SECTION,), supply,
                               occurs, f, None)
    cls = f.__class__
    if cls is Var:
        if f.name not in phi:
            raise SortViolation(
                f"function variable {f.name} not section-bound")
        fc, ty = phi[f.name]
        return Var(fc), ty.cod
    if cls is PlusDot:
        u = supply.fresh("u")
        return Abs(PVar(u, Real), WithPair(Var(u), Var(u))), Real
    if cls is App and f.fn.__class__ is TimesDot:
        return f, Real
    if cls is Abs:
        pat = f.pat
        q, b, used = transpose_t(phi, pat, f.body, supply, _own_env(pat),
                                 occurs)
        proj, _, total = _split(pat, {n: n for n in used}, {}, True)
        body = let_(_fresh_top(supply) if proj is None else proj, b,
                    mk_zero(pattern_type(pat)) if total is None else total)
        return Abs(q, body), pattern_type(q)
    raise SortViolation(f"not a tangent-function term: {f!r}")


def transpose(phi: dict | None, r: Term,
              supply: NameSupply | None = None) -> Term:
    """T over mixed-sort terms; works with or without prior unzipping."""
    supply = supply or NameSupply()
    r, occurs = uniquify(r, supply)
    return _transpose_a({} if phi is None else phi, r, supply, occurs)


def _transpose_a(phi: dict, r: Term, supply, occurs) -> Term:
    frames, tail = spine(r)
    match tail:
        case TensorPair(p, WithPair(UnitVal(), f)):
            return _transpose_lets(phi, frames, tuple(LetKind), supply,
                                   occurs, f, p)[0]
    raise SortViolation(f"not a mixed-sort term: {tail!r}")


def _transpose_lets(phi, frames, kinds, supply, occurs, tail, primal):
    """T of the let spine `frames` around the tangent function `tail`,
    paired with `primal` unless that is None, and the codomain of `tail`;
    in one loop: the section lets are entered in order, each live one
    drawing its cotangent name; then `tail` is transposed; then the
    right-hand sides, innermost first, each in the scope of the lets
    before it.  Only right-hand sides recurse.  A dead section let is
    dropped, keeping the primal half of a bang-section let."""
    out, todo = [], []
    for pat, rhs in frames:
        kind = let_kind(pat, rhs)
        if kind not in kinds:
            raise SortViolation(f"not a let of this sort: {pat!r} = {rhs!r}")
        if kind is LetKind.BANG or kind is LetKind.TENSOR:
            out.append((pat, rhs))
            continue
        f = pat.right.right if kind is LetKind.BANG_SECTION else pat.right
        if f.name in occurs:
            fc = PVar(supply.fresh(f.name), Lolli(f.ty.cod, f.ty.dom))
            todo.append((len(out), kind, rhs,
                         bind(phi, {f.name: (fc.name, f.ty)})))
            sec = para_pattern(fc)
            out.append((sec if kind is LetKind.SECTION
                        else PTensor(pat.left, sec), None))
        elif kind is LetKind.BANG_SECTION:
            ctx, p1, _f1 = unzip_decompose(rhs)
            out.append((pat.left, rebuild(ctx, p1)))
    inner, cod = _transpose_f(phi, tail, supply, occurs)
    if primal is not None:
        inner = TensorPair(primal, para(inner))
    for i, kind, rhs, saved in reversed(todo):
        unbind(phi, saved)
        if kind is LetKind.SECTION:
            rhs = para(_transpose_f(phi, rhs.right, supply, occurs)[0])
        else:
            rhs = _transpose_a(phi, rhs, supply, occurs)
        out[i] = out[i][0], rhs
    return rebuild(out, inner), cod
