"""Beta reduction, safe reduction and the display-level simplifier.

The numeric rules treat Zero as the numeral 0.0.  Numeric steps (the
primitive/plus/times contractions) are counted as flops.
"""

from __future__ import annotations

from dataclasses import dataclass

from linlog.errors import LinlogError
from linlog.fresh import NameSupply
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PrimFn, PTensor,
    PUnit, PVar, PWith, TensorPair, Term, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, all_names, free_vars, pattern_vars, prim_args,
)
from linlog.lll.types import Lolli, is_with_seq


class BudgetExhausted(LinlogError):
    pass


class StuckOpenTerm(LinlogError):
    pass


class NotAValueForPattern(LinlogError):
    pass


@dataclass(frozen=True)
class ReductionOutcome:
    result: Term
    numeric_steps: int
    total_steps: int


def numeral_value(m: Term):
    match m:
        case Numeral(v):
            return v
        case Zero():
            return 0.0
    return None


def value_for_pattern(value: Term, pat: Pattern) -> bool:
    match pat:
        case PVar(_, _):
            return True
        case PBang(_, _):
            return isinstance(value, BangVal)
        case PUnit():
            return isinstance(value, UnitVal)
        case PTensor(l, r):
            return (isinstance(value, TensorPair)
                    and value_for_pattern(value.left, l)
                    and value_for_pattern(value.right, r))
        case PWith(l, r):
            return (isinstance(value, WithPair)
                    and value_for_pattern(value.left, l)
                    and value_for_pattern(value.right, r))
    raise AssertionError(pat)


# ------------------------------------------------------------ substitution

def _subst_var(m: Term, name: str, v: Term, taken: set[str]) -> Term:
    fv_v = free_vars(v)

    def go(t):
        match t:
            case Var(n):
                return v if n == name else t
            case Abs(p, body):
                if name not in free_vars(t):
                    return t
                clash = set(pattern_vars(p)) & fv_v
                if clash:
                    ren = {}
                    for c in clash:
                        fresh = _avoid(c, taken)
                        taken.add(fresh)
                        ren[c] = fresh
                    p = _rename_pattern(p, ren)
                    body = _rename_free(body, ren)
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


def _avoid(base: str, taken: set[str]) -> str:
    stem = base.split("#")[0]
    i = 1
    while f"{stem}#r{i}" in taken:
        i += 1
    return f"{stem}#r{i}"


def _rename_pattern(p: Pattern, ren: dict[str, str]) -> Pattern:
    match p:
        case PVar(n, ty):
            return PVar(ren.get(n, n), ty)
        case PBang(n, ty):
            return PBang(ren.get(n, n), ty)
        case PUnit():
            return p
        case PTensor(l, r):
            return PTensor(_rename_pattern(l, ren), _rename_pattern(r, ren))
        case PWith(l, r):
            return PWith(_rename_pattern(l, ren), _rename_pattern(r, ren))
    raise AssertionError(p)


def _rename_free(m: Term, ren: dict[str, str]) -> Term:
    match m:
        case Var(n):
            return Var(ren[n]) if n in ren else m
        case Abs(p, body):
            inner = {k: v for k, v in ren.items() if k not in pattern_vars(p)}
            return Abs(p, _rename_free(body, inner)) if inner else m
        case App(f, a):
            return App(_rename_free(f, ren), _rename_free(a, ren))
        case TensorPair(l, r):
            return TensorPair(_rename_free(l, ren), _rename_free(r, ren))
        case WithPair(l, r):
            return WithPair(_rename_free(l, ren), _rename_free(r, ren))
        case BangVal(i):
            return BangVal(_rename_free(i, ren))
        case _:
            return m


def substitute(term: Term, pat: Pattern, value: Term) -> Term:
    """M{V/p}, dispatching V's components to p's variables, capture-free."""
    if not value_for_pattern(value, pat):
        raise NotAValueForPattern(f"{value!r} is not a value for {pat!r}")
    taken = all_names(term) | all_names(value)

    def go(m, p, v):
        match p:
            case PVar(n, _):
                return _subst_var(m, n, v, taken)
            case PBang(n, _):
                assert isinstance(v, BangVal)
                return _subst_var(m, n, v.inner, taken)
            case PUnit():
                return m
            case PTensor(pl, pr) | PWith(pl, pr):
                return go(go(m, pl, v.left), pr, v.right)
        raise AssertionError(p)

    return go(term, pat, value)


# ------------------------------------------------------------ strong values

def is_strong_value(m: Term) -> bool:
    match m:
        case Var(_) | Numeral(_) | Zero() | PrimFn(_) | PlusDot() | TimesDot():
            return True
        case Abs(_, _) | UnitVal() | TopVal():
            return True
        case TensorPair(l, r) | WithPair(l, r):
            return is_strong_value(l) and is_strong_value(r)
        case BangVal(i):
            return is_strong_value(i)
        case App(TimesDot(), a):
            return is_strong_value(a)
        case _:
            return False


def is_progress_normal_form(m: Term) -> bool:
    """Membership in the closed beta-nf grammar."""
    match m:
        case Abs(_, body):
            return beta_step(body) is None
        case UnitVal() | TopVal() | Numeral(_) | Zero():
            return True
        case PrimFn(_) | PlusDot() | TimesDot():
            return True
        case TensorPair(l, r) | WithPair(l, r):
            return is_progress_normal_form(l) and is_progress_normal_form(r)
        case BangVal(i):
            return is_progress_normal_form(i)
        case App(TimesDot(), a):
            return numeral_value(a) is not None
        case _:
            return False


# ------------------------------------------------------------ beta steps

def _contract(m: Term):
    """The root redex's contractum, or None.  Second component tells
    whether the step is numeric (a flop).

    The zero constant types under any context, so a numeric step whose
    operand may be absorbing context must yield the zero constant again
    when the result is zero, or typing would not survive the step.  A
    plain-numeral operand of an addition forces the shared context to be
    empty, so the mixed case can produce a numeral safely."""
    match m:
        case App(Abs(p, body), v) if value_for_pattern(v, p):
            return substitute(body, p, v), False
        case App(PrimFn(f), arg):
            args = prim_args(arg, f.arity)
            if args is not None:
                vals = [numeral_value(a.inner) for a in args]
                if None not in vals:
                    return BangVal(Numeral(f.eval(*vals))), True
        case App(PlusDot(), WithPair(a, b)):
            if isinstance(a, Zero) and isinstance(b, Zero):
                return Zero(), True
            x, y = numeral_value(a), numeral_value(b)
            if x is not None and y is not None:
                return Numeral(x + y), True
        case App(App(TimesDot(), a), b):
            x, y = numeral_value(a), numeral_value(b)
            if x is not None and y is not None:
                if isinstance(a, Zero) or isinstance(b, Zero):
                    return Zero(), True
                return Numeral(x * y), True
    return None


def _children(m: Term):
    match m:
        case Abs(p, body):
            return [("body", body)]
        case App(f, a):
            return [("fn", f), ("arg", a)]
        case TensorPair(l, r) | WithPair(l, r):
            return [("left", l), ("right", r)]
        case BangVal(i):
            return [("inner", i)]
        case _:
            return []


def _rebuild(m: Term, slot: str, child: Term) -> Term:
    match m:
        case Abs(p, _):
            return Abs(p, child)
        case App(f, a):
            return App(child, a) if slot == "fn" else App(f, child)
        case TensorPair(l, r):
            return TensorPair(child, r) if slot == "left" else TensorPair(l, child)
        case WithPair(l, r):
            return WithPair(child, r) if slot == "left" else WithPair(l, child)
        case BangVal(_):
            return BangVal(child)
    raise AssertionError(m)


def beta_step(term: Term, strategy: str = "leftmost-outermost"):
    """One step under the given strategy, or None at a beta-nf.
    Returns (term', numeric)."""
    if strategy == "leftmost-outermost":
        c = _contract(term)
        if c is not None:
            return c
        for slot, child in _children(term):
            r = beta_step(child, strategy)
            if r is not None:
                return _rebuild(term, slot, r[0]), r[1]
        return None
    if strategy == "rightmost-innermost":
        for slot, child in reversed(_children(term)):
            r = beta_step(child, strategy)
            if r is not None:
                return _rebuild(term, slot, r[0]), r[1]
        return _contract(term)
    raise ValueError(f"unknown strategy {strategy!r}")


def normalize(term: Term, step_budget: int = 100_000,
              strategy: str = "leftmost-outermost") -> ReductionOutcome:
    numeric = total = 0
    while True:
        r = beta_step(term, strategy)
        if r is None:
            return ReductionOutcome(term, numeric, total)
        term = r[0]
        total += 1
        numeric += int(r[1])
        if total > step_budget:
            raise BudgetExhausted(f"no normal form within {step_budget} steps")


# ------------------------------------------------------------ safe steps

def _safe_contract(m: Term):
    match m:
        case App(Abs(p, body), v):
            if (value_for_pattern(v, p) and is_strong_value(v)
                    and not free_vars(v)):
                return substitute(body, p, v), False
            return None
        case _:
            return _contract(m)


def _safe_step(term: Term):
    c = _safe_contract(term)
    if c is not None:
        return c
    for slot, child in _children(term):
        r = _safe_step(child)
        if r is not None:
            return _rebuild(term, slot, r[0]), r[1]
    return None


def safe_reduce(term: Term, step_budget: int = 100_000) -> ReductionOutcome:
    """Call-by-closed-strong-value reduction; on safe closed input the
    numeric step count is bounded by the term workload."""
    if free_vars(term):
        raise StuckOpenTerm(f"free variables {sorted(free_vars(term))}")
    numeric = total = 0
    while True:
        r = _safe_step(term)
        if r is None:
            return ReductionOutcome(term, numeric, total)
        term = r[0]
        total += 1
        numeric += int(r[1])
        if total > step_budget:
            raise BudgetExhausted(f"no safe normal form within {step_budget} steps")


# ------------------------------------------------------------ simplifier

def _section_fn_pattern(p: Pattern) -> bool:
    # par(f) binding an affine function: never inlined, the let survives
    return (isinstance(p, PWith) and isinstance(p.left, PUnit)
            and isinstance(p.right, PVar) and isinstance(p.right.ty, Lolli))


def _contractible_pattern(p: Pattern) -> bool:
    match p:
        case PBang(_, _):
            return False
        case PWith(_, _) if _section_fn_pattern(p):
            return False
        case _:
            return True


def _seq_pattern(p: Pattern) -> bool:
    match p:
        case PVar(_, ty):
            return is_with_seq(ty)
        case PWith(l, r):
            return _seq_pattern(l) and _seq_pattern(r)
        case _:
            return False


def _commutable_pattern(p: Pattern) -> bool:
    # tangent regrouping lets and mixed-sort pair lets float through
    # inner let frames; bare !-lets (the tape) do not
    if _seq_pattern(p):
        return True
    match p:
        case PTensor(PBang(_, _), PWith(PUnit(), PVar(_, _))):
            return True
        case _:
            return False


def _deletable(v: Term, exp_vars: set[str]) -> bool:
    return free_vars(v) <= exp_vars


def _dead_components_ok(p: Pattern, v: Term, body_fv, exp_vars) -> bool:
    match p:
        case PVar(n, _):
            return n in body_fv or _deletable(v, exp_vars)
        case PBang(n, _):
            return True  # !-components are always erasable
        case PUnit():
            return True
        case PTensor(l, r) | PWith(l, r):
            return (_dead_components_ok(l, v.left, body_fv, exp_vars)
                    and _dead_components_ok(r, v.right, body_fv, exp_vars))
    raise AssertionError(p)


def _simplify_once(m: Term, exp_vars: set[str]):
    match m:
        case App(Abs(p, body), v):
            if (_contractible_pattern(p) and value_for_pattern(v, p)
                    and _dead_components_ok(p, v, free_vars(body), exp_vars)):
                return substitute(body, p, v)
            # commuting conversion:
            # (\p. M)(let q = N in N') --> let q = N in (\p. M) N'
            # except over bare !-lets, which stay put (the tape)
            if _commutable_pattern(p) and isinstance(v, App) and isinstance(v.fn, Abs) \
                    and not isinstance(v.fn.pat, PBang):
                inner = v.fn
                if not (set(pattern_vars(inner.pat)) & free_vars(Abs(p, body))):
                    return App(Abs(inner.pat, App(Abs(p, body), inner.body)), v.arg)
        case App(PrimFn(f), arg):
            # projection / constant primitives fold on symbolic !-arguments
            parts = prim_args(arg, f.arity)
            if parts is not None:
                if f.kind == "proj":
                    return parts[f.proj_index]
                if f.kind == "const":
                    return BangVal(Numeral(f.const_value))
    return None


def simplify(term: Term, fuel: int = 50_000) -> Term:
    """Beta-lambda cleanup used for display and golden comparisons.

    Contracts administrative redexes (identity functions, tangent
    regrouping, literal pair bindings) and folds projection/constant
    derivative symbols, but keeps bare !-lets (the tape) and par-bound
    function lets intact.  Semantics-preserving; never performs a
    numeric step on actual numerals.
    """

    def walk(m, exp_vars):
        r = _simplify_once(m, exp_vars)
        if r is not None:
            return r
        match m:
            case Abs(p, body):
                inner = exp_vars | {v for v in pattern_vars(p)
                                    if _exp_bound(p, v)}
                b = walk(body, inner)
                return None if b is None else Abs(p, b)
            case App(f, a):
                f2 = walk(f, exp_vars)
                if f2 is not None:
                    return App(f2, a)
                a2 = walk(a, exp_vars)
                return None if a2 is None else App(f, a2)
            case TensorPair(l, r):
                l2 = walk(l, exp_vars)
                if l2 is not None:
                    return TensorPair(l2, r)
                r2 = walk(r, exp_vars)
                return None if r2 is None else TensorPair(l, r2)
            case WithPair(l, r):
                l2 = walk(l, exp_vars)
                if l2 is not None:
                    return WithPair(l2, r)
                r2 = walk(r, exp_vars)
                return None if r2 is None else WithPair(l, r2)
            case BangVal(i):
                i2 = walk(i, exp_vars)
                return None if i2 is None else BangVal(i2)
            case _:
                return None

    for _ in range(fuel):
        r = walk(term, set())
        if r is None:
            return term
        term = r
    raise BudgetExhausted("simplifier did not reach a fixpoint")


def _exp_bound(p: Pattern, name: str) -> bool:
    match p:
        case PBang(n, _):
            return n == name
        case PTensor(l, r) | PWith(l, r):
            return _exp_bound(l, name) or _exp_bound(r, name)
        case _:
            return False


def _scope_scan(term: Term) -> tuple[set[str], bool]:
    """The free variables of `term`, and whether some name is bound twice
    in it or both bound and free, by one scoped walk.  It fills no
    `free_vars` cache: on the unzipped term's let-spine the cached sets
    would cost memory quadratic in its length."""
    free: set[str] = set()
    binders: set[str] = set()
    clash = False
    bound: dict[str, int] = {}  # name -> number of enclosing binders
    todo: list = [term]
    while todo:
        t = todo.pop()
        # dispatch on the class, not with `match`: class patterns cost
        # several times more per node, and U and T scan every term they get
        cls = t.__class__
        if cls is Var:
            if t.name not in bound:
                free.add(t.name)
        elif cls is App:
            todo.append(t.arg)
            todo.append(t.fn)
        elif cls is Abs:
            names = pattern_vars(t.pat)
            for n in names:
                if n in binders:
                    clash = True
                binders.add(n)
                bound[n] = bound.get(n, 0) + 1
            todo.append(names)
            todo.append(t.body)
        elif cls is TensorPair or cls is WithPair:
            todo.append(t.right)
            todo.append(t.left)
        elif cls is BangVal:
            todo.append(t.inner)
        elif cls is list:  # leaving the scope of these binder names
            for n in t:
                bound[n] -= 1
                if not bound[n]:
                    del bound[n]
    return free, clash or not free.isdisjoint(binders)


def uniquify(term: Term, supply: NameSupply) -> Term:
    """Rename binders so no name is bound twice; keeps first occurrences.

    Binders are visited in pre-order, left to right, so the fresh names are
    drawn in that order.  The renamings in force travel down the walk in
    one environment (original name -> new name), and a node below which
    nothing was renamed is returned as it is.  The walk uses an explicit
    stack, as a let-spine nests as deep as the program is long."""
    seen, clash = _scope_scan(term)
    if not clash:
        return term
    done: list[Term] = []  # finished subterms, in visiting order
    # (node, env) visits a node under the renaming env; (node, None) and
    # (node, pattern) rebuild it from its finished children, an Abs with
    # the given pattern.
    todo: list = [(term, {})]
    while todo:
        m, env = todo.pop()
        if env is None or isinstance(env, Pattern):
            match m:
                case Abs(p, body):
                    b = done.pop()
                    p2 = p if env is None else env
                    done.append(m if b is body and p2 is p else Abs(p2, b))
                case BangVal(i):
                    i2 = done.pop()
                    done.append(m if i2 is i else BangVal(i2))
                case App(f, a) | TensorPair(f, a) | WithPair(f, a):
                    a2 = done.pop()
                    f2 = done.pop()
                    done.append(m if f2 is f and a2 is a
                                else type(m)(f2, a2))
            continue
        match m:
            case Var(n):
                done.append(Var(env[n]) if n in env else m)
            case Abs(p, body):
                ren = {}
                for n in pattern_vars(p):
                    if n in seen:
                        ren[n] = supply.fresh(n)
                    else:
                        seen.add(n)
                # a name bound here that the environment renames was seen
                # before, so it is renamed again here and `ren` shadows it
                if ren:
                    seen.update(ren.values())
                    env = env | ren
                    todo.append((m, _rename_pattern(p, ren)))
                else:
                    todo.append((m, None))
                todo.append((body, env))
            case App(f, a) | TensorPair(f, a) | WithPair(f, a):
                todo.append((m, None))
                todo.append((a, env))
                todo.append((f, env))
            case BangVal(i):
                todo.append((m, None))
                todo.append((i, env))
            case _:
                done.append(m)
    return done.pop()
