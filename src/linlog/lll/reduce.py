"""Beta reduction, safe reduction and the display-level simplifier.

The numeric rules treat Zero as the numeral 0.0.  Numeric steps (the
primitive/plus/times contractions) are counted as flops.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from linlog.errors import LinlogError
from linlog.fresh import NameSupply
from linlog.lll.lets import bind, unbind
from linlog.lll.terms import (
    Abs, App, BangVal, Numeral, Pattern, PBang, PlusDot, PrimFn, PTensor,
    PUnit, PVar, PWith, TensorPair, Term, TimesDot, TopVal, UnitVal, Var,
    WithPair, Zero, all_names, children, free_vars, pattern_vars,
    prim_args,
)
from linlog.lll.types import Lolli, is_with_seq


# the steps `normalize` and `safe_reduce` take before they give up
STEP_BUDGET = 100_000


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

def _avoid(base: str, taken: set[str]) -> str:
    stem = base.split("#")[0]
    i = 1
    while f"{stem}#r{i}" in taken:
        i += 1
    return f"{stem}#r{i}"


def rename_pattern(p: Pattern, ren: dict[str, str]) -> Pattern:
    match p:
        case PVar(n, ty):
            return PVar(ren.get(n, n), ty)
        case PBang(n, ty):
            return PBang(ren.get(n, n), ty)
        case PUnit():
            return p
        case PTensor(l, r):
            return PTensor(rename_pattern(l, ren), rename_pattern(r, ren))
        case PWith(l, r):
            return PWith(rename_pattern(l, ren), rename_pattern(r, ren))
    raise AssertionError(p)


def subst(term: Term, sigma: dict[str, Term]) -> Term:
    """`term` with each free occurrence of a name of `sigma` replaced by
    its term, all names in one walk; a renaming is a `sigma` of variables.

    A binder is renamed apart (`stem#rN`) only where it would capture a
    free name of a term substituted below it; the names to avoid, every
    name of `term` and of the substituted terms, are collected at the
    first such capture.  A subterm in which no name of `sigma` is free is
    returned as it is."""
    taken: set[str] | None = None

    def go(m: Term, env: dict[str, Term]) -> Term:
        nonlocal taken
        cls = m.__class__
        if cls is Var:
            return env.get(m.name, m)
        fv = free_vars(m)
        if fv.isdisjoint(env):
            return m
        if cls is Abs:
            # the names bound here are not free in m: this drops them too
            env = {x: v for x, v in env.items() if x in fv}
            p = m.pat
            clash = [n for n in pattern_vars(p)
                     if any(n in free_vars(v) for v in env.values())]
            if clash:
                if taken is None:
                    taken = all_names(term).union(
                        *map(all_names, sigma.values()))
                ren = {}
                for c in clash:
                    ren[c] = fresh = _avoid(c, taken)
                    taken.add(fresh)
                    env[c] = Var(fresh)
                p = rename_pattern(p, ren)
            return Abs(p, go(m.body, env))
        if cls is BangVal:
            return BangVal(go(m.inner, env))
        f, a = children(m)
        return cls(go(f, env), go(a, env))

    return go(term, sigma)


def _components(p: Pattern, v: Term, out: dict[str, Term]) -> dict[str, Term]:
    match p:
        case PVar(n, _):
            out[n] = v
        case PBang(n, _):
            out[n] = v.inner
        case PTensor(pl, pr) | PWith(pl, pr):
            _components(pl, v.left, out)
            _components(pr, v.right, out)
    return out


def substitute(term: Term, pat: Pattern, value: Term) -> Term:
    """M{V/p}: each variable of p is replaced by its component of V (for
    `!x`, the term under the `!`), all at once and capture-free."""
    if not value_for_pattern(value, pat):
        raise NotAValueForPattern(f"{value!r} is not a value for {pat!r}")
    return subst(term, _components(pat, value, {}))


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
    if m.__class__ is not App:
        return None
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


def _plug(nodes: list[Term], idx: list[int], m: Term) -> Term:
    """The whole term with `m` in the hole below `nodes`, its ancestors from
    the root down, entered at their children `idx`.  The ancestors are
    rebuilt in place, so that the lists stay the path down to `m`."""
    for k in range(len(nodes) - 1, -1, -1):
        up = nodes[k]
        cls = up.__class__
        if cls is Abs:
            m = Abs(up.pat, m)
        elif cls is BangVal:
            m = BangVal(m)
        elif idx[k]:
            m = cls(children(up)[0], m)
        else:
            m = cls(m, children(up)[1])
        nodes[k] = m
    return m


def _search(m: Term, nodes: list[Term], idx: list[int], contract,
            innermost: bool):
    """What `contract` returns at each redex from `m` on, to the end of the
    term: first below `m`, then up through its ancestors `nodes` and their
    children `idx` (as for `_plug`).  The order is leftmost-outermost
    (pre-order, left to right), or with `innermost` rightmost-innermost
    (each node after its children, right to left).  At each yield the two
    lists are the path down to the redex.

    The root of every contraction is an `App`, so `contract` is called at
    `App` nodes only.  The walk dispatches on the class, not with `match`
    or `children`, as it may visit every node of the term for a step."""
    if innermost:
        while True:
            while True:  # down to the rightmost leaf below m
                cls = m.__class__
                if cls is App:
                    nodes.append(m)
                    idx.append(1)
                    m = m.arg
                elif cls is Abs:
                    nodes.append(m)
                    idx.append(0)
                    m = m.body
                elif cls is TensorPair or cls is WithPair:
                    nodes.append(m)
                    idx.append(1)
                    m = m.right
                elif cls is BangVal:
                    nodes.append(m)
                    idx.append(0)
                    m = m.inner
                else:
                    break
            # up to the nearest ancestor with a left child still to visit,
            # visiting each ancestor whose children are all visited
            while nodes:
                if idx[-1]:
                    idx[-1] = 0
                    m = nodes[-1]
                    m = m.fn if m.__class__ is App else m.left
                    break
                m = nodes.pop()
                idx.pop()
                if m.__class__ is App:
                    r = contract(m)
                    if r is not None:
                        yield r
            else:
                return
    while True:
        cls = m.__class__
        if cls is App:
            r = contract(m)
            if r is not None:
                yield r
            nodes.append(m)
            idx.append(0)
            m = m.fn
        elif cls is Abs:
            nodes.append(m)
            idx.append(0)
            m = m.body
        elif cls is TensorPair or cls is WithPair:
            nodes.append(m)
            idx.append(0)
            m = m.left
        elif cls is BangVal:
            nodes.append(m)
            idx.append(0)
            m = m.inner
        else:
            # up to the nearest ancestor with a right child still to visit
            while nodes:
                if not idx[-1]:
                    up = nodes[-1]
                    cls = up.__class__
                    if cls is App:
                        idx[-1] = 1
                        m = up.arg
                        break
                    if cls is TensorPair or cls is WithPair:
                        idx[-1] = 1
                        m = up.right
                        break
                nodes.pop()
                idx.pop()
            else:
                return


def _reads_hole(nodes: list[Term], idx: list[int]):
    """The `App` ancestors of the hole whose redex test reads it (see
    `_steps`), outermost first, with their depths."""
    last = len(nodes) - 2
    return [(k, up) for k, up in enumerate(nodes)
            if up.__class__ is App and (idx[k] or k >= last)]


def _steps(term: Term, contract, innermost: bool = False):
    """The steps of the reduction of `term` by `contract`, as (term',
    numeric) pairs, in the order of `_search`.

    A step rebuilds only the path from the root to the redex it contracts,
    and the search resumes at the contractum (refocusing: Danvy & Nielsen,
    BRICS RS-04-26, 2004).  Rightmost-innermost re-tests no ancestor, as
    each comes after the hole in its order.  In pre-order, every node
    before the hole is an ancestor of it or lies in a subterm left of the
    path, which is unchanged and so still holds no redex.  An ancestor can
    have become one only if its test reads the hole, and those are
    re-tested first, outermost first: `_contract`, `safe_contract` and
    `safe_redex` read a function position only at its root, and one level
    below for `*.`, so the hole's parent and grandparent; they read an
    argument as deep as `free_vars` and `is_strong_value` go, so every
    `App` that holds the hole in its argument."""
    nodes: list[Term] = []
    idx: list[int] = []
    r = next(_search(term, nodes, idx, contract, innermost), None)
    while r is not None:
        m, numeric = r
        yield _plug(nodes, idx, m), numeric
        for k, up in [] if innermost else _reads_hole(nodes, idx):
            r = contract(up)
            if r is not None:
                del nodes[k:], idx[k:]
                break
        else:
            r = next(_search(m, nodes, idx, contract, innermost), None)


def _reduce(steps, term: Term, what: str) -> ReductionOutcome:
    numeric = total = 0
    for term, is_numeric in steps:
        total += 1
        numeric += is_numeric
        if total > STEP_BUDGET:
            raise BudgetExhausted(f"no {what} within {STEP_BUDGET} steps")
    return ReductionOutcome(term, numeric, total)


def beta_step(term: Term):
    """One leftmost-outermost step, or None at a beta-nf.
    Returns (term', numeric)."""
    return next(_steps(term, _contract), None)


def beta_steps(term: Term, limit: int) -> list[Term]:
    """The terms of the first `limit` leftmost-outermost steps from `term`."""
    return [m for m, _ in islice(_steps(term, _contract), limit)]


def normalize(term: Term,
              strategy: str = "leftmost-outermost") -> ReductionOutcome:
    if strategy not in ("leftmost-outermost", "rightmost-innermost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return _reduce(_steps(term, _contract, strategy == "rightmost-innermost"),
                   term, "normal form")


# ------------------------------------------------------------ safe steps

def _safe_beta(p: Pattern, v: Term) -> bool:
    return value_for_pattern(v, p) and is_strong_value(v) and not free_vars(v)


def safe_contract(m: Term):
    if m.__class__ is not App:
        return None
    match m:
        case App(Abs(p, body), v):
            if _safe_beta(p, v):
                return substitute(body, p, v), False
            return None
        case _:
            return _contract(m)


def safe_redex(m: Term) -> Term | None:
    """`m` if `safe_contract` contracts it, else None; a beta redex is
    recognised without substituting."""
    if m.__class__ is not App:
        return None
    match m:
        case App(Abs(p, _), v):
            return m if _safe_beta(p, v) else None
        case _:
            return m if _contract(m) is not None else None


def safe_step(term: Term):
    """One leftmost-outermost safe step, or None."""
    return next(_steps(term, safe_contract), None)


def safe_steps(term: Term, limit: int) -> list[Term]:
    """The terms of the first `limit` leftmost-outermost safe steps."""
    return [m for m, _ in islice(_steps(term, safe_contract), limit)]


def safe_reduce(term: Term) -> ReductionOutcome:
    """Call-by-closed-strong-value reduction; on safe closed input the
    numeric step count is bounded by the term workload."""
    if free_vars(term):
        raise StuckOpenTerm(f"free variables {sorted(free_vars(term))}")
    return _reduce(_steps(term, safe_contract), term, "safe normal form")


# the steps a random safe reduction takes before it gives up
RANDOM_STEP_BUDGET = 30_000


def _redex_paths(m: Term) -> list[tuple[int, ...]]:
    """The paths (child indices from `m` down) of the safe redexes of `m`,
    in pre-order, left to right."""
    idx: list[int] = []
    return [tuple(idx) for _ in _search(m, [], idx, safe_redex, False)]


def _random_steps(term: Term, rng):
    """The steps of a safe reduction that contracts the redex `rng.choice`
    draws from the list of all, in pre-order.  A step keeps the list of
    their paths current as `_steps` keeps its search: the paths below the
    hole, a range of the list, give way to those of the contractum, and the
    ancestors that read the hole are re-tested."""
    spots = _redex_paths(term)
    while spots:
        path = rng.choice(spots)
        nodes: list[Term] = []
        m = term
        for i in path:
            nodes.append(m)
            m = children(m)[i]
        m, numeric = safe_contract(m)
        idx = list(path)
        term = _plug(nodes, idx, m)
        yield term, numeric
        # pre-order is the order of the paths as tuples, and the paths
        # below `path` come before it extended by a child index past the last
        lo = bisect_left(spots, path)
        hi = bisect_left(spots, path + (2,), lo)
        spots[lo:hi] = [path + p for p in _redex_paths(m)]
        for k, up in _reads_hole(nodes, idx):
            j = bisect_left(spots, path[:k])
            known = j < len(spots) and spots[j] == path[:k]
            if known != (safe_redex(up) is not None):
                if known:
                    del spots[j]
                else:
                    spots.insert(j, path[:k])


def random_safe_reduce(term: Term, rng) -> tuple[Term, int]:
    """(normal form, numeric steps) of a random safe reduction."""
    numeric = 0
    for total, (term, is_numeric) in enumerate(_random_steps(term, rng), 1):
        if total == RANDOM_STEP_BUDGET:
            raise RuntimeError("random safe reduction did not terminate")
        numeric += is_numeric
    return term, numeric


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


def _bang_names(p: Pattern) -> list[str]:
    """The names `p` binds under a `!`."""
    cls = p.__class__
    if cls is PBang:
        return [p.name]
    if cls is PTensor or cls is PWith:
        return _bang_names(p.left) + _bang_names(p.right)
    return []


def simplify(term: Term) -> Term:
    """Beta-lambda cleanup used for display and golden comparisons.

    Contracts administrative redexes (identity functions, tangent
    regrouping, literal pair bindings) and folds projection/constant
    derivative symbols, but keeps bare !-lets (the tape) and par-bound
    function lets intact.  Semantics-preserving; never performs a
    numeric step on actual numerals.

    One bottom-up pass on an explicit stack: a node's children are
    simplified before the node, and a contractum in turn at its place.  A
    node found normal, such as a subterm `subst` returns unchanged, is not
    walked again.  The rules read the enclosing binders only to let a beta
    redex drop a dead component whose value's free names are all !-bound,
    so a node found normal stays normal until a `!` binds a free name of
    such a value that was not !-bound where the redex stayed (`blocked`);
    at that binder the pass forgets which nodes it found normal."""
    bangs: dict = {}  # the !-bound names in scope
    blocked: set[str] = set()
    normal: dict[int, Term] = {}  # id -> node, which it keeps alive
    done: list[Term] = []  # finished subterms, in visiting order
    # a term is visited, a (node, children) pair is rebuilt from its
    # finished children, and a list undoes the `bind` of a !-binder's names
    todo: list = [term]
    while todo:
        m = todo.pop()
        cls = m.__class__
        if cls is tuple:
            m, kids = m
            cls = m.__class__
            if len(kids) == 2:
                a, f = done.pop(), done.pop()
                if f is not kids[0] or a is not kids[1]:
                    m = cls(f, a)
            else:
                b = done.pop()
                if b is not kids[0]:
                    m = Abs(m.pat, b) if cls is Abs else cls(b)
            if cls is App:
                r = _simplify_once(m, bangs.keys())
                if r is not None:
                    todo.append(r)
                    continue
                f, v = m.fn, m.arg
                if (f.__class__ is Abs and _contractible_pattern(f.pat)
                        and value_for_pattern(v, f.pat)):
                    blocked.update(n for n in free_vars(v) if n not in bangs)
            normal[id(m)] = m
            done.append(m)
        elif cls is list:
            unbind(bangs, m)
        elif id(m) in normal or not (kids := children(m)):
            done.append(m)
        else:
            todo.append((m, kids))
            if cls is Abs and (names := _bang_names(m.pat)):
                if not blocked.isdisjoint(names):
                    normal.clear()
                todo.append(bind(bangs, dict.fromkeys(names)))
            todo.extend(reversed(kids))
    return done.pop()


def scope_scan(term: Term) -> tuple[set[str], bool, set[str]]:
    """The free variables of `term`, whether some name is bound twice in it
    or both bound and free, and the names of all its variable occurrences,
    by one scoped walk.  It fills no `free_vars` cache: on the unzipped
    term's let-spine the cached sets would cost memory quadratic in its
    length."""
    free: set[str] = set()
    names: set[str] = set()
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
            names.add(t.name)
            if t.name not in bound:
                free.add(t.name)
        elif cls is App:
            todo.append(t.arg)
            todo.append(t.fn)
        elif cls is Abs:
            leaves = pattern_vars(t.pat)
            for n in leaves:
                if n in binders:
                    clash = True
                binders.add(n)
                bound[n] = bound.get(n, 0) + 1
            todo.append(leaves)
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
    return free, clash or not free.isdisjoint(binders), names


def uniquify(term: Term, supply: NameSupply) -> tuple[Term, set[str]]:
    """Rename binders so no name is bound twice; keeps first occurrences.
    Returns the renamed term and the names of its variable occurrences.

    Binders are visited in pre-order, left to right, so the fresh names are
    drawn in that order.  The renamings in force travel down the walk in
    one environment (original name -> new name), and a node below which
    nothing was renamed is returned as it is.  The walk uses an explicit
    stack, as a let-spine nests as deep as the program is long."""
    seen, clash, names = scope_scan(term)
    if not clash:
        return term, names
    names = set()
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
                names.add(env.get(n, n))
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
                    todo.append((m, rename_pattern(p, ren)))
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
    return done.pop(), names
