"""References for the rewriting engine `linlog.lll.reduce`.

- The recursive definition of the redex list (`ref_redexes`, `ref_plug`)
  and the reductions it gives (`ref_reduce`, `ref_random_safe_reduce`).
- The restarting reduction that the engine's refocusing drivers replaced:
  each step walks the term from the root to the first redex (`redexes`)
  and rebuilds the path (`plug`); `restart_steps` and
  `restart_random_steps` give its steps.
- The restarting simplifier, kept as the reference for the one-pass
  `simplify`: each round walks the term from the root, pre-order and left
  to right, applies the rules of `_simplify_once` at the first node where
  one fires, and starts again from the root, until no rule fires.  The
  !-bound names of the enclosing binders travel down the walk; an inner
  binder adds its own and removes none.
"""

from linlog.lll.reduce import (
    BudgetExhausted, _simplify_once, safe_contract, safe_redex,
)
from linlog.lll.terms import (
    Abs, App, BangVal, PBang, PTensor, PWith, TensorPair, Term, WithPair,
    children, pattern_vars,
)


# ------------------------------------------------- the recursive definition

def ref_redexes(t, contract, path=()):
    """The recursive definition: (path of child indices, contraction) of
    every redex, in pre-order, left to right."""
    c = contract(t)
    out = [] if c is None else [(path, c)]
    for i, child in enumerate(children(t)):
        out += ref_redexes(child, contract, path + (i,))
    return out


def ref_plug(t, path, new):
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = ref_plug(kids[path[0]], path[1:], new)
    return Abs(t.pat, *kids) if isinstance(t, Abs) else type(t)(*kids)


def ref_reduce(term, contract, innermost=False):
    """A reduction to normal form by the reference redex list: (result,
    numeric steps, steps)."""
    numeric = total = 0
    while True:
        found = ref_redexes(term, contract)
        if not found:
            return term, numeric, total
        path, (new, is_numeric) = found[-1] if innermost else found[0]
        term = ref_plug(term, path, new)
        numeric += is_numeric
        total += 1


def ref_random_safe_reduce(term, rng):
    numeric = 0
    while True:
        spots = ref_redexes(term, safe_redex)
        if not spots:
            return term, numeric
        path, m = rng.choice(spots)
        new, is_numeric = safe_contract(m)
        term = ref_plug(term, path, new)
        numeric += is_numeric


# ---------------------------------------------------- the restarting driver

def redexes(term: Term, contract, innermost: bool = False):
    """The redexes of `contract` in `term`, lazily, as (context,
    contraction) pairs, `contraction` being what `contract` returns for the
    redex.  Leftmost-outermost first (pre-order, left to right), or with
    `innermost` rightmost-innermost first (each node after its children,
    right to left).  A context is the path from the redex up to the root,
    nested (node, child index, context) triples ending in None; `plug`
    fills it.

    The root of every contraction is an `App`, so `contract` is called at
    `App` nodes only.  The walk keeps the ancestors of the node it is at
    and the index of the child it went down to in two lists, and builds a
    context from them only for a redex it yields.  It dispatches on the
    class, not with `match` or `children`, as it visits every node of the
    term for each step of a reduction."""
    nodes: list[Term] = []
    idx: list[int] = []
    m = term
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
                        yield _context(nodes, idx), r
            else:
                return
    while True:
        cls = m.__class__
        if cls is App:
            r = contract(m)
            if r is not None:
                yield _context(nodes, idx), r
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


def _context(nodes: list[Term], idx: list[int]):
    ctx = None
    for node, i in zip(nodes, idx):
        ctx = (node, i, ctx)
    return ctx


def plug(ctx, m: Term) -> Term:
    """The whole term of a context from `redexes`, `m` in its hole."""
    while ctx is not None:
        node, i, ctx = ctx
        cls = node.__class__
        if cls is Abs:
            m = Abs(node.pat, m)
        elif cls is BangVal:
            m = BangVal(m)
        else:
            f, a = children(node)
            m = cls(m, a) if i == 0 else cls(f, m)
    return m


def restart_steps(term, contract, innermost=False):
    """The steps of a reduction by `contract` that searches from the root
    at every step, as (term', numeric) pairs."""
    while True:
        for ctx, (m, numeric) in redexes(term, contract, innermost):
            term = plug(ctx, m)
            yield term, numeric
            break
        else:
            return


def restart_random_steps(term, rng):
    """The steps of a safe reduction that lists every redex at every step
    and contracts the one `rng.choice` draws."""
    while True:
        spots = list(redexes(term, safe_redex))
        if not spots:
            return
        ctx, m = rng.choice(spots)
        new, numeric = safe_contract(m)
        term = plug(ctx, new)
        yield term, numeric


# ------------------------------------------------ the restarting simplifier

def ref_simplify(term, fuel=50_000):
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


def _exp_bound(p, name):
    match p:
        case PBang(n, _):
            return n == name
        case PTensor(l, r) | PWith(l, r):
            return _exp_bound(l, name) or _exp_bound(r, name)
        case _:
            return False
