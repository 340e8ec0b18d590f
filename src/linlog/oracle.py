"""Verification layer: bases, duals, equivalence testing, gradients.

With-sequence types are finite-dimensional vector spaces; their
canonical bases make linear maps comparable exactly.  The equivalence
tester approximates the extensional relation between terms: exact at
sequence types and for linear maps (by basis application), sampled at
everything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from linlog.autodiff import (
    forward, seq_tangent, transpose, unzip, unzip_decompose,
)
from linlog.errors import NotWithSeq
from linlog.fresh import NameSupply
from linlog.linear_a.values import NPair, NumTuple, Scalar, UnitTup, flatten
from linlog.lll import machine
from linlog.lll.machine import (
    Flops, VBang, VNum, VPair, VTop, VUnit, VWith, Value, apply_lanes,
    apply_value, compile_term, eval_compiled, values_close,
)
from linlog.lll.reduce import simplify
from linlog.lll.sorts import primal_inner_type
from linlog.lll.terms import (
    Abs, App, Numeral, Pattern, PBang, PlusDot, PTensor, PVar, PWith,
    Term, TensorPair, TimesDot, TopVal, Var, WithPair, Zero, pattern_type,
)
from linlog.lll.types import (
    Bang, LType, Lolli, One, Real, Tensor, Top, With, is_ground, is_with_seq,
)
from linlog.lll.typecheck import TypeMismatch, TypingEnv, typecheck
from linlog.lll.workload import workload_term
from linlog.translate import add_app, mk_zero, scale_app, with_tree


# the relative tolerance of scalar comparisons in `equiv_check`, and the
# absolute one of a gradient against finite differences
SCALAR_REL_TOL = 1e-9
FD_TOL = 1e-5


@dataclass(frozen=True)
class EquivConfig:
    fd_step: float = 1e-6
    sample_count: int = 16
    rng_seed: int = 2024


# ------------------------------------------------------------------- basis

def _basis0(h: LType) -> list[Term]:
    match h:
        case x if x is Real:
            return [Numeral(1.0)]
        case x if x is Top:
            return []
        case With(l, r):
            out = [WithPair(v, mk_zero(r)) for v in _basis0(l)]
            out += [WithPair(mk_zero(l), v) for v in _basis0(r)]
            return out
    raise AssertionError(h)


def basis(h: LType) -> list[Term]:
    """Canonical basis; one vector per scalar dimension.  The top type
    spans a zero-dimensional space, so inside compound types it
    contributes nothing, while the bare type keeps its single point so
    maps out of it can still be probed."""
    if not is_with_seq(h):
        raise NotWithSeq(repr(h))
    if h is Top:
        return [TopVal()]
    return _basis0(h)


def basis_values(h: LType) -> list[Value]:
    return [term_to_value(b) for b in basis(h)]


def dimension_basis_values(h: LType) -> list[Value]:
    """One value per scalar dimension; empty at the top type.  Use this
    for matrices and Jacobian rows, `basis_values` for probing."""
    return [term_to_value(b) for b in _basis0(h)]


def inner_product(h: LType, supply: NameSupply | None = None) -> Term:
    if not is_with_seq(h):
        raise NotWithSeq(repr(h))
    supply = supply or NameSupply()
    x, y = supply.fresh("x"), supply.fresh("y")
    pat = PTensor(PVar(x, h), PVar(y, h))
    match h:
        case t if t is Real:
            return Abs(pat, App(App(TimesDot(), Var(x)), Var(y)))
        case t if t is Top:
            return Abs(pat, Zero())
        case With(l, r):
            x1, x2 = supply.fresh("x"), supply.fresh("x")
            y1, y2 = supply.fresh("y"), supply.fresh("y")
            pat = PTensor(PWith(PVar(x1, l), PVar(x2, r)),
                          PWith(PVar(y1, l), PVar(y2, r)))
            body = App(PlusDot(), WithPair(
                App(inner_product(l, supply), TensorPair(Var(x1), Var(y1))),
                App(inner_product(r, supply), TensorPair(Var(x2), Var(y2)))))
            return Abs(pat, body)
    raise AssertionError(h)


def mk_dual(h: LType, supply: NameSupply | None = None) -> Term:
    supply = supply or NameSupply()
    a, b = supply.fresh("h"), supply.fresh("h")
    return Abs(PVar(a, h),
               Abs(PVar(b, h),
                   App(inner_product(h, supply), TensorPair(Var(a), Var(b)))))


def mk_undual(h: LType, supply: NameSupply | None = None) -> Term:
    """Reconstruction of a vector from its dual functional; replicates
    the functional once per basis vector, so deliberately not safe."""
    supply = supply or NameSupply()
    f = supply.fresh("f")
    terms = [scale_app(h, App(Var(f), v), v, supply) for v in basis(h)]
    if not terms:
        body = mk_zero(h)
    else:
        body = terms[0]
        for t in terms[1:]:
            body = add_app(h, body, t, supply)
    return Abs(PVar(f, Lolli(h, Real)), body)


def naive_transpose(p: Pattern, u: Term, h: LType,
                    supply: NameSupply | None = None) -> tuple[Pattern, Term]:
    """The reference transpose of \\p. U : L -o H, given its codomain H:
    undual_L (\\p. dual_H q U).  Returns the fresh cotangent pattern q and
    the term, with q's variables free."""
    supply = supply or NameSupply()
    l = pattern_type(p)
    qpat, _, qterm = with_tree(h, supply, "q")
    functional = Abs(p, App(App(mk_dual(h, supply), qterm), u))
    return qpat, App(mk_undual(l, supply), functional)


# ------------------------------------------------------------ value bridges

def term_to_value(t: Term) -> Value:
    v, _ = machine.run(t)
    return v


def numtuple_to_primal_value(v: NumTuple) -> Value:
    match v:
        case Scalar(x):
            return VNum(x)
        case NPair(l, r):
            return VPair(VBang(numtuple_to_primal_value(l)),
                         VBang(numtuple_to_primal_value(r)))
        case _:
            return VUnit()


def numtuple_to_tangent_value(v: NumTuple) -> Value:
    match v:
        case Scalar(x):
            return VNum(x)
        case NPair(l, r):
            return VWith(numtuple_to_tangent_value(l),
                         numtuple_to_tangent_value(r))
        case _:
            return VTop()


def value_to_numtuple(v: Value) -> NumTuple:
    match v:
        case VNum(x):
            return Scalar(x)
        case VUnit() | VTop():
            return UnitTup
        case VPair(VBang(l), VBang(r)):
            return NPair(value_to_numtuple(l), value_to_numtuple(r))
        case VPair(l, r) | VWith(l, r):
            return NPair(value_to_numtuple(l), value_to_numtuple(r))
        case VBang(i):
            return value_to_numtuple(i)
    raise machine.MachineError(f"{v!r} is not a numeric value")


def flatten_value(v: Value) -> list[float]:
    match v:
        case VNum(x):
            return [x]
        case VUnit() | VTop():
            return []
        case VPair(l, r) | VWith(l, r):
            return flatten_value(l) + flatten_value(r)
        case VBang(i):
            return flatten_value(i)
    raise machine.MachineError(f"{v!r} has no numeric leaves")


def random_value_of(ty: LType, rng: random.Random) -> Value:
    """A random closed value of a ground type; scalars uniform in [-2,2]
    with fixed probes mixed in."""
    if ty is Real:
        return VNum(rng.choice([0.0, 1.0, -1.0])
                    if rng.random() < 0.2 else rng.uniform(-2.0, 2.0))
    if ty is One:
        return VUnit()
    if ty is Top:
        return VTop()
    cls = ty.__class__
    if cls is Tensor or cls is With:
        pair = VPair if cls is Tensor else VWith
        return pair(random_value_of(ty.left, rng),
                    random_value_of(ty.right, rng))
    if cls is Bang:
        return VBang(random_value_of(ty.inner, rng))
    raise NotWithSeq(f"cannot sample a value of {ty!r}")


# ------------------------------------------------------------- equivalence

@dataclass
class Verdict:
    equivalent: bool
    ty: LType  # the type of both sides
    counterexample: tuple | None = None

    def __bool__(self):
        return self.equivalent


def _close_env(env: TypingEnv, rng: random.Random) -> dict[str, Value]:
    """Sample one machine environment for the free patterns."""
    values: dict[str, Value] = {}
    for p in env.entries:
        match p:
            case PBang(x, ty):
                values[x] = random_value_of(ty, rng)
            case PVar(x, ty) if is_ground(ty):
                values[x] = random_value_of(ty, rng)
            case _:
                raise NotWithSeq(f"cannot close environment entry {p!r}")
    return values


def _compare(ty: LType, a: Value, b: Value, cfg: EquivConfig,
             rng: random.Random, flops: Flops, bases: dict) -> bool:
    """`bases` caches `basis_values` by type across one `equiv_check`."""
    if ty is Real or ty is One or ty is Top:
        return values_close(a, b, SCALAR_REL_TOL)
    cls = ty.__class__
    if cls is Bang:
        return isinstance(a, VBang) and isinstance(b, VBang) and \
            _compare(ty.inner, a.inner, b.inner, cfg, rng, flops, bases)
    if cls is Tensor or cls is With:
        pair = VPair if cls is Tensor else VWith
        return isinstance(a, pair) and isinstance(b, pair) and \
            _compare(ty.left, a.left, b.left, cfg, rng, flops, bases) and \
            _compare(ty.right, a.right, b.right, cfg, rng, flops, bases)
    if cls is Lolli and is_with_seq(ty.dom):
        # exact on the canonical basis for linear maps, plus samples
        dom, cod = ty.dom, ty.cod
        dom_basis = bases.get(dom)
        if dom_basis is None:
            dom_basis = bases[dom] = basis_values(dom)
        if is_ground(cod):
            # comparing at a ground type draws nothing, so the samples can
            # be drawn first and every probe applied in one run per side
            probes = dom_basis + [random_value_of(dom, rng)
                                  for _ in range(cfg.sample_count)]
            return all(_compare(cod, x, y, cfg, rng, flops, bases)
                       for x, y in zip(apply_lanes(a, probes, flops),
                                       apply_lanes(b, probes, flops)))
        for v in dom_basis:
            if not _compare(cod, apply_value(a, v, flops),
                            apply_value(b, v, flops), cfg, rng, flops,
                            bases):
                return False
        for _ in range(cfg.sample_count):
            v = random_value_of(dom, rng)
            if not _compare(cod, apply_value(a, v, flops),
                            apply_value(b, v, flops), cfg, rng, flops,
                            bases):
                return False
        return True
    raise NotWithSeq(f"cannot compare values at {ty!r}")


def equiv_check(m: Term, n: Term, env: TypingEnv,
                cfg: EquivConfig | None = None) -> Verdict:
    """Test-based approximation of extensional equivalence of `m` and `n`,
    which must have one type; the verdict carries it.  A reported
    counterexample is definitive; 'equivalent' is exact for sequence
    types and basis-tested linear maps, probabilistic otherwise."""
    cfg = cfg or EquivConfig()
    ty = typecheck(env, m)
    tn = typecheck(env, n)
    if tn != ty:
        raise TypeMismatch(f"{tn!r} does not match {ty!r}")
    rng = random.Random(cfg.rng_seed)
    rounds = cfg.sample_count if env.entries else 1
    cm, cn = compile_term(m), compile_term(n)
    bases: dict[LType, list[Value]] = {}
    for _ in range(rounds):
        values = _close_env(env, rng)
        flops = Flops()
        va = eval_compiled(cm, values, flops)
        vb = eval_compiled(cn, values, flops)
        if not _compare(ty, va, vb, cfg, rng, flops, bases):
            return Verdict(False, ty, (values, va, vb))
    return Verdict(True, ty)


# --------------------------------------------------------- finite difference

def finite_diff_grad(p: Term, theta: list[tuple[str, LType]],
                     point: list[NumTuple], cfg: EquivConfig | None = None
                     ) -> list[list[float]]:
    """Central differences of the primal along every scalar input: one row
    per scalar output component, in the order of `GradResult.jacobian_t`,
    each over the scalar inputs in order."""
    cfg = cfg or EquivConfig()
    h = cfg.fd_step
    flat = []
    shapes = []
    for v in point:
        xs = flatten(v)
        shapes.append(len(xs))
        flat.extend(xs)

    code = compile_term(p)

    def run(xs):
        values = {}
        i = 0
        for (name, _), n in zip(theta, shapes):
            values[name] = _nt_unflatten_primal(xs[i:i + n], point[len(values)])
            i += n
        return flatten_value(eval_compiled(code, values, Flops()))

    cols = []
    for j in range(len(flat)):
        up = list(flat)
        dn = list(flat)
        up[j] += h
        dn[j] -= h
        cols.append([(a - b) / (2 * h) for a, b in zip(run(up), run(dn))])
    n_out = len(cols[0]) if cols else len(run(flat))
    return [[col[i] for col in cols] for i in range(n_out)]


def rows_disagree(a: list[list[float]], b: list[list[float]],
                  tol: float) -> bool:
    """Whether two Jacobians differ in an entry they share, relative to its
    magnitude where that exceeds 1."""
    return any(abs(x - y) > tol * max(1.0, abs(x), abs(y))
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _nt_unflatten_primal(xs, template: NumTuple) -> Value:
    def go(t, i):
        match t:
            case Scalar(_):
                return VNum(xs[i]), i + 1
            case NPair(l, r):
                a, i = go(l, i)
                b, i = go(r, i)
                return VPair(VBang(a), VBang(b)), i
            case _:
                return VUnit(), i

    v, _ = go(template, 0)
    return v


# ------------------------------------------------------------- grad runner

@dataclass
class GradResult:
    primal: NumTuple
    gradient: list[NumTuple]
    flops: int
    workload_bound: int
    jacobian_t: list[list[NumTuple]] | None = None

    def flat_rows(self) -> list[list[float]]:
        """The rows of the transposed Jacobian, each over the scalar inputs."""
        rows = [self.gradient] if self.jacobian_t is None else self.jacobian_t
        return [[x for g in row for x in flatten(g)] for row in rows]


def run_grad(p: Term, theta: list[tuple[str, LType]], point: list[NumTuple],
             pipeline: str = "tuf", simplify_output: bool = False,
             supply: NameSupply | None = None) -> GradResult:
    """Gradient through the reverse pipeline, linearizing once.  The
    transposed term r evaluates once to `!primal ⊗ <(), g>`; row i of the
    transposed Jacobian is g applied to the i-th of the k basis cotangents
    of the output (a scalar output is the case k = 1; an output with no
    scalar component has k = 0 and no row), all k in one run of g.

    The bound is W(r) + max(k-1, 0)·W(map), the map being the linear part
    of r with its section lets (`unzip_decompose(r)[2]`): W(r) bounds the
    primal run and one application, and each further application runs
    only the map's body, which W(map) bounds."""
    supply = supply or NameSupply()
    f, enum = forward(theta, p, supply)
    if pipeline == "tuf":
        r = transpose(None, unzip(f, supply), supply)
    elif pipeline == "tf":
        r = transpose(None, f, supply)
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if simplify_output:
        r = simplify(r)

    hty = seq_tangent(primal_inner_type(p, dict(theta)))
    values = {n: numtuple_to_primal_value(v) for (n, _), v in zip(theta, point)}
    flops = Flops()
    out = eval_compiled(compile_term(r), values, flops)
    g = out.right.right
    rows = []
    for v in apply_lanes(g, dimension_basis_values(hty), flops):
        by_name = dict(zip([n for n, _ in enum], _split_tangent(v, enum)))
        rows.append([by_name[n] for n, _ in theta])
    bound = workload_term(r)
    if len(rows) > 1:  # the map is walked only if it is applied again
        bound += (len(rows) - 1) * workload_term(unzip_decompose(r)[2])
    return GradResult(value_to_numtuple(out.left.inner),
                      rows[0] if rows else [], flops.count, bound,
                      jacobian_t=None if hty is Real else rows)


def _split_tangent(v: Value, enum) -> list[NumTuple]:
    out = []
    cur = v
    for i in range(len(enum) - 1):
        assert isinstance(cur, VWith)
        out.append(value_to_numtuple(cur.left))
        cur = cur.right
    out.append(value_to_numtuple(cur))
    return out
