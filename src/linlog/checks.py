"""Property suites behind the check command and the acceptance tests.

Every function returns a CheckResult; corpus sizes and seeds are
parameters so CI can dial the same checks up or down.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from linlog.autodiff import forward, seq_tangent, transpose, transpose_f, unzip
from linlog.fresh import NameSupply
from linlog.gen import (jax_cases, lll_f_cases, lll_p_cases,
                        safe_ground_cases)
from linlog.linear_a.expr import JReal, fv_primal
from linlog.linear_a.transform import jax_forward, jax_transpose, jax_unzip
from linlog.linear_a.typecheck import infer_types, jax_workload
from linlog.linear_a.values import Scalar
from linlog.lll.machine import Flops, apply_lanes, apply_value, eval_term
from linlog.lll.prims import prim
from linlog.lll.reduce import (
    beta_steps, is_progress_normal_form, normalize, random_safe_reduce,
    safe_reduce, safe_steps,
)
from linlog.lll.sorts import primal_inner_type
from linlog.lll.terms import (
    Abs, BangVal, PBang, Term, Var, alpha_eq, bang_let, prim_app,
)
from linlog.lll.typecheck import TypingEnv, free_var_types, typecheck
from linlog.lll.types import Lolli, Real, Tensor, affine, workload_type
from linlog.lll.workload import is_safe, workload_term
from linlog.oracle import (
    FD_TOL, EquivConfig, basis_values, dimension_basis_values, equiv_check,
    finite_diff_grad, flatten_value, naive_transpose, random_value_of,
    rows_disagree, run_grad, value_to_numtuple,
)
from linlog.translate import (
    TangentCtx, delta, delta_b_primal, primal_type,
)


@dataclass
class CheckResult:
    name: str
    cases: int
    violations: int
    detail: str = ""  # what failed, printed after the counts

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: {self.cases} cases, " \
               f"{self.violations} violations{extra}"


def _sigma_env(sigma) -> TypingEnv:
    return TypingEnv.of(*[PBang(x, e) for x, e in sigma])


def _jax_lll_env(penv) -> TypingEnv:
    return TypingEnv.of(*[PBang(x, primal_type(t)) for x, t in sorted(penv.items())])


# ----------------------------------------------------------- criterion 1

def check_running_example(cfg: EquivConfig | None = None) -> CheckResult:
    """Gradient of sin(x)*y + cos(x) on a 5x5 grid against the closed
    form (1e-9) and finite differences (1e-5)."""
    cfg = cfg or EquivConfig()
    p = _running_example_term()
    theta = [("x", Real), ("y", Real)]
    bad = 0
    pts = [(-2 + i, -2 + j) for i in range(5) for j in range(5)]
    for (x, y) in pts:
        res = run_grad(p, theta, [Scalar(float(x)), Scalar(float(y))], "tuf")
        gx = math.cos(x) * y - math.sin(x)
        gy = math.sin(x)
        got = [res.gradient[0].value, res.gradient[1].value]
        if abs(got[0] - gx) > 1e-9 * max(1, abs(gx)) or \
                abs(got[1] - gy) > 1e-9 * max(1, abs(gy)):
            bad += 1
            continue
        [fd] = finite_diff_grad(p, theta, [Scalar(float(x)), Scalar(float(y))],
                                cfg)
        if abs(fd[0] - got[0]) > FD_TOL or abs(fd[1] - got[1]) > FD_TOL:
            bad += 1
    return CheckResult("running-example-gradient", len(pts), bad)


def _running_example_term() -> Term:
    def bang(x):
        return BangVal(Var(x))
    return bang_let(
        "v1", Real, prim_app(prim("sin"), [bang("x")]),
        bang_let(
            "v2", Real, prim_app(prim("mul2"), [bang("v1"), bang("y")]),
            bang_let(
                "v3", Real, prim_app(prim("cos"), [bang("x")]),
                bang_let("v4", Real,
                         prim_app(prim("add2"), [bang("v2"), bang("v3")]),
                         bang("v4")))))


# ----------------------------------------------------------- criterion 3

# the share of the flop-bound cases also reduced under a random strategy
RANDOM_STRATEGY_FRACTION = 0.1


def check_flop_bound(n: int = 1000, seed: int = 11) -> CheckResult:
    rng = random.Random(seed * 7 + 1)
    bad = 0
    for i, case in enumerate(safe_ground_cases(n, seed)):
        w = workload_term(case.term)
        out = safe_reduce(case.term)
        if out.numeric_steps > w:
            bad += 1
            continue
        if i < n * RANDOM_STRATEGY_FRACTION:
            _, numeric = random_safe_reduce(case.term, rng)
            if numeric > w:
                bad += 1
    return CheckResult("flop-bound-safe-reduction", n, bad)


# ----------------------------------------------------------- criterion 4

def check_workload_delta(n: int = 500, seed: int = 21) -> CheckResult:
    bad = 0
    cases = jax_cases(n, seed, "linear-a")
    for c in cases:
        d = delta(c.penv, c.theta, c.expr, c.supply)
        w_jax = jax_workload(c.penv, c.tenv, c.expr)
        if workload_term(d) > w_jax:
            bad += 1
        if not is_safe(d, free_var_types(_jax_lll_env(c.penv))):
            bad += 1
    return CheckResult("workload-delta", len(cases), bad)


def check_workload_forward(n: int = 500, seed: int = 22) -> CheckResult:
    bad = 0
    cases = lll_p_cases(n, seed)
    for c in cases:
        f, _ = forward(c.sigma, c.term, c.supply)
        if workload_term(f) > 6 * workload_term(c.term):
            bad += 1
    return CheckResult("workload-forward", len(cases), bad)


def _mixed_corpus(n: int, seed: int):
    """Mixed-sort terms with their environments: forward images plus
    encodings of random first-order programs."""
    out = []
    for c in lll_p_cases((n + 1) // 2, seed):
        f, _ = forward(c.sigma, c.term, c.supply)
        out.append((_sigma_env(c.sigma), f, c.supply))
    for c in jax_cases(n // 2, seed + 1, "linear-a"):
        d = delta(c.penv, c.theta, c.expr, c.supply)
        out.append((_jax_lll_env(c.penv), d, c.supply))
    return out[:n]


def check_workload_unzip(n: int = 500, seed: int = 23) -> CheckResult:
    bad = 0
    cases = _mixed_corpus(n, seed)
    for env, s, supply in cases:
        u = unzip(s, supply)
        if workload_term(u) > workload_term(s):
            bad += 1
    return CheckResult("workload-unzip", len(cases), bad)


def check_workload_transpose(n: int = 500, seed: int = 24) -> CheckResult:
    bad = 0
    cases = _mixed_corpus(n, seed)
    for env, r, supply in cases:
        ty = typecheck(env, r)
        fn = ty.right.right  # !E (x) par(L -o H)
        wl, wh = workload_type(fn.dom), workload_type(fn.cod)
        t = transpose(None, r, supply)
        if workload_term(t) + wl > workload_term(r) + wh:
            bad += 1
    return CheckResult("workload-transpose", len(cases), bad)


# ----------------------------------------------------------- criterion 5

def check_commute_forward(n: int = 200, seed: int = 31,
                          cfg: EquivConfig | None = None) -> CheckResult:
    cfg = cfg or EquivConfig()
    bad = 0
    cases = jax_cases(n, seed, "primal")
    for i, c in enumerate(cases):
        supply = c.supply
        fv = [x for x in c.penv if x in fv_primal(c.expr)]
        phi = {x: f"{x}'" for x in fv}
        lhs_src = delta_b_primal(c.penv, c.expr, supply)
        theta = [(x, primal_type(c.penv[x])) for x in fv]
        lhs, used = forward(theta, lhs_src, supply)
        rhs_jax = jax_forward(phi, c.expr, supply)
        theta2 = [(phi[x], c.penv[x]) for x, _ in used]
        rhs = delta({k: v for k, v in c.penv.items()}, theta2, rhs_jax, supply)
        env = _jax_lll_env({k: v for k, v in c.penv.items() if k in fv})
        if not equiv_check(lhs, rhs, env, cfg).equivalent:
            bad += 1
    return CheckResult("commute-forward", len(cases), bad)


def check_commute_unzip(n: int = 200, seed: int = 32,
                        cfg: EquivConfig | None = None) -> CheckResult:
    cfg = cfg or EquivConfig()
    bad = 0
    cases = jax_cases(n, seed, "linear-a")
    for c in cases:
        supply = c.supply
        lhs = unzip(delta(c.penv, c.theta, c.expr, supply), supply)
        rhs = delta(c.penv, c.theta, jax_unzip(c.expr, supply), supply)
        env = _jax_lll_env(c.penv)
        if not equiv_check(lhs, rhs, env, cfg).equivalent:
            bad += 1
    return CheckResult("commute-unzip", len(cases), bad)


def check_commute_transpose(n: int = 200, seed: int = 33,
                            cfg: EquivConfig | None = None) -> CheckResult:
    cfg = cfg or EquivConfig()
    bad = 0
    cases = jax_cases(n, seed, "linear-b")
    for c in cases:
        supply = c.supply
        _, sg = infer_types(c.expr, c.penv, c.tenv)
        lhs = transpose(None, delta(c.penv, c.theta, c.expr, supply), supply)
        udot = "u'"
        rhs_jax = jax_transpose(c.penv, c.theta, udot, sg, c.expr, supply)
        rhs = delta(c.penv, [(udot, sg)], rhs_jax, supply)
        env = _jax_lll_env(c.penv)
        if not equiv_check(lhs, rhs, env, cfg).equivalent:
            bad += 1
    return CheckResult("commute-transpose", len(cases), bad)


# ----------------------------------------------------------- criterion 6

def _matrix_of(fn_value, dom, flops) -> list[list[float]]:
    cols = [flatten_value(v) for v in
            apply_lanes(fn_value, dimension_basis_values(dom), flops)]
    rows = len(cols[0]) if cols else 0
    return [[cols[j][i] for j in range(len(cols))] for i in range(rows)]


def check_matrix_transpose(n: int = 200, seed: int = 41,
                           cfg: EquivConfig | None = None) -> CheckResult:
    """The matrix of T(f) is the transpose of f's, entry by entry to a
    relative 1e-9.  `cfg` is not read: it is accepted so that every
    commutation-square check takes the same `EquivConfig` argument."""
    rng = random.Random(seed + 5)
    bad = 0
    cases = lll_f_cases(n, seed)
    for c in cases:
        supply = c.supply
        tc = transpose_f({}, c.term, supply)
        values = {x: random_value_of(e, rng) for x, e in c.sigma}
        flops = Flops()
        fv_val = eval_term(c.term, dict(values), flops)
        tv_val = eval_term(tc, dict(values), flops)
        m = _matrix_of(fv_val, c.dom, flops)
        mt = _matrix_of(tv_val, c.cod, flops)
        rows, cols = len(m), len(m[0]) if m else 0
        ok = len(mt) == cols and all(len(r) == rows for r in mt)
        if ok:
            for i in range(rows):
                for j in range(cols):
                    if abs(m[i][j] - mt[j][i]) > 1e-9 * max(1, abs(m[i][j])):
                        ok = False
        if not ok:
            bad += 1
            continue
        # agreement with the reference transpose on basis cotangents
        if isinstance(c.term, Abs):
            q, body = naive_transpose(c.term.pat, c.term.body, c.cod, supply)
            naive = Abs(q, body)
            nv = eval_term(naive, dict(values), Flops())
            for b in basis_values(c.cod):
                got = flatten_value(apply_value(tv_val, b, flops))
                ref = flatten_value(apply_value(nv, b, Flops()))
                if any(abs(a - r) > 1e-9 * max(1, abs(r))
                       for a, r in zip(got, ref)) or len(got) != len(ref):
                    bad += 1
                    break
    return CheckResult("transpose-is-matrix-transpose", len(cases), bad)


# ----------------------------------------------------------- criterion 7

def parallel_example_term():
    """f(Q1, Q2) with independent subcomputations, the modularity example."""
    def bang(x):
        return BangVal(Var(x))
    q1 = bang_let("a1", Real, prim_app(prim("sin"), [bang("x")]),
                  prim_app(prim("exp"), [bang("a1")]))
    q2 = bang_let("a2", Real, prim_app(prim("cos"), [bang("x")]),
                  prim_app(prim("mul2"), [bang("a2"), bang("a2")]))
    return bang_let("y1", Real, q1,
                    bang_let("y2", Real, q2,
                             prim_app(prim("mul2"), [bang("y1"), bang("y2")])))


def check_skip_unzip(n: int = 100, seed: int = 51,
                     cfg: EquivConfig | None = None) -> CheckResult:
    cfg = cfg or EquivConfig()
    rng = random.Random(seed + 9)
    bad = 0
    cases = lll_p_cases(n - 1, seed)
    total = 0
    for c in cases:
        supply = c.supply
        f, _ = forward(c.sigma, c.term, supply)
        tuf = transpose(None, unzip(f, supply), supply)
        tf = transpose(None, f, supply)
        env = _sigma_env(c.sigma)
        try:
            v = equiv_check(tuf, tf, env, cfg)
        except OverflowError:
            continue
        total += 1
        if not v.equivalent:
            bad += 1
            continue
        # scalar-output cases additionally compare gradients numerically
        if v.ty.right.right.dom is Real and all(e is Real for _, e in c.sigma):
            point = [Scalar(rng.uniform(-1.5, 1.5)) for _ in c.sigma]
            try:
                g1 = run_grad(c.term, c.sigma, point, "tuf",
                              supply=supply.clone())
                g2 = run_grad(c.term, c.sigma, point, "tf",
                              supply=supply.clone())
            except OverflowError:
                continue
            for a, b in zip(g1.gradient, g2.gradient):
                if abs(a.value - b.value) > 1e-9 * max(1.0, abs(a.value)):
                    bad += 1
                    break
    # the parallel-structure example, with gradient agreement
    p = parallel_example_term()
    theta = [("x", Real)]
    total += 1
    r1 = run_grad(p, theta, [Scalar(0.7)], "tuf")
    r2 = run_grad(p, theta, [Scalar(0.7)], "tf")
    supply = NameSupply()
    f, _ = forward(theta, p, supply)
    tuf = transpose(None, unzip(f, supply), supply)
    tf = transpose(None, f, supply)
    env = TypingEnv.of(PBang("x", Real))
    if not equiv_check(tuf, tf, env, cfg).equivalent or \
            abs(r1.gradient[0].value - r2.gradient[0].value) > 1e-9:
        bad += 1
    return CheckResult("skip-unzipping", total, bad)


def check_gradients(n: int = 60, seed: int = 52,
                    cfg: EquivConfig | None = None) -> CheckResult:
    """run_grad against finite differences, row by row, with its flops
    within the workload bound: on n generated scalar programs, then on
    the tuple outputs with a scalar component among n primal terms."""
    cfg = cfg or EquivConfig()
    rng = random.Random(seed)
    bad = total = 0
    for c in jax_cases(n * 3, seed, "primal"):
        if total >= n:
            break
        ty, _ = infer_types(c.expr, c.penv, {})
        if ty is not JReal:
            continue
        fv = [x for x in c.penv if x in fv_primal(c.expr)]
        if not fv:
            continue
        term = delta_b_primal(c.penv, c.expr, c.supply)
        point = [Scalar(rng.uniform(-1.5, 1.5)) for _ in fv]
        found = _gradient_violations(term, [(x, Real) for x in fv], point,
                                     c.supply, cfg)
        if found is not None:
            total += 1
            bad += found
    for c in lll_p_cases(n, seed):
        out = primal_inner_type(c.term, dict(c.sigma))
        if out is Real or not c.sigma or not workload_type(seq_tangent(out)):
            continue
        point = [value_to_numtuple(random_value_of(e, rng))
                 for _, e in c.sigma]
        found = _gradient_violations(c.term, c.sigma, point, c.supply, cfg)
        if found is not None:
            total += 1
            bad += found
    return CheckResult("gradient-vs-finite-difference", total, bad)


def _gradient_violations(term, theta, point, supply, cfg) -> int | None:
    """0-2 violations of one gradient, or None if the program overflows."""
    try:
        res = run_grad(term, theta, point, "tuf", supply=supply)
        fd = finite_diff_grad(term, theta, point, cfg)
    except OverflowError:
        return None
    got = res.flat_rows()
    wrong = ([len(r) for r in got] != [len(r) for r in fd]
             or rows_disagree(got, fd, FD_TOL))
    return wrong + (res.flops > res.workload_bound)


# ----------------------------------------------------------- criterion 8

def check_metatheory(n: int = 120, seed: int = 61) -> CheckResult:
    bad = 0
    env0 = TypingEnv()
    cases = safe_ground_cases(n, seed)
    for c in cases:
        term = c.term
        ty = typecheck(env0, term)
        # subject reduction along the whole reduction sequence
        steps = beta_steps(term, 600)
        wrong = next((m for m in steps if typecheck(env0, m) != ty), None)
        if wrong is None and len(steps) == 600:
            bad += 1  # no normal form within 599 steps
            continue
        # the steps end at the leftmost-outermost nf unless one changed type
        if wrong is None:
            cur = lo = steps[-1] if steps else term
        else:
            bad += 1
            cur = wrong
            lo = normalize(term, strategy="leftmost-outermost").result
        # progress: the normal form matches the value grammar
        if not is_progress_normal_form(cur):
            bad += 1
        # confluence spot check at ground types
        ri = normalize(term, strategy="rightmost-innermost")
        if not alpha_eq(lo, ri.result, tol=1e-6):
            bad += 1
        # safety invariance along safe steps
        for cur in [term, *safe_steps(term, 599)]:
            if not is_safe(cur, {}):
                bad += 1
                break
    return CheckResult("metatheory-smoke", len(cases), bad)


def check_safety_closure(n: int = 120, seed: int = 62) -> CheckResult:
    bad = 0
    cases = _mixed_corpus(n, seed)
    for env, s, supply in cases:
        tys = free_var_types(env)
        if not is_safe(s, tys):
            bad += 1
            continue
        u = unzip(s, supply)
        t = transpose(None, s, supply)
        if not is_safe(u, tys) or not is_safe(t, tys):
            bad += 1
    return CheckResult("safety-closure-FUT", len(cases), bad)


def check_typing_closure(n: int = 150, seed: int = 63) -> CheckResult:
    """F, U, T outputs retypecheck at the theorem types."""
    bad = 0
    cases = lll_p_cases(n, seed)
    for c in cases:
        supply = c.supply
        env = _sigma_env(c.sigma)
        ety = typecheck(env, c.term)
        f, used = forward(c.sigma, c.term, supply)
        fty = typecheck(env, f)
        ein = TangentCtx.and_type([(n, seq_tangent(e)) for n, e in used])
        want = Tensor(ety, affine(Lolli(ein, seq_tangent(ety.inner))))
        if fty != want:
            bad += 1
            continue
        u = unzip(f, supply)
        if typecheck(env, u) != fty:
            bad += 1
            continue
        t = transpose(None, u, supply)
        tty = typecheck(env, t)
        fn = fty.right.right
        want_t = Tensor(fty.left, affine(Lolli(fn.cod, fn.dom)))
        if tty != want_t:
            bad += 1
    return CheckResult("typing-closure-FUT", len(cases), bad)


# ------------------------------------------------------------- the battery

def full_battery(scale: float = 1.0, seed: int = 0,
                 cfg: EquivConfig | None = None) -> list[CheckResult]:
    s = lambda k: max(4, int(k * scale))  # noqa: E731
    cfg = cfg or EquivConfig()
    return [
        check_running_example(cfg),
        check_flop_bound(s(1000), seed + 11),
        check_workload_delta(s(500), seed + 21),
        check_workload_forward(s(500), seed + 22),
        check_workload_unzip(s(500), seed + 23),
        check_workload_transpose(s(500), seed + 24),
        check_commute_forward(s(200), seed + 31, cfg),
        check_commute_unzip(s(200), seed + 32, cfg),
        check_commute_transpose(s(200), seed + 33, cfg),
        check_matrix_transpose(s(200), seed + 41, cfg),
        check_skip_unzip(s(100), seed + 51, cfg),
        check_gradients(s(60), seed + 52, cfg),
        check_metatheory(s(120), seed + 61),
        check_safety_closure(s(120), seed + 62),
        check_typing_closure(s(150), seed + 63),
    ]
