"""Command-line driver.

Commands: typecheck, eval, jvp, grad, workload, check, compare.  Every
command prints a human-readable section and, with --format=machine, a
stable line-oriented key=value section.  Exit codes: 0 all checks pass,
1 a check failed, 2 a usage error or a rejected input (a missing file, or
a `LinlogError` such as a syntax or typing error), 3 an internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import traceback

from linlog.autodiff import forward, transpose, unzip
from linlog.checks import CheckResult, full_battery
from linlog.errors import LinlogError
from linlog.fresh import NameSupply
from linlog.frontend import SourceFile, parse, parse_point
from linlog.linear_a.expr import (
    JaxType, JOne, JProd, JReal, fv_primal, fv_tangent,
)
from linlog.linear_a.semantics import eval_primal
from linlog.linear_a.typecheck import jax_workload, typecheck_jax
from linlog.linear_a.values import NPair, NumTuple, Scalar
from linlog.lll.machine import Flops, VWith, apply_value, eval_term, run
from linlog.lll.terms import PBang
from linlog.lll.typecheck import TypingEnv, free_var_types, typecheck
from linlog.lll.types import Bang, LType, One, Real, Tensor, workload_type
from linlog.lll.workload import is_safe, workload_term
from linlog.oracle import (
    FD_TOL, EquivConfig, equiv_check, finite_diff_grad,
    numtuple_to_primal_value, numtuple_to_tangent_value, rows_disagree,
    run_grad, value_to_numtuple,
)
from linlog.translate import delta, delta_b_primal, primal_type


class Report:
    def __init__(self, command: str):
        self.command = command
        self.human: list[str] = []
        self.machine: dict[str, str] = {"command": command}
        self.failed = False

    def say(self, line: str):
        self.human.append(line)

    def put(self, key: str, value):
        if isinstance(value, float):
            value = repr(value)
        self.machine[key] = str(value)

    def fail(self, line: str):
        self.failed = True
        self.human.append("FAIL " + line)

    def emit(self, fmt: str):
        if fmt == "machine":
            for k in sorted(self.machine):
                print(f"{k}={self.machine[k]}")
            print(f"status={'fail' if self.failed else 'ok'}")
        else:
            for line in self.human:
                print(line)
            if self.failed:
                print("status: FAIL")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load(path: str, report: Report) -> SourceFile:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    report.put("input.digest", _digest(text))
    return parse(text)


def _nt_str(v: NumTuple) -> str:
    return repr(v)


def _nt_exact(v: NumTuple) -> str:
    """Full-precision rendering for the machine section."""
    match v:
        case Scalar(x):
            return repr(x)
        case NPair(l, r):
            return f"({_nt_exact(l)}, {_nt_exact(r)})"
    return "()"


def _lina_primal_setup(sf: SourceFile, supply: NameSupply):
    """Lower a purely primal program to the linear calculus."""
    penv = dict(sf.primal)
    term = delta_b_primal(penv, sf.body, supply)
    fv = fv_primal(sf.body)
    shapes = [(x, t) for x, t in sf.primal if x in fv]
    return term, [(x, primal_type(t)) for x, t in shapes], [t for _, t in shapes]


def _grad_setup(sf: SourceFile, supply: NameSupply):
    if sf.dialect == "linear-a":
        return _lina_primal_setup(sf, supply)
    term = sf.body
    theta = []
    shapes = []
    for p in sf.env:
        if not isinstance(p, PBang):
            raise LinlogError("grad requires a !-variable header")
        theta.append((p.name, p.ty))
        shapes.append(_ltype_to_jax(p.ty))
    return term, theta, shapes


def _ltype_to_jax(t: LType) -> JaxType:
    match t:
        case x if x is Real:
            return JReal
        case x if x is One:
            return JOne
        case Tensor(Bang(l), Bang(r)):
            return JProd(_ltype_to_jax(l), _ltype_to_jax(r))
    raise LinlogError(f"header type {t!r} is not a tensor sequence")


def cmd_typecheck(args, report: Report):
    sf = _load(args.file, report)
    if sf.dialect == "linear-a":
        ty = typecheck_jax(dict(sf.primal), dict(sf.tangent), sf.body)
        report.say(f"linear-a program : ({ty[0]!r}; {ty[1]!r})")
        report.put("type.primal", repr(ty[0]))
        report.put("type.tangent", repr(ty[1]))
    else:
        env = TypingEnv.of(*sf.env)
        ty = typecheck(env, sf.body)
        report.say(f"lll term : {ty!r}")
        report.put("type", repr(ty))


def cmd_eval(args, report: Report):
    sf = _load(args.file, report)
    if sf.dialect == "linear-a":
        shapes = [t for _, t in sf.primal]
        point = parse_point(args.point, shapes)
        renv = {x: v for (x, _), v in zip(sf.primal, point)}
        out = eval_primal(sf.body, renv)
    else:
        term, theta, shapes = _grad_setup(sf, NameSupply())
        point = parse_point(args.point, shapes)
        values = {n: numtuple_to_primal_value(v)
                  for (n, _), v in zip(theta, point)}
        v, flops = run(term, values)
        report.put("flops", flops)
        out = value_to_numtuple(v)
    report.say(f"value = {_nt_str(out)}")
    report.put("value", _nt_str(out))


def cmd_jvp(args, report: Report):
    sf = _load(args.file, report)
    supply = NameSupply()
    term, theta, shapes = _grad_setup(sf, supply)
    point = parse_point(args.point, shapes)
    tangent = parse_point(args.tangent, shapes)
    f, enum = forward(theta, term, supply)
    values = {n: numtuple_to_primal_value(v) for (n, _), v in zip(theta, point)}
    flops = Flops()
    out = eval_term(f, values, flops)
    primal = value_to_numtuple(out.left.inner)
    by_name = {n: t for (n, _), t in zip(theta, tangent)}
    tanvals = [numtuple_to_tangent_value(by_name[n]) for n, _ in enum]
    tv = tanvals[-1]
    for v in reversed(tanvals[:-1]):
        tv = VWith(v, tv)
    jv = value_to_numtuple(apply_value(out.right.right, tv, flops))
    report.say(f"primal  = {_nt_str(primal)}")
    report.say(f"tangent = {_nt_str(jv)}")
    report.put("primal", _nt_str(primal))
    report.put("tangent", _nt_str(jv))
    report.put("flops", flops.count)


def _row(gradient: list[NumTuple], show) -> str:
    return "(" + ", ".join(show(g) for g in gradient) + ")"


def cmd_grad(args, report: Report):
    sf = _load(args.file, report)
    supply = NameSupply()
    term, theta, shapes = _grad_setup(sf, supply)
    point = parse_point(args.point, shapes)
    res = run_grad(term, theta, point, args.pipeline,
                   simplify_output=args.simplify, supply=supply)
    report.say(f"primal = {_nt_str(res.primal)}")
    report.put("primal", _nt_exact(res.primal))
    if res.jacobian_t is None:
        report.say(f"grad   = {_row(res.gradient, _nt_str)}")
        report.put("grad", _row(res.gradient, _nt_exact))
    else:
        # a tuple output: row i is the gradient of output component i
        for i, row in enumerate(res.jacobian_t):
            report.say(f"grad[{i}] = {_row(row, _nt_str)}")
            report.put(f"grad.{i:02d}", _row(row, _nt_exact))
    report.say(f"flops  = {res.flops} (workload bound {res.workload_bound})")
    report.put("flops", res.flops)
    report.put("workload_bound", res.workload_bound)
    if res.flops > res.workload_bound:
        report.fail("flop count exceeds the workload bound")


def cmd_workload(args, report: Report):
    sf = _load(args.file, report)
    supply = NameSupply()
    stages = {}
    if sf.dialect == "linear-a":
        w_src = jax_workload(dict(sf.primal), dict(sf.tangent), sf.body)
        stages["src"] = w_src
        report.say(f"W(source)   = {w_src}")
        theta = [(x, t) for x, t in sf.tangent if x in fv_tangent(sf.body)]
        d = delta(dict(sf.primal), theta, sf.body, supply)
        stages["delta"] = workload_term(d)
        report.say(f"W(delta)    = {stages['delta']}"
                   f"   [<= W(source): {'PASS' if stages['delta'] <= w_src else 'FAIL'}]")
        if stages["delta"] > w_src:
            report.fail("delta workload bound")
        term = None
        if fv_tangent(sf.body):
            report.say("(forward/unzip/transpose stages need a purely "
                       "primal program; skipped)")
        else:
            term, theta_l, _ = _lina_primal_setup(sf, supply)
    else:
        term = sf.body
        stages["src"] = workload_term(term)
        report.say(f"W(term)     = {stages['src']}")
        _, theta_l, _ = _grad_setup(sf, supply)
    if term is not None:
        w_p = workload_term(term)
        f, enum = forward(theta_l, term, supply)
        stages["F"] = workload_term(f)
        ok_f = stages["F"] <= 6 * w_p
        report.say(f"W(F)        = {stages['F']}   [<= 6*W: {'PASS' if ok_f else 'FAIL'}]")
        if not ok_f:
            report.fail("forward workload bound")
        u = unzip(f, supply)
        stages["U"] = workload_term(u)
        ok_u = stages["U"] <= stages["F"]
        report.say(f"W(U)        = {stages['U']}   [<= W(F): {'PASS' if ok_u else 'FAIL'}]")
        if not ok_u:
            report.fail("unzip workload bound")
        t = transpose(None, u, supply)
        stages["T"] = workload_term(t)
        env = TypingEnv.of(*[PBang(x, e) for x, e in theta_l])
        fn = typecheck(env, u).right.right
        wl, wh = workload_type(fn.dom), workload_type(fn.cod)
        ok_t = stages["T"] + wl <= stages["U"] + wh
        report.say(f"W(T)        = {stages['T']}   "
                   f"[W(T)+W(L) <= W(R)+W(H): {'PASS' if ok_t else 'FAIL'}]")
        if not ok_t:
            report.fail("transpose workload bound")
    for k, v in stages.items():
        report.put(f"workload.{k}", v)


def cmd_compare(args, report: Report):
    sf = _load(args.file, report)
    supply = NameSupply()
    term, theta, shapes = _grad_setup(sf, supply)
    point = parse_point(args.point, shapes)
    r1 = run_grad(term, theta, point, "tuf", supply=supply.clone())
    r2 = run_grad(term, theta, point, "tf", supply=supply.clone())
    fd = finite_diff_grad(term, theta, point, EquivConfig(fd_step=args.fd_step))
    g1, g2 = r1.flat_rows(), r2.flat_rows()
    report.say(f"primal          = {_nt_str(r1.primal)}")
    for label, key, rows, note in (
            ("grad TUF", "tuf", g1, f"   ({r1.flops} flops)"),
            ("grad TF", "tf", g2, f"   ({r2.flops} flops)"),
            ("finite diff", "fd", fd, "")):
        for i, row in enumerate(rows):
            # a tuple output: row i is the gradient of output component i
            at, dot = ("", "") if r1.jacobian_t is None else (f"[{i}]", f".{i:02d}")
            report.say(f"{label + at:<16}= {row}{note}")
            report.put(f"grad.{key}{dot}", repr(row))
    report.put("flops.tuf", r1.flops)
    report.put("flops.tf", r2.flops)
    if rows_disagree(g1, g2, args.tol):
        report.fail("TUF and TF gradients disagree")
    if rows_disagree(g1, fd, FD_TOL):
        report.fail("gradient disagrees with finite differences")


def cmd_check(args, report: Report):
    cfg = EquivConfig(sample_count=4, rng_seed=args.seed)
    results = []
    if args.random:
        scale = args.random / 1000.0
        results = full_battery(scale=scale, seed=args.seed, cfg=cfg)
    else:
        sf = _load(args.file, report)
        supply = NameSupply()
        if sf.dialect == "linear-a" and fv_tangent(sf.body):
            # a general program: check its typing, encoding and workload
            ty = typecheck_jax(dict(sf.primal), dict(sf.tangent), sf.body)
            report.say(f"typecheck: ok at ({ty[0]!r}; {ty[1]!r})")
            theta_j = [(x, t) for x, t in sf.tangent
                       if x in fv_tangent(sf.body)]
            d = delta(dict(sf.primal), theta_j, sf.body, supply)
            env = TypingEnv.of(*[PBang(x, primal_type(t))
                                 for x, t in sf.primal
                                 if x in fv_primal(sf.body)])
            typecheck(env, d)
            w_ok = workload_term(d) <= jax_workload(dict(sf.primal),
                                                    dict(sf.tangent), sf.body)
            results.append(CheckResult("encoding-typechecks", 1, 0))
            results.append(CheckResult("encoding-workload", 1,
                                               0 if w_ok else 1))
            results.append(CheckResult(
                "encoding-safe", 1,
                0 if is_safe(d, free_var_types(env)) else 1))
        else:
            term, theta, shapes = _grad_setup(sf, supply)
            env = TypingEnv.of(*[PBang(x, e) for x, e in theta])
            typecheck(env, term)
            report.say("typecheck: ok")
            f, enum = forward(theta, term, supply)
            tuf = transpose(None, unzip(f, supply), supply)
            tf = transpose(None, f, supply)
            v = equiv_check(tuf, tf, env, cfg)
            results.append(CheckResult("skip-unzipping", 1, 0 if v else 1))
            ok_safe = all(is_safe(m, free_var_types(env)) for m in (term, f, tuf))
            results.append(CheckResult("safety-closure", 1, 0 if ok_safe else 1))
            if all(e is JReal for e in shapes):
                point = [Scalar(0.5 + 0.25 * i) for i in range(len(shapes))]
                res = run_grad(term, theta, point, "tuf", supply=supply)
                bad = rows_disagree(res.flat_rows(),
                                    finite_diff_grad(term, theta, point), FD_TOL)
                results.append(CheckResult("gradient-agreement", 1, int(bad)))
    for i, r in enumerate(results):
        report.say(r.line())
        report.put(f"check.{i:02d}.{r.name}", "pass" if r.passed else "fail")
        if not r.passed:
            report.failed = True


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["human", "machine"], default="human")

    ap = argparse.ArgumentParser(
        prog="linlog",
        description="linear-logic lambda calculus with reverse-mode AD")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("typecheck", parents=[common], help="type a source file")
    p.add_argument("file")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate the primal value at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True)

    p = sub.add_parser("jvp", parents=[common],
                       help="forward-mode directional derivative")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.add_argument("--tangent", required=True)

    p = sub.add_parser("grad", parents=[common], help="reverse-mode gradient")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.add_argument("--pipeline", choices=["tuf", "tf"], default="tuf")
    p.add_argument("--simplify", action="store_true")

    p = sub.add_parser("workload", parents=[common],
                       help="workload at each pipeline stage")
    p.add_argument("file")

    p = sub.add_parser("check", parents=[common], help="run the property suite")
    p.add_argument("file", nargs="?")
    p.add_argument("--random", type=int, default=0,
                   help="generate this many cases instead of reading a file")
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get("LINLOG_SEED", "0")))

    p = sub.add_parser("compare", parents=[common],
                       help="TUF vs TF vs finite differences")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--fd-step", type=float, default=1e-6)

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.cmd == "check" and not args.random and not args.file:
        print("check needs a file or --random N", file=sys.stderr)
        return 2
    if args.cmd == "check" and args.random and args.file:
        print("check takes a file or --random N, not both", file=sys.stderr)
        return 2

    report = Report(args.cmd)
    handler = {
        "typecheck": cmd_typecheck, "eval": cmd_eval, "jvp": cmd_jvp,
        "grad": cmd_grad, "workload": cmd_workload, "check": cmd_check,
        "compare": cmd_compare,
    }[args.cmd]
    try:
        handler(args, report)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LinlogError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    report.emit(args.format)
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
