"""Typing of the primal/tangent calculus.

Judgments are G; Gd |- e : (tau; sigma).  Primal variables admit
sharing and weakening; tangent variables are consumed exactly once.
The checker returns which tangent variables a subexpression consumed
and enforces disjointness at every two-premise rule.
"""

from __future__ import annotations

from linlog.errors import LinlogError
from linlog.linear_a.expr import (
    AddDot, Drop, Dup, Expr, JaxType, JOne, JProd, JReal, LetPair, Lit,
    PrimApp, PrimTupElim0, PrimTupElim2, PrimTupIntro0, PrimTupIntro2,
    ScaleDot, TanTupElim0, TanTupElim2, TanTupIntro0, TanTupIntro2, VarPair,
    ZeroDot, jax_workload_type,
)


class JaxTypeError(LinlogError):
    pass


class TangentLinearityViolation(JaxTypeError):
    pass


def typecheck_jax(primal_env: dict[str, JaxType], tangent_env: dict[str, JaxType],
                  e: Expr) -> tuple[JaxType, JaxType]:
    ty, used = _check(e, dict(primal_env), dict(tangent_env))
    missing = set(tangent_env) - used
    if missing:
        raise TangentLinearityViolation(
            f"tangent variables never consumed: {sorted(missing)}")
    return ty


def infer_types(e: Expr, penv, tenv) -> tuple[JaxType, JaxType]:
    """The (tau; sigma) of `e`, not asking that every tangent variable of
    `tenv` be consumed."""
    (ty, sg), _ = _check(e, dict(penv), dict(tenv))
    return ty, sg


def _lookup_p(env, x):
    if x not in env:
        raise JaxTypeError(f"unbound primal variable {x}")
    return env[x]


def _lookup_t(env, t):
    if t not in env:
        raise JaxTypeError(f"unbound tangent variable {t}")
    return env[t]


def _disjoint(u1: set, u2: set):
    dup = u1 & u2
    if dup:
        raise TangentLinearityViolation(
            f"tangent variables used twice: {sorted(dup)}")
    return u1 | u2


def _consume(used: set, t: str):
    if t in used:
        return used - {t}
    raise TangentLinearityViolation(f"bound tangent variable {t} unused")


def _check(e: Expr, penv, tenv) -> tuple[tuple[JaxType, JaxType], set]:
    match e:
        case VarPair(x, t):
            return (_lookup_p(penv, x), _lookup_t(tenv, t)), {t}

        case LetPair(x, t, bound, body):
            (t1, s1), u1 = _check(bound, penv, tenv)
            (ty, sg), u2 = _check(body, penv | {x: t1}, tenv | {t: s1})
            u2 = _consume(u2, t)
            return (ty, sg), _disjoint(u1, u2)

        case PrimTupIntro0() | TanTupIntro0():
            return (JOne, JOne), set()

        case PrimTupIntro2(x1, x2):
            return (JProd(_lookup_p(penv, x1), _lookup_p(penv, x2)), JOne), set()

        case PrimTupElim0(z, body):
            if _lookup_p(penv, z) is not JOne:
                raise JaxTypeError(f"{z} is not a unit tuple")
            return _check(body, penv, tenv)

        case PrimTupElim2(x1, x2, z, body):
            tz = _lookup_p(penv, z)
            if not isinstance(tz, JProd):
                raise JaxTypeError(f"{z} is not a primal pair")
            return _check(body, penv | {x1: tz.left, x2: tz.right}, tenv)

        case TanTupIntro2(t1, t2):
            if t1 == t2:
                raise TangentLinearityViolation(f"{t1} used twice in a tuple")
            return (JOne, JProd(_lookup_t(tenv, t1), _lookup_t(tenv, t2))), {t1, t2}

        case TanTupElim0(z, body):
            if _lookup_t(tenv, z) is not JOne:
                raise JaxTypeError(f"{z} is not a unit tangent")
            (ty, sg), u = _check(body, penv, tenv)
            return (ty, sg), _disjoint(u, {z})

        case TanTupElim2(t1, t2, z, body):
            tz = _lookup_t(tenv, z)
            if not isinstance(tz, JProd):
                raise JaxTypeError(f"{z} is not a tangent pair")
            (ty, sg), u = _check(body, penv, tenv | {t1: tz.left, t2: tz.right})
            u = _consume(_consume(u, t1), t2)
            return (ty, sg), _disjoint(u, {z})

        case Lit(_):
            return (JReal, JOne), set()

        case PrimApp(f, args):
            for x in args:
                if _lookup_p(penv, x) is not JReal:
                    raise JaxTypeError(f"primitive argument {x} is not scalar")
            if len(args) != f.arity:
                raise JaxTypeError(f"{f.name} expects {f.arity} arguments")
            return (JReal, JOne), set()

        case ZeroDot(t):
            return (JOne, t), set()

        case AddDot(t1, t2):
            if t1 == t2:
                raise TangentLinearityViolation(f"{t1} added to itself")
            a, b = _lookup_t(tenv, t1), _lookup_t(tenv, t2)
            if a != b:
                raise JaxTypeError("addition of unequal tangent types")
            return (JOne, a), {t1, t2}

        case ScaleDot(x, t):
            if _lookup_p(penv, x) is not JReal:
                raise JaxTypeError(f"scaling factor {x} is not scalar")
            return (JOne, _lookup_t(tenv, t)), {t}

        case Dup(t):
            a = _lookup_t(tenv, t)
            return (JOne, JProd(a, a)), {t}

        case Drop(body):
            _ty, u = _check(body, penv, tenv)
            return (JOne, JOne), u

    raise AssertionError(e)


def jax_workload(primal_env, tangent_env, e: Expr) -> int:
    """Static flop count: primitives and literals cost 1, dotted addition
    and scaling cost the scalar count of their result, zeros one more,
    drop additionally pays for both erased outputs."""

    def go(e, penv, tenv):
        match e:
            case VarPair(_, _) | PrimTupIntro0() | TanTupIntro0() | \
                    PrimTupIntro2(_, _) | TanTupIntro2(_, _):
                return 0, _types(e, penv, tenv)
            case LetPair(x, t, bound, body):
                w1, (t1, s1) = go(bound, penv, tenv)
                w2, res = go(body, penv | {x: t1}, tenv | {t: s1})
                return w1 + w2, res
            case PrimTupElim0(_, body):
                w, res = go(body, penv, tenv)
                return w, res
            case PrimTupElim2(x1, x2, z, body):
                tz = penv[z]
                return go(body, penv | {x1: tz.left, x2: tz.right}, tenv)
            case TanTupElim0(_, body):
                return go(body, penv, tenv)
            case TanTupElim2(t1, t2, z, body):
                tz = tenv[z]
                return go(body, penv, tenv | {t1: tz.left, t2: tz.right})
            case Lit(_) | PrimApp(_, _):
                return 1, _types(e, penv, tenv)
            case ZeroDot(t):
                return 1 + jax_workload_type(t), (JOne, t)
            case AddDot(t1, _):
                return jax_workload_type(tenv[t1]), (JOne, tenv[t1])
            case ScaleDot(_, t):
                return jax_workload_type(tenv[t]), (JOne, tenv[t])
            case Dup(t):
                return 0, (JOne, JProd(tenv[t], tenv[t]))
            case Drop(body):
                w, (ty, sg) = go(body, penv, tenv)
                return w + jax_workload_type(ty) + jax_workload_type(sg), (JOne, JOne)
        raise AssertionError(e)

    def _types(e, penv, tenv):
        match e:
            case VarPair(x, t):
                return penv[x], tenv[t]
            case PrimTupIntro0() | TanTupIntro0():
                return JOne, JOne
            case PrimTupIntro2(x1, x2):
                return JProd(penv[x1], penv[x2]), JOne
            case TanTupIntro2(t1, t2):
                return JOne, JProd(tenv[t1], tenv[t2])
            case Lit(_) | PrimApp(_, _):
                return JReal, JOne
        raise AssertionError(e)

    w, _ = go(e, dict(primal_env), dict(tangent_env))
    return w
