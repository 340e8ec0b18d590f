"""Typing of the primal/tangent calculus.

Judgments are G; Gd |- e : (tau; sigma).  Primal variables admit
sharing and weakening; tangent variables are consumed exactly once.
The checker returns which tangent variables a subexpression consumed
and enforces disjointness at every two-premise rule; the same walk
counts the static workload.
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
    ty, used, _ = _check(e, dict(primal_env), dict(tangent_env))
    missing = set(tangent_env) - used
    if missing:
        raise TangentLinearityViolation(
            f"tangent variables never consumed: {sorted(missing)}")
    return ty


def infer_types(e: Expr, penv, tenv) -> tuple[JaxType, JaxType]:
    """The (tau; sigma) of `e`, not asking that every tangent variable of
    `tenv` be consumed."""
    return _check(e, dict(penv), dict(tenv))[0]


def jax_workload(primal_env, tangent_env, e: Expr) -> int:
    """Static flop count: primitives and literals cost 1, dotted addition
    and scaling cost the scalar count of their result, zeros one more,
    drop additionally pays for both erased outputs."""
    return _check(e, dict(primal_env), dict(tangent_env))[2]


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


def _check(e: Expr, penv, tenv) -> tuple[tuple[JaxType, JaxType], set, int]:
    """The (tau; sigma) of `e`, the tangent variables it consumes and its
    static workload."""
    match e:
        case VarPair(x, t):
            return (_lookup_p(penv, x), _lookup_t(tenv, t)), {t}, 0

        case LetPair(x, t, bound, body):
            (t1, s1), u1, w1 = _check(bound, penv, tenv)
            ty, u2, w2 = _check(body, penv | {x: t1}, tenv | {t: s1})
            return ty, _disjoint(u1, _consume(u2, t)), w1 + w2

        case PrimTupIntro0() | TanTupIntro0():
            return (JOne, JOne), set(), 0

        case PrimTupIntro2(x1, x2):
            return (JProd(_lookup_p(penv, x1), _lookup_p(penv, x2)), JOne), set(), 0

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
            return ((JOne, JProd(_lookup_t(tenv, t1), _lookup_t(tenv, t2))),
                    {t1, t2}, 0)

        case TanTupElim0(z, body):
            if _lookup_t(tenv, z) is not JOne:
                raise JaxTypeError(f"{z} is not a unit tangent")
            ty, u, w = _check(body, penv, tenv)
            return ty, _disjoint(u, {z}), w

        case TanTupElim2(t1, t2, z, body):
            tz = _lookup_t(tenv, z)
            if not isinstance(tz, JProd):
                raise JaxTypeError(f"{z} is not a tangent pair")
            ty, u, w = _check(body, penv, tenv | {t1: tz.left, t2: tz.right})
            return ty, _disjoint(_consume(_consume(u, t1), t2), {z}), w

        case Lit(_):
            return (JReal, JOne), set(), 1

        case PrimApp(f, args):
            for x in args:
                if _lookup_p(penv, x) is not JReal:
                    raise JaxTypeError(f"primitive argument {x} is not scalar")
            if len(args) != f.arity:
                raise JaxTypeError(f"{f.name} expects {f.arity} arguments")
            return (JReal, JOne), set(), 1

        case ZeroDot(t):
            return (JOne, t), set(), 1 + jax_workload_type(t)

        case AddDot(t1, t2):
            if t1 == t2:
                raise TangentLinearityViolation(f"{t1} added to itself")
            a, b = _lookup_t(tenv, t1), _lookup_t(tenv, t2)
            if a != b:
                raise JaxTypeError("addition of unequal tangent types")
            return (JOne, a), {t1, t2}, jax_workload_type(a)

        case ScaleDot(x, t):
            if _lookup_p(penv, x) is not JReal:
                raise JaxTypeError(f"scaling factor {x} is not scalar")
            a = _lookup_t(tenv, t)
            return (JOne, a), {t}, jax_workload_type(a)

        case Dup(t):
            a = _lookup_t(tenv, t)
            return (JOne, JProd(a, a)), {t}, 0

        case Drop(body):
            (ty, sg), u, w = _check(body, penv, tenv)
            return ((JOne, JOne), u,
                    w + jax_workload_type(ty) + jax_workload_type(sg))

    raise AssertionError(e)
