"""The per-value comparison of `linlog.oracle`, kept as the reference for
the lane-batched one.

It applies each side of a linear map to one probe vector at a time, the
canonical basis first, then each sample just after it is drawn, and stops
at the first probe on which the sides differ.  `tests/test_oracle.py` asks
`equiv_check` here and in `linlog.oracle` for the same verdict and the same
counterexample.
"""

import random

from linlog.errors import NotWithSeq
from linlog.lll.machine import (
    Flops, Value, VBang, VPair, VWith, apply_value, compile_term,
    eval_compiled, values_close,
)
from linlog.lll.typecheck import TypeMismatch, TypingEnv, typecheck
from linlog.lll.types import (
    Bang, LType, Lolli, One, Real, Tensor, Top, With, is_with_seq,
)
from linlog.oracle import (
    SCALAR_REL_TOL, EquivConfig, Verdict, _close_env, basis_values,
    random_value_of,
)


def _compare(ty: LType, a: Value, b: Value, cfg: EquivConfig,
             rng: random.Random, flops: Flops, bases: dict) -> bool:
    match ty:
        case t if t in (Real, One, Top):
            return values_close(a, b, SCALAR_REL_TOL)
        case Bang(i):
            return isinstance(a, VBang) and isinstance(b, VBang) and \
                _compare(i, a.inner, b.inner, cfg, rng, flops, bases)
        case Tensor(l, r):
            return isinstance(a, VPair) and isinstance(b, VPair) and \
                _compare(l, a.left, b.left, cfg, rng, flops, bases) and \
                _compare(r, a.right, b.right, cfg, rng, flops, bases)
        case With(l, r):
            return isinstance(a, VWith) and isinstance(b, VWith) and \
                _compare(l, a.left, b.left, cfg, rng, flops, bases) and \
                _compare(r, a.right, b.right, cfg, rng, flops, bases)
        case Lolli(dom, cod) if is_with_seq(dom):
            dom_basis = bases.get(dom)
            if dom_basis is None:
                dom_basis = bases[dom] = basis_values(dom)
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


def equiv_check(m, n, env: TypingEnv,
                cfg: EquivConfig | None = None) -> Verdict:
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
