from linlog.linear_a.expr import (
    Expr, VarPair, LetPair, PrimTupIntro0, PrimTupIntro2, PrimTupElim0,
    PrimTupElim2, TanTupIntro0, TanTupIntro2, TanTupElim0, TanTupElim2,
    Lit, PrimApp, ZeroDot, AddDot, ScaleDot, Dup, Drop,
    JaxType, JReal, JOne, JProd, jax_workload_type,
    fv_primal, fv_tangent,
    p_var, t_var, let_p, let_t, pair_pt, ptup_e, ttup_e, ttup_vars,
    tan_elim_seq, fuse_jax,
    match_p_var, match_t_var, match_let_p, match_let_t,
    is_primal_expr, is_tangent_expr, is_linear_b, SortViolation,
)
from linlog.linear_a.values import NumTuple, Scalar, UnitTup, NPair, zero_of, ShapeMismatch
from linlog.linear_a.typecheck import (
    typecheck_jax, TangentLinearityViolation, JaxTypeError, jax_workload,
)
from linlog.linear_a.semantics import eval_primal, eval_tangent
from linlog.linear_a.transform import jax_forward, jax_unzip, jax_transpose
