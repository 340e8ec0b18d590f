"""The compiled evaluator applies a primitive as `apply_value` does: an
argument of the wrong shape is rejected before the primitive's flop is
counted."""

import re

import pytest

from linlog.lll import App, BangVal, Numeral, PrimFn, TensorPair, prim
from linlog.lll.machine import Flops, MachineError, compile_term, eval_compiled


@pytest.mark.parametrize("m, bad", [
    # a unary primitive on a number that is not under a `!`
    (App(PrimFn(prim("sin")), Numeral(1.0)), "VNum(value=1.0)"),
    # a binary primitive on a pair whose second component is not under a `!`
    (App(PrimFn(prim("mul2")), TensorPair(BangVal(Numeral(1.0)), Numeral(2.0))),
     "VPair(left=VBang(inner=VNum(value=1.0)), right=VNum(value=2.0))"),
])
def test_a_primitive_rejects_a_malformed_argument_without_a_flop(m, bad):
    fl = Flops()
    with pytest.raises(MachineError, match=re.escape(
            f"primitive argument {bad}")):
        eval_compiled(compile_term(m), {}, fl)
    assert fl.count == 0
