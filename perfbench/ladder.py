"""Straight-line Linear-A programs for the gradient workload, and their
reference derivatives by forward-mode dual numbers.

A program is a list of `let-p` bindings over scalar inputs, each applying
sin, cos, add2, sub2 or mul2 to earlier variables.  The generator tracks a
bound on every variable's magnitude over the whole input box and picks a
binary operation only while its result stays within `LIMIT`, so every
intermediate is finite and bounded at any sampled point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

INPUT_BOX = 1.5   # inputs are drawn from [-INPUT_BOX, INPUT_BOX]
LIMIT = 4.0       # bound on every intermediate's magnitude
WINDOW = 6        # binary ops pick operands among the latest variables


@dataclass(frozen=True)
class Program:
    inputs: tuple[str, ...]
    lets: tuple[tuple[str, str, tuple[str, ...]], ...]
    outputs: tuple[str, ...]

    def source(self) -> str:
        """The program in the `linear-a` surface syntax."""
        body = f"(var-p {self.outputs[-1]})"
        for o in reversed(self.outputs[:-1]):
            body = f"(ptup-e (var-p {o}) {body})"
        for v, op, args in reversed(self.lets):
            body = f"(let-p {v} (prim {op} {' '.join(args)}) {body})"
        header = " ".join(f"({x} real)" for x in self.inputs)
        return f"(linear-a (primal {header}) (expr {body}))"

    def used_inputs(self) -> list[str]:
        used = {a for _, _, args in self.lets for a in args}
        return [x for x in self.inputs if x in used]


def generate(rng: random.Random, n_lets: int, n_inputs: int,
             n_outputs: int) -> Program:
    inputs = tuple(f"x{i}" for i in range(n_inputs))
    names = list(inputs)
    bound = dict.fromkeys(inputs, INPUT_BOX)
    lets = []
    for i in range(n_lets):
        pool = names[-WINDOW:] + list(inputs) if len(names) > WINDOW else names
        a, b = rng.choice(pool), rng.choice(pool)
        ops = ["sin", "cos"]
        if bound[a] + bound[b] <= LIMIT:
            ops += ["add2", "sub2"]
        if bound[a] * bound[b] <= LIMIT:
            ops.append("mul2")
        op = rng.choice(ops)
        v = f"v{i}"
        if op in ("sin", "cos"):
            lets.append((v, op, (a,)))
            bound[v] = 1.0
        else:
            lets.append((v, op, (a, b)))
            bound[v] = bound[a] * bound[b] if op == "mul2" else bound[a] + bound[b]
        names.append(v)
    lets_names = names[n_inputs:]
    outputs = [lets_names[-1]] + rng.sample(lets_names[:-1], n_outputs - 1)
    return Program(inputs, tuple(lets), tuple(outputs))


def reference(prog: Program, point: dict[str, float]):
    """Primal outputs and, per output, the gradient with respect to the
    used inputs, by dual numbers carrying one tangent per input."""
    wrt = prog.used_inputs()
    k = len(wrt)
    val = dict(point)
    tan = {x: [1.0 if j == i else 0.0 for j in range(k)]
           for i, x in enumerate(wrt)}
    for v, op, args in prog.lets:
        a = args[0]
        da = tan[a]
        if op == "sin":
            val[v] = math.sin(val[a])
            c = math.cos(val[a])
            tan[v] = [c * d for d in da]
        elif op == "cos":
            val[v] = math.cos(val[a])
            s = -math.sin(val[a])
            tan[v] = [s * d for d in da]
        else:
            b = args[1]
            db = tan[b]
            if op == "add2":
                val[v] = val[a] + val[b]
                tan[v] = [p + q for p, q in zip(da, db)]
            elif op == "sub2":
                val[v] = val[a] - val[b]
                tan[v] = [p - q for p, q in zip(da, db)]
            else:
                val[v] = val[a] * val[b]
                tan[v] = [val[b] * p + val[a] * q for p, q in zip(da, db)]
    return [val[o] for o in prog.outputs], [tan[o] for o in prog.outputs]


def close(got: float, want: float, rel: float = 1e-9) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want))

