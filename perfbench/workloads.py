"""The benchmark's workloads.

An op is one request whose latency is timed.  Each workload turns the run
seed into an endless, reproducible op stream: op `i` depends only on the
seed and `i`.  `call(i)` is the timed part and returns only what `check`
needs, so no term outlives its op.  `check(i, result)` compares the result
with a reference that does not come from the code under test and returns
`(ok, det)`, where `det` holds the op's deterministic outputs.

The first `window` ops of every run, traced or not, form the determinism
window: their deterministic outputs must repeat bit for bit.
"""

from __future__ import annotations

import importlib
import random
import sys
from types import SimpleNamespace

import ladder


def load_linlog(modules: list[str]) -> SimpleNamespace:
    """Import the package afresh, so that set-up time includes imports."""
    for name in [n for n in sys.modules
                 if n == "linlog" or n.startswith("linlog.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m.rsplit(".", 1)[-1]: importlib.import_module(m)
                              for m in modules})


# ------------------------------------------------------------ grad-ladder

# (lets, inputs, outputs), cycled; one program in three returns a tuple.
# Half the cycle is 30-let scalar programs, so the median op is one of them
# whatever the number of ops a run completes; the other half spans the
# ladder.  It stops at 75 lets: 100 lets exceed the default recursion limit.
LADDER = [(30, 2, 1), (10, 2, 3), (30, 3, 1), (75, 2, 1), (30, 2, 1),
          (15, 3, 2), (30, 3, 1), (50, 2, 1), (30, 2, 1), (20, 3, 2),
          (30, 3, 1), (10, 2, 2)]
LADDER_CORPUS = 6 * len(LADDER)   # programs generated per run, then reused
WARM_UP = (10, 2, 1)


class GradLadder:
    name = "grad-ladder"
    modules = ["linlog.fresh", "linlog.frontend", "linlog.translate",
               "linlog.oracle", "linlog.linear_a.expr",
               "linlog.linear_a.values"]
    window = len(LADDER)
    setups = 11

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.corpus = [self._case(random.Random(f"grad-ladder:{seed}:{i}"),
                                  LADDER[i % len(LADDER)])
                       for i in range(LADDER_CORPUS)]

    @staticmethod
    def _case(rng, shape):
        prog = ladder.generate(rng, *shape)
        point = {x: rng.uniform(-ladder.INPUT_BOX, ladder.INPUT_BOX)
                 for x in prog.inputs}
        return prog.source(), point, prog, ladder.reference(prog, point)

    def warm_up(self):
        self._grad(self._case(random.Random("grad-ladder:warm-up"), WARM_UP))

    def call(self, i: int):
        return self._grad(self.corpus[i % len(self.corpus)])

    def check(self, i: int, res):
        return self._check(self.corpus[i % len(self.corpus)], res)

    def _grad(self, case):
        """parse -> delta -> run_grad, with theta filtered by fv_primal as
        the command line's grad does."""
        lib = self.lib
        src, point, _, _ = case
        supply = lib.fresh.NameSupply()
        sf = lib.frontend.parse(src, supply)
        term = lib.translate.delta_b_primal(dict(sf.primal), sf.body, supply)
        fv = lib.expr.fv_primal(sf.body)
        theta = [(x, lib.translate.primal_type(t)) for x, t in sf.primal
                 if x in fv]
        at = [lib.values.Scalar(point[x]) for x, _ in theta]
        return lib.oracle.run_grad(term, theta, at, pipeline="tuf",
                                   supply=supply)

    def _check(self, case, res):
        _, _, prog, (want_out, want_rows) = case
        flat = self.lib.values.flatten
        out = flat(res.primal)
        rows = [res.gradient] if len(prog.outputs) == 1 else res.jacobian_t
        got_rows = [[g for nt in row for g in flat(nt)] for row in rows]
        ok = (len(out) == len(want_out)
              and all(ladder.close(g, w) for g, w in zip(out, want_out))
              and len(got_rows) == len(want_rows)
              and all(len(g) == len(w)
                      and all(ladder.close(a, b) for a, b in zip(g, w))
                      for g, w in zip(got_rows, want_rows))
              and res.flops <= res.workload_bound)
        values = out + [g for row in got_rows for g in row]
        return ok, {"flops": res.flops, "workload_bound": res.workload_bound,
                    "values": values}


# ---------------------------------------------------------------- battery

class Battery:
    """Ops are single check calls on one- or two-case corpora, each with its
    own seed; the known answer is 0 violations."""

    modules = ["linlog.checks", "linlog.oracle"]
    kinds: list[tuple[str, int]] = []  # (check function, corpus size), cycled
    equivalence = False  # whether the checks take an EquivConfig

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.cfg = lib.oracle.EquivConfig(sample_count=16)
        self.seed = seed
        self.window = len(self.kinds)

    def _run(self, kind: int, case_seed: int):
        fn, n = self.kinds[kind]
        f = getattr(self.lib.checks, fn)
        if self.equivalence:
            return f(n, case_seed, self.cfg)
        return f(n, case_seed)

    def warm_up(self):
        """One case of each distinct check, on a fixed seed."""
        seen = set()
        for k, (fn, _) in enumerate(self.kinds):
            if fn not in seen:
                seen.add(fn)
                self._run(k, 0)

    def call(self, i: int):
        r = self._run(i % len(self.kinds), self.seed * 1_000_003 + i)
        return r.name, r.cases, r.violations

    def check(self, i: int, res):
        name, cases, violations = res
        return cases >= 1 and violations == 0, \
            {"check": name, "cases": cases, "violations": violations}


class BatterySquares(Battery):
    name = "battery-squares"
    equivalence = True
    setups = 4  # each takes about 2 s
    # skip-unzip appears four times in eight: its cost sits at the median
    # of the mix and varies little between cases, which steadies the median
    kinds = [("check_skip_unzip", 2), ("check_commute_unzip", 1),
             ("check_skip_unzip", 2), ("check_commute_transpose", 1),
             ("check_skip_unzip", 2), ("check_matrix_transpose", 1),
             ("check_commute_forward", 1), ("check_skip_unzip", 2)]


class BatteryStatic(Battery):
    name = "battery-static"
    setups = 11
    kinds = [("check_flop_bound", 1), ("check_workload_delta", 1),
             ("check_workload_forward", 1), ("check_workload_unzip", 2),
             ("check_workload_transpose", 2), ("check_metatheory", 1),
             ("check_safety_closure", 2), ("check_typing_closure", 1)]


WORKLOADS = {w.name: w for w in (GradLadder, BatterySquares, BatteryStatic)}
