"""Determinism gate: the deterministic outputs of one seed repeat bit for bit.

    python3 perfbench/determinism.py --seed 7

For each workload, runs the determinism window (`--seconds 0`) twice
untraced and twice traced, each in a fresh process.  The window digest
(gradients at full precision, flops and workload bounds, or verdicts) and
its totals must agree across all four runs; the traced counters
(`*.out_nodes`, `lll.machine.flops`, `lll.reduce.numeric_steps`) must agree
between the two traced runs.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def window(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    if not json.loads(out[-1])["correct"]:
        raise SystemExit(f"{workload}: an op in the window failed")
    line = next(x for x in out if x.startswith("determinism "))
    return json.loads(line.removeprefix("determinism "))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ok = True
    for wl in sorted(WORKLOADS):
        plain = [window(wl, args.seed, 0) for _ in range(2)]
        traced = [window(wl, args.seed, 1) for _ in range(2)]
        same = all({k: t[k] for k in plain[0]} == plain[0]
                   for t in plain[1:] + traced) and traced[0] == traced[1]
        ok &= same
        print(f"{'PASS' if same else 'FAIL'} {wl}: "
              + json.dumps(traced[0], sort_keys=True))
        if not same:
            for d in plain + traced:
                print("    " + json.dumps(d, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
