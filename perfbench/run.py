"""Benchmark of linlog's two request types: gradient requests and the
property battery.

    python3 perfbench/run.py --workload grad-ladder --seed 1 --seconds 36 --trace 0

Runs one workload in this process, single-threaded, from the repository's
`src` directory.  Set-up (import, corpus generation, warm-up) is repeated
a fixed number of times per workload and its median reported.  Ops then
run in order until `--seconds` have passed and the determinism window is
complete.  A fixed calibration computation, timed between set-ups and ops,
gives the host's speed during the run; the time metrics are reported at a
reference speed.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs every op twice,
plain and traced, in alternating order: the traced runs give the per-layer
metrics, the pair gives the tracing overhead, and the two results of each op
must agree.  Human-readable lines come first; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNTERS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, load_linlog  # noqa: E402


# The host's speed moves by 10-30% between runs of identical code, in
# process time as in wall time, in stretches that outlast a run.  A fixed
# pure-Python computation timed between ops, throughout the run, moves with
# it; time metrics are reported at the speed at which it takes CAL_REF_MS.
CAL_REF_MS = 2.7
CAL_EVERY_S = 0.2


def _calibration_work(depth: int = 11) -> int:
    """Build and fold a tree of 4095 tuples: allocation, recursion and
    dict look-ups, as in the program's term passes.  Independent of linlog."""
    names: dict[str, int] = {}

    def build(d, i):
        if d == 0:
            return ("var", "x%d" % (i % 13))
        return ("add" if i % 3 else "mul", build(d - 1, 2 * i),
                build(d - 1, 2 * i + 1))

    def fold(t):
        if t[0] == "var":
            return names.setdefault(t[1], len(names) + 2)
        a, b = fold(t[1]), fold(t[2])
        return (a + b) % 1_000_003 if t[0] == "add" else (a * b) % 1_000_003

    return fold(build(depth, 1))


def calibrate(cal: list[float]) -> float:
    """Time one calibration sample into `cal` (ms); return when it ended."""
    t0 = perf_counter()
    _calibration_work()
    t1 = perf_counter()
    cal.append((t1 - t0) * 1e3)
    return t1


def set_up(cls, seed: int, cal: list[float]):
    """Set up `cls.setups` times; report the median."""
    times = []
    for _ in range(cls.setups):
        t0 = perf_counter()
        w = cls(load_linlog(cls.modules), seed)
        w.warm_up()
        times.append(perf_counter() - t0)
        calibrate(cal)
    gc.collect()
    return w, statistics.median(times)


def timed(w, i: int, tracer: Tracer | None = None):
    """One op: (seconds, ok, det).  Only the call is timed, and traced when
    a tracer is given; the check runs after it.  An exception counts as a
    failed op."""
    if tracer is not None:
        tracer.op_id = i
        tracer.install()
    t0 = perf_counter()
    try:
        try:
            res = w.call(i)
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        ok, det = w.check(i, res)
    except Exception as exc:  # a failed op; the run goes on
        return dt, False, {"error": type(exc).__name__}
    return dt, ok, det


def measure(w, seconds: float, tracer: Tracer | None, cal: list[float]):
    """Run ops until `seconds` have passed and the window is complete, with
    a calibration sample at least CAL_EVERY_S apart between them.  With a
    tracer, run each op plain and traced, alternating which goes first."""
    lat, plain_lat, window, counts, fails = [], [], [], {}, 0
    t_end = perf_counter() + seconds
    next_cal = calibrate(cal) + CAL_EVERY_S
    i = 0
    while i < w.window or perf_counter() < t_end:
        if perf_counter() >= next_cal:
            next_cal = calibrate(cal) + CAL_EVERY_S
        if tracer is None:
            dt, ok, det = timed(w, i)
        else:
            if i % 2 == 0:
                plain = timed(w, i)
                dt, ok, det = timed(w, i, tracer)
            else:
                dt, ok, det = timed(w, i, tracer)
                plain = timed(w, i)
            plain_lat.append(plain[0])
            ok = ok and plain[1] and plain[2] == det
            if i == w.window - 1:
                counts = dict(tracer.counts)
        lat.append(dt)
        fails += not ok
        if i < w.window:
            window.append(det)
        i += 1
    return lat, plain_lat, determinism_summary(window, counts), fails


def determinism_summary(window: list[dict], counts: dict) -> dict:
    """A digest over the window's deterministic outputs, their totals, and
    the traced counters summed over the window."""
    out = {"window_ops": len(window),
           "digest": hashlib.sha256(json.dumps(window, sort_keys=True)
                                    .encode()).hexdigest()[:16]}
    for key in ("flops", "violations"):
        if any(key in d for d in window):
            out[key] = sum(d.get(key, 0) for d in window)
    return dict(out, **counts)


def ops_per_s(lat: list[float], cycle: int) -> float:
    """Throughput of the op mix: the mean latency of each position in the
    mix's cycle, summed over the cycle.  Every op counts, and where the run
    stopped inside a cycle does not tilt the mix."""
    return cycle / sum(statistics.fmean(lat[j::cycle]) for j in range(cycle))


def percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "linlog").is_dir():
        print(f"error: no linlog package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    cls = WORKLOADS[args.workload]
    cal: list[float] = []
    w, setup_s = set_up(cls, args.seed, cal)
    tracer = Tracer() if args.trace else None
    lat, plain_lat, det, fails = measure(w, args.seconds, tracer, cal)
    n = len(lat)
    # brings times to the reference speed; below 1 on a slow stretch
    scale = CAL_REF_MS / statistics.median(cal)

    print(f"workload {args.workload}  seed {args.seed}  ops {n}  "
          f"trace {args.trace}")
    if tracer is None:
        p50_ms, tput = statistics.median(lat) * 1e3, ops_per_s(lat, w.window)
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "op_p50_ms": (p50_ms * scale, "ms"),
            "ops_per_s": (tput / scale, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
        shown = dict(metrics, failed_frac=(fails / n, "frac"))
        if n >= 100:
            shown["op_p90_ms"] = (percentile(lat, 90) * 1e3 * scale, "ms")
        shown["measured.setup_s"] = (setup_s, "s")
        shown["measured.op_p50_ms"] = (p50_ms, "ms")
        shown["measured.ops_per_s"] = (tput, "1/s")
        shown["calibration_ms"] = (statistics.median(cal), f"ms/{len(cal)}")
        if "flops" in det:
            shown["grad_flops"] = (det["flops"], f"flops/{det['window_ops']}ops")
    else:
        metrics = layer_metrics(tracer, n, sum(lat), sum(plain_lat), det)
        shown = dict(metrics, failed_frac=(fails / n, "frac"))
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.tsv"))
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("determinism " + json.dumps(det, sort_keys=True))
    print(json.dumps({
        "correct": fails == 0, "attempted": n, "failed": fails,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer: Tracer, n: int, traced_s: float, plain_s: float,
                  det: dict):
    """Per layer: self time and outermost calls per op, and self time as a
    share of traced op wall time; then the window's counters."""
    totals = tracer.layer_totals()
    out = {}
    for layer in LAYERS:
        self_s, calls = totals[layer]
        out[f"{layer}.self_ms"] = (self_s * 1e3 / n, "ms")
        out[f"{layer}.calls"] = (calls / n, "count")
        out[f"{layer}.share"] = (self_s / traced_s, "frac")
    for key in COUNTERS:
        out[key] = (det[key], "count")
    out["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac")
    return out


if __name__ == "__main__":
    sys.exit(main())
