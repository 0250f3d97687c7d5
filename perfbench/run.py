"""Benchmark for toricgraphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Set-up (importing `toricgraphs` afresh and building the workload's
inputs) is repeated SETUP_REPEATS times and reported as its median.  Passes
over the workload's instances then repeat until S seconds have been
measured.  Every output is checked after the passes, outside the timed
interval.  With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` one untraced pass is
followed by traced passes and the JSON carries the per-layer metrics, whose
spans are also written to `.perfbench/trace-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 15

sys.path.insert(0, HERE)

from spans import PER_LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, check_outcomes, run_pass  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "instance_s_p50": "s", "instance_s_p75": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def fresh_import():
    """Import toricgraphs from src/ as a first import would, and return its cli module."""
    for name in [m for m in sys.modules if m == "toricgraphs" or m.startswith("toricgraphs.")]:
        del sys.modules[name]
    cli = importlib.import_module("toricgraphs.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"toricgraphs was imported from {cli.__file__}, not from {SRC}")
    return cli


def measure(instances, call, seconds, before_pass=lambda: None):
    """Run passes through `call` until `seconds` have elapsed since the first began."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        before_pass()
        passes.append(run_pass(instances, call))
    return passes


def harrell_davis(values, q, steps=64):
    """The Harrell-Davis estimate of the q-quantile of `values`.

    It is a weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution, so it moves less when one or two
    values near the quantile happen to be slow than an estimate built from
    those one or two values alone.  Each weight is the Beta mass of one
    1/n-wide interval, integrated with the midpoint rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes, setup_times, peak_rss_mb, ok_ratio):
    per_instance = [statistics.median(p.outcomes[k].seconds for p in passes)
                    for k in range(len(passes[0].outcomes))]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "instance_s_p50": harrell_davis(per_instance, 0.50),
        "instance_s_p75": harrell_davis(per_instance, 0.75),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ok_ratio,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toricgraphs benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toricgraphs", "cli.py")):
        print(f"error: no toricgraphs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cli = fresh_import()
            instances = WORKLOADS[args.workload](args.seed, inputs)
            setup_times.append(time.perf_counter() - start)

        def plain(inst):
            return cli.run(list(inst.argv))

        if args.trace:
            passes = [run_pass(instances, plain)]
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(instances, tracer.instance_call(cli.run),
                                 args.seconds - passes[0].wall_s, tracer.start_pass)
            finally:
                tracer.uninstall()
            passes += traced
        else:
            passes = measure(instances, plain, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        cache: dict = {}
        for p in passes:
            check_outcomes(p.outcomes, cache)
        outcomes = [o for p in passes for o in p.outcomes]
        failed = [o for o in outcomes if o.failed]
        correct = not any(o.wrong for o in outcomes)

        print(f"# workload {args.workload}, seed {args.seed}, {len(passes)} passes of "
              f"{len(instances)} instances")
        print("# pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
        print("# setup_s: " + " ".join(f"{t:.4f}" for t in setup_times))
        for inst in instances:
            if inst.meta:
                print(f"#   {inst.name}: " + ", ".join(f"{k}={v}" for k, v in inst.meta.items()))
        flags = [i.meta["bipartite"] for i in instances if "bipartite" in i.meta]
        if flags:
            print(f"# bipartite share {sum(flags) / len(flags):.2f}")
        for o in failed[:10]:
            print(f"# FAILED {o.instance.name}: exit {o.exit_code}, {o.error}")

        if args.trace:
            layers = tracer.median_metrics()
            untraced = passes[0].wall_s
            layers["trace.overhead_ratio"] = statistics.median(p.wall_s for p in traced) / untraced - 1
            if tracer.missing:
                print(f"# not traced (absent from the program): {', '.join(tracer.missing)}")
            tracer.write(os.path.join(WORK, f"trace-{args.workload}.jsonl"))
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
        else:
            values = end_to_end(passes, setup_times, peak_rss_mb, 1 - len(failed) / len(outcomes))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
