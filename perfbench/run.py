"""The repository benchmark: one workload, one seed, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
mode (see ``ladder.py``) and prints the per-layer metrics. Human-readable
lines come first, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 only when every checked answer matched and no thread died with an
unhandled exception; 2 means the source tree was not found.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# name -> (unit, better); the end_to_end list of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "served_frac": ("ratio", "higher"),
    "slo_met_frac": ("ratio", "higher"),
    "index_bytes": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def box():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def untraced_run(workload, seconds):
    """Set up ``workload.setup_reps`` times, warm, measure; end-to-end
    metrics."""
    from statistics import median

    from measure import clock

    off = _disabled_tracer()
    setups = []
    state = None
    try:
        for rep in range(workload.setup_reps):
            if state is not None:
                workload.teardown(state)
                state = None
            gc.collect()
            start = clock()
            state = workload.setup(f"s{rep}", off)
            setups.append(clock() - start)
        start = clock()
        workload.warm(state)
        warm_s = clock() - start
        phase = workload.measure(state, seconds, off)
        mismatches = workload.verify(state, phase)
        pool = phase.quietest()
        whole = phase.whole()
        outcomes = phase.outcomes
        metrics = {
            "setup_s": median(setups),
            "ops_per_s": pool["ops_per_s"],
            "latency_p50_ms": pool["p50_ms"],
            "latency_p99_ms": pool["p99_ms"],
            "served_frac": 1.0 - outcomes.failed_frac,
            "slo_met_frac": 1.0 - outcomes.slo_miss_frac,
            "index_bytes": workload.index_bytes(state),
            "peak_rss_mb": workload.peak_rss_mb(state),
        }
    finally:
        if state is not None:
            workload.teardown(state)
    if "trials" in pool:
        trial = (f"quietest {pool['pooled_trials']} of {pool['trials']} "
                 f"trials, n={pool['samples']}")
        runs = {"ops_per_s": f"; whole run {whole['ops_per_s']:.5g}",
                "latency_p50_ms": f"; whole run {whole['p50_ms']:.4g} "
                                  f"(n={whole['samples']})",
                "latency_p99_ms": f"; whole run {whole['p99_ms']:.4g} "
                                  f"(n={whole['samples']}, "
                                  f"{whole['beyond_p99']} beyond)"}
    else:
        trial = f"whole loop, n={pool['samples']}"
        runs = dict.fromkeys(("ops_per_s", "latency_p50_ms",
                              "latency_p99_ms"), "")
    notes = {
        "setup_s": f"median of {len(setups)}: "
                   + " ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": trial + runs["ops_per_s"],
        "latency_p50_ms": trial + runs["latency_p50_ms"],
        "latency_p99_ms": f"{trial}, {pool['beyond_p99']} beyond"
                          + runs["latency_p99_ms"],
        "served_frac": f"failed_frac={outcomes.failed_frac:.6f} "
                       f"({outcomes.failed} of {outcomes.attempted})",
        "slo_met_frac": f"slo_miss_frac={outcomes.slo_miss_frac:.6f} "
                        f"({outcomes.missed} of {outcomes.attempted} over "
                        f"{outcomes.limit_s * 1e3:g} ms)",
        "index_bytes": "n=1 SPCF file",
        "peak_rss_mb": "n=1; this process plus cluster workers' private",
    }
    extra = {"warmup_s": warm_s}
    if "lateness" in phase.extra:
        extra["loadgen_late_ms"] = phase.extra["lateness"]
    return metrics, notes, extra, [phase], mismatches


def _disabled_tracer():
    from repro.observability.tracing import Tracer

    return Tracer(enabled=False)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from measure import ThreadFailures
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    failures = ThreadFailures()
    threading.excepthook = failures.hook

    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                             workdir)
        print(f"perfbench workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"box: {json.dumps(box(), sort_keys=True)}")
        print(f"params: {json.dumps(workload.params(), sort_keys=True)}")
        print(f"inputs: {json.dumps(workload.skew(), sort_keys=True)}")
        if args.trace:
            from ladder import PER_LAYER, traced_run

            trace_path = os.path.join(
                OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
            found, phases, mismatches = traced_run(
                workload, args.seconds, trace_path)
            for name in PER_LAYER:
                print(f"{name} = {found[name]:.6g} {PER_LAYER[name][0]}")
            print(f"spans: {found['trace.spans']} recorded, "
                  f"{found['trace.dropped']} dropped, written to "
                  f"{os.path.relpath(trace_path, ROOT)}")
            metrics = {name: {"value": found[name], "unit": unit}
                       for name, (unit, _) in PER_LAYER.items()}
        else:
            found, notes, extra, phases, mismatches = untraced_run(
                workload, args.seconds)
            for name, (unit, _) in END_TO_END.items():
                print(f"{name} = {found[name]:.6g} {unit} ({notes[name]})")
            print(f"warm-up (untimed): {json.dumps(extra, sort_keys=True)}")
            metrics = {name: {"value": found[name], "unit": unit}
                       for name, (unit, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.outcomes.attempted for p in phases)
    failed = sum(p.outcomes.failed for p in phases)
    if failures.count:
        attempted += failures.count
        failed += failures.count
        mismatches.append(f"{failures.count} unhandled thread exception(s)")
    for line in mismatches[:50]:
        print(f"CHECK FAILED: {line}")
    correct = not mismatches
    print(f"correct: {'yes' if correct else 'no'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
