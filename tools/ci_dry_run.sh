#!/usr/bin/env bash
# Local replica of .github/workflows/ci.yml for environments without `act`.
#
# Runs the same three jobs against the current checkout:
#   lint        ruff check . (falls back to tools/mini_lint.py when ruff is
#               not installed) + the CHANGES.md non-empty gate
#   tests       the tier-1 pytest suite with PYTHONPATH=src (current python
#               only; CI runs the 3.10/3.11/3.12 matrix), then the benchmark
#               harness's own tests (perfbench/tests)
#   chaos-smoke tools/ci_chaos_smoke.py fault-injection gate (corrupt files,
#               killed builds, crashing workers)
#   serving-smoke tools/ci_serving_smoke.py SPCService gate (deadlines,
#               shedding, circuit breaker, hot reload), writing
#               BENCH_serving.json
#   serving-sustained tools/ci_serving_smoke.py --tier sustained, scaled
#               down (CI runs the 10k-vertex cluster-vs-single duel with
#               the 5x speedup floor; the dry run only exercises the
#               machinery)
#   serving-resilience tools/ci_serving_smoke.py --tier resilience,
#               scaled down (same kills/stalls/drain chaos script and
#               zero-wrong-answer + availability gates on a smaller
#               graph and shorter burst)
#   docs-check  tools/gen_api_docs.py --check (docs/API.md and
#               docs/METRICS.md must match the live package) +
#               tools/perf_report.py --check (docs/PERF.md must match the
#               committed BENCH_*.json records)
#   observability-smoke tools/ci_observability_smoke.py (metric coverage,
#               bit-identity, disabled-instrumentation overhead), writing
#               BENCH_observability.json
#   streaming-gate tools/ci_streaming_smoke.py, scaled down (CI runs 60s of
#               insert/delete churn on the 10k graph plus the kill/corrupt
#               chaos legs; the dry run keeps the same gates on a small
#               graph and short window), writing BENCH_streaming.json
#   bench-smoke tools/ci_bench_smoke.py + tools/ci_construction_smoke.py at
#               CI scale, writing BENCH_ci_smoke.json / BENCH_construction.json.
#               The bench smoke also gates the query compilation layer:
#               compiled Batch(Count...) answers must be bit-identical to
#               raw count_many with <5% planning overhead
#   scaling-gate tools/ci_construction_smoke.py --tier scaling (CI runs the
#               100k budgeted csr-batch build; the dry run scales it down
#               to keep a laptop pass under a minute)
#
# The nightly million-vertex job (--tier nightly) is schedule-only and not
# replicated here.
#
# Usage: bash tools/ci_dry_run.sh [--skip-bench]

set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=0
step() {
    echo
    echo "=== $1 ==="
}

step "lint"
if command -v ruff >/dev/null 2>&1; then
    ruff check . || failures=$((failures + 1))
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check . || failures=$((failures + 1))
else
    echo "ruff not installed; using tools/mini_lint.py fallback"
    python tools/mini_lint.py || failures=$((failures + 1))
fi

step "changelog updated"
if [ -s CHANGES.md ]; then
    echo "CHANGES.md: non-empty, ok"
else
    echo "CHANGES.md is empty - every PR must append a changelog entry" >&2
    failures=$((failures + 1))
fi

step "tests (python $(python -c 'import platform; print(platform.python_version())'))"
python -m pytest -x -q || failures=$((failures + 1))
python -m pytest perfbench/tests -q || failures=$((failures + 1))

step "docs-check"
python tools/gen_api_docs.py --check || failures=$((failures + 1))
python tools/perf_report.py --check || failures=$((failures + 1))

step "chaos-smoke"
python tools/ci_chaos_smoke.py || failures=$((failures + 1))

step "serving-smoke"
python tools/ci_serving_smoke.py \
    --output "${TMPDIR:-/tmp}/BENCH_serving.local.json" \
    || failures=$((failures + 1))

step "serving-sustained"
# CI runs the full 10k-vertex duel where the 5x batching win emerges;
# the dry run exercises the same driver/gates on a small graph with a
# token floor so a laptop pass stays under half a minute.
python tools/ci_serving_smoke.py --tier sustained \
    --vertices 1500 --degree 10 --duration 2 --speedup-floor 0.1 \
    --output "${TMPDIR:-/tmp}/BENCH_serving.local.json" \
    || failures=$((failures + 1))

step "serving-resilience"
# CI runs the 2000-vertex burst; the dry run keeps the same fault
# schedule and gates on a smaller graph and a shorter window.
python tools/ci_serving_smoke.py --tier resilience \
    --vertices 1200 --duration 4 \
    --output "${TMPDIR:-/tmp}/BENCH_serving.local.json" \
    || failures=$((failures + 1))

step "observability-smoke"
if [ "${1:-}" != "--skip-bench" ]; then
    python tools/ci_observability_smoke.py \
        --output "${TMPDIR:-/tmp}/BENCH_observability.local.json" \
        || failures=$((failures + 1))
else
    # The overhead gate builds the 10k bench graph four times; keep the
    # skip-bench path fast while still exercising coverage + bit-identity.
    python tools/ci_observability_smoke.py --skip-overhead \
        --output "${TMPDIR:-/tmp}/BENCH_observability.local.json" \
        || failures=$((failures + 1))
fi

step "streaming-gate"
# CI runs 60 seconds of churn on the 10k graph; the dry run keeps the
# same zero-wrong-answer and chaos-recovery gates on a small graph.
python tools/ci_streaming_smoke.py \
    --vertices 1500 --duration 6 --chaos-vertices 500 --chaos-duration 4 \
    --output "${TMPDIR:-/tmp}/BENCH_streaming.local.json" \
    || failures=$((failures + 1))

if [ "${1:-}" != "--skip-bench" ]; then
    step "bench-smoke"
    # Scratch outputs: keep the committed 10k-vertex BENCH_*.json intact.
    python tools/ci_bench_smoke.py --vertices 4000 --queries 10000 \
        --output "${TMPDIR:-/tmp}/BENCH_ci_smoke.local.json" \
        || failures=$((failures + 1))
    python tools/ci_construction_smoke.py --vertices 4000 \
        --output "${TMPDIR:-/tmp}/BENCH_construction.local.json" \
        || failures=$((failures + 1))

    step "scaling-gate"
    # CI runs the full 100k tier; a 20k run keeps the dry run quick while
    # exercising the same oracle + budget + BFS spot-check machinery.
    python tools/ci_construction_smoke.py --tier scaling \
        --vertices 20000 --oracle-vertices 4000 --bfs-samples 5 \
        --spill --mmap \
        --output "${TMPDIR:-/tmp}/BENCH_construction_scaling.local.json" \
        || failures=$((failures + 1))
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "ci dry run: $failures job(s) FAILED"
    exit 1
fi
echo "ci dry run: all jobs green"
