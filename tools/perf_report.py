#!/usr/bin/env python
"""Render the committed ``BENCH_*.json`` records into ``docs/PERF.md``.

One page collecting the numbers that matter across the bench suite —
construction wall time, label size (entries and bytes/vertex), query
microbenchmarks, serving latency percentiles, observability overhead —
so a reader gets the repository's current performance story without
spelunking JSON. The rendering is a pure function of the committed
``BENCH_*.json`` files, which makes staleness checkable:

    python tools/perf_report.py           # rewrite docs/PERF.md
    python tools/perf_report.py --check   # exit 1 when PERF.md is stale

CI runs ``--check`` in the lint job (same idiom as
``tools/gen_api_docs.py``): regenerate and commit whenever a bench
record changes.
"""

import argparse
import json
import os
import sys

#: Bench records rendered, in page order. Missing files are skipped with
#: a note, so the report works from any subset.
BENCH_FILES = (
    "BENCH_construction.json",
    "BENCH_ci_smoke.json",
    "BENCH_serving.json",
    "BENCH_streaming.json",
    "BENCH_observability.json",
)

_HEADER = """\
# Performance

Current bench numbers, rendered from the committed ``BENCH_*.json``
records by ``tools/perf_report.py`` — do not edit by hand; rerun the
generator (CI's lint job fails when this page is stale). Absolute
timings depend on the box that produced the record; the relative
numbers (speedups, bytes/vertex, overhead ratios) are the contract.
"""


def _get(record, *path, default=None):
    for key in path:
        if not isinstance(record, dict) or key not in record:
            return default
        record = record[key]
    return record


def _fmt(value, spec=""):
    if value is None:
        return "—"
    if spec:
        return format(value, spec)
    return str(value)


def _graph_line(record):
    graph = record.get("graph", {})
    if not graph:
        return "unknown graph"
    return (f"{graph.get('family', 'graph')} with n = {graph.get('n', '?')}, "
            f"m = {graph.get('m', '?')}")


def render_construction(record):
    lines = [f"Graph: {_graph_line(record)}.", ""]
    tier = record.get("tier", "smoke")
    if tier == "smoke":
        rows = [
            ("python engine", _get(record, "python_seconds")),
            ("csr engine", _get(record, "csr_seconds")),
            ("csr-batch engine", _get(record, "csr_batch_seconds")),
        ]
        lines += ["| Engine | Build seconds |", "|---|---|"]
        for name, seconds in rows:
            if seconds is not None:
                lines.append(f"| {name} | {_fmt(seconds, '.2f')} |")
        lines += [
            "",
            f"All engines bit-identical: "
            f"{_fmt(record.get('identical'))} (csr vs python), "
            f"{_fmt(record.get('csr_batch_identical'))} (csr-batch vs csr); "
            f"csr speedup over python "
            f"{_fmt(record.get('speedup'), '.2f')}x "
            f"(floor {_fmt(record.get('min_speedup'), '.2f')}x); "
            f"{_fmt(record.get('label_entries'))} label entries.",
        ]
    else:
        lines += [
            f"| Metric | Value |", "|---|---|",
            f"| Tier | {tier} |",
            f"| Engine | {_fmt(record.get('engine'))} "
            f"(batch size {_fmt(record.get('batch_size'))}) |",
            f"| Build seconds | {_fmt(record.get('build_seconds'), '.1f')} "
            f"(budget {_fmt(record.get('max_seconds'))}) |",
            f"| Peak RSS | {_fmt(record.get('peak_rss_mb'), '.0f')} MiB "
            f"(budget {_fmt(record.get('max_rss_mb'))}) |",
            f"| Label entries | {_fmt(record.get('label_entries'))} "
            f"(avg size {_fmt(record.get('avg_label_size'))}) |",
            f"| Label bytes/vertex | "
            f"{_fmt(record.get('label_bytes_per_vertex'))} |",
            f"| Oracle bit-identity (n = "
            f"{_fmt(record.get('oracle_vertices'))}) | "
            f"{_fmt(record.get('oracle_identical'))} |",
            f"| BFS spot-checks | {_fmt(record.get('bfs_samples'))} sources, "
            f"{_fmt(record.get('bfs_mismatches'))} mismatches |",
        ]
    return lines


def render_ci_smoke(record):
    lines = [
        f"Graph: {_graph_line(record)}; "
        f"{_fmt(record.get('queries'))} random query pairs.",
        "",
        "| Metric | Value |", "|---|---|",
        f"| Build seconds ({_fmt(record.get('build_workers'))} worker(s)) | "
        f"{_fmt(record.get('build_seconds'), '.2f')} |",
        f"| Freeze seconds | {_fmt(record.get('freeze_seconds'), '.3f')} |",
        f"| python engine | "
        f"{_fmt(record.get('python_us_per_query'), '.2f')} µs/query |",
        f"| flat engine | "
        f"{_fmt(record.get('flat_us_per_query'), '.2f')} µs/query |",
        f"| Speedup | {_fmt(record.get('speedup'), '.1f')}x "
        f"(floor {_fmt(record.get('min_speedup'), '.1f')}x) |",
    ]
    query_layer = record.get("query_layer")
    if query_layer:
        overhead = query_layer.get("plan_overhead")
        ceiling = query_layer.get("max_plan_overhead")
        lines += [
            f"| Compiled query layer | "
            f"{_fmt(None if overhead is None else overhead * 100, '+.2f')}% "
            f"over raw count_many "
            f"(ceiling {_fmt(None if ceiling is None else ceiling * 100, '+.0f')}%, "
            f"answers bit-identical: "
            f"{_fmt(query_layer.get('answers_identical'))}) |",
        ]
    return lines


def render_serving(record):
    healthy = record.get("healthy", {})
    recovery = record.get("recovery", {})
    overload = record.get("overload", {})
    lines = [
        f"{_fmt(_get(record, 'config', 'vertices'))}-vertex graph, "
        f"{_fmt(_get(record, 'config', 'threads'))} driver thread(s), "
        f"deadline {_fmt(_get(record, 'config', 'deadline_ms'))} ms.",
        "",
        "| Phase | Requests | Outcome | p95 latency |",
        "|---|---|---|---|",
        f"| Healthy | {_fmt(healthy.get('requests'))} | "
        f"{_fmt(healthy.get('served'))} served | "
        f"{_fmt(healthy.get('p95_ms'), '.2f')} ms |",
        f"| Overload burst | {_fmt(overload.get('requests'))} | "
        f"{_fmt(overload.get('shed'))} shed | — |",
        f"| Post-chaos recovery | {_fmt(recovery.get('requests'))} | "
        f"{_fmt(recovery.get('served_index'))} from index | "
        f"{_fmt(recovery.get('p95_ms'), '.2f')} ms |",
    ]
    sustained = record.get("sustained", {})
    if sustained:
        single = sustained.get("single", {})
        batched = sustained.get("batched", {})
        cluster = sustained.get("cluster", {})
        memory = cluster.get("worker_memory", [])
        dirty = max((w.get("arena_private_dirty_kb", 0) for w in memory),
                    default=None)
        lines += [
            "",
            "### Sustained throughput: cluster vs single process",
            "",
            f"G(n, p) graph with n = {_fmt(sustained.get('n'))}, "
            f"m = {_fmt(sustained.get('m'))} "
            f"({_fmt(sustained.get('entries'))} label entries); "
            f"{_fmt(_get(sustained, 'config', 'duration'))} s of load per "
            f"side on {_fmt(sustained.get('cpu_count'))} core(s).",
            "",
            "| Tier | QPS | p50 | p95 | p99 |",
            "|---|---|---|---|---|",
            f"| single process ({_fmt(single.get('threads'))} threads) | "
            f"{_fmt(single.get('qps'), ',.0f')} | "
            f"{_fmt(single.get('p50_ms'), '.2f')} ms | "
            f"{_fmt(single.get('p95_ms'), '.2f')} ms | "
            f"{_fmt(single.get('p99_ms'), '.2f')} ms |",
        ]
        if batched:
            lines.append(
                f"| single process, batched (`submit_query(Batch)`, "
                f"{_fmt(batched.get('window'))}-pair windows) | "
                f"{_fmt(batched.get('qps'), ',.0f')} | "
                f"{_fmt(batched.get('p50_ms'), '.2f')} ms | "
                f"{_fmt(batched.get('p95_ms'), '.2f')} ms | "
                f"{_fmt(batched.get('p99_ms'), '.2f')} ms |")
        lines += [
            f"| cluster ({_fmt(cluster.get('workers'))} workers, "
            f"{_fmt(cluster.get('shards'))} shards) | "
            f"{_fmt(cluster.get('qps'), ',.0f')} | "
            f"{_fmt(cluster.get('p50_ms'), '.2f')} ms | "
            f"{_fmt(cluster.get('p95_ms'), '.2f')} ms | "
            f"{_fmt(cluster.get('p99_ms'), '.2f')} ms |",
            "",
            f"Speedup {_fmt(cluster.get('speedup'), '.1f')}x from request "
            f"coalescing ({_fmt(cluster.get('served'))} requests in "
            f"{_fmt(cluster.get('batches'))} worker batches); every worker "
            f"maps the label arena copy-on-read shared "
            f"(max Private_Dirty {_fmt(dirty)} kB).",
        ]
        if batched:
            lines += [
                "",
                f"Like for like, against one process batching the same "
                f"windows, the cluster delivers "
                f"{_fmt(cluster.get('speedup_vs_batched'), '.2f')}x. "
                f"Latency is per request for the per-request row and per "
                f"window for the batched and cluster rows.",
            ]
    resilience = record.get("resilience", {})
    if resilience:
        tally = resilience.get("tally", {})
        lines += [
            "",
            "### Self-healing under process chaos",
            "",
            f"G(n, p) graph with n = {_fmt(resilience.get('n'))}, "
            f"m = {_fmt(resilience.get('m'))}; "
            f"{_fmt(_get(resilience, 'config', 'duration'))} s burst with "
            f"{_fmt(resilience.get('kills_injected'))} SIGKILLed worker(s), "
            f"one SIGSTOP stall, a shard blackout and a graceful drain.",
            "",
            "| Metric | Value |", "|---|---|",
            f"| Requests | {_fmt(resilience.get('requests'))} "
            f"({_fmt(resilience.get('qps'), ',.0f')} qps) |",
            f"| Availability | "
            f"{_fmt(resilience.get('availability'), '.4f')} |",
            f"| Wrong answers | {_fmt(resilience.get('wrong'))} |",
            f"| Supervised respawns | {_fmt(resilience.get('respawns'))} "
            f"(incl. {_fmt(resilience.get('stalls'))} stall kill(s)) |",
            f"| Hedges / wins | {_fmt(resilience.get('hedges'))} / "
            f"{_fmt(resilience.get('hedge_wins'))} |",
            f"| Degraded-shard requests | "
            f"{_fmt(resilience.get('degraded_requests'))} annotated, "
            f"{_fmt(resilience.get('degraded_served'))} BFS-served |",
            f"| Replays / drains | {_fmt(resilience.get('replays'))} / "
            f"{_fmt(resilience.get('drains'))} |",
            "",
            f"Status tally: {tally}. Every success was checked bit-exact "
            "against the batch oracle on the same labels.",
        ]
    return lines


def render_streaming(record):
    streaming = record.get("streaming", {})
    chaos = record.get("chaos", {})
    lines = []
    if streaming:
        config = streaming.get("config", {})
        lines += [
            f"{_fmt(config.get('n'))}-vertex graph under "
            f"{_fmt(config.get('duration'), '.0f')} s of mixed insert/delete "
            f"churn ({_fmt(config.get('churn_per_second'), '.0f')} "
            f"mutations/s, delete fraction "
            f"{_fmt(config.get('delete_fraction'))}) with "
            f"{_fmt(config.get('query_threads'))} concurrent query "
            f"thread(s); every served answer checked against a BFS oracle.",
            "",
            "| Metric | Value |", "|---|---|",
            f"| Answers checked | {_fmt(streaming.get('queries_checked'))} "
            f"({_fmt(streaming.get('mismatches'))} wrong) |",
            f"| Served QPS under churn | "
            f"{_fmt(streaming.get('served_qps'), ',.0f')} |",
            f"| Background publishes | {_fmt(streaming.get('publishes'))} |",
            f"| Overlay→BFS fallbacks | "
            f"{_fmt(streaming.get('overlay_fallbacks'))} |",
            f"| Staleness p95 / max | "
            f"{_fmt(streaming.get('staleness_p95_s'), '.2f')} s / "
            f"{_fmt(streaming.get('staleness_max_s'), '.2f')} s "
            f"(SLO breaches: {_fmt(streaming.get('slo_breaches'))}) |",
        ]
        svc = streaming.get("service")
        if svc:
            lines.append(
                f"| Service generation / checked answers | "
                f"{_fmt(svc.get('generation'))} / {_fmt(svc.get('checked'))} "
                f"({_fmt(svc.get('mismatches'))} wrong, "
                f"{_fmt(svc.get('reload_failures'))} reload failures) |")
    if chaos:
        resume = chaos.get("resume", {})
        corrupt = chaos.get("corrupt", {})
        lines += [
            "",
            "### Chaos: kill the rebuild worker mid-build",
            "",
            "| Leg | Worker crashes | Recovery | Wrong answers |",
            "|---|---|---|---|",
            f"| kill → resume | {_fmt(resume.get('worker_crashes'))} | "
            f"{_fmt(resume.get('resumed_pushes'))} pushes resumed from "
            f"checkpoint, {_fmt(resume.get('publishes'))} publish(es) | "
            f"{_fmt(resume.get('mismatches'))} of "
            f"{_fmt(resume.get('queries_checked'))} |",
            f"| kill → corrupt checkpoint | "
            f"{_fmt(corrupt.get('worker_crashes'))} | "
            f"{_fmt(corrupt.get('checkpoint_discards'))} corrupt "
            f"checkpoint(s) discarded, {_fmt(corrupt.get('publishes'))} "
            f"publish(es) | {_fmt(corrupt.get('mismatches'))} of "
            f"{_fmt(corrupt.get('queries_checked'))} |",
        ]
    return lines or ["*Empty record.*"]


def render_observability(record):
    overhead = record.get("overhead", {})
    coverage = record.get("coverage", {})
    return [
        "| Metric | Value |", "|---|---|",
        f"| Instrumented build (n = {_fmt(overhead.get('vertices'))}) | "
        f"{_fmt(overhead.get('enabled_seconds'), '.2f')}s vs "
        f"{_fmt(overhead.get('disabled_seconds'), '.2f')}s bare |",
        f"| Overhead ratio | {_fmt(overhead.get('ratio'), '.3f')} "
        f"(budget {_fmt(overhead.get('max_overhead'))}) |",
        f"| Metric families observed | {_fmt(coverage.get('families'))} "
        f"({_fmt(coverage.get('uncatalogued'))} uncatalogued) |",
        f"| Trace spans | {_fmt(coverage.get('spans'))} |",
        f"| Bit-identity under instrumentation | "
        f"{_fmt(record.get('bit_identity'))} |",
    ]


_SECTIONS = {
    "BENCH_construction.json": ("Construction", render_construction),
    "BENCH_ci_smoke.json": ("Query engines", render_ci_smoke),
    "BENCH_serving.json": ("Serving", render_serving),
    "BENCH_streaming.json": ("Streaming churn and chaos recovery",
                             render_streaming),
    "BENCH_observability.json": ("Observability overhead",
                                 render_observability),
}


def render(root="."):
    lines = [_HEADER]
    for name in BENCH_FILES:
        title, renderer = _SECTIONS[name]
        path = os.path.join(root, name)
        lines.append(f"## {title}")
        lines.append("")
        if not os.path.exists(path):
            lines.append(f"*No committed `{name}` record.*")
            lines.append("")
            continue
        with open(path) as handle:
            record = json.load(handle)
        lines.extend(renderer(record))
        lines.append("")
        lines.append(f"Source: [`{name}`](../{name}).")
        lines.append("")
    return "\n".join(lines)


def _write_or_check(path, text, check):
    """Write ``text`` to ``path`` (or, with ``check``, diff against it)."""
    if check:
        try:
            with open(path) as handle:
                current = handle.read()
        except FileNotFoundError:
            print(f"STALE: {path} is missing; run tools/perf_report.py",
                  file=sys.stderr)
            return False
        if current != text:
            print(f"STALE: {path} does not match the committed bench "
                  "records; run tools/perf_report.py", file=sys.stderr)
            return False
        print(f"ok: {path} is up to date")
        return True
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path} ({len(text.splitlines())} lines)")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify docs/PERF.md matches; exit 1 if stale")
    parser.add_argument("--stdout", action="store_true",
                        help="print the page instead of writing it")
    parser.add_argument("--output", default="docs/PERF.md")
    args = parser.parse_args(argv)
    text = render(".")
    if args.stdout:
        sys.stdout.write(text)
        return 0
    return 0 if _write_or_check(args.output, text, args.check) else 1


if __name__ == "__main__":
    sys.exit(main())
