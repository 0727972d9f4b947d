"""The traced run: per-layer metrics, measured from outside the program.

One set-up is split into its build steps, the workload loop runs once
untraced and once traced (their ``ops_per_s`` ratio is the tracing
cost), and two ladders replay the workload's own inputs at every rung of
the query path: batched windows (kernel -> index -> compiled query ->
service -> cluster) and single pairs (index -> query -> service ->
cluster). Every rung's answers must agree. All spans go to one in-memory
:class:`~repro.observability.tracing.Tracer`, written out at the end.

Per-layer metrics a workload does not exercise read 0 (for example the
``dynamic.*`` family outside ``churn``, ``loadgen.late_p99_ms`` on the
closed loops).
"""

import json
import os
from statistics import median

from workloads import (
    REQUEST_TIMEOUT_S,
    build_index,
    cluster_workers,
    counter_delta,
    dynamic_layers,
    fault_in,
    norm,
    timed,
)
from repro.core.batch_query import count_many_arrays
from repro.core.hp_spc import BuildStats
from repro.core.index import SPCIndex
from repro.observability.tracing import Tracer
from repro.query import Batch, Count, QueryEngine
from repro.serving import ClusterService, SPCService
from repro.serving.service import SERVED_INDEX

# name -> (unit, better). BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = {
    # build ladder -> setup_s, index_bytes
    "ordering.s": ("s", "lower"),
    "hub_push.s": ("s", "lower"),
    "flat_store.save.s": ("s", "lower"),
    "flat_store.load.s": ("s", "lower"),
    "flat_store.fault_in.s": ("s", "lower"),
    "cluster.start.s": ("s", "lower"),
    "warmup.s": ("s", "lower"),
    "hub_push.visits": ("count", "lower"),
    "hub_push.prunes": ("count", "lower"),
    "hub_push.join_terms": ("count", "lower"),
    "labels.entries": ("count", "lower"),
    # batched ladder -> batch-uniform ops_per_s
    "batch_query.count_many_arrays.us_per_pair": ("us/pair", "lower"),
    "index.count_many.us_per_pair": ("us/pair", "lower"),
    "index.count_many.added_us_per_pair": ("us/pair", "lower"),
    "query.batch.us_per_pair": ("us/pair", "lower"),
    "query.batch.added_us_per_pair": ("us/pair", "lower"),
    "query.compile.us": ("us", "lower"),
    "query.cache.hit_ratio": ("ratio", "higher"),
    "service.batch.us_per_pair": ("us/pair", "lower"),
    "service.batch.added_us_per_pair": ("us/pair", "lower"),
    "cluster.batch.us_per_pair": ("us/pair", "lower"),
    "cluster.batch.added_us_per_pair": ("us/pair", "lower"),
    # per-pair ladder -> serve-inproc / serve-cluster latency
    "index.count_with_distance.us": ("us", "lower"),
    "query.count.us": ("us", "lower"),
    "query.count.added_us": ("us", "lower"),
    "service.submit.us": ("us", "lower"),
    "service.submit.added_us": ("us", "lower"),
    "cluster.submit.us": ("us", "lower"),
    "cluster.submit.added_us": ("us", "lower"),
    # cluster counters -> latency_*, served_frac, peak_rss_mb
    "cluster.pairs_per_batch": ("ratio", "higher"),
    "cluster.shed": ("count", "lower"),
    "cluster.deadline": ("count", "lower"),
    "cluster.gather_retries": ("count", "lower"),
    "cluster.hedges": ("count", "lower"),
    "cluster.hedge_win_ratio": ("ratio", "higher"),
    "cluster.respawns": ("count", "lower"),
    "cluster.stalls": ("count", "lower"),
    "cluster.worker_rss_mb": ("MB", "lower"),
    "cluster.arena_private_dirty_kb": ("kB", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    # service counters -> serve-inproc served_frac
    "service.shed": ("count", "lower"),
    "service.degraded": ("count", "lower"),
    "service.deadline": ("count", "lower"),
    # dynamic -> churn ops_per_s, latency_p99_ms
    "dynamic.query_clean.us": ("us", "lower"),
    "dynamic.query_overlay.us": ("us", "lower"),
    "dynamic.overlay_fallback_ratio": ("ratio", "lower"),
    "dynamic.mutation.us": ("us", "lower"),
    "dynamic.rebuilds": ("count", "lower"),
    "dynamic.rebuild.s": ("s", "lower"),
    # the cost of the tracing itself
    "trace.overhead_frac": ("ratio", "lower"),
}

MAX_SPANS = 400_000


def _climb(tracer, rungs, items, sizes, unit):
    """Run every rung on each item in turn; per-rung median cost.

    Rungs take turns on the same item, so a change in the host's speed
    during the ladder lands on all of them alike. Returns the metrics
    (``<rung>.<unit>`` and, above the first rung, the cost added over
    the rung below as ``<rung>.added_<unit>``) and the list of
    disagreeing rungs.
    """
    costs = {name: [] for name, _, _ in rungs}
    answers = {name: [] for name, _, _ in rungs}
    for i, (item, size) in enumerate(zip(items, sizes)):
        for name, call, answer in rungs:
            out, seconds = timed(tracer, name, lambda: call(item),
                                 rid=f"l{i}")
            costs[name].append(seconds * 1e6 / size)
            answers[name].append([norm(a) for a in answer(out)])
    metrics = {}
    below = None
    for name, _, _ in rungs:
        cost = median(costs[name])
        metrics[f"{name}.{unit}"] = cost
        if below is not None:
            metrics[f"{name}.added_{unit}"] = cost - below
        below = cost
    first = rungs[0][0]
    bad = [f"ladder: {name} answers differ from {first}"
           for name, _, _ in rungs[1:] if answers[name] != answers[first]]
    return metrics, bad


def _served(result):
    if result.status != SERVED_INDEX:
        raise RuntimeError(f"ladder request not served: {result!r}")
    return result.answer


def _batch(pairs):
    return Batch(tuple(Count(s, t) for s, t in pairs))


def batched_ladder(tracer, flat, index, engine, service, cluster, windows):
    """Same windows at every rung; returns ``(metrics, mismatches)``."""
    lists = [list(zip(s.tolist(), t.tolist())) for s, t in windows]
    compile_us = []

    def query(w):
        node = _batch(lists[w])
        compiled, seconds = timed(tracer, "query.compile",
                                  lambda: engine.compile(node))
        _, plan_s = timed(tracer, "query.plan", lambda: compiled.plan)
        compile_us.append((seconds + plan_s) * 1e6)
        return compiled.run()

    def columns(out):
        return zip(out[0].tolist(), out[1].tolist())

    rungs = [
        ("batch_query.count_many_arrays",
         lambda w: count_many_arrays(flat, *windows[w]), columns),
        ("index.count_many", lambda w: index.count_many(lists[w]), list),
        ("query.batch", query, list),
        ("service.batch",
         lambda w: _served(service.submit_query(
             _batch(lists[w]), timeout=REQUEST_TIMEOUT_S * 30)), list),
        ("cluster.batch",
         lambda w: _served(cluster.submit_many(
             lists[w], timeout=REQUEST_TIMEOUT_S * 30)), list),
    ]
    metrics, bad = _climb(tracer, rungs, range(len(windows)),
                          [len(pairs) for pairs in lists], "us_per_pair")
    metrics["query.compile.us"] = median(compile_us)
    return metrics, bad


def pair_ladder(tracer, index, engine, service, cluster, pairs):
    """Same pairs at every rung, one call at a time."""
    def one(answer):
        return [answer]

    rungs = [
        ("index.count_with_distance",
         lambda p: index.count_with_distance(*p), one),
        ("query.count", lambda p: engine.run(Count(*p)), one),
        ("service.submit",
         lambda p: _served(service.submit(*p, timeout=REQUEST_TIMEOUT_S)),
         one),
        ("cluster.submit",
         lambda p: _served(cluster.submit(*p, timeout=REQUEST_TIMEOUT_S)),
         one),
    ]
    return _climb(tracer, rungs, pairs, [1] * len(pairs), "us")


def cluster_layers(cluster, counters, pairs, lateness):
    """Counter deltas of one phase plus the workers' memory probes."""
    probes = cluster.worker_stats()
    hedges = counters.get("hedges", 0)
    return {
        "cluster.pairs_per_batch":
            pairs / counters["batches"] if counters.get("batches") else 0.0,
        "cluster.shed": counters.get("shed", 0),
        "cluster.deadline": counters.get("deadline", 0),
        "cluster.gather_retries": counters.get("gather_retries", 0),
        "cluster.hedges": hedges,
        "cluster.hedge_win_ratio":
            counters.get("hedge_wins", 0) / hedges if hedges else 0.0,
        "cluster.respawns": counters.get("respawns", 0),
        "cluster.stalls": counters.get("stalls", 0),
        "cluster.worker_rss_mb":
            sum((p.get("rss_kb") or 0) for p in probes) / 1024.0,
        "cluster.arena_private_dirty_kb":
            sum(p.get("map_private_dirty_kb", 0) for p in probes),
        "loadgen.late_p99_ms": lateness["p99_ms"],
    }


def service_layers(counters):
    return {
        "service.shed": counters.get("shed", 0),
        "service.degraded": counters.get("degraded", 0),
        "service.deadline": counters.get("deadline", 0),
    }


def traced_run(workload, seconds, out_path):
    """Run ``workload`` traced; returns ``(metrics, phases, mismatches)``.

    ``phases`` are the untraced and traced loop results (both counted in
    attempted/failed). The span tree goes to ``out_path``.
    """
    tracer = Tracer(max_spans=MAX_SPANS)
    off = Tracer(enabled=False)
    stats = BuildStats()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    churn = workload.name == "churn"
    state = None
    ladder_cluster = None
    try:
        with tracer.span("setup", workload=workload.name):
            if churn:
                path = workload.path("ladder")
                flat, steps = build_index(workload.graph, path, tracer, stats)
                state = workload.setup("t", tracer)
            else:
                state = workload.setup("t", tracer, stats)
                flat, path, steps = state["flat"], state["path"], \
                    state["steps"]
        for name in ("ordering.s", "hub_push.s", "flat_store.save.s",
                     "flat_store.load.s"):
            metrics[name] = steps[name]
        metrics.update({
            "hub_push.visits": stats.visits,
            "hub_push.prunes": stats.prunes,
            "hub_push.join_terms": stats.join_terms,
            "labels.entries": stats.label_entries,
        })
        with tracer.span("warmup"):
            _, metrics["flat_store.fault_in.s"] = timed(
                tracer, "flat_store.fault_in", lambda: fault_in(flat))
            _, metrics["warmup.s"] = timed(
                tracer, "workload.warm", lambda: workload.warm(state))

        half = seconds / 2.0
        with tracer.span("measure.untraced"):
            untraced = workload.measure(state, half, off)
        traced = workload.measure(state, half, tracer)
        plain = untraced.quietest()["ops_per_s"]
        if plain > 0:
            metrics["trace.overhead_frac"] = (
                1.0 - traced.quietest()["ops_per_s"] / plain)
        mismatches = (workload.verify(state, untraced)
                      + workload.verify(state, traced))

        with tracer.span("ladder"):
            # Batched rungs run on flat columns only, as batch-uniform
            # does; the per-pair rungs and the service read the thawed
            # tuple labels, thawed once here before any rung is timed.
            batch_index = SPCIndex.from_flat(flat)
            batch_engine = QueryEngine(index=batch_index)
            pair_index = SPCIndex.from_flat(flat)
            _ = pair_index.labels
            pair_engine = QueryEngine(index=pair_index)
            service = SPCService(workload.graph, index=pair_index)
            cluster = state.get("cluster")
            if cluster is None:
                workers = cluster_workers()
                ladder_cluster, metrics["cluster.start.s"] = timed(
                    tracer, "cluster.start",
                    lambda: ClusterService(path, workers=workers,
                                           shards=workers))
                cluster = ladder_cluster
                cluster.single_source(0, timeout=30.0)
            else:
                metrics["cluster.start.s"] = steps["cluster.start.s"]
            windows, pairs = workload.ladder_inputs()
            service_before = service.stats()["counters"]
            found, bad = batched_ladder(tracer, flat, batch_index,
                                        batch_engine, service, cluster,
                                        windows)
            metrics.update(found)
            mismatches += bad
            cluster_before = cluster.stats()["counters"]
            found, bad = pair_ladder(tracer, pair_index, pair_engine,
                                     service, cluster, pairs)
            metrics.update(found)
            mismatches += bad
            cluster_ladder = counter_delta(cluster_before,
                                    cluster.stats()["counters"])
            hits = lookups = 0
            for engine in (batch_engine, pair_engine):
                cache = engine.cache_stats()
                hits += cache["hits"]
                lookups += cache["hits"] + cache["misses"]
            metrics["query.cache.hit_ratio"] = (
                hits / lookups if lookups else 0.0)

        if workload.name == "serve-cluster":
            metrics.update(cluster_layers(
                cluster, traced.extra["counters"], traced.outcomes.attempted,
                traced.extra["lateness"]))
        else:
            metrics.update(cluster_layers(
                cluster, cluster_ladder, len(pairs),
                {"p99_ms": 0.0}))
        if workload.name == "serve-inproc":
            metrics.update(service_layers(traced.extra["counters"]))
        else:
            metrics.update(service_layers(
                counter_delta(service_before, service.stats()["counters"])))
        if churn:
            metrics.update(dynamic_layers(traced))
    finally:
        if ladder_cluster is not None:
            ladder_cluster.close()
        if state is not None:
            workload.teardown(state)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"metrics missing from PER_LAYER: {unknown}")
    _write_spans(tracer, out_path)
    metrics["trace.spans"] = tracer.span_count()
    metrics["trace.dropped"] = tracer.dropped
    return metrics, (untraced, traced), mismatches


def _write_spans(tracer, out_path):
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(tracer.to_json(), handle, separators=(",", ":"))
