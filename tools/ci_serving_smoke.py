#!/usr/bin/env python
"""CI serving smoke: the service must stay bounded and exact under chaos.

Builds a small index, then drives four phases of traffic through
:class:`repro.serving.SPCService`:

1. **healthy burst** — >= 99% of answers served from labels (a scheduler
   hiccup under the tight deadline may shed a straggler), every served
   answer bit-identical to the exact BFS oracle, p95 latency within the
   request deadline;
2. **corrupt + slow fallback** — the index file is garbaged while the
   degraded BFS path stalls past the deadline: every request still ends
   in a terminal status, enough timeouts accumulate to trip the circuit
   breaker, and most of the burst is short-circuited instead of each
   request burning a full deadline;
3. **overload** — a capacity-1/queue-0 service under concurrent drivers
   must shed with typed retry-after hints, never melt down;
4. **restore + reload** — putting the pristine file back swaps the index
   in one hot reload, closes the breaker, and serves >= 99% of a
   follow-up burst from labels again.

A second tier, ``--tier sustained``, benchmarks the multiprocess
cluster against the single-process service on a larger graph under a
fixed-duration load: the shared-memory cluster must deliver >= 5x the
single-process QPS on the same box with the same deadline config (the
win comes from coalescing pair requests into vectorized ``count_many``
batches, amortising IPC and the per-request python merge join), and
every worker must prove the label arena is mapped shared, not copied
(``Private_Dirty == 0`` for the index mapping in ``/proc``). The tier
also records, ungated, the single process batching the cluster's own
windows through ``submit_query(Batch)``, so the report shows what the
cluster buys over in-process batching too.

A third tier, ``--tier resilience``, points the self-healing layer at
live process faults: while closed-loop drivers hammer the cluster, a
chaos thread SIGKILLs workers, SIGSTOPs another mid-burst (exercising
heartbeat stall detection and request hedging), blacks out a whole
shard (both replicas at once, forcing peer-degraded coverage), and
rolls a graceful drain. Gates: zero wrong answers ever, >= 99%
availability across the burst, at least one supervised respawn per
injected kill, at least one stall kill, and at least one hedge win.

All tiers write into ``BENCH_serving.json`` (each preserves the other
tiers' sections) and exit non-zero on the first violated invariant. Run
from the repo root:

    PYTHONPATH=src python tools/ci_serving_smoke.py
    PYTHONPATH=src python tools/ci_serving_smoke.py --tier sustained
    PYTHONPATH=src python tools/ci_serving_smoke.py --tier resilience
"""

import argparse
import gc
import json
import os
import platform
import sys
import tempfile
import threading
import time


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def percentile(samples, q):
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def drive(service, pairs, threads, timeout):
    """Submit every pair from ``threads`` workers; returns the results."""
    results = []
    lock = threading.Lock()
    queue = list(enumerate(pairs))

    def worker():
        while True:
            with lock:
                if not queue:
                    return
                _, (s, t) = queue.pop()
            result = service.submit(s, t, timeout=timeout)
            with lock:
                results.append(((s, t), result))

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=300.0)
        if thread.is_alive():
            print("FAIL: driver thread hung", file=sys.stderr)
            sys.exit(1)
    return results


def merge_report(output, key, section):
    """Write ``section`` under ``key`` in ``output``, keeping other keys.

    The chaos and sustained tiers run as separate processes but share
    one benchmark file; each must not clobber the other's section.
    """
    existing = {}
    if os.path.exists(output):
        try:
            with open(output) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
    existing[key] = section
    with open(output, "w") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output} [{key}]")


def run_sustained(args):
    """Fixed-duration throughput duel: cluster vs single-process service.

    Closed-loop threads drive :class:`SPCService` (one python merge join
    per request) for ``--duration`` seconds; then one caller times the
    same service's batched front door, ``submit_query(Batch(...))``,
    over the windows the cluster gets; then an open-loop windowed driver
    pushes ``submit_many_nowait`` windows through the cluster router.
    Gates: >= 5x QPS over the per-request baseline, shared (not
    duplicated) arena pages per worker. The batched baseline is
    recorded, not gated: it shows what the cluster buys over one
    process that batches too.
    """
    from repro.core.index import SPCIndex
    from repro.generators.random_graphs import gnp_random_graph
    from repro.io.flat_store import load_flat_labels, save_flat_labels
    from repro.kernels.hub_push import build_flat_labels_csr
    from repro.query import Batch, Count
    from repro.serving import SERVED_INDEX, SPCService
    from repro.serving.cluster import ClusterService

    # G(n, p): no hub hierarchy to exploit, so labels are wide (about
    # 2.5k entries/vertex at n=10k, deg 20). That is the regime the duel
    # is about — the per-request python merge join pays ~0.2 us per
    # label entry while the batched kernel pays ~0.02 us, so wide labels
    # are exactly where batching has to prove itself.
    graph = gnp_random_graph(args.vertices, args.degree / (args.vertices - 1),
                             seed=args.seed)
    print(f"graph: gnp(n={graph.n}, m={graph.m}, "
          f"avg_deg={2 * graph.m / graph.n:.1f})")
    arena_cache = None
    if args.cache_dir:
        os.makedirs(args.cache_dir, exist_ok=True)
        arena_cache = os.path.join(
            args.cache_dir,
            f"sustained-{args.vertices}-{args.degree}-{args.seed}.spcf")
    if arena_cache and os.path.exists(arena_cache):
        flat = load_flat_labels(arena_cache)
        print(f"arena cache hit: {arena_cache} "
              f"({flat.total_entries()} entries)")
    else:
        build_started = time.perf_counter()
        flat = build_flat_labels_csr(graph)
        print(f"built {flat.total_entries()} label entries in "
              f"{time.perf_counter() - build_started:.1f}s (csr engine)")
        if arena_cache:
            save_flat_labels(flat, arena_cache, encoding="raw")
            print(f"arena cached: {arena_cache}")
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms else None
    pairs = [((i * 13) % graph.n, (i * 29 + 5) % graph.n)
             for i in range(4096)]
    section = {"config": vars(args), "python": platform.python_version(),
               "cpu_count": os.cpu_count(), "n": graph.n, "m": graph.m,
               "entries": flat.total_entries()}

    # -- single-process baseline: per-request python merge joins ----------
    service = SPCService(graph, index=SPCIndex.from_flat(flat),
                         capacity=args.threads * 2,
                         queue_limit=args.threads * 4,
                         default_deadline=deadline, reload_check_every=0)
    service.submit(*pairs[0])
    gc.collect()
    stop_at = time.perf_counter() + args.duration
    single_latencies = []
    single_served = [0]
    lock = threading.Lock()

    def closed_loop(offset):
        i = offset
        local = []
        served = 0
        while time.perf_counter() < stop_at:
            s, t = pairs[i % len(pairs)]
            i += 7
            result = service.submit(s, t)
            local.append(result.elapsed)
            served += result.status == SERVED_INDEX
        with lock:
            single_latencies.extend(local)
            single_served[0] += served

    started = time.perf_counter()
    drivers = [threading.Thread(target=closed_loop, args=(k * 97,))
               for k in range(args.threads)]
    for thread in drivers:
        thread.start()
    for thread in drivers:
        thread.join()
    single_seconds = time.perf_counter() - started
    single_qps = single_served[0] / single_seconds
    check(single_served[0] > 0, "sustained: single-process baseline served "
          f"{single_served[0]} requests")
    section["single"] = {
        "qps": single_qps, "served": single_served[0],
        "seconds": single_seconds, "threads": args.threads,
        "p50_ms": percentile(single_latencies, 0.50) * 1e3,
        "p95_ms": percentile(single_latencies, 0.95) * 1e3,
        "p99_ms": percentile(single_latencies, 0.99) * 1e3,
    }
    print(f"single-process: {single_qps:,.0f} qps "
          f"(p99 {section['single']['p99_ms']:.2f} ms)")
    # Drop the thawed per-vertex label lists before timing the cluster:
    # tens of millions of live tuples make every gen-2 GC pass take
    # seconds, which would show up as stalls in the cluster's windows.
    del service
    gc.collect()

    # -- single-process batched baseline: the same windows in-process ----
    # A fresh, never-thawed index, so the Batch runs on the flat columns
    # through the vectorized kernel, like each cluster worker does.
    window = 2048
    windows = [[pairs[(i + k) % len(pairs)] for k in range(window)]
               for i in range(0, len(pairs), window)]
    service = SPCService(graph, index=SPCIndex.from_flat(flat),
                         default_deadline=deadline, reload_check_every=0)
    nodes = [Batch(tuple(Count(s, t) for s, t in batch)) for batch in windows]
    first_answers = service.submit_query(nodes[0]).answer
    gc.collect()
    batched_latencies = []
    batched_served = 0
    stop_at = time.perf_counter() + args.duration
    started = time.perf_counter()
    i = 0
    while time.perf_counter() < stop_at:
        result = service.submit_query(nodes[i % len(nodes)])
        i += 1
        batched_latencies.append(result.elapsed)
        if result.status == SERVED_INDEX:
            batched_served += len(result.answer)
    batched_seconds = time.perf_counter() - started
    batched_qps = batched_served / batched_seconds
    check(batched_served > 0, "sustained: single-process batched baseline "
          f"served {batched_served} requests")
    section["batched"] = {
        "qps": batched_qps, "served": batched_served,
        "seconds": batched_seconds, "window": window,
        "p50_ms": percentile(batched_latencies, 0.50) * 1e3,
        "p95_ms": percentile(batched_latencies, 0.95) * 1e3,
        "p99_ms": percentile(batched_latencies, 0.99) * 1e3,
    }
    print(f"single-process batched: {batched_qps:,.0f} qps "
          f"(p99 {section['batched']['p99_ms']:.2f} ms per window)")
    del service, nodes
    gc.collect()

    # -- multiprocess cluster: batched round-trips over the shared arena --
    with tempfile.TemporaryDirectory() as scratch:
        arena = arena_cache or os.path.join(scratch, "labels.spcf")
        if not os.path.exists(arena):
            save_flat_labels(flat, arena, encoding="raw")
        with ClusterService(
            arena, workers=args.workers, shards=args.shards,
            max_batch=256, capacity=1024, queue_limit=4096,
            default_deadline=deadline,
            reload_check_every=0,
        ) as cluster:
            # Warm up before the clock starts: the first windows fault the
            # whole arena into the workers' page tables, which is deploy
            # cost, not sustained throughput.
            cluster.submit_many(pairs[:1024], timeout=60)
            cluster_first = cluster.submit_many(windows[0], timeout=60).answer
            gc.collect()
            # Open-loop double buffering through the bulk front door: one
            # window is always in flight while the previous one drains,
            # so the workers never sit idle between rounds. Latency
            # samples are per *window* (the unit a bulk caller waits on).
            stop_at = time.perf_counter() + args.duration
            cluster_latencies = []
            cluster_served = 0
            started = time.perf_counter()
            i = 0
            inflight = None

            def drain(future):
                nonlocal cluster_served
                result = future.result(timeout=60)
                cluster_latencies.append(result.elapsed)
                if result.status == SERVED_INDEX:
                    cluster_served += len(result.answer)

            while time.perf_counter() < stop_at:
                upcoming = cluster.submit_many_nowait(
                    windows[i % len(windows)])
                i += 1
                if inflight is not None:
                    drain(inflight)
                inflight = upcoming
            if inflight is not None:
                drain(inflight)
            cluster_seconds = time.perf_counter() - started
            cluster_qps = cluster_served / cluster_seconds
            workers = cluster.worker_stats()
            stats = cluster.stats()
        section["cluster"] = {
            "qps": cluster_qps, "served": cluster_served,
            "seconds": cluster_seconds, "workers": args.workers,
            "shards": args.shards,
            "window": window,
            "p50_ms": percentile(cluster_latencies, 0.50) * 1e3,
            "p95_ms": percentile(cluster_latencies, 0.95) * 1e3,
            "p99_ms": percentile(cluster_latencies, 0.99) * 1e3,
            "batches": stats["counters"]["batches"],
            "speedup": cluster_qps / single_qps,
            "speedup_vs_batched": cluster_qps / batched_qps,
            "worker_memory": [
                {"pid": w["pid"], "rss_kb": w["rss_kb"],
                 "arena_rss_kb": w["map_rss_kb"],
                 "arena_private_dirty_kb": w["map_private_dirty_kb"],
                 "arena_shared_clean_kb": w["map_shared_clean_kb"]}
                for w in workers
            ],
        }
        print(f"cluster: {cluster_qps:,.0f} qps "
              f"(p99 {section['cluster']['p99_ms']:.2f} ms, "
              f"{stats['counters']['batches']} batches, "
              f"speedup {cluster_qps / single_qps:.1f}x, "
              f"{cluster_qps / batched_qps:.2f}x the batched baseline)")
        check([tuple(a) for a in cluster_first]
              == [tuple(a) for a in first_answers],
              "sustained: cluster and in-process batched answers agree "
              "on the first window")
        check(cluster_served > 0, "sustained: cluster served "
              f"{cluster_served} requests")
        check(cluster_qps >= args.speedup_floor * single_qps,
              f"sustained: cluster {cluster_qps:,.0f} qps is >= "
              f"{args.speedup_floor:.0f}x single-process "
              f"{single_qps:,.0f} qps")
        for worker in workers:
            if worker["supported"]:
                check(worker["map_private_dirty_kb"] == 0,
                      f"sustained: worker {worker['pid']} maps the arena "
                      "shared (Private_Dirty == 0 kB)")
    merge_report(args.output, "sustained", section)
    print("sustained smoke: all invariants hold")
    return 0


def run_resilience(args):
    """Self-healing gates: kills, stalls, shard blackouts, drains.

    Closed-loop threads drive pair requests through a 2-replica/2-shard
    cluster for ``--duration`` seconds while a chaos script injects
    process faults on a fixed schedule. Every answer that claims success
    is checked bit-exact against ``count_many`` on the same labels; the
    run then has to end healthy (every slot respawned and serving).
    """
    import signal

    from repro.core.batch_query import count_many
    from repro.generators.random_graphs import gnp_random_graph
    from repro.io.flat_store import save_flat_labels
    from repro.kernels.hub_push import build_flat_labels_csr
    from repro.serving import SERVED_DEGRADED, SERVED_INDEX
    from repro.serving.cluster import ClusterService

    graph = gnp_random_graph(args.vertices, args.degree / (args.vertices - 1),
                             seed=args.seed)
    print(f"graph: gnp(n={graph.n}, m={graph.m})")
    flat = build_flat_labels_csr(graph)
    print(f"built {flat.total_entries()} label entries (csr engine)")
    pairs = [((i * 13) % graph.n, (i * 29 + 5) % graph.n)
             for i in range(1024)]
    truth = {pair: tuple(answer)
             for pair, answer in zip(pairs, count_many(flat, pairs))}
    deadline = args.deadline_ms / 1000.0
    section = {"config": vars(args), "python": platform.python_version(),
               "n": graph.n, "m": graph.m}

    with tempfile.TemporaryDirectory() as scratch:
        arena = os.path.join(scratch, "labels.spcf")
        save_flat_labels(flat, arena, encoding="raw")
        with ClusterService(
            arena, workers=4, shards=2, graph=graph,
            max_batch=128, capacity=512, queue_limit=2048,
            default_deadline=deadline,
            respawn_backoff=0.1, heartbeat_interval=0.25,
            stall_timeout=1.0, hedge_delay=0.05, reload_check_every=0,
        ) as cluster:
            cluster.submit_many(pairs[:256], timeout=60)

            results = []
            lock = threading.Lock()
            stop_at = time.perf_counter() + args.duration

            def closed_loop(offset):
                i = offset
                local = []
                while time.perf_counter() < stop_at:
                    pair = pairs[i % len(pairs)]
                    i += 7
                    local.append((pair, cluster.submit(*pair)))
                with lock:
                    results.extend(local)

            kills = []

            def sigkill(slot):
                pid = cluster.stats()["workers"][slot]["pid"]
                if pid:
                    os.kill(pid, signal.SIGKILL)
                    kills.append((slot, pid))
                    print(f"chaos: SIGKILL worker {slot} (pid {pid})")

            def chaos():
                step = args.duration / 6.0
                time.sleep(step)
                sigkill(0)                      # replica loss, shard 0
                time.sleep(step)
                pid = cluster.stats()["workers"][2]["pid"]
                os.kill(pid, signal.SIGSTOP)    # silent stall, shard 0
                print(f"chaos: SIGSTOP worker 2 (pid {pid})")
                time.sleep(step)
                sigkill(1)                      # shard-1 blackout: both
                sigkill(3)                      # replicas at once
                time.sleep(step)
                try:
                    cluster.drain(0).result(timeout=30)
                    print("chaos: drained worker 0")
                except Exception as exc:  # drain is best-effort chaos
                    print(f"chaos: drain failed: {exc}")

            drivers = [threading.Thread(target=closed_loop, args=(k * 97,))
                       for k in range(args.threads)]
            chaos_thread = threading.Thread(target=chaos)
            started = time.perf_counter()
            for thread in drivers:
                thread.start()
            chaos_thread.start()
            for thread in drivers:
                thread.join(timeout=300.0)
                check(not thread.is_alive(), "resilience: driver thread "
                      "finished")
            chaos_thread.join(timeout=60.0)
            check(not chaos_thread.is_alive(), "resilience: chaos thread "
                  "finished")
            seconds = time.perf_counter() - started

            deadline_at = time.monotonic() + 30.0
            while time.monotonic() < deadline_at:
                workers = cluster.stats()["workers"]
                if all(w["alive"] and w["state"] in ("idle", "busy")
                       for w in workers):
                    break
                time.sleep(0.05)
            check(all(w["alive"] for w in cluster.stats()["workers"]),
                  "resilience: every worker slot healed after the burst")
            verify = cluster.submit_many(pairs[:256], timeout=60)
            check(verify.ok and all(
                tuple(got) == truth[pair]
                for pair, got in zip(pairs[:256], verify.answer)),
                  "resilience: post-chaos verification burst is exact")

            stats = cluster.stats()

        tally = {}
        wrong = 0
        for pair, result in results:
            tally[result.status] = tally.get(result.status, 0) + 1
            if result.ok and tuple(result.answer) != truth[pair]:
                wrong += 1
        ok_statuses = (SERVED_INDEX, SERVED_DEGRADED)
        served = sum(tally.get(status, 0) for status in ok_statuses)
        total = len(results)
        availability = served / total if total else 0.0
        counters = stats["counters"]

        check(total > 0, f"resilience: {total} requests driven "
              f"({total / seconds:,.0f} qps)")
        check(wrong == 0, f"resilience: zero wrong answers ({wrong} wrong, "
              f"tally {tally})")
        check(availability >= args.availability_floor,
              f"resilience: availability {availability:.4f} >= "
              f"{args.availability_floor} ({tally})")
        check(counters["respawns"] >= len(kills),
              f"resilience: {counters['respawns']} respawns cover "
              f"{len(kills)} injected kills")
        check(counters["stalls"] >= 1,
              f"resilience: {counters['stalls']} stall kill(s) caught the "
              "SIGSTOPped worker")
        check(counters["hedge_wins"] >= 1,
              f"resilience: {counters['hedges']} hedges, "
              f"{counters['hedge_wins']} hedge win(s)")
        check(counters["drains"] >= 1,
              f"resilience: {counters['drains']} graceful drain(s)")

        section.update({
            "requests": total, "seconds": seconds,
            "qps": total / seconds, "availability": availability,
            "wrong": wrong, "tally": tally,
            "kills_injected": len(kills),
            "respawns": counters["respawns"],
            "stalls": counters["stalls"],
            "hedges": counters["hedges"],
            "hedge_wins": counters["hedge_wins"],
            "degraded_requests": counters["degraded_requests"],
            "degraded_served": tally.get(SERVED_DEGRADED, 0),
            "drains": counters["drains"],
            "replays": counters["replays"],
            "worker_failures": counters["worker_failures"],
        })
    merge_report(args.output, "resilience", section)
    print("resilience smoke: all invariants hold")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default="chaos",
                        choices=["chaos", "sustained", "resilience"],
                        help="chaos: 4-phase single-process gates (default); "
                             "sustained: cluster-vs-single throughput duel; "
                             "resilience: cluster self-healing under kills, "
                             "stalls and drains")
    parser.add_argument("--vertices", type=int, default=80,
                        help="graph size (default 80; sustained uses 10000 "
                             "unless overridden)")
    parser.add_argument("--burst", type=int, default=400,
                        help="requests per chaos/recovery burst (default 400)")
    parser.add_argument("--threads", type=int, default=8,
                        help="concurrent driver threads (default 8; "
                             "sustained uses 4 unless overridden)")
    parser.add_argument("--deadline-ms", type=float, default=20.0,
                        help="per-request budget in the chaos phase "
                             "(sustained default: 1000)")
    parser.add_argument("--duration", type=float, default=6.0,
                        help="seconds of sustained load per side")
    parser.add_argument("--workers", type=int, default=2,
                        help="cluster worker processes (sustained tier)")
    parser.add_argument("--shards", type=int, default=2,
                        help="cluster shards (sustained tier)")
    parser.add_argument("--speedup-floor", type=float, default=5.0,
                        help="minimum cluster/single QPS ratio (sustained)")
    parser.add_argument("--availability-floor", type=float, default=0.99,
                        help="minimum served fraction under chaos "
                             "(resilience tier)")
    parser.add_argument("--degree", type=int, default=20,
                        help="average G(n, p) degree (sustained tier)")
    parser.add_argument("--cache-dir", default=None,
                        help="reuse/populate a prebuilt label arena here "
                             "(sustained tier; the build takes minutes)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_serving.json")
    args = parser.parse_args(argv)

    if args.tier == "sustained":
        # Tier-specific defaults: a bigger graph, looser deadline, and a
        # modest driver pool (the box may be single-core; the speedup
        # gate is about batching, not parallelism).
        if args.vertices == 80:
            args.vertices = 10000
        if args.deadline_ms == 20.0:
            args.deadline_ms = 1000.0
        if args.threads == 8:
            args.threads = 4
        from repro.observability.metrics import enable_metrics

        enable_metrics()
        return run_sustained(args)

    if args.tier == "resilience":
        # Tier-specific defaults: a mid-size graph (labels build in
        # seconds with the csr kernel) and a deadline loose enough that
        # healing — not the budget — decides whether a request survives.
        if args.vertices == 80:
            args.vertices = 2000
        if args.degree == 20:
            args.degree = 8
        if args.deadline_ms == 20.0:
            args.deadline_ms = 1000.0
        return run_resilience(args)

    from repro.core.index import SPCIndex
    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.graph.traversal import spc_bfs
    from repro.io.serialize import save_index
    from repro.serving import (
        CIRCUIT_OPEN,
        DEADLINE,
        SERVED_INDEX,
        SHED,
        TERMINAL_STATUSES,
        SPCService,
    )
    from repro.bench.harness import attach_metrics
    from repro.observability.metrics import enable_metrics
    from repro.testing.faults import FlappingFile, SlowFallback

    enable_metrics()
    graph = barabasi_albert_graph(args.vertices, 2, seed=args.seed)
    print(f"graph: barabasi_albert(n={graph.n}, m={graph.m})")
    pairs = [((i * 13) % graph.n, (i * 29 + 5) % graph.n)
             for i in range(args.burst)]
    truth = {(s, t): spc_bfs(graph, s, t) for s, t in set(pairs)}
    deadline = args.deadline_ms / 1000.0

    def exact(results):
        return all(result.answer == truth[pair]
                   for pair, result in results if result.ok)

    report = {"config": vars(args), "python": platform.python_version()}

    with tempfile.TemporaryDirectory() as scratch:
        index_path = os.path.join(scratch, "index.bin")
        save_index(SPCIndex.build(graph), index_path, graph=graph)
        service = SPCService(
            graph, index_path=index_path, capacity=4, queue_limit=8,
            failure_threshold=5, reset_timeout=60.0, reload_check_every=1,
        )

        # Warm-up: the first request pays the initial index load+verify,
        # which is cold-start cost, not steady-state serving latency —
        # the burst gates below are about the latter. Collect the garbage
        # piled up by the BFS truth table too, so its one-off gen-2 pause
        # is not billed to an unlucky burst request.
        service.submit(*pairs[0])
        gc.collect()

        # Phase 1 — healthy burst.
        started = time.perf_counter()
        healthy = drive(service, pairs, args.threads, timeout=deadline)
        healthy_seconds = time.perf_counter() - started
        served = sum(r.status == SERVED_INDEX for _, r in healthy)
        p95 = percentile([r.elapsed for _, r in healthy], 0.95)
        # >= 99% (phase 4's standard): the tight per-request deadline makes
        # 100%-of-400 a max-latency gate, and a single OS-scheduler or GIL
        # hiccup while all slots are held fails it spuriously. The p95
        # check below still gates typical latency at the full deadline.
        check(served >= len(pairs) * 99 // 100,
              f"healthy burst: {served}/{len(pairs)} "
              "requests served from labels (>= 99%)")
        check(exact(healthy), "healthy burst: every answer matches the oracle")
        check(p95 <= deadline, f"healthy burst: p95 {p95 * 1e3:.2f} ms within "
              f"the {args.deadline_ms:.0f} ms deadline")
        report["healthy"] = {"requests": len(pairs), "served": served,
                             "p95_ms": p95 * 1e3,
                             "seconds": healthy_seconds}

        # Phase 2 — corrupt the file while the fallback crawls.
        flapper = FlappingFile(index_path)
        flapper.corrupt(mode="garbage")
        with SlowFallback(seconds=2.5 * deadline) as slow:
            chaos = drive(service, pairs, args.threads, timeout=deadline)
        tally = {}
        for _, result in chaos:
            tally[result.status] = tally.get(result.status, 0) + 1
        stray = set(tally) - set(TERMINAL_STATUSES)
        check(not stray and sum(tally.values()) == len(pairs),
              f"chaos burst: all {len(pairs)} requests ended in a terminal "
              f"status ({tally})")
        breaker = service.breaker.snapshot()
        check(exact(chaos), "chaos burst: every served answer stays exact")
        check(tally.get(DEADLINE, 0) >= 5,
              f"chaos burst: {tally.get(DEADLINE, 0)} deadline failures "
              "(enough to trip the breaker)")
        check(breaker["counters"]["opened"] >= 1,
              "chaos burst: the circuit breaker opened")
        check(breaker["counters"]["short_circuited"] > 0
              and tally.get(CIRCUIT_OPEN, 0) > 0,
              f"chaos burst: {tally.get(CIRCUIT_OPEN, 0)} requests "
              "short-circuited instead of burning deadlines")
        check(slow.calls < len(pairs) // 2,
              f"chaos burst: only {slow.calls}/{len(pairs)} requests paid "
              "the slow fallback")
        report["chaos"] = {"tally": tally, "slow_calls": slow.calls,
                           "breaker": breaker}

        # Phase 3 — overload a deliberately tiny service: shed, don't melt.
        tiny = SPCService(graph, index_path=None, capacity=1, queue_limit=0)
        with SlowFallback(seconds=0.02):
            overload = drive(tiny, pairs[:100], args.threads, timeout=5.0)
        shed = [r for _, r in overload if r.status == SHED]
        check(len(shed) > 0, f"overload: {len(shed)}/100 requests shed")
        check(all(r.error.retry_after > 0 for r in shed),
              "overload: every shed response carries a retry-after hint")
        check(exact(overload), "overload: admitted answers stay exact")
        report["overload"] = {"requests": 100, "shed": len(shed)}

        # Phase 4 — restore the file: one reload, breaker closed, recovery.
        flapper.restore()
        primer = service.submit(0, 1, timeout=5.0)
        check(primer.status == SERVED_INDEX,
              "recovery: first request after restore served from labels")
        check(service.breaker.state == "closed",
              "recovery: the reload closed the breaker")
        check(service.generation == 2,
              f"recovery: generation bumped to {service.generation}")
        recovery = drive(service, pairs, args.threads, timeout=5.0)
        from_labels = sum(r.status == SERVED_INDEX for _, r in recovery)
        p95 = percentile([r.elapsed for _, r in recovery], 0.95)
        check(from_labels >= len(pairs) * 99 // 100,
              f"recovery burst: {from_labels}/{len(pairs)} served from labels "
              "(>= 99%)")
        check(exact(recovery), "recovery burst: answers match the oracle")
        report["recovery"] = {"requests": len(pairs),
                              "served_index": from_labels,
                              "p95_ms": p95 * 1e3}
        report["service"] = service.stats()

    attach_metrics(report)
    # Keep the other tiers' sections when they ran before this tier.
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                existing = json.load(handle)
            for key in ("sustained", "resilience"):
                if key in existing:
                    report[key] = existing[key]
        except (OSError, ValueError):
            pass
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    print("serving smoke: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
