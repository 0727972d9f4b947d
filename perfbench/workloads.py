"""The benchmark workloads: set-up, warm-up, measured loop and checks.

Each workload owns one fixed graph and turns the run seed into its
inputs with :mod:`gen`. The measured loops call only public functions of
``repro``; spans are recorded here, around those calls, on the tracer the
runner passes in (a disabled one for the untraced run).
"""

import os
import threading
import time
from statistics import median

import gen
import numpy as np
from measure import (
    Outcomes,
    MIN_POOL,
    lateness_ms,
    own_peak_rss_mb,
    quietest_pool,
    run_open_loop,
    trial_stats,
    unshared_mb,
)
from repro.core.batch_query import count_many_arrays
from repro.core.index import SPCIndex
from repro.core.ordering import resolve_static_order
from repro.dynamic import DynamicSPCIndex
from repro.generators import barabasi_albert_graph
from repro.graph.traversal import spc_bfs
from repro.io.flat_store import load_flat_labels, save_flat_labels
from repro.kernels.hub_push import build_flat_labels_csr
from repro.query import Batch, Count, QueryEngine
from repro.serving import ClusterService, SPCService
from repro.serving.service import SERVED_INDEX

clock = time.perf_counter

BIG_GRAPH = {"model": "barabasi-albert", "n": 10_000, "attach": 3,
             "seed": 20200614}
CHURN_GRAPH = {"model": "barabasi-albert", "n": 2_000, "attach": 3,
               "seed": 20200615}
LIMIT_S = 0.025           # latency limit of one op, for slo_met_frac
MIN_OPS = MIN_POOL        # a closed loop runs at least this many ops,
MAX_STRETCH = 3.0         # even past --seconds, up to this multiple
WINDOW = 32               # pairs per batch-uniform window
ZIPF_EXPONENT = 1.0
CLUSTER_RATE = 750.0      # requests/s offered to serve-cluster
REQUEST_TIMEOUT_S = 1.0   # per-request budget of the serve workloads
INPROC_CLIENTS = 2
CHURN_MUTATION_EVERY = 20  # 5% of ops mutate the graph
CHURN_AUTO_REBUILD = 8     # a rebuild, and a first query that thaws
                           # its labels, every 160 ops: p99 lies there
BFS_SAMPLE = 12           # seeded pairs per run checked against spc_bfs
LADDER_WINDOWS = 48       # batched-ladder windows per rung
LADDER_PAIRS = 192        # per-pair-ladder pairs per rung


def cluster_workers():
    return min(2, os.cpu_count() or 1)


def make_graph(params):
    return barabasi_albert_graph(params["n"], params["attach"],
                                 seed=params["seed"])


def timed(tracer, name, fn, **attrs):
    """``(fn(), seconds)``, with a span named ``name`` around the call."""
    span = tracer.begin(name, **attrs)
    start = clock()
    try:
        result = fn()
    finally:
        seconds = clock() - start
        tracer.end(span)
    return result, seconds


def build_index(graph, path, tracer, stats=None):
    """ordering -> hub push -> SPCF save -> mmap load.

    Returns the mapped :class:`FlatLabels` and the seconds of each step
    under its per-layer metric name.
    """
    steps = {}
    order, steps["ordering.s"] = timed(
        tracer, "ordering", lambda: resolve_static_order(graph, "degree"))
    flat, steps["hub_push.s"] = timed(
        tracer, "hub_push",
        lambda: build_flat_labels_csr(graph, ordering=order, stats=stats))
    _, steps["flat_store.save.s"] = timed(
        tracer, "flat_store.save",
        lambda: save_flat_labels(flat, path, graph=graph))
    mapped, steps["flat_store.load.s"] = timed(
        tracer, "flat_store.load", lambda: load_flat_labels(path, mmap=True))
    return mapped, steps


def fault_in(flat):
    """One full pass over every mapped column; returns a checksum."""
    total = 0
    for column in (flat.indptr, flat.rank, flat.dist, flat.count,
                   flat.canonical, flat.order):
        total += int(np.asarray(column).view(np.uint8).sum(dtype=np.int64))
    return total


def counter_delta(before, after):
    """Per-key increase between two ``stats()["counters"]`` snapshots."""
    return {k: after[k] - before.get(k, 0) for k in after}


def norm(answer):
    """``(dist, count)`` in one comparable form across engines."""
    dist, count = answer
    return (float(dist), int(count))


def kernel_answers(flat, sources, targets):
    """Reference answers from the in-process kernel, unique pairs only."""
    keys = np.stack([np.asarray(sources, dtype=np.int64),
                     np.asarray(targets, dtype=np.int64)], axis=1)
    unique = np.unique(keys, axis=0)
    dist, count = count_many_arrays(flat, unique[:, 0], unique[:, 1])
    return {(s, t): (d, c)
            for (s, t), d, c in zip(unique.tolist(), dist.tolist(),
                                    count.tolist())}


def bfs_mismatches(graph, flat, sources, targets, label):
    """Compare a seeded sample against BFS counting; list the mismatches."""
    got = kernel_answers(flat, sources, targets)
    bad = []
    for s, t in zip(sources.tolist(), targets.tolist()):
        want = norm(spc_bfs(graph, s, t))
        if norm(got[(s, t)]) != want:
            bad.append(f"{label}: kernel {got[(s, t)]} != bfs {want} "
                       f"for ({s}, {t})")
    return bad


class Phase:
    """What one measured loop produced."""

    def __init__(self, closed_loop, trial_ops):
        self.closed_loop = closed_loop
        self.trial_ops = trial_ops
        self.outcomes = Outcomes(LIMIT_S)
        self.extra = {}         # workload-specific measurements

    def whole(self):
        """Throughput and percentiles over every record of the loop."""
        return trial_stats(self.outcomes.records)

    def quietest(self):
        """The reported figures: the pooled quietest trials (see
        :func:`measure.quietest_pool`), or the whole loop when the
        workload has no trials."""
        if self.trial_ops is None:
            return self.whole()
        return quietest_pool(self.outcomes.records, self.trial_ops,
                             self.closed_loop)


def enough(start, seconds, records):
    """A closed loop stops after ``seconds`` and ``MIN_OPS`` operations."""
    now = clock()
    if now >= start + seconds * MAX_STRETCH:
        return True
    return now >= start + seconds and records >= MIN_OPS


class Workload:
    """Common shape; subclasses fill in set-up, loop and checks."""

    name = None
    why = None
    graph_params = BIG_GRAPH
    closed_loop = True
    trial_ops = None          # ops per trial; None: report the whole loop
    setup_reps = 3            # set-ups per run; setup_s is their median

    def __init__(self, seed, seconds, workdir):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.graph = make_graph(self.graph_params)
        self.make_inputs()

    def params(self):
        return {"graph": self.graph_params, "latency_limit_ms": LIMIT_S * 1e3,
                "trial_ops": self.trial_ops}

    def path(self, tag):
        return os.path.join(self.workdir, f"{self.name}-{tag}.spcf")

    def make_inputs(self):
        raise NotImplementedError

    def skew(self):
        raise NotImplementedError

    def setup(self, tag, tracer, stats=None):
        """Graph in hand -> ready to answer; returns the state dict."""
        path = self.path(tag)
        flat, steps = build_index(self.graph, path, tracer, stats)
        state = {"flat": flat, "path": path, "steps": steps}
        self.wrap(state, tracer)
        return state

    def wrap(self, state, tracer):
        raise NotImplementedError

    def teardown(self, state):
        cluster = state.pop("cluster", None)
        if cluster is not None:
            cluster.close()

    def warm(self, state):
        """Lazy set-up the first ops would otherwise pay (untimed)."""
        fault_in(state["flat"])
        state["flat"].rows()

    def measure(self, state, seconds, tracer):
        raise NotImplementedError

    def verify(self, state, phase):
        raise NotImplementedError

    def index_bytes(self, state):
        return os.path.getsize(state["path"])

    def peak_rss_mb(self, state):
        return own_peak_rss_mb()

    def bfs_sample(self):
        rng = gen.rng_for(self.seed, gen.STREAM_SAMPLE)
        return gen.uniform_pairs(rng, self.graph.n, BFS_SAMPLE)

    def ladder_inputs(self):
        """``(windows, pairs)`` from this workload's own inputs."""
        raise NotImplementedError


class BatchUniform(Workload):
    name = "batch-uniform"
    why = ("the paper's uniform random-pair query as compiled Batch "
           "windows via QueryEngine: the batched kernel over 53 MB of "
           "labels does most of the work")
    trial_ops = 250

    def params(self):
        return {**super().params(), "clients": 1, "loop": "closed",
                "window_pairs": WINDOW, "pairs": "uniform"}

    def make_inputs(self):
        rng = gen.rng_for(self.seed, gen.STREAM_PAIRS)
        # Fresh windows for the longest loop plus the ladder, so no run
        # wraps around (a repeated window would be a result-cache hit,
        # which this workload must not measure).
        count = (max(int(self.seconds * 1500), 2 * MIN_OPS)
                 + 2 * LADDER_WINDOWS)
        sources, targets = gen.uniform_pairs(rng, self.graph.n,
                                             count * WINDOW)
        self.sources = sources.reshape(count, WINDOW)
        self.targets = targets.reshape(count, WINDOW)
        self.measured = count - 2 * LADDER_WINDOWS

    def skew(self):
        return gen.skew(self.sources[:2000].ravel(),
                        self.targets[:2000].ravel())

    def wrap(self, state, tracer):
        state["engine"], state["steps"]["query.wrap.s"] = timed(
            tracer, "query.wrap",
            lambda: QueryEngine(index=SPCIndex.from_flat(state["flat"])))

    def warm(self, state):
        super().warm(state)
        w = self.measured  # a window no measured loop uses
        state["engine"].compile(Batch(tuple(
            Count(s, t) for s, t in zip(self.sources[w].tolist(),
                                        self.targets[w].tolist())))).run()

    def measure(self, state, seconds, tracer):
        engine = state["engine"]
        phase = Phase(self.closed_loop, self.trial_ops)
        kept = {}
        first = state.setdefault("next_window", 0)
        w = first
        start = clock()
        while w < self.measured and not enough(start, seconds, w - first):
            span = tracer.begin("query.batch", rid=f"w{w}")
            began = clock()
            node = Batch(tuple(
                Count(s, t) for s, t in zip(self.sources[w].tolist(),
                                            self.targets[w].tolist())))
            result = engine.compile(node).run()
            ended = clock()
            tracer.end(span)
            phase.outcomes.record(True, began, ended, WINDOW)
            if (w - first) % 16 == 0:
                kept[w] = result
            w += 1
        state["next_window"] = w
        phase.extra["answers"] = kept
        return phase

    def verify(self, state, phase):
        """A seeded sample of windows against the kernel, plus BFS."""
        flat = state["flat"]
        bad = []
        for w, result in phase.extra["answers"].items():
            dist, count = count_many_arrays(flat, self.sources[w],
                                            self.targets[w])
            if [norm(a) for a in result] != [
                    norm(a) for a in zip(dist.tolist(), count.tolist())]:
                bad.append(f"{self.name}: window {w} differs from "
                           f"count_many_arrays")
        s, t = self.bfs_sample()
        return bad + bfs_mismatches(self.graph, flat, s, t, self.name)

    def ladder_inputs(self):
        lo = self.measured + LADDER_WINDOWS
        windows = [(self.sources[w], self.targets[w])
                   for w in range(lo, lo + LADDER_WINDOWS)]
        block = slice(self.measured, lo)
        pairs = list(zip(self.sources[block].ravel().tolist(),
                         self.targets[block].ravel().tolist()))
        return windows, pairs[:LADDER_PAIRS]


class ZipfServe(Workload):
    """Shared parts of the two serve workloads (Zipf pairs, verification)."""

    def params(self):
        return {**super().params(), "pairs": "zipf",
                "zipf_exponent": ZIPF_EXPONENT,
                "request_timeout_s": REQUEST_TIMEOUT_S}

    def zipf(self, count):
        rng = gen.rng_for(self.seed, gen.STREAM_ZIPF)
        return gen.zipf_pairs(rng, self.graph.n, count, ZIPF_EXPONENT)

    def skew(self):
        return gen.skew(self.sources[:20000], self.targets[:20000])

    def verify(self, state, phase):
        """Every served answer against the kernel, plus BFS."""
        flat = state["flat"]
        pairs = phase.extra["pairs"]
        answers = phase.extra["answers"]
        served = [p for p, a in zip(pairs, answers) if a is not None]
        bad = []
        if served:
            reference = kernel_answers(flat, [s for s, _ in served],
                                       [t for _, t in served])
            for (s, t), answer in zip(pairs, answers):
                if answer is not None and \
                        norm(answer) != norm(reference[(s, t)]):
                    bad.append(f"{self.name}: served {answer} != kernel "
                               f"{reference[(s, t)]} for ({s}, {t})")
        s, t = self.bfs_sample()
        return bad + bfs_mismatches(self.graph, flat, s, t, self.name)

    def ladder_inputs(self):
        # The tail of the pair pool: Zipf pairs no measured loop sends.
        lo = len(self.sources) - LADDER_WINDOWS * WINDOW - LADDER_PAIRS
        windows = [(self.sources[i:i + WINDOW], self.targets[i:i + WINDOW])
                   for i in range(lo, lo + LADDER_WINDOWS * WINDOW, WINDOW)]
        tail = slice(lo + LADDER_WINDOWS * WINDOW, None)
        pairs = list(zip(self.sources[tail].tolist(),
                         self.targets[tail].tolist()))
        return windows, pairs


class ServeCluster(ZipfServe):
    name = "serve-cluster"
    why = ("open-loop Poisson single-pair requests with Zipf popularity "
           "to ClusterService: router, pipes and coalescing do most of "
           "the work, the kernel under 1%")
    closed_loop = False
    trial_ops = 100

    def params(self):
        workers = cluster_workers()
        return {**super().params(), "loop": "open", "generator_threads": 1,
                "rate_per_s": CLUSTER_RATE, "workers": workers,
                "shards": workers}

    def make_inputs(self):
        count = int(CLUSTER_RATE * self.seconds * 1.3) + 1024
        self.sources, self.targets = self.zipf(
            count + LADDER_WINDOWS * WINDOW + LADDER_PAIRS)

    def wrap(self, state, tracer):
        workers = cluster_workers()
        state["cluster"], state["steps"]["cluster.start.s"] = timed(
            tracer, "cluster.start",
            lambda: ClusterService(state["path"], workers=workers,
                                   shards=workers))

    def warm(self, state):
        super().warm(state)
        cluster = state["cluster"]
        # One scatter-gather sweep faults every shard's rows into its
        # worker, then enough single requests for the hedge policy's
        # per-shard p95.
        cluster.single_source(0, timeout=30.0)
        rng = gen.rng_for(self.seed + 1_000_003, gen.STREAM_ZIPF)
        s, t = gen.uniform_pairs(rng, self.graph.n, 96)
        for a, b in zip(s.tolist(), t.tolist()):
            cluster.submit(a, b, timeout=30.0)

    def measure(self, state, seconds, tracer):
        cluster = state["cluster"]
        phases = state.get("phases", 0)
        state["phases"] = phases + 1
        rng = gen.rng_for(self.seed * 1000 + phases, gen.STREAM_SCHEDULE)
        schedule = gen.poisson_schedule(rng, CLUSTER_RATE, seconds)
        offset = state.get("next_pair", 0)
        state["next_pair"] = offset + len(schedule)
        sources = self.sources[offset:offset + len(schedule)].tolist()
        targets = self.targets[offset:offset + len(schedule)].tolist()
        before = cluster.stats()["counters"]
        count = len(schedule)
        done = [None] * count
        answers = [None] * count
        served = [False] * count
        left = [count]
        lock = threading.Lock()
        finished = threading.Event()

        def submit(i):
            span = tracer.begin("loadgen.submit", rid=f"r{offset + i}")
            future = cluster.submit_nowait(sources[i], targets[i],
                                           timeout=REQUEST_TIMEOUT_S)
            tracer.end(span)
            return future

        def on_done(i, future, now):
            # Keep plain values only: holding 20k futures would make the
            # collector's pauses, which stall the router thread sharing
            # this process, the benchmark's doing.
            done[i] = now
            result = future.result()
            served[i] = result.status == SERVED_INDEX
            answers[i] = result.answer if served[i] else None
            if tracer.enabled:
                tracer.end(tracer.begin("cluster.reply",
                                        rid=f"r{offset + i}"))
            with lock:
                left[0] -= 1
                if not left[0]:
                    finished.set()

        out = {}

        def generate():
            out["run"] = run_open_loop(schedule, submit, on_done)

        generator = threading.Thread(target=generate, name="loadgen")
        generator.start()
        generator.join()
        finished.wait(60.0)
        due, sent = out["run"]
        phase = Phase(self.closed_loop, self.trial_ops)
        for i in range(count):
            if done[i] is None:  # never resolved: a failure at the wait
                phase.outcomes.record(False, due[i], clock())
            else:
                phase.outcomes.record(served[i], due[i], done[i])
        after = cluster.stats()["counters"]
        phase.extra.update(
            pairs=list(zip(sources, targets)), answers=answers,
            lateness=lateness_ms(due, sent),
            counters=counter_delta(before, after),
        )
        return phase

    def peak_rss_mb(self, state):
        workers = state["cluster"].stats()["workers"]
        return own_peak_rss_mb() + sum(
            unshared_mb(w["pid"]) for w in workers if w["pid"] is not None)


class ServeInproc(ZipfServe):
    name = "serve-inproc"
    why = ("two closed-loop clients sending the same Zipf pairs through "
           "SPCService.submit: the in-process serving envelope, which no "
           "other workload measures")
    trial_ops = 2000

    def params(self):
        return {**super().params(), "loop": "closed",
                "clients": INPROC_CLIENTS}

    def make_inputs(self):
        self.per_client = int(self.seconds * 12000) + 4096
        self.sources, self.targets = self.zipf(
            self.per_client * INPROC_CLIENTS
            + LADDER_WINDOWS * WINDOW + LADDER_PAIRS)

    def wrap(self, state, tracer):
        state["service"], state["steps"]["service.wrap.s"] = timed(
            tracer, "service.wrap",
            lambda: SPCService(self.graph,
                               index=SPCIndex.from_flat(state["flat"])))

    def warm(self, state):
        super().warm(state)
        service = state["service"]
        rng = gen.rng_for(self.seed + 1_000_003, gen.STREAM_ZIPF)
        s, t = gen.uniform_pairs(rng, self.graph.n, 256)
        for a, b in zip(s.tolist(), t.tolist()):
            service.submit(a, b)

    def measure(self, state, seconds, tracer):
        service = state["service"]
        first = state.get("next_pair", 0)
        before = service.stats()["counters"]
        phase = Phase(self.closed_loop, self.trial_ops)
        barrier = threading.Barrier(INPROC_CLIENTS + 1)
        results = [None] * INPROC_CLIENTS
        start = []

        def client(c):
            lo = c * self.per_client + first
            hi = (c + 1) * self.per_client
            sources = self.sources[lo:hi].tolist()
            targets = self.targets[lo:hi].tolist()
            records, answers = [], []
            barrier.wait()
            begin = start[0]
            for i in range(len(sources)):
                span = tracer.begin("service.submit", rid=f"c{c}r{lo + i}")
                began = clock()
                result = service.submit(sources[i], targets[i],
                                        timeout=REQUEST_TIMEOUT_S)
                ended = clock()
                tracer.end(span)
                ok = result.status == SERVED_INDEX
                records.append((began, ended, ok, 1))
                answers.append(result.answer if ok else None)
                if i % 64 == 0 and enough(
                        begin, seconds, len(records) * INPROC_CLIENTS):
                    break
            results[c] = (records, answers, sources[:len(answers)],
                          targets[:len(answers)])

        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"client-{c}")
                   for c in range(INPROC_CLIENTS)]
        for thread in threads:
            thread.start()
        start.append(clock())
        barrier.wait()
        for thread in threads:
            thread.join()
        pairs, answers = [], []
        used = 0
        for result in results:
            if result is None:
                continue  # the client thread died; the hook counted it
            records, got, sources, targets = result
            phase.outcomes.merge(records)
            answers.extend(got)
            pairs.extend(zip(sources, targets))
            used = max(used, len(got))
        state["next_pair"] = first + used
        after = service.stats()["counters"]
        phase.extra.update(
            pairs=pairs, answers=answers,
            counters=counter_delta(before, after),
        )
        return phase


class Churn(Workload):
    name = "churn"
    why = ("95% queries beside 5% edge inserts/deletes on DynamicSPCIndex "
           "with inline rebuilds: overlay and BFS-fallback queries and "
           "repeated builds, no batching or serving tier")
    graph_params = CHURN_GRAPH
    # Reported over the whole loop, which ends on a rebuild: a short
    # trial's cost hinges on which edges its mutations touched (BFS
    # fallbacks), so picking quiet trials picked cheap inputs instead;
    # and pooling a quarter of the rebuild cycles, ranked by a host
    # speed probe, spread twice as much over ten seeds as the whole loop.
    setup_reps = 7

    def params(self):
        return {**super().params(), "clients": 1, "loop": "closed",
                "mutation_every_ops": CHURN_MUTATION_EVERY,
                "auto_rebuild": CHURN_AUTO_REBUILD, "engine": "csr",
                "bfs_checks": "before each mutation",
                "trial_ops": "whole loop, ending on a rebuild"}

    def make_inputs(self):
        rng = gen.rng_for(self.seed, gen.STREAM_CHURN)
        ops = int(self.seconds * MAX_STRETCH * 400) + 2 * MIN_OPS
        self.stream = gen.churn_stream(rng, self.graph.n,
                                       list(self.graph.edges()), ops,
                                       CHURN_MUTATION_EVERY)

    def skew(self):
        queries = [op for op in self.stream if op[0] == "count"]
        stats = gen.skew([q[1] for q in queries], [q[2] for q in queries])
        stats["mutation_share"] = 1.0 - len(queries) / len(self.stream)
        return stats

    def setup(self, tag, tracer, stats=None):
        dynamic, seconds = timed(
            tracer, "dynamic.build",
            lambda: DynamicSPCIndex(self.graph,
                                    auto_rebuild=CHURN_AUTO_REBUILD,
                                    engine="csr"))
        return {"dynamic": dynamic, "steps": {"dynamic.build.s": seconds},
                "path": self.path(tag)}

    def index_bytes(self, state):
        """SPCF size of the initial base index (written untimed, once)."""
        if not os.path.exists(state["path"]):
            save_flat_labels(SPCIndex.build(self.graph, engine="csr")
                             .to_flat(), state["path"], graph=self.graph)
        return os.path.getsize(state["path"])

    def warm(self, state):
        # Thaws the tuple labels the per-pair query path reads.
        state["dynamic"].count_with_distance(0, 1)

    def measure(self, state, seconds, tracer):
        """Closed loop over the stream; trials end on inline rebuilds.

        BFS checkpoints before each mutation pause the clock.
        """
        dynamic = state["dynamic"]
        phase = Phase(self.closed_loop, self.trial_ops)
        first = state.get("next_op", 0)
        kinds = {"clean": [], "overlay": [], "mutation": [], "rebuild": []}
        checks = []
        recent = []  # answered queries since the last mutation
        # BFS fallbacks of the untimed checkpoint probes are not counted.
        fallbacks_before = dynamic.overlay_fallbacks
        paused = 0.0
        i = first
        start = clock()
        while i < len(self.stream):
            op, a, b = self.stream[i]
            if op != "count" and recent:
                # Untimed: the answers since the last mutation, checked
                # on the graph they were answered on.
                began = clock()
                probed = dynamic.overlay_fallbacks
                checks.extend(self.checkpoint(dynamic, recent, i))
                fallbacks_before += dynamic.overlay_fallbacks - probed
                paused += clock() - began
                recent = []
            pending = dynamic.pending_mutations
            span = tracer.begin(f"dynamic.{op}", rid=f"o{i}")
            began = clock()
            if op == "count":
                answer = dynamic.count_with_distance(a, b)
            elif op == "insert":
                dynamic.insert_edge(a, b)
            else:
                dynamic.delete_edge(a, b)
            ended = clock()
            tracer.end(span)
            phase.outcomes.record(True, began - paused, ended - paused)
            took = ended - began
            i += 1
            if op == "count":
                kinds["clean" if pending == 0 else "overlay"].append(took)
                recent.append((a, b, answer))
                continue
            # A mutation that reached the threshold rebuilt inline.
            rebuilt = (pending + 1 >= CHURN_AUTO_REBUILD
                       and dynamic.pending_mutations == 0)
            kinds["rebuild" if rebuilt else "mutation"].append(took)
            done = i - first
            if rebuilt and done >= MIN_OPS and \
                    clock() - start - paused >= seconds:
                break
            if clock() - start >= seconds * MAX_STRETCH:
                break
        if recent:
            checks.extend(self.checkpoint(dynamic, recent, i))
        state["next_op"] = i
        phase.extra.update(
            kinds=kinds, checks=checks,
            queries=len(kinds["clean"]) + len(kinds["overlay"]),
            fallbacks=dynamic.overlay_fallbacks - fallbacks_before)
        return phase

    def checkpoint(self, dynamic, recent, at):
        """The last few ``recent`` answers and a seeded pair against BFS."""
        current = dynamic.current_graph()
        rng = gen.rng_for(self.seed * 7919 + at, gen.STREAM_SAMPLE)
        s, t = (int(x) for x in rng.integers(0, current.n, size=2))
        probe = [(s, t, dynamic.count_with_distance(s, t))]
        bad = []
        for a, b, answer in recent[-4:] + probe:
            want = norm(spc_bfs(current, a, b))
            if norm(answer) != want:
                bad.append(f"churn: op {at}: answer {answer} != bfs {want} "
                           f"for ({a}, {b})")
        return bad

    def verify(self, state, phase):
        return phase.extra["checks"]

    def teardown(self, state):
        state.pop("dynamic", None)

    def ladder_inputs(self):
        queries = [(a, b) for op, a, b in self.stream if op == "count"]
        sources = np.array([a for a, _ in queries], dtype=np.int64)
        targets = np.array([b for _, b in queries], dtype=np.int64)
        windows = [(sources[i:i + WINDOW], targets[i:i + WINDOW])
                   for i in range(0, LADDER_WINDOWS * WINDOW, WINDOW)]
        return windows, queries[-LADDER_PAIRS:]


WORKLOADS = {cls.name: cls for cls in
             (BatchUniform, ServeCluster, ServeInproc, Churn)}


def dynamic_layers(phase):
    """Per-layer numbers of the churn loop."""
    kinds = phase.extra["kinds"]

    def med_us(values):
        return median(values) * 1e6 if values else 0.0

    queries = phase.extra["queries"]
    return {
        "dynamic.query_clean.us": med_us(kinds["clean"]),
        "dynamic.query_overlay.us": med_us(kinds["overlay"]),
        "dynamic.overlay_fallback_ratio":
            phase.extra["fallbacks"] / queries if queries else 0.0,
        "dynamic.mutation.us": med_us(kinds["mutation"]),
        "dynamic.rebuilds": len(kinds["rebuild"]),
        "dynamic.rebuild.s": median(kinds["rebuild"])
        if kinds["rebuild"] else 0.0,
    }
