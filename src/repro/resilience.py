"""Graceful query-time degradation: serve from the index when healthy,
fall back to online BFS when not.

A production counting service must answer even when its index file is
missing, truncated, bit-flipped, or built for yesterday's graph. A
:class:`ResilientSPCIndex` wraps that policy:

* **load + verify** — the index file is read through the checksummed v3
  loader and its stored graph fingerprint (n, m, degree hash) is checked
  against the live graph (files without one fall back to a vertex-count
  check); any failure is recorded and demotes the serving path instead
  of crashing.
* **serve** — every query goes through one routine,
  :meth:`ResilientSPCIndex.serve`: a healthy index answers through
  :class:`~repro.core.index.SPCIndex` (including the vectorized flat
  engine for batches); a query-time index fault demotes it; a degraded
  facade answers through the exact online
  :class:`~repro.baselines.bfs_counting.BFSCountingOracle` — slower but
  always correct, never a wrong count. ``serve`` also names the path
  that answered, so callers never infer it from the facade's state
  after the fact.
* **observe** — ``counters`` tallies index hits, fallback hits, load,
  verification and staleness failures, so operators can alarm on
  degradation; ``last_error`` keeps the typed reason; ``generation``
  counts successful (re)loads so hot swaps are visible downstream.
* **defend** — every query accepts a ``deadline`` (:class:`repro.serving
  .Deadline`) that the BFS fallback honours between levels, and an
  optional :class:`~repro.serving.breaker.CircuitBreaker` gates the
  fallback path: when the degraded path keeps timing out, queries fail
  fast with :class:`~repro.exceptions.CircuitOpenError` instead of each
  burning a full deadline.

All state transitions (index swap, demotion, counters) happen under one
lock, and queries snapshot the index reference once — concurrent readers
never see a torn swap. Invalid vertex ids raise
:class:`~repro.exceptions.VertexError` on both paths — degradation never
converts a caller bug into a silent answer.
"""

import threading

from repro.baselines.bfs_counting import BFSCountingOracle
from repro.core.index import SPCIndex
from repro.exceptions import (
    DeadlineExceeded,
    LabelingError,
    ReproError,
    SerializationError,
    StaleIndexError,
    VertexError,
)
from repro.io.serialize import graph_fingerprint, load_labels_with_meta
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry
from repro.query.backends import merge_min_count


class ResilientSPCIndex:
    """Shortest-path-counting facade that degrades instead of failing.

    Parameters
    ----------
    graph:
        The live :class:`~repro.graph.graph.Graph` queries refer to.
    index_path:
        Optional path to a persisted index (:func:`repro.io.serialize
        .save_index`). Missing/corrupt/stale files put the facade in
        degraded (BFS) mode rather than raising.
    index:
        Alternatively, an in-memory :class:`SPCIndex` to adopt (still
        verified against the graph's vertex count and its ``stale`` flag).
    bfs_engine:
        Engine for the fallback oracle (``"python"`` or ``"csr"``).
    io_retries:
        Transient-``OSError`` re-reads attempted by the loader.
    breaker:
        Optional :class:`~repro.serving.breaker.CircuitBreaker` guarding
        the BFS fallback path. When open, degraded queries raise
        :class:`~repro.exceptions.CircuitOpenError` immediately.
    """

    def __init__(self, graph, index_path=None, index=None, bfs_engine="python",
                 io_retries=1, breaker=None):
        self._graph = graph
        self._path = index_path
        self._io_retries = io_retries
        self._oracle = BFSCountingOracle(graph, engine=bfs_engine)
        self._breaker = breaker
        self._index = None
        self._last_error = None
        self._lock = threading.Lock()
        self.generation = 0
        self.counters = {
            "index_queries": 0,
            "fallback_queries": 0,
            "load_failures": 0,
            "verify_failures": 0,
            "query_failures": 0,
            "stale_detections": 0,
            "graph_swaps": 0,
        }
        if index is not None:
            if index.labels.n != graph.n:
                self._record("verify_failures")
                self._last_error = StaleIndexError(
                    graph_fingerprint(graph), (index.labels.n, None, None),
                    context="in-memory index",
                )
            else:
                self._index = index
                self.generation = 1
            self._publish_state()
        elif index_path is not None:
            self.reload()
        else:
            self._publish_state()

    # -- lifecycle -----------------------------------------------------------

    def _record(self, kind, delta=1):
        """Bump a lifecycle counter (dict + registry mirror).

        The dict stays the stable programmatic surface (``explain()``,
        existing callers); the registry mirror makes the same tallies
        scrapeable as ``spc_index_events_total{kind=...}``.
        """
        self.counters[kind] += delta
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_index_events_total", kind=kind).inc(delta)

    def _publish_state(self):
        """Reflect serving path and generation into registry gauges."""
        registry = get_registry()
        if registry.enabled:
            registry.gauge("spc_serving_degraded").set(
                0 if self._index is not None else 1
            )
            registry.gauge("spc_index_generation").set(self.generation)

    def reload(self):
        """(Re)load and verify the index file; True when now serving from it.

        Every failure mode is recorded (``load_failures`` for I/O and
        format corruption, ``verify_failures`` for fingerprint mismatches)
        and leaves the facade in degraded mode with ``last_error`` set.
        A success atomically swaps the served index and bumps
        ``generation``; readers mid-query keep the snapshot they started
        with, so a swap never tears an in-flight answer.
        """
        try:
            labels, meta = load_labels_with_meta(
                self._path, retries=self._io_retries
            )
        except (OSError, ReproError) as exc:
            with self._lock:
                self._index = None
                self._record("load_failures")
                self._last_error = exc
                self._publish_state()
            get_event_log().emit("index.reload", outcome="failure",
                                 error=str(exc))
            return False
        live = graph_fingerprint(self._graph)
        error = None
        if meta.fingerprint is not None:
            if meta.fingerprint != live:
                error = StaleIndexError(
                    live, meta.fingerprint, context=str(self._path)
                )
        elif labels.n != self._graph.n:
            error = StaleIndexError(
                live, (labels.n, None, None), context=str(self._path)
            )
        with self._lock:
            if error is not None:
                self._index = None
                self._record("verify_failures")
                self._last_error = error
                self._publish_state()
                get_event_log().emit("index.reload", outcome="failure",
                                     error=str(error))
                return False
            self._index = SPCIndex(labels)
            self._last_error = None
            self.generation += 1
            self._publish_state()
            get_event_log().emit("index.reload", outcome="success",
                                 generation=self.generation)
        if self._breaker is not None:
            # A freshly verified index invalidates the degraded-path failure
            # streak: close the breaker so recovery is immediate rather than
            # waiting out a reset timeout that no longer reflects reality.
            self._breaker.reset()
        return True

    def set_graph(self, graph):
        """Adopt a new live graph (edge churn) and demote the served index.

        Under rebuild-behind maintenance the logical graph moves while the
        on-disk index lags one swap behind. The moment the facade learns
        about the new graph, the currently loaded index — built for the
        *previous* graph — can no longer be trusted, so it is demoted
        here: queries answer exactly from the (new-graph) BFS oracle
        until :meth:`reload` verifies the freshly published file against
        the new fingerprint. Call this *before* ``check_reload()`` from a
        maintenance ``on_publish`` hook and the swap is
        degrade-then-promote, never wrong.
        """
        with self._lock:
            self._graph = graph
            self._oracle = BFSCountingOracle(graph,
                                             engine=self._oracle._engine)
            self._record("graph_swaps")
            if self._index is not None:
                self._index = None
                self._publish_state()
        get_event_log().emit("index.graph_swapped", n=graph.n, m=graph.m)

    @property
    def status(self):
        """``"index"`` when serving from labels, ``"degraded"`` on BFS."""
        return "index" if self._index is not None else "degraded"

    @property
    def n(self):
        """Vertex count of the live graph (the query id space)."""
        return self._graph.n

    @property
    def last_error(self):
        """The typed error that caused the last load/verify failure, if any."""
        return self._last_error

    @property
    def breaker(self):
        """The fallback-path circuit breaker, when one was attached."""
        return self._breaker

    def explain(self):
        """Operator snapshot: serving path, counters, and last error."""
        with self._lock:
            snapshot = {
                "status": "index" if self._index is not None else "degraded",
                "index_path": None if self._path is None else str(self._path),
                "generation": self.generation,
                "counters": dict(self.counters),
                "last_error": None if self._last_error is None
                else f"{type(self._last_error).__name__}: {self._last_error}",
            }
        if self._breaker is not None:
            snapshot["breaker"] = self._breaker.snapshot()
        return snapshot

    # -- queries -------------------------------------------------------------

    def _check_vertex(self, v):
        if not isinstance(v, int) or not 0 <= v < self._graph.n:
            raise VertexError(v, self._graph.n)

    def _snapshot_index(self):
        """One consistent read of the served index, demoting stale labels.

        The staleness flag (:meth:`SPCIndex.mark_stale`, set e.g. by
        :class:`repro.dynamic.incremental.DynamicSPCIndex` after edge
        insertions) is honoured *at query time*: an index that went stale
        mid-serving is demoted here rather than silently answering for
        yesterday's graph.
        """
        with self._lock:
            index = self._index
            if index is not None and index.stale:
                self._record("stale_detections")
                self._last_error = StaleIndexError(
                    graph_fingerprint(self._graph), index.stale_reason,
                    context="stale in-memory index",
                )
                self._index = None
                self._publish_state()
                get_event_log().emit("index.demoted", reason="stale")
                return None
            return index

    def _demote(self, index, exc):
        """The loaded index misbehaved at query time: record and demote."""
        with self._lock:
            self._record("query_failures")
            self._last_error = exc
            if self._index is index:
                self._index = None
                self._publish_state()
        get_event_log().emit("index.demoted", reason=type(exc).__name__)

    def serve(self, op, *args, deadline=None):
        """Answer query method ``op`` and name the path that answered it.

        The one labels-or-BFS routine behind :meth:`count_with_distance`,
        :meth:`count_many`, :meth:`single_source` and :meth:`set_to_set`
        (``op`` is one of those names, ``args`` its positional
        arguments). It snapshots the served index and answers from the
        labels; a query-time :class:`~repro.exceptions.SerializationError`
        or :class:`~repro.exceptions.LabelingError` demotes that index,
        and a degraded facade answers from the exact BFS oracle behind
        the breaker and the deadline. Returns ``(answer, path)`` with
        ``path`` ``"index"`` or ``"degraded"``: the path that produced
        *this* answer, which a concurrent demotion or reload cannot
        relabel afterwards.
        """
        from_labels, from_bfs, queries = self._WORK[op](
            self, *args, deadline=deadline)
        index = self._snapshot_index()
        if index is not None:
            try:
                answer = from_labels(index)
            except (SerializationError, LabelingError) as exc:
                # Keep serving: the BFS answer below is exact.
                self._demote(index, exc)
            else:
                with self._lock:
                    self._record("index_queries", queries)
                return answer, "index"
        if deadline is not None:
            deadline.check()
        breaker = self._breaker
        if breaker is not None:
            breaker.before_call()  # raises CircuitOpenError when open
        try:
            answer = from_bfs(self._oracle)
        except (DeadlineExceeded, SerializationError, LabelingError):
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        with self._lock:
            self._record("fallback_queries", queries)
        return answer, "degraded"

    # Each _*_work method validates its arguments and returns ``(from_labels,
    # from_bfs, queries)``: the call on a served index, the call on the BFS
    # oracle, and how many queries the answer counts as.

    def _pair_work(self, s, t, deadline):
        self._check_vertex(s)
        self._check_vertex(t)
        return (lambda index: index.count_with_distance(s, t),
                lambda oracle: oracle.count_with_distance(
                    s, t, deadline=deadline),
                1)

    def _many_work(self, pairs, deadline):
        pairs = list(pairs)
        for s, t in pairs:
            self._check_vertex(s)
            self._check_vertex(t)
        return (lambda index: index.count_many(pairs, deadline=deadline),
                lambda oracle: [oracle.count_with_distance(s, t,
                                                           deadline=deadline)
                                for s, t in pairs],
                len(pairs))

    def _sweep_work(self, s, deadline):
        self._check_vertex(s)
        return (lambda index: index.single_source(s),
                lambda oracle: oracle.single_source(s, deadline=deadline),
                1)

    def _set_work(self, sources, targets, deadline):
        sources = [int(v) for v in sources]
        targets = [int(v) for v in targets]
        for v in sources + targets:
            self._check_vertex(v)

        def sweep(oracle):
            answers = []
            for s in sources:
                dist, count = oracle.single_source(s, deadline=deadline)
                answers.extend(zip(dist[targets].tolist(),
                                   count[targets].tolist()))
            return merge_min_count(answers)

        return (lambda index: index.set_to_set(sources, targets), sweep, 1)

    _WORK = {
        "count_with_distance": _pair_work,
        "count_many": _many_work,
        "single_source": _sweep_work,
        "set_to_set": _set_work,
    }

    def count_with_distance(self, s, t, deadline=None):
        """``(sd(s,t), spc(s,t))`` — from the index, or BFS when degraded."""
        return self.serve("count_with_distance", s, t, deadline=deadline)[0]

    def count(self, s, t, deadline=None):
        """``spc(s, t)``: the number of shortest paths (0 if disconnected)."""
        return self.count_with_distance(s, t, deadline=deadline)[1]

    def distance(self, s, t, deadline=None):
        """``sd(s, t)``; ``inf`` when disconnected."""
        return self.count_with_distance(s, t, deadline=deadline)[0]

    def count_many(self, pairs, deadline=None):
        """Batched ``(sd, spc)`` tuples; vectorized when the index is healthy."""
        return self.serve("count_many", pairs, deadline=deadline)[0]

    def single_source(self, s, deadline=None):
        """``(dist, count)`` numpy arrays from ``s`` over every vertex.

        Served by the vectorized flat engine when healthy, by one online
        counting BFS when degraded — identical conventions either way
        (float64 ``inf`` distances, int64 counts, ``(0, 1)`` diagonal).
        """
        return self.serve("single_source", s, deadline=deadline)[0]

    def set_to_set(self, sources, targets, deadline=None):
        """``(sd(S, T), spc(S, T))``: min distance over all pairs, counts
        summed at that minimum — vectorized when healthy, one counting
        BFS per source when degraded.

        This is the degraded twin of the cluster's scatter-gather
        ``set_to_set``, so a shard pool that lost every worker can still
        answer exactly from the logical graph.
        """
        return self.serve("set_to_set", sources, targets,
                          deadline=deadline)[0]

    def __repr__(self):
        return (
            f"ResilientSPCIndex(n={self._graph.n}, status={self.status!r}, "
            f"fallback_queries={self.counters['fallback_queries']})"
        )
