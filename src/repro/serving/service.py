"""`SPCService` — the resilient index behind production traffic controls.

:class:`~repro.resilience.ResilientSPCIndex` guarantees *correct* answers
under index failure; this layer guarantees *bounded* answers under load.
Every request passes through four defences:

1. **Admission control** — at most ``capacity`` requests execute
   concurrently; up to ``queue_limit`` more wait (within their deadline).
   Beyond that the request is **shed** with a typed
   :class:`~repro.exceptions.ServiceOverloaded` carrying a retry-after
   hint derived from observed service latency — melting down is the one
   thing a loaded service must never do.
2. **Deadline budget** — ``timeout`` (or ``default_deadline``) becomes a
   :class:`~repro.serving.deadline.Deadline` threaded all the way into the
   label-scan chunks and BFS levels, so even the degraded path returns
   (with :class:`~repro.exceptions.DeadlineExceeded`) within one
   checkpoint interval of the budget.
3. **Circuit breaker** — consecutive degraded-path failures trip a
   :class:`~repro.serving.breaker.CircuitBreaker`; while open, degraded
   queries fail fast with :class:`~repro.exceptions.CircuitOpenError`
   instead of each burning a full deadline (the corrupt-index +
   slow-fallback meltdown).
4. **Hot reload** — an :class:`~repro.serving.reload.IndexWatcher` polls
   the on-disk SPCL file between requests; a rebuilt file is re-verified
   and swapped in atomically, bumping the observable ``generation``
   without dropping in-flight requests.

:meth:`SPCService.submit_query` is the one request path: it compiles any
query AST node over the resilient facade and never raises for
per-request failures, mapping every outcome onto a :class:`QueryResult`
with a terminal ``status`` — ``"index"``, ``"degraded"``, ``"shed"``,
``"circuit_open"``, ``"deadline"``, ``"invalid"`` or ``"error"`` — which
is what the chaos gate asserts over a 1000-query burst. ``"degraded"``
means at least one of the request's answers came from the BFS fallback,
as reported by :meth:`~repro.resilience.ResilientSPCIndex.serve` at the
time it answered. :meth:`SPCService.submit` is ``submit_query(Count(s,
t))`` and :meth:`SPCService.query` its raising wrapper. ``health()`` and
``stats()`` expose generation counters, breaker state, admission depth
and per-outcome tallies for operators.
"""

import threading
import time
from functools import partialmethod

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    ServiceOverloaded,
    VertexError,
)
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.query.ast import Count
from repro.query.engine import QueryEngine
from repro.resilience import ResilientSPCIndex
from repro.serving.admission import AdmissionQueue
from repro.serving.breaker import CircuitBreaker
from repro.serving.deadline import Deadline
from repro.serving.reload import IndexWatcher

#: Terminal statuses a request can end in (the chaos-gate contract).
SERVED_INDEX = "index"
SERVED_DEGRADED = "degraded"
SHED = "shed"
CIRCUIT_OPEN = "circuit_open"
DEADLINE = "deadline"
INVALID = "invalid"
ERROR = "error"

TERMINAL_STATUSES = frozenset(
    (SERVED_INDEX, SERVED_DEGRADED, SHED, CIRCUIT_OPEN, DEADLINE, INVALID, ERROR)
)

#: The terminal status each typed library error maps onto, most specific
#: first: :func:`status_of` returns the first row the error is an
#: instance of. Every front end (in-process, cluster, BFS fallback)
#: resolves failures through this one table.
ERROR_STATUSES = (
    (ServiceOverloaded, SHED),
    (CircuitOpenError, CIRCUIT_OPEN),
    (DeadlineExceeded, DEADLINE),
    (VertexError, INVALID),
    (ReproError, ERROR),
)


def status_of(error):
    """Terminal status for a :class:`~repro.exceptions.ReproError`."""
    for kind, status in ERROR_STATUSES:
        if isinstance(error, kind):
            return status
    raise TypeError(f"not a library error: {error!r}")


class QueryResult:
    """One request's terminal outcome: status, answer or typed error."""

    __slots__ = ("status", "answer", "error", "elapsed", "generation",
                 "degraded_shards")

    def __init__(self, status, answer=None, error=None, elapsed=0.0, generation=0,
                 degraded_shards=()):
        self.status = status
        self.answer = answer
        self.error = error
        self.elapsed = elapsed
        self.generation = generation
        self.degraded_shards = tuple(degraded_shards)

    @property
    def ok(self):
        """True when an exact answer was produced (index or degraded)."""
        return self.status in (SERVED_INDEX, SERVED_DEGRADED)

    def __repr__(self):
        degraded = (f", degraded_shards={self.degraded_shards}"
                    if self.degraded_shards else "")
        return (
            f"QueryResult(status={self.status!r}, answer={self.answer!r}, "
            f"elapsed={self.elapsed * 1e3:.2f}ms, gen={self.generation}"
            f"{degraded})"
        )


class SPCService:
    """Deadline-bounded, load-shedding, hot-reloading counting service.

    Parameters
    ----------
    graph:
        The live graph queries refer to.
    index_path / index:
        Where the served index comes from (see
        :class:`~repro.resilience.ResilientSPCIndex`).
    capacity:
        Maximum concurrently executing requests.
    queue_limit:
        Maximum requests allowed to wait for a slot; more are shed with
        a retry-after hint capped at
        :data:`~repro.serving.admission.DEFAULT_RETRY_AFTER_CAP`.
    default_deadline:
        Per-request budget in seconds when the caller gives none
        (``None`` = unlimited).
    failure_threshold / reset_timeout:
        The :class:`CircuitBreaker` over the degraded path.
    reload_check_every:
        Poll the index file for changes every N admissions (0 disables
        polling; ``check_reload()`` stays available).
    bfs_engine:
        Forwarded to the underlying resilient index.
    """

    def __init__(self, graph, index_path=None, index=None, *,
                 capacity=8, queue_limit=16, default_deadline=None,
                 failure_threshold=5, reset_timeout=1.0,
                 reload_check_every=16, bfs_engine="python"):
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive or None")
        self._admission = AdmissionQueue(capacity, queue_limit)
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self._resilient = ResilientSPCIndex(
            graph, index_path=index_path, index=index, bfs_engine=bfs_engine,
            breaker=CircuitBreaker(failure_threshold=failure_threshold,
                                   reset_timeout=reset_timeout),
        )
        self._watcher = None if index_path is None else IndexWatcher(index_path)
        self._reload_check_every = reload_check_every
        self._reload_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.counters = {
            "requests": 0,
            SERVED_INDEX: 0,
            SERVED_DEGRADED: 0,
            SHED: 0,
            CIRCUIT_OPEN: 0,
            DEADLINE: 0,
            INVALID: 0,
            ERROR: 0,
            "reloads": 0,
            "reload_failures": 0,
        }

    # -- admission control ----------------------------------------------------

    def _admit(self, deadline):
        """Take an execution slot or raise :class:`ServiceOverloaded`.

        Delegates to the shared :class:`~repro.serving.admission
        .AdmissionQueue`: a request waits in the bounded queue only while
        its deadline allows; a full queue (or an exhausted budget while
        queued) sheds the request immediately with a capped retry-after
        hint.
        """
        ordinal = self._admission.admit(deadline)
        poll = (self._reload_check_every
                and ordinal % self._reload_check_every == 0)
        registry = get_registry()
        if registry.enabled:
            registry.gauge("spc_inflight_requests").set(
                self._admission.in_flight
            )
            registry.gauge("spc_queued_requests").set(self._admission.queued)
        if poll:
            self.check_reload()

    def _release(self, elapsed):
        self._admission.release(elapsed)
        registry = get_registry()
        if registry.enabled:
            registry.histogram("spc_request_seconds").observe(elapsed)
            registry.gauge("spc_inflight_requests").set(
                self._admission.in_flight
            )
            registry.gauge("spc_queued_requests").set(self._admission.queued)

    # -- hot reload -----------------------------------------------------------

    def check_reload(self):
        """Poll the index file; swap in a changed one. True when swapped.

        Safe to call from any thread (and from :class:`~repro.serving
        .reload.ReloadThread`); the swap itself is atomic inside
        :meth:`ResilientSPCIndex.reload`, so in-flight requests finish on
        the snapshot they started with.
        """
        if self._watcher is None:
            return False
        with self._reload_lock:
            # poll() already recorded the signature it saw. Re-reading it
            # after the load could adopt bytes that were never loaded (a
            # non-atomic write finishing mid-reload) and never retry them.
            if not self._watcher.poll():
                return False
            ok = self._resilient.reload()
        with self._stats_lock:
            self.counters["reloads" if ok else "reload_failures"] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "spc_reloads_total", outcome="success" if ok else "failure"
            ).inc()
        get_event_log().emit("service.reload",
                             outcome="success" if ok else "failure",
                             generation=self._resilient.generation)
        return ok

    def set_graph(self, graph):
        """Adopt a new live graph under edge churn (rebuild-behind swaps).

        Delegates to :meth:`ResilientSPCIndex.set_graph`: the lagging
        index is demoted (exact BFS answers on the *new* graph take over)
        until the next :meth:`check_reload` verifies the freshly
        published file against the new fingerprint. A maintenance
        ``on_publish`` hook should call this then ``check_reload()``.
        """
        self._resilient.set_graph(graph)

    # -- request execution ----------------------------------------------------

    def _bump(self, status):
        with self._stats_lock:
            self.counters[status] += 1
        registry = get_registry()
        if registry.enabled:
            if status == "requests":
                registry.counter("spc_requests_total").inc()
            else:
                registry.counter("spc_request_outcomes_total",
                                 status=status).inc()

    def _deadline(self, timeout):
        budget = self.default_deadline if timeout is None else timeout
        return Deadline.of(budget)

    def query(self, s, t, timeout=None):
        """Raising :meth:`submit`: ``(sd(s,t), spc(s,t))`` or the typed error.

        Raises the typed serving errors (:class:`ServiceOverloaded`,
        :class:`DeadlineExceeded`, :class:`CircuitOpenError`) and
        :class:`VertexError`; never returns a wrong count.
        """
        result = self.submit(s, t, timeout=timeout)
        if not result.ok:
            raise result.error
        return result.answer

    def submit(self, s, t, timeout=None):
        """``submit_query(Count(s, t))``: always a terminal :class:`QueryResult`."""
        return self.submit_query(Count(s, t), timeout=timeout)

    def submit_query(self, node, timeout=None):
        """Run any compiled query AST node under the service's defences.

        The one request path. The node is planned and executed by a
        :class:`~repro.query.engine.QueryEngine` over the resilient
        facade inside the admission/deadline/breaker envelope. The
        result is ``SERVED_DEGRADED`` when any of its answers came from
        the BFS fallback, else ``SERVED_INDEX``. Per-request failures
        (shed, open circuit, blown deadline, invalid vertex, typed
        library errors) become statuses; only genuine bugs
        (non-:class:`ReproError` exceptions) propagate.
        """
        started = time.monotonic()
        deadline = self._deadline(timeout)
        served = _ServedPaths(self._resilient)
        self._bump("requests")
        try:
            self._admit(deadline)
            admitted = time.monotonic()
            try:
                with get_tracer().span("serve.request"):
                    if deadline is not None:
                        deadline.check()
                    # Result cache OFF: the live graph can mutate in place
                    # under churn without bumping the generation, and a
                    # cached answer would outlive its data.
                    engine = QueryEngine(oracle=served, n=served.n,
                                         cache=None)
                    answer = engine.run(node, deadline=deadline)
            finally:
                self._release(time.monotonic() - admitted)
        except ReproError as exc:
            result = QueryResult(status_of(exc), error=exc)
        else:
            result = QueryResult(
                SERVED_DEGRADED if served.degraded else SERVED_INDEX,
                answer=answer)
        self._bump(result.status)
        result.elapsed = time.monotonic() - started
        result.generation = self._resilient.generation
        return result

    # -- observability --------------------------------------------------------

    @property
    def generation(self):
        """Monotonic count of successful index (re)loads."""
        return self._resilient.generation

    @property
    def breaker(self):
        """The fallback-path :class:`CircuitBreaker` (operator access)."""
        return self._resilient.breaker

    @property
    def resilient_index(self):
        """The wrapped :class:`ResilientSPCIndex` (operator access)."""
        return self._resilient

    def stats(self):
        """Flat counter snapshot for dashboards and the smoke gates."""
        with self._stats_lock:
            counters = dict(self.counters)
        return {
            "counters": counters,
            "generation": self._resilient.generation,
            "ema_latency": self._admission.ema_latency,
            "admission": self._admission.snapshot(),
        }

    def health(self):
        """Liveness/readiness snapshot: serving path, breaker, admission."""
        snapshot = self.stats()
        index = self._resilient.explain()
        breaker = self._resilient.breaker
        snapshot["index"] = index
        snapshot["status"] = index["status"]
        if breaker is not None:
            snapshot["breaker"] = breaker.snapshot()
        return snapshot

    def __repr__(self):
        return (
            f"SPCService(status={self._resilient.status!r}, "
            f"generation={self._resilient.generation}, "
            f"capacity={self.capacity})"
        )


class _ServedPaths:
    """One request's oracle over the resilient facade.

    Every call goes through :meth:`ResilientSPCIndex.serve
    <repro.resilience.ResilientSPCIndex.serve>`, which names the path
    that answered it; ``degraded`` turns true once any answer came from
    the BFS fallback.
    """

    def __init__(self, resilient):
        self._resilient = resilient
        self.n = resilient.n
        self.degraded = False

    def _serve(self, op, *args, deadline=None):
        answer, path = self._resilient.serve(op, *args, deadline=deadline)
        if path != SERVED_INDEX:
            self.degraded = True
        return answer

    count_with_distance = partialmethod(_serve, "count_with_distance")
    count_many = partialmethod(_serve, "count_many")
    single_source = partialmethod(_serve, "single_source")
    set_to_set = partialmethod(_serve, "set_to_set")
