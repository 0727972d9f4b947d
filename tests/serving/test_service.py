"""SPCService: admission, deadlines, breaker integration, hot reload."""

import threading
import time

import pytest

from repro.core.index import SPCIndex
from repro.exceptions import ServiceOverloaded
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.traversal import spc_bfs
from repro.io.serialize import save_index
from repro.query import Batch, Count, SingleSource
from repro.serving import (
    CIRCUIT_OPEN,
    DEADLINE,
    DEFAULT_RETRY_AFTER_CAP,
    INVALID,
    SERVED_DEGRADED,
    SERVED_INDEX,
    SHED,
    SPCService,
)
from repro.testing.faults import FlappingFile, SlowFallback


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(60, 2, seed=3)


@pytest.fixture(scope="module")
def index(graph):
    return SPCIndex.build(graph)


@pytest.fixture
def index_path(tmp_path, graph, index):
    path = tmp_path / "labels.spcl"
    save_index(index, path, graph=graph)
    return path


PAIRS = [(0, 50), (3, 41), (12, 12), (7, 59)]


class TestHealthyService:
    def test_query_matches_oracle(self, graph, index):
        service = SPCService(graph, index=index)
        for s, t in PAIRS:
            assert service.query(s, t) == spc_bfs(graph, s, t)
        batch = service.submit_query(Batch(tuple(Count(s, t)
                                                 for s, t in PAIRS)))
        assert batch.answer == tuple(spc_bfs(graph, s, t) for s, t in PAIRS)
        dist, count = service.submit_query(SingleSource(5)).answer
        for t in (0, 30, 59):
            want_d, want_c = spc_bfs(graph, 5, t)
            assert dist[t] == want_d
            assert count[t] == want_c

    def test_submit_reports_index_status(self, graph, index):
        service = SPCService(graph, index=index)
        result = service.submit(0, 50)
        assert result.status == SERVED_INDEX
        assert result.ok
        assert result.answer == spc_bfs(graph, 0, 50)
        assert result.generation == 1
        assert service.counters[SERVED_INDEX] == 1

    def test_invalid_vertex_is_a_status_not_a_crash(self, graph, index):
        service = SPCService(graph, index=index)
        result = service.submit(0, graph.n + 5)
        assert result.status == INVALID
        assert not result.ok
        assert service.counters[INVALID] == 1

    def test_stats_and_health_shape(self, graph, index):
        service = SPCService(graph, index=index)
        service.submit(0, 1)
        stats = service.stats()
        assert stats["counters"]["requests"] == 1
        assert stats["generation"] == 1
        assert stats["admission"]["in_flight"] == 0
        health = service.health()
        assert health["status"] == "index"
        assert health["breaker"]["state"] == "closed"
        assert health["index"]["generation"] == 1

    def test_parameter_validation(self, graph, index):
        with pytest.raises(ValueError):
            SPCService(graph, index=index, capacity=0)
        with pytest.raises(ValueError):
            SPCService(graph, index=index, queue_limit=-1)
        with pytest.raises(ValueError):
            SPCService(graph, index=index, default_deadline=0)


class TestDegradedService:
    def test_degraded_answers_stay_exact(self, graph):
        service = SPCService(graph)  # no index at all
        for s, t in PAIRS:
            result = service.submit(s, t)
            assert result.status == SERVED_DEGRADED
            assert result.answer == spc_bfs(graph, s, t)
        assert service.health()["status"] == "degraded"

    def test_slow_fallback_blows_the_deadline(self, graph):
        service = SPCService(graph, default_deadline=0.005)
        with SlowFallback(seconds=0.05) as slow:
            result = service.submit(0, 40)
        assert result.status == DEADLINE
        assert slow.calls == 1
        assert service.counters[DEADLINE] == 1


class TestServedPath:
    """The status names the path that produced the answer, not the
    facade's state once the request is over."""

    def test_labels_answer_demoted_mid_query_stays_index(self, graph):
        index = SPCIndex.build(graph)
        service = SPCService(graph, index=index)
        from_labels = index.count_with_distance

        def demoting(s, t):
            service.set_graph(graph)  # churn lands while the labels answer
            return from_labels(s, t)

        index.count_with_distance = demoting
        result = service.submit(0, 50)
        assert result.status == SERVED_INDEX
        assert result.answer == spc_bfs(graph, 0, 50)
        assert service.health()["status"] == "degraded"
        counters = service.resilient_index.counters
        assert counters["index_queries"] == 1
        assert counters["fallback_queries"] == 0

    def test_bfs_answer_promoted_mid_query_stays_degraded(self, graph,
                                                          index_path):
        flapper = FlappingFile(index_path)
        flapper.corrupt(mode="garbage")
        service = SPCService(graph, index_path=index_path,
                             reload_check_every=0)
        resilient = service.resilient_index
        assert resilient.status == "degraded"
        from_bfs = resilient._oracle.count_with_distance

        def promoting(s, t, deadline=None):
            flapper.restore()
            assert resilient.reload()  # the index is back mid-query
            return from_bfs(s, t, deadline=deadline)

        resilient._oracle.count_with_distance = promoting
        result = service.submit(0, 50)
        assert result.status == SERVED_DEGRADED
        assert result.answer == spc_bfs(graph, 0, 50)
        assert resilient.status == "index"
        assert resilient.counters["fallback_queries"] == 1


class BlockedOracle:
    """Stalls degraded-path queries on an event, to pin execution slots."""

    def __init__(self, service):
        self.release = threading.Event()
        self.entered = threading.Event()
        resilient = service.resilient_index
        original = resilient._oracle.count_with_distance

        def blocked(s, t, deadline=None):
            self.entered.set()
            self.release.wait(timeout=10.0)
            return original(s, t, deadline=deadline)

        resilient._oracle.count_with_distance = blocked


class TestAdmission:
    def test_full_queue_sheds_with_retry_hint(self, graph):
        service = SPCService(graph, capacity=1, queue_limit=0)
        blocker = BlockedOracle(service)
        worker = threading.Thread(target=service.query, args=(0, 40))
        worker.start()
        try:
            assert blocker.entered.wait(timeout=5.0)
            result = service.submit(1, 41)
            assert result.status == SHED
            assert isinstance(result.error, ServiceOverloaded)
            assert result.error.retry_after > 0
            with pytest.raises(ServiceOverloaded):
                service.query(2, 42)
        finally:
            blocker.release.set()
            worker.join(timeout=10.0)
        assert service.counters[SHED] == 2  # the raising query counts too

    def test_retry_after_cap_passes_through_to_shed_hints(self, graph):
        service = SPCService(graph, capacity=1, queue_limit=0)
        # Pump the latency EMA so the uncapped hint would exceed the cap.
        service._admission.admit()
        service._admission.release(30.0)
        blocker = BlockedOracle(service)
        worker = threading.Thread(target=service.query, args=(0, 40))
        worker.start()
        try:
            assert blocker.entered.wait(timeout=5.0)
            result = service.submit(1, 41)
            assert result.status == SHED
            assert 0 < result.error.retry_after <= DEFAULT_RETRY_AFTER_CAP
        finally:
            blocker.release.set()
            worker.join(timeout=10.0)

    def test_queued_request_is_served_once_a_slot_frees(self, graph):
        service = SPCService(graph, capacity=1, queue_limit=1)
        blocker = BlockedOracle(service)
        worker = threading.Thread(target=service.submit, args=(0, 40))
        worker.start()
        assert blocker.entered.wait(timeout=5.0)
        results = []
        queued = threading.Thread(
            target=lambda: results.append(service.submit(1, 41))
        )
        queued.start()
        time.sleep(0.05)  # let it park in the queue
        assert service.stats()["admission"]["queued"] == 1
        blocker.release.set()
        worker.join(timeout=10.0)
        queued.join(timeout=10.0)
        assert results[0].status == SERVED_DEGRADED
        assert results[0].answer == spc_bfs(graph, 1, 41)

    def test_deadline_cannot_be_burned_in_the_queue(self, graph):
        service = SPCService(graph, capacity=1, queue_limit=4)
        blocker = BlockedOracle(service)
        worker = threading.Thread(target=service.query, args=(0, 40))
        worker.start()
        try:
            assert blocker.entered.wait(timeout=5.0)
            result = service.submit(1, 41, timeout=0.01)
            assert result.status == SHED  # budget exhausted while queued
        finally:
            blocker.release.set()
            worker.join(timeout=10.0)


class TestBreakerIntegration:
    def test_repeated_timeouts_trip_the_breaker(self, graph):
        service = SPCService(graph, default_deadline=0.005,
                             failure_threshold=2, reset_timeout=30.0)
        with SlowFallback(seconds=0.05) as slow:
            first = service.submit(0, 40)
            second = service.submit(1, 41)
            third = service.submit(2, 42)
        assert first.status == DEADLINE
        assert second.status == DEADLINE
        assert third.status == CIRCUIT_OPEN
        assert slow.calls == 2  # the short-circuit never ran a BFS
        assert service.breaker.state == "open"
        assert third.error.retry_after > 0
        assert service.counters[CIRCUIT_OPEN] == 1

    def test_breaker_recovers_after_reset_timeout(self, graph):
        service = SPCService(graph, default_deadline=0.005,
                             failure_threshold=1, reset_timeout=0.05)
        with SlowFallback(seconds=0.05):
            assert service.submit(0, 40).status == DEADLINE
        assert service.breaker.state == "open"
        time.sleep(0.06)
        result = service.submit(1, 41, timeout=30.0)
        assert result.status == SERVED_DEGRADED
        assert result.answer == spc_bfs(graph, 1, 41)
        assert service.breaker.state == "closed"


class TestHotReload:
    def test_rebuilt_file_swaps_generation(self, graph, index, index_path):
        service = SPCService(graph, index_path=index_path,
                            reload_check_every=1)
        assert service.submit(0, 50).generation == 1
        # A rebuild with a different ordering: different bytes, same answers.
        save_index(SPCIndex.build(graph, ordering="betweenness"), index_path,
                   graph=graph)
        result = service.submit(0, 50)
        assert result.status == SERVED_INDEX
        assert result.generation == 2
        assert result.answer == spc_bfs(graph, 0, 50)
        assert service.counters["reloads"] == 1

    def test_unchanged_file_never_reloads(self, graph, index_path):
        service = SPCService(graph, index_path=index_path,
                            reload_check_every=1)
        for _ in range(5):
            service.submit(0, 50)
        assert service.generation == 1
        assert service.counters["reloads"] == 0

    def test_corrupt_restore_cycle(self, graph, index_path):
        service = SPCService(graph, index_path=index_path,
                            reload_check_every=1, failure_threshold=1,
                            reset_timeout=30.0)
        flapper = FlappingFile(index_path)
        flapper.corrupt(mode="garbage")
        degraded = service.submit(0, 50)
        assert degraded.status == SERVED_DEGRADED
        assert degraded.answer == spc_bfs(graph, 0, 50)
        assert service.counters["reload_failures"] == 1
        # Trip the breaker while degraded...
        with SlowFallback(seconds=0.05):
            assert service.submit(1, 41, timeout=0.005).status == DEADLINE
        assert service.submit(2, 42).status == CIRCUIT_OPEN
        assert service.breaker.state == "open"
        # ...then restore the file: the reload swaps the index back in AND
        # closes the breaker, without waiting out the 30 s reset timeout.
        flapper.restore()
        recovered = service.submit(0, 50)
        assert recovered.status == SERVED_INDEX
        assert recovered.answer == spc_bfs(graph, 0, 50)
        assert recovered.generation == 2
        assert service.breaker.state == "closed"

    def test_inflight_requests_survive_a_swap(self, graph, index, index_path):
        service = SPCService(graph, index_path=index_path, capacity=4,
                            reload_check_every=1)
        stop = threading.Event()
        failures = []

        def hammer(seed):
            s, t = seed % graph.n, (seed * 7 + 3) % graph.n
            want = spc_bfs(graph, s, t)
            while not stop.is_set():
                result = service.submit(s, t)
                if not result.ok or result.answer != want:
                    failures.append((s, t, result.status, result.answer))
                    return

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(3):
            time.sleep(0.05)
            save_index(SPCIndex.build(graph), index_path, graph=graph)
        time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not failures
        assert service.generation >= 2
