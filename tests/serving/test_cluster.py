"""ClusterService: multiprocess scatter-gather serving over one arena.

Covers the tentpole contract end to end: pair batches match the
in-process oracle, scatter-gather ``single_source``/``set_to_set``
merge correctly across shards, terminal statuses mirror
:class:`SPCService.submit`, hot reload rolls shard-by-shard without
ever mixing generations in one response, and workers prove they share
(not duplicate) the label arena.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.batch_query import count_many, count_set_to_set, single_source
from repro.core.index import SPCIndex
from repro.exceptions import SerializationError
from repro.generators.random_graphs import barabasi_albert_graph
from repro.io.flat_store import save_flat_labels
from repro.observability.metrics import MetricsRegistry, scoped_registry
from repro.serving import (
    CIRCUIT_OPEN,
    DEADLINE,
    ERROR,
    INVALID,
    SERVED_DEGRADED,
    SERVED_INDEX,
    SHED,
    ClusterService,
    protocol,
)
from repro.testing.faults import HeldReply
from repro.utils.rng import random_pairs

N = 240
INF = float("inf")


class SlowReply:
    """Worker fault: hold every batch reply back for ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def before_reply(self, conn, reply):
        time.sleep(self.seconds)
        return False


class ErrReply:
    """Worker fault: answer every batch with a typed ``ERR`` of ``kind``."""

    def __init__(self, kind):
        self.kind = kind

    def before_reply(self, conn, reply):
        conn.send((protocol.ERR, reply[1], self.kind, "injected"))
        return True


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def hold_busy(service, fault):
    """Occupy the cluster's only worker with a reply that waits for
    ``fault.release()``; returns that request's future. Requests
    submitted until the release queue behind it in the router."""
    blocker = service.submit_nowait(0, 1)
    assert _wait(fault.holding), "worker never started holding its reply"
    return blocker


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(N, 3, seed=17)


@pytest.fixture(scope="module")
def flat(graph):
    return SPCIndex.build(graph).to_flat()


@pytest.fixture(scope="module")
def arena(flat, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "labels.spcf"
    save_flat_labels(flat, path, encoding="raw")
    return str(path)


@pytest.fixture(scope="module")
def cluster(arena):
    with ClusterService(arena, workers=2, shards=2) as service:
        yield service


class TestPairServing:
    def test_matches_oracle_under_batching(self, cluster, flat):
        pairs = list(random_pairs(N, 80, rng=3))
        oracle = count_many(flat, pairs)
        futures = [cluster.submit_nowait(s, t) for s, t in pairs]
        for (s, t), future, want in zip(pairs, futures, oracle):
            result = future.result(timeout=30)
            assert result.status == SERVED_INDEX, result.error
            assert tuple(result.answer) == tuple(want), (s, t)

    def test_submit_blocks_for_a_terminal_result(self, cluster, flat):
        result = cluster.submit(1, 2)
        assert result.ok
        assert tuple(result.answer) == tuple(count_many(flat, [(1, 2)])[0])
        assert result.elapsed >= 0

    def test_lone_request_does_not_wait(self, arena):
        # An idle worker takes a lone pair at once: no timer holds it.
        with ClusterService(arena, workers=1) as service:
            assert service.submit(0, 1).ok  # fault the arena in
            elapsed = []
            for i in range(50):
                result = service.submit(i % N, (i * 7 + 3) % N)
                assert result.status == SERVED_INDEX, result.error
                elapsed.append(result.elapsed)
            assert sorted(elapsed)[len(elapsed) // 2] < 0.002
            assert service.stats()["counters"]["batches"] == 51

    def test_batching_actually_coalesces(self, arena, flat, tmp_path):
        # Pairs that arrive while the only worker is busy all go out in
        # exactly one more round-trip once it frees up.
        fault = HeldReply(tmp_path)
        pairs = list(random_pairs(N, 64, rng=5))
        with ClusterService(arena, workers=1, max_batch=128,
                            _fault=fault) as service:
            blocker = hold_busy(service, fault)
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            fault.release()
            assert blocker.result(timeout=30).status == SERVED_INDEX
            for future, want in zip(futures, count_many(flat, pairs)):
                result = future.result(timeout=30)
                assert result.status == SERVED_INDEX, result.error
                assert tuple(result.answer) == tuple(want)
            assert service.stats()["counters"]["batches"] == 2

    def test_coalesced_batch_keeps_member_deadlines(self, arena, flat,
                                                    tmp_path):
        # One coalesced round-trip whose reply lands after the short
        # budgets ran out but well inside the long ones.
        pairs = list(random_pairs(N, 8, rng=21))
        budgets = [0.2 if i % 2 else 30.0 for i in range(len(pairs))]
        fault = HeldReply(tmp_path, then=SlowReply(0.5))
        with ClusterService(arena, workers=1, _fault=fault) as service:
            blocker = hold_busy(service, fault)
            futures = [service.submit_nowait(s, t, timeout=budget)
                       for (s, t), budget in zip(pairs, budgets)]
            fault.release()
            results = [f.result(timeout=30) for f in futures]
            assert blocker.result(timeout=30).status == SERVED_INDEX
            assert service.stats()["counters"]["batches"] == 2
        for result, budget, want in zip(results, budgets,
                                        count_many(flat, pairs)):
            if budget < 1:
                assert result.status == DEADLINE
                assert result.error.budget == budget
            else:
                assert result.status == SERVED_INDEX, result.error
                assert tuple(result.answer) == tuple(want)

    @pytest.mark.parametrize("kind, status", [
        (protocol.ERR_DEADLINE, DEADLINE),
        (protocol.ERR_VERTEX, INVALID),
        (protocol.ERR_ERROR, ERROR),
    ])
    def test_err_reply_reaches_every_coalesced_member(self, arena, kind,
                                                      status, tmp_path):
        budgets = [5.0 + i for i in range(6)]
        fault = HeldReply(tmp_path, then=ErrReply(kind))
        with ClusterService(arena, workers=1, _fault=fault) as service:
            blocker = hold_busy(service, fault)
            futures = [service.submit_nowait(0, i + 1, timeout=budget)
                       for i, budget in enumerate(budgets)]
            fault.release()
            results = [f.result(timeout=30) for f in futures]
            assert blocker.result(timeout=30).status == SERVED_INDEX
            counters = service.stats()["counters"]
            assert counters["batches"] == 2
            assert counters[status] == len(budgets)
            assert service.stats()["admission"]["in_flight"] == 0
        for result, budget in zip(results, budgets):
            assert result.status == status
            if status == DEADLINE:
                # Each member's error carries its own budget.
                assert result.error.budget == budget

    def test_invalid_vertex_is_a_status(self, cluster):
        result = cluster.submit(0, N + 7)
        assert result.status == INVALID
        assert not result.ok

    def test_deadline_is_a_status(self, cluster):
        result = cluster.submit(0, 1, timeout=1e-9)
        assert result.status == DEADLINE
        assert result.error.budget == 1e-9

    def test_shedding_past_admission_bounds(self, arena, tmp_path):
        # The held request takes one of the two admission slots, the
        # first of the burst the other; the remaining 29 are shed.
        fault = HeldReply(tmp_path)
        with ClusterService(arena, workers=1, capacity=1, queue_limit=1,
                            _fault=fault) as service:
            blocker = hold_busy(service, fault)
            futures = [service.submit_nowait(0, i % N) for i in range(30)]
            fault.release()
            statuses = [f.result(timeout=30).status for f in futures]
            assert blocker.result(timeout=30).status == SERVED_INDEX
            assert statuses == [SERVED_INDEX] + [SHED] * 29
            shed = [f.result() for f in futures
                    if f.result().status == SHED]
            assert all(r.error.retry_after <= 5.0 for r in shed)

    def test_submit_many_matches_oracle_across_shards(self, cluster, flat):
        pairs = list(random_pairs(N, 96, rng=11))
        result = cluster.submit_many(pairs)
        assert result.status == SERVED_INDEX, result.error
        assert len(result.answer) == len(pairs)
        for got, want in zip(result.answer, count_many(flat, pairs)):
            assert tuple(got) == tuple(want)

    def test_submit_many_empty_and_nowait(self, cluster, flat):
        assert cluster.submit_many([]).answer == []
        future = cluster.submit_many_nowait([(1, 2), (3, 4)])
        result = future.result(timeout=30)
        want = count_many(flat, [(1, 2), (3, 4)])
        assert [tuple(a) for a in result.answer] == [tuple(w) for w in want]

    def test_submit_many_rejects_bad_vertices_up_front(self, cluster):
        result = cluster.submit_many([(0, 1), (2, N + 9)])
        assert result.status == INVALID
        assert not result.ok
        result = cluster.submit_many([(0, "x")])
        assert result.status == INVALID

    def test_asubmit_is_awaitable(self, cluster, flat):
        import asyncio

        async def drive():
            results = await asyncio.gather(
                cluster.asubmit(3, 4), cluster.asubmit(5, 6))
            return results

        results = asyncio.run(drive())
        want = count_many(flat, [(3, 4), (5, 6)])
        assert [tuple(r.answer) for r in results] == [tuple(w) for w in want]


class TestScatterGather:
    def test_single_source_concatenates_shards(self, cluster, flat):
        for s in (0, 7, N - 1):
            result = cluster.single_source(s)
            assert result.ok, result.error
            dist, count = result.answer
            want_d, want_c = single_source(flat, s)
            assert np.array_equal(dist, want_d)
            assert np.array_equal(count, want_c)

    def test_single_source_hash_plan(self, arena, flat):
        with ClusterService(arena, workers=2, shards=2,
                            strategy="hash") as service:
            result = service.single_source(11)
            assert result.ok
            dist, count = result.answer
            want_d, want_c = single_source(flat, 11)
            assert np.array_equal(dist, want_d)
            assert np.array_equal(count, want_c)

    def test_set_to_set_merges_partials(self, cluster, flat):
        sources = [0, 3, 9]
        targets = [5, 100, 150, 200, N - 1]
        result = cluster.set_to_set(sources, targets)
        assert result.ok, result.error
        assert result.answer == count_set_to_set(flat, sources, targets)

    def test_set_to_set_empty_sets(self, cluster):
        result = cluster.set_to_set([], [1, 2])
        assert result.ok
        assert result.answer == (float("inf"), 0)

    def test_immediate_answers_count_as_requests(self, arena):
        # Empty batches and sets never reach a worker, but each is still
        # one request with one outcome, in the counters and the metrics.
        terminal = (SERVED_INDEX, SERVED_DEGRADED, SHED, CIRCUIT_OPEN,
                    DEADLINE, INVALID, ERROR)
        with scoped_registry(MetricsRegistry()) as registry:
            with ClusterService(arena, workers=1) as service:
                assert service.set_to_set([], [5]).answer == (INF, 0)
                assert service.submit_many([]).answer == []
                counters = service.stats()["counters"]
            requests = registry.get("spc_cluster_requests_total").value
            outcomes = {
                status: registry.get("spc_cluster_request_outcomes_total",
                                     status=status).value
                for status in terminal
            }
        assert counters["requests"] == 2
        assert sum(counters[status] for status in terminal) == 2
        assert counters[SERVED_INDEX] == 2
        assert requests == 2
        assert outcomes[SERVED_INDEX] == sum(outcomes.values()) == 2

    def test_gather_validates_vertices(self, cluster):
        result = cluster.set_to_set([0], [N + 1])
        assert result.status == INVALID


class TestSharedMemory:
    def test_workers_share_the_arena(self, cluster):
        stats = cluster.worker_stats()
        assert len(stats) == 2
        for worker in stats:
            if not worker["supported"]:  # pragma: no cover - non-Linux
                pytest.skip("/proc smaps not available")
            # Read-only mmap: no private dirty pages of the label file.
            assert worker["map_private_dirty_kb"] == 0
            assert worker["rss_kb"] > 0

    def test_distinct_processes(self, cluster):
        stats = cluster.worker_stats()
        pids = {w["pid"] for w in stats}
        assert len(pids) == 2
        assert os.getpid() not in pids


class TestLifecycleAndFailure:
    def test_rejects_delta_encoded_files(self, flat, tmp_path):
        path = tmp_path / "delta.spcf"
        save_flat_labels(flat, path, encoding="delta")
        with pytest.raises(SerializationError):
            ClusterService(path, workers=1)

    def test_close_is_idempotent_and_rejects_after(self, arena):
        service = ClusterService(arena, workers=1)
        assert service.submit(0, 1).ok
        service.close()
        service.close()
        result = service.submit(0, 1)
        assert result.status == ERROR

    def test_worker_death_fails_inflight_without_respawn(self, arena,
                                                         tmp_path):
        # respawn=False restores the pre-supervision fail-fast contract:
        # death permanently removes the worker and fails its work, both
        # the held request in flight and the four queued behind it.
        fault = HeldReply(tmp_path)
        with ClusterService(arena, workers=1, failure_threshold=1,
                            respawn=False, heartbeat_interval=0,
                            _fault=fault) as service:
            worker = service._workers[0]
            blocker = hold_busy(service, fault)
            futures = [service.submit_nowait(0, i) for i in range(4)]
            worker.process.terminate()
            statuses = [f.result(timeout=30).status
                        for f in [blocker] + futures]
            assert set(statuses) == {ERROR}
            deadline = time.monotonic() + 5
            while (time.monotonic() < deadline
                   and service.stats()["counters"]["worker_failures"] == 0):
                time.sleep(0.01)
            assert service.stats()["counters"]["worker_failures"] == 1

    def test_worker_death_heals_and_replays_by_default(self, arena,
                                                       tmp_path):
        # The supervisor respawns the worker and replays its in-flight
        # keys, so the same scenario now resolves every future exactly.
        # The hold fires once, so the respawned worker replies at once.
        fault = HeldReply(tmp_path)
        with ClusterService(arena, workers=1, respawn_backoff=0.05,
                            _fault=fault) as service:
            worker = service._workers[0]
            blocker = hold_busy(service, fault)
            futures = [service.submit_nowait(0, i) for i in range(4)]
            worker.process.terminate()
            results = [f.result(timeout=30) for f in [blocker] + futures]
            assert all(r.status == SERVED_INDEX for r in results)
            stats = service.stats()
            assert stats["counters"]["worker_failures"] >= 1
            assert stats["counters"]["respawns"] >= 1
            assert stats["workers"][0]["alive"]

    def test_validation(self, arena):
        with pytest.raises(ValueError):
            ClusterService(arena, workers=0)
        with pytest.raises(ValueError):
            ClusterService(arena, workers=2, shards=3)
        with pytest.raises(ValueError):
            ClusterService(arena, workers=1, max_batch=0)


class TestHotReload:
    """Satellite: rolling reload must never mix generations in a reply."""

    def test_rolling_reload_bumps_every_worker(self, flat, tmp_path):
        path = tmp_path / "labels.spcf"
        save_flat_labels(flat, path, encoding="raw")
        with ClusterService(path, workers=2, shards=2) as service:
            assert service.generation == 0
            time.sleep(0.05)  # let mtime_ns tick past the first save
            save_flat_labels(flat, path, encoding="raw")
            assert service.check_reload() is True
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and service.generation < 1:
                time.sleep(0.01)
            assert service.generation == 1
            assert all(w["generation"] == 1
                       for w in service.stats()["workers"])
            result = service.submit(0, 1)
            assert result.ok
            assert result.generation == 1

    def test_check_reload_is_quiet_without_changes(self, arena):
        with ClusterService(arena, workers=1) as service:
            assert service.check_reload() is False

    def test_no_response_ever_mixes_generations(self, flat, tmp_path):
        """Scatter-gathers racing a live swap stay generation-uniform.

        A writer thread rewrites the arena (bumping the generation)
        while readers hammer sharded ``single_source`` gathers. Every
        successful answer must match the oracle — a mixed-generation
        merge would be caught by the router and retried, never returned.
        """
        path = tmp_path / "labels.spcf"
        save_flat_labels(flat, path, encoding="raw")
        want = {s: single_source(flat, s) for s in range(0, N, 37)}
        with ClusterService(path, workers=2, shards=2,
                            reload_check_every=0) as service:
            stop = threading.Event()
            swaps = []

            def writer():
                while not stop.is_set():
                    time.sleep(0.02)
                    save_flat_labels(flat, path, encoding="raw")
                    if service.check_reload():
                        swaps.append(1)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                results = []
                for _ in range(30):
                    for s in want:
                        results.append((s, service.single_source(s)))
            finally:
                stop.set()
                thread.join()
            assert len(swaps) >= 1, "writer never triggered a reload"
            for s, result in results:
                assert result.ok, result.error
                dist, count = result.answer
                assert np.array_equal(dist, want[s][0])
                assert np.array_equal(count, want[s][1])
            # The mixing guard is allowed to retry, never to give up
            # silently: retries show up in the counters when they fire.
            assert service.stats()["counters"]["gather_retries"] >= 0
