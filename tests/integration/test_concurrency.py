"""Concurrent readers vs. live index swaps: no torn reads, exact answers.

Eight-plus threads hammer one :class:`ResilientSPCIndex` /
:class:`SPCService` with single-pair, batch and single-source queries
while the main thread repeatedly replaces the on-disk index file
(rebuild, corrupt, restore) and triggers reloads. Whatever generation a
request lands on, the answer must be bit-identical to the exact all-pairs
BFS oracle — a swap may change *which* engine answers, never *what* it
answers.
"""

import threading
import time

import pytest

from repro.baselines.bfs_counting import spc_all_pairs
from repro.core.index import SPCIndex
from repro.generators.random_graphs import barabasi_albert_graph
from repro.io.serialize import save_index
from repro.query import Batch, Count, SingleSource
from repro.resilience import ResilientSPCIndex
from repro.serving import SPCService
from repro.testing.faults import FlappingFile

THREADS = 8
ORDERINGS = ("degree", "betweenness", "degree")


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(48, 2, seed=11)


@pytest.fixture(scope="module")
def truth(graph):
    dist_rows, count_rows = spc_all_pairs(graph)
    return [
        [(d, c) for d, c in zip(dist_row, count_row)]
        for dist_row, count_row in zip(dist_rows, count_rows)
    ]


def hammer(target, graph, truth, stop, failures, seed):
    """Mixed query workload until ``stop``; mismatches land in ``failures``."""
    n = graph.n
    pairs = [((seed + i * 7) % n, (seed * 13 + i * 3) % n) for i in range(6)]
    i = 0
    while not stop.is_set():
        i += 1
        kind = i % 3
        try:
            if kind == 0:
                s, t = pairs[i % len(pairs)]
                got = target.count_with_distance(s, t)
                want = (truth[s][t][0], truth[s][t][1])
                if got != want:
                    failures.append(("pair", s, t, got, want))
            elif kind == 1:
                got = target.count_many(pairs)
                want = [(truth[s][t][0], truth[s][t][1]) for s, t in pairs]
                if got != want:
                    failures.append(("batch", pairs, got, want))
            else:
                s = (seed * 5 + i) % n
                dist, count = target.single_source(s)
                for t in range(n):
                    if (dist[t], count[t]) != truth[s][t]:
                        failures.append(("sweep", s, t, (dist[t], count[t]),
                                         truth[s][t]))
                        break
        except Exception as exc:  # noqa: BLE001 - the assertion IS "no raise"
            failures.append(("raised", type(exc).__name__, str(exc)))
            return


def run_hammer(target, graph, truth, churn):
    stop = threading.Event()
    failures = []
    threads = [
        threading.Thread(target=hammer,
                         args=(target, graph, truth, stop, failures, seed))
        for seed in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    try:
        churn()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "query thread hung"
    assert not failures, failures[:5]


def test_resilient_index_survives_file_replacement(tmp_path, graph, truth):
    index_path = tmp_path / "labels.spcl"
    save_index(SPCIndex.build(graph), index_path, graph=graph)
    resilient = ResilientSPCIndex(graph, index_path=index_path)

    def churn():
        for ordering in ORDERINGS:
            time.sleep(0.05)
            save_index(SPCIndex.build(graph, ordering=ordering), index_path,
                       graph=graph)
            assert resilient.reload()

    run_hammer(resilient, graph, truth, churn)
    assert resilient.generation == 1 + len(ORDERINGS)
    assert resilient.status == "index"
    assert resilient.counters["index_queries"] > 0


def test_resilient_index_survives_corrupt_restore_cycles(tmp_path, graph,
                                                         truth):
    index_path = tmp_path / "labels.spcl"
    save_index(SPCIndex.build(graph), index_path, graph=graph)
    resilient = ResilientSPCIndex(graph, index_path=index_path)
    flapper = FlappingFile(index_path)

    def churn():
        for mode in ("flip", "garbage"):
            time.sleep(0.05)
            flapper.corrupt(mode=mode)
            assert not resilient.reload()  # degrade, never crash
            time.sleep(0.05)
            flapper.restore()
            assert resilient.reload()

    run_hammer(resilient, graph, truth, churn)
    assert resilient.status == "index"
    assert resilient.counters["load_failures"] == 2
    assert resilient.counters["fallback_queries"] > 0


def test_service_hot_reload_under_concurrent_load(tmp_path, graph, truth):
    index_path = tmp_path / "labels.spcl"
    save_index(SPCIndex.build(graph), index_path, graph=graph)
    service = SPCService(graph, index_path=index_path, capacity=THREADS,
                         queue_limit=THREADS, reload_check_every=1)

    def run(node):
        result = service.submit_query(node)
        if not result.ok:
            raise result.error
        return result.answer

    class Facade:
        """Adapt the service's request path to the hammer's index shape."""

        count_with_distance = staticmethod(service.query)

        @staticmethod
        def count_many(pairs):
            return list(run(Batch(tuple(Count(s, t) for s, t in pairs))))

        @staticmethod
        def single_source(s):
            return run(SingleSource(s))

    def churn():
        flapper = FlappingFile(index_path)
        for ordering in ORDERINGS:
            time.sleep(0.05)
            save_index(SPCIndex.build(graph, ordering=ordering), index_path,
                       graph=graph)
        time.sleep(0.05)
        flapper.corrupt(mode="truncate")
        time.sleep(0.05)
        flapper.restore()
        time.sleep(0.05)

    run_hammer(Facade(), graph, truth, churn)
    assert service.generation >= 2
    assert service.counters["reloads"] >= 2
    assert service.counters["requests"] > 0
    assert service.health()["status"] == "index"
