"""The seeded input generator: deterministic per seed, valid streams."""

import gen
import numpy as np
import pytest
from repro.generators import barabasi_albert_graph


def draw_all(seed):
    n = 500
    graph = barabasi_albert_graph(n, 3, seed=7)
    uniform = gen.uniform_pairs(gen.rng_for(seed, gen.STREAM_PAIRS), n, 64)
    zipf = gen.zipf_pairs(gen.rng_for(seed, gen.STREAM_ZIPF), n, 64, 1.0)
    schedule = gen.poisson_schedule(gen.rng_for(seed, gen.STREAM_SCHEDULE),
                                    200.0, 1.0)
    churn = gen.churn_stream(gen.rng_for(seed, gen.STREAM_CHURN), n,
                             list(graph.edges()), 400, 5)
    return uniform, zipf, schedule, churn


def test_same_seed_same_inputs():
    first, second = draw_all(11), draw_all(11)
    for a, b in zip(first[:2], second[:2]):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.array_equal(first[2], second[2])
    assert first[3] == second[3]


def test_other_seed_other_inputs():
    first, second = draw_all(11), draw_all(12)
    assert not np.array_equal(first[0][0], second[0][0])
    assert not np.array_equal(first[1][0], second[1][0])
    assert not np.array_equal(first[2], second[2])
    assert first[3] != second[3]


def test_streams_are_independent():
    # Drawing from one sub-stream must not shift another.
    a = gen.uniform_pairs(gen.rng_for(3, gen.STREAM_PAIRS), 100, 10)
    gen.zipf_pairs(gen.rng_for(3, gen.STREAM_ZIPF), 100, 1000, 1.0)
    b = gen.uniform_pairs(gen.rng_for(3, gen.STREAM_PAIRS), 100, 10)
    assert np.array_equal(a[0], b[0])


def test_poisson_schedule_rate_and_order():
    schedule = gen.poisson_schedule(gen.rng_for(5, gen.STREAM_SCHEDULE),
                                    1000.0, 4.0)
    assert np.all(np.diff(schedule) > 0)
    assert schedule[-1] < 4.0
    assert len(schedule) == pytest.approx(4000, rel=0.1)


def test_zipf_is_skewed_over_a_permutation():
    n = 1000
    perm, cdf = gen.zipf_popularity(gen.rng_for(1, gen.STREAM_ZIPF), n, 1.0)
    assert sorted(perm.tolist()) == list(range(n))
    assert cdf[-1] == pytest.approx(1.0)
    sources, targets = gen.zipf_pairs(gen.rng_for(1, gen.STREAM_ZIPF), n,
                                      20000, 1.0)
    counts = np.bincount(np.concatenate([sources, targets]), minlength=n)
    assert counts.argmax() == perm[0]
    stats = gen.skew(sources, targets)
    assert stats["hot_set"] < n // 2
    assert stats["repeated_pair_share"] > 0.01


def test_churn_stream_replays_validly():
    n = 300
    graph = barabasi_albert_graph(n, 3, seed=2)
    stream = gen.churn_stream(gen.rng_for(9, gen.STREAM_CHURN), n,
                              list(graph.edges()), 3000, 10)
    edges = {(min(u, v), max(u, v)) for u, v in graph.edges()}
    mutations = 0
    for op, a, b in stream:
        if op == "count":
            assert 0 <= a < n and 0 <= b < n
            continue
        mutations += 1
        key = (min(a, b), max(a, b))
        if op == "insert":
            assert a != b and key not in edges
            edges.add(key)
        else:
            assert op == "delete" and key in edges
            edges.remove(key)
    assert mutations == len(stream) // 10
    kinds = [op for op, _, _ in stream if op != "count"]
    assert kinds[:4] == ["insert", "delete", "insert", "delete"]


def test_skew_of_known_pairs():
    stats = gen.skew([0, 0, 1, 2], [1, 1, 2, 3])
    assert stats["pairs"] == 4
    assert stats["repeated_pair_share"] == pytest.approx(0.25)
    assert stats["distinct_vertices"] == 4
    # vertex draws: 0 x2, 1 x3, 2 x2, 3 x1 -> 80% of 8 needs 3 vertices
    assert stats["hot_set"] == 3
