"""Seeded input generators for the benchmark workloads.

Every workload input is a pure function of ``(seed, stream)``: the same
seed yields byte-identical pair arrays, schedules and churn streams, and
the program under test only ever receives the generated values. The
graphs themselves are fixed workload parameters (their seeds live in
``workloads.py``), so index size and build time do not move with
``--seed``.
"""

import numpy as np

# Independent sub-streams of one run seed, so adding a draw to one input
# never shifts the values of another.
STREAM_PAIRS = 1
STREAM_ZIPF = 2
STREAM_SCHEDULE = 3
STREAM_CHURN = 4
STREAM_SAMPLE = 5


def rng_for(seed, stream):
    """A numpy generator for sub-stream ``stream`` of run seed ``seed``."""
    return np.random.default_rng([int(seed), int(stream)])


def uniform_pairs(rng, n, count):
    """``count`` uniform random ``(s, t)`` pairs as two int64 arrays."""
    sources = rng.integers(0, n, size=count, dtype=np.int64)
    targets = rng.integers(0, n, size=count, dtype=np.int64)
    return sources, targets


def zipf_popularity(rng, n, exponent):
    """``(perm, cdf)``: vertex ``perm[k]`` is drawn ∝ ``1/(k+1)**exponent``.

    The permutation is seeded, so the hot vertices are not simply the
    low ids (which the BA generator makes the hubs).
    """
    perm = rng.permutation(n).astype(np.int64)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return perm, cdf


def zipf_vertices(rng, perm, cdf, count):
    """``count`` vertices drawn from the popularity ``(perm, cdf)``."""
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    return perm[np.minimum(ranks, len(perm) - 1)]


def zipf_pairs(rng, n, count, exponent):
    """``count`` pairs whose endpoints are both Zipf-popular vertices."""
    perm, cdf = zipf_popularity(rng, n, exponent)
    return (zipf_vertices(rng, perm, cdf, count),
            zipf_vertices(rng, perm, cdf, count))


def poisson_schedule(rng, rate, duration):
    """Due offsets (seconds from start) of a Poisson process at ``rate``/s.

    Exponential inter-arrival gaps, cut at ``duration``; always at least
    one arrival.
    """
    expected = int(rate * duration * 1.2) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    kept = offsets[offsets < duration]
    return kept if len(kept) else offsets[:1]


def churn_stream(rng, n, edges, ops, mutation_every):
    """A list of ``(op, a, b)`` tuples: queries beside edge mutations.

    Every ``mutation_every``-th op is a mutation, alternately
    ``"insert"`` (a pair that is not an edge of the graph as mutated so
    far) and ``"delete"`` (an edge of that graph); the rest are
    ``"count"`` queries on uniform pairs. Evenly spaced mutations give
    every rebuild cycle the same length, so a run's cost does not hinge
    on where the seed bunched them. The generator keeps its own copy of
    the edge set, so every mutation is valid when replayed in order on a
    graph with ``edges``.
    """
    present = []
    where = {}
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        where[key] = len(present)
        present.append(key)
    stream = []
    mutations = 0
    for i in range(ops):
        if (i + 1) % mutation_every:
            s, t = rng.integers(0, n, size=2)
            stream.append(("count", int(s), int(t)))
            continue
        mutations += 1
        if mutations % 2 == 0 and present:
            j = int(rng.integers(0, len(present)))
            key = present[j]
            last = present.pop()
            if last != key:
                present[j] = last
                where[last] = j
            del where[key]
            stream.append(("delete", key[0], key[1]))
            continue
        while True:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            key = (u, v) if u < v else (v, u)
            if u != v and key not in where:
                break
        where[key] = len(present)
        present.append(key)
        stream.append(("insert", key[0], key[1]))
    return stream


def skew(sources, targets, cover=0.8):
    """How much the pairs repeat and how concentrated their endpoints are.

    ``repeated_pair_share`` is the share of pairs that repeat an earlier
    pair; ``hot_set`` is the fewest distinct vertices that account for
    ``cover`` of all endpoint draws.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    pairs = len(sources)
    if pairs == 0:
        return {"pairs": 0, "repeated_pair_share": 0.0, "hot_set": 0,
                "distinct_vertices": 0}
    distinct_pairs = len(np.unique(np.stack([sources, targets], axis=1),
                                   axis=0))
    _, counts = np.unique(np.concatenate([sources, targets]),
                          return_counts=True)
    counts = np.sort(counts)[::-1]
    covered = np.cumsum(counts)
    hot = int(np.searchsorted(covered, cover * covered[-1]) + 1)
    return {
        "pairs": pairs,
        "repeated_pair_share": 1.0 - distinct_pairs / pairs,
        "hot_set": hot,
        "distinct_vertices": int(len(counts)),
    }
