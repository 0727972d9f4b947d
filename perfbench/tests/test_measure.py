"""Measurement rules: tail support, failure accounting, open-loop timing."""

import threading
from concurrent.futures import Future

import pytest

from measure import (
    Outcomes,
    ThreadFailures,
    beyond,
    latency_summary,
    lateness_ms,
    min_samples,
    nearest_rank,
    quietest_pool,
    run_open_loop,
    split_trials,
)


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_ten_beyond_p99_needs_a_thousand_samples():
    assert beyond(1000, 99.0) == 10
    assert beyond(999, 99.0) == 9
    assert min_samples(99.0) == 1000
    summary = latency_summary([i / 1000.0 for i in range(1000)])
    assert summary["samples"] == 1000
    assert summary["beyond_p99"] == 10
    assert summary["p99_ms"] == pytest.approx(989.0)
    assert summary["p50_ms"] == pytest.approx(499.0)
    with pytest.raises(ValueError, match="beyond p99"):
        latency_summary([0.001] * 999)


def test_shed_counts_as_failed_and_as_slo_miss():
    outcomes = Outcomes(limit_s=0.025)
    outcomes.record(True, 0.0, 0.001)      # fast and served
    outcomes.record(True, 0.0, 0.030)      # served, over the limit
    outcomes.record(False, 0.0, 0.0001)    # shed: refused at once
    assert outcomes.attempted == 3
    assert outcomes.failed == 1
    assert outcomes.missed == 2
    assert outcomes.failed_frac == pytest.approx(1 / 3)
    assert outcomes.slo_miss_frac == pytest.approx(2 / 3)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_latency_runs_from_the_due_time():
    clock = FakeClock()

    def submit(i):
        if i == 0:
            clock.now += 0.050   # the first send stalls for 50 ms
        future = Future()
        future.set_result(i)     # answered at once once sent
        return future

    done = {}
    due, sent = run_open_loop(
        [0.0, 0.010, 0.020, 0.100], submit,
        lambda i, future, now: done.setdefault(i, (now, future.result())),
        clock=clock, sleep=clock.sleep)
    latency = [done[i][0] - due[i] for i in range(4)]
    # Requests 1 and 2 were due during the stall: their wait counts.
    assert latency[0] == pytest.approx(0.050)
    assert latency[1] == pytest.approx(0.040)
    assert latency[2] == pytest.approx(0.030)
    # Request 3 was due after the stall ended, so it was sent on time.
    assert sent[3] == pytest.approx(due[3])
    assert latency[3] == pytest.approx(0.0)
    assert [done[i][1] for i in range(4)] == [0, 1, 2, 3]


def test_generator_lateness_is_reported():
    due = [0.0, 0.010, 0.020, 0.100]
    sent = [0.0, 0.050, 0.050, 0.100]
    late = lateness_ms(due, sent)
    assert late["max_ms"] == pytest.approx(40.0)
    assert late["p99_ms"] == pytest.approx(40.0)
    assert late["p50_ms"] == pytest.approx(0.0)


def test_thread_failures_are_counted(capsys):
    failures = ThreadFailures()
    previous = threading.excepthook
    threading.excepthook = failures.hook
    try:
        thread = threading.Thread(target=lambda: 1 / 0, name="doomed")
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        threading.excepthook = previous
    assert failures.count == 1
    assert "doomed" in capsys.readouterr().err


def records(count, start, latency, ops=1, ok=True):
    """``count`` back-to-back operations of equal ``latency``."""
    return [(start + i * latency, start + (i + 1) * latency, ok, ops)
            for i in range(count)]


def test_trials_split_in_start_order_and_drop_the_tail():
    rows = records(2500, 0.0, 0.001)
    trials = split_trials(list(reversed(rows)), 1000)
    assert [len(t) for t in trials] == [1000, 1000]
    assert trials[0][0] == rows[0]


def test_closed_loop_pools_the_fastest_trials():
    slow = records(600, 0.0, 0.002)            # a disturbed stretch
    fast = records(1200, 2.0, 0.001)
    pool = quietest_pool(slow + fast, 300, closed_loop=True,
                         min_pool=1000)
    assert pool["trials"] == 6
    assert pool["pooled_trials"] == 4          # 4 x 300 >= 1000 samples
    assert pool["ops_per_s"] == pytest.approx(1000.0)
    assert pool["p50_ms"] == pytest.approx(1.0)
    assert pool["samples"] == 1200 and pool["beyond_p99"] == 12


def test_open_loop_pools_the_shortest_tail_trials():
    calm = [(t, t + 0.003, True, 1) for t in (i * 0.001 for i in range(1000))]
    busy = [(t, t + 0.009, True, 1)
            for t in (1.0 + i * 0.001 for i in range(1000))]
    pool = quietest_pool(busy + calm, 500, closed_loop=False,
                         min_pool=1000)
    assert pool["pooled_trials"] == 2
    assert pool["p50_ms"] == pytest.approx(3.0)
    assert pool["p99_ms"] == pytest.approx(3.0)
    # A stall inflates one trial's tail, not its median: it is left out.
    stalled = [(t, t + (0.003 if i % 100 else 0.030), True, 1)
               for i, t in enumerate(2.0 + i * 0.001 for i in range(500))]
    pool = quietest_pool(stalled + calm, 500, closed_loop=False,
                         min_pool=1000)
    assert pool["p99_ms"] == pytest.approx(3.0)
    with pytest.raises(ValueError, match="beyond p99"):
        quietest_pool(calm[:999], 333, closed_loop=False, min_pool=1000)
