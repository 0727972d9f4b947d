"""Measurement helpers: percentiles with stated support, outcome tallies,
the open-loop generator and memory probes.

Kept free of ``repro`` imports so the rules here are testable alone.
"""

import math
import resource
import sys
import threading
import time
import traceback

clock = time.perf_counter

MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """The nearest-rank ``pct`` percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count, pct):
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def min_samples(pct, min_beyond=MIN_BEYOND):
    """Fewest samples for which ``min_beyond`` lie above percentile ``pct``."""
    count = min_beyond
    while beyond(count, pct) < min_beyond:
        count += 1
    return count


MIN_POOL = 2 * min_samples(99.0)  # ops behind each pooled percentile


def latency_summary(latencies_s, min_beyond=MIN_BEYOND):
    """p50/p99 in ms with the sample count and the support above p99.

    Raises :class:`ValueError` when fewer than ``min_beyond`` samples lie
    beyond p99: a tail percentile without that support is not reported.
    """
    values = sorted(latencies_s)
    support = beyond(len(values), 99.0)
    if support < min_beyond:
        raise ValueError(
            f"{len(values)} latency samples leave {support} beyond p99; "
            f"need {min_samples(99.0, min_beyond)} samples")
    return {
        "p50_ms": nearest_rank(values, 50.0) * 1e3,
        "p99_ms": nearest_rank(values, 99.0) * 1e3,
        "samples": len(values),
        "beyond_p99": support,
    }


class Outcomes:
    """Every operation of one loop: ``(start, end, ok, ops)`` records.

    ``start`` is when the operation began, or for an open loop when it
    was due; ``ops`` is how many operations it completed when ``ok`` (a
    batch window completes many). A failed operation (shed, deadline,
    circuit-open, error or degraded) always counts as a miss of the
    latency limit, however fast the refusal came back.
    """

    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.records = []
        self._lock = threading.Lock()

    def record(self, ok, start, end, ops=1):
        with self._lock:
            self.records.append((start, end, bool(ok), ops))

    def merge(self, records):
        with self._lock:
            self.records.extend(records)

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for _, _, ok, _ in self.records if not ok)

    @property
    def missed(self):
        limit = self.limit_s
        return sum(1 for start, end, ok, _ in self.records
                   if not ok or end - start > limit)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def slo_miss_frac(self):
        return self.missed / self.attempted if self.attempted else 0.0


def trial_stats(records):
    """Throughput and latency percentiles of one run of records."""
    tail = latency_summary([end - start for start, end, _, _ in records])
    span = (max(end for _, end, _, _ in records)
            - min(start for start, _, _, _ in records))
    ops = sum(n for _, _, ok, n in records if ok)
    tail["ops_per_s"] = ops / span if span > 0 else 0.0
    return tail


def split_trials(records, size):
    """Consecutive trials of ``size`` records each, in start order.

    A trailing partial trial is left out.
    """
    ordered = sorted(records)
    return [ordered[i:i + size]
            for i in range(0, len(ordered) - size + 1, size)]


def quietest_pool(records, trial_size, closed_loop, min_pool=MIN_POOL):
    """Throughput and percentiles over the run's least disturbed trials.

    The host this benchmark runs on changes speed by up to ~2x over
    stretches of seconds, whatever the program does. Each run is
    therefore cut into short trials of ``trial_size`` operations; trials
    are ranked from quietest to most disturbed -- by
    throughput for a closed loop, by p99 latency for an open loop, whose
    throughput is the offered rate and whose disturbances are stalls --
    and pooled in that order until the pool holds ``min_pool``
    operations (20 samples beyond its p99). A change that slows the
    program slows every trial, so it still shows; a stall anywhere in
    the run still shows in the caller's whole-run latency-limit count.

    Returns the pool's ``ops_per_s`` (completed ops over the summed
    trial spans), ``p50_ms``/``p99_ms`` with their support, and how many
    trials there were and how many were pooled.
    """
    trials = split_trials(records, trial_size)
    if not trials:
        raise ValueError(f"{len(records)} records make no trial of "
                         f"{trial_size}")

    def span(trial):
        return (max(end for _, end, _, _ in trial)
                - min(start for start, _, _, _ in trial))

    def ops(trial):
        return sum(n for _, _, ok, n in trial if ok)

    if closed_loop:
        ranked = sorted(trials, key=lambda t: -ops(t) / max(span(t), 1e-12))
    else:
        ranked = sorted(trials, key=lambda t: nearest_rank(
            sorted(end - start for start, end, _, _ in t), 99.0))
    pool = []
    pooled = 0
    for trial in ranked:
        pool.append(trial)
        pooled += len(trial)
        if pooled >= min_pool:
            break
    stats = latency_summary([end - start for trial in pool
                             for start, end, _, _ in trial])
    seconds = sum(span(t) for t in pool)
    stats["ops_per_s"] = (sum(ops(t) for t in pool) / seconds
                          if seconds > 0 else 0.0)
    stats["trials"] = len(trials)
    stats["pooled_trials"] = len(pool)
    return stats


def run_open_loop(due_offsets, submit, on_done, clock=clock,
                  sleep=time.sleep):
    """Send request ``i`` at ``start + due_offsets[i]`` regardless of replies.

    ``submit(i)`` returns a future-like object with ``add_done_callback``;
    ``on_done(i, future, now)`` runs when it resolves. Futures are not
    kept here, so the loop adds no garbage for the process's collector
    to walk. Returns ``(due, sent)`` as absolute clock readings: latency
    is ``now - due[i]``, so a stall in the sender or the system is
    charged to every request it delays; ``sent - due`` is how late the
    generator ran.
    """
    count = len(due_offsets)
    due = [0.0] * count
    sent = [0.0] * count
    start = clock()

    def finisher(i):
        def finished(future):
            on_done(i, future, clock())
        return finished

    for i, offset in enumerate(due_offsets):
        at = start + float(offset)
        due[i] = at
        wait = at - clock()
        if wait > 0:
            sleep(wait)
        sent[i] = clock()
        submit(i).add_done_callback(finisher(i))
    return due, sent


def lateness_ms(due, sent):
    """Generator lateness: p50/p99/max of ``sent - due`` in ms."""
    late = sorted(max(0.0, s - d) for d, s in zip(due, sent))
    if not late:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    return {
        "p50_ms": nearest_rank(late, 50.0) * 1e3,
        "p99_ms": nearest_rank(late, 99.0) * 1e3,
        "max_ms": late[-1] * 1e3,
    }


def own_peak_rss_mb():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unshared_mb(pid):
    """Private (unshared) resident memory of ``pid`` from smaps_rollup."""
    total_kb = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total_kb += int(line.split()[1])
    except OSError:
        return 0.0
    return total_kb / 1024.0


class ThreadFailures:
    """A ``threading.excepthook`` that counts and prints dying threads.

    Each unhandled exception in any thread is one failed operation and
    fails the run's correctness gate, so a race that kills a background
    thread cannot hide behind answers that happened to come back.
    """

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    def hook(self, args):
        with self._lock:
            self.count += 1
        name = args.thread.name if args.thread is not None else "?"
        print(f"perfbench: unhandled exception in thread {name}:",
              file=sys.stderr)
        traceback.print_exception(args.exc_type, args.exc_value,
                                  args.exc_traceback, file=sys.stderr)
