"""Deterministic fault injection for the chaos test-suite.

Every fault here models a concrete production failure and is fully
deterministic, so the chaos tests can assert the *exact* recovery path:

* :func:`truncate_file` / :func:`flip_bit` / :func:`corrupt_bytes` —
  on-disk damage (partial write, storage bit-rot). The checksummed v3
  loader must answer with a typed
  :class:`~repro.exceptions.SerializationError`.
* :class:`TransientIOErrors` — a flaky filesystem: the first ``failures``
  reads raise ``OSError``, then reads succeed. Loaders with ``retries``
  must recover; :class:`~repro.resilience.ResilientSPCIndex` must degrade.
* :class:`WorkerFault` — a crashing / hanging pool worker for
  :func:`~repro.parallel.builder.build_labels_parallel`'s ``_fault`` hook.
  Firing is counted in marker files so a retried block behaves on its next
  attempt — exactly the transient-failure shape supervision must absorb.
* :class:`CrashingCheckpoint` — SIGKILL between checkpoints: the save
  succeeds, then :class:`SimulatedKill` (a ``BaseException``, so no
  library ``except ReproError`` can swallow it) tears the build down.
* :class:`KillDuringRebuild` — the rebuild-behind worker process dying
  (or wedging) right after a checkpoint save, for
  :class:`~repro.dynamic.maintenance.MaintenanceController`'s ``_fault``
  hook: supervision must retry, resume from the surviving checkpoint,
  and never publish a partial index.
* :class:`SlowFallback` — a pathologically slow degraded path: every
  BFS-fallback query stalls for a fixed delay before running, so
  deadline enforcement and the serving circuit breaker can be exercised
  deterministically.
* :class:`FlappingFile` — an index file that alternates between corrupt
  and pristine states under test control, driving the hot-reload watcher
  and degradation/recovery transitions.
* :class:`StalledWorker` — a cluster worker that SIGSTOPs itself just
  before replying (a wedged-but-alive process), for
  :class:`~repro.serving.cluster.ClusterService`'s ``_fault`` hook: the
  router's hedging must cover the in-flight batch and its stall
  supervision must SIGKILL + respawn the worker.
* :class:`TornPipeWrite` — a cluster worker that dies mid-frame while
  replying (a torn pipe write): the router's frame decoder must treat
  the short read as *that worker's* death, replay its in-flight keys,
  and keep every other shard serving.
* :class:`HeldReply` — a cluster worker held busy on one reply until
  the test releases it: the requests that arrive meanwhile queue in the
  router, so coalescing, shedding, drains and shutdown can be driven
  without timing races.
"""

import os
import pickle
import signal
import struct
import time

from repro.baselines import bfs_counting as _bfs_counting
from repro.io import serialize as _serialize
from repro.io.checkpoint import BuildCheckpoint


class SimulatedKill(BaseException):
    """Simulates the process dying mid-build (SIGKILL / power loss).

    Deliberately *not* a :class:`~repro.exceptions.ReproError` — not even
    an ``Exception`` — so no error handling inside the library can catch
    it; only the test harness does.
    """


def truncate_file(path, drop_bytes):
    """Cut the last ``drop_bytes`` bytes off ``path`` (a torn write)."""
    blob = _read(path)
    if drop_bytes <= 0 or drop_bytes > len(blob):
        raise ValueError(f"cannot drop {drop_bytes} of {len(blob)} bytes")
    _write(path, blob[: len(blob) - drop_bytes])


def flip_bit(path, byte_offset, bit=0):
    """Flip one bit of ``path`` in place (storage bit-rot)."""
    blob = bytearray(_read(path))
    blob[byte_offset] ^= 1 << bit
    _write(path, bytes(blob))


def corrupt_bytes(path, offset, replacement):
    """Overwrite ``path`` at ``offset`` with ``replacement`` bytes."""
    blob = bytearray(_read(path))
    blob[offset : offset + len(replacement)] = replacement
    _write(path, bytes(blob))


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _write(path, blob):
    # Plain write on purpose: faults *simulate* the non-atomic damage the
    # library's own atomic writer prevents.
    with open(path, "wb") as handle:
        handle.write(blob)


class TransientIOErrors:
    """Context manager making the next ``failures`` label-file reads raise.

    Wraps :func:`repro.io.serialize._read_bytes`, the single choke point
    every loader goes through, so both direct ``load_labels`` calls and
    :class:`~repro.resilience.ResilientSPCIndex` reloads feel the fault.
    """

    def __init__(self, failures=1, error_factory=None):
        self.failures = failures
        self.raised = 0
        self._error_factory = error_factory or (
            lambda path: OSError(5, "injected transient I/O error", str(path))
        )
        self._original = None

    def __enter__(self):
        self._original = _serialize._read_bytes

        def flaky_read(path):
            if self.raised < self.failures:
                self.raised += 1
                raise self._error_factory(path)
            return self._original(path)

        _serialize._read_bytes = flaky_read
        return self

    def __exit__(self, *exc_info):
        _serialize._read_bytes = self._original
        return False


class WorkerFault:
    """Picklable worker fault for ``build_labels_parallel(_fault=...)``.

    ``kind``:

    * ``"exception"`` — the worker raises (an ordinary task failure);
    * ``"exit"`` — the worker dies with ``os._exit`` (a hard crash: the
      pool never hears back, so only a ``task_timeout`` catches it);
    * ``"hang"`` — the worker sleeps ``hang_seconds`` (a wedged task).

    Each block in ``blocks`` fires ``times`` times, counted via exclusive
    marker-file creation in ``marker_dir`` — atomic across processes, so
    retried blocks deterministically misbehave exactly ``times`` times and
    then succeed.
    """

    def __init__(self, kind, blocks, marker_dir, times=1, hang_seconds=30.0):
        if kind not in ("exception", "exit", "hang"):
            raise ValueError(f"unknown worker fault kind {kind!r}")
        self.kind = kind
        self.blocks = tuple(blocks)
        self.marker_dir = os.fspath(marker_dir)
        self.times = times
        self.hang_seconds = hang_seconds

    def trigger(self, block_index):
        """Called by the pool worker at the start of a block task."""
        if block_index not in self.blocks:
            return
        for attempt in range(self.times):
            marker = os.path.join(
                self.marker_dir, f"fault-{self.kind}-{block_index}-{attempt}"
            )
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # this firing already happened on an earlier attempt
            if self.kind == "exception":
                raise RuntimeError(
                    f"injected worker fault on block {block_index} "
                    f"(firing {attempt + 1}/{self.times})"
                )
            if self.kind == "exit":
                os._exit(17)
            time.sleep(self.hang_seconds)
            return


class SlowFallback:
    """Context manager stalling every BFS-fallback query by ``seconds``.

    Patches :meth:`BFSCountingOracle.count_with_distance`, the single
    entry point of the degraded query path, to sleep before delegating.
    With a per-request deadline shorter than the stall, the delegated
    sweep's *first* cooperative checkpoint raises
    :class:`~repro.exceptions.DeadlineExceeded` — exactly the
    slow-degraded-path shape the serving circuit breaker must absorb.
    Calls are counted in ``calls`` for assertions.
    """

    def __init__(self, seconds=0.02):
        self.seconds = seconds
        self.calls = 0
        self._original = None

    def __enter__(self):
        self._original = _bfs_counting.BFSCountingOracle.count_with_distance
        original = self._original
        injector = self

        def slow(oracle, s, t, deadline=None):
            injector.calls += 1
            time.sleep(injector.seconds)
            return original(oracle, s, t, deadline=deadline)

        _bfs_counting.BFSCountingOracle.count_with_distance = slow
        return self

    def __exit__(self, *exc_info):
        _bfs_counting.BFSCountingOracle.count_with_distance = self._original
        return False


class FlappingFile:
    """An index file flapping between corrupt and pristine under test control.

    Captures the pristine bytes at construction; :meth:`corrupt` damages
    the file in place (``"flip"`` one bit, ``"truncate"`` the tail, or
    ``"garbage"`` the whole file) and :meth:`restore` puts the original
    bytes back. Every transition rewrites the file, so mtime-based
    watchers (:class:`repro.serving.reload.IndexWatcher`) observe each
    flap. ``flaps`` counts transitions for assertions.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._pristine = _read(self.path)
        self.flaps = 0

    def corrupt(self, mode="flip", offset=100, bit=3, drop_bytes=25):
        if mode == "flip":
            flip_bit(self.path, offset, bit)
        elif mode == "truncate":
            truncate_file(self.path, drop_bytes)
        elif mode == "garbage":
            _write(self.path, b"not an index" * 4)
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        self.flaps += 1

    def restore(self):
        _write(self.path, self._pristine)
        self.flaps += 1


class KillDuringRebuild:
    """Picklable fault killing (or wedging) a rebuild worker mid-build.

    Wired into :class:`repro.dynamic.maintenance.MaintenanceController`
    via its ``_fault`` test hook: the rebuild worker process calls
    :meth:`trigger` after every *completed* checkpoint save. Once
    ``after_saves`` saves have landed the fault fires ``times`` times —
    counted via exclusive marker files in ``marker_dir`` exactly like
    :class:`WorkerFault`, atomic across the supervised retries, so the
    worker deterministically misbehaves ``times`` times and then builds
    cleanly. ``kind="kill"`` dies with ``os._exit`` (SIGKILL between
    checkpoints: the save survives on disk and the next attempt must
    resume from it); ``kind="hang"`` sleeps ``hang_seconds`` so only the
    controller's task timeout can reap the worker.
    """

    def __init__(self, marker_dir, after_saves=1, times=1, kind="kill",
                 hang_seconds=60.0):
        if kind not in ("kill", "hang"):
            raise ValueError(f"unknown rebuild fault kind {kind!r}")
        self.marker_dir = os.fspath(marker_dir)
        self.after_saves = after_saves
        self.times = times
        self.kind = kind
        self.hang_seconds = hang_seconds

    def trigger(self, saves):
        """Called by the rebuild worker after checkpoint save number ``saves``."""
        if saves < self.after_saves:
            return
        for attempt in range(self.times):
            marker = os.path.join(
                self.marker_dir, f"rebuild-{self.kind}-{attempt}"
            )
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # this firing already happened on an earlier attempt
            if self.kind == "kill":
                os._exit(23)
            time.sleep(self.hang_seconds)
            return


class StalledWorker:
    """Picklable cluster fault: SIGSTOP yourself just before replying.

    Wired into :class:`repro.serving.cluster.ClusterService` via its
    ``_fault`` hook; the worker process calls :meth:`before_reply` right
    before sending each successful batch reply. From ``after_replies``
    replies on, the fault fires ``times`` times — counted via exclusive
    marker files in ``marker_dir`` (atomic across respawned worker
    incarnations, the :class:`WorkerFault` idiom) — and the process
    stops itself with ``SIGSTOP``. A stopped process is alive but
    silent: its pipe stays open, so only heartbeat/stall supervision
    (not EOF) can detect it, and ``SIGKILL`` still reaps it. Call
    :meth:`resume` to ``SIGCONT`` a stopped pid instead of letting the
    supervisor kill it — the held-back reply is then sent normally.
    """

    def __init__(self, marker_dir, after_replies=1, times=1):
        self.marker_dir = os.fspath(marker_dir)
        self.after_replies = after_replies
        self.times = times
        self._replies = 0

    def before_reply(self, conn, reply):
        """Worker-side hook: maybe stop the process; never consumes."""
        self._replies += 1
        if self._replies < self.after_replies:
            return False
        for attempt in range(self.times):
            marker = os.path.join(self.marker_dir, f"stall-{attempt}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # this firing already happened
            os.kill(os.getpid(), signal.SIGSTOP)
            break
        return False

    @staticmethod
    def resume(pid):
        """SIGCONT a stopped worker so it finishes its held-back reply."""
        os.kill(pid, signal.SIGCONT)


class TornPipeWrite:
    """Picklable cluster fault: die mid-frame while replying.

    From ``after_replies`` successful replies on (marker-file counted
    like :class:`StalledWorker`), the worker writes only the first
    ``keep_bytes`` bytes of a correctly-framed reply — a truncated
    length-prefixed pickle, exactly what a process crashing inside
    ``write(2)`` leaves on the pipe — then dies with ``os._exit``. The
    router's incremental frame decoder must fail *this worker only*:
    short read ⇒ worker death ⇒ replay, never a router crash.
    """

    def __init__(self, marker_dir, after_replies=1, times=1, keep_bytes=6):
        if keep_bytes < 1:
            raise ValueError("keep_bytes must be >= 1")
        self.marker_dir = os.fspath(marker_dir)
        self.after_replies = after_replies
        self.times = times
        self.keep_bytes = keep_bytes
        self._replies = 0

    def before_reply(self, conn, reply):
        """Worker-side hook: maybe write a torn frame and die."""
        self._replies += 1
        if self._replies < self.after_replies:
            return False
        for attempt in range(self.times):
            marker = os.path.join(self.marker_dir, f"torn-{attempt}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # this firing already happened
            blob = pickle.dumps(reply)
            # The Connection wire format: 4-byte big-endian length, then
            # the pickled payload — truncated mid-frame on purpose.
            frame = struct.pack("!i", len(blob)) + blob
            os.write(conn.fileno(), frame[:self.keep_bytes])
            os._exit(21)
        return False


class HeldReply:
    """Picklable cluster fault: hold one batch reply until released.

    The first successful batch reply any incarnation of the worker is
    about to send (claimed once through an exclusive marker file, the
    :class:`StalledWorker` idiom) waits until :meth:`release` is called,
    or ``timeout`` seconds pass. The worker stays busy in the router's
    eyes for that whole time, so requests submitted meanwhile queue
    behind it. :meth:`holding` tells the test the hold has begun. Every
    later reply is passed to ``then``, another ``before_reply`` fault,
    when one is given.
    """

    def __init__(self, marker_dir, then=None, timeout=30.0):
        self.marker_dir = os.fspath(marker_dir)
        self.then = then
        self.timeout = timeout

    def _marker(self, name):
        return os.path.join(self.marker_dir, name)

    def before_reply(self, conn, reply):
        """Worker-side hook: hold the first reply; defer later ones."""
        try:
            os.close(os.open(self._marker("held"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return self.then is not None and self.then.before_reply(conn,
                                                                    reply)
        give_up = time.monotonic() + self.timeout
        while (not os.path.exists(self._marker("released"))
               and time.monotonic() < give_up):
            time.sleep(0.002)
        return False

    def holding(self):
        """True once a worker has started holding its reply."""
        return os.path.exists(self._marker("held"))

    def release(self):
        """Let the held reply go."""
        with open(self._marker("released"), "w"):
            pass


class CrashingCheckpoint(BuildCheckpoint):
    """A checkpoint that kills the build after ``crash_after`` saves.

    The save itself completes (atomically) before :class:`SimulatedKill`
    fires, modelling a process killed *between* checkpoints; a subsequent
    build with a plain :class:`BuildCheckpoint` at the same path must
    resume and produce labels entry-for-entry identical to an
    uninterrupted build.
    """

    def __init__(self, path, every=200, crash_after=1, keep=False):
        super().__init__(path, every=every, keep=keep)
        self.crash_after = crash_after

    def save(self, order, watermark, canonical, noncanonical, fingerprint=None):
        super().save(order, watermark, canonical, noncanonical, fingerprint)
        if self.saves >= self.crash_after:
            raise SimulatedKill(
                f"simulated kill after checkpoint save at watermark {watermark}"
            )
