"""IndexWatcher / ReloadThread: change detection on real SPCL files."""

import threading
import time

import pytest

from repro.core.index import SPCIndex
from repro.generators.random_graphs import barabasi_albert_graph
from repro.io.serialize import save_index
from repro.resilience import ResilientSPCIndex
from repro.serving import IndexWatcher, ReloadThread
from repro.testing.faults import FlappingFile


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(40, 2, seed=4)


@pytest.fixture
def index_path(tmp_path, graph):
    path = tmp_path / "labels.spcl"
    save_index(SPCIndex.build(graph), path, graph=graph)
    return path


class TestIndexWatcher:
    def test_quiet_file_reports_no_change(self, index_path):
        watcher = IndexWatcher(index_path)
        assert not watcher.poll()
        assert not watcher.poll()

    def test_rewrite_is_a_change_exactly_once(self, graph, index_path):
        watcher = IndexWatcher(index_path)
        save_index(SPCIndex.build(graph, ordering="betweenness"), index_path,
                   graph=graph)
        assert watcher.poll()
        assert not watcher.poll()  # baseline advanced with the report

    def test_corruption_and_restore_are_both_changes(self, index_path):
        watcher = IndexWatcher(index_path)
        flapper = FlappingFile(index_path)
        flapper.corrupt(mode="garbage")
        assert watcher.poll()
        flapper.restore()
        assert watcher.poll()
        assert flapper.flaps == 2

    def test_deletion_is_a_change(self, index_path):
        watcher = IndexWatcher(index_path)
        index_path.unlink()
        assert watcher.poll()
        assert not watcher.poll()

    def test_missing_file_then_created(self, tmp_path, graph):
        path = tmp_path / "absent.spcl"
        watcher = IndexWatcher(path)
        assert not watcher.poll()
        save_index(SPCIndex.build(graph), path, graph=graph)
        assert watcher.poll()


class TestReloadThread:
    def test_fires_callback_on_change(self, graph, index_path):
        resilient = ResilientSPCIndex(graph, index_path=index_path)
        watcher = IndexWatcher(index_path)
        fired = threading.Event()

        def reload_and_flag():
            resilient.reload()
            fired.set()

        thread = ReloadThread(watcher, reload_and_flag, interval=0.01).start()
        try:
            save_index(SPCIndex.build(graph, ordering="betweenness"),
                       index_path, graph=graph)
            assert fired.wait(timeout=5.0)
        finally:
            thread.stop()
        assert thread.fired >= 1
        assert not thread.errors
        assert resilient.generation == 2

    def test_callback_errors_never_kill_the_thread(self, graph, index_path):
        watcher = IndexWatcher(index_path)
        calls = []

        def explode():
            calls.append(1)
            raise RuntimeError("injected reload failure")

        thread = ReloadThread(watcher, explode, interval=0.01).start()
        try:
            flapper = FlappingFile(index_path)
            flapper.corrupt(mode="flip")
            deadline = time.monotonic() + 5.0
            while not calls and time.monotonic() < deadline:
                time.sleep(0.01)
            assert calls
            flapper.restore()
            deadline = time.monotonic() + 5.0
            while len(calls) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(calls) >= 2  # survived the first failure
        finally:
            thread.stop()
        assert len(thread.errors) == len(calls)

    def test_double_start_and_interval_validation(self, index_path):
        watcher = IndexWatcher(index_path)
        with pytest.raises(ValueError):
            ReloadThread(watcher, lambda: None, interval=0)
        thread = ReloadThread(watcher, lambda: None, interval=0.5).start()
        try:
            with pytest.raises(RuntimeError):
                thread.start()
        finally:
            thread.stop()
