"""Worker-pool and runtime-counter tests."""

import os
import threading

import pytest

from repro.tensorir.runtime import ExecStats, WorkPool, default_pool


class TestMap:
    def test_map_preserves_order(self):
        pool = WorkPool(4)
        out = pool.map(lambda x: x * x, list(range(20)))
        pool.shutdown()
        assert out == [x * x for x in range(20)]

    def test_context_manager(self):
        with WorkPool(2) as pool:
            assert pool.map(lambda x: -x, [1, 2]) == [-1, -2]

    def test_default_pool_singleton(self):
        assert default_pool() is default_pool()

    def test_default_width(self):
        assert WorkPool().num_workers == min(16, os.cpu_count() or 1)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkPool(0)

    def test_single_worker_runs_inline(self):
        with WorkPool(1) as pool:
            assert pool.map(lambda x: threading.current_thread(),
                            [1, 2]) == [threading.current_thread()] * 2
            assert pool._executor is None


class TestExecStats:
    def test_accumulates_and_reports(self):
        st = ExecStats()
        st.add_chunk(0.5, 0.25, 100, compiled=True)
        st.add_chunk(0.5, bytes_moved=50)
        d = st.as_dict()
        assert d["eval_seconds"] == 1.0
        assert d["aggregate_seconds"] == 0.25
        assert d["bytes_moved"] == 150
        assert d["chunks"] == 2 and d["compiled_chunks"] == 1
        assert "chunks=2" in repr(st)

    def test_thread_safe_under_contention(self):
        st = ExecStats()
        threads = [threading.Thread(
            target=lambda: [st.add_chunk(0.001, compiled=True)
                            for _ in range(500)]) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        d = st.as_dict()
        assert d["chunks"] == d["compiled_chunks"] == 4000
