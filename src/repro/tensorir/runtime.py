"""Worker pool modeled on TVM's customized runtime thread pool.

The paper parallelizes CPU kernels "using the customized thread pool in TVM
runtime, which is lightweight and particularly efficient in handling the kind
of embarrassingly parallel workloads", and assigns multiple threads to
collectively work on *one graph partition at a time* to avoid LLC contention.

:class:`WorkPool` provides exactly that shape of API: a persistent pool with
``parallel_for`` (static chunking over an index range) and
``cooperative_for`` (all workers share one task's range).  Numpy releases the
GIL for large array operations, so threads give real concurrency for the
vectorized per-chunk work the templates dispatch.

:func:`take_rows` is the one row gather compiled programs, stage evaluates
and the minidgl ops share.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

__all__ = ["ExecStats", "WorkPool", "default_pool", "take_rows"]


def take_rows(table: np.ndarray, index: np.ndarray,
              *windows: tuple[int, int]) -> np.ndarray:
    """``table[index, lo0:hi0, lo1:hi1, ...]`` as a fresh writable block.

    numpy's advanced-index gather pays ~10 ns per *row* where ``np.take``
    pays ~1 ns, and a GNN's attention tables have 4- to 64-byte rows (the
    two meet at ~256 bytes).  ``np.take`` gathers whole rows of a
    C-contiguous table only -- it would copy a strided table first, once
    per chunk -- so a window that does not span its axis (a feature tile)
    and a strided table keep the advanced-index form.  Both are copies
    with the same elements; out-of-range rows raise ``IndexError`` and
    negative ones count from the end under either.
    """
    if table.flags.c_contiguous and all(
            (lo, hi) == (0, n) for (lo, hi), n in zip(windows,
                                                      table.shape[1:])):
        return np.take(table, index, axis=0)
    return table[(index, *(slice(lo, hi) for lo, hi in windows))]


class ExecStats:
    """Cumulative runtime counters for one kernel's executions: per-chunk
    UDF evaluation and aggregation wall-clock, bytes moved (gathered input
    plus written output, from the compiled program's load accounting), how
    many chunks ran compiled vector programs (every chunk of a template
    kernel; only hand-built plan stages may not), and which aggregation
    strategy the last execution combined segments with.
    Thread-safe; shared between a template kernel and its compile record."""

    __slots__ = ("eval_seconds", "aggregate_seconds", "bytes_moved",
                 "chunks", "compiled_chunks", "agg_strategy", "_lock")

    def __init__(self):
        self.eval_seconds = 0.0
        self.aggregate_seconds = 0.0
        self.bytes_moved = 0
        self.chunks = 0
        self.compiled_chunks = 0
        self.agg_strategy: str | None = None
        self._lock = threading.Lock()

    def add_chunk(self, eval_seconds: float, aggregate_seconds: float = 0.0,
                  bytes_moved: int = 0, compiled: bool = False) -> None:
        with self._lock:
            self.eval_seconds += eval_seconds
            self.aggregate_seconds += aggregate_seconds
            self.bytes_moved += int(bytes_moved)
            self.chunks += 1
            if compiled:
                self.compiled_chunks += 1

    def note_strategy(self, name: str) -> None:
        """Record the aggregation strategy an execution plan resolved to."""
        with self._lock:
            self.agg_strategy = name

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "eval_seconds": self.eval_seconds,
                "aggregate_seconds": self.aggregate_seconds,
                "bytes_moved": self.bytes_moved,
                "chunks": self.chunks,
                "compiled_chunks": self.compiled_chunks,
                "agg_strategy": self.agg_strategy,
            }

    def __repr__(self):
        d = self.as_dict()
        return (f"ExecStats(chunks={d['chunks']} "
                f"(compiled {d['compiled_chunks']}), "
                f"eval={d['eval_seconds']:.4f}s, "
                f"agg={d['aggregate_seconds']:.4f}s, "
                f"moved={d['bytes_moved']}B)")


class WorkPool:
    """A persistent worker pool with static-chunked parallel-for.

    The worker count defaults to the ``FEATGRAPH_NUM_WORKERS`` environment
    variable when set, else ``min(16, cpu_count)``.
    """

    #: the one worker kind; reported by :meth:`stats`
    backend = "thread"

    def __init__(self, num_workers: int | None = None):
        if num_workers is None:
            env = os.environ.get("FEATGRAPH_NUM_WORKERS")
            if env:
                num_workers = int(env)
            else:
                num_workers = min(16, os.cpu_count() or 1)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._chunks_dispatched = 0
        self._worker_chunks: dict[str, int] = {}

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-pool")
            return self._executor

    def _count_worker(self, worker: str, n: int = 1) -> None:
        with self._lock:
            self._worker_chunks[worker] = \
                self._worker_chunks.get(worker, 0) + n

    def _traced(self, fn: Callable) -> Callable:
        """Wrapper booking which worker thread ran each call."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._count_worker(threading.current_thread().name)
            return fn(*args, **kwargs)

        return wrapped

    def parallel_for(self, n: int, fn: Callable[[int, int], None],
                     num_chunks: int | None = None) -> None:
        """Run ``fn(lo, hi)`` over a static partition of ``range(n)``.

        ``fn`` receives half-open chunk bounds.  With one worker (or a tiny
        range) the call is executed inline, like TVM's serial fallback.
        """
        if n <= 0:
            return
        chunks = num_chunks or self.num_workers
        chunks = max(1, min(chunks, n))
        if chunks == 1 or self.num_workers == 1:
            with self._lock:
                self._chunks_dispatched += 1
            self._count_worker("inline")
            fn(0, n)
            return
        bounds = [(i * n) // chunks for i in range(chunks + 1)]
        ex = self._ensure()
        run = self._traced(fn)
        futures = [
            ex.submit(run, bounds[i], bounds[i + 1])
            for i in range(chunks)
            if bounds[i + 1] > bounds[i]
        ]
        with self._lock:
            self._chunks_dispatched += len(futures)
        for f in futures:
            f.result()

    def cooperative_for(self, tasks: Sequence, n_of: Callable, fn: Callable) -> None:
        """Process ``tasks`` one at a time, all workers sharing each task.

        For each task ``t``, ``fn(t, lo, hi)`` is invoked over chunks of
        ``range(n_of(t))``.  This is the LLC-contention-avoiding execution
        order: the pool never works on two graph partitions concurrently.
        """
        for t in tasks:
            self.parallel_for(n_of(t), lambda lo, hi, _t=t: fn(_t, lo, hi))

    def submit(self, fn: Callable, *args, **kwargs):
        """Schedule ``fn(*args, **kwargs)`` on the pool; returns a Future.

        The asynchronous entry point behind the mini-batch
        :class:`~repro.minidgl.sampling.BlockLoader`: sampling the next
        batch's blocks runs here while the main thread computes on the
        current batch.  Works with a single worker too (the one worker
        alternates), though overlap then needs the GIL-releasing numpy ops
        to dominate.
        """
        with self._lock:
            self._chunks_dispatched += 1
        return self._ensure().submit(self._traced(fn), *args, **kwargs)

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to items concurrently and return results in order."""
        with self._lock:
            self._chunks_dispatched += len(items)
        if self.num_workers == 1 or len(items) <= 1:
            self._count_worker("inline", len(items))
            return [fn(x) for x in items]
        return list(self._ensure().map(self._traced(fn), items))

    def stats(self) -> dict:
        """Pool accounting: worker count, backend, chunks dispatched, and
        per-worker chunk counts (thread names, or ``inline`` for serial
        fallbacks)."""
        with self._lock:
            return {
                "workers": self.num_workers,
                "backend": self.backend,
                "chunks_dispatched": self._chunks_dispatched,
                "worker_chunks": dict(self._worker_chunks),
                "active": self._executor is not None,
            }

    def shutdown(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


_default: WorkPool | None = None
_default_lock = threading.Lock()


def default_pool() -> WorkPool:
    """Process-wide shared pool (created lazily)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = WorkPool()
        return _default
