"""Runtime support: execution counters, the row gather, a thread pool.

The paper parallelizes CPU kernels "using the customized thread pool in TVM
runtime" and assigns multiple threads to collectively work on *one graph
partition at a time* to avoid LLC contention; that schedule is modelled in
:mod:`repro.hwsim`.  Kernels here run their chunks in order on the calling
thread.  :class:`WorkPool` is a persistent ``map`` pool whose one library
user is the pinned-only ``parallel`` aggregation strategy
(:func:`default_pool`).

:func:`take_rows` is the one row gather compiled programs, stage evaluates
and the minidgl ops share.
"""

from __future__ import annotations

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
    """A persistent thread pool of ``min(16, cpu_count)`` workers unless
    ``num_workers`` says otherwise; threads start on the first concurrent
    :meth:`map`."""

    #: the one worker kind
    backend = "thread"

    def __init__(self, num_workers: int | None = None):
        if num_workers is None:
            num_workers = min(16, os.cpu_count() or 1)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-pool")
            return self._executor

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to items concurrently and return results in order;
        inline with one worker or at most one item."""
        if self.num_workers == 1 or len(items) <= 1:
            return [fn(x) for x in items]
        return list(self._ensure().map(fn, items))

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
