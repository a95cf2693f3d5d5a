"""The executor: one interpreter for every kernel family's chunk loop.

``spmm.py`` and ``sddmm.py`` each used to carry a private copy of the
same runtime loop (slice edges into chunks, gather the batch, evaluate,
push into an accumulator or output buffer, book the stats).  They now
*lower* to an :class:`~repro.runtime.plan.ExecutionPlan` and hand it to
the :class:`Executor` here, which owns the loop once:

- per chunk, a :class:`ChunkCtx` lazily materializes the gathered index
  vectors and the destination-segment boundaries (from the gather plan's
  row pointer when it carries one);
- a task's **evaluate** produces ``(values, bytes_moved)`` -- the values
  a ``(B, *feat)`` block, or a :class:`~repro.runtime.plan.RowGather`
  that a ``spblas`` sink reduces without gathering it; its **sink**
  pushes them out -- :class:`AggregateSink` combines per-destination
  segments into a vertex accumulator through a pluggable
  :class:`~repro.runtime.strategies.AggregationStrategy`,
  :class:`ScatterSink` writes edge-indexed output rows;
- one :class:`~repro.tensorir.runtime.ExecStats` books every chunk
  identically across kernel families: evaluate wall-clock vs. sink
  wall-clock, the evaluate's bytes, and the compiled-chunk count.

Chunks run in order on the calling thread.  The one place threads enter
the numeric path is *inside* a combine: a sink pinned to the ``parallel``
strategy shards its rows across the default pool.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime.plan import EdgeTask, ExecutionPlan, SegmentInfo
from repro.runtime.reducers import Reducer
from repro.runtime.strategies import AggregationStrategy
from repro.tensorir.runtime import ExecStats

__all__ = ["ChunkCtx", "AggregateSink", "ScatterSink", "Executor"]


class ChunkCtx:
    """Per-chunk context handed to a task's evaluate and sink.

    Everything derived from the chunk bounds is computed on first access
    and cached: the gathered index vectors (``index(name)``; ``batch`` is
    all three, ``batch_for(prog)`` what one program runs on) and
    ``segments`` (equal-destination runs).
    """

    __slots__ = ("c0", "c1", "_gather", "_batch", "_segments")

    def __init__(self, c0: int, c1: int, gather):
        self.c0 = int(c0)
        self.c1 = int(c1)
        self._gather = gather
        self._batch: dict | None = None
        self._segments: SegmentInfo | None = None

    @property
    def size(self) -> int:
        return self.c1 - self.c0

    def index(self, name: str) -> np.ndarray:
        """The chunk's slice of one gather array (``src``/``dst``/``eid``)."""
        return getattr(self._gather, name)[self.c0:self.c1]

    @property
    def eid_rows(self):
        """Where the chunk's edge-indexed rows live: the slice ``[c0, c1)``
        when the plan's edge ids are the gather positions, else the
        chunk's ``eid`` vector."""
        if self._gather.eid_positional:
            return slice(self.c0, self.c1)
        return self.index("eid")

    @property
    def batch(self) -> dict:
        if self._batch is None:
            self._batch = self._gather.batch(self.c0, self.c1)
        return self._batch

    def batch_for(self, prog) -> dict:
        """The batch ``prog`` runs on: ``src`` and ``eid`` (slices of what
        the gather plan holds anyway) plus ``dst`` only if the program
        reads it -- a CSR-ordered plan expands ``dst`` on first use."""
        batch = {"src": self.index("src"), "eid": self.index("eid")}
        if "dst" in prog.batch_names:
            batch["dst"] = self.index("dst")
        return batch

    @property
    def segments(self) -> SegmentInfo:
        if self._segments is None:
            self._segments = self._gather.segments(self.c0, self.c1)
        return self._segments


class AggregateSink:
    """Combine a chunk's per-edge values into a vertex accumulator.

    The actual segment reduction is delegated to ``strategy``; this sink
    owns only the post-combine ``guard_zero`` substitution (isolated-sum
    guards of the softmax denominator).  Accumulator traffic is not
    booked, matching the pre-engine templates.
    """

    __slots__ = ("acc", "reducer", "strategy", "guard_zero")

    def __init__(self, acc: np.ndarray, reducer: Reducer,
                 strategy: AggregationStrategy, guard_zero: bool = False):
        self.acc = acc
        self.reducer = reducer
        self.strategy = strategy
        self.guard_zero = guard_zero

    def apply(self, vals: np.ndarray, ctx: ChunkCtx) -> None:
        seg = ctx.segments
        self.strategy.combine(self.acc, seg, vals, self.reducer)
        if self.guard_zero:
            # row-aligned chunks touch each row exactly once per sweep, so
            # guarding the combined rows here matches a per-row guard
            rows = seg.seg_rows
            block = self.acc[rows]
            self.acc[rows] = np.where(block == 0, 1.0, block)

    def __repr__(self):
        return (f"AggregateSink({self.reducer.name} via "
                f"{self.strategy.name})")


class ScatterSink:
    """Write a chunk's per-edge values to edge-id-indexed output rows --
    one block assignment when the plan's edge ids are the gather positions
    (:attr:`ChunkCtx.eid_rows`), an indexed scatter otherwise (Hilbert
    order, permuted edge ids).

    ``tile`` scatters into a feature-column window (the SDDMM template's
    feature tiling).  The written bytes are booked by the task's
    evaluate, not here.
    """

    __slots__ = ("out", "tile")

    def __init__(self, out: np.ndarray, tile: tuple[int, int] | None = None):
        self.out = out
        self.tile = tile

    def apply(self, vals: np.ndarray, ctx: ChunkCtx) -> None:
        rows = ctx.eid_rows
        if self.tile is not None:
            self.out[rows, self.tile[0]:self.tile[1]] = vals
        else:
            self.out[rows] = vals


class Executor:
    """Runs an :class:`~repro.runtime.plan.ExecutionPlan`.

    Tasks run in order (one partition at a time) and so do a task's
    chunks.  All stats land in one :class:`~repro.tensorir.runtime.ExecStats`
    -- the same object the owning kernel and its compile record share.
    """

    def __init__(self, stats: ExecStats | None = None):
        self.stats = stats if stats is not None else ExecStats()

    def run(self, plan: ExecutionPlan, bindings=None) -> None:
        """Execute ``plan``; under ``FEATGRAPH_SANITIZE`` the run is
        re-routed through the instrumented sanitizer executor
        (:func:`repro.runtime.verify.sanitized_run`), which statically
        verifies the plan first and cross-checks runtime behavior against
        the static verdicts."""
        # lazy import: verify imports engine's sink types at module level
        from repro.runtime import verify as _verify

        if _verify.sanitize_enabled():
            _verify.sanitized_run(self, plan, bindings)
            return
        self._execute(plan, bindings)

    def _execute(self, plan: ExecutionPlan, bindings=None) -> None:
        if plan.strategy is not None:
            self.stats.note_strategy(plan.strategy)
        for task in plan.tasks:
            for b in task.bounds:
                self._run_chunk(task, bindings, b)
        if plan.finalize is not None:
            plan.finalize()

    def _run_chunk(self, task: EdgeTask, bindings,
                   bounds: tuple[int, int]) -> None:
        ctx = ChunkCtx(bounds[0], bounds[1], task.gather)
        t0 = time.perf_counter()
        vals, nbytes = task.evaluate(bindings, ctx)
        t1 = time.perf_counter()
        task.sink.apply(vals, ctx)
        self.stats.add_chunk(t1 - t0, time.perf_counter() - t1, nbytes,
                             compiled=task.compiled)
