"""Execution plans: what a bound kernel lowers to before it runs.

The kernel families (spmm / sddmm / softmax phases) used to each
hand-roll the same runtime loop: slice the edge set into chunks, gather
the chunk's ``src``/``dst``/``eid`` index vectors, evaluate the UDF
batch, and push the values into an accumulator or an output buffer.
An :class:`ExecutionPlan` reifies that loop as data:

- **chunk bounds**: row-aligned (:func:`row_aligned_chunks`) wherever a
  sink aggregates -- row alignment is what makes segmented reduction
  race-free -- with the target edge count shrunk by
  :func:`effective_chunk_edges` when a compiled program reports its
  per-item workset;
- a **gather plan** (:class:`GatherPlan`): the traversal-ordered
  ``src``/``dst``/``eid`` arrays a chunk's batch is sliced from, plus --
  for CSR-ordered sweeps -- the row pointer they came from, which gives a
  chunk its segments in O(rows) and makes ``dst`` an on-demand expansion;
- per **task** (:class:`EdgeTask`): one evaluate callable and one sink
  (segmented aggregation via a pluggable strategy, or an edge-indexed
  scatter), the paper's UDF + aggregation pair.  An evaluate returns the
  chunk's ``(B, *feat)`` values, or a :class:`RowGather` that describes
  them without gathering them.

The :class:`~repro.runtime.engine.Executor` interprets the plan; the
aggregation strategies live in :mod:`repro.runtime.strategies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.tensorir.runtime import take_rows

__all__ = [
    "CHUNK_WORKSET_BYTES",
    "MIN_CHUNK_EDGES",
    "effective_chunk_edges",
    "row_aligned_chunks",
    "GatherPlan",
    "RowGather",
    "SegmentInfo",
    "segment_info",
    "row_segments",
    "EdgeTask",
    "ExecutionPlan",
]

#: per-chunk gathered-bytes target when a compiled program reports its
#: workset; keeps the chunk's intermediates cache-resident (a UDF touching
#: 4 KB per edge runs chunks of 2K edges, not 128K)
CHUNK_WORKSET_BYTES = 8 * 1024 * 1024

#: floor on workset-derived chunk sizes -- tinier chunks would re-expose
#: the per-chunk dispatch overhead compilation exists to amortize
MIN_CHUNK_EDGES = 1024


def effective_chunk_edges(chunk_edges: int, prog,
                          result_bytes_per_item: int = 0) -> int:
    """Shrink ``chunk_edges`` so one chunk's gathered workset stays within
    :data:`CHUNK_WORKSET_BYTES`, using the compiled program's per-item
    accounting.  ``result_bytes_per_item`` adds the full-width rows a chunk
    holds per item (the evaluated message and the strategy's copy of it),
    for plans that evaluate a chunk at full width instead of one feature
    tile."""
    ws = prog.stats.workset_bytes_per_item + result_bytes_per_item
    if ws <= 0:
        return chunk_edges
    return min(chunk_edges, max(MIN_CHUNK_EDGES, CHUNK_WORKSET_BYTES // ws))


def row_aligned_chunks(indptr: np.ndarray,
                       target: int) -> list[tuple[int, int]]:
    """Split ``[0, nnz)`` into chunks of ~``target`` edges whose boundaries
    fall on CSR row boundaries, so every destination row's edges land in
    exactly one chunk and segmented reduction never splits a row.

    A chunk ends at the last row boundary at or below ``target`` edges, so
    no chunk is longer than ``target`` unless one row alone is."""
    nnz = int(indptr[-1])
    if nnz == 0:
        return []
    bounds = [0]
    while bounds[-1] < nnz:
        want = bounds[-1] + target
        if want >= nnz:
            bounds.append(nnz)
            break
        # back off to the last row boundary at or below `want`; if the
        # row containing it starts the chunk, take the next boundary past
        # start.
        j = int(np.searchsorted(indptr, want, side="right")) - 1
        end = int(indptr[j])
        if end <= bounds[-1]:
            j = int(np.searchsorted(indptr, bounds[-1], side="right"))
            end = int(indptr[j])
        bounds.append(end)
    return list(zip(bounds[:-1], bounds[1:]))


class GatherPlan:
    """Traversal-ordered edge endpoint arrays a chunk batch slices from.

    ``indptr`` is the CSR row pointer the arrays were sliced from, when
    the traversal is CSR order.  With it a chunk's segments come from its
    row range (:func:`row_segments`) and ``dst`` may be passed as ``None``:
    it is then expanded from ``indptr`` on first use -- only a program
    that reads ``dst``, or the verifier, ever asks.

    ``eid_positional`` says ``eid[i] == i`` for every gathered edge (a CSR
    sweep of a graph whose edge ids are its CSR positions,
    :meth:`~repro.graph.sparse.CSRMatrix.positional_edge_ids`): a chunk's
    edge-indexed rows are then the slice ``[c0, c1)`` itself.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray | None,
                 eid: np.ndarray, indptr: np.ndarray | None = None,
                 eid_positional: bool = False):
        if dst is None and indptr is None:
            raise ValueError("a gather plan needs dst or the indptr to "
                             "expand it from")
        self.src = src
        self.eid = eid
        self.indptr = indptr
        self.eid_positional = eid_positional
        self._dst = dst

    @property
    def dst(self) -> np.ndarray:
        if self._dst is None:
            # idempotent: two threads sharing a plan expand twice at worst
            self._dst = np.repeat(
                np.arange(len(self.indptr) - 1, dtype=np.int64),
                np.diff(self.indptr))
        return self._dst

    @property
    def dst_expanded(self) -> bool:
        """Whether ``dst`` exists as an array (given, or expanded already)."""
        return self._dst is not None

    def batch(self, c0: int, c1: int) -> dict:
        """The evaluator batch for edges ``[c0, c1)``."""
        return {"src": self.src[c0:c1], "dst": self.dst[c0:c1],
                "eid": self.eid[c0:c1]}

    def segments(self, c0: int, c1: int) -> "SegmentInfo":
        """Equal-destination runs of chunk ``[c0, c1)``: read off
        ``indptr`` when the plan carries it and the chunk is row-aligned,
        else found by a diff over the chunk's ``dst``."""
        seg = None
        if self.indptr is not None:
            seg = row_segments(self.indptr, c0, c1)
        return seg if seg is not None else segment_info(self.dst[c0:c1])


class RowGather:
    """A chunk's messages ``table[index] * weight``, not gathered yet.

    ``table`` is ``(n, *feat)``, ``index`` one row id per edge and
    ``weight`` -- optional -- ``(B, *feat[:k])`` with ``k < len(feat)``:
    a scalar per edge, or one value per leading feature index (per head),
    broadcast over the remaining feature axes.  A task's evaluate returns
    one instead of the ``(B, *feat)`` block when its sink can reduce
    straight from the table (``spblas``); everything else that reads the
    value gets the dense block through ``np.asarray``.
    """

    __slots__ = ("table", "index", "weight")

    def __init__(self, table: np.ndarray, index: np.ndarray,
                 weight: np.ndarray | None = None):
        self.table = table
        self.index = index
        self.weight = weight

    @property
    def shape(self) -> tuple:
        return (len(self.index),) + self.table.shape[1:]

    @property
    def dtype(self) -> np.dtype:
        return self.table.dtype

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        vals = take_rows(self.table, self.index)
        if self.weight is not None:
            w = np.asarray(self.weight, dtype=vals.dtype)
            vals *= w.reshape(w.shape + (1,) * (vals.ndim - w.ndim))
        return vals if dtype is None else vals.astype(dtype, copy=False)


class SegmentInfo:
    """Equal-destination runs of one chunk (rows sorted within the chunk).

    ``starts[i]`` is the chunk-local offset of segment ``i``;
    ``seg_rows[i]`` its destination row; ``lengths[i]`` its edge count
    (the chunk's degree histogram, which the bucketed strategy groups by).
    ``rows`` -- the per-edge destination, sorted -- may be given as
    ``None`` (segments read off a row pointer): it is then expanded from
    the segments on first use.
    """

    __slots__ = ("starts", "seg_rows", "lengths", "_rows")

    def __init__(self, rows: np.ndarray | None, starts: np.ndarray,
                 seg_rows: np.ndarray, lengths: np.ndarray):
        self._rows = rows           # per-edge destination, sorted
        self.starts = starts        # (n_segments,) chunk-local starts
        self.seg_rows = seg_rows    # (n_segments,) destination row
        self.lengths = lengths      # (n_segments,) segment sizes

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = np.repeat(self.seg_rows, self.lengths)
        return self._rows

    @property
    def n_edges(self) -> int:
        """The chunk's edge count: segments tile it from offset 0."""
        if len(self.starts) == 0:
            return 0
        return int(self.starts[-1] + self.lengths[-1])


def segment_info(dst_sorted: np.ndarray) -> SegmentInfo:
    """Boundaries of equal-destination runs in a sorted chunk.

    A zero-edge chunk has zero segments (the engine never schedules one,
    but degenerate graphs reach this through the chunking helpers)."""
    dst_sorted = np.asarray(dst_sorted)
    if len(dst_sorted) == 0:
        empty = np.empty(0, dtype=np.int64)
        return SegmentInfo(rows=dst_sorted, starts=empty, seg_rows=empty,
                           lengths=empty)
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(dst_sorted)) + 1))
    lengths = np.diff(np.concatenate((starts, [len(dst_sorted)])))
    return SegmentInfo(rows=dst_sorted, starts=starts,
                       seg_rows=dst_sorted[starts], lengths=lengths)


def row_segments(indptr: np.ndarray, c0: int, c1: int) -> SegmentInfo | None:
    """:func:`segment_info` of the row-aligned chunk ``[c0, c1)`` read off
    the CSR row pointer -- O(rows in the chunk), not a diff over its
    edges; rows without edges are no segment.  ``None`` when a bound does
    not fall on a row boundary (hand-built plans), where only the chunk's
    own ``dst`` says what its runs are."""
    r0 = int(np.searchsorted(indptr, c0, side="left"))
    r1 = int(np.searchsorted(indptr, c1, side="left"))
    if r1 >= len(indptr) or indptr[r0] != c0 or indptr[r1] != c1:
        return None
    starts = indptr[r0:r1]
    lengths = np.diff(indptr[r0:r1 + 1])
    seg_rows = np.arange(r0, r1, dtype=np.int64)
    occupied = lengths > 0
    if not occupied.all():
        starts, lengths, seg_rows = (starts[occupied], lengths[occupied],
                                     seg_rows[occupied])
    return SegmentInfo(rows=None, starts=starts - c0, seg_rows=seg_rows,
                       lengths=lengths)


@dataclass
class EdgeTask:
    """One pass over an edge range: a gather plan, chunk bounds, and the
    evaluate + sink every chunk of it runs.

    ``evaluate(bindings, ctx)`` returns ``(values, bytes_moved)``; the
    engine hands the values to ``sink``.  ``name`` labels the task in
    verifier diagnostics; ``compiled`` feeds the ExecStats compiled-chunk
    counter.  ``oracle`` -- set when ``evaluate`` does not run the
    compiled program (it returns a :class:`RowGather`, or contracts a dot
    product row by row) -- is the compiled program that builds the same
    values as a ``(B, *feat)`` block: the sanitizer's oracle.

    SpMM kernels emit one task per (feature tile x graph partition) -- per
    graph partition alone when no gather spans the tiled axis; SDDMM one
    per feature tile, or one full-width task for a dot product.
    Tasks run in order -- one partition at a time -- and so do the chunks
    within a task.
    """

    gather: GatherPlan
    bounds: Sequence[tuple[int, int]]
    name: str
    evaluate: Callable          # (bindings, ChunkCtx) -> (values, int)
    sink: object                # engine.AggregateSink / engine.ScatterSink
    compiled: bool = False
    oracle: Callable | None = None


@dataclass
class ExecutionPlan:
    """Everything the :class:`~repro.runtime.engine.Executor` needs."""

    tasks: Sequence[EdgeTask]
    label: str = ""
    #: name of the aggregation strategy the plan's sinks use (None for
    #: pure scatter plans); surfaced through ExecStats for benchmarks
    strategy: str | None = None
    finalize: Callable | None = None
    #: graph-axis role extents (``n_src`` / ``n_dst`` / ``m``) the
    #: verifier checks gathers against (FG010)
    dims: dict = field(default_factory=dict)
    #: the compiled program the tasks evaluate, whose ``out=`` retirement
    #: the verifier scans (FG008)
    program: object | None = None
