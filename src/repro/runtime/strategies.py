"""Pluggable segment-reduction strategies.

Aggregating a chunk's per-edge messages into destination rows is a
segmented reduction, and *how* the segments are reduced dominates GNN
aggregation cost.  Four strategies implement one interface; the first
three reduce with numpy ufuncs, and for those the chunk's degree
histogram decides which shape of vectorization wins:

``reduceat``
    The sorted-CSR baseline: one ``ufunc.reduceat`` over the chunk's
    segment starts.  One C call, no index construction; the generic inner
    loop pays per segment, which hurts when rows are long and the feature
    width is large.

``bucketed``
    Degree-bucketed vectorization (the paper's hybrid-partitioning idea
    applied to numpy): rows of equal degree ``d`` are reduced with one
    ``ufunc.reduce`` along the degree axis -- numpy's tight SIMD reduction
    instead of reduceat's per-segment dispatch.  A degree held by one row
    reduces that row's CSR slice where it lies, with no index and no copy;
    a degree held by several rows gathers them into one dense
    ``(rows, d, F)`` batch first.  Every bucket writes one per-chunk
    buffer, folded into the accumulator once.  Pays one Python-level
    iteration per *distinct* degree, and the gather where rows share a
    degree, so it wins when rows are long or plentiful relative to
    distinct degrees and wide enough (numpy's reduce and gather cost per
    row, not per byte: below 16 values a row ``reduceat`` is cheaper).

``parallel``
    Rows sharded across the workers of the default
    :class:`~repro.tensorir.runtime.WorkPool`,
    segment-aligned, each worker reducing its shard with ``reduceat`` into
    a per-worker slice of a partial buffer; the combine into the
    accumulator is one vectorized step after all shards land.  Because
    shard boundaries never split a segment and each segment is reduced by
    the same ``reduceat`` primitive, results are **bit-identical across
    worker counts** (and to the ``reduceat`` strategy).

``spblas``
    The native segmented sum: a float32/float64 ``sum`` is the product of
    the chunk's 0/1 selector matrix (CSR: ``indptr`` = segment starts,
    ``indices`` = ``arange``) with the ``(edges, F)`` message block, one
    call into SciPy's compiled ``csr_matvecs``
    (:mod:`repro.runtime.spblas`).  No per-segment or per-degree Python
    or ufunc dispatch at all, so it needs no shape statistics to be the
    right pick, and the lowerings give it every float ``sum``/``mean``
    sink of a default request.  A message that is a pure row gather
    reaches it as a :class:`~repro.runtime.plan.RowGather` and is never
    gathered: ``indices`` is then the chunk's slice of the graph's own
    column indices, the selector's ``data`` the edge weights, and the
    dense operand the feature table itself -- vanilla SpMM on the graph's
    CSR, the kernel the paper measures against MKL's ``csrmm``; every
    other strategy densifies such a value through ``np.asarray`` first.
    Rows longer than 128 edges are summed in
    128-edge blocks first, so float32 drift does not grow with the degree;
    each row is reduced in one fixed order that depends only on its own
    length, so results are **bit-identical across chunk sizes and worker
    counts**.  Any other reducer, and integer or bool messages, delegate
    to ``reduceat`` inline.

Parity contract (pinned by ``tests/runtime/test_strategies.py`` and the
fuzzer's ``--exec-strategy`` stage): for order-insensitive reducers
(max/min) every strategy is bit-identical to the ``reduceat`` oracle; for
sum/prod/mean the bucketed strategy reassociates (numpy's pairwise SIMD
reduce vs reduceat's internal order), so agreement is bounded at 1e-6
relative -- ``reduceat`` itself matches neither a sequential nor a
pairwise Python recomputation bit-for-bit, so exact equality across
differently-vectorized sums is not a meaningful target.  ``spblas``
reassociates the float sums it owns too (blocked sequential order, in the
message dtype): it agrees with the oracle inside the sanitizer's FG007
reassociation tolerance (rtol 1e-4, atol 1e-5) and is ``reduceat`` bit
for bit wherever it delegates.

A kernel's ``agg_strategy`` request -- ``None`` or one name of
:data:`STRATEGY_NAMES` -- pins a strategy for every sink of the kernel.
Without one the lowerings resolve the strategy **per sink**
(:func:`resolve_sink_strategy`) from what they can see of it, by one rule:

- a ``sum``/``mean`` sink over float32/float64 messages combines through
  ``spblas``;
- any other sink (``max``/``min``/``prod``, integer messages) through
  ``bucketed`` when its rows are at least :data:`_BUCKET_MIN_WIDTH` values
  wide and the graph backs every distinct degree with
  :data:`_BUCKET_WORK_PER_DEGREE` edge-values, else through ``reduceat``
  (:func:`select_strategy`).

The rule reads the graph's cached degree histogram and the sink's width,
nothing else: no worker count, no file and no environment variable changes
a pick.  ``parallel`` is never selected -- it runs only when pinned.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.histogram import DegreeStats, degree_stats
from repro.runtime.plan import RowGather, SegmentInfo
from repro.runtime.reducers import Reducer
from repro.runtime.spblas import _blocked_sum, segment_sum
from repro.tensorir.runtime import WorkPool, default_pool

__all__ = [
    "AggregationStrategy",
    "ReduceatStrategy",
    "DegreeBucketedStrategy",
    "ParallelStrategy",
    "SparseBlasStrategy",
    "STRATEGY_NAMES",
    "UFUNC_STRATEGIES",
    "make_strategy",
    "select_strategy",
    "resolve_sink_strategy",
]

#: the strategies that reduce with numpy ufuncs
UFUNC_STRATEGIES = ("reduceat", "bucketed", "parallel")

STRATEGY_NAMES = UFUNC_STRATEGIES + ("spblas",)

#: estimated ufunc work (edge-values) that must back each distinct degree
#: for bucketing's per-bucket Python dispatch to pay for itself
_BUCKET_WORK_PER_DEGREE = 512

#: narrowest rows bucketing pays for: its reduce and gather cost per *row*,
#: ``reduceat`` per byte reduced, and they cross at 16 float32 (segmented
#: max of (160 K, w) over 4000 rows, ms, reduceat / bucketed: w=4 1.0 / 5.4,
#: w=8 2.2 / 5.8, w=16 6.9 / 5.7, w=64 62.3 / 10.0)
_BUCKET_MIN_WIDTH = 16

#: below this many edges a parallel combine runs inline (serial reduceat)
_PARALLEL_MIN_EDGES = 4096


class AggregationStrategy:
    """Interface: combine one chunk's per-edge values into the accumulator.

    ``acc`` is the (rows, \\*feat) accumulator (identity-initialized);
    ``seg`` the chunk's :class:`~repro.runtime.plan.SegmentInfo`; ``msgs``
    the (edges, \\*feat) values, CSR-sorted so each segment is contiguous
    (or a :class:`~repro.runtime.plan.RowGather` standing for them).
    Implementations must write ``acc[seg.seg_rows] =
    reducer.ufunc(acc[seg.seg_rows], <per-segment reduction>)`` semantics
    and nothing else -- rows absent from the chunk stay untouched.
    """

    name = "?"

    def combine(self, acc: np.ndarray, seg: SegmentInfo, msgs: np.ndarray,
                reducer: Reducer) -> None:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class ReduceatStrategy(AggregationStrategy):
    """Sorted-CSR ``ufunc.reduceat`` -- the baseline and the oracle."""

    name = "reduceat"

    def combine(self, acc, seg, msgs, reducer):
        vals = reducer.ufunc.reduceat(np.asarray(msgs), seg.starts, axis=0)
        rows = seg.seg_rows
        acc[rows] = reducer.ufunc(acc[rows], vals)


class DegreeBucketedStrategy(AggregationStrategy):
    """One ``ufunc.reduce`` per distinct degree: over a lone row's CSR
    slice in place, over a gathered ``(rows, d, F)`` batch when rows share
    the degree; one accumulator update per chunk."""

    name = "bucketed"

    def combine(self, acc, seg, msgs, reducer):
        msgs = np.asarray(msgs)
        lengths = seg.lengths
        if len(lengths) == 0:
            return
        order = np.argsort(lengths, kind="stable")
        sorted_len = lengths[order]
        # bucket boundaries: equal-degree runs of the sorted histogram
        bnd = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_len)) + 1, [len(order)]))
        ufunc = reducer.ufunc
        # The dense reduction visits elements in CSR order, which differs
        # from whatever order produced a caller's oracle; for long float32
        # segments the sequential rounding drift between two orders is the
        # dominant error.  Accumulating in float64 lands near the true value
        # regardless of order, keeping every comparison inside the contract.
        # Every other reduction keeps the dtype numpy's reduce picks (the
        # platform int for a small-int add/multiply, which must not wrap
        # before the accumulator update casts it).
        widen = msgs.dtype == np.float32 and not reducer.order_insensitive
        dtype = np.float64 if widen else ufunc.reduce(msgs[:1], axis=0).dtype
        vals = np.empty((len(lengths),) + msgs.shape[1:], dtype=dtype)
        starts = seg.starts
        for b0, b1 in zip(bnd[:-1].tolist(), bnd[1:].tolist()):
            d = int(sorted_len[b0])
            if b1 - b0 == 1:
                # one row of this degree: reduce its CSR slice in place
                i = order[b0]
                s = starts[i]
                ufunc.reduce(msgs[s:s + d], axis=0, dtype=dtype,
                             out=vals[i, ...])
                continue
            segs = order[b0:b1]
            if d == 1:
                vals[segs] = msgs[starts[segs]]
            else:
                pos = starts[segs][:, None] + np.arange(d)
                vals[segs] = ufunc.reduce(msgs[pos], axis=1, dtype=dtype)
        if widen:
            vals = vals.astype(np.float32)
        rows = seg.seg_rows
        acc[rows] = ufunc(acc[rows], vals)


class ParallelStrategy(AggregationStrategy):
    """Segment-aligned row shards reduced concurrently on a WorkPool --
    :func:`~repro.tensorir.runtime.default_pool` unless one is given.

    Every worker fills its own slice of one per-chunk partial buffer
    (per-worker partial accumulators), then the main thread folds the
    whole buffer into ``acc`` in a single deterministic step.
    """

    name = "parallel"

    def __init__(self, pool: WorkPool | None = None,
                 min_edges: int = _PARALLEL_MIN_EDGES):
        self._pool = pool
        self.min_edges = min_edges

    @property
    def pool(self) -> WorkPool:
        return self._pool if self._pool is not None else default_pool()

    def combine(self, acc, seg, msgs, reducer):
        msgs = np.asarray(msgs)
        pool = self.pool
        n_seg = len(seg.starts)
        n_edges = seg.n_edges
        workers = pool.num_workers
        if workers <= 1 or n_edges < self.min_edges or n_seg < 2:
            ReduceatStrategy().combine(acc, seg, msgs, reducer)
            return
        cuts = self._shard_cuts(seg, min(workers, n_seg), n_edges)
        partial = np.empty((n_seg,) + msgs.shape[1:], dtype=msgs.dtype)

        def shard(bounds):
            s0, s1 = bounds
            end = seg.starts[s1] if s1 < n_seg else n_edges
            partial[s0:s1] = reducer.ufunc.reduceat(
                msgs[:end], seg.starts[s0:s1], axis=0)

        pool.map(shard, list(zip(cuts[:-1], cuts[1:])))
        rows = seg.seg_rows
        acc[rows] = reducer.ufunc(acc[rows], partial)

    @staticmethod
    def _shard_cuts(seg: SegmentInfo, shards: int,
                    n_edges: int) -> np.ndarray:
        """Edge-balanced segment-index cuts (never split a segment)."""
        targets = (np.arange(1, shards) * n_edges) // shards
        cuts = np.searchsorted(seg.starts, targets, side="left")
        cuts = np.unique(np.concatenate(([0], cuts, [len(seg.starts)])))
        return cuts


class SparseBlasStrategy(AggregationStrategy):
    """Float sums as selector-CSR x message block: one ``csr_matvecs``
    call per chunk (:func:`repro.runtime.spblas.segment_sum`) -- on a
    :class:`~repro.runtime.plan.RowGather` straight from its table, with
    no message block at all; everything else is ``reduceat``, bit for bit."""

    name = "spblas"

    @staticmethod
    def owns(reducer_name: str, dtype) -> bool:
        """Whether this strategy reduces natively (else it delegates)."""
        return reducer_name == "sum" and dtype in (np.float32, np.float64)

    def combine(self, acc, seg, msgs, reducer):
        if not self.owns(reducer.name, msgs.dtype):
            ReduceatStrategy().combine(acc, seg, msgs, reducer)
            return
        indptr = np.append(seg.starts, seg.n_edges)
        if isinstance(msgs, RowGather):
            vals = self._gather_sum(indptr, seg.lengths, msgs)
        else:
            vals = segment_sum(indptr, msgs)
        rows = seg.seg_rows
        acc[rows] = np.add(acc[rows], vals)

    @staticmethod
    def _gather_sum(indptr, lengths, msgs: RowGather) -> np.ndarray:
        """Per-segment sums of ``table[index] * weight`` without the
        ``(B, *feat)`` block.  A scalar weight is the selector's ``data``;
        a per-head weight ``(B, *prefix)`` over a ``(n, *prefix, *rest)``
        table is one call per head on the table viewed as ``(n * heads,
        rest)`` -- head ``p`` of row ``r`` is row ``r * heads + p`` there
        -- so the table is never copied or sliced, and its index is
        checked here once instead of once per head."""
        table, index, weight = msgs.table, msgs.index, msgs.weight
        if weight is None or weight.ndim == 1:
            return segment_sum(indptr, table, index=index, weight=weight)
        table = np.ascontiguousarray(table)
        feat = table.shape[1:]
        n_items = len(index)
        if weight.shape != (n_items,) + feat[:weight.ndim - 1] \
                or weight.ndim > len(feat):
            raise ValueError(
                f"row-gather weight {weight.shape} is no per-edge prefix of "
                f"the message shape {(n_items,) + feat}")
        if n_items != indptr[-1]:
            raise ValueError("row-gather index and segments disagree on "
                             "the chunk's edge count")
        if n_items and (index.min() < 0 or index.max() >= len(table)):
            raise IndexError("row-gather index escapes the table")
        heads = int(np.prod(weight.shape[1:], dtype=np.int64))
        flat = table.reshape(len(table) * heads, -1)
        weight = np.asarray(weight, dtype=table.dtype).reshape(n_items, heads)
        base = index * heads
        out = np.empty((len(lengths), heads, flat.shape[1]),
                       dtype=table.dtype)
        for p in range(heads):
            out[:, p] = _blocked_sum(indptr, lengths, flat, base + p,
                                     np.ascontiguousarray(weight[:, p]))
        return out.reshape((len(lengths),) + feat)


def make_strategy(name: str) -> AggregationStrategy:
    """Instantiate a strategy by name."""
    if name == "reduceat":
        return ReduceatStrategy()
    if name == "bucketed":
        return DegreeBucketedStrategy()
    if name == "parallel":
        return ParallelStrategy()
    if name == "spblas":
        return SparseBlasStrategy()
    raise ValueError(
        f"unknown aggregation strategy {name!r} "
        f"(known: {'/'.join(STRATEGY_NAMES)})")


def _rule(stats: DegreeStats, width: int) -> str:
    """``bucketed`` where its per-row gather and its per-distinct-degree
    Python dispatch are both paid for, else ``reduceat``."""
    work = stats.nnz * width
    if (work and width >= _BUCKET_MIN_WIDTH
            and work >= _BUCKET_WORK_PER_DEGREE * stats.n_distinct):
        return "bucketed"
    return "reduceat"


def select_strategy(degrees, width: int) -> str:
    """Pick a ufunc strategy name from a degree histogram and the width of
    the rows reduced.

    ``degrees`` is the per-destination in-degree of the topology.
    Degree-bucketing must amortize one Python dispatch per distinct degree
    over the vectorized work it unlocks (``nnz * width`` edge-values) and
    needs rows at least ``_BUCKET_MIN_WIDTH`` wide; everything else,
    and an empty graph, stays on ``reduceat``.
    """
    return _rule(DegreeStats.of(degrees), width)


def resolve_sink_strategy(requested: str | None, reducer_name: str, dtype,
                          csr, width: int) -> AggregationStrategy:
    """The strategy of one aggregating sink.

    A request (the kernel's ``agg_strategy``) is taken as it is; anything
    but a name of :data:`STRATEGY_NAMES` is :func:`make_strategy`'s
    ``ValueError``.  Without one the pick follows from what the lowering
    can observe about the sink: a ``sum`` (``mean`` is ``sum`` + finalize)
    over float32/float64 messages goes to ``spblas``; any other reducer or
    message dtype to ``bucketed`` or ``reduceat`` by the width rule of
    :func:`select_strategy`, read off ``csr``'s cached degree histogram.
    """
    if requested is not None:
        return make_strategy(requested)
    if SparseBlasStrategy.owns(reducer_name, np.dtype(dtype)):
        return SparseBlasStrategy()
    return make_strategy(_rule(degree_stats(csr), width))
