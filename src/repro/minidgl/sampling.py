"""Neighbor sampling and mini-batch blocks (GraphSage's training mode).

The paper's GraphSage reference [40] trains on sampled neighborhoods rather
than the full graph.  This module provides the standard machinery:

- :func:`sample_neighbors` -- uniform fixed-fanout sampling of incoming
  edges for a set of seed vertices, fully vectorized (bulk ``indptr``
  slicing, one key draw, per-row top-k by sort rank, and a lookup-table
  remap);
- :class:`Block` -- a bipartite message-passing block whose destination
  vertices are the seeds and whose source vertices are the sampled frontier
  (destinations first, so layer outputs align with seed order);
- :func:`build_blocks` -- the multi-layer sampling pipeline: one block per
  GNN layer, sampled inside-out;
- :func:`minibatches` -- seed-id batching, optionally shuffled;
- :class:`BlockLoader` -- the async producer: samples the next batches'
  blocks on a worker thread through a bounded queue, overlapping sampling
  with the consumer's compute (see docs/minibatch.md).

Each of the sampler's two sorts -- candidates by (row, key) for the top-k,
sampled edges by (row, column) for the block's CSR -- is one in-place
``ndarray.sort()`` of unique packed words (non-negative int64) whose low
bits carry what a stable argsort's position tie-break would, so the
unstable sort yields exactly the stable order; words wider than 63 bits
fall back to the stable argsort itself (:func:`_sort_pairs`).

Blocks wrap an ordinary pull-layout CSR, so every FeatGraph kernel and both
minidgl backends run on them unchanged -- and since compiled kernels are
topology-independent (:mod:`repro.core.compile`), each fresh block re-binds
cached kernel templates instead of recompiling.

:func:`sample_neighbors_reference` keeps the original per-seed Python loop.
It consumes the RNG identically to the vectorized sampler (one bulk key
draw, smallest-``fanout`` keys per row) and assembles its blocks by sort
and :func:`~repro.graph.sparse.from_edges`, sharing no code with the
vectorized block assembly, so the two are block-for-block equivalent
(``edge_ids`` included) under a fixed seed; it exists as the tests'
equivalence oracle.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.graph.sparse import CSRMatrix, from_edges

__all__ = [
    "Block",
    "sample_neighbors",
    "sample_neighbors_reference",
    "build_blocks",
    "minibatches",
    "BlockLoader",
]


@dataclass
class Block:
    """A bipartite sampled block for one message-passing layer.

    ``src_ids``/``dst_ids`` map local positions to global vertex ids;
    ``dst_ids == src_ids[: num_dst]`` (the seeds are included as sources so
    self-information can flow).  ``adj`` is pull-layout local CSR with shape
    ``(num_dst, num_src)``.
    """

    adj: CSRMatrix
    src_ids: np.ndarray
    dst_ids: np.ndarray

    @property
    def num_src(self) -> int:
        return len(self.src_ids)

    @property
    def num_dst(self) -> int:
        return len(self.dst_ids)

    def gather_src_features(self, features: np.ndarray) -> np.ndarray:
        """Slice the global feature matrix to this block's source order."""
        return features[self.src_ids]


def _quantize_keys(keys: np.ndarray) -> np.ndarray:
    """Uniform [0,1) keys -> 32-bit integers, the shared per-edge sampling
    keys of both sampler implementations (equal keys tie-break by CSR
    position in both, so quantization never breaks their equivalence).
    Quantizes in place: the result is ``keys``' memory viewed as int64."""
    out = keys.view(np.int64)
    np.multiply(keys, float(1 << 32), out=out, casting="unsafe")
    return out


def _check_fanout(fanout: int) -> None:
    if fanout < 1:
        raise ValueError("fanout must be >= 1")


def _unique_seeds(seeds: np.ndarray) -> np.ndarray:
    seeds = np.asarray(seeds, dtype=np.int64)
    if len(np.unique(seeds)) != len(seeds):
        raise ValueError("seeds must be unique")
    return seeds


def _sort_pairs(major: np.ndarray, major_bits: int, minor: np.ndarray,
                minor_bits: int) -> np.ndarray:
    """``minor[np.argsort(major, kind="stable")]``, by one in-place sort.

    ``major`` and ``minor`` are non-negative int64 arrays, below
    ``2**major_bits`` and ``2**minor_bits``, and ``minor`` increases along
    the positions of every run of equal ``major`` values.  The words
    ``major << minor_bits | minor`` are then unique and an unstable sort
    puts them in exactly the stable order, ties broken by position;
    ``minor`` comes back in their low bits, in ``major``'s memory (which
    is overwritten).  Words that do not fit a non-negative int64 (63 bits)
    take the stable argsort itself.
    """
    if major_bits + minor_bits > 63:
        return minor[np.argsort(major, kind="stable")]
    major <<= minor_bits
    major |= minor
    major.sort()
    major &= (1 << minor_bits) - 1
    return major


def _make_block(adj: CSRMatrix, seeds: np.ndarray, g_src: np.ndarray,
                counts: np.ndarray) -> Block:
    """Assemble a block from sampled global sources, grouped by seed with
    ``counts[i]`` edges for seed ``i``: remap sources to local ids (seeds
    first, then the discovered frontier, ascending -- via an O(|V|)
    membership mask and inverse lookup table, much faster than sort-based
    setdiff/searchsorted remapping) and build the local pull-layout CSR
    directly (bit-identical to ``from_edges`` but with one integer sort,
    of ``(row, col)`` pairs tie-broken by input position, instead of a
    generic lexsort)."""
    n_total = adj.shape[1]
    present = np.zeros(n_total, dtype=bool)
    present[g_src] = True
    present[seeds] = False
    frontier = np.nonzero(present)[0]
    src_ids = np.concatenate([seeds, frontier])
    n_src, n_dst, m = len(src_ids), len(seeds), len(g_src)
    lookup = np.empty(n_total, dtype=np.int64)
    lookup[src_ids] = np.arange(n_src, dtype=np.int64)
    l_src = lookup[g_src]
    indptr = np.zeros(n_dst + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # sort by row * n_src + col, ties by input position: from_edges'
    # lexsort order, and edge_ids = order is its input-edge mapping too
    major = np.repeat(np.arange(0, n_dst * n_src, max(n_src, 1)), counts)
    major += l_src
    order = _sort_pairs(major, (n_dst * n_src - 1).bit_length(),
                        np.arange(m), (m - 1).bit_length())
    block_adj = CSRMatrix((n_dst, n_src), indptr, l_src[order],
                          edge_ids=order)
    return Block(adj=block_adj, src_ids=src_ids, dst_ids=seeds)


def sample_neighbors(adj: CSRMatrix, seeds: np.ndarray, fanout: int,
                     rng: np.random.Generator) -> Block:
    """Uniformly sample up to ``fanout`` incoming edges per seed vertex.

    Vertices with degree <= fanout keep all their edges (sampling without
    replacement).  Fully vectorized: the seeds' CSR ranges are sliced in
    bulk, one uniform key per candidate edge is drawn, and each row keeps
    its ``fanout`` smallest keys -- equivalent to a per-row
    ``choice(deg, fanout, replace=False)`` but with no Python loop.
    """
    _check_fanout(fanout)
    return _sample(adj, _unique_seeds(seeds), fanout, rng)


def _sample(adj: CSRMatrix, seeds: np.ndarray, fanout: int,
            rng: np.random.Generator) -> Block:
    """:func:`sample_neighbors` past its checks: ``seeds`` is a unique
    int64 array and ``fanout >= 1``."""
    lo = adj.indptr[seeds]
    hi = adj.indptr[seeds + 1]
    deg = hi - lo
    total = int(deg.sum())
    if total == 0:
        return _make_block(adj, seeds, np.empty(0, dtype=np.int64), deg)
    # the candidate edges of all seeds, flattened row by row: candidate i
    # of row r sits at CSR position i + hi[r] - ends[r]
    ends = np.cumsum(deg)
    max_deg = int(deg.max())
    if max_deg <= fanout:
        counts = deg
        pos = np.repeat(hi - ends, deg)
        pos += np.arange(total)
    else:
        # one key per candidate; each row keeps its `fanout` smallest, ties
        # broken by CSR position in both samplers.  offs[i] is candidate
        # i's offset in its row's CSR range; the sorted (row, key, offset)
        # triples keep the rows' layout, so offs[i] is also the rank of
        # sorted triple i inside its row.
        offs = np.arange(total)
        offs -= np.repeat(ends - deg, deg)
        major = _quantize_keys(rng.random(total))
        major |= np.repeat(np.arange(len(seeds)) << 32, deg)
        sorted_offs = _sort_pairs(major, 32 + (len(seeds) - 1).bit_length(),
                                  offs, (max_deg - 1).bit_length())
        counts = np.minimum(deg, fanout)
        pos = np.repeat(lo, counts) + sorted_offs[offs < fanout]
    return _make_block(adj, seeds, adj.indices[pos], counts)


def sample_neighbors_reference(adj: CSRMatrix, seeds: np.ndarray, fanout: int,
                               rng: np.random.Generator) -> Block:
    """Per-seed-loop reference implementation of :func:`sample_neighbors`.

    Consumes the RNG identically (a single bulk key draw, smallest-k keys
    per row, ties broken by CSR position, picks in key order), so for a
    given ``rng`` state it produces the same blocks as the vectorized
    sampler, ``edge_ids`` included.  Shares none of the vectorized
    sampler's block assembly: sources are remapped through a sorted
    ``np.setdiff1d`` / ``np.searchsorted`` and the block is built by
    :func:`~repro.graph.sparse.from_edges`.  Kept as the equivalence oracle
    of the tests.
    """
    _check_fanout(fanout)
    seeds = _unique_seeds(seeds)
    lo = adj.indptr[seeds]
    deg = adj.indptr[seeds + 1] - lo
    total = int(deg.sum())
    keys = (_quantize_keys(rng.random(total))
            if total and (deg > fanout).any() else None)
    picked_src: list[np.ndarray] = []
    picked_dst: list[np.ndarray] = []
    offset = 0
    for local in range(len(seeds)):
        d = int(deg[local])
        if d == 0:
            continue
        start = int(lo[local])
        if d <= fanout:
            cols = adj.indices[start:start + d]
        else:
            k = keys[offset:offset + d]
            # smallest-`fanout` keys in key order, ties broken by CSR
            # position (stable)
            offs = np.argsort(k, kind="stable")[:fanout]
            cols = adj.indices[start + offs]
        offset += d
        picked_src.append(cols)
        picked_dst.append(np.full(len(cols), local, dtype=np.int64))
    if picked_src:
        g_src = np.concatenate(picked_src)
        l_dst = np.concatenate(picked_dst)
    else:
        g_src = np.empty(0, dtype=np.int64)
        l_dst = np.empty(0, dtype=np.int64)
    src_ids = np.concatenate([seeds, np.setdiff1d(g_src, seeds)])
    sorter = np.argsort(src_ids)
    l_src = sorter[np.searchsorted(src_ids, g_src, sorter=sorter)]
    return Block(adj=from_edges(len(src_ids), len(seeds), l_src, l_dst),
                 src_ids=src_ids, dst_ids=seeds)


def build_blocks(adj: CSRMatrix, seeds: np.ndarray, fanouts: list[int],
                 rng: np.random.Generator) -> list[Block]:
    """Multi-layer sampling: one block per layer, **output layer first in
    the returned list reversed to execution order**.

    ``fanouts[i]`` is the fanout of layer i (input-side layer first).  The
    returned blocks are ordered for forward execution: ``blocks[0]`` is the
    input-most layer (largest frontier), ``blocks[-1]``'s destinations are
    the original seeds.
    """
    blocks: list[Block] = []
    # only the caller's seeds can repeat: every inner layer is seeded with
    # the previous block's src_ids, which _make_block builds duplicate-free
    current = _unique_seeds(seeds)
    for fanout in reversed(fanouts):
        _check_fanout(fanout)
        block = _sample(adj, current, fanout, rng)
        blocks.append(block)
        current = block.src_ids
    blocks.reverse()
    return blocks


def minibatches(ids: np.ndarray, batch_size: int,
                rng: np.random.Generator | None = None,
                drop_last: bool = False):
    """Yield batches of vertex ids.

    With ``rng`` the ids are shuffled first (draw one permutation per
    call); with ``rng=None`` batches are yielded in the given order --
    deterministic epochs for evaluation or debugging.  ``drop_last`` skips
    a trailing partial batch so every yielded batch has exactly
    ``batch_size`` ids (uniform shapes for training loops).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ids = np.asarray(ids)
    order = rng.permutation(len(ids)) if rng is not None else np.arange(len(ids))
    stop = len(ids)
    if drop_last:
        stop = (len(ids) // batch_size) * batch_size
    for lo in range(0, stop, batch_size):
        if drop_last and lo + batch_size > stop:
            break
        yield ids[order[lo:lo + batch_size]]


#: prefetch depth when ``BlockLoader(prefetch=None)`` (0 would disable the
#: producer thread entirely)
DEFAULT_PREFETCH = 2


class BlockLoader:
    """Asynchronous mini-batch block producer.

    Iterating yields ``(seeds, blocks)`` pairs: ``seeds`` is one batch of
    ids from :func:`minibatches` and ``blocks`` is :func:`build_blocks` over
    them.  With ``prefetch > 0``, sampling runs on the loader's own
    producer thread through a bounded queue of that depth, so the next
    batch's blocks are sampled while the consumer trains on the current
    ones -- the standard sampling/compute overlap of mini-batch GNN
    systems.  ``prefetch=0`` samples synchronously in the
    consumer; both modes draw from the single ``rng`` stream in batch
    order, so they produce identical blocks for the same seed.

    Each ``__iter__`` is one epoch and keeps consuming the same ``rng``
    stream, so successive epochs see different shuffles/samples while the
    loader as a whole stays reproducible from the initial seed.  Closing
    the iterator (or leaving its loop early) joins the producer, so no
    sampling outlives the epoch and the next epoch has the ``rng`` alone.

    Accounting: ``sample_seconds`` accumulates producer-side time spent
    sampling, ``wait_seconds`` consumer-side time blocked on the queue (the
    non-overlapped remainder).
    """

    def __init__(self, adj: CSRMatrix, ids: np.ndarray, batch_size: int,
                 fanouts: list[int], *,
                 rng: np.random.Generator | None = None,
                 shuffle: bool = True,
                 prefetch: int | None = None,
                 drop_last: bool = False):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not fanouts:
            raise ValueError("fanouts must be non-empty")
        self.adj = adj
        self.ids = np.asarray(ids, dtype=np.int64)
        self.batch_size = int(batch_size)
        self.fanouts = list(fanouts)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.shuffle = bool(shuffle)
        self.prefetch = DEFAULT_PREFETCH if prefetch is None else int(prefetch)
        self.drop_last = bool(drop_last)
        self.sample_seconds = 0.0
        self.wait_seconds = 0.0
        self.batches_produced = 0

    def __len__(self) -> int:
        if self.drop_last:
            return len(self.ids) // self.batch_size
        return -(-len(self.ids) // self.batch_size)

    def _batches(self):
        return minibatches(self.ids, self.batch_size,
                           self.rng if self.shuffle else None,
                           drop_last=self.drop_last)

    def _sample(self, seeds: np.ndarray):
        t0 = time.perf_counter()
        blocks = build_blocks(self.adj, seeds, self.fanouts, self.rng)
        self.sample_seconds += time.perf_counter() - t0
        self.batches_produced += 1
        return blocks

    def __iter__(self):
        if self.prefetch <= 0:
            for seeds in self._batches():
                yield seeds, self._sample(seeds)
            return
        out: "queue.Queue" = queue.Queue(maxsize=self.prefetch)
        stop = threading.Event()

        def put_or_stop(msg) -> bool:
            """Offer ``msg`` to the queue, giving up once the consumer has
            stopped.  Every producer-side put -- items, the terminal "end",
            and error propagation -- must go through this: an unconditional
            ``out.put`` blocks forever when the consumer abandoned the loop
            with the queue full, leaking the thread and deadlocking the
            consumer's ``finally: producer.join()``."""
            while not stop.is_set():
                try:
                    out.put(msg, timeout=0.1)
                    return True
                except queue.Full:
                    continue
            return False

        def produce():
            try:
                for seeds in self._batches():
                    blocks = self._sample(seeds)
                    if not put_or_stop(("item", (seeds, blocks))):
                        return
                put_or_stop(("end", None))
            except BaseException as exc:  # propagate to the consumer
                put_or_stop(("error", exc))

        producer = threading.Thread(target=produce, daemon=True,
                                    name="repro-block-loader")
        producer.start()
        try:
            while True:
                t0 = time.perf_counter()
                kind, payload = out.get()
                self.wait_seconds += time.perf_counter() - t0
                if kind == "end":
                    break
                if kind == "error":
                    raise payload
                yield payload
        finally:
            # the producer leaves within one sample plus one put timeout
            stop.set()
            producer.join()
