"""Neighbor-sampling and mini-batch tests."""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.graph.datasets import planted_partition
from repro.graph.sparse import CSRMatrix, from_edges
from repro.minidgl.sampling import Block, build_blocks, minibatches, sample_neighbors


@pytest.fixture()
def graph():
    r = np.random.default_rng(0)
    n, m = 100, 2000
    return from_edges(n, n, r.integers(0, n, m), r.integers(0, n, m))


class TestSampleNeighbors:
    def test_fanout_respected(self, graph):
        rng = np.random.default_rng(1)
        seeds = np.arange(20)
        block = sample_neighbors(graph, seeds, fanout=5, rng=rng)
        deg = np.diff(block.adj.indptr)
        assert deg.max() <= 5

    def test_low_degree_vertices_keep_all_edges(self):
        adj = from_edges(10, 10, np.array([1, 2]), np.array([0, 0]))
        block = sample_neighbors(adj, np.array([0]), fanout=8,
                                 rng=np.random.default_rng(2))
        assert block.adj.nnz == 2

    def test_sampled_edges_exist_in_graph(self, graph):
        rng = np.random.default_rng(3)
        seeds = np.arange(10, 30)
        block = sample_neighbors(graph, seeds, fanout=4, rng=rng)
        real = set(zip(graph.row_of_edge().tolist(), graph.indices.tolist()))
        for lr, lc in zip(block.adj.row_of_edge(), block.adj.indices):
            g_dst = block.dst_ids[lr]
            g_src = block.src_ids[lc]
            assert (int(g_dst), int(g_src)) in real

    def test_seeds_prefix_of_sources(self, graph):
        rng = np.random.default_rng(4)
        seeds = np.array([7, 3, 50])
        block = sample_neighbors(graph, seeds, fanout=3, rng=rng)
        assert np.array_equal(block.src_ids[:3], seeds)
        assert np.array_equal(block.dst_ids, seeds)

    def test_no_replacement(self, graph):
        rng = np.random.default_rng(5)
        block = sample_neighbors(graph, np.arange(50), fanout=10, rng=rng)
        # within one destination, sampled (dst, position) pairs are distinct
        # edge slots; degree never exceeds the true degree
        true_deg = np.diff(graph.indptr)[:50]
        got_deg = np.diff(block.adj.indptr)
        assert np.all(got_deg <= np.minimum(true_deg, 10))

    def test_duplicate_seeds_rejected(self, graph):
        with pytest.raises(ValueError):
            sample_neighbors(graph, np.array([1, 1]), 2,
                             np.random.default_rng(0))

    def test_invalid_fanout(self, graph):
        with pytest.raises(ValueError):
            sample_neighbors(graph, np.array([0]), 0, np.random.default_rng(0))

    def test_isolated_seed(self):
        adj = from_edges(5, 5, np.array([0]), np.array([1]))
        block = sample_neighbors(adj, np.array([3]), 4,
                                 np.random.default_rng(1))
        assert block.adj.nnz == 0
        assert block.num_dst == 1


class TestBuildBlocks:
    def test_layer_count_and_order(self, graph):
        rng = np.random.default_rng(6)
        seeds = np.arange(8)
        blocks = build_blocks(graph, seeds, fanouts=[4, 4], rng=rng)
        assert len(blocks) == 2
        # execution order: last block's destinations are the seeds
        assert np.array_equal(blocks[-1].dst_ids, seeds)
        # layer boundary: block i's sources are block i+1's... destinations
        assert np.array_equal(blocks[0].dst_ids, blocks[1].src_ids)

    @pytest.mark.parametrize("fanouts", [[3, 4], [50, 2, 5], [1 << 30] * 2])
    def test_equals_layer_by_layer_public_sampling(self, graph, fanouts):
        """The caller's seeds are validated once; each inner layer is
        seeded with the previous block's ``src_ids`` (unique by
        construction) and skips the check.  Same rng stream, same blocks
        as running the checked public sampler per layer."""
        seeds = np.array([17, 3, 99, 42, 0, 64])
        blocks = build_blocks(graph, seeds, fanouts,
                              np.random.default_rng(12))
        rng = np.random.default_rng(12)
        current = seeds
        for block, fanout in zip(reversed(blocks), reversed(fanouts)):
            want = sample_neighbors(graph, current, fanout, rng)
            assert np.array_equal(block.src_ids, want.src_ids)
            assert np.array_equal(block.dst_ids, want.dst_ids)
            assert np.array_equal(block.adj.indptr, want.adj.indptr)
            assert np.array_equal(block.adj.indices, want.adj.indices)
            assert np.array_equal(block.adj.edge_ids, want.adj.edge_ids)
            assert len(np.unique(block.src_ids)) == block.num_src
            current = want.src_ids

    def test_duplicate_caller_seeds_and_bad_fanouts_rejected(self, graph):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="unique"):
            build_blocks(graph, np.array([4, 9, 4]), [3, 3], rng)
        with pytest.raises(ValueError, match="fanout"):
            build_blocks(graph, np.arange(4), [3, 0], rng)
        with pytest.raises(ValueError, match="fanout"):      # inner layer
            build_blocks(graph, np.arange(4), [0, 3], rng)

    def test_duplicate_ids_rejected_by_infer_minibatch(self):
        from repro.graph.datasets import planted_partition
        from repro.minidgl.backends import get_backend
        from repro.minidgl.models import GraphSage
        from repro.minidgl.train import infer_minibatch

        ds = planted_partition(n=120, num_classes=4, feature_dim=8,
                               avg_degree=6, seed=1)
        model = GraphSage(8, 4, hidden=8, dropout=0.0, seed=0)
        with pytest.raises(ValueError, match="unique"):
            infer_minibatch(model, ds, get_backend("featgraph"),
                            np.array([5, 7, 5]))

    def test_frontier_grows_inward(self, graph):
        rng = np.random.default_rng(7)
        blocks = build_blocks(graph, np.arange(5), fanouts=[8, 8], rng=rng)
        assert blocks[0].num_src >= blocks[1].num_src

    def test_sampled_sage_forward_matches_full_when_fanout_huge(self, graph):
        """With fanout >= max degree, a sampled mean-aggregation equals the
        full-graph one on the seeds."""
        from repro.graph.segment import segment_reduce

        rng = np.random.default_rng(8)
        n = graph.shape[0]
        x = rng.random((n, 6)).astype(np.float32)
        seeds = np.arange(0, 40)
        block = sample_neighbors(graph, seeds, fanout=10_000, rng=rng)
        local_x = block.gather_src_features(x)
        mean_block = segment_reduce(local_x[block.adj.indices],
                                    block.adj.indptr, "mean")
        full_mean = segment_reduce(x[graph.indices], graph.indptr, "mean")
        assert np.allclose(mean_block, full_mean[seeds], atol=1e-4)


class TestMinibatches:
    def test_partitions_ids(self):
        ids = np.arange(23)
        batches = list(minibatches(ids, 5))
        assert sum(len(b) for b in batches) == 23
        assert sorted(np.concatenate(batches).tolist()) == list(range(23))

    def test_shuffling(self):
        ids = np.arange(100)
        batches = list(minibatches(ids, 100, rng=np.random.default_rng(9)))
        assert not np.array_equal(batches[0], ids)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(minibatches(np.arange(4), 0))


class TestMinibatchTraining:
    def test_sampled_graphsage_learns(self):
        """End to end: minibatch GraphSage with sampled blocks reaches good
        accuracy on the planted-partition task."""
        from repro.graph.datasets import planted_partition
        from repro.graph.segment import segment_reduce
        from repro.minidgl.autograd import Tensor
        from repro.minidgl.nn import Linear
        from repro.minidgl.optim import Adam

        ds = planted_partition(n=400, num_classes=4, feature_dim=16,
                               avg_degree=12, seed=10)
        rng = np.random.default_rng(11)
        w_self = Linear(16, 4, rng=rng)
        w_neigh = Linear(16, 4, bias=False, rng=rng)
        opt = Adam(w_self.parameters() + w_neigh.parameters(), lr=0.05)
        train_ids = np.nonzero(ds.train_mask)[0]

        def forward(block):
            local_x = block.gather_src_features(ds.features)
            mean = segment_reduce(local_x[block.adj.indices],
                                  block.adj.indptr, "mean")
            return w_self(Tensor(local_x[: block.num_dst])) + \
                w_neigh(Tensor(mean))

        for epoch in range(25):
            for batch in minibatches(train_ids, 128, rng=rng):
                block = sample_neighbors(ds.adj, batch, fanout=8, rng=rng)
                logits = forward(block)
                idx = np.arange(block.num_dst)
                labels = ds.labels[block.dst_ids]
                logp = logits.log_softmax(axis=-1)
                picked = logp * Tensor(np.eye(4, dtype=np.float32)[labels])
                loss = -(picked.sum() * (1.0 / block.num_dst))
                opt.zero_grad()
                loss.backward()
                opt.step()

        # evaluate on the test vertices with full neighborhoods
        test_ids = np.nonzero(ds.test_mask)[0]
        block = sample_neighbors(ds.adj, test_ids, fanout=10_000,
                                 rng=np.random.default_rng(12))
        logits = forward(block).numpy()
        acc = (logits.argmax(1) == ds.labels[test_ids]).mean()
        assert acc > 0.7


def _assert_blocks_equal(b1, b2):
    assert np.array_equal(b1.src_ids, b2.src_ids)
    assert np.array_equal(b1.dst_ids, b2.dst_ids)
    assert np.array_equal(b1.adj.indptr, b2.adj.indptr)
    assert np.array_equal(b1.adj.indices, b2.adj.indices)
    assert np.array_equal(b1.adj.edge_ids, b2.adj.edge_ids)
    assert b1.adj.shape == b2.adj.shape


class TestVectorizedReferenceEquivalence:
    """The vectorized sampler and the per-seed reference consume the RNG
    identically: same generator state in -> same blocks out."""

    @pytest.mark.parametrize("fanout", [1, 3, 8, 50])
    def test_same_seed_same_block(self, graph, fanout):
        from repro.minidgl.sampling import sample_neighbors_reference

        seeds = np.random.default_rng(13).choice(100, 40, replace=False)
        b1 = sample_neighbors(graph, seeds, fanout, np.random.default_rng(5))
        b2 = sample_neighbors_reference(graph, seeds, fanout,
                                        np.random.default_rng(5))
        _assert_blocks_equal(b1, b2)

    def test_stream_equivalence_across_calls(self, graph):
        """Equivalence holds for a *shared* generator advanced across many
        calls, not just for fresh generators."""
        from repro.minidgl.sampling import sample_neighbors_reference

        rv = np.random.default_rng(6)
        rr = np.random.default_rng(6)
        for batch in (np.arange(10), np.arange(20, 50), np.arange(90, 100)):
            b1 = sample_neighbors(graph, batch, 4, rv)
            b2 = sample_neighbors_reference(graph, batch, 4, rr)
            _assert_blocks_equal(b1, b2)

    def test_isolated_and_low_degree_seeds(self):
        from repro.graph.sparse import from_edges
        from repro.minidgl.sampling import sample_neighbors_reference

        adj = from_edges(10, 10, np.array([1, 2, 3]), np.array([0, 0, 5]))
        seeds = np.array([0, 4, 5])  # mixed: deg 2, isolated, deg 1
        b1 = sample_neighbors(adj, seeds, 1, np.random.default_rng(2))
        b2 = sample_neighbors_reference(adj, seeds, 1,
                                        np.random.default_rng(2))
        _assert_blocks_equal(b1, b2)


class _FewKeys:
    """An rng stub whose ``random(n)`` takes three distinct values, so most
    quantized sampling keys of a row tie."""

    def __init__(self, seed=14):
        self._rng = np.random.default_rng(seed)

    def random(self, n):
        return self._rng.integers(0, 3, n) / 3.0


class TestTiesAndWideWords:
    """Equal keys break by CSR position in both samplers, and words wider
    than 63 bits take the stable argsort."""

    @pytest.mark.parametrize("fanout", [1, 3, 8])
    def test_tied_keys_agree_with_the_reference(self, graph, fanout):
        from repro.minidgl.sampling import sample_neighbors_reference

        seeds = np.arange(0, 100, 3)
        b1 = sample_neighbors(graph, seeds, fanout, _FewKeys())
        b2 = sample_neighbors_reference(graph, seeds, fanout, _FewKeys())
        _assert_blocks_equal(b1, b2)

    def test_all_keys_equal_keep_each_rows_first_edges(self, graph):
        class Zeros:
            def random(self, n):
                return np.zeros(n)

        seeds = np.array([4, 71, 30])
        block = sample_neighbors(graph, seeds, 5, Zeros())
        for i, s in enumerate(seeds):
            row = slice(block.adj.indptr[i], block.adj.indptr[i + 1])
            lo = graph.indptr[s]
            assert np.array_equal(
                np.sort(block.src_ids[block.adj.indices[row]]),
                np.sort(graph.indices[lo:lo + 5]))

    @pytest.mark.parametrize("wide", [False, True])
    def test_sort_pairs_is_the_stable_argsort(self, wide):
        """Tie-heavy (row, key) majors with in-row offsets as the minor, the
        shape ``_sample`` sorts; claiming 62 major bits (65 with the
        minor's 3) forces the fallback."""
        from repro.minidgl.sampling import _sort_pairs

        r = np.random.default_rng(15)
        deg = r.integers(0, 9, 40)
        rows = np.repeat(np.arange(40), deg)
        offs = np.arange(len(rows)) - np.repeat(np.cumsum(deg) - deg, deg)
        major = rows * 4 + r.integers(0, 4, len(rows))
        major_bits = 62 if wide else int(major.max()).bit_length()
        want = offs[np.argsort(major, kind="stable")]
        got = _sort_pairs(major.copy(), major_bits, offs, 3)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_wide_selection_words_match_the_reference(self, monkeypatch):
        """A star whose hub has in-degree 65 536, all 65 537 vertices as
        seeds, fanout 1: the selection word needs 32 + 17 + 16 = 65 bits."""
        from repro.minidgl import sampling
        from repro.minidgl.sampling import sample_neighbors_reference

        widths = []
        real = sampling._sort_pairs

        def spy(major, major_bits, minor, minor_bits):
            widths.append(major_bits + minor_bits)
            return real(major, major_bits, minor, minor_bits)

        monkeypatch.setattr(sampling, "_sort_pairs", spy)
        n = 65_537
        leaves = np.arange(1, n)
        hub = np.zeros(n - 1, dtype=np.int64)
        adj = from_edges(n, n, np.concatenate([leaves, hub]),
                         np.concatenate([hub, leaves]))
        seeds = np.arange(n)
        b1 = sample_neighbors(adj, seeds, 1, np.random.default_rng(16))
        assert widths[0] == 65          # the selection sort fell back
        b2 = sample_neighbors_reference(adj, seeds, 1,
                                        np.random.default_rng(16))
        _assert_blocks_equal(b1, b2)


class TestBlockInvariants:
    def test_dst_ids_prefix_of_src_ids(self, graph):
        blocks = build_blocks(graph, np.arange(12), [3, 3],
                              np.random.default_rng(1))
        for b in blocks:
            assert np.array_equal(b.dst_ids, b.src_ids[: b.num_dst])

    def test_local_csr_shape(self, graph):
        b = sample_neighbors(graph, np.arange(15), 4,
                             np.random.default_rng(3))
        assert b.adj.shape == (b.num_dst, b.num_src)

    def test_per_seed_degree_bounded_by_fanout(self, graph):
        b = sample_neighbors(graph, np.arange(30), 6,
                             np.random.default_rng(4))
        assert np.diff(b.adj.indptr).max() <= 6

    def test_frontier_sources_sorted_after_seeds(self, graph):
        b = sample_neighbors(graph, np.array([9, 2, 41]), 5,
                             np.random.default_rng(7))
        frontier = b.src_ids[b.num_dst:]
        assert np.all(np.diff(frontier) > 0)  # ascending, unique
        assert not np.isin(frontier, b.dst_ids).any()


class TestMinibatchesOrderAndDropLast:
    def test_in_order_without_rng(self):
        """Regression: the docstring used to promise shuffling even when no
        rng was given; without an rng, batches come in the given order."""
        ids = np.arange(10)
        batches = list(minibatches(ids, 4))
        assert np.array_equal(batches[0], [0, 1, 2, 3])
        assert np.array_equal(batches[1], [4, 5, 6, 7])
        assert np.array_equal(batches[2], [8, 9])

    def test_drop_last(self):
        ids = np.arange(10)
        batches = list(minibatches(ids, 4, drop_last=True))
        assert len(batches) == 2
        assert all(len(b) == 4 for b in batches)

    def test_drop_last_with_shuffle_keeps_full_batches(self):
        ids = np.arange(21)
        batches = list(minibatches(ids, 5, rng=np.random.default_rng(0),
                                   drop_last=True))
        assert len(batches) == 4
        assert all(len(b) == 5 for b in batches)
        # the dropped vertex is whatever the shuffle put last
        assert len(np.unique(np.concatenate(batches))) == 20


class TestBlockLoader:
    def _collect(self, graph, prefetch, seed=8):
        from repro.minidgl.sampling import BlockLoader

        loader = BlockLoader(graph, np.arange(60), 16, [3, 3],
                             rng=np.random.default_rng(seed),
                             prefetch=prefetch)
        out = list(loader)
        return loader, out

    def _assert_runs_equal(self, run1, run2):
        assert len(run1) == len(run2)
        for (s1, bl1), (s2, bl2) in zip(run1, run2):
            assert np.array_equal(s1, s2)
            for b1, b2 in zip(bl1, bl2):
                assert np.array_equal(b1.src_ids, b2.src_ids)
                assert np.array_equal(b1.adj.indptr, b2.adj.indptr)
                assert np.array_equal(b1.adj.indices, b2.adj.indices)

    def test_prefetch_matches_synchronous(self, graph):
        _, sync = self._collect(graph, prefetch=0)
        _, pre = self._collect(graph, prefetch=3)
        self._assert_runs_equal(sync, pre)

    def test_epochs_differ_but_runs_reproduce(self, graph):
        from repro.minidgl.sampling import BlockLoader

        def two_epochs(seed):
            loader = BlockLoader(graph, np.arange(60), 16, [3, 3],
                                 rng=np.random.default_rng(seed), prefetch=2)
            return list(loader), list(loader)

        e1a, e2a = two_epochs(9)
        e1b, e2b = two_epochs(9)
        self._assert_runs_equal(e1a, e1b)  # same seed -> same run
        self._assert_runs_equal(e2a, e2b)
        # successive epochs reshuffle (first batches differ)
        assert not np.array_equal(e1a[0][0], e2a[0][0])

    def test_constructor_validation(self):
        from repro.minidgl.sampling import BlockLoader

        with pytest.raises(ValueError):
            BlockLoader(None, np.arange(4), 0, [2])  # bad batch_size
        with pytest.raises(ValueError):
            BlockLoader(None, np.arange(4), 2, [])  # no fanouts

    def test_sampling_error_raised_in_consumer(self, graph):
        from repro.minidgl.sampling import BlockLoader

        loader = BlockLoader(graph, np.array([1, 1, 2, 3]), 4, [2],
                             rng=np.random.default_rng(0), prefetch=2,
                             shuffle=False)
        with pytest.raises(ValueError):  # duplicate seeds surface here
            list(loader)

    def test_early_break_does_not_deadlock(self, graph):
        from repro.minidgl.sampling import BlockLoader

        loader = BlockLoader(graph, np.arange(100), 10, [3],
                             rng=np.random.default_rng(1), prefetch=1)
        for i, _ in enumerate(loader):
            if i == 1:
                break
        # a second full iteration still works after the abandoned one
        assert len(list(loader)) == 10

    def test_len(self, graph):
        from repro.minidgl.sampling import BlockLoader

        assert len(BlockLoader(graph, np.arange(10), 4, [2])) == 3
        assert len(BlockLoader(graph, np.arange(10), 4, [2],
                               drop_last=True)) == 2

    def test_timing_counters_populate(self, graph):
        loader, out = self._collect(graph, prefetch=2)
        assert loader.batches_produced == len(out) == 4
        assert loader.sample_seconds > 0
        assert loader.wait_seconds >= 0


class TestBlockLoaderShutdown:
    """Regression (PR-10): the producer's terminal ``end``/``error`` puts
    must be stop-aware.  Pre-fix, a consumer that left the loop mid-epoch
    with the queue full stranded the producer forever in
    ``out.put(("end", None))`` -- a leaked thread, and a consumer deadlock
    once the generator's ``finally`` joins the producer.  Closing the
    iterator joins the producer, so nothing samples after ``close()``.
    """

    def _make_loader(self, graph):
        from repro.minidgl.sampling import BlockLoader

        # exactly 2 batches with prefetch=1: after the consumer takes batch
        # 1, the producer re-fills the depth-1 queue with batch 2 and its
        # next put is the terminal "end" -- the pre-fix hang site
        return BlockLoader(graph, np.arange(20), 10, [3],
                           rng=np.random.default_rng(1), prefetch=1,
                           shuffle=False)

    def _wait_until_end_put(self, loader, timeout=5.0):
        """Block until the producer has sampled every batch (its next queue
        offer is the terminal put)."""
        deadline = time.time() + timeout
        while loader.batches_produced < 2:
            assert time.time() < deadline, "producer never reached batch 2"
            time.sleep(0.005)
        time.sleep(0.05)  # let it advance from sampling to the put itself

    def _no_producer_threads(self, timeout=5.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if not [t for t in threading.enumerate()
                    if t.name == "repro-block-loader"]:
                return True
            time.sleep(0.01)
        return False

    def test_early_break_releases_thread_producer(self, graph):
        assert self._no_producer_threads(), "stale producers from other tests"
        loader = self._make_loader(graph)
        it = iter(loader)
        next(it)
        self._wait_until_end_put(loader)
        it.close()  # abandon the epoch with the queue full
        assert self._no_producer_threads(), \
            "producer thread still blocked on its terminal put"

    def test_close_joins_the_producer(self, graph, monkeypatch):
        """Right after ``close()`` -- no polling -- the producer is gone and
        sampling has stopped, so the next epoch is the only thread drawing
        from the loader's ``rng``.  Slowed sampling keeps the producer
        mid-sample when the consumer closes."""
        from repro.minidgl import sampling
        from repro.minidgl.sampling import BlockLoader

        real = sampling.build_blocks

        def slow_build_blocks(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampling, "build_blocks", slow_build_blocks)
        assert self._no_producer_threads(), "stale producers from other tests"
        loader = BlockLoader(graph, np.arange(100), 5, [3],
                             rng=np.random.default_rng(2), prefetch=16)
        it = iter(loader)
        next(it)
        closer = threading.Thread(target=it.close)
        closer.start()
        closer.join(10.0)
        assert not closer.is_alive(), "close() never joined the producer"
        assert not [t for t in threading.enumerate()
                    if t.name == "repro-block-loader"]
        produced = loader.batches_produced
        time.sleep(0.2)
        assert loader.batches_produced == produced


class TestEmptyIdsContract:
    """Empty ``ids`` are a no-op epoch: ``__len__`` is 0 and iteration
    yields nothing, for both ``drop_last`` values and all producer modes
    (pinned by PR-10 alongside the serving layer, which feeds arbitrary
    request-derived id sets to the loaders)."""

    @pytest.mark.parametrize("drop_last", [False, True])
    def test_minibatches_yield_nothing(self, drop_last):
        empty = np.array([], dtype=np.int64)
        assert list(minibatches(empty, 4, drop_last=drop_last)) == []
        assert list(minibatches(empty, 4, rng=np.random.default_rng(0),
                                drop_last=drop_last)) == []

    @pytest.mark.parametrize("drop_last", [False, True])
    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_loader_len_agrees_with_iteration(self, graph, drop_last,
                                              prefetch):
        from repro.minidgl.sampling import BlockLoader

        loader = BlockLoader(graph, np.array([], dtype=np.int64), 4, [2],
                             rng=np.random.default_rng(0), prefetch=prefetch,
                             drop_last=drop_last)
        assert len(loader) == 0
        assert list(loader) == []


#: the fanout ``infer_minibatch`` and the serving layer use for full
#: neighbourhoods
FULL = 1 << 30


def _sage_two_batches():
    """Two batches drawn from one shared rng, fanouts (10, 10)."""
    ds = planted_partition(n=1500, num_classes=4, feature_dim=4,
                           avg_degree=24, seed=3)
    rng = np.random.default_rng(7)
    order = rng.permutation(ds.num_vertices)
    return [build_blocks(ds.adj, order[lo:lo + 96], [10, 10], rng)
            for lo in (0, 96)]


def _full_neighbourhood():
    ds = planted_partition(n=1500, num_classes=4, feature_dim=4,
                           avg_degree=24, seed=3)
    seeds = np.unique(np.random.default_rng(8).choice(1500, 64,
                                                      replace=False))
    return [build_blocks(ds.adj, seeds, [FULL, FULL],
                         np.random.default_rng(0))]


def _multigraph():
    """Sources drawn from 12 vertices: most (dst, src) pairs repeat."""
    r = np.random.default_rng(9)
    adj = from_edges(40, 40, r.integers(0, 12, 900), r.integers(0, 40, 900))
    rng = np.random.default_rng(10)
    return [build_blocks(adj, np.array([5, 31, 0, 17, 22]), fanouts, rng)
            for fanouts in ([4, 6], [FULL, 3], [FULL, FULL])]


def _unsorted_rows():
    """A hand-built CSR whose rows are neither column-sorted nor
    duplicate-free, with one empty row."""
    r = np.random.default_rng(11)
    n = 60
    deg = r.integers(0, 25, n)
    deg[13] = 0
    indptr = np.concatenate(([0], np.cumsum(deg)))
    adj = CSRMatrix((n, n), indptr, r.integers(0, n, int(indptr[-1])))
    rng = np.random.default_rng(12)
    return [build_blocks(adj, np.array([13, 2, 59, 40, 7, 33]), fanouts, rng)
            for fanouts in ([5, 5], [FULL, 8], [FULL, FULL])]


class TestPinnedBlocks:
    """Every block array of fixed ``build_blocks`` runs, hashed.  Recorded
    when both of the sampler's sorts were ``np.argsort(kind="stable")``;
    a change to how the sampler sorts must not move a bit.  Integers drawn
    from PCG64 are the same on every machine, so the digests are too."""

    DIGESTS = {
        "sage_two_batches": "292514056380e7e74d742ffda8313e50d9f2b970",
        "full_neighbourhood": "82867a31777510b2a22df9e0dd80de93b4518a0c",
        "multigraph": "3323b0682666d14010f1686845c9cca3fbea71b0",
        "unsorted_rows": "33ab87c4e9f3e79f54fd2bd44d057f91e75ecd20",
    }
    RUNS = {"sage_two_batches": _sage_two_batches,
            "full_neighbourhood": _full_neighbourhood,
            "multigraph": _multigraph,
            "unsorted_rows": _unsorted_rows}

    @staticmethod
    def _digest(runs) -> str:
        h = hashlib.sha1()
        for blocks in runs:
            for b in blocks:
                for arr in (b.adj.indptr, b.adj.indices, b.adj.edge_ids,
                            b.src_ids, b.dst_ids):
                    h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_blocks_match_the_recorded_digest(self, case):
        assert self._digest(self.RUNS[case]()) == self.DIGESTS[case]
