"""Serving-layer coverage: correctness of scattered logits, micro-batch
coalescing of duplicate seeds, dispatch without waiting, deadlines, admission
control, graceful shutdown, counter consistency under concurrent clients,
seeded interleavings, and the zero-recompile steady state."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.compile import KernelCache, use_kernel_cache
from repro.graph.datasets import planted_partition
from repro.graph.sparse import CSRMatrix
from repro.minidgl.autograd import Tensor
from repro.minidgl.backends import get_backend
from repro.minidgl.models import GAT, GCN
from repro.minidgl.train import infer_minibatch
from repro.serve import (
    DeadlineExceeded,
    InferenceService,
    Overloaded,
    ServeFuture,
    ServiceClosed,
)

#: topology-independent pipeline passes that must never re-run once the
#: serving templates are warm (same ledger as tests/core/test_block_kernel_reuse)
EXPENSIVE_PASSES = ("build_expr", "fuse_fds", "lower", "validate",
                    "analyze", "simplify", "vectorize", "codegen")


@pytest.fixture(scope="module")
def dataset():
    return planted_partition(n=300, num_classes=4, feature_dim=16,
                             avg_degree=10, seed=0)


@pytest.fixture()
def model():
    return GCN(16, 4, hidden=8, dropout=0.0, seed=0)


@pytest.fixture()
def backend():
    return get_backend("featgraph")


def _service(model, dataset, backend, **kw):
    kw.setdefault("batch_window_ms", 0.0)
    return InferenceService(model, dataset, backend, **kw)


class TestCorrectness:
    def test_matches_infer_minibatch(self, model, dataset, backend):
        """Full-neighborhood serving returns exactly what the offline
        harness computes, rows in request order."""
        ids = np.array([5, 3, 9, 120])
        want, _ = infer_minibatch(model, dataset, backend, ids)
        with _service(model, dataset, backend) as svc:
            got, stats = svc.infer(ids)
        assert np.allclose(got, want, atol=1e-5)
        assert stats.batch_seeds == 4

    def test_single_seed_scalar_request(self, model, dataset, backend):
        want, _ = infer_minibatch(model, dataset, backend, np.array([42]))
        with _service(model, dataset, backend) as svc:
            got, _ = svc.infer(42)
        assert got.shape == (1, 4)
        assert np.allclose(got, want, atol=1e-5)

    def test_duplicate_seeds_within_request(self, model, dataset, backend):
        with _service(model, dataset, backend) as svc:
            got, stats = svc.infer(np.array([7, 7, 11]))
        assert got.shape == (3, 4)
        assert np.array_equal(got[0], got[1])
        assert stats.batch_seeds == 2  # deduplicated block

    def test_empty_seed_request(self, model, dataset, backend):
        with _service(model, dataset, backend) as svc:
            got, stats = svc.infer(np.array([], dtype=np.int64))
        assert got.shape == (0, 4)
        assert stats.batch_seeds == 0


class TestMicroBatching:
    def test_duplicate_seeds_across_concurrent_requests(self, model, dataset,
                                                        backend):
        """Concurrent requests sharing seeds coalesce into one deduplicated
        batch, and each still receives its own correctly-ordered logits."""
        want, _ = infer_minibatch(model, dataset, backend,
                                  np.array([1, 2, 3]))
        svc = _service(model, dataset, backend, batch_window_ms=100.0,
                       start=False)
        f1 = svc.submit(np.array([1, 2, 3]))
        f2 = svc.submit(np.array([3, 1]))
        f3 = svc.submit(2)
        svc.start()
        try:
            r1 = f1.result(10.0)
            r2 = f2.result(10.0)
            r3 = f3.result(10.0)
        finally:
            svc.close()
        assert np.allclose(r1, want, atol=1e-5)
        assert np.allclose(r2, want[[2, 0]], atol=1e-5)
        assert np.allclose(r3, want[[1]], atol=1e-5)
        # all three rode one batch over the 3 unique seeds
        for fut in (f1, f2, f3):
            assert fut.stats().batch_requests == 3
            assert fut.stats().batch_seeds == 3
        assert svc.stats()["batches"] == 1

    def test_max_batch_seeds_splits_batches(self, model, dataset, backend):
        svc = _service(model, dataset, backend, batch_window_ms=100.0,
                       max_batch_seeds=4, start=False)
        futs = [svc.submit(np.array([i, i + 50, i + 100])) for i in range(3)]
        svc.start()
        try:
            for f in futs:
                f.result(10.0)
        finally:
            svc.close()
        # 3 seeds per request, cap 4 -> one request per batch
        assert svc.stats()["batches"] == 3
        assert all(f.stats().batch_requests == 1 for f in futs)

    def test_occupancy_and_stats_fields(self, model, dataset, backend):
        with _service(model, dataset, backend, max_batch_seeds=8) as svc:
            _, stats = svc.infer(np.array([4, 9]))
        assert stats.occupancy == pytest.approx(2 / 8)
        assert stats.queue_seconds >= 0
        assert stats.sample_seconds > 0
        assert stats.compute_seconds > 0
        assert stats.total_seconds >= stats.compute_seconds
        assert np.isnan(stats.cache_hit_rate)  # no cache configured


class TestDispatch:
    """On an empty queue the batcher dispatches at once, whatever
    ``batch_window_ms`` says."""

    @pytest.mark.parametrize("window_ms", [0.0, 100.0])
    def test_sparse_stream_never_waits_out_the_window(self, window_ms, model,
                                                      dataset, backend):
        """Two requests 20 ms apart: each runs alone as soon as it is
        queued."""
        with _service(model, dataset, backend) as warm:
            warm.infer(1)  # compile outside the measured service
        with _service(model, dataset, backend,
                      batch_window_ms=window_ms) as svc:
            first = svc.submit(1)
            first.result(10.0)
            time.sleep(0.02)
            second = svc.submit(2)
            second.result(10.0)
            stats = svc.stats()
        for fut in (first, second):
            assert fut.stats().batch_requests == 1
            assert fut.stats().queue_seconds < 0.05
        assert stats["batches"] == 2
        assert stats["batch_window_ms"] == window_ms


class TestDeadlines:
    def test_expired_request_gets_timely_error(self, model, dataset, backend):
        """A request whose deadline passes while it waits is failed with
        DeadlineExceeded when its batch forms -- promptly, not at the end
        of the queue's natural drain."""
        svc = _service(model, dataset, backend, start=False)
        try:
            t0 = time.perf_counter()
            fut = svc.submit(np.array([3]), deadline_s=1e-4)
            time.sleep(2e-3)  # the deadline passes while it is queued
            svc.start()
            with pytest.raises(DeadlineExceeded):
                fut.result(10.0)
            assert time.perf_counter() - t0 < 2.0
            assert svc.stats()["expired"] == 1
            # the failure still carries queue accounting
            assert fut.stats().compute_seconds == 0.0
            assert fut.stats().queue_seconds > 1e-4
        finally:
            svc.close()

    def test_expired_request_does_not_poison_batchmates(self, model, dataset,
                                                        backend):
        svc = _service(model, dataset, backend, batch_window_ms=100.0,
                       start=False)
        ok = svc.submit(np.array([1, 2]))
        doomed = svc.submit(np.array([5]), deadline_s=1e-4)
        time.sleep(2e-3)  # the deadline passes while it is queued
        svc.start()
        try:
            got = ok.result(10.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(10.0)
        finally:
            svc.close()
        want, _ = infer_minibatch(model, dataset, backend, np.array([1, 2]))
        assert np.allclose(got, want, atol=1e-5)
        assert ok.stats().batch_requests == 1  # the expired one dropped out

    def test_generous_deadline_is_met(self, model, dataset, backend):
        with _service(model, dataset, backend) as svc:
            got, _ = svc.infer(np.array([8]), deadline_s=30.0)
        assert got.shape == (1, 4)


class TestAdmissionControl:
    def test_rejects_beyond_queue_depth(self, model, dataset, backend):
        svc = _service(model, dataset, backend, max_queue_depth=3,
                       start=False)
        futs = [svc.submit(np.array([i])) for i in range(3)]
        with pytest.raises(Overloaded):
            svc.submit(np.array([99]))
        assert svc.stats()["rejected"] == 1
        # accepted requests still complete once the batcher runs
        svc.start()
        try:
            for f in futs:
                assert f.result(10.0).shape == (1, 4)
        finally:
            svc.close()
        assert svc.stats()["served"] == 3

    def test_saturation_then_recovery(self, model, dataset, backend):
        """After the queue drains, admission opens again."""
        svc = _service(model, dataset, backend, max_queue_depth=2,
                       start=False)
        svc.submit(np.array([0]))
        svc.submit(np.array([1]))
        with pytest.raises(Overloaded):
            svc.submit(np.array([2]))
        svc.start()
        try:
            got, _ = svc.infer(np.array([2]), timeout=10.0)
        finally:
            svc.close()
        assert got.shape == (1, 4)


class _OneShortBatch(GCN):
    """A GCN whose first batch returns one logit row too few."""

    short_batches = 1

    def forward_blocks(self, blocks, x, backend):
        out = super().forward_blocks(blocks, x, backend)
        if self.short_batches:
            self.short_batches -= 1
            return Tensor(out.numpy()[:-1])
        return out


class TestBadInputIsolation:
    def test_out_of_range_seeds_are_rejected_at_submit(self, model, dataset,
                                                       backend):
        """A seed outside ``[0, num_vertices)`` raises at ``submit``; it
        never reaches a batch, so its would-be batchmates are served."""
        svc = _service(model, dataset, backend, start=False)
        ok = svc.submit(np.array([1, 2]))
        for bad in (np.array([-1]), np.array([300]), np.array([4, 300])):
            with pytest.raises(ValueError, match="seed ids"):
                svc.submit(bad)
        svc.start()
        try:
            got = ok.result(10.0)
        finally:
            svc.close()
        want, _ = infer_minibatch(model, dataset, backend, np.array([1, 2]))
        assert np.allclose(got, want, atol=1e-5)
        stats = svc.stats()
        assert stats["accepted"] == 1 and stats["served"] == 1

    def test_a_bad_model_output_fails_only_its_batch(self, dataset,
                                                     backend):
        """A forward that returns the wrong number of rows fails its own
        batch's futures with ``ValueError``; the batcher survives and
        serves the next request."""
        model = _OneShortBatch(16, 4, hidden=8, dropout=0.0, seed=0)
        svc = _service(model, dataset, backend, start=False)
        doomed = [svc.submit(np.array([1, 2])), svc.submit(np.array([7]))]
        svc.start()
        try:
            for fut in doomed:
                with pytest.raises(ValueError, match="logit rows"):
                    fut.result(10.0)
            got, _ = svc.infer(np.array([3]), timeout=10.0)
            assert svc._thread.is_alive()
        finally:
            svc.close()
        want, _ = infer_minibatch(model, dataset, backend, np.array([3]))
        assert np.allclose(got, want, atol=1e-5)

    def test_a_failed_batch_is_counted(self, dataset, backend):
        """A request whose batch crashed counts as ``failed``, so
        ``served + expired + cancelled + failed == accepted`` still holds
        after it."""
        model = _OneShortBatch(16, 4, hidden=8, dropout=0.0, seed=0)
        with _service(model, dataset, backend) as svc:
            with pytest.raises(ValueError, match="logit rows"):
                svc.infer(np.array([1, 2]), timeout=10.0)
            svc.infer(np.array([3]), timeout=10.0)
            stats = svc.stats()
        assert (stats["accepted"], stats["served"], stats["failed"]) == \
            (2, 1, 1)
        assert stats["expired"] == stats["cancelled"] == 0


class TestGATZeroInDegreeSeed:
    """GAT behind the service, on a graph where a requested seed has no
    in-edge: its block row is empty, which the native softmax-aggregate
    must keep away from ``reduceat`` (an empty last segment raises, an
    inner one returns a neighbour's value)."""

    ISOLATED = 299          # the largest id: the last row of every block

    @pytest.fixture()
    def no_in_edges(self, dataset):
        adj, v = dataset.adj, self.ISOLATED
        keep = np.ones(adj.nnz, dtype=bool)
        keep[adj.indptr[v]:adj.indptr[v + 1]] = False
        deg = np.diff(adj.indptr)
        deg[v] = 0
        indptr = np.concatenate([[0], np.cumsum(deg)])
        return dataclasses.replace(dataset, adj=CSRMatrix(
            adj.shape, indptr, adj.indices[keep]))

    def test_logits_match_the_offline_harness(self, no_in_edges, backend):
        ds = no_in_edges
        assert ds.adj.indptr[self.ISOLATED] == ds.adj.indptr[-1]
        model = GAT(16, 4, hidden=8, num_heads=2, dropout=0.0, seed=0)
        requests = [np.array([self.ISOLATED]),
                    np.array([4, self.ISOLATED, 17]),
                    np.array([8, 4])]
        svc = _service(model, ds, backend, start=False)
        futs = [svc.submit(seeds) for seeds in requests]
        svc.start()
        try:
            got = [fut.result(10.0) for fut in futs]
        finally:
            svc.close()
        assert svc.stats()["batches"] == 1
        for seeds, logits in zip(requests, got):
            want, _ = infer_minibatch(model, ds, backend, seeds)
            assert np.all(np.isfinite(logits))
            assert np.allclose(logits, want, atol=1e-5)


class TestShutdown:
    def test_close_drains_queued_requests(self, model, dataset, backend):
        svc = _service(model, dataset, backend, start=False)
        futs = [svc.submit(np.array([i, i + 10])) for i in range(5)]
        svc.start()
        svc.close(drain=True)
        for f in futs:
            assert f.result(0.0).shape == (2, 4)  # already resolved
        assert svc.stats()["served"] == 5

    def test_close_without_drain_cancels(self, model, dataset, backend):
        svc = _service(model, dataset, backend, start=False)
        futs = [svc.submit(np.array([i])) for i in range(3)]
        svc.close(drain=False)
        for f in futs:
            with pytest.raises(ServiceClosed):
                f.result(0.0)
        assert svc.stats()["cancelled"] == 3

    def test_submit_after_close_rejected(self, model, dataset, backend):
        svc = _service(model, dataset, backend)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(np.array([1]))


class TestCounters:
    def test_mixed_empty_and_real_requests_lose_no_update(self, model,
                                                         dataset, backend):
        """Empty requests are counted on the client threads, real ones on
        the batcher: under a short switch interval no ``+=`` is lost."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _service(model, dataset, backend,
                          max_queue_depth=256) as svc:
                def client(cid):
                    for i in range(40):
                        seeds = (np.array([], dtype=np.int64) if i % 2
                                 else np.array([cid * 40 + i]))
                        svc.infer(seeds, timeout=30.0)

                threads = [threading.Thread(target=client, args=(c,))
                           for c in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = svc.stats()
        assert stats["accepted"] == 240
        assert stats["served"] == stats["accepted"]

    def test_a_batch_is_counted_before_its_futures_resolve(self, model,
                                                           dataset, backend):
        with _service(model, dataset, backend) as svc:
            for i in range(20):
                svc.infer(np.array([i]), timeout=10.0)
                stats = svc.stats()
                assert stats["served"] == i + 1
                assert stats["batches"] == i + 1


class TestSeededInterleavings:
    """A seeded schedule of submits (1-3 seeds, duplicates), already-due
    deadlines, sparse and burst arrivals and a final drain or cancel: every
    future settles exactly once, the counters add up, answers match the
    offline harness and no batcher thread outlives ``close``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_schedule(self, seed, model, dataset, backend, monkeypatch):
        settled: dict[int, int] = {}

        def counting(method):
            def wrapped(fut, *args, **kwargs):
                settled[id(fut)] = settled.get(id(fut), 0) + 1
                return method(fut, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(ServeFuture, "_resolve",
                            counting(ServeFuture._resolve))
        monkeypatch.setattr(ServeFuture, "_fail",
                            counting(ServeFuture._fail))
        want, _ = infer_minibatch(model, dataset, backend, np.arange(300))
        rng = np.random.default_rng(seed)
        svc = _service(model, dataset, backend,
                       max_batch_seeds=int(rng.choice([4, 64])),
                       max_queue_depth=int(rng.choice([6, 64])))
        futs, doomed, rejected = [], set(), 0
        for _ in range(60):
            seeds = rng.integers(0, 300, size=int(rng.integers(1, 4)))
            if rng.random() < 0.2:
                seeds[-1] = seeds[0]                     # a duplicate
            due_now = rng.random() < 0.15
            try:
                fut = svc.submit(seeds,
                                 deadline_s=0.0 if due_now else None)
            except Overloaded:
                rejected += 1
                continue
            futs.append(fut)
            if due_now:
                doomed.add(id(fut))
            if rng.random() < 0.4:                       # sparse, else burst
                time.sleep(float(rng.uniform(1e-3, 5e-3)))
        drain = bool(rng.integers(2))
        svc.close(drain=drain, timeout=30.0)

        assert not svc._thread.is_alive()
        assert not any(t.name == "repro-serve-batcher" and t.is_alive()
                       for t in threading.enumerate())
        stats = svc.stats()
        assert stats["rejected"] == rejected
        assert stats["accepted"] == len(futs)
        assert (stats["served"] + stats["expired"] + stats["cancelled"]
                + stats["failed"] == stats["accepted"])
        served = 0
        for fut in futs:
            assert fut.done()
            assert settled[id(fut)] == 1
            try:
                got = fut.result(0.0)
            except DeadlineExceeded:
                assert id(fut) in doomed
            except ServiceClosed:
                assert not drain
            else:
                assert id(fut) not in doomed
                assert np.allclose(got, want[fut.seeds], atol=1e-5)
                served += 1
        assert served == stats["served"]


class TestFeatureCacheIntegration:
    def test_repeat_requests_hit_the_cache(self, model, dataset, backend):
        with _service(model, dataset, backend,
                      feature_cache_bytes=1 << 20) as svc:
            ids = np.array([5, 3, 9])
            first, s1 = svc.infer(ids)
            second, s2 = svc.infer(ids)
        assert np.allclose(first, second)
        assert s1.cache_hit_rate == 0.0
        assert s2.cache_hit_rate == 1.0  # identical frontier, fully pinned
        cache = svc.stats()["cache"]
        assert cache["hits"] > 0 and cache["misses"] > 0

    def test_cached_logits_match_uncached(self, model, dataset, backend):
        ids = np.arange(0, 40, 3)
        with _service(model, dataset, backend) as plain:
            want, _ = plain.infer(ids)
        # a tiny budget forces eviction churn; results must be identical
        with _service(model, dataset, backend,
                      feature_cache_bytes=8 * 16 * 4) as svc:
            for _ in range(3):
                got, _ = svc.infer(ids)
                assert np.allclose(got, want, atol=1e-6)


class TestZeroRecompileSteadyState:
    def test_100_served_batches_are_pure_binds(self, dataset, backend):
        """THE serving acceptance check: after a one-batch warmup, 100
        served batches (fresh sampled topologies every time) re-run no
        expensive compile pass and add no pipeline runs.  GCN's only
        sparse op is the copy-u sum, one native call, so steady-state
        serving does not even bind a template."""
        model = GCN(16, 4, hidden=8, dropout=0.0, seed=0)
        rng = np.random.default_rng(7)
        with use_kernel_cache(KernelCache()) as cache:
            with _service(model, dataset, backend, fanouts=[3, 3],
                          rng=np.random.default_rng(1)) as svc:
                svc.infer(np.array([0, 1, 2, 3]))  # warmup
                frozen = dict(cache.stats()["pass_counts"])
                runs = cache.stats()["pipeline_runs"]
                binds_before = cache.stats()["binds"]
                for _ in range(100):
                    seeds = rng.choice(300, size=4, replace=False)
                    logits, _ = svc.infer(seeds)
                    assert logits.shape == (4, 4)
                stats = cache.stats()
                assert svc.stats()["batches"] == 101
            for p in EXPENSIVE_PASSES:
                assert stats["pass_counts"].get(p, 0) == frozen.get(p, 0), (
                    f"pass {p!r} re-ran during steady-state serving")
            assert stats["pipeline_runs"] == runs
            assert stats["binds"] == binds_before


class TestConcurrentClients:
    def test_closed_loop_clients_all_served_correctly(self, model, dataset,
                                                      backend):
        """8 closed-loop clients hammering the service: every response
        matches the offline reference for its seed."""
        want, _ = infer_minibatch(model, dataset, backend, np.arange(300))
        errors: list[BaseException] = []

        def client(cid):
            rng = np.random.default_rng(cid)
            try:
                for _ in range(10):
                    seed = int(rng.integers(0, 300))
                    got, _ = svc.infer(seed, timeout=30.0)
                    if not np.allclose(got[0], want[seed], atol=1e-4):
                        raise AssertionError(f"wrong logits for seed {seed}")
            except BaseException as exc:
                errors.append(exc)

        with _service(model, dataset, backend, batch_window_ms=2.0,
                      max_queue_depth=256,
                      feature_cache_bytes=1 << 20) as svc:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        assert not errors, errors[0]
        assert svc.stats()["served"] == 80
