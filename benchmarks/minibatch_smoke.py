"""CI smoke check for the mini-batch training path (PR-5).

Asserts the three properties the mini-batch engine promises:

1. **Topology-independent kernel reuse**: after the first batch has compiled
   the layer kernels (GAT's staged attention, ``use_fusion(False)``), every
   subsequent batch's fresh sampled blocks perform zero expression-building
   / FDS-fusion / lowering / vectorization work -- the pipeline pass
   counters stay frozen and kernels are served by cheap per-topology binds.
   A block's topology is seen once, and every ``Aᵀ`` of the backward runs
   on the block's forward CSR, so no block is ever transposed and no
   transpose product binds a kernel.  The default routes need no kernel at
   all: GraphSage's copy-u sums and GAT's softmax-aggregate are native
   calls, so their batches bind and compile nothing.
2. **Analyzer-clean block kernels**: every kernel the run left in the cache
   (including bound ones) passes the static analyzer with no error-severity
   diagnostics for its target.
3. **End-to-end training**: two epochs of ``train_minibatch`` on a synthetic
   planted-partition task run to completion with finite, decreasing loss.

Usage::

    PYTHONPATH=src python benchmarks/minibatch_smoke.py
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np

from repro.core.compile import KernelCache, use_kernel_cache
from repro.core.fusion import use_fusion
from repro.graph.datasets import planted_partition
from repro.graph.sparse import CSRMatrix
from repro.minidgl.autograd import Tensor
from repro.minidgl.backends import get_backend
from repro.minidgl.models import GAT, GraphSage
from repro.minidgl.sampling import BlockLoader
from repro.minidgl.train import cross_entropy, train_minibatch
from repro.tensorir.analysis import analyze_ir

#: the expensive topology-independent pipeline passes that must not re-run
#: once the first batch has populated the template cache
FRONT_AND_LOWER_PASSES = ("build_expr", "fuse_fds", "lower", "vectorize")

#: kernels a staged GAT layer binds per sampled block: the forward's
#: ``EdgeSoftmax`` phases (max, exp-sum, normalize) and ``u_mul_e_sum``'s
#: SpMM, and the backward's SDDMM (the attention weights' gradient); its
#: ``Aᵀ`` products are native ``scatter_sum`` calls and bind nothing
STAGED_GAT_BINDS_PER_BLOCK = 3 + 1 + 1


def _train_batches(model, ds, fanouts, cache):
    """One epoch of sampled training steps, forward and backward; returns
    the cache stats after the first batch and the number of batches."""
    backend = get_backend("featgraph")
    train_ids = np.nonzero(ds.train_mask)[0]
    transposed: list[tuple[int, int]] = []
    real_transpose = CSRMatrix.transpose

    def counting_transpose(self):
        transposed.append(self.shape)
        return real_transpose(self)

    loader = BlockLoader(ds.adj, train_ids, 64, fanouts,
                         rng=np.random.default_rng(0), prefetch=2)
    first = None          # cache.stats() once the first batch is done
    batches = 0
    with mock.patch.object(CSRMatrix, "transpose", counting_transpose):
        for seeds, blocks in loader:
            x = Tensor(blocks[0].gather_src_features(ds.features))
            logits = model.forward_blocks(blocks, x, backend)
            # backward too: it must bind no kernel of its own
            loss = cross_entropy(logits, ds.labels[seeds],
                                 np.ones(len(seeds), dtype=bool))
            loss.backward()
            batches += 1
            if first is None:
                first = cache.stats()
    assert batches > 1, "need multiple batches to exercise reuse"
    assert not transposed, (
        f"training transposed {len(transposed)} blocks over {batches} "
        f"batches, e.g. {transposed[:4]}")
    return first, batches


def check_kernel_reuse(ds, log=print):
    """GAT on the staged route, the one that still compiles and binds."""
    model = GAT(ds.features.shape[1], 4, hidden=8, num_heads=2, dropout=0.0,
                seed=1)
    fanouts = [5, 5]
    with use_kernel_cache(KernelCache()) as cache, use_fusion(False):
        first, batches = _train_batches(model, ds, fanouts, cache)
        s = cache.stats()
        per_batch = (s["binds"] - first["binds"]) / (batches - 1)
        expected = STAGED_GAT_BINDS_PER_BLOCK * len(fanouts)
        assert per_batch == expected, (
            f"{per_batch} binds per batch, expected "
            f"{STAGED_GAT_BINDS_PER_BLOCK} for each of the {len(fanouts)} "
            f"blocks and none for a transpose product")
        for p in FRONT_AND_LOWER_PASSES:
            before, after = (c["pass_counts"].get(p, 0) for c in (first, s))
            assert after == before, (
                f"pass {p!r} re-ran after the first batch: "
                f"{before} -> {after}")
        served = s["hits"] + s["binds"] + s["template_hits"]
        assert served > s["pipeline_runs"], (
            f"cache barely used: {served} served vs "
            f"{s['pipeline_runs']} pipeline runs")
        log(f"  reuse: {batches} batches, {s['pipeline_runs']} pipeline "
            f"runs, {s['binds']} binds ({per_batch:g} per batch), no "
            f"block transposed, pass_counts frozen after batch 1")

        # analyzer gate on everything the run compiled or bound
        checked = 0
        for spec in cache.entries():
            kernel = cache.peek(spec)
            report = analyze_ir(kernel.lowered_ir(), target=spec.target)
            assert not report.has_errors, (
                f"analyzer errors on {spec.template} kernel: "
                f"{[str(d) for d in report.errors]}")
            checked += 1
        assert checked > 0
        log(f"  analyzer: {checked} cached block kernels, no error-severity "
            f"diagnostics")


def check_native_routes(ds, log=print):
    """GraphSage and GAT on the default route: every copy-u sum and every
    softmax-aggregate is native calls, so their sampled batches bind and
    compile nothing."""
    models = {
        "graphsage": GraphSage(ds.features.shape[1], 4, hidden=16,
                               dropout=0.0, seed=1),
        "gat": GAT(ds.features.shape[1], 4, hidden=8, num_heads=2,
                   dropout=0.0, seed=1)}
    for name, model in models.items():
        with use_kernel_cache(KernelCache()) as cache:
            _, batches = _train_batches(model, ds, [5, 5], cache)
            s = cache.stats()
        made = s["binds"] + s["pipeline_runs"]
        assert made == 0, (
            f"{name} bound or compiled {made} kernels over {batches} batches")
        log(f"  {name}: {batches} batches, no kernel bound or compiled")


def check_training(ds, log=print):
    model = GraphSage(ds.features.shape[1], 4, hidden=16, dropout=0.0, seed=2)
    res = train_minibatch(model, ds, get_backend("featgraph"),
                          fanouts=[5, 5], batch_size=64, epochs=2,
                          lr=0.05, seed=3, prefetch=2)
    assert len(res.train_losses) == 2
    assert all(np.isfinite(loss) for loss in res.train_losses)
    assert res.train_losses[-1] < res.train_losses[0], (
        f"loss did not decrease: {res.train_losses}")
    assert np.isfinite(res.test_accuracy)
    log(f"  training: losses {['%.3f' % l for l in res.train_losses]}, "
        f"test acc {res.test_accuracy:.3f}")


def _dataset():
    # four batches of 64 seeds: staged GAT's first batch compiles its ten
    # kernels and each of the three after it rebinds all ten
    return planted_partition(n=300, num_classes=4, feature_dim=16,
                             avg_degree=10, seed=0)


def main():
    print("mini-batch smoke")
    ds = _dataset()
    check_kernel_reuse(ds)
    check_native_routes(ds)
    check_training(ds)
    print("  OK")
    return 0


# -- pytest entry point ------------------------------------------------------

def test_minibatch_smoke():
    ds = _dataset()
    check_kernel_reuse(ds, log=lambda *a: None)
    check_native_routes(ds, log=lambda *a: None)
    check_training(ds, log=lambda *a: None)


if __name__ == "__main__":
    sys.exit(main())
