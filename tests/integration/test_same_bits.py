"""Auto-selection lost its ``parallel`` branch (PR 22); FG007 classifies
``parallel`` bit-identical to ``reduceat``, so no output may have moved.

Two checks on the benchmark's shapes.  Machine-independent: wherever the
rule says ``reduceat``, substituting the pick a multi-worker process used
to get -- ``parallel`` on a 4-worker pool -- gives the same bits.  And
against values recorded on the 2-vCPU reference box, compared wherever
dense arithmetic rounds as it did there: the ``max``-sink digests at commit
``dbf2295`` (the last with that branch), the GAT losses re-recorded once
when GAT's attention backward moved onto the forward CSR (three weighted
SpMMs and transpose products instead of an SDDMM and reverse-graph SpMMs).
That backward is FG007 ``reassociated-fp`` against the old one: the losses
first differ in the last bit at epoch 2.

The GCN and GraphSage losses were recorded when the copy-u forward still
ran as a one-stage fused chain; it is now one native ``segment_sum`` call
and the values must not have moved.  Machine-independent: the default
route and the staged oracle (``use_fusion(False)``) divide a mean by the
same in-degree, so their losses, outputs and input gradients agree bit
for bit.  The GAT losses were recorded when GAT's softmax-aggregate
forward ran as a fused chain; it is now native calls with the same bits,
so they must not have moved either.
"""

import hashlib
import importlib

import numpy as np
import pytest

from repro.core import kernels
from repro.core.compile import KernelCache, use_kernel_cache
from repro.core.fusion import use_fusion
from repro.graph.datasets import load, planted_partition
from repro.minidgl.autograd import Tensor
from repro.minidgl.backends import FeatGraphDGLBackend
from repro.minidgl.graph import Graph
from repro.minidgl.models import GAT, GCN, GraphSage
from repro.minidgl.train import train_minibatch, train_model
from repro.runtime.strategies import ParallelStrategy
from repro.tensorir.runtime import WorkPool

#: ``_gat_losses()`` with the forward-CSR attention backward; recorded at
#: dbf2295: ``_digest(_mlp_output(f))`` and ``_gemm_digest()``
GAT_LOSSES = ["0x1.905f08p+1", "0x1.83f01cp+0", "0x1.1ab4ccp-1"]
#: ``_gcn_losses()`` and ``_sage_losses()``, recorded with the fused copy-u
#: chain
GCN_LOSSES = ["0x1.723af2p+1", "0x1.a6ce0ap+0", "0x1.a80014p-1"]
SAGE_LOSSES = ["0x1.48873645d1746p+0", "0x1.0882c022e8ba3p-2"]
MLP_DIGESTS = {
    32: "5af18e0ea8373072ff5788e2228151e379ae45546621d309e0df9c910941a1f6",
    64: "58c3064298fc0af047a7b438f0407d6fe1259b3aaf125399fb8fc1896987c309"}
GEMM_DIGEST = \
    "738f37d26b2da936c6c42cd6ae2be874184a08045fb64d7542b6d4d38830f69a"


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _gemm_digest() -> str:
    rng = np.random.default_rng(0)
    return _digest(rng.random((256, 128), dtype=np.float32)
                   @ rng.random((128, 64), dtype=np.float32))


def _gat_losses(fused: bool = True) -> list:
    """``train_gat_full``'s model and graph, three epochs; ``fused=False``
    runs the staged kernels."""
    ds = planted_partition(n=4000, num_classes=16, feature_dim=128,
                           avg_degree=40, seed=0)
    with use_kernel_cache(KernelCache()), use_fusion(fused):
        model = GAT(128, 16, hidden=64, num_heads=4, dropout=0.0, seed=0)
        return train_model(model, ds, FeatGraphDGLBackend("cpu"),
                           epochs=3).train_losses


def _gcn_losses() -> list:
    """``train_gcn_full``'s model and graph, three epochs."""
    ds = planted_partition(n=4000, num_classes=16, feature_dim=128,
                           avg_degree=40, seed=0)
    with use_kernel_cache(KernelCache()):
        model = GCN(128, 16, hidden=64, dropout=0.0, seed=0)
        return train_model(model, ds, FeatGraphDGLBackend("cpu"),
                           epochs=3).train_losses


def _sage_losses() -> list:
    """A small sampled GraphSage run, two epochs of 64-seed batches."""
    ds = planted_partition(n=1000, num_classes=4, feature_dim=16,
                           avg_degree=10, seed=0)
    with use_kernel_cache(KernelCache()):
        model = GraphSage(16, 4, hidden=16, dropout=0.0, seed=0)
        return train_minibatch(model, ds, FeatGraphDGLBackend("cpu"),
                               fanouts=[5, 5], batch_size=64, epochs=2,
                               seed=0, prefetch=0).train_losses


def _mlp_output(f: int) -> np.ndarray:
    """``kernels_reddit``'s ``max`` kernel at width ``f``."""
    adj = load("reddit", scale=1 / 2048, seed=0).adj
    n = adj.shape[0]
    rng = np.random.default_rng(f)
    with use_kernel_cache(KernelCache()):
        kernel = kernels.mlp_aggregation(adj, n, 8, f)
    return kernel.run({"XV": rng.random((n, 8), dtype=np.float32),
                       "W": rng.random((8, f), dtype=np.float32)})


@pytest.fixture(scope="module")
def gat_losses():
    return _gat_losses()


@pytest.fixture(scope="module")
def staged_gat_losses():
    return _gat_losses(fused=False)


@pytest.fixture
def parents_pick(monkeypatch):
    """Every default ``reduceat`` pick becomes ``parallel`` on a 4-worker
    pool; yields the substituted sinks' reducer names."""
    # by import_module: the attribute ``repro.core.spmm`` is the builder
    # function, which shadows the module of that name
    lowering = importlib.import_module("repro.core.spmm")
    real = lowering.resolve_sink_strategy
    substituted = []
    with WorkPool(4) as pool:
        def pick(requested, reducer_name, *args, **kwargs):
            strategy = real(requested, reducer_name, *args, **kwargs)
            if requested is None and strategy.name == "reduceat":
                substituted.append(reducer_name)
                return ParallelStrategy(pool)
            return strategy

        monkeypatch.setattr(lowering, "resolve_sink_strategy", pick)
        yield substituted


def test_gat_losses_do_not_depend_on_the_max_sinks_pick(staged_gat_losses,
                                                        parents_pick):
    """GAT's default route is native calls and takes no pick; the staged
    ``EdgeSoftmax``'s max sink does."""
    assert _gat_losses(fused=False) == staged_gat_losses
    assert set(parents_pick) == {"max"}


def test_narrow_mlp_aggregation_does_not_depend_on_the_pick(parents_pick):
    """Eight wide on the 4 000 x 40 graph: the one benchmark-shaped kernel
    whose default pick was ``parallel``."""
    adj = planted_partition(n=4000, num_classes=16, feature_dim=4,
                            avg_degree=40, seed=0).adj
    rng = np.random.default_rng(8)
    bindings = {"XV": rng.random((4000, 8), dtype=np.float32),
                "W": rng.random((8, 8), dtype=np.float32)}
    with use_kernel_cache(KernelCache()):
        kernel = kernels.mlp_aggregation(adj, 4000, 8, 8)
    sharded = kernel.run(bindings)
    assert set(parents_pick) == {"max"}
    kernel.agg_strategy = "reduceat"
    assert np.array_equal(sharded, kernel.run(bindings))


def test_bits_recorded_at_the_parent(gat_losses):
    if _gemm_digest() != GEMM_DIGEST:
        pytest.skip("float32 GEMMs round differently here than on the box "
                    "the values were recorded on")
    assert gat_losses == [float.fromhex(h) for h in GAT_LOSSES]
    assert _gcn_losses() == [float.fromhex(h) for h in GCN_LOSSES]
    assert _sage_losses() == [float.fromhex(h) for h in SAGE_LOSSES]
    for f, digest in MLP_DIGESTS.items():
        assert _digest(_mlp_output(f)) == digest


@pytest.mark.parametrize("model_cls", [GCN, GraphSage],
                         ids=lambda c: c.__name__)
def test_default_route_and_staged_oracle_agree_bit_for_bit(model_cls):
    ds = planted_partition(n=300, num_classes=4, feature_dim=16,
                           avg_degree=10, seed=0)

    def run(fused):
        with use_kernel_cache(KernelCache()), use_fusion(fused):
            backend = FeatGraphDGLBackend("cpu")
            model = model_cls(16, 4, hidden=16, dropout=0.0, seed=0)
            x = Tensor(ds.features, requires_grad=True)
            out = model(Graph(ds.adj), x, backend)
            out.sum().backward()
            losses = train_model(model, ds, backend, epochs=3).train_losses
        return out.data, x.grad, losses

    (out, grad, losses), (out_s, grad_s, losses_s) = run(True), run(False)
    assert np.array_equal(out, out_s)
    assert np.array_equal(grad, grad_s)
    assert losses == losses_s
