"""The three training workloads: ``train_gcn_full``, ``train_gat_full`` and
``train_sage_minibatch``.

Untraced, the epochs come from the repository's own ``train_model`` /
``train_minibatch`` (their ``epoch_seconds``) and the passes from
``inference`` / ``infer_minibatch``.  Traced, the loops are replicas owned by
this file that call the same public pieces with a :class:`TimingProxy`
around the backend; a replica is only believed when its per-epoch losses are
bit-identical to the real loop's on the same seed and the compile cache saw
the same paths taken.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.perf import spec
from benchmarks.perf.common import (Outcome, backend_metrics,
                                    book_unattributed, close_to,
                                    compile_metrics, exec_metrics, peak_rss_mb,
                                    per_unit, role_timings, run_for,
                                    stretch_metrics)
from benchmarks.perf.trace import (END, START, CacheSeries, ExecStatsWalk,
                                   TimingProxy, Tracer, path_signature)
from repro.core.compile import get_kernel_cache
from repro.graph.datasets import planted_partition
from repro.minidgl.autograd import Tensor
from repro.minidgl.backends import FeatGraphDGLBackend, MinigunBackend
from repro.minidgl.graph import Graph
from repro.minidgl.models import GAT, GCN, GraphSage
from repro.minidgl.optim import Adam
from repro.minidgl.sampling import build_blocks, minibatches
from repro.minidgl.train import (cross_entropy, infer_minibatch, inference,
                                 train_minibatch, train_model)

# train_model's and train_minibatch's defaults, which the replicas repeat
LR, WEIGHT_DECAY = 1e-2, 5e-4
MIN_TEST_ACCURACY = 0.9
#: traced run: share of --seconds for the real loop, then for the replica
REAL_SHARE = 0.3


class _Training:
    """What the full-graph and the mini-batch workloads share; subclasses
    say how to build the model, train it, infer with it, and what one
    replica epoch calls."""

    name: str
    replica_share = 0.7

    def __init__(self, sizes: dict, seed: int):
        self.sizes, self.seed = sizes, seed
        t0 = time.perf_counter()
        self.ds = planted_partition(
            n=sizes["n"], num_classes=sizes["num_classes"],
            feature_dim=sizes["feature_dim"],
            avg_degree=sizes["avg_degree"], seed=seed)
        self.setup_parts = {"graph.build_s": time.perf_counter() - t0,
                            "graph.transpose_ms": 0.0}
        self.backend = FeatGraphDGLBackend("cpu")
        self.cache = get_kernel_cache()

    def close(self) -> None:
        pass

    def proxy(self, tracer: Tracer) -> TimingProxy:
        """The backend the traced loops call (the smoke test swaps in a
        proxy that hides primitives, to see it flagged)."""
        return TimingProxy(self.backend, tracer)

    def _warm_up(self) -> None:
        """The first, compiling, training call; its last epoch sizes the
        measured phases."""
        self.epoch_estimate = self.train(self.model(), 2).epoch_seconds[-1]
        self.setup_cache = self.cache.stats()

    def _epochs_for(self, seconds: float) -> int:
        return max(3, round(seconds / self.epoch_estimate))

    # -- untraced ----------------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        share_train, share_infer = (share / spec.ROUNDS
                                    for share in self.sizes["phase_shares"])
        self.trained = self.model()
        self.losses, epochs, passes = [], [], []

        def one_pass(_):
            self.logits, took = self.infer(self.trained, self.backend)
            return took

        def train(count: int) -> None:   # trains the same model further
            self.result = self.train(self.trained, count)
            self.losses += self.result.train_losses
            epochs.extend(self.result.epoch_seconds)

        # a first round of fixed size, so that every run reads its peak RSS
        # after the same work; its units count like any others
        t0 = time.perf_counter()
        first_epochs, first_passes = self.sizes["first_round"]
        train(first_epochs)
        passes += run_for(0.0, one_pass, minimum=first_passes)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        seconds -= time.perf_counter() - t0
        self.epoch_estimate = float(np.median(epochs))
        for _ in range(spec.ROUNDS):
            train(self._epochs_for(seconds * share_train))
            passes += run_for(seconds * share_infer, one_pass)
        out.attempted = len(epochs) + len(passes)
        role_timings(self.name, epochs, passes, out)
        return out

    def check(self, out: Outcome) -> None:
        losses = self.losses
        if not losses[-1] < losses[0]:
            out.fail(f"final loss {losses[-1]:.4g} not below first-epoch "
                     f"loss {losses[0]:.4g}")
        if not self.result.test_accuracy >= MIN_TEST_ACCURACY:
            out.fail(f"test accuracy {self.result.test_accuracy:.3f} < "
                     f"{MIN_TEST_ACCURACY}")
        want, _ = self.infer(self.trained, MinigunBackend())
        if not close_to(self.logits, want):
            out.fail("featgraph and minigun logits disagree on inference")

    # -- traced ------------------------------------------------------------
    def trace(self, seconds: float, spans_path) -> Outcome:
        out = Outcome()
        before = self.cache.stats()
        real = self.train(self.model(),
                          self._epochs_for(seconds * REAL_SHARE))
        real_signature = path_signature(before, self.cache.stats())

        tracer = Tracer()
        proxy = self.proxy(tracer)
        series = CacheSeries(self.cache, spec.BIND_PASSES)
        walk = ExecStatsWalk(self.cache)
        model = self.model()
        opt = Adam(model.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
        one_epoch = self.replica(tracer, proxy, model, opt)
        losses: list[float] = []

        def epoch(i):
            model.train()
            with tracer.span("epoch", unit=f"epoch-{i}") as unit:
                losses.append(one_epoch())
            series.sample()
            walk.walk()
            return unit[END] - unit[START]

        epochs = run_for(seconds * self.replica_share, epoch,
                         minimum=len(real.train_losses))
        self.trained, self.result, self.losses = model, real, losses
        self.logits, _ = self.infer(model, self.backend)
        out.attempted = len(real.epoch_seconds) + len(epochs) + 1

        # the replica measured the same program iff its losses are the real
        # loop's, bit for bit, and the same compile-cache paths moved
        if real.train_losses != losses[:len(real.train_losses)]:
            out.broken("traced losses are not bit-identical to the "
                       "untraced loop's")
        if series.signature() != real_signature:
            out.broken(f"path change under the proxy: untraced moved "
                       f"{real_signature}, traced moved {series.signature()}")
        if series.recompiles():
            out.broken(f"{series.recompiles()} recompiles after warm-up")

        book_unattributed(tracer.spans, out)
        secs, calls, wall = per_unit(tracer.spans)
        staged = backend_metrics(tracer.spans, proxy, secs, calls, wall, out)
        exec_metrics(walk.totals, len(epochs), staged, out)
        for layer in ("autograd.forward", "autograd.backward",
                      "autograd.loss", "autograd.optim", "sampling.sample",
                      "sampling.gather"):
            out.metrics[f"minidgl.{layer}_ms"] = \
                secs.get(f"minidgl.{layer}", 0.0) * 1e3
        out.metrics.update(series.metrics())
        out.metrics.update(compile_metrics(self.setup_cache))
        out.metrics.update(self.setup_parts)
        stretch_metrics(self.name, real.epoch_seconds, epochs, out)
        self.trace_extras(seconds, real, out)
        tracer.write_jsonl(spans_path)
        return out

    def trace_extras(self, seconds: float, real, out: Outcome) -> None:
        pass


# ----------------------------------------------------------------------
# full graph
# ----------------------------------------------------------------------

class TrainFull(_Training):
    def __init__(self, name: str, sizes: dict, seed: int):
        super().__init__(sizes, seed)
        self.name = name
        t0 = time.perf_counter()
        Graph(self.ds.adj).reverse      # what every train_model call pays
        self.setup_parts["graph.transpose_ms"] = \
            (time.perf_counter() - t0) * 1e3
        self._warm_up()

    def model(self):
        s = self.sizes
        if s["model"] == "GAT":
            return GAT(s["feature_dim"], s["num_classes"], hidden=s["hidden"],
                       num_heads=s["num_heads"], dropout=0.0, seed=self.seed)
        return GCN(s["feature_dim"], s["num_classes"], hidden=s["hidden"],
                   dropout=0.0, seed=self.seed)

    def train(self, model, epochs: int):
        return train_model(model, self.ds, self.backend, epochs=epochs)

    def infer(self, model, backend):
        return inference(model, self.ds, backend)

    def replica(self, tracer: Tracer, proxy, model, opt):
        """``train_model``'s epoch body, one span per layer call."""
        graph = Graph(self.ds.adj)
        x = Tensor(self.ds.features)

        def one_epoch() -> float:
            with tracer.span("minidgl.autograd.optim"):
                opt.zero_grad()
            with tracer.span("minidgl.autograd.forward"):
                logits = model(graph, x, proxy)
            with tracer.span("minidgl.autograd.loss"):
                loss = cross_entropy(logits, self.ds.labels,
                                     self.ds.train_mask)
            with tracer.span("minidgl.autograd.backward"):
                loss.backward()
            with tracer.span("minidgl.autograd.optim"):
                opt.step()
            return float(loss.data)

        return one_epoch


# ----------------------------------------------------------------------
# sampled mini-batches
# ----------------------------------------------------------------------

class TrainSage(_Training):
    name = "train_sage_minibatch"
    replica_share = 0.45          # the rest is the prefetch=2 stretch

    def __init__(self, sizes: dict, seed: int):
        super().__init__(sizes, seed)
        rng = np.random.default_rng(seed)
        for mask, keep in (("train_mask", sizes["train_ids"]),
                           ("val_mask", sizes["eval_ids"]),
                           ("test_mask", sizes["eval_ids"])):
            ids = np.nonzero(getattr(self.ds, mask))[0]
            cut = np.zeros(self.ds.num_vertices, dtype=bool)
            cut[rng.choice(ids, size=keep, replace=False)] = True
            setattr(self.ds, mask, cut)
        self.val_ids = np.nonzero(self.ds.val_mask)[0]
        #: per replica step: edges over both blocks, sources per seed
        self.block_shapes: list[tuple[int, float]] = []
        self._warm_up()

    def model(self):
        s = self.sizes
        return GraphSage(s["feature_dim"], s["num_classes"],
                         hidden=s["hidden"], dropout=0.0, seed=self.seed)

    def train(self, model, epochs: int, prefetch: int = 0):
        return train_minibatch(
            model, self.ds, self.backend, fanouts=list(self.sizes["fanouts"]),
            batch_size=self.sizes["batch_size"], epochs=epochs,
            seed=self.seed, prefetch=prefetch)

    def infer(self, model, backend):
        return infer_minibatch(model, self.ds, backend, self.val_ids)

    def replica(self, tracer: Tracer, proxy, model, opt):
        """``train_minibatch``'s epoch body at ``prefetch=0``, one span per
        layer call."""
        s = self.sizes
        # the rng stream train_minibatch's BlockLoader draws from, in the
        # same order: one permutation per epoch, then one sample per batch
        rng = np.random.default_rng(self.seed)
        train_ids = np.nonzero(self.ds.train_mask)[0]
        labels, features = self.ds.labels, self.ds.features

        def one_epoch() -> float:
            batch_losses = []
            for seeds in minibatches(train_ids, s["batch_size"], rng):
                with tracer.span("minidgl.sampling.sample"):
                    blocks = build_blocks(self.ds.adj, seeds,
                                          list(s["fanouts"]), rng)
                with tracer.span("minidgl.sampling.gather"):
                    x = Tensor(blocks[0].gather_src_features(features))
                with tracer.span("minidgl.autograd.forward"):
                    logits = model.forward_blocks(blocks, x, proxy)
                with tracer.span("minidgl.autograd.loss"):
                    loss = cross_entropy(logits, labels[seeds],
                                         np.ones(len(seeds), dtype=bool))
                with tracer.span("minidgl.autograd.optim"):
                    opt.zero_grad()
                with tracer.span("minidgl.autograd.backward"):
                    loss.backward()
                with tracer.span("minidgl.autograd.optim"):
                    opt.step()
                batch_losses.append(float(loss.data))
                self.block_shapes.append((sum(b.adj.nnz for b in blocks),
                                          blocks[0].num_src / len(seeds)))
            return float(np.mean(batch_losses))

        return one_epoch

    def trace_extras(self, seconds: float, real, out: Outcome) -> None:
        prefetched = self.train(self.model(),
                                self._epochs_for(seconds * 0.25), prefetch=2)
        out.attempted += len(prefetched.epoch_seconds)
        edges, srcs = zip(*self.block_shapes)
        out.metrics["minidgl.sampling.block_edges_mean"] = float(
            np.mean(edges))
        out.metrics["minidgl.sampling.src_per_seed"] = float(np.mean(srcs))
        out.metrics["minidgl.sampling.prefetch_epoch_ratio"] = float(
            np.median(prefetched.epoch_seconds)
            / np.median(real.epoch_seconds))
