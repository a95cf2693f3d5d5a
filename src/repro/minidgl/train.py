"""Vertex-classification training loops (paper Sec. V-E).

Two harnesses over a :class:`~repro.graph.datasets.Dataset` with
train/val/test masks:

- :func:`train_model` -- full-graph training, the harness behind the
  accuracy-parity experiment and the measured half of Table VI;
- :func:`train_minibatch` -- sampled mini-batch training in GraphSage's
  training mode: blocks from :class:`~repro.minidgl.sampling.BlockLoader`
  (optionally prefetched on a worker thread), per-epoch sample/compute/total
  wall-clock accounting, and evaluation through :func:`infer_minibatch`
  with full neighborhoods.

Both report per-epoch wall-clock plus accuracies; masks may be ``None``
(e.g. synthetic datasets without splits), in which case the corresponding
accuracy is ``nan`` rather than an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.datasets import Dataset
from repro.minidgl.autograd import Tensor, no_grad
from repro.minidgl.graph import Graph
from repro.minidgl.optim import Adam
from repro.minidgl.sampling import BlockLoader

__all__ = ["cross_entropy", "accuracy", "train_model", "TrainResult",
           "train_minibatch", "infer_minibatch", "MinibatchResult"]


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Masked mean negative log-likelihood."""
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        raise ValueError("empty mask")
    logp = logits.gather_rows(idx).log_softmax(axis=-1)
    picked = logp * Tensor(np.eye(logits.shape[-1], dtype=np.float32)[labels[idx]])
    return -(picked.sum() * (1.0 / len(idx)))


def accuracy(logits: np.ndarray, labels: np.ndarray,
             mask: np.ndarray | None) -> float:
    """Fraction of correct predictions on the masked vertices.

    ``mask=None`` (dataset has no such split) and empty masks both yield
    ``nan`` instead of raising, so training harnesses work on datasets
    without val/test splits.
    """
    if mask is None:
        return float("nan")
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        return float("nan")
    pred = logits[idx].argmax(axis=-1)
    return float((pred == labels[idx]).mean())


@dataclass
class TrainResult:
    """Outcome of a training run."""

    test_accuracy: float
    val_accuracy: float
    train_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def mean_epoch_seconds(self) -> float:
        if not self.epoch_seconds:
            return 0.0
        return float(np.mean(self.epoch_seconds))


def train_model(model, dataset: Dataset, backend, *, epochs: int = 50,
                lr: float = 1e-2, weight_decay: float = 5e-4,
                patience: int | None = None,
                verbose: bool = False) -> TrainResult:
    """Full-graph training with Adam; returns final accuracies and timings.

    With ``patience``, training stops early once the validation accuracy has
    not improved for that many consecutive epochs (checked each epoch), and
    the best-validation parameters -- snapshotted at each improvement -- are
    restored before the final evaluation, so the reported accuracies come
    from the model that early stopping actually selected, not from whatever
    weights the last (stale) epochs drifted to.
    """
    if dataset.features is None or dataset.labels is None:
        raise ValueError("dataset lacks features/labels")
    if patience is not None and patience < 1:
        raise ValueError("patience must be >= 1")
    graph = Graph(dataset.adj)
    x = Tensor(dataset.features)
    labels = dataset.labels
    opt = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    losses: list[float] = []
    epoch_times: list[float] = []
    best_val = -1.0
    best_state: dict[str, np.ndarray] | None = None
    stale = 0
    for epoch in range(epochs):
        model.train()
        t0 = time.perf_counter()
        opt.zero_grad()
        logits = model(graph, x, backend)
        loss = cross_entropy(logits, labels, dataset.train_mask)
        loss.backward()
        opt.step()
        epoch_times.append(time.perf_counter() - t0)
        losses.append(float(loss.data))
        if verbose and epoch % 10 == 0:
            print(f"epoch {epoch}: loss={losses[-1]:.4f}")
        if patience is not None and dataset.val_mask is not None:
            model.eval()
            with no_grad():
                val_logits = model(graph, x, backend).numpy()
            val_acc = accuracy(val_logits, labels, dataset.val_mask)
            if val_acc > best_val + 1e-9:
                best_val = val_acc
                best_state = model.state_dict()
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    with no_grad():
        logits = model(graph, x, backend).numpy()
    return TrainResult(
        test_accuracy=accuracy(logits, labels, dataset.test_mask),
        val_accuracy=accuracy(logits, labels, dataset.val_mask),
        train_losses=losses,
        epoch_seconds=epoch_times,
    )


def inference(model, dataset: Dataset, backend) -> tuple[np.ndarray, float]:
    """One full-graph inference pass; returns (logits, seconds)."""
    graph = Graph(dataset.adj)
    x = Tensor(dataset.features)
    model.eval()
    t0 = time.perf_counter()
    with no_grad():
        logits = model(graph, x, backend).numpy()
    return logits, time.perf_counter() - t0


# ----------------------------------------------------------------------
# mini-batch (sampled) training
# ----------------------------------------------------------------------

# fanout large enough that no vertex's degree exceeds it: sampling keeps
# every edge, draws no random keys, and block inference is deterministic
_FULL_NEIGHBORHOOD = 1 << 30


@dataclass
class MinibatchResult:
    """Outcome of a sampled mini-batch training run, with the per-epoch
    time split mini-batch systems care about: ``sample_seconds`` is
    producer-side block sampling (overlapped with compute when prefetching),
    ``compute_seconds`` the forward/backward/step work, ``epoch_seconds``
    the consumer-visible wall-clock."""

    test_accuracy: float
    val_accuracy: float
    train_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    sample_seconds: list[float] = field(default_factory=list)
    compute_seconds: list[float] = field(default_factory=list)

    @property
    def mean_epoch_seconds(self) -> float:
        if not self.epoch_seconds:
            return 0.0
        return float(np.mean(self.epoch_seconds))


def infer_minibatch(model, dataset: Dataset, backend,
                    ids: np.ndarray, *,
                    fanouts: list[int] | None = None,
                    batch_size: int = 512,
                    rng: np.random.Generator | None = None,
                    ) -> tuple[np.ndarray, float]:
    """Block-wise inference over ``ids``; returns (logits, seconds).

    ``fanouts=None`` uses full neighborhoods (every edge kept, no
    randomness), the standard way to evaluate a sampled-trained model.
    Logits rows align with ``ids`` order.  Empty ``ids`` return a
    ``(0, num_classes)`` logits array (and ``0.0`` seconds) instead of
    crashing in ``np.concatenate`` -- callers batching arbitrary id sets
    (the serving layer, mask-driven evaluation) rely on this.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) == 0:
        width = getattr(model, "out_dim", None)
        if width is None and dataset.labels is not None:
            width = int(dataset.labels.max()) + 1
        return np.zeros((0, int(width or 0)), dtype=np.float32), 0.0
    if fanouts is None:
        fanouts = [_FULL_NEIGHBORHOOD] * getattr(model, "num_block_layers", 2)
    loader = BlockLoader(dataset.adj, ids, batch_size, list(fanouts),
                         rng=rng, shuffle=False, prefetch=0)
    model.eval()
    chunks: list[np.ndarray] = []
    t0 = time.perf_counter()
    with no_grad():
        for seeds, blocks in loader:
            x = Tensor(blocks[0].gather_src_features(dataset.features))
            chunks.append(model.forward_blocks(blocks, x, backend).numpy())
    return np.concatenate(chunks, axis=0), time.perf_counter() - t0


def train_minibatch(model, dataset: Dataset, backend, *,
                    fanouts: list[int] = (8, 8),
                    batch_size: int = 128, epochs: int = 10,
                    lr: float = 1e-2, weight_decay: float = 5e-4,
                    seed: int = 0, prefetch: int | None = None,
                    drop_last: bool = False,
                    verbose: bool = False) -> MinibatchResult:
    """Sampled mini-batch training (GraphSage's training mode).

    Each epoch shuffles the train ids, samples one block per layer per
    batch through a :class:`~repro.minidgl.sampling.BlockLoader` (with
    ``prefetch`` batches sampled ahead on its producer thread -- default
    2), and steps Adam on the seed vertices' loss.
    Because compiled kernels are topology-independent, every fresh block
    after the first batch re-binds cached kernel templates instead of
    recompiling.  Final accuracies come from :func:`infer_minibatch` with
    full neighborhoods; ``None`` masks yield ``nan`` accuracies.
    """
    if dataset.features is None or dataset.labels is None:
        raise ValueError("dataset lacks features/labels")
    if dataset.train_mask is None:
        raise ValueError("mini-batch training needs a train mask")
    train_ids = np.nonzero(dataset.train_mask)[0]
    if len(train_ids) == 0:
        raise ValueError("empty train mask")
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    loader = BlockLoader(dataset.adj, train_ids, batch_size, list(fanouts),
                         rng=rng, prefetch=prefetch, drop_last=drop_last)
    opt = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    losses: list[float] = []
    epoch_times: list[float] = []
    sample_times: list[float] = []
    compute_times: list[float] = []
    for epoch in range(epochs):
        model.train()
        t_epoch = time.perf_counter()
        sampled_before = loader.sample_seconds
        compute = 0.0
        batch_losses: list[float] = []
        for seeds, blocks in loader:
            t0 = time.perf_counter()
            x = Tensor(blocks[0].gather_src_features(dataset.features))
            logits = model.forward_blocks(blocks, x, backend)
            loss = cross_entropy(logits, labels[seeds],
                                 np.ones(len(seeds), dtype=bool))
            opt.zero_grad()
            loss.backward()
            opt.step()
            compute += time.perf_counter() - t0
            batch_losses.append(float(loss.data))
        epoch_times.append(time.perf_counter() - t_epoch)
        sample_times.append(loader.sample_seconds - sampled_before)
        compute_times.append(compute)
        losses.append(float(np.mean(batch_losses)))
        if verbose:
            print(f"epoch {epoch}: loss={losses[-1]:.4f} "
                  f"total={epoch_times[-1]:.3f}s "
                  f"sample={sample_times[-1]:.3f}s "
                  f"compute={compute_times[-1]:.3f}s")

    def _eval(mask):
        if mask is None:
            return float("nan")
        ids = np.nonzero(mask)[0]
        if len(ids) == 0:
            return float("nan")
        logits, _ = infer_minibatch(model, dataset, backend, ids)
        return float((logits.argmax(axis=-1) == labels[ids]).mean())

    return MinibatchResult(
        test_accuracy=_eval(dataset.test_mask),
        val_accuracy=_eval(dataset.val_mask),
        train_losses=losses,
        epoch_seconds=epoch_times,
        sample_seconds=sample_times,
        compute_seconds=compute_times,
    )
