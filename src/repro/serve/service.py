"""Online node-inference service: queue, micro-batcher, admission control.

This is the product surface over :func:`repro.minidgl.train.infer_minibatch`
(docs/serving.md).  Clients submit single- or multi-seed inference requests
(optionally with a deadline) to :class:`InferenceService`; a batcher thread
coalesces the queued requests into **one sampled block per batch**:
the union of the queued seeds is deduplicated, sampled once with
:func:`~repro.minidgl.sampling.build_blocks`, run through the model's
``forward_blocks``, and the logits rows are scattered back to each
request's future in request order.

The batcher never waits for arrivals: a batch is whatever is queued when
the batcher comes free.  Requests that arrive while a batch runs queue up
and ride the next one, so batches grow with the load by themselves
(docs/serving.md, "Why the batcher never waits").  ``batch_window_ms`` is
still accepted and reported but no longer changes anything.

Because compiled kernels are topology-independent
(:mod:`repro.core.compile`), every fresh per-batch block after warmup
re-binds cached kernel templates -- steady-state serving performs **zero
recompiles**, which is what makes micro-batching pay: the per-batch cost
is one sample + one bound forward regardless of how many requests share
it.

Operational controls:

- **admission control** -- at most ``max_queue_depth`` requests may wait;
  beyond that :meth:`submit` raises :class:`Overloaded` immediately
  (shed load at the door, don't let latency collapse);
- **deadlines** -- a request whose deadline has passed by the time its
  batch forms is failed with :class:`DeadlineExceeded` instead of wasting
  batch capacity;
- **graceful shutdown** -- :meth:`close` (``drain=True``) stops admission,
  lets the batcher drain every queued request, and joins the thread;
  ``drain=False`` cancels the queue with :class:`ServiceClosed`;
- **feature cache** -- ``feature_cache_bytes > 0`` fronts the gather of
  each block's source features with a pinned-budget LRU row cache
  (:class:`~repro.serve.cache.FeatureCache`).

Every served request carries a :class:`ServeStats` with the same flavour
of accounting as the kernels' ``ExecStats``: where the time went
(queue/sample/compute/total), how full its batch was, and how the feature
cache behaved.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.minidgl.autograd import Tensor, no_grad
from repro.minidgl.sampling import build_blocks
from repro.serve.cache import FeatureCache

__all__ = [
    "DEFAULT_BATCH_WINDOW_MS",
    "DeadlineExceeded",
    "InferenceService",
    "Overloaded",
    "ServeFuture",
    "ServeStats",
    "ServiceClosed",
]

#: fanout that keeps every edge: full-neighborhood (deterministic) serving
_FULL_NEIGHBORHOOD = 1 << 30

#: what ``batch_window_ms=None`` reports; the batcher never waits for
#: arrivals, whatever the window
DEFAULT_BATCH_WINDOW_MS = 2.0


class Overloaded(RuntimeError):
    """Request rejected at admission: the queue is at ``max_queue_depth``."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before its batch ran."""


class ServiceClosed(RuntimeError):
    """The service is shut down (or was closed before the request ran)."""


@dataclass(frozen=True)
class ServeStats:
    """Per-request serving accounting (the request-path ``ExecStats``).

    ``queue_seconds`` is admission-to-batch-formation wait,
    ``sample_seconds``/``compute_seconds`` the request's batch's block
    sampling and forward time (shared by every request in the batch),
    ``total_seconds`` admission-to-reply wall clock.  ``batch_requests`` /
    ``batch_seeds`` describe the batch the request rode in (seeds are
    post-dedup); ``occupancy`` is ``batch_seeds / max_batch_seeds``.
    ``cache_hit_rate`` is the feature cache's hit rate over this batch's
    gather (``nan`` without a cache).
    """

    queue_seconds: float
    sample_seconds: float
    compute_seconds: float
    total_seconds: float
    batch_requests: int
    batch_seeds: int
    occupancy: float
    cache_hit_rate: float


class ServeFuture:
    """Handle to one in-flight request; resolved by the batcher thread."""

    def __init__(self, seeds: np.ndarray, deadline: float | None):
        self.seeds = seeds
        self._deadline = deadline
        self._enqueued = time.perf_counter()
        self._event = threading.Event()
        self._logits: np.ndarray | None = None
        self._stats: ServeStats | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for the logits ``(len(seeds), num_classes)``; raises the
        request's error (:class:`Overloaded` never reaches here -- it is
        raised at :meth:`InferenceService.submit`)."""
        if not self._event.wait(timeout):
            raise TimeoutError("request not served within timeout")
        if self._error is not None:
            raise self._error
        return self._logits

    def stats(self) -> ServeStats | None:
        """The request's :class:`ServeStats` once resolved (also set on
        deadline failures, with zero compute)."""
        return self._stats

    def _resolve(self, logits: np.ndarray, stats: ServeStats) -> None:
        self._logits = logits
        self._stats = stats
        self._event.set()

    def _fail(self, error: BaseException,
              stats: ServeStats | None = None) -> None:
        self._error = error
        self._stats = stats
        self._event.set()


class InferenceService:
    """Thread-based online inference over a model/dataset/backend triple.

    ``fanouts=None`` serves full neighborhoods (deterministic logits --
    the evaluation-mode contract of ``infer_minibatch``); a fanout list
    samples, drawing from the service's private ``rng`` on the batcher
    thread.  ``max_batch_seeds`` caps post-coalescing batch size: the
    batcher stops collecting once adding the next queued request would
    exceed it (a single oversized request still runs alone).
    ``batch_window_ms`` is accepted and reported by :meth:`stats` but
    changes nothing: the batcher never waits for arrivals (module
    docstring).

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(self, model, dataset, backend, *,
                 fanouts: list[int] | None = None,
                 batch_window_ms: float | None = None,
                 max_batch_seeds: int = 256,
                 max_queue_depth: int = 64,
                 feature_cache_bytes: int = 0,
                 rng: np.random.Generator | None = None,
                 start: bool = True):
        if dataset.features is None:
            raise ValueError("dataset lacks features")
        if max_batch_seeds < 1:
            raise ValueError("max_batch_seeds must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.model = model
        self.dataset = dataset
        self.backend = backend
        if fanouts is None:
            layers = getattr(model, "num_block_layers", 2)
            fanouts = [_FULL_NEIGHBORHOOD] * layers
        elif not fanouts:
            raise ValueError("fanouts must be non-empty (or None)")
        self.fanouts = list(fanouts)
        self.batch_window_ms = (DEFAULT_BATCH_WINDOW_MS
                                if batch_window_ms is None
                                else max(0.0, float(batch_window_ms)))
        self.max_batch_seeds = int(max_batch_seeds)
        self.max_queue_depth = int(max_queue_depth)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.feature_cache = (FeatureCache(dataset.features,
                                           feature_cache_bytes)
                              if feature_cache_bytes else None)
        self._out_dim = getattr(model, "out_dim", None)
        self._num_vertices = dataset.adj.shape[0]
        self._pending: "deque[ServeFuture]" = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._closed = False
        self._thread: threading.Thread | None = None
        # aggregate counters, written under _cond
        self._accepted = 0
        self._rejected = 0
        self._expired = 0
        self._cancelled = 0
        self._failed = 0
        self._served = 0
        self._batches = 0
        self._seeds_served = 0
        self._unique_seeds_served = 0
        self._sample_seconds = 0.0
        self._compute_seconds = 0.0
        if start:
            self.start()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "InferenceService":
        """Start the batcher thread (idempotent; `start=False` constructors
        call this once admission tests have staged their queue)."""
        if self._closed:
            raise ServiceClosed("service already closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._worker, daemon=True, name="repro-serve-batcher")
            self._thread.start()
        return self

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, *, drain: bool = True,
              timeout: float | None = None) -> None:
        """Stop admission and shut down.  ``drain=True`` serves every
        already-queued request first; ``drain=False`` fails them with
        :class:`ServiceClosed`."""
        with self._cond:
            self._closing = True
            if not drain:
                while self._pending:
                    fut = self._pending.popleft()
                    self._cancelled += 1
                    fut._fail(ServiceClosed(
                        "service closed before the request ran"))
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
        self._closed = True

    # -- request intake -------------------------------------------------

    def submit(self, seeds, *, deadline_s: float | None = None) -> ServeFuture:
        """Enqueue an inference request; returns its :class:`ServeFuture`.

        ``seeds`` is a scalar vertex id (single-seed request) or a 1-D id
        array; the future's logits have one row per seed, in the given
        order (duplicate seeds within a request are fine).  ``deadline_s``
        is a relative deadline: if the batch forms after it the request
        fails with :class:`DeadlineExceeded`.  Raises ``ValueError`` for a
        seed outside ``[0, num_vertices)`` (it would fail every request of
        its batch), :class:`Overloaded` when ``max_queue_depth`` requests
        already wait, and :class:`ServiceClosed` after shutdown began.
        """
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        if seeds.ndim != 1:
            raise ValueError("seeds must be a scalar or 1-D id array")
        if len(seeds) and (seeds.min() < 0
                           or seeds.max() >= self._num_vertices):
            raise ValueError(
                f"seed ids must lie in [0, {self._num_vertices})")
        now = time.perf_counter()
        fut = ServeFuture(seeds, None if deadline_s is None
                          else now + float(deadline_s))
        if len(seeds) == 0:
            # nothing to infer; resolve immediately with a (0, C) result
            with self._cond:
                self._accepted += 1
                self._served += 1
            fut._resolve(np.zeros((0, int(self._out_dim or 0)),
                                  dtype=np.float32),
                         ServeStats(0.0, 0.0, 0.0, 0.0, 0, 0, 0.0,
                                    float("nan")))
            return fut
        with self._cond:
            if self._closing:
                raise ServiceClosed("service is shut down")
            if len(self._pending) >= self.max_queue_depth:
                self._rejected += 1
                raise Overloaded(
                    f"queue depth {len(self._pending)} at limit "
                    f"{self.max_queue_depth}")
            self._accepted += 1
            self._pending.append(fut)
            self._cond.notify_all()
        return fut

    def infer(self, seeds, *, deadline_s: float | None = None,
              timeout: float | None = None) -> tuple[np.ndarray, ServeStats]:
        """Synchronous convenience: submit and wait; returns
        ``(logits, stats)``."""
        fut = self.submit(seeds, deadline_s=deadline_s)
        logits = fut.result(timeout)
        return logits, fut.stats()

    # -- batcher --------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closing:
                    self._cond.wait(0.05)
                if not self._pending:
                    return  # closing and drained
                batch = self._collect()
                t_formed = time.perf_counter()
            try:
                self._run_batch(batch, t_formed)
            except BaseException as exc:
                # never leave a client blocked, nor the batcher dead, on a
                # crash: every future still open fails, exactly once, and
                # is counted before its client can wake
                failed = [fut for fut in batch if not fut.done()]
                with self._cond:
                    self._failed += len(failed)
                for fut in failed:
                    fut._fail(exc)

    def _collect(self) -> list[ServeFuture]:
        """Pop the oldest request and coalesce what is queued behind it,
        FIFO, up to ``max_batch_seeds``; never wait for arrivals.  Called
        with ``_cond`` held."""
        batch = [self._pending.popleft()]
        n_seeds = len(batch[0].seeds)
        while self._pending:
            nxt = self._pending[0]
            if n_seeds + len(nxt.seeds) > self.max_batch_seeds:
                break
            batch.append(self._pending.popleft())
            n_seeds += len(nxt.seeds)
        return batch

    def _run_batch(self, batch: list[ServeFuture], t_formed: float) -> None:
        live: list[ServeFuture] = []
        for fut in batch:
            if fut._deadline is not None and t_formed > fut._deadline:
                with self._cond:
                    self._expired += 1
                fut._fail(DeadlineExceeded(
                    "deadline passed before the batch formed"),
                    ServeStats(t_formed - fut._enqueued, 0.0, 0.0,
                               t_formed - fut._enqueued, 0, 0, 0.0,
                               float("nan")))
            else:
                live.append(fut)
        if not live:
            return
        all_seeds = np.concatenate([f.seeds for f in live])
        uniq, inverse = np.unique(all_seeds, return_inverse=True)
        t0 = time.perf_counter()
        blocks = build_blocks(self.dataset.adj, uniq, self.fanouts,
                              self.rng)
        sample_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        if self.feature_cache is not None:
            h0 = self.feature_cache.hits
            m0 = self.feature_cache.misses
            feats = self.feature_cache.gather(blocks[0].src_ids)
            dh = self.feature_cache.hits - h0
            dm = self.feature_cache.misses - m0
            hit_rate = dh / (dh + dm) if dh + dm else 0.0
        else:
            feats = blocks[0].gather_src_features(self.dataset.features)
            hit_rate = float("nan")
        self.model.eval()
        with no_grad():
            logits = self.model.forward_blocks(
                blocks, Tensor(feats), self.backend).numpy()
        if len(logits) != len(uniq):
            raise ValueError(
                f"model returned {len(logits)} logit rows for "
                f"{len(uniq)} seeds")
        t_done = time.perf_counter()
        compute_s = t_done - t0
        occupancy = len(uniq) / self.max_batch_seeds
        # count the batch before any client can wake and read stats()
        with self._cond:
            self._served += len(live)
            self._batches += 1
            self._seeds_served += len(all_seeds)
            self._unique_seeds_served += len(uniq)
            self._sample_seconds += sample_s
            self._compute_seconds += compute_s
        off = 0
        for fut in live:
            k = len(fut.seeds)
            rows = logits[inverse[off:off + k]]
            off += k
            fut._resolve(rows, ServeStats(
                queue_seconds=t_formed - fut._enqueued,
                sample_seconds=sample_s,
                compute_seconds=compute_s,
                total_seconds=t_done - fut._enqueued,
                batch_requests=len(live),
                batch_seeds=len(uniq),
                occupancy=occupancy,
                cache_hit_rate=hit_rate,
            ))

    # -- accounting -----------------------------------------------------

    def stats(self) -> dict:
        """Service-level counters (the aggregate view of ServeStats)."""
        with self._cond:
            batches = self._batches
            return {
                "accepted": self._accepted,
                "rejected": self._rejected,
                "expired": self._expired,
                "cancelled": self._cancelled,
                "failed": self._failed,
                "served": self._served,
                "batches": batches,
                "pending": len(self._pending),
                "seeds_served": self._seeds_served,
                "unique_seeds_served": self._unique_seeds_served,
                "mean_batch_requests":
                    self._served / batches if batches else 0.0,
                "mean_batch_seeds":
                    self._unique_seeds_served / batches if batches else 0.0,
                "sample_seconds": self._sample_seconds,
                "compute_seconds": self._compute_seconds,
                "batch_window_ms": self.batch_window_ms,
                "max_batch_seeds": self.max_batch_seeds,
                "max_queue_depth": self.max_queue_depth,
                "cache": (self.feature_cache.stats()
                          if self.feature_cache is not None else None),
            }
