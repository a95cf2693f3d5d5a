"""``serve_gcn_zipf``: the online inference service under skewed requests.

Single-seed requests with Zipf vertex popularity, so hot seeds share work
(dedup, feature cache) and cold ones do not.  Two phases, one load-generating
thread:

- **open loop** -- Poisson arrivals at a fixed rate frozen in ``spec.py``;
  each request is timed *from the moment it was due*, so a stalled generator
  or a full queue shows as latency, and the generator's own lateness is
  reported.  Replies are collected after the phase, so no collector thread
  competes with the batcher.
- **closed loop** -- the same thread keeps a fixed number of requests
  outstanding; what it measures is saturated throughput.

Latency is due-time to reply as the service accounts it (generator lateness
plus ``ServeStats.total_seconds``); the wake-up of an in-process client is
not the system's time.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from benchmarks.perf import spec
from benchmarks.perf.common import (Outcome, backend_metrics,
                                    book_unattributed, close_to,
                                    compile_metrics, peak_rss_mb, per_unit,
                                    role_timings, stretch_metrics)
from benchmarks.perf.trace import (CacheSeries, TimingProxy, Tracer,
                                   path_signature)
from repro.core.compile import get_kernel_cache
from repro.graph.datasets import planted_partition
from repro.minidgl.backends import FeatGraphDGLBackend, MinigunBackend
from repro.minidgl.models import GCN
from repro.minidgl.sampling import build_blocks
from repro.minidgl.train import infer_minibatch
from repro.serve import DeadlineExceeded, InferenceService, Overloaded

NAME = "serve_gcn_zipf"
FULL_NEIGHBORHOOD = 1 << 30
REPLY_TIMEOUT_S = 30.0
#: closed-loop throughput is the median over slices of this length
SLICE_S = 0.25
#: compile-cache counters are sampled every this many submits (traced run)
SERIES_EVERY = 200


class OpenPhase:
    """Everything one open-loop phase observed, per request."""

    def __init__(self):
        self.due: list[float] = []
        self.submitted: list[float] = []
        self.seeds: list[int] = []
        self.futures: list = []          # None where admission refused
        self.refused = self.expired = self.errored = 0
        self.answered: list[int] = []    # indices into the lists above
        self.stats: list = []            # ServeStats of the answered ones
        self.replies: list = []

    @property
    def sent(self) -> int:
        return len(self.due)

    def latency_s(self) -> np.ndarray:
        idx = np.asarray(self.answered, dtype=np.int64)
        late = np.asarray(self.submitted)[idx] - np.asarray(self.due)[idx]
        return late + np.array([s.total_seconds for s in self.stats])

    def lateness_s(self) -> np.ndarray:
        return np.asarray(self.submitted) - np.asarray(self.due)


class ServeGcnZipf:
    def __init__(self, sizes: dict, seed: int):
        self.sizes, self.seed = sizes, seed
        self.rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        self.ds = planted_partition(
            n=sizes["n"], num_classes=sizes["num_classes"],
            feature_dim=sizes["feature_dim"],
            avg_degree=sizes["avg_degree"], seed=seed)
        self.setup_parts = {"graph.build_s": time.perf_counter() - t0}
        self.model = GCN(sizes["feature_dim"], sizes["num_classes"],
                         hidden=sizes["hidden"], dropout=0.0, seed=seed)
        self.model.eval()
        self.backend = FeatGraphDGLBackend("cpu")
        self.cache = get_kernel_cache()
        # Zipf popularity over a seeded shuffle of the vertices
        n = sizes["n"]
        weights = np.arange(1, n + 1, dtype=np.float64) \
            ** -sizes["zipf_exponent"]
        self._cdf = np.cumsum(weights / weights.sum())
        self._by_rank = self.rng.permutation(n)
        self.svc = self._service(self.backend)
        self.setup_cache = self.cache.stats()
        self.open: OpenPhase | None = None

    def close(self) -> None:
        self.svc.close()

    def _service(self, backend) -> InferenceService:
        s = self.sizes
        row_bytes = self.ds.features[0].nbytes
        svc = InferenceService(
            self.model, self.ds, backend, fanouts=None,
            batch_window_ms=s["batch_window_ms"],
            max_batch_seeds=s["max_batch_seeds"],
            max_queue_depth=s["max_queue_depth"],
            feature_cache_bytes=int(s["cache_share"] * s["n"]) * row_bytes,
            rng=np.random.default_rng(self.seed))
        svc.infer(np.arange(8), timeout=REPLY_TIMEOUT_S)   # warm: compiles
        svc.infer(3, timeout=REPLY_TIMEOUT_S)
        return svc

    def _draw_seeds(self, count: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, self.rng.random(count))
        return self._by_rank[np.minimum(ranks, len(self._by_rank) - 1)]

    # -- load generation ---------------------------------------------------
    def open_loop(self, svc, seconds: float, series=None) -> OpenPhase:
        rate = self.sizes["open_rate_rps"]
        count = max(int(seconds * rate), 10)
        offsets = np.cumsum(self.rng.exponential(1.0 / rate, size=count))
        seeds = self._draw_seeds(count)
        phase = OpenPhase()
        t_start = time.perf_counter()
        for i in range(count):
            due = t_start + offsets[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            now = time.perf_counter()
            try:
                fut = svc.submit(int(seeds[i]))
            except Overloaded:
                fut = None
                phase.refused += 1
            phase.due.append(due)
            phase.submitted.append(now)
            phase.seeds.append(int(seeds[i]))
            phase.futures.append(fut)
            if series is not None and i % SERIES_EVERY == SERIES_EVERY - 1:
                series.sample()
        for i, fut in enumerate(phase.futures):
            if fut is None:
                continue
            try:
                reply = fut.result(REPLY_TIMEOUT_S)
            except DeadlineExceeded:
                phase.expired += 1
            except Exception:   # the service failed this request; count it
                phase.errored += 1
            else:
                phase.answered.append(i)
                phase.stats.append(fut.stats())
                phase.replies.append(reply)
        phase.futures = []
        return phase

    def closed_loop(self, svc, seconds: float) -> tuple[list[float], int, int]:
        """Keep ``outstanding`` requests in flight; returns per-slice
        seconds per request, requests sent, and requests that errored."""
        outstanding = self.sizes["outstanding"]
        seeds = self._draw_seeds(int(seconds * 20000) + outstanding)
        in_flight: deque = deque()
        done_at: list[float] = []
        sent = errored = 0
        t_start = time.perf_counter()
        t_end = t_start + seconds
        while time.perf_counter() < t_end:
            while len(in_flight) < outstanding:
                in_flight.append(svc.submit(int(seeds[sent])))
                sent += 1
            try:
                in_flight[0].result(REPLY_TIMEOUT_S)
            except Exception:   # counted just below, when it is popped
                pass
            now = time.perf_counter()
            while in_flight and in_flight[0].done():
                try:
                    in_flight.popleft().result(0)
                    done_at.append(now)
                except Exception:
                    errored += 1
        for fut in in_flight:               # drain what is still in flight
            try:
                fut.result(REPLY_TIMEOUT_S)
            except Exception:
                errored += 1
        per_slice = np.bincount(
            ((np.asarray(done_at) - t_start) / SLICE_S).astype(np.int64),
            minlength=1)
        full = per_slice[: max(int(seconds / SLICE_S), 1)]
        return [SLICE_S / c for c in full if c], sent, errored

    # -- untraced ----------------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        share_open, share_closed = (share / spec.ROUNDS
                                    for share in self.sizes["phase_shares"])
        rounds, per_request = [], []
        for _ in range(spec.ROUNDS):
            rounds.append(self.open_loop(self.svc, seconds * share_open))
            slices, sent, errored = self.closed_loop(
                self.svc, seconds * share_closed)
            per_request += slices
            out.attempted += sent
            if errored:
                out.fail(f"{errored} closed-loop requests errored", errored)
        # the open loop's size is fixed by its rate, and the service holds no
        # per-request state, so the peak is read once, at the end
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        self.open = rounds[-1]
        self._book_requests(rounds, out)
        role_timings(NAME, np.concatenate([r.latency_s() for r in rounds]),
                     per_request, out)
        out.extra["latency_ms_p99"] = out.extra.pop("main_ms_p99")
        return out

    def _book_requests(self, phases: list[OpenPhase], out: Outcome) -> None:
        sent = sum(p.sent for p in phases)
        refused = sum(p.refused for p in phases)
        expired = sum(p.expired for p in phases)
        errored = sum(p.errored for p in phases)
        answered = sum(len(p.answered) for p in phases)
        out.attempted += sent
        if errored:
            out.fail(f"open loop: {errored} requests errored", errored)
        if refused + expired:
            out.lose(f"open loop: {refused} refused, {expired} expired",
                     refused + expired)
        if sent != answered + refused + expired + errored:
            out.broken("sent != answered + refused + expired + errored")
        limit = self.sizes["latency_limit_ms"] / 1e3
        out.extra["goodput_share"] = float(
            sum((p.latency_s() <= limit).sum() for p in phases) / sent)
        out.extra["generator_lateness_ms_p99"] = float(np.percentile(
            np.concatenate([p.lateness_s() for p in phases]), 99) * 1e3)

    def check(self, out: Outcome) -> None:
        """Sampled replies against ``infer_minibatch`` on the materialising
        backend -- neither the service nor the kernels under test."""
        phase = self.open
        picks = self.rng.choice(
            len(phase.answered),
            size=min(self.sizes["checked_replies"], len(phase.answered)),
            replace=False)
        seeds = np.array([phase.seeds[phase.answered[j]] for j in picks])
        uniq, inverse = np.unique(seeds, return_inverse=True)
        want, _ = infer_minibatch(self.model, self.ds, MinigunBackend(), uniq)
        wrong = sum(not close_to(phase.replies[j][0], want[inverse[k]])
                    for k, j in enumerate(picks))
        if wrong:
            out.fail(f"{wrong} of {len(picks)} sampled replies differ from "
                     "infer_minibatch", wrong)

    # -- traced ------------------------------------------------------------
    def trace(self, seconds: float, spans_path) -> Outcome:
        out = Outcome()
        before = self.cache.stats()
        bare = self.open_loop(self.svc, seconds * 0.3)
        bare_signature = path_signature(before, self.cache.stats())
        self._book_requests([bare], out)

        tracer = Tracer()
        proxy = TimingProxy(self.backend, tracer)
        svc = self._service(proxy)
        series = CacheSeries(self.cache, spec.BIND_PASSES)
        try:
            phase = self.open = self.open_loop(svc, seconds * 0.7, series)
            series.sample()
            stats = svc.stats()
        finally:
            svc.close()
        self._book_requests([phase], out)
        if series.signature() != bare_signature:
            out.broken(f"path change under the proxy: untraced moved "
                       f"{bare_signature}, traced moved {series.signature()}")
        if series.recompiles():
            out.broken(f"{series.recompiles()} recompiles after warm-up")

        # one unit span per answered request, its parts rebuilt from its
        # ServeStats; the proxy's spans on the batcher thread stay unitless
        for k, i in enumerate(phase.answered):
            st = phase.stats[k]
            due, sub = phase.due[i], phase.submitted[i]
            unit = tracer.add("request", due, sub + st.total_seconds, None,
                              unit=f"request-{i}")
            tracer.add("serve.generator_lateness", due, sub, unit)
            t = sub + st.queue_seconds
            tracer.add("serve.queue", sub, t, unit)
            tracer.add("serve.sample", t, t + st.sample_seconds, unit)
            t += st.sample_seconds
            tracer.add("serve.compute", t, t + st.compute_seconds, unit)

        book_unattributed(tracer.spans, out)
        secs, calls, wall = per_unit(tracer.spans)
        backend_metrics(tracer.spans, proxy, secs, calls, wall, out)
        m = out.metrics
        queue = np.array([s.queue_seconds for s in phase.stats]) * 1e3
        m["serve.queue_ms_p50"] = float(np.median(queue))
        m["serve.queue_ms_p99"] = float(np.percentile(queue, 99))
        m["serve.sample_ms"] = float(np.median(
            [s.sample_seconds for s in phase.stats]) * 1e3)
        m["serve.compute_ms"] = float(np.median(
            [s.compute_seconds for s in phase.stats]) * 1e3)
        m["serve.batch_seeds_mean"] = stats["mean_batch_seeds"]
        m["serve.batch_requests_mean"] = stats["mean_batch_requests"]
        m["serve.occupancy_mean"] = \
            stats["mean_batch_seeds"] / stats["max_batch_seeds"]
        m["serve.dedup_ratio"] = \
            stats["unique_seeds_served"] / max(stats["seeds_served"], 1)
        m["serve.cache_hit_rate"] = stats["cache"]["hit_rate"]
        m["serve.rejected"] = float(stats["rejected"])
        m["serve.expired"] = float(stats["expired"])
        m["serve.generator_lateness_ms_p99"] = \
            out.extra["generator_lateness_ms_p99"]
        m["serve.goodput_share"] = out.extra["goodput_share"]
        m["minidgl.sampling.sample_ms"] = \
            stats["sample_seconds"] / max(stats["batches"], 1) * 1e3
        m.update(self._block_shape(phase))
        m.update(series.metrics())
        m.update(compile_metrics(self.setup_cache))
        m.update(self.setup_parts)
        stretch_metrics(NAME, bare.latency_s(), phase.latency_s(), out)
        tracer.write_jsonl(spans_path)
        return out

    def _block_shape(self, phase: OpenPhase) -> dict[str, float]:
        """What one request's blocks look like, sampled outside the service
        (full neighborhoods are deterministic, so these are the blocks)."""
        picks = phase.answered[:: max(len(phase.answered)
                                      // self.sizes["checked_replies"], 1)]
        edges, srcs = [], []
        for i in picks:
            blocks = build_blocks(self.ds.adj, np.array([phase.seeds[i]]),
                                  [FULL_NEIGHBORHOOD] * 2, self.rng)
            edges.append(sum(b.adj.nnz for b in blocks))
            srcs.append(blocks[0].num_src)
        return {"minidgl.sampling.block_edges_mean": float(np.mean(edges)),
                "minidgl.sampling.src_per_seed": float(np.mean(srcs))}
