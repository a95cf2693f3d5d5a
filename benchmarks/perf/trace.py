"""Spans recorded by the benchmark around calls into each layer.

A span is ``[id, parent, name, start, end, unit]``: ``unit`` is the sweep /
epoch / pass / request the span belongs to, and a span opened inside another
on the same thread gets it as ``parent``.  Spans live in memory and are
written as JSON lines when the workload ends.  A span's *self time* is its
duration minus the part of it that its children cover, so self times of a
unit's spans add up to the unit's wall clock -- what is left uncovered in
the unit span itself is the run's unattributed time.

:class:`TimingProxy` wraps a minidgl backend without changing which branch
the model code takes: every public callable is wrapped, everything else
(``name``, ``target``, ``cache``, ``materialized_bytes``) is forwarded.
:func:`path_signature` is the evidence: the set of compile-cache counters
that moved names the code path (``fused_bind`` only moves on the fused path),
so a proxy that hides a primitive shows up as a different set.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ID, PARENT, NAME, START, END, UNIT = range(6)


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, unit=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if unit is None and parent is not None:
            unit = parent[UNIT]
        rec = [next(self._ids), None if parent is None else parent[ID],
               name, time.perf_counter(), None, unit]
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, unit=None):
        rec = self.begin(name, unit)
        try:
            yield rec
        finally:
            self.end(rec)

    def add(self, name: str, start: float, end: float, parent: list | None,
            unit=None) -> list:
        """Record a span rebuilt from the program's own counters (a
        kernel's ``exec_stats`` delta, a request's ``ServeStats``)."""
        if unit is None and parent is not None:
            unit = parent[UNIT]
        rec = [next(self._ids), None if parent is None else parent[ID],
               name, start, end, unit]
        self.spans.append(rec)
        return rec

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "unit")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part covered by child spans."""
    children: dict[int, list] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return {rec[ID]: (rec[END] - rec[START])
            - _covered(children.get(rec[ID], []), rec[START], rec[END])
            for rec in spans}


def layer_seconds(spans: list[list]) -> dict[str, float]:
    """Span name -> summed self time."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        out[rec[NAME]] += selfs[rec[ID]]
    return dict(out)


def layer_calls(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for rec in spans:
        out[rec[NAME]] += 1
    return dict(out)


def unit_roots(spans: list[list]) -> list[list]:
    """The spans that *are* a unit: no parent, and a unit id."""
    return [r for r in spans if r[PARENT] is None and r[UNIT] is not None]


def unattributed_share(spans: list[list]) -> float:
    """1 - (time inside layer spans) / (unit wall), over all unit spans."""
    roots = unit_roots(spans)
    wall = sum(r[END] - r[START] for r in roots)
    if wall <= 0:
        return 0.0
    selfs = self_times(spans)
    return sum(selfs[r[ID]] for r in roots) / wall


# ----------------------------------------------------------------------
# the timing proxy backend
# ----------------------------------------------------------------------

class TimingProxy:
    """A backend proxy that times **every** public callable of ``inner``
    and forwards every other attribute, so ``hasattr(backend, "fused_...")``
    and ``backend.target`` answer as they do for the bare backend."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        #: primitive -> processed edge-elements (nnz x widest per-row width)
        self.edge_elements: dict[str, int] = defaultdict(int)
        for attr in dir(inner):
            if attr.startswith("_"):
                continue
            value = getattr(inner, attr)
            if callable(value):
                setattr(self, attr, self._timed(attr, value))

    def __getattr__(self, attr):
        # only reached for what __init__ did not wrap: plain attributes
        return getattr(self._inner, attr)

    def _timed(self, prim: str, fn):
        tracer = self._tracer
        span_name = f"minidgl.backends.{prim}"

        def call(adj, *args, **kwargs):
            rec = tracer.begin(span_name)
            try:
                return fn(adj, *args, **kwargs)
            finally:
                tracer.end(rec)
                widths = [int(np.prod(a.shape[1:])) for a in args
                          if isinstance(a, np.ndarray)]
                self.edge_elements[prim] += adj.nnz * max(widths, default=1)

        call.__name__ = prim
        return call


# ----------------------------------------------------------------------
# compile-cache counters, sampled between units
# ----------------------------------------------------------------------

# hits/misses are left out: whether an evaluation pass finds its kernels
# still cached depends on LRU state, not on the path taken
_PATH_COUNTERS = ("binds", "fused_binds", "pipeline_runs", "fused_compiles")


def path_signature(before: dict, after: dict) -> tuple[str, ...]:
    """Names of the ``KernelCache.stats()`` counters (and pass counts) that
    rose between two snapshots: which compile/bind paths the code took."""
    moved = [k for k in _PATH_COUNTERS if after[k] > before[k]]
    for name, count in after["pass_counts"].items():
        if count > before["pass_counts"].get(name, 0):
            moved.append(f"pass:{name}")
    return tuple(sorted(moved))


class CacheSeries:
    """``KernelCache.stats()`` snapshots taken between units."""

    def __init__(self, cache, bind_passes: tuple[str, ...]):
        self._cache = cache
        self._bind_passes = bind_passes
        self.first = self.last = cache.stats()
        self.bind_us: list[float] = []   # per slice: mean bind time, us
        self.binds: list[int] = []       # per slice: binds
        self.samples = 0

    def sample(self) -> None:
        now = self._cache.stats()
        count = secs = 0.0
        for p in self._bind_passes:
            count += now["pass_counts"].get(p, 0) \
                - self.last["pass_counts"].get(p, 0)
            secs += now["pass_seconds"].get(p, 0.0) \
                - self.last["pass_seconds"].get(p, 0.0)
        self.binds.append(int(count))
        if count:
            self.bind_us.append(secs / count * 1e6)
        self.last = now
        self.samples += 1

    def recompiles(self) -> int:
        return int((self.last["pipeline_runs"] - self.first["pipeline_runs"])
                   + (self.last["fused_compiles"]
                      - self.first["fused_compiles"]))

    def _rate(self, hit_keys, miss_keys) -> float:
        hits = sum(self.last[k] - self.first[k] for k in hit_keys)
        misses = sum(self.last[k] - self.first[k] for k in miss_keys)
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict[str, float]:
        return {
            "core.bind_us_p50": float(np.median(self.bind_us))
            if self.bind_us else 0.0,
            "core.binds": float(np.mean(self.binds)) if self.binds else 0.0,
            "core.template_hit_rate": self._rate(
                ("template_hits", "fused_template_hits"),
                ("template_misses", "fused_template_misses")),
            "core.cache_hit_rate": self._rate(("hits",), ("misses",)),
            "core.recompiles_steady": float(self.recompiles()),
        }

    def signature(self) -> tuple[str, ...]:
        return path_signature(self.first, self.last)


class ExecStatsWalk:
    """Sums ``exec_stats`` over the kernels a ``KernelCache`` can reach
    (``entries()`` + ``peek()``), as deltas between calls.  Fused chains
    build a fresh ``FusedKernel`` per call that no public handle reaches, so
    on minidgl workloads this covers the staged kernels only (README.md)."""

    FIELDS = ("eval_seconds", "aggregate_seconds", "bytes_moved", "chunks",
              "compiled_chunks")

    def __init__(self, cache):
        self._cache = cache
        self._seen: dict = {}
        self.totals = dict.fromkeys(self.FIELDS, 0.0)
        self.walk(count=False)

    def walk(self, count: bool = True) -> None:
        seen = {}   # rebuilt each walk: evicted kernels drop out with it
        for spec in self._cache.entries():
            kernel = self._cache.peek(spec)
            stats = getattr(kernel, "exec_stats", None)
            if stats is None or not hasattr(stats, "as_dict"):
                continue
            now = seen[spec] = stats.as_dict()
            prev = self._seen.get(spec)
            if count:
                for f in self.FIELDS:
                    self.totals[f] += now[f] - (prev[f] if prev else 0.0)
        self._seen = seen
