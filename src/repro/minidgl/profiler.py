"""Per-primitive profiling of minidgl kernel backends.

Wraps any backend (Minigun or FeatGraph) and records, per primitive, the
invocation count, wall-clock, and processed edge-elements -- the measurement
behind statements like the paper's "sparse operations in a GNN model account
for more than 60% of the total computation time".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.sparse import CSRMatrix

__all__ = ["ProfiledBackend", "OpRecord"]


@dataclass
class OpRecord:
    """Aggregate statistics for one primitive."""

    calls: int = 0
    seconds: float = 0.0
    edge_elements: int = 0

    def add(self, seconds: float, edge_elements: int):
        self.calls += 1
        self.seconds += seconds
        self.edge_elements += edge_elements


class ProfiledBackend:
    """A transparent profiling proxy around a minidgl kernel backend."""

    _PRIMITIVES = ("spmm_copy_sum", "spmm_mul_sum", "spmm_sum_t", "sddmm_dot")

    def __init__(self, inner):
        self.inner = inner
        self.name = f"profiled({inner.name})"
        self.records: dict[str, OpRecord] = {p: OpRecord()
                                             for p in self._PRIMITIVES}

    @property
    def materialized_bytes(self):
        return getattr(self.inner, "materialized_bytes", 0)

    def _timed(self, prim: str, adj: CSRMatrix, width: int, fn):
        t0 = time.perf_counter()
        out = fn()
        self.records[prim].add(time.perf_counter() - t0, adj.nnz * width)
        return out

    def spmm_copy_sum(self, adj: CSRMatrix, x: np.ndarray) -> np.ndarray:
        width = int(np.prod(x.shape[1:]))
        return self._timed("spmm_copy_sum", adj, width,
                           lambda: self.inner.spmm_copy_sum(adj, x))

    def spmm_mul_sum(self, adj: CSRMatrix, x: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
        width = int(np.prod(x.shape[1:]))
        return self._timed("spmm_mul_sum", adj, width,
                           lambda: self.inner.spmm_mul_sum(adj, x, w))

    def spmm_sum_t(self, adj: CSRMatrix, x: np.ndarray,
                   w: np.ndarray | None = None) -> np.ndarray:
        width = int(np.prod(x.shape[1:]))
        return self._timed("spmm_sum_t", adj, width,
                           lambda: self.inner.spmm_sum_t(adj, x, w))

    def sddmm_dot(self, adj: CSRMatrix, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
        width = int(np.prod(a.shape[1:]))
        return self._timed("sddmm_dot", adj, width,
                           lambda: self.inner.sddmm_dot(adj, a, b))

    # ------------------------------------------------------------------
    def total_sparse_seconds(self) -> float:
        return sum(r.seconds for r in self.records.values())

    def total_calls(self) -> int:
        return sum(r.calls for r in self.records.values())

    def reset(self):
        for r in self.records.values():
            r.calls = 0
            r.seconds = 0.0
            r.edge_elements = 0

    def summary(self) -> str:
        lines = [f"{self.name}:"]
        for prim, r in self.records.items():
            if r.calls == 0:
                continue
            lines.append(
                f"  {prim:<16} {r.calls:4d} calls  {r.seconds * 1e3:9.2f} ms"
                f"  {r.edge_elements:>14,} edge-elems")
        lines.append(f"  total sparse time: "
                     f"{self.total_sparse_seconds() * 1e3:.2f} ms")
        return "\n".join(lines)
