"""Fingerprint-keyed caches of degree histograms and chunk boundaries.

Strategy selection and plan lowering both interrogate the topology --
degree histogram for :func:`~repro.runtime.strategies.resolve_sink_strategy`,
row-aligned chunk bounds (:func:`~repro.runtime.plan.row_aligned_chunks`)
for an SpMM plan's tasks and an SDDMM dot product's.  Both are pure
functions of the CSR structure, yet they used to be recomputed on **every
kernel invocation** -- repeated mini-batch inference over one graph paid the
``np.unique``/``searchsorted`` tax per call.

This module memoizes those derivations keyed by
:meth:`repro.graph.CSRMatrix.fingerprint` (a stable content hash, safe
across garbage collection unlike ``id()``).  The caches are small LRUs:
workloads cycle through a handful of graphs (train/valid/test splits,
partitions), not thousands.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.runtime.plan import row_aligned_chunks

__all__ = ["DegreeStats", "degree_stats", "chunk_bounds", "cache_info",
           "clear_caches"]

#: distinct (fingerprint, params) entries kept per cache
_CACHE_SIZE = 32


class _LRU(OrderedDict):
    def get_or_compute(self, key, compute):
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = compute()
        self[key] = value
        if len(self) > _CACHE_SIZE:
            self.popitem(last=False)
        return value


_degree_cache = _LRU()
_bounds_cache = _LRU()


@dataclass(frozen=True)
class DegreeStats:
    """The degree-histogram facts strategy selection consumes."""

    nnz: int              # total edges
    n_distinct: int       # distinct nonzero degrees

    @classmethod
    def of(cls, degrees) -> "DegreeStats":
        """The facts of one per-destination in-degree vector."""
        degrees = np.asarray(degrees)
        nonzero = degrees[degrees > 0]
        return cls(nnz=int(nonzero.sum()),
                   n_distinct=int(len(np.unique(nonzero))))


def degree_stats(csr) -> DegreeStats:
    """Degree histogram of ``csr``, cached on its fingerprint."""
    return _degree_cache.get_or_compute(
        csr.fingerprint(), lambda: DegreeStats.of(np.diff(csr.indptr)))


def chunk_bounds(csr, target: int) -> list[tuple[int, int]]:
    """Row-aligned chunk bounds for ``csr`` at ``target`` edges per chunk,
    cached on (fingerprint, target)."""
    def compute():
        return row_aligned_chunks(np.asarray(csr.indptr), int(target))
    return _bounds_cache.get_or_compute((csr.fingerprint(), int(target)),
                                        compute)


def cache_info() -> dict:
    """Entry counts per cache (diagnostics / tests)."""
    return {"degree": len(_degree_cache), "bounds": len(_bounds_cache)}


def clear_caches() -> None:
    _degree_cache.clear()
    _bounds_cache.clear()
