"""The one reducer registry.

Every segmented reduction in the repository -- the SpMM templates'
aggregation and the standalone :mod:`repro.graph.segment` helpers --
used to carry its own ``{"sum": np.add, ...}`` table.  Each copy of the
same mapping is one more place for a new reducer (or a changed identity)
to drift apart; this module is now the single source of truth they all
consume.

A :class:`Reducer` bundles the numpy ufunc, the algebraic identity the
accumulators are seeded with, and whether the operation is
*order-insensitive* (max/min: any evaluation order yields bit-identical
results) -- the property the aggregation strategies' parity contract keys
off (see :mod:`repro.runtime.strategies`).

``"mean"`` is not a registry entry: it is ``sum`` plus a finalize divide,
and :func:`resolve_reducer` normalizes it for callers that accept it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Reducer", "REDUCERS", "get_reducer", "resolve_reducer",
           "AGG_UFUNC", "AGG_IDENTITY"]


@dataclass(frozen=True)
class Reducer:
    """One aggregation operator: ufunc + identity + ordering semantics."""

    name: str
    ufunc: np.ufunc
    identity: float
    #: True when any combine order gives bit-identical results (idempotent
    #: lattice ops); False for sum/prod, where reassociation moves last bits
    order_insensitive: bool


REDUCERS: dict[str, Reducer] = {
    "sum": Reducer("sum", np.add, 0.0, False),
    "max": Reducer("max", np.maximum, -np.inf, True),
    "min": Reducer("min", np.minimum, np.inf, True),
    "prod": Reducer("prod", np.multiply, 1.0, False),
}


def get_reducer(name: str) -> Reducer:
    """Registry lookup; raises ``ValueError`` on an unknown reducer."""
    try:
        return REDUCERS[name]
    except KeyError:
        raise ValueError(
            f"unknown reduction {name!r} (known: "
            f"{'/'.join(sorted(REDUCERS))})") from None


def resolve_reducer(op: str) -> tuple[Reducer, bool]:
    """``(reducer, is_mean)`` -- ``"mean"`` resolves to ``sum`` + a flag."""
    mean = op == "mean"
    return get_reducer("sum" if mean else op), mean


#: legacy-shaped views (name -> ufunc / identity) kept for the import sites
#: that predate the registry (``repro.core.spmm`` re-exports these)
AGG_UFUNC: dict[str, np.ufunc] = {n: r.ufunc for n, r in REDUCERS.items()}
AGG_IDENTITY: dict[str, float] = {n: r.identity for n, r in REDUCERS.items()}
