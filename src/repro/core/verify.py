"""Kernel self-verification against a brute-force reference.

The tree-walk interpreter (independent of the compiled programs the
templates execute) yields a slow, obviously-correct executor: evaluate
the UDF for every edge and combine with a plain scatter loop.
:func:`verify_spmm` / :func:`verify_sddmm` run a kernel and that reference
side by side -- the "sanity check" a user reaches for after writing a new
UDF or FDS (and what the paper's accuracy section does at model level).

:func:`reference_spmm` / :func:`reference_sddmm` expose the brute-force
executors directly; the differential fuzzing harness
(:mod:`repro.testing.differential`) uses them as its oracle.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.sddmm import GeneralizedSDDMM
from repro.core.spmm import GeneralizedSpMM, _AGG_IDENTITY, _AGG_UFUNC
from repro.tensorir.evaluator import evaluate_batched

__all__ = [
    "verify_spmm",
    "verify_sddmm",
    "reference_spmm",
    "reference_sddmm",
    "VerificationError",
]


class VerificationError(AssertionError):
    """Kernel output disagrees with the brute-force reference.

    Carries ``max_abs_diff`` and ``atol`` so harnesses can report and rank
    mismatches without parsing the message.
    """

    def __init__(self, message: str, max_abs_diff: float | None = None,
                 atol: float | None = None):
        super().__init__(message)
        self.max_abs_diff = max_abs_diff
        self.atol = atol


def reference_spmm(kernel: GeneralizedSpMM, bindings) -> np.ndarray:
    """Brute-force SpMM: evaluate the UDF on every edge, scatter-combine."""
    csr = kernel.A.csr
    n_dst = kernel.A.num_dst
    base = kernel.aggregation if kernel.aggregation != "mean" else "sum"
    out = np.full((n_dst,) + kernel.msg_shape, _AGG_IDENTITY[base],
                  dtype=np.float32)
    rows = csr.row_of_edge()
    msgs = evaluate_batched(kernel.msg, bindings, {
        "src": csr.indices, "dst": rows, "eid": csr.edge_ids,
    })
    _AGG_UFUNC[base].at(out, rows, msgs)
    deg = np.diff(csr.indptr)
    out[deg == 0] = 0.0
    if kernel.aggregation == "mean":
        out /= np.maximum(deg, 1).reshape((-1,) + (1,) * (out.ndim - 1))
    return out


# Backwards-compatible alias (pre-public name).
_reference_spmm = reference_spmm


def reference_sddmm(kernel: GeneralizedSDDMM, bindings) -> np.ndarray:
    """Brute-force SDDMM: evaluate the edge UDF for every edge, indexed by
    original edge id."""
    csr = kernel.A.csr
    vals = evaluate_batched(kernel.edge_out, bindings, {
        "src": csr.indices, "dst": csr.row_of_edge(), "eid": csr.edge_ids,
    })
    ref = np.empty((kernel.A.nnz,) + kernel.out_shape, dtype=np.float32)
    ref[csr.edge_ids] = vals
    return ref


def verify_spmm(kernel: GeneralizedSpMM, bindings: Mapping[str, np.ndarray],
                atol: float = 1e-4) -> np.ndarray:
    """Run the kernel and the brute-force reference; raise on mismatch.

    Returns the kernel output on success.
    """
    got = kernel.run(bindings)
    ref = reference_spmm(kernel, bindings)
    if not np.allclose(got, ref, atol=atol, equal_nan=True):
        worst = float(np.nanmax(np.abs(got - ref)))
        raise VerificationError(
            f"generalized SpMM disagrees with the reference "
            f"(max abs diff {worst:.3g}, atol {atol:g}); check the FDS and "
            "partitioning configuration", max_abs_diff=worst, atol=atol)
    return got


def verify_sddmm(kernel: GeneralizedSDDMM, bindings: Mapping[str, np.ndarray],
                 atol: float = 1e-4) -> np.ndarray:
    """Run the kernel and the brute-force edge map; raise on mismatch."""
    got = kernel.run(bindings)
    ref = reference_sddmm(kernel, bindings)
    if not np.allclose(got, ref, atol=atol, equal_nan=True):
        worst = float(np.nanmax(np.abs(got - ref)))
        raise VerificationError(
            f"generalized SDDMM disagrees with the reference "
            f"(max abs diff {worst:.3g}, atol {atol:g})",
            max_abs_diff=worst, atol=atol)
    return got
