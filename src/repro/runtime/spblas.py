"""Native segmented sums: SciPy's ``csr_matvecs`` and ``csc_matvecs``,
without ``scipy.sparse``.

numpy has no segmented sum worth the name -- ``np.add.reduceat`` runs its
generic inner loop once per segment and the degree-bucketed strategy pays
one ``ufunc.reduce`` per distinct degree -- but a segmented sum is exactly
*selector-CSR x dense block*: with ``A[i, j] = 1`` iff item ``j`` belongs
to segment ``i``, ``A @ table`` is the per-segment sum.  SciPy ships that
product as a compiled routine (``csr_matvecs`` in its ``_sparsetools``
extension), and ``scipy>=1.10`` is a declared dependency, so
:func:`segment_sum` is the hand-written SpMM inner loop the paper's CPU
template generates, obtained without a compiler.  With ``index=`` the
selector's column indices are the caller's (row ``index[p]`` of the table
stands for item ``p``) and with ``weight=`` its data are: handed a chunk
of the graph's own ``(indptr, indices)``, the edge weights and the feature
table, the routine *is* the vanilla SpMM of the paper's Table III -- no
per-edge message is ever gathered.  Its transpose comes from the same
extension: a CSR *is* the CSC of its transpose, so ``csc_matvecs`` on the
same ``(indptr, indices)`` computes ``Aᵀ @ table`` (:func:`scatter_sum`),
the backward of every SpMM, with no transposed copy of the graph.

**Why the extension is loaded from its file.**  ``csr_array @`` would do,
but importing the ``scipy.sparse`` *package* costs more than every kernel
in this repository: measured on the reference box, ``import numpy`` =
24.6 MB / 87 ms, plus ``scipy.sparse`` = 48.7 MB / 372 ms, plus only the
extension loaded straight from its file = 24.8 MB / +2 ms.  The plain
import moved the benchmark's ``peak_rss_mb`` by +10-23 % against a 5 %
bound.  So the module is located with ``importlib.util.find_spec("scipy")``
(which imports nothing) and loaded with an ``ExtensionFileLoader`` under
its real name ``scipy.sparse._sparsetools``, then taken out of
``sys.modules`` again: a later ``import scipy.sparse``
(``repro.baselines.mkl``) goes through its normal import, binds the
submodule on its package as usual, and CPython serves it from the
per-file extension cache without initialising the extension a second
time.  If ``scipy.sparse`` is already imported its module is used as is,
and only if the file is not where expected does the plain ``from
scipy.sparse import _sparsetools`` run.

Rounding: ``csr_matvecs`` accumulates each row sequentially in the table's
dtype, so float32 drift would grow with the segment length.  Segments
longer than :data:`BLOCK` items are therefore first summed in
``BLOCK``-item blocks (where the weights are applied) and the block
partials summed, unweighted, by the same routine (recursively), which
bounds the drift like numpy's pairwise sum does -- by the tree depth, not
the degree.  Each segment is reduced in one fixed
order that depends only on its own length, so results do not change with
how the caller chunks its segments.  The transpose product is not blocked:
:func:`scatter_sum` says what that costs in rounding.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["BLOCK", "segment_sum", "scatter_sum"]

#: longest run ``csr_matvecs`` sums sequentially; numpy's pairwise sum
#: switches to blocks at the same length
BLOCK = 128

_NAME = "scipy.sparse._sparsetools"


def _load_from_file():
    """``scipy/sparse/_sparsetools.<ext>`` loaded without importing its
    package, or ``None`` when no such file sits next to SciPy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(
                        _NAME, path, loader=loader))
                loader.exec_module(module)
                # single-phase extensions register themselves; without its
                # package imported the entry would be an orphan that a
                # later ``import scipy.sparse`` never binds on the package
                sys.modules.pop(_NAME, None)
                return module
    return None


def _load_sparsetools():
    module = sys.modules.get(_NAME) or _load_from_file()
    if module is None:
        from scipy.sparse import _sparsetools as module
    return module


_sparsetools = _load_sparsetools()
_csr_matvecs = _sparsetools.csr_matvecs
_csc_matvecs = _sparsetools.csc_matvecs


def _selector_sum(indptr: np.ndarray, index: np.ndarray | None,
                  table: np.ndarray,
                  weight: np.ndarray | None = None) -> np.ndarray:
    """One ``csr_matvecs`` call: ``out[i] = sum(weight[p] * table[index[p]]
    for p in range(indptr[i], indptr[i + 1]))`` over a C-contiguous
    ``(B, F)`` table (``index=None``: ``table[p]``; ``weight=None``: 1)."""
    if index is None:
        index = np.arange(
            indptr[-1], dtype=np.int32
            if len(table) <= np.iinfo(np.int32).max else np.int64)
    elif index.dtype not in (np.int32, np.int64):
        index = index.astype(np.int64)
    index = np.ascontiguousarray(index)
    indptr = np.ascontiguousarray(indptr, dtype=index.dtype)
    n_seg, width = len(indptr) - 1, table.shape[1]
    out = np.zeros((n_seg, width), dtype=table.dtype)
    if n_seg and width and len(index):
        if weight is None:
            weight = np.ones(len(index), dtype=table.dtype)
        _csr_matvecs(n_seg, len(table), width, indptr, index, weight,
                     table.reshape(-1), out.reshape(-1))
    return out


def _blocked_sum(indptr: np.ndarray, lengths: np.ndarray, flat: np.ndarray,
                 index: np.ndarray | None,
                 weight: np.ndarray | None) -> np.ndarray:
    """:func:`segment_sum` past its checks: ``flat`` is the contiguous
    ``(rows, F)`` table, ``lengths = diff(indptr)``, ``index`` is inside
    the table and ``weight`` contiguous in its dtype.  The weights scale
    the first-level products only; block partials are summed as they are."""
    while len(lengths) and lengths.max() > BLOCK:
        # block j of segment i starts BLOCK*(j - first_block[i]) past the
        # segment's own start; empty segments own no block
        n_blocks = -(-lengths // BLOCK)
        first_block = np.concatenate(([0], np.cumsum(n_blocks)))
        starts = np.repeat(indptr[:-1] - BLOCK * first_block[:-1], n_blocks) \
            + BLOCK * np.arange(first_block[-1])
        flat = _selector_sum(np.concatenate((starts, indptr[-1:])), index,
                             flat, weight)
        indptr, index, weight, lengths = first_block, None, None, n_blocks
    return _selector_sum(indptr, index, flat, weight)


def segment_sum(indptr, table, index=None, weight=None) -> np.ndarray:
    """Per-segment sums of ``table`` rows, in ``table``'s dtype.

    ``indptr`` is a CSR row pointer (``n_segments + 1`` non-decreasing
    offsets); segment ``i`` sums ``table[p]`` -- or ``table[index[p]]``
    when ``index`` is given -- for ``p`` in ``indptr[i]:indptr[i + 1]``,
    each row scaled by ``weight[p]`` when ``weight`` is given: one value
    per item, or per item and head (:func:`_head_weights`).  ``table`` is
    ``(rows, *feat)`` float32 or float64 (a strided view is copied once;
    so is a weight that is not already contiguous in the table's dtype);
    the result is ``(n_segments, *feat)`` with zeros for empty segments.
    """
    indptr, flat, feat = _checked_table("segment_sum", indptr, table)
    n_items = len(flat)
    if index is not None:
        index = np.asarray(index)
        n_items = len(index)
        if n_items and (index.min() < 0 or index.max() >= len(flat)):
            raise IndexError("segment_sum index escapes the table")
    weights = _head_weights("segment_sum", weight, n_items, feat, flat.dtype)
    lengths = _checked_lengths(indptr, n_items)
    return _per_head(flat, weights, lambda x, w: _blocked_sum(
        indptr, lengths, x, index, w)).reshape((len(indptr) - 1,) + feat)


def scatter_sum(indptr, indices, table, n_out, weight=None) -> np.ndarray:
    """The transpose product on a CSR: ``out[indices[p]] += weight[p] *
    table[i]`` for every ``p`` in ``indptr[i]:indptr[i + 1]``.

    A CSR *is* the CSC of its transpose, so this is SciPy's
    ``csc_matvecs`` on the caller's own ``(indptr, indices)`` -- ``Aᵀ(w ⊙
    x)`` with the weights in the CSR's order, no transposed copy, no
    permutation.  A per-item table is a CSR with one item per row:
    ``indptr = arange(m + 1)``.  ``table`` is ``(len(indptr) - 1, *feat)``
    float32 or float64 and the result ``(n_out, *feat)`` in its dtype;
    ``indices`` must lie in ``[0, n_out)``.  Weights, index dtypes, checks
    and copies are :func:`segment_sum`'s.

    Rounding: each output row sums its items sequentially in the table's
    dtype, in CSR order -- unlike :func:`segment_sum` there is no blocked
    tree, so float32 drift grows with the longest column (a float64
    accumulator was measured slower than the transposed-graph SpMM it
    replaces).  Against that SpMM the result is FG007 ``reassociated-fp``.
    """
    indptr, flat, feat = _checked_table("scatter_sum", indptr, table)
    if len(flat) != len(indptr) - 1:
        raise ValueError(f"scatter_sum needs one table row per CSR row "
                         f"({len(indptr) - 1}), got {len(flat)}")
    indices = np.asarray(indices)
    n_out, n_items = int(n_out), len(indices)
    if n_items and (indices.min() < 0 or indices.max() >= n_out):
        raise IndexError(f"scatter_sum index escapes the {n_out} output rows")
    weights = _head_weights("scatter_sum", weight, n_items, feat, flat.dtype)
    _checked_lengths(indptr, n_items)
    if indices.dtype != np.int32 and indices.dtype != np.int64:
        indices = indices.astype(np.int64)
    indices = np.ascontiguousarray(indices)
    indptr = np.ascontiguousarray(indptr, dtype=indices.dtype)

    def scatter(x, w):
        out = np.zeros((n_out, x.shape[1]), dtype=x.dtype)
        if n_items and x.shape[1]:
            if w is None:
                w = np.ones(n_items, dtype=x.dtype)
            _csc_matvecs(n_out, len(x), x.shape[1], indptr, indices, w,
                         x.reshape(-1), out.reshape(-1))
        return out

    return _per_head(flat, weights, scatter).reshape((n_out,) + feat)


def _head_weights(caller: str, weight, n_items: int, feat: tuple,
                  dtype) -> list:
    """The weight as one contiguous column per head (``[None]``: none).

    ``weight`` is one value per item, ``(n_items,)``, or per item and head,
    ``(n_items, *heads)`` with ``heads`` a strict prefix of the table's
    ``feat``: head ``k`` (row-major over ``heads``) is the ``k``-th equal
    run of each flattened table row, and ``weight[p, k]`` scales it."""
    if weight is None:
        return [None]
    shape = np.shape(weight)
    heads = shape[1:]
    if heads and (heads != feat[:len(heads)] or len(heads) == len(feat)):
        raise ValueError(f"{caller}'s per-head weight {shape} is no "
                         f"per-item prefix of the table's rows {feat}")
    n_heads = int(np.prod(heads, dtype=np.int64))
    if not n_heads:
        return [None]
    if shape[:1] != (n_items,):
        raise ValueError(f"{caller} needs one weight per item ({n_items}), "
                         f"got shape {shape}")
    return [_checked_weight(caller, w, n_items, dtype)
            for w in np.reshape(weight, (n_items, n_heads)).T]


def _per_head(flat: np.ndarray, weights: list, run) -> np.ndarray:
    """``run(table, weight)`` -> ``(rows_out, width)``, once per head on a
    contiguous copy of that head's columns of ``flat``, the outputs
    interleaved back into ``(rows_out, heads, width)``.  Head-major copies
    measured faster than strided views or an interleaved output: the copy
    is one pass over the table, while either of those spreads every call
    over ``heads`` times the cache lines.  The arithmetic is the same:
    every output element is the same sum in the same order."""
    if len(weights) == 1:
        return run(flat, weights[0])
    by_head = flat.reshape(len(flat), len(weights),
                           flat.shape[1] // len(weights))
    return np.stack([run(np.ascontiguousarray(by_head[:, k]), w)
                     for k, w in enumerate(weights)], axis=1)


def _checked_table(caller: str, indptr, table):
    """``(indptr, flat, feat)``: a 1-D row pointer and the float table as
    a C-contiguous ``(rows, prod(feat))`` view (copied once if strided)."""
    table = np.asarray(table)
    if table.dtype != np.float32 and table.dtype != np.float64:
        raise TypeError(
            f"{caller} needs a float32/float64 table, got {table.dtype}")
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or len(indptr) < 1:
        raise ValueError("indptr must be a 1-D row pointer")
    feat = table.shape[1:]
    flat = np.ascontiguousarray(table).reshape(
        len(table), int(np.prod(feat, dtype=np.int64)))
    return indptr, flat, feat


def _checked_weight(caller: str, weight, n_items: int, dtype):
    if weight is None:
        return None
    weight = np.ascontiguousarray(weight, dtype=dtype)
    if weight.shape != (n_items,):
        raise ValueError(
            f"{caller} needs one weight per item ({n_items}), got "
            f"shape {weight.shape}")
    return weight


def _checked_lengths(indptr: np.ndarray, n_items: int) -> np.ndarray:
    lengths = np.diff(indptr)
    if indptr[0] < 0 or indptr[-1] > n_items or (lengths < 0).any():
        raise ValueError(
            f"indptr must be non-decreasing within [0, {n_items}]")
    return lengths
