"""A native segmented sum: SciPy's ``csr_matvecs``, without ``scipy.sparse``.

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
per-edge message is ever gathered.

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
how the caller chunks its segments.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["BLOCK", "segment_sum"]

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


def _load_csr_matvecs():
    module = sys.modules.get(_NAME) or _load_from_file()
    if module is None:
        from scipy.sparse import _sparsetools as module
    return module.csr_matvecs


_csr_matvecs = _load_csr_matvecs()


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
    each row scaled by ``weight[p]`` when ``weight`` (one value per item)
    is given.  ``table`` is ``(rows, *feat)`` float32 or float64 (a strided
    view is copied once; so is a weight that is not already contiguous in
    the table's dtype); the result is ``(n_segments, *feat)`` with zeros
    for empty segments.
    """
    table = np.asarray(table)
    if table.dtype != np.float32 and table.dtype != np.float64:
        raise TypeError(
            f"segment_sum needs a float32/float64 table, got {table.dtype}")
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or len(indptr) < 1:
        raise ValueError("indptr must be a 1-D row pointer")
    feat = table.shape[1:]
    flat = np.ascontiguousarray(table).reshape(
        len(table), int(np.prod(feat, dtype=np.int64)))
    n_items = len(flat)
    if index is not None:
        index = np.asarray(index)
        n_items = len(index)
        if n_items and (index.min() < 0 or index.max() >= len(flat)):
            raise IndexError("segment_sum index escapes the table")
    if weight is not None:
        weight = np.ascontiguousarray(weight, dtype=table.dtype)
        if weight.shape != (n_items,):
            raise ValueError(
                f"segment_sum needs one weight per item ({n_items}), got "
                f"shape {weight.shape}")
    lengths = np.diff(indptr)
    if indptr[0] < 0 or indptr[-1] > n_items or (lengths < 0).any():
        raise ValueError(
            f"indptr must be non-decreasing within [0, {n_items}]")
    return _blocked_sum(indptr, lengths, flat, index, weight).reshape(
        (len(indptr) - 1,) + feat)
