"""Sparse adjacency structures, built from scratch on numpy arrays.

The convention throughout the project follows the paper's pull-style
aggregation: the adjacency matrix ``A`` has one **row per destination
vertex**; the column indices of row ``v`` are the source neighbors
``N(v)``.  Vanilla SpMM ``A @ X`` then computes GCN aggregation
(paper Eq. 3), and SDDMM masks a dense-dense product by ``A`` (Eq. 4).

:class:`CSRMatrix` carries an explicit ``edge_ids`` array mapping each
stored nonzero to its original edge id, so edge-feature tensors survive
format conversions and reorderings (partitioning, Hilbert order).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["CSRMatrix", "COOMatrix", "from_edges"]


class COOMatrix:
    """Coordinate-format sparse matrix (row, col, edge id triples)."""

    def __init__(self, shape: tuple[int, int], row: np.ndarray, col: np.ndarray,
                 edge_ids: np.ndarray | None = None):
        self.shape = (int(shape[0]), int(shape[1]))
        self.row = np.ascontiguousarray(row, dtype=np.int64)
        self.col = np.ascontiguousarray(col, dtype=np.int64)
        if len(self.row) != len(self.col):
            raise ValueError("row/col length mismatch")
        if len(self.row) and (self.row.min() < 0 or self.row.max() >= self.shape[0]):
            raise ValueError("row index out of range")
        if len(self.col) and (self.col.min() < 0 or self.col.max() >= self.shape[1]):
            raise ValueError("col index out of range")
        if edge_ids is None:
            edge_ids = np.arange(len(self.row), dtype=np.int64)
        self.edge_ids = np.ascontiguousarray(edge_ids, dtype=np.int64)
        if len(self.edge_ids) != len(self.row):
            raise ValueError("edge_ids length mismatch")

    @property
    def nnz(self) -> int:
        return len(self.row)

    def to_csr(self) -> "CSRMatrix":
        order = np.lexsort((self.col, self.row))
        row = self.row[order]
        col = self.col[order]
        eid = self.edge_ids[order]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        counts = np.bincount(row, minlength=self.shape[0])
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(self.shape, indptr, col, eid)

    def transpose(self) -> "COOMatrix":
        return COOMatrix((self.shape[1], self.shape[0]), self.col, self.row, self.edge_ids)


class CSRMatrix:
    """Compressed-sparse-row adjacency with edge-id tracking."""

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray,
                 edge_ids: np.ndarray | None = None):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if len(self.indptr) != self.shape[0] + 1:
            raise ValueError("indptr length must be n_rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.shape[1]):
            raise ValueError("column index out of range")
        #: whether edge_ids is arange(nnz); None until someone asks
        self._positional = True if edge_ids is None else None
        if edge_ids is None:
            edge_ids = np.arange(len(self.indices), dtype=np.int64)
        self.edge_ids = np.ascontiguousarray(edge_ids, dtype=np.int64)
        if len(self.edge_ids) != len(self.indices):
            raise ValueError("edge_ids length mismatch")

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def fingerprint(self) -> str:
        """Stable content hash of this matrix (shape, nnz, structure arrays).

        Two CSRMatrix objects with identical structure hash identically, and
        the hash survives garbage collection / re-construction -- unlike
        ``id()``, which the kernel cache used to key on and which can be
        recycled for a new matrix at the same address.
        """
        if getattr(self, "_fingerprint", None) is None:
            h = hashlib.sha1()
            h.update(f"{self.shape[0]}x{self.shape[1]}:{self.nnz}".encode())
            h.update(self.indptr.tobytes())
            h.update(self.indices.tobytes())
            h.update(self.edge_ids.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def positional_edge_ids(self) -> bool:
        """Whether every nonzero's edge id is its own CSR position
        (``edge_ids == arange(nnz)``), so edge tensors are already in
        sweep order.  Compared once per matrix; one built without
        ``edge_ids`` knows without comparing."""
        if self._positional is None:
            self._positional = bool(np.array_equal(
                self.edge_ids, np.arange(self.nnz, dtype=np.int64)))
        return self._positional

    def row_degrees(self) -> np.ndarray:
        """Number of stored entries per row (in-degrees in pull layout)."""
        return np.diff(self.indptr)

    def col_degrees(self) -> np.ndarray:
        """Number of stored entries per column (out-degrees in pull layout)."""
        return np.bincount(self.indices, minlength=self.shape[1])

    def row_of_edge(self) -> np.ndarray:
        """Expand indptr to a per-nonzero row-index array."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_degrees())

    def to_coo(self) -> COOMatrix:
        return COOMatrix(self.shape, self.row_of_edge(), self.indices, self.edge_ids)

    def transpose(self) -> "CSRMatrix":
        """CSR of the transposed matrix (i.e. the CSC view of this one)."""
        return self.to_coo().transpose().to_csr()

    def select_columns(self, lo: int, hi: int) -> "CSRMatrix":
        """Sub-matrix with only columns in ``[lo, hi)`` (1D source partition).

        The result keeps the full shape and original column ids so feature
        indexing is unchanged; only the stored nonzeros are filtered.
        """
        mask = (self.indices >= lo) & (self.indices < hi)
        counts = np.zeros(self.shape[0], dtype=np.int64)
        rows = self.row_of_edge()[mask]
        np.add.at(counts, rows, 1)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(self.shape, indptr, self.indices[mask], self.edge_ids[mask])

    def permute_rows(self, perm: np.ndarray) -> "CSRMatrix":
        """Reorder rows so new row ``i`` is old row ``perm[i]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if len(perm) != self.shape[0] or len(np.unique(perm)) != len(perm):
            raise ValueError("perm must be a permutation of the rows")
        deg = self.row_degrees()[perm]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        # Gather each old row's slice into the new layout.
        starts = self.indptr[perm]
        offsets = np.arange(self.nnz, dtype=np.int64) - np.repeat(indptr[:-1], deg)
        src_pos = np.repeat(starts, deg) + offsets
        return CSRMatrix(self.shape, indptr, self.indices[src_pos], self.edge_ids[src_pos])

    def coalesce(self) -> tuple["CSRMatrix", np.ndarray]:
        """Merge parallel edges.

        Returns ``(simple_csr, multiplicity)`` where ``simple_csr`` has one
        entry per distinct (row, col) pair and ``multiplicity[k]`` counts how
        many original edges collapsed into entry ``k`` (usable as an edge
        weight to preserve sum-aggregation semantics).
        """
        rows = self.row_of_edge()
        cols = self.indices
        if self.nnz == 0:
            return CSRMatrix(self.shape, self.indptr, self.indices), \
                np.empty(0, dtype=np.int64)
        keys = rows * self.shape[1] + cols
        uniq, counts = np.unique(keys, return_counts=True)
        new_rows = uniq // self.shape[1]
        new_cols = uniq % self.shape[1]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_rows, minlength=self.shape[0]),
                  out=indptr[1:])
        return CSRMatrix(self.shape, indptr, new_cols), counts

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 adjacency (reference implementation aid; small graphs)."""
        out = np.zeros(self.shape, dtype=np.float32)
        out[self.row_of_edge(), self.indices] = 1.0
        return out

    def validate(self) -> None:
        """Internal consistency check (used by property-based tests)."""
        assert self.indptr[0] == 0 and self.indptr[-1] == self.nnz
        assert np.all(np.diff(self.indptr) >= 0)
        if self.nnz:
            assert self.indices.min() >= 0 and self.indices.max() < self.shape[1]
        assert len(self.edge_ids) == self.nnz

    def __repr__(self):
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


def from_edges(n_src: int, n_dst: int, src: np.ndarray, dst: np.ndarray) -> CSRMatrix:
    """Build the pull-layout CSR (rows = destinations) from an edge list.

    Edge ``i`` points ``src[i] -> dst[i]``; its feature index is ``i``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    coo = COOMatrix((n_dst, n_src), dst, src)
    return coo.to_csr()
