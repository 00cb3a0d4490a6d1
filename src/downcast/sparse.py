"""Compressed-row sparse matrices used as constant linear operators.

These matrices carry graph adjacency, node selections and edge incidence.
They are never differentiated through; gradients only flow through the dense
operands they are applied to.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError


class CsrMatrix:
    """Immutable CSR matrix of 64-bit floats."""

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_sp", "_sp_t")

    def __init__(self, n_rows: int, n_cols: int, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if self.indptr.shape != (self.n_rows + 1,):
            raise DimensionError("indptr length must be n_rows + 1")
        if self.indices.shape != self.data.shape:
            raise DimensionError("indices and data must have equal length")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n_cols):
            raise DimensionError("column index out of range")
        self._sp = None
        self._sp_t = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_entries(cls, n_rows, n_cols, rows, cols, vals) -> "CsrMatrix":
        """Build from coordinate entries; duplicate coordinates are summed."""
        m = sp.csr_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n_rows, n_cols)
        )
        m.sum_duplicates()
        m.sort_indices()
        return cls(n_rows, n_cols, m.indptr, m.indices, m.data)

    @classmethod
    def from_scipy(cls, m) -> "CsrMatrix":
        m = m.tocsr()
        m.sum_duplicates()
        m.sort_indices()
        m.eliminate_zeros()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    # -- views -------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def scipy(self) -> sp.csr_matrix:
        if self._sp is None:
            self._sp = sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols)
            )
        return self._sp

    def scipy_t(self) -> sp.csr_matrix:
        if self._sp_t is None:
            self._sp_t = self.scipy().T.tocsr()
        return self._sp_t

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix.from_scipy(self.scipy_t())

    def to_dense(self) -> np.ndarray:
        return self.scipy().toarray()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.scipy().sum(axis=1)).ravel()

    def rows(self, i: int) -> np.ndarray:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi]

    def entries(self):
        """Yield (row, col, value) triples in row-major order."""
        coo = self.scipy().tocoo()
        yield from zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())

    # -- algebra on constants ----------------------------------------------

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Apply the operator to each of the B stacked blocks of a (B*n_cols, d) matrix.

        The blocks are regrouped node-major as (n_cols, B*d) for one sparse
        product and the (n_rows, B*d) result is regrouped back to
        (B*n_rows, d). Every output entry is the same sum, in the same order,
        as the product with the B-fold block-diagonal operator.
        """
        op = self.scipy_t() if transpose else self.scipy()
        n_out, n_in = op.shape
        if x.ndim != 2 or n_in == 0 or x.shape[0] == 0 or x.shape[0] % n_in:
            raise DimensionError(
                f"operator has {n_in} columns; an operand of shape {x.shape} is not a stack of blocks"
            )
        blocks, width = x.shape[0] // n_in, x.shape[1]
        stacked = x.reshape(blocks, n_in, width).transpose(1, 0, 2).reshape(n_in, blocks * width)
        out = np.asarray(op @ stacked)
        return out.reshape(n_out, blocks, width).transpose(1, 0, 2).reshape(blocks * n_out, width)

    def row_normalized(self) -> "CsrMatrix":
        """Divide every nonempty row by its sum."""
        s = self.row_sums()
        inv = np.where(s != 0.0, 1.0 / np.where(s == 0.0, 1.0, s), 0.0)
        data = self.data * np.repeat(inv, np.diff(self.indptr))
        return CsrMatrix(self.n_rows, self.n_cols, self.indptr, self.indices, data)

    def power(self, p: int) -> "CsrMatrix":
        if self.n_rows != self.n_cols:
            raise DimensionError("matrix power requires a square matrix")
        out = self.scipy()
        for _ in range(p - 1):
            out = out @ self.scipy()
        return CsrMatrix.from_scipy(out)

