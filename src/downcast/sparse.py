"""Constant sparse operators applied blockwise to stacked dense operands.

Operators carry node selections, graph diffusion and edge incidence. They are
never differentiated through; gradients only flow through the dense operands
they are applied to.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError


class CsrMatrix:
    """Immutable canonical CSR operator of 64-bit floats and its transpose.

    Canonical means duplicates summed and column indices sorted; stored zeros
    are kept. The input is copied, so the caller's matrix is never modified.
    """

    __slots__ = ("csr", "csr_t")

    def __init__(self, m):
        self.csr = sp.csr_array(m, dtype=np.float64, copy=True)
        self.csr.sum_duplicates()
        self.csr_t = self.csr.T.tocsr()

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Apply the operator to each of the B stacked blocks of a (B*n_cols, d) matrix.

        The blocks are regrouped node-major as (n_cols, B*d) for one sparse
        product and the (n_rows, B*d) result is regrouped back to
        (B*n_rows, d). Every output entry is the same sum, in the same order,
        as the product with the B-fold block-diagonal operator.
        """
        op = self.csr_t if transpose else self.csr
        n_out, n_in = op.shape
        if x.ndim != 2 or n_in == 0 or x.shape[0] == 0 or x.shape[0] % n_in:
            raise DimensionError(
                f"operator has {n_in} columns; an operand of shape {x.shape} is not a stack of blocks"
            )
        blocks, width = x.shape[0] // n_in, x.shape[1]
        stacked = x.reshape(blocks, n_in, width).transpose(1, 0, 2).reshape(n_in, blocks * width)
        out = op @ stacked
        return out.reshape(n_out, blocks, width).transpose(1, 0, 2).reshape(blocks * n_out, width)
