"""Constant sparse operators applied to node-major stacks of dense operands.

Operators carry node selections, graph diffusion and edge incidence. They are
never differentiated through; gradients only flow through the dense operands
they are applied to. Edge incidence is not applied through `CsrMatrix.apply`:
`autodiff.edge_messages` gathers by its column indices and scatters with its
transpose directly.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError


class CsrMatrix:
    """Immutable canonical CSR operator of 64-bit floats.

    Canonical means duplicates summed and column indices sorted; stored zeros
    are kept. The input is copied, so the caller's matrix is never modified.
    The transpose is `csr.T`, a CSC view that sums in the same order as a
    stored CSR transpose would.
    """

    __slots__ = ("csr",)

    def __init__(self, m):
        self.csr = sp.csr_array(m, dtype=np.float64, copy=True)
        self.csr.sum_duplicates()

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Apply the operator to a node-major stack, (n_cols * B, d) -> (n_rows * B, d).

        Node i's B rows are consecutive, so the stack is (n_cols, B*d) and
        the result (n_rows, B*d) without a copy. Every output entry is the
        same sum, in the same order, as the product with the operator
        Kronecker-multiplied by the B x B identity.
        """
        op = self.csr.T if transpose else self.csr
        n_in = op.shape[1]
        if x.ndim != 2 or n_in == 0 or x.shape[0] == 0 or x.shape[0] % n_in:
            raise DimensionError(
                f"operator has {n_in} columns; an operand of shape {x.shape} is not a stack of blocks"
            )
        return (op @ x.reshape(n_in, -1)).reshape(-1, x.shape[1])
