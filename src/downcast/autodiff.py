"""Dense-tensor engine with reverse-mode differentiation.

The engine is define-by-run: every forward pass builds a fresh tape of
recorded operations, each holding closures that pull the output adjoint back
to its inputs. Everything is 64-bit; desk scale makes the cost irrelevant and
finite-difference checks need the precision headroom.

Broadcasting in binary elementwise operations is restricted to singleton
extents on equal-rank operands (the adjoint is then a sum over the singleton
axes); rank promotion is rejected so every adjoint rule stays auditable.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError
from .sparse import CsrMatrix


class Parameter:
    """Named trainable array with a persistent gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of one forward pass.

    Each entry is (output node id, ((input node id, pull), ...)) where `pull`
    maps the output adjoint to the input adjoint contribution. Node ids are
    assigned in execution order, so the record is topologically sorted by
    construction. A tape is confined to a single thread.
    """

    __slots__ = ("_records", "_param_nodes", "_next_id")

    def __init__(self):
        self._records: list[tuple[int, tuple]] = []
        self._param_nodes: list[tuple[Parameter, int]] = []
        self._next_id = 0

    def _new_node(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def _record(self, out_node: int, pulls: tuple) -> None:
        self._records.append((out_node, pulls))

    def parameter(self, p: Parameter) -> "Tensor":
        """Enter a parameter as a leaf of this tape."""
        t = Tensor(p.value, tape=self, node=self._new_node())
        self._param_nodes.append((p, t.node))
        return t

    def leaf(self, data) -> "Tensor":
        """Enter a non-parameter array whose adjoint is still wanted."""
        return Tensor(data, tape=self, node=self._new_node())

    def backward(self, loss: "Tensor") -> dict[int, np.ndarray]:
        """Accumulate d loss / d parameter into every registered Parameter.

        Parameters registered on this tape but not on the path to `loss`
        receive an exact-zero contribution. Returns the full adjoint map
        keyed by node id (useful for checking non-parameter leaves).
        """
        if loss.tape is not self:
            raise ContractError("loss was not produced by this tape")
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        adjoints: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
        for out_node, pulls in reversed(self._records):
            g = adjoints.get(out_node)
            if g is None:
                continue
            # pulls never write to their input, so an adjoint may alias another
            # node's; it is therefore summed out of place, never updated in place
            for in_node, pull in pulls:
                contrib = pull(g)
                acc = adjoints.get(in_node)
                adjoints[in_node] = contrib if acc is None else acc + contrib
        for p, node in self._param_nodes:
            g = adjoints.get(node)
            if g is not None:
                p.grad += g
        return adjoints


class Tensor:
    """A dense float64 array, optionally attached to a tape node."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Tape | None = None, node: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tracked = "tracked" if self.tape is not None else "constant"
        return f"Tensor(shape={self.data.shape}, {tracked})"

    # operator sugar; the module-level functions do the work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return negate(self)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data) -> Tensor:
    return Tensor(data)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _merge_tape(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands belong to different tapes")
    return tape


def _emit(tape: Tape | None, data: np.ndarray, pulls: list) -> Tensor:
    """Create the result tensor, recording it when any input is tracked."""
    if tape is None or not pulls:
        return Tensor(data)
    out = Tensor(data, tape=tape, node=tape._new_node())
    tape._record(out.node, tuple(pulls))
    return out


def _broadcast_check(a_shape, b_shape):
    if a_shape == b_shape:
        return
    if len(a_shape) != len(b_shape):
        raise DimensionError(f"rank mismatch {a_shape} vs {b_shape}")
    for ea, eb in zip(a_shape, b_shape):
        if ea != eb and ea != 1 and eb != 1:
            raise DimensionError(f"cannot broadcast {a_shape} with {b_shape}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    if len(shape) != len(g.shape):
        return np.asarray(g.sum()).reshape(shape)
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


# -- elementwise ------------------------------------------------------------


def _binary(a, b, fwd, da, db) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim and b.data.ndim:
        _broadcast_check(a.data.shape, b.data.shape)
    data = fwd(a.data, b.data)
    pulls = []
    if a.tape is not None:
        pulls.append((a.node, lambda g, a=a, b=b: _unbroadcast(da(g, a.data, b.data), a.data.shape)))
    if b.tape is not None:
        pulls.append((b.node, lambda g, a=a, b=b: _unbroadcast(db(g, a.data, b.data), b.data.shape)))
    return _emit(_merge_tape(a, b), data, pulls)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def _unary(x, fwd, dx) -> Tensor:
    x = _as_tensor(x)
    data = fwd(x.data)
    pulls = []
    if x.tape is not None:
        pulls.append((x.node, lambda g, x=x, data=data: dx(g, x.data, data)))
    return _emit(x.tape, data, pulls)


def negate(x) -> Tensor:
    return _unary(x, lambda v: -v, lambda g, v, out: -g)


def tanh(x) -> Tensor:
    return _unary(x, np.tanh, lambda g, v, out: g * (1.0 - out * out))


def sigmoid(x) -> Tensor:
    # 1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) otherwise, both from
    # one exp of -|v|, which never overflows
    def fwd(v):
        e = np.exp(-np.abs(v))
        return np.where(v >= 0, 1.0, e) / (1.0 + e)

    return _unary(x, fwd, lambda g, v, out: g * out * (1.0 - out))


def elu(x) -> Tensor:
    # alpha fixed at 1
    def fwd(v):
        return np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))

    return _unary(x, fwd, lambda g, v, out: g * np.where(v > 0, 1.0, out + 1.0))


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda g, v, out: g * out)


def absolute(x) -> Tensor:
    # subgradient 0 at the kink
    return _unary(x, np.abs, lambda g, v, out: g * np.sign(v))


# -- reductions ---------------------------------------------------------------


def reduce_sum(x, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None and axis >= x.data.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")
    data = x.data.sum(axis=axis)

    def pull(g, x=x, axis=axis):
        if axis is None:
            return np.broadcast_to(g, x.data.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy()

    pulls = [(x.node, pull)] if x.tape is not None else []
    return _emit(x.tape, data, pulls)


def reduce_mean(x, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None and axis >= x.data.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")
    n = x.data.size if axis is None else x.data.shape[axis]
    data = x.data.mean(axis=axis)

    def pull(g, x=x, axis=axis, n=n):
        if axis is None:
            return np.broadcast_to(g / n, x.data.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis) / n, x.data.shape).copy()

    pulls = [(x.node, pull)] if x.tape is not None else []
    return _emit(x.tape, data, pulls)


# -- structured ops -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul operands must be matrices")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"inner extents differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data
    pulls = []
    if a.tape is not None:
        pulls.append((a.node, lambda g, b=b: g @ b.data.T))
    if b.tape is not None:
        pulls.append((b.node, lambda g, a=a: a.data.T @ g))
    return _emit(_merge_tape(a, b), data, pulls)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax of a matrix, stabilised by per-row max subtraction."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("softmax_rows expects a matrix")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def pull(g, out=out):
        dot = (g * out).sum(axis=1, keepdims=True)
        return out * (g - dot)

    pulls = [(x.node, pull)] if x.tape is not None else []
    return _emit(x.tape, out, pulls)


def sparse_matmul(op: CsrMatrix, x, transpose: bool = False) -> Tensor:
    """Apply a constant sparse operator (optionally transposed) to each block of a matrix.

    `x` stacks B blocks of the operator's input size along its rows; each
    block gets the dense product of the materialised operator with it. The
    adjoint flows blockwise through the transposed operator back to `x`.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("sparse_matmul operand must be a matrix")
    data = op.apply(x.data, transpose=transpose)
    pulls = []
    if x.tape is not None:
        pulls.append((x.node, lambda g: op.apply(g, transpose=not transpose)))
    return _emit(x.tape, data, pulls)


def concat_cols(parts: list) -> Tensor:
    """Concatenate matrices with equal row counts along columns."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat_cols requires at least one operand")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise DimensionError("concat_cols operands must be matrices with equal rows")
    data = np.concatenate([p.data for p in parts], axis=1)
    pulls = []
    offset = 0
    for p in parts:
        w = p.data.shape[1]
        if p.tape is not None:
            pulls.append((p.node, lambda g, lo=offset, hi=offset + w: g[:, lo:hi]))
        offset += w
    return _emit(_merge_tape(*parts), data, pulls)


def concat_rows(parts: list) -> Tensor:
    """Concatenate matrices with equal column counts along rows.

    The same tensor may appear several times (row tiling); its adjoint then
    accumulates one slice per occurrence.
    """
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat_rows requires at least one operand")
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise DimensionError("concat_rows operands must be matrices with equal columns")
    data = np.concatenate([p.data for p in parts], axis=0)
    pulls = []
    offset = 0
    for p in parts:
        h = p.data.shape[0]
        if p.tape is not None:
            pulls.append((p.node, lambda g, lo=offset, hi=offset + h: g[lo:hi, :]))
        offset += h
    return _emit(_merge_tape(*parts), data, pulls)


def slice_cols(x, lo: int, hi: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("slice_cols expects a matrix")
    if not (0 <= lo <= hi <= x.data.shape[1]):
        raise DimensionError(f"slice [{lo}:{hi}] out of range for {x.data.shape}")
    data = x.data[:, lo:hi].copy()

    def pull(g, x=x, lo=lo, hi=hi):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = g
        return full

    pulls = [(x.node, pull)] if x.tape is not None else []
    return _emit(x.tape, data, pulls)
