"""Dense-tensor engine with reverse-mode differentiation.

The engine is define-by-run: every forward pass builds a fresh tape of
recorded operations, each holding one vjp that pulls the output adjoint back
to all of its inputs. Everything is 64-bit; desk scale makes the cost
irrelevant and finite-difference checks need the precision headroom.

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

    Each entry is (output node id, input node ids, vjp) where `vjp` maps the
    output adjoint to one adjoint contribution per input, in order. An
    untracked input's node id is None, and its contribution, which the vjp
    may leave None, is skipped. Node ids are assigned in execution order, so
    the record is topologically sorted by construction. A tape is confined to
    a single thread, and `backward` adds into `Parameter.grad`, the only place
    a gradient is written: a training step cut into window shards records one
    tape per shard, one in the caller and one in a helper process, whose
    `p.grad` is its own.

    A tape is differentiated once: `backward` consumes the record, breaking
    the cycle from the vjp closures through their tensors back to the tape,
    so a step's arrays are freed by reference counting, not the cyclic GC.
    It frees them record by record, latest first: each record's vjp, the
    forward arrays only that vjp holds, and its output adjoint go before an
    earlier record runs, so the pass never holds the whole forward and every
    intermediate adjoint at once. Tensors the caller still holds keep their
    arrays.
    """

    __slots__ = ("_records", "_param_nodes", "_next_id")

    def __init__(self):
        self._records: list[tuple[int, tuple]] | None = []
        self._param_nodes: list[tuple[Parameter, int]] | None = []
        self._next_id = 0

    def _new_node(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def parameter(self, p: Parameter) -> "Tensor":
        """Enter a parameter as a leaf of this tape."""
        t = Tensor(p.value, tape=self, node=self._new_node())
        self._param_nodes.append((p, t.node))
        return t

    def leaf(self, data) -> "Tensor":
        """Enter a non-parameter array whose adjoint is still wanted."""
        return Tensor(data, tape=self, node=self._new_node())

    def backward(self, loss: "Tensor") -> dict[int, np.ndarray]:
        """Accumulate d loss / d parameter into every registered Parameter's `grad`.

        Parameters registered on this tape but not on the path to `loss`
        receive an exact-zero contribution. Returns the adjoints of the
        leaves and parameters on the path to `loss`, keyed by node id (useful
        for checking non-parameter leaves); an intermediate node's adjoint is
        freed with its record. The record is consumed, so a second call
        raises ContractError.
        """
        if loss.tape is not self:
            raise ContractError("loss was not produced by this tape")
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        if self._records is None:
            raise ContractError("this tape was already differentiated")
        records, param_nodes = self._records, self._param_nodes
        self._records = self._param_nodes = None
        adjoints: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
        while records:
            # every consumer of a node has a higher id, so its adjoint is
            # complete here; rebinding the names frees the last record's vjp
            # and adjoint before this one runs
            out_node, in_nodes, vjp = records.pop()
            g = adjoints.pop(out_node, None)
            if g is not None:
                _accumulate(adjoints, in_nodes, vjp(g))
        for p, node in param_nodes:
            g = adjoints.get(node)
            if g is not None:
                p.grad += g
        return adjoints


def _accumulate(adjoints: dict[int, np.ndarray], in_nodes: tuple, contribs) -> None:
    """Add one vjp's contributions to the adjoints of its tracked inputs.

    A function of its own, so its locals (the last contribution and the
    accumulator it replaced) are freed on return, not held through the
    next record's vjp.
    """
    # a vjp never writes to its input, so an adjoint may alias another
    # node's; it is therefore summed out of place, never updated in place
    for in_node, contrib in zip(in_nodes, contribs):
        if in_node is not None:
            acc = adjoints.get(in_node)
            adjoints[in_node] = contrib if acc is None else acc + contrib


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


def _emit(inputs, data: np.ndarray, vjp) -> Tensor:
    """Create the result tensor of an op on `inputs`, recording it when any input is tracked.

    `vjp(g)` maps the output adjoint to one adjoint per input, in order. The
    entry of an untracked input is never read, so the vjp may leave it None.
    """
    tape = _merge_tape(*inputs)
    if tape is None:
        return Tensor(data)
    out = Tensor(data, tape=tape, node=tape._new_node())
    tape._records.append((out.node, tuple(t.node for t in inputs), vjp))
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

    def vjp(g):
        return (
            _unbroadcast(da(g, a.data, b.data), a.data.shape) if a.tape is not None else None,
            _unbroadcast(db(g, a.data, b.data), b.data.shape) if b.tape is not None else None,
        )

    return _emit((a, b), data, vjp)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def _unary(x, fwd, dx) -> Tensor:
    x = _as_tensor(x)
    data = fwd(x.data)
    return _emit((x,), data, lambda g: (dx(g, x.data, data),))


def _sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) otherwise, both from
    # one exp of -|v|, which never overflows. The numerator, max(e, sign v),
    # is 1 or e without a data-dependent branch (mixed signs mispredict).
    # With `out` given (not `v` itself), `v` is overwritten as working
    # space and no array is allocated.
    num = np.sign(v, out=np.empty_like(v) if out is None else out)
    e = np.abs(v, out=np.empty_like(v) if out is None else v)
    np.exp(np.negative(e, out=e), out=e)
    np.maximum(e, num, out=num)
    return np.divide(num, np.add(e, 1.0, out=e), out=num)


def sigmoid(x) -> Tensor:
    return _unary(x, _sigmoid, lambda g, v, out: g * out * (1.0 - out))


def elu(x) -> Tensor:
    # alpha fixed at 1; max and min in place of a select (mixed signs mispredict)
    def fwd(v):
        out = np.minimum(v, 0.0, out=np.empty_like(v))
        return np.maximum(v, np.expm1(out, out=out), out=out)

    return _unary(x, fwd, lambda g, v, out: g * (np.minimum(out, 0.0) + 1.0))


def absolute(x) -> Tensor:
    # subgradient 0 at the kink
    return _unary(x, np.abs, lambda g, v, out: g * np.sign(v))


# -- reductions ---------------------------------------------------------------


def reduce_sum(x, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None and axis >= x.data.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")
    data = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return _emit((x,), data, vjp)


# -- structured ops -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul operands must be matrices")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"inner extents differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def vjp(g):
        return (g @ b.data.T if a.tape is not None else None, a.data.T @ g if b.tape is not None else None)

    return _emit((a, b), data, vjp)


def sparse_matmul(op: CsrMatrix, x, transpose: bool = False) -> Tensor:
    """Apply a constant sparse operator (optionally transposed) to a node-major stack.

    `x` holds B consecutive rows per input node, (n_in * B, d); the result
    holds B rows per output node. The adjoint flows through the transposed
    operator back to `x`.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("sparse_matmul operand must be a matrix")
    data = op.apply(x.data, transpose=transpose)
    return _emit((x,), data, lambda g: (op.apply(g, transpose=not transpose),))


def concat_rows(parts: list, groups: int = 1) -> Tensor:
    """Interleave matrices with equal column counts row group by row group.

    Each part splits into `groups` equal groups of consecutive rows; the
    output holds group 0 of every part in order, then group 1, and so on.
    With one group this is concatenation along rows. The same tensor may
    appear several times (row tiling); its adjoint then accumulates one
    slice per occurrence.
    """
    parts = [_as_tensor(p) for p in parts]
    if not parts or groups < 1:
        raise ContractError("concatenation requires at least one operand and one row group")
    w = parts[0].data.shape[-1] if parts[0].data.ndim else 0
    if any(p.data.ndim != 2 or p.data.shape[1] != w or p.data.shape[0] % groups for p in parts):
        raise DimensionError(f"operands must be matrices of equal column count whose rows split into {groups} groups")
    # a part's groups are the rows of its (groups, -1) view, so the
    # interleave is one concatenation of those views along columns
    data = np.concatenate([p.data.reshape(groups, -1) for p in parts], axis=1).reshape(-1, w)
    ends = np.cumsum([p.data.size // groups for p in parts]).tolist()
    spans = list(zip(parts, [0, *ends], ends))
    return _emit(parts, data, lambda g: [g.reshape(groups, -1)[:, lo:hi].reshape(p.data.shape) for p, lo, hi in spans])


def slice_rows(x, lo: int, hi: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("slice_rows expects a matrix")
    if not (0 <= lo <= hi <= x.data.shape[0]):
        raise DimensionError(f"slice [{lo}:{hi}] out of range for {x.data.shape}")

    def vjp(g):
        full = np.zeros_like(x.data)
        full[lo:hi] = g
        return (full,)

    return _emit((x,), x.data[lo:hi], vjp)


def add_blocks(x, y, repeat: int) -> Tensor:
    """Add row i of `y` (n, w) to rows i * repeat .. (i + 1) * repeat - 1 of every block of `x`.

    `x` stacks blocks of n * repeat rows, (blocks * n * repeat, w). The
    broadcast is a view, so `y` is never tiled; its adjoint is the sum of
    the output adjoint over the blocks and the repeats.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    rows = y.data.shape[0] * repeat if y.data.ndim == 2 else 0
    if x.data.ndim != 2 or rows == 0 or x.data.shape[1] != y.data.shape[1] or x.data.shape[0] % rows:
        raise DimensionError(
            f"a matrix of shape {x.data.shape} is not row blocks of {repeat} repeats of shape {y.data.shape}"
        )
    shape = (-1, y.data.shape[0], repeat, y.data.shape[1])
    data = (x.data.reshape(shape) + y.data[:, None]).reshape(x.data.shape)
    return _emit((x, y), data, lambda g: (g, g.reshape(shape).sum(axis=(0, 2)) if y.tape is not None else None))


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    """The same entries in another shape, in row-major order; the adjoint is reshaped back."""
    x = _as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {x.data.shape} to {shape}") from None
    return _emit((x,), data, lambda g: (g.reshape(x.data.shape),))


# -- fused primitives ------------------------------------------------------------


def gru_scan(seq, n_steps: int, steps, w_in, w_hid, bias) -> Tensor:
    """Run a gated recurrent unit over chosen steps of a time-major sequence.

    `seq` stacks `n_steps` blocks of equal row count; the unit reads the
    blocks listed in `steps` (strictly increasing) from a zero state. `w_in`
    (3, d_in, d_h), `w_hid` (3, d_h, d_h) and `bias` (3, 1, d_h) stack the
    reset, update and candidate gates, in that order. Per step, with
    g = (x @ w_in + h @ w_hid) + bias:

        r = sigmoid(g_reset), u = sigmoid(g_update)
        c = tanh((x @ w_in + (r * h) @ w_hid) + bias)   (candidate weights)
        h = u * h + (1 - u) * c

    Returns every state stacked time-major, (len(steps) * rows, d_h). Each
    step's input projection for the three gates is one product into one
    buffer. When the result is recorded, the per-step factors are kept, and
    the adjoint runs backpropagation through time with one product per
    weight gradient. The step loops write into preallocated arrays rather
    than allocate a temporary per operation.
    """
    x, weights = _as_tensor(seq), [_as_tensor(w) for w in (w_in, w_hid, bias)]
    w_in, w_hid, bias = (w.data for w in weights)
    steps = np.asarray(steps, dtype=np.int64)
    n_rows, d_in = x.data.shape if x.data.ndim == 2 else (0, 0)
    if n_steps < 1 or n_rows == 0 or n_rows % n_steps:
        raise DimensionError(f"a sequence of shape {x.data.shape} is not a stack of {n_steps} blocks")
    if steps.ndim != 1 or steps.size == 0 or steps[0] < 0 or steps[-1] >= n_steps or np.any(np.diff(steps) <= 0):
        raise ContractError("steps must be strictly increasing indices into the sequence")
    d_h = w_hid.shape[-1] if w_hid.ndim else 0
    if w_in.shape != (3, d_in, d_h) or w_hid.shape != (3, d_h, d_h) or bias.shape != (3, 1, d_h):
        raise DimensionError(
            f"weights {w_in.shape}, {w_hid.shape}, {bias.shape} are not (3, {d_in}, d_h), (3, d_h, d_h), (3, 1, d_h)"
        )
    m, n_t = n_rows // n_steps, steps.size
    x3 = x.data.reshape(n_steps, m, d_in)
    recorded = _merge_tape(x, *weights) is not None
    n_kept = n_t if recorded else 1
    ru_all = np.empty((2, n_kept, m, d_h))  # reset and update gates
    c_all, rh_all = np.empty((n_kept, m, d_h)), np.empty((n_kept, m, d_h))
    states = np.empty((n_t, m, d_h))
    proj, a_ru, a_c, tmp = np.empty((3, m, d_h)), np.empty((2, m, d_h)), np.empty((m, d_h)), np.empty((m, d_h))
    # the biases broadcast once: a per-step add with a broadcast operand is
    # about three times slower than one of equal shapes
    b_ru, b_c = np.broadcast_to(bias[:2], (2, m, d_h)).copy(), np.broadcast_to(bias[2], (m, d_h)).copy()
    h = np.zeros((m, d_h))
    for t in range(n_t):
        k = t if recorded else 0
        ru, c, rh = ru_all[:, k], c_all[k], rh_all[k]
        np.matmul(x3[steps[t]], w_in, out=proj)
        np.add(proj[:2], np.matmul(h, w_hid[:2], out=a_ru), out=a_ru)
        _sigmoid(np.add(a_ru, b_ru, out=a_ru), out=ru)
        r, u = ru
        np.multiply(r, h, out=rh)
        np.add(proj[2], np.matmul(rh, w_hid[2], out=a_c), out=a_c)
        np.tanh(np.add(a_c, b_c, out=a_c), out=c)
        np.multiply(u, h, out=tmp)
        np.multiply(np.subtract(1.0, u, out=a_c), c, out=a_c)
        h = np.add(tmp, a_c, out=states[t])
    data = states.reshape(n_t * m, d_h)

    def vjp(g):
        g = g.reshape(n_t, m, d_h)
        da = np.empty((3, n_t, m, d_h))  # pre-activation adjoints per gate
        dx = np.zeros((n_steps, m, d_in)) if x.tape is not None else None  # unread steps stay zero
        dh, zero = np.zeros((m, d_h)), np.zeros((m, d_h))
        d_rh, t1, t2, one_u = (np.empty((m, d_h)) for _ in range(4))
        d_hid, d_in3 = np.empty((2, m, d_h)), np.empty((3, m, d_in))
        # contiguous transposed weights: a product with a transposed view is
        # about twice as slow at these shapes
        w_hid_t, w_in_t = (np.ascontiguousarray(w.transpose(0, 2, 1)) for w in (w_hid, w_in))
        for t in range(n_t - 1, -1, -1):
            np.add(dh, g[t], out=dh)
            h_prev = states[t - 1] if t else zero
            r, u, c = ru_all[0, t], ru_all[1, t], c_all[t]
            np.subtract(1.0, u, out=one_u)
            # candidate: dc = dh * (1 - u), through tanh
            np.multiply(dh, one_u, out=t1)
            np.multiply(t1, np.subtract(1.0, np.multiply(c, c, out=t2), out=t2), out=da[2, t])
            np.matmul(da[2, t], w_hid_t[2], out=d_rh)
            # reset: dr = d(r * h) * h, through sigmoid
            np.multiply(np.multiply(d_rh, h_prev, out=t1), r, out=t1)
            np.multiply(t1, np.subtract(1.0, r, out=t2), out=da[0, t])
            # update: du = dh * h - dh * c, through sigmoid
            np.subtract(np.multiply(dh, h_prev, out=t1), np.multiply(dh, c, out=t2), out=t1)
            np.multiply(np.multiply(t1, u, out=t1), one_u, out=da[1, t])
            # previous state: through u * h, r * h and the reset and update products
            np.add(np.multiply(dh, u, out=dh), np.multiply(d_rh, r, out=t1), out=dh)
            np.matmul(da[:2, t], w_hid_t[:2], out=d_hid)
            np.add(np.add(dh, d_hid[0], out=dh), d_hid[1], out=dh)
            if dx is not None:
                np.matmul(da[:, t], w_in_t, out=d_in3)
                np.add(np.add(d_in3[0], d_in3[1], out=dx[steps[t]]), d_in3[2], out=dx[steps[t]])
        da = da.reshape(3, n_t * m, d_h)
        d_w_hid = np.empty((3, d_h, d_h))
        # the state before step t is row block t - 1 of the output; step 0 starts from zero
        np.matmul(data[: (n_t - 1) * m].T, da[:2, m:], out=d_w_hid[:2])
        np.matmul(rh_all.reshape(n_t * m, d_h).T, da[2], out=d_w_hid[2])
        d_bias = np.matmul(np.ones((1, n_t * m)), da)
        xs = x.data if n_t == n_steps else x3[steps].reshape(n_t * m, d_in)
        return None if dx is None else dx.reshape(n_rows, d_in), np.matmul(xs.T, da), d_w_hid, d_bias

    return _emit((x, *weights), data, vjp)


def edge_messages(x, src: CsrMatrix, recv: CsrMatrix, weight: np.ndarray, w1, w2, w3) -> Tensor:
    """Gated edge messages summed at their receivers, in each block of a node-major stack.

    `x` holds `blocks` consecutive rows per node, (n * blocks, d). `src` and
    `recv` are the (E, n) edge incidence operators, each row a single 1.0 at
    the edge's sender or receiver, and `weight` holds the E edge weights,
    (E, 1). `w1` (2d + 1, d) splits by rows into receiver, sender and weight
    parts. Per edge e and block:

        h = elu(x[recv_e] @ w1_recv + x[src_e] @ w1_src + weight_e * w1_weight)
        m = h @ w2
        message_e = sigmoid(m @ w3) * m

    Returns the messages summed at each receiver in ascending edge order,
    (n * blocks, d). The node rows are projected before the gathers, so the
    first product runs on n rows per block, not E. Edge arrays are
    edge-major, (E, blocks, d): a gather copies a node's consecutive rows,
    and the receiver sum and the adjoint's scatters are each one product
    with a transposed incidence. Only the elu output, m and the gate
    are kept for the adjoint, and only when the result is recorded;
    otherwise the edge arrays are overwritten in place.
    """
    x, w1, w2, w3 = (_as_tensor(t) for t in (x, w1, w2, w3))
    n_edges, n = recv.shape
    n_rows, d = x.data.shape if x.data.ndim == 2 else (0, 0)
    if src.shape != recv.shape or n == 0 or n_rows == 0 or n_rows % n or weight.shape != (n_edges, 1):
        raise DimensionError(
            f"nodes of shape {x.data.shape} and {n_edges} edge weights do not fit {n}-node incidence operators"
        )
    if w1.data.shape != (2 * d + 1, d) or w2.data.shape != (d, d) or w3.data.shape != (d, d):
        raise DimensionError(f"message weights must be ({2 * d + 1}, {d}), ({d}, {d}) and ({d}, {d})")
    blocks = n_rows // n
    recv_idx, src_idx = recv.csr.indices, src.csr.indices
    w1_recv, w1_src, w1_weight = w1.data[:d], w1.data[d : 2 * d], w1.data[2 * d :]
    h = (x.data @ w1_recv).reshape(n, blocks, d)[recv_idx]
    h += (x.data @ w1_src).reshape(n, blocks, d)[src_idx]
    h += weight[:, :, None] * w1_weight
    tmp = np.minimum(h, 0.0)
    np.maximum(h, np.expm1(tmp, out=tmp), out=h)  # elu, as `elu`
    h = h.reshape(n_edges * blocks, d)
    m = h @ w2.data
    a = np.matmul(m, w3.data, out=tmp.reshape(n_edges * blocks, d))
    recorded = _merge_tape(x, w1, w2, w3) is not None
    gate = _sigmoid(a, out=np.empty_like(a) if recorded else h)  # unrecorded: h is spent
    gated = np.multiply(gate, m, out=a)
    data = (recv.csr.T @ gated.reshape(n_edges, blocks * d)).reshape(n_rows, d)

    def vjp(g):
        d_gated = g.reshape(n, blocks, d)[recv_idx].reshape(n_edges * blocks, d)
        # through gate * m, then the sigmoid, in the op-by-op order
        d_a = np.multiply(d_gated, m)
        np.multiply(d_a, gate, out=d_a)
        np.multiply(d_a, np.subtract(1.0, gate), out=d_a)
        d_m = np.multiply(d_gated, gate, out=d_gated)
        d_m += d_a @ w3.data.T
        d_pre = d_m @ w2.data.T
        slope = np.minimum(h, 0.0)
        np.multiply(d_pre, np.add(slope, 1.0, out=slope), out=d_pre)  # through the elu
        grads = [None, None, h.T @ d_m, m.T @ d_a]
        if x.tape is not None or w1.tape is not None:
            d_pre = d_pre.reshape(n_edges, blocks * d)
            at_recv = (recv.csr.T @ d_pre).reshape(n * blocks, d)
            at_src = (src.csr.T @ d_pre).reshape(n * blocks, d)
            if x.tape is not None:
                grads[0] = at_recv @ w1_recv.T + at_src @ w1_src.T
            if w1.tape is not None:
                d_weight = (weight.T @ d_pre).reshape(blocks, d).sum(axis=0, keepdims=True)
                grads[1] = np.concatenate([x.data.T @ at_recv, x.data.T @ at_src, d_weight])
        return grads

    return _emit((x, w1, w2, w3), data, vjp)


def scale_attention(stacked, n_scales: int, theta) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted mixtures of S equally shaped encodings, per row.

    `stacked` holds each row's S encodings consecutively, (rows * S, d),
    which is (rows, S, d) without a copy. Scores are `stacked` times `theta`
    (d, n_sets), one product, (rows, S, n_sets); each score set gets a
    softmax over the S encodings, and every row mixes its S encodings with
    one batched product, (rows, n_sets, S) @ (rows, S, d). Returns the
    mixtures with the sets innermost, (rows * n_sets, d), and the weights,
    (rows, n_sets, S).
    """
    x, theta = _as_tensor(stacked), _as_tensor(theta)
    n_rows, d = x.data.shape if x.data.ndim == 2 else (0, 0)
    if n_scales < 1 or n_rows == 0 or n_rows % n_scales:
        raise DimensionError(f"encodings of shape {x.data.shape} are not a stack of {n_scales} blocks")
    if theta.data.ndim != 2 or theta.data.shape[0] != d:
        raise DimensionError(f"score weights of shape {theta.data.shape} do not fit encodings of width {d}")
    n_s, m, n_sets = n_scales, n_rows // n_scales, theta.data.shape[1]
    z = x.data.reshape(m, n_s, d)
    scores = (x.data @ theta.data).reshape(m, n_s, n_sets)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)  # (rows, S, n_sets)
    alphas = weights.transpose(0, 2, 1)
    data = (alphas @ z).reshape(m * n_sets, d)

    def vjp(g):
        g = g.reshape(m, n_sets, d)
        d_weights = z @ g.transpose(0, 2, 1)  # (rows, S, n_sets)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
        d_scores = d_scores.reshape(n_rows, n_sets)
        dz = None
        if x.tape is not None:
            dz = (weights @ g).reshape(n_rows, d)
            dz += d_scores @ theta.data.T
        return dz, (x.data.T @ d_scores if theta.tape is not None else None)

    return _emit((x, theta), data, vjp), alphas
