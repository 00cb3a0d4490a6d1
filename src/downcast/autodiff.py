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

    Each entry is (output node id, input node ids, vjp) where `vjp` maps the
    output adjoint to one adjoint contribution per input, in order. Node ids
    are assigned in execution order, so the record is topologically sorted by
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

    def _record(self, out_node: int, in_nodes: tuple, vjp) -> None:
        self._records.append((out_node, in_nodes, vjp))

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
        for out_node, in_nodes, vjp in reversed(self._records):
            g = adjoints.get(out_node)
            if g is None:
                continue
            # a vjp never writes to its input, so an adjoint may alias another
            # node's; it is therefore summed out of place, never updated in place
            for in_node, contrib in zip(in_nodes, vjp(g)):
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
    """Create the result tensor, recording it when any input is tracked.

    `pulls` holds one (input node id, pull) pair per tracked input, where
    `pull` maps the output adjoint to that input's contribution.
    """
    if tape is None or not pulls:
        return Tensor(data)
    fns = tuple(pull for _, pull in pulls)
    return _emit_joint(tape, data, tuple(node for node, _ in pulls), lambda g: [f(g) for f in fns])


def _emit_joint(tape: Tape, data: np.ndarray, in_nodes: tuple, vjp) -> Tensor:
    """Record an op whose adjoints share work: `vjp(g)` returns one per input node."""
    out = Tensor(data, tape=tape, node=tape._new_node())
    tape._record(out.node, in_nodes, vjp)
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
    # alpha fixed at 1
    def fwd(v):
        return np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))

    return _unary(x, fwd, lambda g, v, out: g * np.where(v > 0, 1.0, out + 1.0))


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


def slice_rows(x, lo: int, hi: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("slice_rows expects a matrix")
    if not (0 <= lo <= hi <= x.data.shape[0]):
        raise DimensionError(f"slice [{lo}:{hi}] out of range for {x.data.shape}")

    def pull(g, x=x, lo=lo, hi=hi):
        full = np.zeros_like(x.data)
        full[lo:hi] = g
        return full

    pulls = [(x.node, pull)] if x.tape is not None else []
    return _emit(x.tape, x.data[lo:hi], pulls)


# -- fused primitives ------------------------------------------------------------


def gru_scan(seq, n_steps: int, steps, gates) -> Tensor:
    """Run a gated recurrent unit over chosen steps of a time-major sequence.

    `seq` stacks `n_steps` blocks of equal row count; the unit reads the
    blocks listed in `steps` (strictly increasing) from a zero state. `gates`
    holds (w_in, w_hid, bias) for the reset, update and candidate gates, in
    that order. Per step, with g = (x @ w_in + h @ w_hid) + bias:

        r = sigmoid(g_reset), u = sigmoid(g_update)
        c = tanh((x @ w_in + (r * h) @ w_hid) + bias)   (candidate weights)
        h = u * h + (1 - u) * c

    Returns every state stacked time-major, (len(steps) * rows, d_h). When
    the result is recorded, the input projections of all steps and gates are
    one product, the per-step factors are kept, and the adjoint runs
    backpropagation through time with one product per weight gradient. The
    step loops write into preallocated arrays, because a fresh temporary the
    size of a batch's gates is mapped and page-faulted anew on every step.
    """
    x = _as_tensor(seq)
    weights = [_as_tensor(w) for gate in gates for w in gate]
    if len(weights) != 9:
        raise ContractError("gru_scan takes (w_in, w_hid, bias) for three gates")
    steps = np.asarray(steps, dtype=np.int64)
    n_rows, d_in = x.data.shape if x.data.ndim == 2 else (0, 0)
    if n_steps < 1 or n_rows == 0 or n_rows % n_steps:
        raise DimensionError(f"a sequence of shape {x.data.shape} is not a stack of {n_steps} blocks")
    if steps.ndim != 1 or steps.size == 0 or steps[0] < 0 or steps[-1] >= n_steps or np.any(np.diff(steps) <= 0):
        raise ContractError("steps must be strictly increasing indices into the sequence")
    # gates stacked on a leading axis (reset, update, candidate), so every
    # per-gate block in the loops below is contiguous
    w_in = np.stack([w.data for w in weights[0::3]])
    w_hid = np.stack([w.data for w in weights[1::3]])
    bias = np.stack([w.data for w in weights[2::3]])
    d_h = w_hid.shape[2]
    if w_in.shape != (3, d_in, d_h) or w_hid.shape != (3, d_h, d_h) or bias.shape != (3, 1, d_h):
        raise DimensionError("gate weights must be (d_in, d_h), (d_h, d_h) and (1, d_h)")
    m, n_t = n_rows // n_steps, steps.size
    all_steps = n_t == n_steps
    x3 = x.data.reshape(n_steps, m, d_in)
    tape = _merge_tape(x, *weights)
    if tape is not None:
        xs = x.data if all_steps else x3[steps].reshape(n_t * m, d_in)
        proj = np.matmul(xs, w_in).reshape(3, n_t, m, d_h)
    else:
        proj_t = np.empty((3, m, d_h))
    n_kept = n_t if tape is not None else 1
    ru_all = np.empty((2, n_kept, m, d_h))  # reset and update gates
    c_all, rh_all = np.empty((n_kept, m, d_h)), np.empty((n_kept, m, d_h))
    states = np.empty((n_t, m, d_h))
    a_ru, a_c, tmp = np.empty((2, m, d_h)), np.empty((m, d_h)), np.empty((m, d_h))
    h = np.zeros((m, d_h))
    for t in range(n_t):
        k = t if tape is not None else 0
        ru, c, rh = ru_all[:, k], c_all[k], rh_all[k]
        # with nothing to differentiate, each step is projected into one
        # buffer: the all-steps product would be a large fresh temporary
        p = proj[:, t] if tape is not None else np.matmul(x3[steps[t]], w_in, out=proj_t)
        np.add(p[:2], np.matmul(h, w_hid[:2], out=a_ru), out=a_ru)
        _sigmoid(np.add(a_ru, bias[:2], out=a_ru), out=ru)
        r, u = ru
        np.multiply(r, h, out=rh)
        np.add(p[2], np.matmul(rh, w_hid[2], out=a_c), out=a_c)
        np.tanh(np.add(a_c, bias[2], out=a_c), out=c)
        np.multiply(u, h, out=tmp)
        np.multiply(np.subtract(1.0, u, out=a_c), c, out=a_c)
        h = np.add(tmp, a_c, out=states[t])
    data = states.reshape(n_t * m, d_h)
    if tape is None:
        return Tensor(data)

    def vjp(g):
        g = g.reshape(n_t, m, d_h)
        da = np.empty((3, n_t, m, d_h))  # pre-activation adjoints per gate
        dx = np.empty((n_t, m, d_in)) if x.tape is not None else None
        dh, zero = np.zeros((m, d_h)), np.zeros((m, d_h))
        d_rh, t1, t2, one_u = (np.empty((m, d_h)) for _ in range(4))
        d_hid, d_in3 = np.empty((2, m, d_h)), np.empty((3, m, d_in))
        for t in range(n_t - 1, -1, -1):
            np.add(dh, g[t], out=dh)
            h_prev = states[t - 1] if t else zero
            r, u, c = ru_all[0, t], ru_all[1, t], c_all[t]
            np.subtract(1.0, u, out=one_u)
            # candidate: dc = dh * (1 - u), through tanh
            np.multiply(dh, one_u, out=t1)
            np.multiply(t1, np.subtract(1.0, np.multiply(c, c, out=t2), out=t2), out=da[2, t])
            np.matmul(da[2, t], w_hid[2].T, out=d_rh)
            # reset: dr = d(r * h) * h, through sigmoid
            np.multiply(np.multiply(d_rh, h_prev, out=t1), r, out=t1)
            np.multiply(t1, np.subtract(1.0, r, out=t2), out=da[0, t])
            # update: du = dh * h - dh * c, through sigmoid
            np.subtract(np.multiply(dh, h_prev, out=t1), np.multiply(dh, c, out=t2), out=t1)
            np.multiply(np.multiply(t1, u, out=t1), one_u, out=da[1, t])
            # previous state: through u * h, r * h and the reset and update products
            np.add(np.multiply(dh, u, out=dh), np.multiply(d_rh, r, out=t1), out=dh)
            np.matmul(da[:2, t], w_hid[:2].transpose(0, 2, 1), out=d_hid)
            np.add(np.add(dh, d_hid[0], out=dh), d_hid[1], out=dh)
            if dx is not None:
                np.matmul(da[:, t], w_in.transpose(0, 2, 1), out=d_in3)
                np.add(np.add(d_in3[0], d_in3[1], out=dx[t]), d_in3[2], out=dx[t])
        da = da.reshape(3, n_t * m, d_h)
        d_w_in = np.matmul(xs.T, da)
        # the state before step t is row block t - 1 of the output; step 0 starts from zero
        d_w_hid = [*np.matmul(data[: (n_t - 1) * m].T, da[:2, m:]), rh_all.reshape(n_t * m, d_h).T @ da[2]]
        d_bias = np.matmul(np.ones((1, n_t * m)), da)
        grads = [None]
        for k in range(3):
            grads += [d_w_in[k], d_w_hid[k], d_bias[k]]
        if dx is not None:
            if all_steps:
                grads[0] = dx.reshape(n_rows, d_in)
            else:
                grads[0] = np.zeros((n_steps, m, d_in))
                grads[0][steps] = dx
                grads[0] = grads[0].reshape(n_rows, d_in)
        return [gr for gr, t in zip(grads, (x, *weights)) if t.tape is not None]

    in_nodes = tuple(t.node for t in (x, *weights) if t.tape is not None)
    return _emit_joint(tape, data, in_nodes, vjp)


def scale_attention(slots: list, theta) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted mixtures of S equally shaped encodings, per row.

    Scores are the stacked encodings times `theta` (d, n_sets), one product;
    each score set gets a row softmax over the S slots and mixes the slots
    with its weights, summed in slot order. Returns the mixtures stacked by
    score set, (n_sets * rows, d), and the weights, (n_sets, rows, S).
    """
    slots = [_as_tensor(z) for z in slots]
    theta = _as_tensor(theta)
    if not slots:
        raise ContractError("scale_attention requires at least one encoding")
    shape = slots[0].data.shape
    if len(shape) != 2 or any(z.data.shape != shape for z in slots):
        raise DimensionError("scale_attention encodings must be matrices of equal shape")
    if theta.data.ndim != 2 or theta.data.shape[0] != shape[1]:
        raise DimensionError(f"score weights of shape {theta.data.shape} do not fit encodings {shape}")
    n_s, (m, d), n_sets = len(slots), shape, theta.data.shape[1]
    z = np.stack([s.data for s in slots])  # (S, rows, d)
    scores = (z.reshape(n_s * m, d) @ theta.data).reshape(n_s, m, n_sets)
    scores = np.ascontiguousarray(scores.transpose(2, 1, 0))  # (n_sets, rows, S)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    alphas = e / e.sum(axis=2, keepdims=True)
    fused, term = alphas[:, :, 0:1] * z[0], np.empty((n_sets, m, d))
    for s in range(1, n_s):
        fused += np.multiply(alphas[:, :, s : s + 1], z[s], out=term)
    data = fused.reshape(n_sets * m, d)
    tape = _merge_tape(*slots, theta)
    if tape is None:
        return Tensor(data), alphas
    tracked = [t.tape is not None for t in (*slots, theta)]

    def vjp(g):
        g = g.reshape(n_sets, m, d)
        d_alpha = np.einsum("hmd,smd->hms", g, z)
        d_scores = alphas * (d_alpha - (d_alpha * alphas).sum(axis=2, keepdims=True))
        d_scores = d_scores.transpose(2, 1, 0).reshape(n_s * m, n_sets)
        dz = np.einsum("hms,hmd->smd", alphas, g) + (d_scores @ theta.data.T).reshape(n_s, m, d)
        grads = [*dz, z.reshape(n_s * m, d).T @ d_scores]
        return [gr for gr, on in zip(grads, tracked) if on]

    in_nodes = tuple(t.node for t in (*slots, theta) if t.tape is not None)
    return _emit_joint(tape, data, in_nodes, vjp), alphas
