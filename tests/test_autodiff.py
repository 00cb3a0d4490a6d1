import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from downcast import autodiff as ad
from downcast import graphs as gr
from downcast.errors import ContractError, DimensionError
from downcast.sparse import CsrMatrix
from helpers import (
    concat_cols,
    edge_messages_reference,
    exp,
    gru_layer_reference,
    negate,
    reduce_mean,
    scale_attention_reference,
    slice_cols,
    softmax_rows,
    tanh,
)


def finite_diff(fn, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xp[idx] += eps
        xm = x0.copy()
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2 * eps)
        it.iternext()
    return g


def operator(n_rows, n_cols, rows, cols, vals) -> CsrMatrix:
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    return CsrMatrix(sp.csr_array((np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n_rows, n_cols)))


def check_grad(build, x0, rtol=1e-4):
    """Compare tape adjoint of scalar build(x) against central differences."""
    tape = ad.Tape()
    x = tape.leaf(x0)
    loss = build(x)
    adj = tape.backward(loss)
    analytic = adj[x.node]
    numeric = finite_diff(lambda v: float(build(ad.constant(v)).data), x0)
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < rtol


RNG = np.random.default_rng(7)


class TestMatmul:
    def test_identity(self):
        b = RNG.uniform(-2, 2, (3, 4))
        out = ad.matmul(ad.constant(np.eye(3)), ad.constant(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_product(self):
        out = ad.matmul(ad.constant([[1.0, 2.0], [3.0, 4.0]]), ad.constant([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        b = RNG.uniform(-2, 2, (4, 3))
        check_grad(lambda a: ad.reduce_sum(ad.matmul(a, ad.constant(b))), RNG.uniform(-2, 2, (2, 4)))
        # gradient of sum(a @ b) w.r.t. a is the replicated row sums of b
        tape = ad.Tape()
        a = tape.leaf(RNG.uniform(-2, 2, (2, 4)))
        adj = tape.backward(ad.reduce_sum(ad.matmul(a, ad.constant(b))))
        np.testing.assert_allclose(adj[a.node], np.tile(b.sum(axis=1), (2, 1)), rtol=1e-12)

    def test_gradient_wrt_right_operand(self):
        a = RNG.uniform(-2, 2, (3, 5))
        check_grad(
            lambda bb: ad.reduce_sum(ad.mul(ad.matmul(ad.constant(a), bb), ad.matmul(ad.constant(a), bb))),
            RNG.uniform(-2, 2, (5, 2)),
        )


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert float(ad.sigmoid(ad.constant(0.0)).data) == 0.5

    def test_sigmoid_closed_forms_without_overflow(self):
        v = np.array([-800.0, -30.0, -0.5, 0.5, 30.0, 800.0])
        with np.errstate(over="raise"):
            out = ad.sigmoid(ad.constant(v)).data
        neg, pos = v[:3], v[3:]
        np.testing.assert_array_equal(out[:3], np.exp(neg) / (1.0 + np.exp(neg)))
        np.testing.assert_array_equal(out[3:], 1.0 / (1.0 + np.exp(-pos)))

    def test_elu_matches_select_forms(self):
        # max(v, expm1(min(v, 0))) and min(out, 0) + 1 against the np.where forms
        rng = np.random.default_rng(7)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, -800.0, 800.0])
        v = np.concatenate([rng.normal(scale=10.0, size=500), rng.normal(scale=1e-3, size=500), special])
        g = rng.normal(size=v.shape)
        tape = ad.Tape()
        x = tape.leaf(v)
        out = ad.elu(x)
        adj = tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
        ref = np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))
        np.testing.assert_array_equal(out.data, ref)
        np.testing.assert_array_equal(np.signbit(out.data), np.signbit(ref))
        np.testing.assert_array_equal(adj[x.node], g * np.where(v > 0, 1.0, ref + 1.0))

    def test_elu_negative_limit(self):
        # closed form e^x - 1
        assert float(ad.elu(ad.constant(-20.0)).data) == pytest.approx(np.expm1(-20.0), abs=1e-15)
        assert float(ad.elu(ad.constant(-20.0)).data) == pytest.approx(-1.0, abs=1e-8)

    def test_tanh_derivative_at_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.zeros(()))
        adj = tape.backward(tanh(x))
        assert float(adj[x.node]) == 1.0

    def test_binary_broadcast_trailing_one(self):
        a = RNG.uniform(-2, 2, (4, 3))
        b = RNG.uniform(-2, 2, (4, 1))
        np.testing.assert_array_equal(ad.mul(ad.constant(a), ad.constant(b)).data, a * b)
        check_grad(lambda t: ad.reduce_sum(ad.mul(t, ad.constant(a))), b)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))

    def test_incompatible_extents_rejected(self):
        with pytest.raises(DimensionError):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 4))))

    @pytest.mark.parametrize("op", [tanh, ad.sigmoid, ad.elu, exp, negate, ad.absolute])
    def test_unary_gradients(self, op):
        x0 = RNG.uniform(-2, 2, (3, 4))
        x0[np.abs(x0) < 0.05] += 0.1  # keep clear of the |x| kink
        check_grad(lambda x: ad.reduce_sum(op(x)), x0)

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_binary_gradients(self, op):
        other = RNG.uniform(-2, 2, (3, 4))
        check_grad(lambda x: ad.reduce_sum(op(x, ad.constant(other))), RNG.uniform(-2, 2, (3, 4)))
        check_grad(lambda x: ad.reduce_sum(op(ad.constant(other), x)), RNG.uniform(-2, 2, (3, 4)))


class TestReduce:
    def test_sum_vector(self):
        assert float(ad.reduce_sum(ad.constant([1.0, 2.0, 3.0])).data) == 6.0

    def test_mean_over_axis(self):
        out = reduce_mean(ad.constant(np.ones((4, 5))), axis=0)
        np.testing.assert_array_equal(out.data, np.ones(5))

    def test_mean_gradient_is_inverse_count(self):
        tape = ad.Tape()
        x = tape.leaf(RNG.uniform(-2, 2, (6,)))
        adj = tape.backward(reduce_mean(x))
        np.testing.assert_array_equal(adj[x.node], np.full(6, 1.0 / 6.0))

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            ad.reduce_sum(ad.constant(np.ones((2, 3))), axis=2)

    def test_sum_axis_gradient(self):
        check_grad(
            lambda x: ad.reduce_sum(ad.mul(ad.reduce_sum(x, axis=1), ad.constant(np.arange(3.0)))),
            RNG.uniform(-2, 2, (3, 4)),
        )


class TestSoftmaxRows:
    def test_uniform_on_zeros(self):
        out = softmax_rows(ad.constant(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, np.full((1, 4), 0.25), atol=1e-15)

    def test_large_values_no_overflow(self):
        out = softmax_rows(ad.constant([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(ad.constant([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariant(self):
        x = RNG.uniform(-5, 5, (8, 6))
        out = softmax_rows(ad.constant(x))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(8), atol=1e-12)
        shifted = softmax_rows(ad.constant(x + RNG.uniform(-3, 3, (8, 1))))
        np.testing.assert_allclose(shifted.data, out.data, atol=1e-12)

    def test_gradient(self):
        w = RNG.uniform(-2, 2, (3, 5))
        check_grad(lambda x: ad.reduce_sum(ad.mul(softmax_rows(x), ad.constant(w))), RNG.uniform(-2, 2, (3, 5)))


class TestSparseMatmul:
    def test_empty_graph_gives_zeros(self):
        op = operator(3, 3, [], [], [])
        out = ad.sparse_matmul(op, ad.constant(RNG.uniform(-2, 2, (3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_transpose_flag_hand_case(self):
        # directed edge 0 -> 1 with weight 2; A^T x routes x[0] into row 1
        op = operator(2, 2, [0], [1], [2.0])
        out = ad.sparse_matmul(op, ad.constant([[1.0], [0.0]]), transpose=True)
        np.testing.assert_array_equal(out.data, [[0.0], [2.0]])

    def test_matches_dense_oracle(self):
        n = 10
        rows, cols = np.nonzero(RNG.random((n, n)) < 0.3)
        vals = RNG.uniform(0.1, 2.0, rows.size)
        dense = np.zeros((n, n))
        dense[rows, cols] = vals
        op = operator(n, n, rows, cols, vals)
        x = RNG.uniform(-2, 2, (n, 4))
        np.testing.assert_allclose(ad.sparse_matmul(op, ad.constant(x)).data, dense @ x, atol=1e-12)
        np.testing.assert_allclose(
            ad.sparse_matmul(op, ad.constant(x), transpose=True).data, dense.T @ x, atol=1e-12
        )

    def test_dense_oracle_up_to_n50(self):
        for n in (25, 50):
            rows, cols = np.nonzero(RNG.random((n, n)) < 0.1)
            vals = RNG.uniform(0.0, 1.0, rows.size)
            dense = np.zeros((n, n))
            dense[rows, cols] += vals
            op = operator(n, n, rows, cols, vals)
            x = RNG.uniform(-2, 2, (n, 3))
            np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)

    def test_gradient(self):
        op = operator(4, 4, [0, 1, 2, 3, 0], [1, 2, 3, 0, 2], [1.0, 0.5, 2.0, 0.25, 1.5])
        w = RNG.uniform(-2, 2, (4, 3))
        for t in (False, True):
            check_grad(
                lambda x, t=t: ad.reduce_sum(ad.mul(ad.sparse_matmul(op, x, transpose=t), ad.constant(w))),
                RNG.uniform(-2, 2, (4, 3)),
            )

    def test_dimension_mismatch(self):
        op = operator(3, 3, [0], [1], [1.0])
        with pytest.raises(DimensionError):
            ad.sparse_matmul(op, ad.constant(np.ones((4, 2))))

    @staticmethod
    def random_op(n_rows, n_cols, density=0.3):
        rows, cols = np.nonzero(RNG.random((n_rows, n_cols)) < density)
        return operator(n_rows, n_cols, rows, cols, RNG.uniform(-2, 2, rows.size))

    @pytest.mark.parametrize("blocks", [1, 3, 32])
    @pytest.mark.parametrize("shape", [(7, 7), (11, 5)])
    def test_blockwise_apply_equals_kronecker_product(self, blocks, shape):
        # a node-major stack holds each node's `blocks` rows consecutively, so
        # the operator acts on it as op (x) I_blocks
        op = self.random_op(*shape)
        for transpose in (False, True):
            mat = op.csr.T if transpose else op.csr
            x = RNG.uniform(-2, 2, (mat.shape[1] * blocks, 4))
            expected = sp.kron(mat, sp.identity(blocks), format="csr") @ x
            assert np.array_equal(op.apply(x, transpose=transpose), expected)

    def test_blockwise_gradient(self):
        op = self.random_op(5, 4, density=0.5)  # edge-incidence-like: more rows than columns
        w = RNG.uniform(-2, 2, (15, 2))
        check_grad(lambda x: ad.reduce_sum(ad.mul(ad.sparse_matmul(op, x), ad.constant(w))), RNG.uniform(-2, 2, (12, 2)))
        w_t = RNG.uniform(-2, 2, (12, 2))
        check_grad(
            lambda x: ad.reduce_sum(ad.mul(ad.sparse_matmul(op, x, transpose=True), ad.constant(w_t))),
            RNG.uniform(-2, 2, (15, 2)),
        )

    def test_row_count_not_a_multiple_of_blocks(self):
        op = operator(3, 4, [0], [1], [1.0])
        for rows in (0, 6, 9):
            with pytest.raises(DimensionError):
                op.apply(np.ones((rows, 2)))
        with pytest.raises(DimensionError):
            op.apply(np.ones((8, 2)), transpose=True)  # transposed input size is 3


class TestConcatSlice:
    def test_concat_cols_roundtrip(self):
        a, b = RNG.uniform(-1, 1, (3, 2)), RNG.uniform(-1, 1, (3, 4))
        out = concat_cols([ad.constant(a), ad.constant(b)])
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))

    def test_concat_cols_gradient(self):
        b = RNG.uniform(-1, 1, (3, 4))
        w = RNG.uniform(-1, 1, (3, 6))
        check_grad(
            lambda a: ad.reduce_sum(ad.mul(concat_cols([a, ad.constant(b)]), ad.constant(w))),
            RNG.uniform(-1, 1, (3, 2)),
        )

    def test_concat_rows_tiling_accumulates(self):
        for groups in (1, 2):
            tape = ad.Tape()
            x = tape.leaf(RNG.uniform(-1, 1, (2, 3)))
            tiled = ad.concat_rows([x, x, x], groups=groups)
            adj = tape.backward(ad.reduce_sum(tiled))
            np.testing.assert_array_equal(adj[x.node], np.full((2, 3), 3.0))

    def test_concat_rows_interleaves_groups(self):
        parts = [RNG.uniform(-1, 1, (6, 2)) for _ in range(3)]
        out = ad.concat_rows([ad.constant(p) for p in parts], groups=3).data
        # group g of part j is rows 2g, 2g+1; it lands at row block 3g + j
        expected = np.concatenate([parts[j][2 * g : 2 * g + 2] for g in range(3) for j in range(3)])
        np.testing.assert_array_equal(out, expected)
        w = RNG.uniform(-1, 1, (18, 2))
        check_grad(
            lambda a: ad.reduce_sum(ad.mul(ad.concat_rows([ad.constant(parts[0]), a, a], groups=3), ad.constant(w))),
            parts[1],
        )
        # parts may differ in group size, as they may differ in row count with one group
        uneven = ad.concat_rows([ad.constant(parts[0]), ad.constant(parts[1][:3])], groups=3).data
        np.testing.assert_array_equal(uneven[3 * 0 : 3 * 1], np.concatenate([parts[0][0:2], parts[1][0:1]]))
        for bad in ([np.ones((5, 2))] * 2, [np.ones((6, 2)), np.ones((6, 3))]):
            with pytest.raises(DimensionError):
                ad.concat_rows([ad.constant(b) for b in bad], groups=3)
        with pytest.raises(ContractError):
            ad.concat_rows([ad.constant(parts[0])], groups=0)

    def test_slice_cols_gradient(self):
        w = RNG.uniform(-1, 1, (3, 2))
        check_grad(
            lambda x: ad.reduce_sum(ad.mul(slice_cols(x, 1, 3), ad.constant(w))),
            RNG.uniform(-1, 1, (3, 5)),
        )


class TestBackward:
    def test_quadratic_parameter_gradient(self):
        p = ad.Parameter("p", RNG.uniform(-2, 2, (3, 2)))
        tape = ad.Tape()
        t = tape.parameter(p)
        tape.backward(ad.reduce_sum(ad.mul(t, t)))
        np.testing.assert_allclose(p.grad, 2 * p.value, rtol=1e-12)

    def test_unused_parameter_gets_exact_zero(self):
        p = ad.Parameter("p", RNG.uniform(-2, 2, (3,)))
        q = ad.Parameter("q", RNG.uniform(-2, 2, (3,)))
        tape = ad.Tape()
        tp = tape.parameter(p)
        tape.parameter(q)  # registered but not on the loss path
        tape.backward(ad.reduce_sum(ad.mul(tp, tp)))
        assert np.all(q.grad == 0.0)

    def test_fan_out_leaves_shared_adjoints_intact(self):
        # both pulls of a + x return the adjoint of u itself, so a's adjoint
        # is x's first contribution; adding x's second in place would change a's
        tape = ad.Tape()
        a, x = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3)))
        v = ad.mul(x, ad.constant(np.full((2, 3), 2.0)))
        u = ad.add(a, x)
        adj = tape.backward(ad.reduce_sum(ad.add(ad.mul(u, ad.constant(np.full((2, 3), 3.0))), v)))
        np.testing.assert_array_equal(adj[a.node], np.full((2, 3), 3.0))
        np.testing.assert_array_equal(adj[x.node], np.full((2, 3), 5.0))

    def test_only_leaf_and_parameter_adjoints_are_returned(self):
        p = ad.Parameter("p", np.ones(3))
        tape = ad.Tape()
        tp, x = tape.parameter(p), tape.leaf(np.full(3, 2.0))
        y = ad.mul(tp, x)
        adj = tape.backward(ad.reduce_sum(ad.mul(y, y)))
        assert set(adj) == {tp.node, x.node}
        np.testing.assert_array_equal(adj[tp.node], p.grad)

    def test_a_later_record_is_freed_before_an_earlier_one_runs(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        held_then = []
        # an earlier record whose vjp looks at the later record's constant
        y = ad._emit((x,), 2.0 * x.data, lambda g: (held_then.append(held() is not None) or 2.0 * g,))
        c = ad.constant(np.full(3, 3.0))
        held = weakref.ref(c.data)
        loss = ad.reduce_sum(ad.mul(y, c))
        del c  # now only the product's vjp holds the constant
        assert held() is not None
        adj = tape.backward(loss)
        assert held_then == [False]
        np.testing.assert_array_equal(adj[x.node], np.full(3, 6.0))

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ContractError):
            tape.backward(ad.mul(x, x))

    def test_second_backward_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        loss = ad.reduce_sum(ad.mul(x, x))
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)

    def test_backward_is_deterministic(self):
        def run():
            p = ad.Parameter("p", np.linspace(-1, 1, 12).reshape(3, 4))
            tape = ad.Tape()
            t = tape.parameter(p)
            h = tanh(ad.matmul(t, ad.constant(np.linspace(0, 1, 8).reshape(4, 2))))
            tape.backward(ad.reduce_sum(ad.mul(h, h)))
            return p.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ContractError):
            ad.add(t1.leaf(np.ones(2)), t2.leaf(np.ones(2)))


class TestRecordedOpFiniteDifferences:
    """Spec invariant: every recorded op's adjoint matches central differences."""

    def test_composite_expression(self):
        w = RNG.uniform(-2, 2, (4, 4))

        def build(x):
            h = tanh(ad.matmul(x, ad.constant(w)))
            s = softmax_rows(h)
            e = ad.elu(ad.sub(s, ad.sigmoid(x)))
            return ad.reduce_sum(ad.mul(e, e))

        check_grad(build, RNG.uniform(-2, 2, (3, 4)))

    def test_gru_scan(self):
        # every input in turn: the sequence, then the three gate-stacked arrays
        rng = np.random.default_rng(21)
        arrays = _gru_inputs(rng, rows=3, d_in=3, d_h=4, n_steps=6)
        weight = ad.constant(rng.normal(size=(3 * 3, 4)))
        for i, a0 in enumerate(arrays):
            def build(v, i=i):
                args = [v if j == i else ad.constant(a) for j, a in enumerate(arrays)]
                states = ad.gru_scan(args[0], 6, (1, 3, 5), *args[1:])
                return ad.reduce_sum(ad.mul(states, weight))

            check_grad(build, a0)

    def test_scale_attention(self):
        rng = np.random.default_rng(22)
        stacked0 = rng.normal(size=(3 * 4, 5))  # three 4-row encodings
        theta0 = rng.normal(size=(5, 2))
        weight = ad.constant(rng.normal(size=(2 * 4, 5)))

        def build(stacked, theta):
            fused, _ = ad.scale_attention(stacked, 3, theta)
            return ad.reduce_sum(ad.mul(fused, weight))

        check_grad(lambda v: build(v, ad.constant(theta0)), stacked0)
        check_grad(lambda v: build(ad.constant(stacked0), v), theta0)

    def test_add_blocks(self):
        rng = np.random.default_rng(24)
        for repeat in (1, 3):
            rows = 2 * 4 * repeat  # two blocks of 4 nodes, `repeat` rows per node
            x0, y0 = rng.normal(size=(rows, 2)), rng.normal(size=(4, 2))
            weight = ad.constant(rng.normal(size=(rows, 2)))

            def build(x, y, repeat=repeat, weight=weight):
                return ad.reduce_sum(ad.mul(ad.add_blocks(x, y, repeat), weight))

            check_grad(lambda v: build(v, ad.constant(y0)), x0)
            check_grad(lambda v: build(ad.constant(x0), v), y0)
            expected = x0 + np.tile(np.repeat(y0, repeat, axis=0), (2, 1))
            np.testing.assert_array_equal(ad.add_blocks(ad.constant(x0), y0, repeat).data, expected)
            for bad in (np.ones((5, 2)), np.ones((4, 3)), np.ones((0, 2))):
                with pytest.raises(DimensionError):
                    ad.add_blocks(ad.constant(x0), bad, repeat)

    def test_reshape(self):
        rng = np.random.default_rng(23)
        x0 = rng.normal(size=(4, 3 * 2))  # four rows of three 2-wide steps
        weight = ad.constant(rng.normal(size=(4 * 3, 2)))
        check_grad(lambda v: ad.reduce_sum(ad.mul(ad.reshape(v, (-1, 2)), weight)), x0)
        # row-major: row r's step j becomes row 3r + j, and the pull reshapes back
        out = ad.reshape(ad.constant(x0), (-1, 2)).data
        np.testing.assert_array_equal(out[3 * 1 + 2], x0[1, 4:6])
        tape = ad.Tape()
        x = tape.leaf(x0)
        adj = tape.backward(ad.reduce_sum(ad.mul(ad.reshape(x, (12, 2)), ad.constant(out))))
        np.testing.assert_array_equal(adj[x.node], x0)
        with pytest.raises(DimensionError):
            ad.reshape(ad.constant(x0), (5, -1))

    def test_edge_messages(self):
        # every input in turn: the node rows, then the three message weights
        rng = np.random.default_rng(24)
        src, recv, weight = _edge_operators(rng, n=4, p_edge=0.6)
        arrays = [rng.normal(size=(2 * 4, 3)), *_message_weights(rng, 3)]
        cot = ad.constant(rng.normal(size=(2 * 4, 3)))
        for i, a0 in enumerate(arrays):
            def build(v, i=i):
                args = [v if j == i else ad.constant(a) for j, a in enumerate(arrays)]
                return ad.reduce_sum(ad.mul(ad.edge_messages(args[0], src, recv, weight, *args[1:]), cot))

            check_grad(build, a0)


def _edge_operators(rng, n, p_edge):
    """Random directed edges in canonical order, none into node 0: (src, recv, weights)."""
    pairs = [(i, j) for i in range(n) for j in range(1, n) if i != j and rng.random() < p_edge]
    src, recv = np.array(pairs).T
    e = len(pairs)
    ops = [operator(e, n, np.arange(e), idx, np.ones(e)) for idx in (src, recv)]
    return ops[0], ops[1], rng.uniform(0.1, 1.0, (e, 1))


def _message_weights(rng, d):
    return [rng.uniform(-0.6, 0.6, shape) for shape in ((2 * d + 1, d), (d, d), (d, d))]


def _gru_inputs(rng, rows, d_in, d_h, n_steps):
    """(sequence, w_in, w_hid, bias), the weights stacked by gate (reset, update, candidate)."""
    x = rng.normal(size=(n_steps * rows, d_in))
    return (
        x,
        rng.uniform(-0.6, 0.6, (3, d_in, d_h)),
        rng.uniform(-0.6, 0.6, (3, d_h, d_h)),
        rng.uniform(-0.3, 0.3, (3, 1, d_h)),
    )


def _scans():
    # (sequence length, steps read) along temporal_chain(24, 3, 3): the first
    # layer reads every step, each later one the steps the layer below keeps
    chain = gr.temporal_chain(24, 3, 3)
    return [(24, tuple(range(24)))] + [(c.input_length, c.kept_indices) for c in chain]


def _multi_input_ops():
    """(name, op on tensors, input arrays) for every op that takes more than one tensor, and `reshape`."""
    rng = np.random.default_rng(50)
    src, recv, weight = _edge_operators(rng, n=4, p_edge=0.6)
    gru_arrays = list(_gru_inputs(rng, rows=3, d_in=3, d_h=4, n_steps=6))

    def gru(steps):
        return lambda x, *w: ad.gru_scan(x, 6, steps, *w)

    return [
        ("add", ad.add, [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))]),
        ("sub", ad.sub, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]),
        ("mul", ad.mul, [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))]),
        ("matmul", ad.matmul, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]),
        ("concat_rows", lambda *parts: ad.concat_rows(parts), [rng.normal(size=(k, 3)) for k in (2, 1, 4)]),
        ("add_blocks", lambda x, y: ad.add_blocks(x, y, 1), [rng.normal(size=(3 * 4, 2)), rng.normal(size=(4, 2))]),
        ("gru_scan", gru(range(6)), gru_arrays),
        ("gru_scan_some_steps", gru((1, 3, 5)), gru_arrays),
        ("edge_messages", lambda x, *w: ad.edge_messages(x, src, recv, weight, *w),
         [rng.normal(size=(2 * 4, 3)), *_message_weights(rng, 3)]),
        ("scale_attention", lambda z, theta: ad.scale_attention(z, 3, theta)[0],
         [rng.normal(size=(3 * 4, 5)), rng.normal(size=(5, 2))]),
        ("concat_rows_groups", lambda *parts: ad.concat_rows(parts, groups=2), [rng.normal(size=(4, 3)) for _ in range(3)]),
        ("add_blocks_repeat", lambda x, y: ad.add_blocks(x, y, 3), [rng.normal(size=(2 * 4 * 3, 2)), rng.normal(size=(4, 2))]),
        ("reshape", lambda x: ad.reshape(x, (-1, 2)), [rng.normal(size=(3, 4))]),
    ]


MULTI_INPUT_OPS = _multi_input_ops()


class TestConstantInputs:
    """Leaving some inputs of an op constant changes nothing for the tracked ones."""

    @pytest.mark.parametrize("op,arrays", [c[1:] for c in MULTI_INPUT_OPS], ids=[c[0] for c in MULTI_INPUT_OPS])
    def test_tracked_adjoints_equal_the_fully_tracked_run(self, op, arrays):
        n = len(arrays)
        cot = np.random.default_rng(51).normal(size=op(*arrays).shape)

        def run(tracked):
            tape = ad.Tape()
            inputs = [tape.leaf(a) if on else ad.constant(a) for a, on in zip(arrays, tracked)]
            out = op(*inputs)
            if not any(tracked):
                assert out.tape is None
                return out.data, {}
            prod = ad.mul(out, ad.constant(cot))
            loss = ad.reduce_sum(prod)
            adj = tape.backward(loss)
            leaves = {i: t.node for i, t in enumerate(inputs) if tracked[i]}
            assert set(adj) == set(leaves.values())
            return out.data, {i: adj[node] for i, node in leaves.items()}

        full_out, full_adj = run([True] * n)
        # each input constant alone, each tracked alone, and none tracked
        masks = {tuple((j == i) is alone for j in range(n)) for i in range(n) for alone in (False, True)}
        for tracked in sorted(masks) + [(False,) * n]:
            out, adj = run(tracked)
            np.testing.assert_array_equal(out, full_out)
            assert set(adj) == {i for i in range(n) if tracked[i]}
            for i, g in adj.items():
                np.testing.assert_array_equal(g, full_adj[i])


class TestGruScan:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n_steps,steps", _scans())
    def test_matches_op_by_op_reference(self, batch, n_steps, steps):
        # same arithmetic order forward, so states are bit-equal; the adjoint
        # sums in another order, so it is held to 1e-12 of the largest entry
        rng = np.random.default_rng(100 * batch + n_steps)
        rows = 4 * batch
        arrays = _gru_inputs(rng, rows=rows, d_in=5, d_h=6, n_steps=n_steps)
        weight = ad.constant(rng.normal(size=(len(steps) * rows, 6)))

        def run(fused):
            tape = ad.Tape()
            x, *weights = (tape.leaf(a) for a in arrays)
            if fused:
                states = ad.gru_scan(x, n_steps, steps, *weights)
            else:
                blocks = [ad.slice_rows(x, t * rows, (t + 1) * rows) for t in steps]
                states = ad.concat_rows(gru_layer_reference(blocks, *weights))
            adj = tape.backward(ad.reduce_sum(ad.mul(states, weight)))
            return states.data, [adj[t.node] for t in (x, *weights)]

        fused_states, fused_adj = run(True)
        ref_states, ref_adj = run(False)
        np.testing.assert_array_equal(fused_states, ref_states)
        assert len(fused_adj) == 4
        for got, want in zip(fused_adj, ref_adj):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(5)
        x0, *weights0 = _gru_inputs(rng, rows=2, d_in=3, d_h=3, n_steps=4)
        weights = [ad.constant(w) for w in weights0]
        out = ad.gru_scan(ad.constant(x0), 4, range(4), *weights)
        assert out.tape is None
        tape = ad.Tape()
        tracked = ad.gru_scan(tape.leaf(x0), 4, range(4), *weights)
        np.testing.assert_array_equal(out.data, tracked.data)

    def test_bad_steps_and_shapes_rejected(self):
        rng = np.random.default_rng(6)
        x0, *weights0 = _gru_inputs(rng, rows=2, d_in=3, d_h=3, n_steps=4)
        weights = [ad.constant(w) for w in weights0]
        for steps in [(1, 1), (2, 1), (0, 4), ()]:
            with pytest.raises(ContractError):
                ad.gru_scan(ad.constant(x0), 4, steps, *weights)
        with pytest.raises(DimensionError):
            ad.gru_scan(ad.constant(x0), 3, (0, 1), *weights)
        with pytest.raises(DimensionError):
            ad.gru_scan(ad.constant(x0[:, :2]), 4, (0, 1), *weights)

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", ["one gate", "two gates", "flattened"])
    def test_mis_shaped_stacked_weight_names_the_stacked_shapes(self, which, bad):
        rng = np.random.default_rng(7)
        x0, *weights0 = _gru_inputs(rng, rows=2, d_in=3, d_h=4, n_steps=4)
        w = weights0[which]
        weights0[which] = {"one gate": w[0], "two gates": w[:2], "flattened": w.reshape(3, -1)}[bad]
        pattern = r"are not \(3, 3, d_h\), \(3, d_h, d_h\), \(3, 1, d_h\)$"
        with pytest.raises(DimensionError, match=pattern) as err:
            ad.gru_scan(ad.constant(x0), 4, range(4), *(ad.constant(a) for a in weights0))
        assert str(weights0[which].shape) in str(err.value)


class TestScaleAttention:
    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_matches_per_slot_reference(self, n_sets):
        rng = np.random.default_rng(30 + n_sets)
        slots0 = [rng.normal(size=(7, 4)) for _ in range(5)]
        theta0 = rng.normal(size=(4, n_sets))
        weight = rng.normal(size=(7 * n_sets, 4))

        def run(fused):
            tape = ad.Tape()
            theta = tape.leaf(theta0)
            if fused:
                # each row's five encodings consecutive, and its mixtures too
                stacked = tape.leaf(np.stack(slots0, axis=1).reshape(7 * 5, 4))
                out, alphas = ad.scale_attention(stacked, 5, theta)
                d_slots = lambda adj: adj[stacked.node]
            else:
                slots = [tape.leaf(z) for z in slots0]
                mixes, als = scale_attention_reference(slots, theta)
                out, alphas = ad.concat_rows(mixes, groups=7), np.stack([a.data for a in als], axis=1)
                d_slots = lambda adj: np.stack([adj[t.node] for t in slots], axis=1).reshape(7 * 5, 4)
            adj = tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(weight))))
            return out.data, alphas, [d_slots(adj), adj[theta.node]]

        # the batched mix sums the S slots in BLAS order, so the mixtures and
        # adjoints agree with the per-slot chain to rounding; the scores and
        # weights are still the same per-row products and softmax
        out, alphas, adj = run(True)
        ref_out, ref_alphas, ref_adj = run(False)
        np.testing.assert_array_equal(alphas, ref_alphas)
        for got, want in zip([out, *adj], [ref_out, *ref_adj]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ad.scale_attention(ad.constant(np.ones((5, 2))), 2, np.ones((2, 1)))  # 5 rows are not 2 blocks
        with pytest.raises(DimensionError):
            ad.scale_attention(ad.constant(np.ones((3, 2))), 1, np.ones((3, 1)))


class TestEdgeMessages:
    @pytest.mark.parametrize("blocks", [1, 4, 12])
    def test_matches_op_by_op_reference(self, blocks):
        # the first product is now three partial sums, not one (2d+1)-wide
        # dot, and the adjoint scatters before its products, so both agree to
        # rounding only
        rng = np.random.default_rng(40 + blocks)
        n, d = 7, 5
        src, recv, weight = _edge_operators(rng, n, p_edge=0.4)
        assert recv.csr.T[[0]].nnz == 0 and src.csr.T[[0]].nnz > 0  # node 0 only sends
        x0, weights0 = rng.normal(size=(n * blocks, d)), _message_weights(rng, d)
        cot = ad.constant(rng.normal(size=(n * blocks, d)))

        def run(fused):
            tape = ad.Tape()
            x, weights = tape.leaf(x0), [tape.leaf(w) for w in weights0]
            fn = ad.edge_messages if fused else edge_messages_reference
            out = fn(x, src, recv, weight, *weights)
            adj = tape.backward(ad.reduce_sum(ad.mul(out, cot)))
            return out.data, [adj[t.node] for t in (x, *weights)]

        out, adj = run(True)
        ref_out, ref_adj = run(False)
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(out.reshape(n, blocks, d)[0], 0.0)  # no incoming edges
        assert len(adj) == 4
        for got, want in zip(adj, ref_adj):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_unrecorded_pass_equals_recorded_and_keeps_inputs(self):
        rng = np.random.default_rng(45)
        src, recv, weight = _edge_operators(rng, 6, p_edge=0.5)
        x0, weights0 = rng.normal(size=(3 * 6, 4)), _message_weights(rng, 4)
        copies = [a.copy() for a in (x0, *weights0, weight)]
        plain = ad.edge_messages(ad.constant(x0), src, recv, weight, *weights0)
        assert plain.tape is None
        tape = ad.Tape()
        recorded = ad.edge_messages(tape.leaf(x0), src, recv, weight, *weights0)
        np.testing.assert_array_equal(plain.data, recorded.data)
        for before, after in zip(copies, (x0, *weights0, weight)):
            np.testing.assert_array_equal(before, after)

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(46)
        src, recv, weight = _edge_operators(rng, 5, p_edge=0.5)
        weights = _message_weights(rng, 3)
        with pytest.raises(DimensionError):
            ad.edge_messages(ad.constant(np.ones((7, 3))), src, recv, weight, *weights)  # 7 rows are not 5-node blocks
        with pytest.raises(DimensionError):
            ad.edge_messages(ad.constant(np.ones((5, 3))), src, recv, weight[1:], *weights)
        with pytest.raises(DimensionError):
            ad.edge_messages(ad.constant(np.ones((5, 3))), src, recv, weight, weights[0][1:], *weights[1:])
