import numpy as np
import pytest
import scipy.sparse as sp

from downcast import autodiff as ad
from downcast.errors import ContractError, DimensionError
from downcast.sparse import CsrMatrix


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

    def test_elu_negative_limit(self):
        # closed form e^x - 1
        assert float(ad.elu(ad.constant(-20.0)).data) == pytest.approx(np.expm1(-20.0), abs=1e-15)
        assert float(ad.elu(ad.constant(-20.0)).data) == pytest.approx(-1.0, abs=1e-8)

    def test_tanh_derivative_at_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.zeros(()))
        adj = tape.backward(ad.tanh(x))
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

    @pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.elu, ad.exp, ad.negate, ad.absolute])
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
        out = ad.reduce_mean(ad.constant(np.ones((4, 5))), axis=0)
        np.testing.assert_array_equal(out.data, np.ones(5))

    def test_mean_gradient_is_inverse_count(self):
        tape = ad.Tape()
        x = tape.leaf(RNG.uniform(-2, 2, (6,)))
        adj = tape.backward(ad.reduce_mean(x))
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
        out = ad.softmax_rows(ad.constant(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, np.full((1, 4), 0.25), atol=1e-15)

    def test_large_values_no_overflow(self):
        out = ad.softmax_rows(ad.constant([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        out = ad.softmax_rows(ad.constant([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariant(self):
        x = RNG.uniform(-5, 5, (8, 6))
        out = ad.softmax_rows(ad.constant(x))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(8), atol=1e-12)
        shifted = ad.softmax_rows(ad.constant(x + RNG.uniform(-3, 3, (8, 1))))
        np.testing.assert_allclose(shifted.data, out.data, atol=1e-12)

    def test_gradient(self):
        w = RNG.uniform(-2, 2, (3, 5))
        check_grad(lambda x: ad.reduce_sum(ad.mul(ad.softmax_rows(x), ad.constant(w))), RNG.uniform(-2, 2, (3, 5)))


class TestSparseMatmul:
    def test_empty_graph_gives_zeros(self):
        op = CsrMatrix.from_entries(3, 3, [], [], [])
        out = ad.sparse_matmul(op, ad.constant(RNG.uniform(-2, 2, (3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_transpose_flag_hand_case(self):
        # directed edge 0 -> 1 with weight 2; A^T x routes x[0] into row 1
        op = CsrMatrix.from_entries(2, 2, [0], [1], [2.0])
        out = ad.sparse_matmul(op, ad.constant([[1.0], [0.0]]), transpose=True)
        np.testing.assert_array_equal(out.data, [[0.0], [2.0]])

    def test_matches_dense_oracle(self):
        n = 10
        rows, cols = np.nonzero(RNG.random((n, n)) < 0.3)
        vals = RNG.uniform(0.1, 2.0, rows.size)
        dense = np.zeros((n, n))
        dense[rows, cols] = vals
        op = CsrMatrix.from_entries(n, n, rows, cols, vals)
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
            op = CsrMatrix.from_entries(n, n, rows, cols, vals)
            x = RNG.uniform(-2, 2, (n, 3))
            np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)

    def test_gradient(self):
        op = CsrMatrix.from_entries(4, 4, [0, 1, 2, 3, 0], [1, 2, 3, 0, 2], [1.0, 0.5, 2.0, 0.25, 1.5])
        w = RNG.uniform(-2, 2, (4, 3))
        for t in (False, True):
            check_grad(
                lambda x, t=t: ad.reduce_sum(ad.mul(ad.sparse_matmul(op, x, transpose=t), ad.constant(w))),
                RNG.uniform(-2, 2, (4, 3)),
            )

    def test_dimension_mismatch(self):
        op = CsrMatrix.from_entries(3, 3, [0], [1], [1.0])
        with pytest.raises(DimensionError):
            ad.sparse_matmul(op, ad.constant(np.ones((4, 2))))

    @staticmethod
    def random_op(n_rows, n_cols, density=0.3):
        rows, cols = np.nonzero(RNG.random((n_rows, n_cols)) < density)
        return CsrMatrix.from_entries(n_rows, n_cols, rows, cols, RNG.uniform(-2, 2, rows.size))

    @pytest.mark.parametrize("blocks", [1, 3, 32])
    @pytest.mark.parametrize("shape", [(7, 7), (11, 5)])
    def test_blockwise_apply_equals_block_diagonal_product(self, blocks, shape):
        op = self.random_op(*shape)
        for transpose in (False, True):
            mat = op.scipy_t() if transpose else op.scipy()
            x = RNG.uniform(-2, 2, (blocks * mat.shape[1], 4))
            expected = sp.block_diag([mat] * blocks, format="csr") @ x
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
        op = CsrMatrix.from_entries(3, 4, [0], [1], [1.0])
        for rows in (0, 6, 9):
            with pytest.raises(DimensionError):
                op.apply(np.ones((rows, 2)))
        with pytest.raises(DimensionError):
            op.apply(np.ones((8, 2)), transpose=True)  # transposed input size is 3


class TestConcatSlice:
    def test_concat_cols_roundtrip(self):
        a, b = RNG.uniform(-1, 1, (3, 2)), RNG.uniform(-1, 1, (3, 4))
        out = ad.concat_cols([ad.constant(a), ad.constant(b)])
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))

    def test_concat_cols_gradient(self):
        b = RNG.uniform(-1, 1, (3, 4))
        w = RNG.uniform(-1, 1, (3, 6))
        check_grad(
            lambda a: ad.reduce_sum(ad.mul(ad.concat_cols([a, ad.constant(b)]), ad.constant(w))),
            RNG.uniform(-1, 1, (3, 2)),
        )

    def test_concat_rows_tiling_accumulates(self):
        tape = ad.Tape()
        x = tape.leaf(RNG.uniform(-1, 1, (2, 3)))
        tiled = ad.concat_rows([x, x, x])
        adj = tape.backward(ad.reduce_sum(tiled))
        np.testing.assert_array_equal(adj[x.node], np.full((2, 3), 3.0))

    def test_slice_cols_gradient(self):
        w = RNG.uniform(-1, 1, (3, 2))
        check_grad(
            lambda x: ad.reduce_sum(ad.mul(ad.slice_cols(x, 1, 3), ad.constant(w))),
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
        # both pulls of x + x return the adjoint of y itself
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 3)))
        y = ad.add(x, x)
        adj = tape.backward(ad.reduce_sum(ad.mul(y, ad.constant(np.full((2, 3), 3.0)))))
        np.testing.assert_array_equal(adj[y.node], np.full((2, 3), 3.0))
        np.testing.assert_array_equal(adj[x.node], np.full((2, 3), 6.0))

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ContractError):
            tape.backward(ad.mul(x, x))

    def test_backward_is_deterministic(self):
        def run():
            p = ad.Parameter("p", np.linspace(-1, 1, 12).reshape(3, 4))
            tape = ad.Tape()
            t = tape.parameter(p)
            h = ad.tanh(ad.matmul(t, ad.constant(np.linspace(0, 1, 8).reshape(4, 2))))
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
            h = ad.tanh(ad.matmul(x, ad.constant(w)))
            s = ad.softmax_rows(h)
            e = ad.elu(ad.sub(s, ad.sigmoid(x)))
            return ad.reduce_sum(ad.mul(e, e))

        check_grad(build, RNG.uniform(-2, 2, (3, 4)))
