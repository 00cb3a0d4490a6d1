import numpy as np
import pytest
import scipy.sparse as sp

from downcast import autodiff as ad
from downcast import graphs as gr
from downcast.errors import ContractError, DimensionError
from downcast.sparse import CsrMatrix
from helpers import exp, gru_layer_reference, reduce_mean, scale_attention_reference


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

    @pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.elu, exp, ad.negate, ad.absolute])
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
    def test_blockwise_apply_equals_block_diagonal_product(self, blocks, shape):
        op = self.random_op(*shape)
        for transpose in (False, True):
            mat = op.csr_t if transpose else op.csr
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
        op = operator(3, 4, [0], [1], [1.0])
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

    def test_gru_scan(self):
        # every input in turn: the sequence, then the nine gate arrays
        rng = np.random.default_rng(21)
        x0, gates0 = _gru_inputs(rng, rows=3, d_in=3, d_h=4, n_steps=6)
        arrays = [x0] + [w for gate in gates0 for w in gate]
        weight = ad.constant(rng.normal(size=(3 * 3, 4)))
        for i, a0 in enumerate(arrays):
            def build(v, i=i):
                args = [v if j == i else ad.constant(a) for j, a in enumerate(arrays)]
                states = ad.gru_scan(args[0], 6, (1, 3, 5), [args[1:4], args[4:7], args[7:10]])
                return ad.reduce_sum(ad.mul(states, weight))

            check_grad(build, a0)

    def test_scale_attention(self):
        rng = np.random.default_rng(22)
        stacked0 = rng.normal(size=(3 * 4, 5))  # three 4-row encodings
        theta0 = rng.normal(size=(5, 2))
        weight = ad.constant(rng.normal(size=(2 * 4, 5)))

        def build(stacked, theta):
            slots = [ad.slice_rows(stacked, 4 * s, 4 * s + 4) for s in range(3)]
            fused, _ = ad.scale_attention(slots, theta)
            return ad.reduce_sum(ad.mul(fused, weight))

        check_grad(lambda v: build(v, ad.constant(theta0)), stacked0)
        check_grad(lambda v: build(ad.constant(stacked0), v), theta0)


def _gru_inputs(rng, rows, d_in, d_h, n_steps):
    x = rng.normal(size=(n_steps * rows, d_in))
    gates = [
        (rng.uniform(-0.6, 0.6, (d_in, d_h)), rng.uniform(-0.6, 0.6, (d_h, d_h)), rng.uniform(-0.3, 0.3, (1, d_h)))
        for _ in range(3)
    ]
    return x, gates


def _scans():
    # (sequence length, steps read) along temporal_chain(24, 3, 3): the first
    # layer reads every step, each later one the steps the layer below keeps
    chain = gr.temporal_chain(24, 3, 3)
    return [(24, tuple(range(24)))] + [(c.input_length, c.kept_indices) for c in chain]


class TestGruScan:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n_steps,steps", _scans())
    def test_matches_op_by_op_reference(self, batch, n_steps, steps):
        # same arithmetic order forward, so states are bit-equal; the adjoint
        # sums in another order, so it is held to 1e-12 of the largest entry
        rng = np.random.default_rng(100 * batch + n_steps)
        rows = 4 * batch
        x0, gates0 = _gru_inputs(rng, rows=rows, d_in=5, d_h=6, n_steps=n_steps)
        weight = ad.constant(rng.normal(size=(len(steps) * rows, 6)))

        def run(fused):
            tape = ad.Tape()
            x = tape.leaf(x0)
            gates = [tuple(tape.leaf(w) for w in gate) for gate in gates0]
            if fused:
                states = ad.gru_scan(x, n_steps, steps, gates)
            else:
                blocks = [ad.slice_rows(x, t * rows, (t + 1) * rows) for t in steps]
                states = ad.concat_rows(gru_layer_reference(blocks, gates))
            adj = tape.backward(ad.reduce_sum(ad.mul(states, weight)))
            return states.data, [adj[x.node]] + [adj[w.node] for gate in gates for w in gate]

        fused_states, fused_adj = run(True)
        ref_states, ref_adj = run(False)
        np.testing.assert_array_equal(fused_states, ref_states)
        assert len(fused_adj) == 10
        for got, want in zip(fused_adj, ref_adj):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(5)
        x0, gates0 = _gru_inputs(rng, rows=2, d_in=3, d_h=3, n_steps=4)
        gates = [tuple(ad.constant(w) for w in gate) for gate in gates0]
        out = ad.gru_scan(ad.constant(x0), 4, range(4), gates)
        assert out.tape is None
        tape = ad.Tape()
        tracked = ad.gru_scan(tape.leaf(x0), 4, range(4), gates)
        np.testing.assert_array_equal(out.data, tracked.data)

    def test_bad_steps_and_shapes_rejected(self):
        rng = np.random.default_rng(6)
        x0, gates0 = _gru_inputs(rng, rows=2, d_in=3, d_h=3, n_steps=4)
        gates = [tuple(ad.constant(w) for w in gate) for gate in gates0]
        for steps in [(1, 1), (2, 1), (0, 4), ()]:
            with pytest.raises(ContractError):
                ad.gru_scan(ad.constant(x0), 4, steps, gates)
        with pytest.raises(DimensionError):
            ad.gru_scan(ad.constant(x0), 3, (0, 1), gates)
        with pytest.raises(DimensionError):
            ad.gru_scan(ad.constant(x0[:, :2]), 4, (0, 1), gates)


class TestScaleAttention:
    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_matches_per_slot_reference(self, n_sets):
        rng = np.random.default_rng(30 + n_sets)
        slots0 = [rng.normal(size=(7, 4)) for _ in range(5)]
        theta0 = rng.normal(size=(4, n_sets))
        weight = rng.normal(size=(n_sets * 7, 4))

        def run(fused):
            tape = ad.Tape()
            slots = [tape.leaf(z) for z in slots0]
            theta = tape.leaf(theta0)
            if fused:
                out, alphas = ad.scale_attention(slots, theta)
            else:
                mixes, als = scale_attention_reference(slots, theta)
                out, alphas = ad.concat_rows(mixes), np.stack([a.data for a in als])
            adj = tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(weight))))
            return out.data, alphas, [adj[t.node] for t in (*slots, theta)]

        out, alphas, adj = run(True)
        ref_out, ref_alphas, ref_adj = run(False)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(alphas, ref_alphas)
        for got, want in zip(adj, ref_adj):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ad.scale_attention([ad.constant(np.ones((3, 2))), ad.constant(np.ones((2, 2)))], np.ones((2, 1)))
        with pytest.raises(DimensionError):
            ad.scale_attention([ad.constant(np.ones((3, 2)))], np.ones((3, 1)))
