import re

import numpy as np
import pytest

from downcast import autodiff as ad
from downcast import data as dt
from downcast import graphs as gr
from downcast import training as tr
from downcast.errors import ContractError, DimensionError
from downcast.model import (
    Model,
    ModelConfig,
    ModelRuntime,
    smp_messages,
    init_params,
    last_value_imputation,
)
from downcast.rng import stream_rng
from helpers import encode_inputs_reference, permute_hierarchy, softmax_rows, spatial_stack_reference

RNG = np.random.default_rng(17)


def make_setup(
    n=6,
    window=8,
    horizon=3,
    d_h=8,
    layers=2,
    factor=2,
    levels=1,
    variant="isotropic",
    per_step=False,
    d_u=2,
    seed=0,
    directed=True,
):
    if directed:
        graph = dt.random_indegree_graph(n, 2, seed)
    else:
        graph = dt.random_indegree_graph(n, 2, seed).undirected_view()
    config = ModelConfig(
        n_nodes=n,
        window=window,
        horizon=horizon,
        d_x=1,
        d_u=d_u,
        d_h=d_h,
        temporal_layers=layers,
        temporal_factor=factor,
        spatial_levels=levels,
        embedding_size=4,
        smp_variant=variant,
        diffusion_hops=2,
        decoder_hidden=(10,),
        per_step_attention=per_step,
    )
    hierarchy = gr.build_hierarchy(graph, hop_radius=1, levels=levels)
    model = Model(config, hierarchy, init_seed=seed)
    return model


def random_window(model, rng, missing=0.2):
    cfg = model.config
    x = rng.normal(size=(cfg.window, cfg.n_nodes, cfg.d_x))
    m = (rng.random(x.shape) > missing).astype(float)
    u = rng.normal(size=(cfg.window, cfg.n_nodes, cfg.d_u))
    return x, m, u


def stack_windows(windows):
    """(x, m, u) of several windows with node-major rows: row i*B + b is node i of window b."""
    return tuple(
        np.stack(parts, axis=2).reshape(parts[0].shape[0], -1, parts[0].shape[2]) for parts in zip(*windows)
    )


class TestImputation:
    def test_carry_last_valid(self):
        x = np.array([5.0, 7.0, 8.0, 9.0]).reshape(4, 1, 1)
        m = np.array([1.0, 0.0, 0.0, 1.0]).reshape(4, 1, 1)
        out = last_value_imputation(x, m)
        np.testing.assert_array_equal(out.ravel(), [5.0, 5.0, 5.0, 9.0])

    def test_fully_missing_channel_is_zero(self):
        x = RNG.normal(size=(5, 2, 1))
        out = last_value_imputation(x, np.zeros_like(x))
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_valid_mask_is_noop(self):
        x = RNG.normal(size=(5, 3, 2))
        np.testing.assert_array_equal(last_value_imputation(x, np.ones_like(x)), x)


class TestEncoder:
    def test_output_shape(self):
        model = make_setup()
        x, m, u = random_window(model, np.random.default_rng(0))
        tape = ad.Tape()
        seq = model.encode_inputs(model.bind(tape), x, m, u)
        # the W steps stacked time-major as one (W*N, d_h) tensor
        assert seq.data.shape == (model.config.window * model.config.n_nodes, model.config.d_h)

    def test_stacked_steps_equal_per_step_encoding(self):
        # three windows, so the embedding term is added to each node's three rows
        model = make_setup()
        rng = np.random.default_rng(1)
        x, m, u = stack_windows([random_window(model, rng) for _ in range(3)])
        seq = model.encode_inputs(model.bind(None), x, m, u).data
        pv = {k: v.value for k, v in model.params.items()}
        n, rows = model.config.n_nodes, x.shape[1]
        nodes = pv["embeddings"] @ pv["encoder.nodes"] + pv["encoder.bias"]
        ximp = last_value_imputation(x, m)
        for t in range(model.config.window):
            feats = np.concatenate([ximp[t], u[t], m[t]], axis=1)
            for b in range(rows // n):
                window = slice(b, rows, rows // n)  # window b's row of every node
                want = feats[window] @ pv["encoder.steps"] + nodes
                np.testing.assert_array_equal(seq[t * rows : (t + 1) * rows][window], want)
        # the factored products drift from one concatenated product in the last ulps
        np.testing.assert_allclose(seq, encode_inputs_reference(model, x, m, u), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["embeddings", "encoder.steps", "encoder.nodes", "encoder.bias"])
    def test_gradient_matches_finite_differences(self, name):
        model = make_setup()
        rng = np.random.default_rng(5)
        x, m, u = stack_windows([random_window(model, rng) for _ in range(3)])
        weight = rng.normal(size=(model.config.window * x.shape[1], model.config.d_h))

        def loss(tape):
            seq = model.encode_inputs(model.bind(tape), x, m, u)
            return ad.reduce_sum(ad.mul(seq, ad.constant(weight)))

        tape = ad.Tape()
        model.zero_grads()
        tape.backward(loss(tape))
        param, eps = model.params[name], 1e-6
        numeric = np.zeros_like(param.value)
        for idx in np.ndindex(param.value.shape):
            orig = param.value[idx]
            param.value[idx] = orig + eps
            up = float(loss(None).data)
            param.value[idx] = orig - eps
            down = float(loss(None).data)
            param.value[idx] = orig
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(param.grad, numeric, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("rows", [0, 7, 13])
    def test_rows_not_a_positive_multiple_of_nodes_rejected(self, rows):
        model = make_setup()
        x = np.zeros((model.config.window, rows, model.config.d_x))
        u = np.zeros((model.config.window, rows, model.config.d_u))
        with pytest.raises(DimensionError, match=f"{rows} window rows"):
            model.forward_batch(x, np.ones_like(x), u, record_gradients=False)

    @pytest.mark.parametrize("shape", [(9, 12, 2), (8, 13, 2), (8, 12, 1), (8, 12)])
    def test_exogenous_window_of_another_shape_rejected(self, shape):
        model = make_setup()  # 6 nodes, W = 8, d_u = 2; two windows are 12 rows
        x = np.zeros((model.config.window, 12, model.config.d_x))
        want = re.escape(f"uw has shape {shape}, expected (W, N*B, d_u) = (8, 12, 2)")
        with pytest.raises(DimensionError, match=want):
            model.forward_batch(x, np.ones_like(x), np.zeros(shape), record_gradients=False)

    @pytest.mark.parametrize("name, shape", [("xw", (7, 12, 1)), ("xw", (8, 12, 2)), ("mw", (8, 13, 1)),
                                             ("mw", (8, 12))])
    def test_window_array_of_another_shape_names_itself(self, name, shape):
        model = make_setup()  # 6 nodes, W = 8, d_x = 1, d_u = 2; x fixes the rows
        arrays = {"xw": np.zeros((8, 12, 1)), "mw": np.ones((8, 12, 1))}
        arrays[name] = np.zeros(shape)
        rows = arrays["xw"].shape[1]
        want = re.escape(f"{name} has shape {shape}, expected (W, N*B, d_x) = (8, {rows}, 1)")
        with pytest.raises(DimensionError, match=want):
            model.forward_batch(arrays["xw"], arrays["mw"], np.zeros((8, rows, 2)), record_gradients=False)


class TestTemporalStack:
    def test_scale_lengths_72_3_4(self):
        chain = gr.temporal_chain(72, 3, 4)
        assert [c.input_length for c in chain] == [72, 24, 8, 3]
        assert [c.output_length for c in chain] == [24, 8, 3, 1]

    def test_zero_weights_give_node_constant_summaries(self):
        model = make_setup()
        for name, param in model.params.items():
            if name.startswith("temporal."):
                param.value[...] = 0.0
        x, m, u = random_window(model, np.random.default_rng(2))
        tape = ad.Tape()
        p = model.bind(tape)
        z = model.temporal_stack(p, model.encode_inputs(p, x, m, u))
        layers = z.data.reshape(model.config.n_nodes, model.config.temporal_layers, -1).transpose(1, 0, 2)
        assert len(layers) == model.config.temporal_layers
        for z_l in layers:
            assert np.allclose(z_l, z_l[0])

    def test_node_permutation_permutes_rows(self):
        # temporal processing is node-wise, so permuting input rows permutes outputs
        model = make_setup(levels=0)
        x, m, u = random_window(model, np.random.default_rng(3))
        perm = np.random.default_rng(4).permutation(model.config.n_nodes)

        def run(xx, mm, uu, emb):
            model.params["embeddings"].value = emb
            tape = ad.Tape()
            p = model.bind(tape)
            z = model.temporal_stack(p, model.encode_inputs(p, xx, mm, uu))
            return z.data.reshape(model.config.n_nodes, model.config.temporal_layers, -1).transpose(1, 0, 2)

        emb0 = model.params["embeddings"].value.copy()
        base = run(x, m, u, emb0)
        permd = run(x[:, perm], m[:, perm], u[:, perm], emb0[perm])
        for zb, zp in zip(base, permd):
            np.testing.assert_allclose(zp, zb[perm], atol=1e-12)


class TestRecordCounts:
    def test_criterion_6_full_model_records_fused_stages(self):
        # N=20, W=24, L=3, K=2, batch 32; tape nodes per stage, counted as the
        # rise of the highest node id over the previous stage's outputs
        graph = dt.random_indegree_graph(20, 3, 0)
        config = ModelConfig(
            n_nodes=20, window=24, horizon=6, d_h=16, temporal_layers=3, temporal_factor=3,
            spatial_levels=2, embedding_size=8, smp_variant="isotropic", diffusion_hops=2,
            decoder_hidden=(32,),
        )
        model = Model(config, gr.build_hierarchy(graph, 1, 2), init_seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(24, 32 * 20, 1))
        m = (rng.uniform(size=x.shape) > 0.2).astype(float)
        u = np.zeros((24, 32 * 20, 0))
        y = rng.normal(size=(6 * 32 * 20, 1))
        tape = ad.Tape()
        p = model.bind(tape)
        seq = model.encode_inputs(p, x, m, u)
        z = model.temporal_stack(p, seq)
        slots = model.spatial_stack(p, z, model.runtime(32))
        _, fused = model.attention_fuse(p, slots)
        preds = model.readout(p, fused)
        tr.masked_mae_loss(preds, y, np.ones_like(y))
        assert z.node - seq.node <= 40
        assert fused.node - slots.node <= 5
        # the whole train step: records per stage op, not per layer, slot or horizon step
        assert len(tape._records) <= 70


class TestSmpMessages:
    def test_edgeless_graph_update_only(self):
        graph = gr.WeightedDigraph.from_edges(4, [], directed=False)
        hierarchy = gr.build_hierarchy(graph, 1, 1)
        config = ModelConfig(
            n_nodes=4, window=4, horizon=2, d_h=6, temporal_layers=1, spatial_levels=1,
            embedding_size=3, smp_variant="anisotropic", decoder_hidden=(8,),
        )
        model = Model(config, hierarchy, init_seed=1)
        x = RNG.normal(size=(4, 6))
        tape = ad.Tape()
        p = model.bind(tape)
        out = smp_messages(ad.constant(x), 1, p, config, model.runtime(1))
        expected = x @ model.params["spatial.k1.self.weight"].value + model.params["spatial.k1.self.bias"].value
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_anisotropic_call_records_four_tape_records(self):
        # self product, bias add, one fused edge-message record, the sum
        model = make_setup(n=10, levels=1, variant="anisotropic")
        tape = ad.Tape()
        p = model.bind(tape)
        x = tape.leaf(RNG.normal(size=(2 * 10, model.config.d_h)))
        assert model.runtime(2).edge_src[0].nnz > 0
        smp_messages(x, 1, p, model.config, model.runtime(2))
        assert len(tape._records) == 4

    def test_isotropic_two_node_hand_case(self):
        graph = gr.WeightedDigraph.from_edges(2, [(0, 1, 1.0)], directed=True)
        hierarchy = gr.build_hierarchy(graph, 1, 1)
        config = ModelConfig(
            n_nodes=2, window=4, horizon=2, d_h=5, temporal_layers=1, spatial_levels=1,
            embedding_size=3, smp_variant="isotropic", diffusion_hops=1, decoder_hidden=(8,),
        )
        model = Model(config, hierarchy, init_seed=2)
        x = RNG.normal(size=(2, 5))
        tape = ad.Tape()
        p = model.bind(tape)
        out = smp_messages(ad.constant(x), 1, p, config, model.runtime(1))
        pv = {k: v.value for k, v in model.params.items()}
        base = x @ pv["spatial.k1.self.weight"] + pv["spatial.k1.self.bias"]
        expected = base.copy()
        expected[1] += x[0] @ pv["spatial.k1.hop1.fwd"]  # forward message along 0 -> 1
        expected[0] += x[1] @ pv["spatial.k1.hop1.rev"]  # reverse-direction message
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_hop_operators_row_normalized(self):
        model = make_setup(n=10, levels=2, variant="isotropic")
        rt = model.runtime(1)
        for fwd in rt.iso_fwd:
            for op in fwd:
                sums = op.csr.sum(axis=1)
                nz = sums != 0.0
                np.testing.assert_allclose(sums[nz], 1.0, atol=1e-12)


class TestSpatialStack:
    def test_k0_slots_are_temporal_summaries(self):
        model = make_setup(levels=0)
        x, m, u = random_window(model, np.random.default_rng(5))
        bf = model.forward_batch(x, m, u)
        assert bf.slots.data.shape == (model.config.temporal_layers * model.config.n_nodes, model.config.d_h)

    def test_scale_count(self):
        model = make_setup(layers=3, levels=2, n=12)
        x, m, u = random_window(model, np.random.default_rng(6))
        bf = model.forward_batch(x, m, u)
        assert bf.slots.data.shape[0] // model.config.n_nodes == 3 * (2 + 1) == model.config.n_scales

    def test_single_supernode_level_algebra(self):
        # complete graph pools into one supernode: reduction sums message rows,
        # lifting divides by N and the ascent propagates over A^T
        n = 4
        edges = [(i, j, 1.0) for i in range(n) for j in range(n) if i != j]
        graph = gr.WeightedDigraph.from_edges(n, edges, directed=False)
        hierarchy = gr.build_hierarchy(graph, 1, 1)
        assert hierarchy.graphs[1].n == 1
        config = ModelConfig(
            n_nodes=n, window=4, horizon=2, d_h=6, temporal_layers=1, spatial_levels=1,
            embedding_size=3, smp_variant="isotropic", diffusion_hops=1, decoder_hidden=(8,),
        )
        model = Model(config, hierarchy, init_seed=3)
        z = RNG.normal(size=(n, 6))
        tape = ad.Tape()
        p = model.bind(tape)
        slots = model.spatial_stack(p, ad.constant(z), model.runtime(1))
        pv = {k: v.value for k, v in model.params.items()}
        msg = z @ pv["spatial.k1.self.weight"] + pv["spatial.k1.self.bias"]
        und = hierarchy.graphs[0].csr.toarray()
        norm = und / und.sum(axis=1, keepdims=True)
        msg = msg + norm.T @ z @ pv["spatial.k1.hop1.fwd"]
        pooled = msg.sum(axis=0, keepdims=True)
        lifted = np.repeat(pooled / n, n, axis=0)
        expected = und.T @ lifted
        np.testing.assert_allclose(slots.data.reshape(n, 2, 6)[:, 1], expected, atol=1e-10)  # each node's slot 1


class TestStackedSpatialStack:
    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    def test_blocks_equal_per_layer_reference(self, variant, levels):
        # 4 windows, so every product has a multiple of 4 rows per layer: OpenBLAS
        # computes the rows past the last 4-row tile with another kernel, whose
        # sums may round differently once layers are stacked
        model = make_setup(n=10, layers=3, levels=levels, variant=variant)
        cfg, batch = model.config, 4
        rng = np.random.default_rng(20 + levels)
        rows = batch * cfg.n_nodes
        z0 = rng.normal(size=(cfg.temporal_layers, rows, cfg.d_h))
        weight = ad.constant(rng.normal(size=(rows * cfg.n_scales, cfg.d_h)))
        rt = model.runtime(batch)

        def run(stacked):
            tape = ad.Tape()
            p = model.bind(tape)
            layers = [tape.leaf(z) for z in z0]
            if stacked:
                # each row followed by its L summaries, as the temporal stack hands them on
                out = model.spatial_stack(p, ad.concat_rows(layers, groups=rows), rt)
            else:
                out = ad.concat_rows(spatial_stack_reference(model, p, layers, rt), groups=rows)
            model.zero_grads()
            adj = tape.backward(ad.reduce_sum(ad.mul(out, weight)))
            d_z = np.stack([adj[z.node] for z in layers])
            return out.data, d_z, {name: q.grad.copy() for name, q in model.params.items()}

        out, d_z, grads = run(True)
        ref_out, ref_d_z, ref_grads = run(False)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(d_z, ref_d_z)
        # a spatial weight's gradient is now one product over all layers'
        # rows, not one per layer summed, so it agrees to rounding only
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12 * max(1.0, np.abs(g).max()))


class TestAttentionFuse:
    def test_single_scale_alpha_is_one(self):
        model = make_setup(layers=1, levels=0)
        x, m, u = random_window(model, np.random.default_rng(7))
        bf = model.forward_batch(x, m, u)
        np.testing.assert_allclose(bf.alphas[:, 0], np.ones((model.config.n_nodes, 1)), atol=1e-15)

    def test_zero_attention_weight_gives_uniform_mixture(self):
        model = make_setup(layers=2, levels=1)
        model.params["attention.weight"].value[...] = 0.0
        x, m, u = random_window(model, np.random.default_rng(8))
        bf = model.forward_batch(x, m, u)
        s = model.config.n_scales
        np.testing.assert_allclose(bf.alphas[:, 0], np.full((model.config.n_nodes, s), 1.0 / s), atol=1e-12)

    def test_constant_score_shift_leaves_alpha_unchanged(self):
        x = RNG.uniform(-1, 1, (5, 4))
        a1 = softmax_rows(ad.constant(x)).data
        a2 = softmax_rows(ad.constant(x + 3.7)).data
        np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_alpha_rows_sum_to_one(self):
        model = make_setup(layers=2, levels=1, per_step=True)
        x, m, u = random_window(model, np.random.default_rng(9))
        trace = model.forward_window(x, m, u)
        assert trace.alphas.shape[0] == model.config.horizon
        np.testing.assert_allclose(trace.alphas.sum(axis=2), 1.0, atol=1e-9)


class TestReadout:
    def test_zero_weights_zero_predictions(self):
        model = make_setup()
        for name, param in model.params.items():
            if name.startswith("readout."):
                param.value[...] = 0.0
        x, m, u = random_window(model, np.random.default_rng(10))
        trace = model.forward_window(x, m, u)
        np.testing.assert_array_equal(trace.predictions, np.zeros_like(trace.predictions))

    @pytest.mark.parametrize("per_step", [False, True])
    def test_prediction_shape(self, per_step):
        model = make_setup(per_step=per_step)
        x, m, u = random_window(model, np.random.default_rng(11))
        trace = model.forward_window(x, m, u)
        cfg = model.config
        assert trace.predictions.shape == (cfg.horizon, cfg.n_nodes, cfg.d_x)

    def test_per_step_identical_inputs_identical_outputs(self):
        model = make_setup(per_step=True)
        x, m, u = random_window(model, np.random.default_rng(12))
        t1 = model.forward_window(x, m, u)
        t2 = model.forward_window(x, m, u)
        np.testing.assert_array_equal(t1.predictions, t2.predictions)


class TestForward:
    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    def test_deterministic(self, variant):
        model = make_setup(variant=variant)
        x, m, u = random_window(model, np.random.default_rng(13))
        t1 = model.forward_window(x, m, u)
        t2 = model.forward_window(x, m, u)
        assert np.array_equal(t1.predictions, t2.predictions)
        assert np.array_equal(t1.alphas, t2.alphas)

    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    def test_node_permutation_equivariance(self, variant):
        # perm maps old node index -> new node index
        model = make_setup(variant=variant, levels=1, layers=2)
        cfg = model.config
        x, m, u = random_window(model, np.random.default_rng(14))
        base = model.forward_window(x, m, u).predictions
        perm = np.random.default_rng(15).permutation(cfg.n_nodes)
        inv = np.argsort(perm)
        params = {k: ad.Parameter(k, v.value.copy()) for k, v in model.params.items()}
        emb = np.empty_like(params["embeddings"].value)
        emb[perm] = model.params["embeddings"].value
        params["embeddings"].value[...] = emb
        permuted = Model(cfg, permute_hierarchy(model.hierarchy, perm), params=params)
        out = permuted.forward_window(x[:, inv], m[:, inv], u[:, inv]).predictions
        np.testing.assert_allclose(out[:, perm], base, atol=1e-9)

    def test_batched_equals_sequential(self):
        model = make_setup(variant="anisotropic", levels=1, layers=2)
        rng = np.random.default_rng(16)
        w1, w2 = random_window(model, rng), random_window(model, rng)
        bf = model.forward_batch(*stack_windows([w1, w2]))
        n = model.config.n_nodes
        solo1 = model.forward_window(*w1).predictions
        solo2 = model.forward_window(*w2).predictions
        # (node, window, step) rows, as (step, node) per window
        batch_preds = bf.preds.data.reshape(n, 2, model.config.horizon, model.config.d_x).transpose(1, 2, 0, 3)
        np.testing.assert_allclose(batch_preds[0], solo1, atol=1e-12)
        np.testing.assert_allclose(batch_preds[1], solo2, atol=1e-12)
        assert model.runtime(1) is model.runtime(32)  # one operator set serves every batch size

    def test_forward_window_takes_one_window(self):
        model = make_setup()
        rng = np.random.default_rng(20)
        x, m, u = stack_windows([random_window(model, rng) for _ in range(2)])
        with pytest.raises(DimensionError, match=re.escape("one window's 6 node rows, got x of shape (8, 12, 1)")):
            model.forward_window(x, m, u)

    def test_masked_entries_do_not_affect_forward(self):
        model = make_setup()
        x, m, u = random_window(model, np.random.default_rng(19), missing=0.4)
        base = model.forward_window(x, m, u).predictions
        x2 = np.where(m == 0.0, x + 99.0, x)
        np.testing.assert_array_equal(model.forward_window(x2, m, u).predictions, base)


class TestModelConfig:
    @pytest.mark.parametrize("widths", [(0,), (-3,), (8, 0)])
    def test_non_positive_decoder_width_rejected(self, widths):
        with pytest.raises(ContractError, match="decoder_hidden"):
            ModelConfig(n_nodes=4, window=4, horizon=2, decoder_hidden=widths)


class TestInitParams:
    def test_weight_bounds(self):
        model = make_setup(d_h=16)
        cfg = model.config
        for name, p in model.params.items():
            if name == "embeddings":
                assert np.max(np.abs(p.value)) <= 0.1
            elif name.endswith(".bias"):
                assert np.all(p.value == 0.0)
            else:
                # the two encoder blocks are split from one draw over all encoder inputs
                enc_in = 2 * cfg.d_x + cfg.d_u + cfg.embedding_size
                fan_in = enc_in if name.startswith("encoder.") else p.value.shape[-2]
                assert np.max(np.abs(p.value)) <= 1.0 / np.sqrt(fan_in)

    def test_blocks_equal_the_per_gate_and_whole_encoder_draws(self):
        # redraw the stream as one array per gate weight and one whole
        # encoder weight, in init order: the stored blocks are those bits
        model = make_setup(seed=3, layers=3)
        cfg, pv = model.config, {k: v.value for k, v in model.params.items()}
        rng = stream_rng(3, "init")

        def draw(shape, bound):
            return rng.uniform(-bound, bound, size=shape)

        def assert_bits(got, want):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

        assert_bits(pv["embeddings"], draw((cfg.n_nodes, cfg.embedding_size), 0.1))
        n_feats = 2 * cfg.d_x + cfg.d_u
        enc_in = n_feats + cfg.embedding_size
        encoder = draw((enc_in, cfg.d_h), 1.0 / np.sqrt(enc_in))
        assert_bits(pv["encoder.steps"], encoder[:n_feats])
        assert_bits(pv["encoder.nodes"], encoder[n_feats:])
        assert_bits(pv["encoder.bias"], np.zeros((1, cfg.d_h)))
        for layer in range(cfg.temporal_layers):
            prefix = f"temporal.l{layer}"
            for gate in range(3):  # reset, update, candidate
                assert_bits(pv[f"{prefix}.w_in"][gate], draw((cfg.d_h, cfg.d_h), 1.0 / np.sqrt(cfg.d_h)))
                assert_bits(pv[f"{prefix}.w_hid"][gate], draw((cfg.d_h, cfg.d_h), 1.0 / np.sqrt(cfg.d_h)))
            assert_bits(pv[f"{prefix}.bias"], np.zeros((3, 1, cfg.d_h)))
        # the next weight continues the stream where the per-gate draws left it
        assert_bits(pv["spatial.k1.hop1.fwd"], draw((cfg.d_h, cfg.d_h), 1.0 / np.sqrt(cfg.d_h)))

    def test_reverse_weights_only_for_directed(self):
        directed = make_setup(variant="isotropic", directed=True)
        undirected = make_setup(variant="isotropic", directed=False)
        assert any(".rev" in k for k in directed.params)
        assert not any(".rev" in k for k in undirected.params)

    def test_same_seed_same_init(self):
        a, b = make_setup(seed=5), make_setup(seed=5)
        for k in a.params:
            assert np.array_equal(a.params[k].value, b.params[k].value)
