import numpy as np
import pytest

from downcast import autodiff as ad
from downcast import data as dt
from downcast import graphs as gr
from downcast.model import (
    Model,
    ModelConfig,
    ModelRuntime,
    smp_messages,
    _TapeParams,
    init_params,
    last_value_imputation,
)

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
        seq = model.encode_inputs(_TapeParams(tape, model.params), x, m, u, 1)
        # the W steps stacked time-major as one (W*N, d_h) tensor
        assert seq.data.shape == (model.config.window * model.config.n_nodes, model.config.d_h)

    def test_stacked_steps_equal_per_step_encoding(self):
        model = make_setup()
        x, m, u = random_window(model, np.random.default_rng(1))
        seq = model.encode_inputs(_TapeParams(None, model.params), x, m, u, 1).data
        pv = {k: v.value for k, v in model.params.items()}
        n = model.config.n_nodes
        for t in range(model.config.window):
            feats = np.concatenate([last_value_imputation(x, m)[t], u[t], m[t], pv["embeddings"]], axis=1)
            np.testing.assert_array_equal(seq[t * n : (t + 1) * n], feats @ pv["encoder.weight"] + pv["encoder.bias"])


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
        p = _TapeParams(tape, model.params)
        z_list = model.temporal_stack(p, model.encode_inputs(p, x, m, u, 1))
        assert len(z_list) == model.config.temporal_layers
        for z in z_list:
            assert np.allclose(z.data, z.data[0])

    def test_node_permutation_permutes_rows(self):
        # temporal processing is node-wise, so permuting input rows permutes outputs
        model = make_setup(levels=0)
        x, m, u = random_window(model, np.random.default_rng(3))
        perm = np.random.default_rng(4).permutation(model.config.n_nodes)

        def run(xx, mm, uu, emb):
            model.params["embeddings"].value = emb
            tape = ad.Tape()
            p = _TapeParams(tape, model.params)
            return [z.data for z in model.temporal_stack(p, model.encode_inputs(p, xx, mm, uu, 1))]

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
        p = _TapeParams(ad.Tape(), model.params)
        seq = model.encode_inputs(p, x, m, u, 32)
        z_list = model.temporal_stack(p, seq)
        slots = model.spatial_stack(p, z_list, model.runtime(32))
        _, fused = model.attention_fuse(p, slots)
        assert max(z.node for z in z_list) - seq.node <= 40
        assert fused.node - max(s.node for s in slots) <= 5


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
        p = _TapeParams(tape, model.params)
        out = smp_messages(ad.constant(x), 1, p, config, model.runtime(1))
        expected = x @ model.params["spatial.k1.self.weight"].value + model.params["spatial.k1.self.bias"].value
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

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
        p = _TapeParams(tape, model.params)
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
        bf = model.forward_batch(x, m, u, 1)
        assert len(bf.slots) == model.config.temporal_layers

    def test_scale_count(self):
        model = make_setup(layers=3, levels=2, n=12)
        x, m, u = random_window(model, np.random.default_rng(6))
        bf = model.forward_batch(x, m, u, 1)
        assert len(bf.slots) == 3 * (2 + 1) == model.config.n_scales

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
        p = _TapeParams(tape, model.params)
        slots = model.spatial_stack(p, [ad.constant(z)], model.runtime(1))
        pv = {k: v.value for k, v in model.params.items()}
        msg = z @ pv["spatial.k1.self.weight"] + pv["spatial.k1.self.bias"]
        und = hierarchy.graphs[0].csr.toarray()
        norm = und / und.sum(axis=1, keepdims=True)
        msg = msg + norm.T @ z @ pv["spatial.k1.hop1.fwd"]
        pooled = msg.sum(axis=0, keepdims=True)
        lifted = np.repeat(pooled / n, n, axis=0)
        expected = und.T @ lifted
        np.testing.assert_allclose(slots[1].data, expected, atol=1e-10)


class TestAttentionFuse:
    def test_single_scale_alpha_is_one(self):
        model = make_setup(layers=1, levels=0)
        x, m, u = random_window(model, np.random.default_rng(7))
        bf = model.forward_batch(x, m, u, 1)
        np.testing.assert_allclose(bf.alphas[0].data, np.ones((model.config.n_nodes, 1)), atol=1e-15)

    def test_zero_attention_weight_gives_uniform_mixture(self):
        model = make_setup(layers=2, levels=1)
        model.params["attention.weight"].value[...] = 0.0
        x, m, u = random_window(model, np.random.default_rng(8))
        bf = model.forward_batch(x, m, u, 1)
        s = model.config.n_scales
        np.testing.assert_allclose(bf.alphas[0].data, np.full((model.config.n_nodes, s), 1.0 / s), atol=1e-12)

    def test_constant_score_shift_leaves_alpha_unchanged(self):
        x = RNG.uniform(-1, 1, (5, 4))
        a1 = ad.softmax_rows(ad.constant(x)).data
        a2 = ad.softmax_rows(ad.constant(x + 3.7)).data
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


from helpers import permute_hierarchy


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
        xs = np.concatenate([w1[0], w2[0]], axis=1)
        ms = np.concatenate([w1[1], w2[1]], axis=1)
        us = np.concatenate([w1[2], w2[2]], axis=1)
        bf = model.forward_batch(xs, ms, us, batch_size=2)
        n = model.config.n_nodes
        solo1 = model.forward_window(*w1).predictions
        solo2 = model.forward_window(*w2).predictions
        batch_preds = np.stack([t.data for t in bf.preds])
        np.testing.assert_allclose(batch_preds[:, :n], solo1, atol=1e-12)
        np.testing.assert_allclose(batch_preds[:, n:], solo2, atol=1e-12)
        assert model.runtime(1) is model.runtime(32)  # one operator set serves every batch size

    def test_masked_entries_do_not_affect_forward(self):
        model = make_setup()
        x, m, u = random_window(model, np.random.default_rng(19), missing=0.4)
        base = model.forward_window(x, m, u).predictions
        x2 = np.where(m == 0.0, x + 99.0, x)
        np.testing.assert_array_equal(model.forward_window(x2, m, u).predictions, base)


class TestInitParams:
    def test_weight_bounds(self):
        model = make_setup(d_h=16)
        for name, p in model.params.items():
            if name == "embeddings":
                assert np.max(np.abs(p.value)) <= 0.1
            elif name.endswith(".bias"):
                assert np.all(p.value == 0.0)
            else:
                assert np.max(np.abs(p.value)) <= 1.0 / np.sqrt(p.value.shape[0])

    def test_reverse_weights_only_for_directed(self):
        directed = make_setup(variant="isotropic", directed=True)
        undirected = make_setup(variant="isotropic", directed=False)
        assert any(".rev" in k for k in directed.params)
        assert not any(".rev" in k for k in undirected.params)

    def test_same_seed_same_init(self):
        a, b = make_setup(seed=5), make_setup(seed=5)
        for k in a.params:
            assert np.array_equal(a.params[k].value, b.params[k].value)
