"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s -v tests/test_acceptance.py` to see the verdict lines on
passing criteria too. Criterion 6 trains six small models and dominates the
runtime (several minutes on one CPU core).
"""
import time

import numpy as np
import pytest

from downcast import autodiff as ad
from downcast import cli
from downcast import data as dt
from downcast import graphs as gr
from downcast import training as tr
from downcast.masking import MaskConfig, simulate_block, simulate_point
from downcast.model import Model, ModelConfig
from downcast.rng import stream_rng
from helpers import hop_rings, lift_features, neighbor_lists, reduce_features


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- criterion 1: gradient correctness -----------------------------------------------


def _gradient_config(variant: str) -> tuple[Model, tr.DataBundle]:
    graph = dt.random_indegree_graph(6, 2, seed=11)
    panel, adot = dt.generate_mso(graph, hops=2, length=80, fan_in=3, seed=11)
    sim = simulate_block(panel.x.shape, MaskConfig(eta=0.15, p_f=0.02, s_min=2, s_max=6, seed=11), adot)
    train_w, val_w, test_w = dt.make_windows(panel, 12, 4)
    scaler = dt.fit_scaler(panel, (0, 60), "standard")
    bundle = tr.DataBundle(panel=panel, scaler=scaler, sim_mask=sim.mask,
                           train=train_w, val=val_w, test=test_w)
    config = ModelConfig(
        n_nodes=6, window=12, horizon=4, d_x=1, d_u=0, d_h=8,
        temporal_layers=2, temporal_factor=2, spatial_levels=1,
        embedding_size=4, smp_variant=variant, diffusion_hops=2,
        decoder_hidden=(16,), per_step_attention=False,
    )
    model = Model(config, gr.build_hierarchy(graph, 1, 1), init_seed=11)
    return model, bundle


def test_criterion_1_gradient_correctness():
    started = time.time()
    eps = 1e-6
    worst = 0.0
    total_entries = 0
    for variant in ("isotropic", "anisotropic"):
        model, bundle = _gradient_config(variant)
        batch = tr.assemble_batch(bundle, bundle.train[:2], mask_targets=True)

        def loss_value():
            bf = model.forward_batch(batch.x, batch.m, batch.u, 2, record_gradients=False)
            return float(tr.masked_mae_loss(bf.preds, batch.targets, batch.target_masks).data)

        bf = model.forward_batch(batch.x, batch.m, batch.u, 2)
        # keep clear of the absolute-value kink so central differences are valid
        residual_floor = min(
            float(np.min(np.abs(p.data - t)[m == 1.0]))
            for p, t, m in zip(bf.preds, batch.targets, batch.target_masks)
            if np.any(m == 1.0)
        )
        assert residual_floor > 1e-4, "test fixture too close to the |x| kink"
        loss = tr.masked_mae_loss(bf.preds, batch.targets, batch.target_masks)
        model.zero_grads()
        bf.tape.backward(loss)
        for p in model.parameters():
            flat = p.value.ravel()
            grads = p.grad.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_value()
                flat[idx] = orig - eps
                down = loss_value()
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                err = abs(grads[idx] - numeric) / max(1.0, abs(grads[idx]), abs(numeric))
                worst = max(worst, err)
                total_entries += 1
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(1, "gradient correctness", ok,
             f"{total_entries} entries, max rel err {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


# -- criterion 2: mask calibration ----------------------------------------------------


def test_criterion_2_mask_calibration():
    started = time.time()
    graph = dt.random_indegree_graph(100, 3, seed=0)
    panel, adot = dt.generate_mso(graph, hops=2, length=10000, fan_in=5, seed=0)
    shape = panel.x.shape
    point = simulate_point(shape, 0.05, stream_rng(0, "mask")).missing_fraction
    block = simulate_block(
        shape, MaskConfig(eta=0.05, p_f=0.01, s_min=8, s_max=48, seed=0)
    ).missing_fraction
    prop = simulate_block(
        shape, MaskConfig(eta=0.05, p_f=0.005, s_min=8, s_max=48, p_g=(1.0,), seed=0), adot
    ).missing_fraction
    elapsed = time.time() - started
    ok = (
        abs(point - 0.05) <= 0.005
        and abs(block - 0.27) <= 0.03
        and abs(prop - 0.67) <= 0.05
        and elapsed < 30.0
    )
    _verdict(2, "mask calibration", ok,
             f"point={point:.4f} block={block:.4f} block-prop={prop:.4f}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert abs(point - 0.05) <= 0.005
    assert abs(block - 0.27) <= 0.03
    # Known shortfall: with identical copied intervals and successor
    # neighbourhoods over the fixed 5-per-column mixing matrix, the expected
    # fraction is ~0.59 (undirected neighbourhoods give ~0.78); see the
    # decisions ledger for the full analysis.
    assert abs(prop - 0.67) <= 0.05


# -- criterion 3: pooling invariants ---------------------------------------------------


def test_criterion_3_pooling_invariants():
    rng = np.random.default_rng(33)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(5, 61))
        k = int(rng.integers(1, 4))
        edges = {}
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.08:
                    w = float(rng.uniform(0.1, 1.0))
                    edges[(i, j)] = w
                    edges[(j, i)] = w
        graph = gr.WeightedDigraph.from_edges(n, [(i, j, w) for (i, j), w in edges.items()],
                                              directed=False)
        sel = gr.kmis_select(graph, k)
        assert sel.assignment.size == n
        assert sel.cluster_sizes.sum() == n and np.all(sel.cluster_sizes >= 1)
        np.testing.assert_array_equal(
            np.bincount(sel.assignment, minlength=sel.n_sup), sel.cluster_sizes
        )
        adj = neighbor_lists(graph)
        centroid_set = set(sel.centroids.tolist())
        for c in sel.centroids:
            assert not set(np.concatenate(hop_rings(adj, int(c), k)).tolist()) & centroid_set
        xc = rng.normal(size=(sel.n_sup, 3))
        back = reduce_features(sel, lift_features(sel, xc))
        assert np.max(np.abs(back - xc)) <= 1e-12
        checked += 1

    path6 = gr.WeightedDigraph.from_edges(
        6, [(i, i + 1, 1.0) for i in range(5)] + [(i + 1, i, 1.0) for i in range(5)], directed=False
    )
    sel = gr.kmis_select(path6, 1)
    np.testing.assert_array_equal(sel.centroids, [0, 2, 4])
    np.testing.assert_array_equal(sel.assignment, [0, 0, 1, 1, 2, 2])
    coarse = gr.connect_coarse(sel, path6)
    np.testing.assert_array_equal(
        coarse.csr.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    )
    _verdict(3, "pooling invariants", True, f"{checked} random graphs + 6-path exact case")


# -- criterion 4: temporal hierarchy ----------------------------------------------------


def test_criterion_4_temporal_hierarchy():
    chain = gr.temporal_chain(72, 3, 4)
    lengths = [c.output_length for c in chain]
    survives = all(c.kept_indices[-1] == c.input_length - 1 for c in chain)
    ok = lengths == [24, 8, 3, 1] and survives
    _verdict(4, "temporal hierarchy", ok, f"lengths {lengths}, last step kept: {survives}")
    assert lengths == [24, 8, 3, 1]
    assert survives


# -- criterion 5: architecture contracts -------------------------------------------------


def test_criterion_5_architecture_contracts():
    graph = dt.random_indegree_graph(9, 2, seed=7)
    panel, _ = dt.generate_mso(graph, hops=2, length=60, fan_in=3, seed=7)
    config = ModelConfig(
        n_nodes=9, window=10, horizon=3, d_x=1, d_u=0, d_h=10,
        temporal_layers=2, temporal_factor=2, spatial_levels=1,
        embedding_size=4, smp_variant="anisotropic", decoder_hidden=(12,),
    )
    hierarchy = gr.build_hierarchy(graph, 1, 1)
    model = Model(config, hierarchy, init_seed=7)
    rng = np.random.default_rng(5)
    x = panel.x[:10]
    m = (rng.random(x.shape) > 0.25).astype(float)
    u = np.zeros((10, 9, 0))
    trace = model.forward_window(x, m, u)

    n_scales_ok = trace.encodings.shape[0] == config.n_scales == 4
    alpha_ok = np.max(np.abs(trace.alphas.sum(axis=2) - 1.0)) <= 1e-9

    perm = np.random.default_rng(8).permutation(9)
    inv = np.argsort(perm)
    from helpers import permute_hierarchy

    params = {k: ad.Parameter(k, v.value.copy()) for k, v in model.params.items()}
    emb = np.empty_like(params["embeddings"].value)
    emb[perm] = model.params["embeddings"].value
    params["embeddings"].value[...] = emb
    permuted = Model(config, permute_hierarchy(hierarchy, perm), params=params)
    out = permuted.forward_window(x[:, inv], m[:, inv], u[:, inv]).predictions
    equivariance_err = float(np.max(np.abs(out[:, perm] - trace.predictions)))

    # loss and gradients must ignore target values at masked entries
    target = rng.normal(size=(3, 9, 1))
    tmask = (rng.random(target.shape) > 0.4).astype(float)
    bf = model.forward_batch(x, m, u, 1)
    loss1 = tr.masked_mae_loss(bf.preds, [target[h] for h in range(3)], [tmask[h] for h in range(3)])
    model.zero_grads()
    bf.tape.backward(loss1)
    grads1 = {k: v.grad.copy() for k, v in model.params.items()}
    target2 = np.where(tmask == 0.0, target + 1e6, target)
    bf2 = model.forward_batch(x, m, u, 1)
    loss2 = tr.masked_mae_loss(bf2.preds, [target2[h] for h in range(3)], [tmask[h] for h in range(3)])
    model.zero_grads()
    bf2.tape.backward(loss2)
    loss_bit_identical = float(loss1.data) == float(loss2.data)
    grads_identical = all(np.array_equal(grads1[k], v.grad) for k, v in model.params.items())

    ok = n_scales_ok and alpha_ok and equivariance_err <= 1e-9 and loss_bit_identical and grads_identical
    _verdict(5, "architecture contracts", ok,
             f"scales={trace.encodings.shape[0]}, perm err {equivariance_err:.2e}, "
             f"masked-loss bit-identical: {loss_bit_identical}")
    assert n_scales_ok
    assert alpha_ok
    assert equivariance_err <= 1e-9
    assert loss_bit_identical and grads_identical


# -- criterion 6: desk-scale learning ordering ---------------------------------------------


def _ordering_bundle(seed):
    graph = dt.random_indegree_graph(20, 3, seed)
    panel, adot = dt.generate_mso(graph, hops=2, length=5000, fan_in=5, seed=seed)
    sim = simulate_block(
        panel.x.shape, MaskConfig(eta=0.05, p_f=0.01, s_min=8, s_max=48, seed=seed), adot
    )
    train_w, val_w, test_w = dt.make_windows(panel, 24, 6)
    visible = dt.Panel(
        x=np.where(panel.mask * sim.mask == 1.0, panel.x, 0.0),
        mask=panel.mask * sim.mask, u=panel.u,
    )
    scaler = dt.fit_scaler(visible, (0, train_w[-1].start + 24), "standard")
    return graph, tr.DataBundle(panel=panel, scaler=scaler, sim_mask=sim.mask,
                                train=train_w, val=val_w, test=test_w)


def _ordering_run(graph, bundle, seed, layers, levels):
    config = ModelConfig(
        n_nodes=20, window=24, horizon=6, d_x=1, d_u=0, d_h=16,
        temporal_layers=layers, temporal_factor=3, spatial_levels=levels,
        embedding_size=8, smp_variant="isotropic", diffusion_hops=2,
        decoder_hidden=(32,), per_step_attention=False,
    )
    model = Model(config, gr.build_hierarchy(graph, 1, levels), init_seed=seed)
    budget = tr.TrainConfig(
        learning_rate=0.005, batch_size=32, batches_per_epoch=40, max_epochs=40,
        early_stop_patience=50, eval_batch_size=128, seed=seed,
    )
    tr.train(model, bundle, budget)
    return tr.evaluate(model, bundle, "test", batch_size=128).mae


@pytest.mark.slow
def test_criterion_6_learning_ordering():
    started = time.time()
    wins = 0
    rows = []
    for seed in (0, 1, 2):
        graph, bundle = _ordering_bundle(seed)
        persistence = tr.persistence_metrics(bundle, "test", 6).mae
        full = _ordering_run(graph, bundle, seed, layers=3, levels=2)
        baseline = _ordering_run(graph, bundle, seed, layers=1, levels=0)
        ordered = full < baseline and full < persistence
        wins += int(ordered)
        rows.append(f"seed {seed}: full={full:.3f} gru={baseline:.3f} pers={persistence:.3f}"
                    f" {'<ordered>' if ordered else '<violated>'}")
    elapsed = time.time() - started
    ok = wins >= 2 and elapsed < 1800.0
    _verdict(6, "learning ordering", ok, "; ".join(rows) + f"; {elapsed:.0f}s")
    assert elapsed < 1800.0
    assert wins >= 2


# -- criterion 7: determinism ----------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    config = {
        "seed": 3,
        "output_dir": str(tmp_path / "a"),
        "dataset": {"kind": "mso", "nodes": 8, "steps": 150, "fan_in": 3, "hops": 2,
                    "in_degree": 2, "window": 8, "horizon": 3},
        "mask": {"eta": 0.05, "p_f": 0.01, "s_min": 3, "s_max": 8, "p_g": [1.0]},
        "model": {"d_h": 8, "temporal_layers": 2, "temporal_factor": 2, "spatial_levels": 1,
                  "embedding_size": 4, "decoder_hidden": [8]},
        "train": {"max_epochs": 2, "batches_per_epoch": 4, "batch_size": 4, "eval_batch_size": 16},
    }
    import json

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    cli.run_experiment(path)
    cli.run_experiment(path, out=str(tmp_path / "b"))
    first = (tmp_path / "a" / "metrics.json").read_bytes()
    second = (tmp_path / "b" / "metrics.json").read_bytes()
    ok = first == second
    _verdict(7, "determinism", ok, f"metrics.json identical: {ok}")
    assert ok


# -- criterion 8: interpretability export -----------------------------------------------------


def test_criterion_8_interpretability_export(tmp_path):
    import csv as csv_mod
    import json

    out = tmp_path / "run"
    config = {
        "seed": 4,
        "output_dir": str(out),
        "dataset": {"kind": "mso", "nodes": 10, "steps": 220, "fan_in": 3, "hops": 2,
                    "in_degree": 2, "window": 9, "horizon": 4},
        "mask": {"eta": 0.1, "p_f": 0.01, "s_min": 3, "s_max": 8, "p_g": [1.0]},
        "model": {"d_h": 8, "temporal_layers": 3, "temporal_factor": 2, "spatial_levels": 2,
                  "embedding_size": 4, "decoder_hidden": [8], "per_step_attention": True},
        "train": {"max_epochs": 1, "batches_per_epoch": 3, "batch_size": 4, "eval_batch_size": 16},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path)]) == 0
    scores = tmp_path / "scores.csv"
    assert cli.main(["dump-scores", "--checkpoint", str(out / "checkpoint"),
                     "--window", "2", "--out", str(scores)]) == 0
    with open(scores) as fh:
        rows = list(csv_mod.DictReader(fh))
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r["node"], r["horizon_step"]), []).append(float(r["alpha"]))
    sizes = {len(v) for v in groups.values()}
    sums_ok = all(abs(sum(v) - 1.0) <= 1e-6 for v in groups.values())
    ok = sizes == {9} and sums_ok and len(groups) == 10 * 4
    _verdict(8, "interpretability export", ok,
             f"{len(groups)} (node, step) groups of {sorted(sizes)} alphas, sums ok: {sums_ok}")
    assert sizes == {9}
    assert sums_ok
    assert len(groups) == 40
