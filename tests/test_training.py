import dataclasses
import gc
import json
import weakref
from datetime import datetime, timedelta

import numpy as np
import pytest

from downcast import autodiff as ad
from downcast import cli
from downcast import data as dt
from downcast import graphs as gr
from downcast import training as tr
from downcast.errors import ContractError
from downcast.masking import MaskConfig, simulate_block
from downcast.model import Model, ModelConfig, last_value_imputation
from helpers import assemble_batch_reference, masked_metrics, write_csv_panel


def make_bundle(
    n=8, t=220, window=8, horizon=3, eta=0.1, p_f=0.01, seed=3, layers=2, levels=1,
    variant="isotropic", d_h=8, per_step=False,
):
    graph = dt.random_indegree_graph(n, 2, seed)
    panel, adot = dt.generate_mso(graph, hops=2, length=t, fan_in=3, seed=seed)
    sim = simulate_block(panel.x.shape, MaskConfig(eta=eta, p_f=p_f, s_min=3, s_max=9, seed=seed), adot)
    train_w, val_w, test_w = dt.make_windows(panel, window, horizon)
    scaler = dt.fit_scaler(panel, (0, train_w[-1] + window), "standard")
    bundle = tr.DataBundle(
        panel=panel, scaler=scaler, sim_mask=sim.mask, train=train_w, val=val_w, test=test_w,
        window=window, horizon=horizon,
    )
    config = ModelConfig(
        n_nodes=n, window=window, horizon=horizon, d_x=1, d_u=0, d_h=d_h,
        temporal_layers=layers, temporal_factor=2, spatial_levels=levels,
        embedding_size=4, smp_variant=variant, diffusion_hops=2,
        decoder_hidden=(12,), per_step_attention=per_step,
    )
    hierarchy = gr.build_hierarchy(graph, 1, levels)
    model = Model(config, hierarchy, init_seed=seed)
    return model, bundle


class TestMaskedMaeLoss:
    def test_zero_when_equal(self):
        tape = ad.Tape()
        pred = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = tr.masked_mae_loss(pred, pred.data.copy(), np.ones((2, 2)))
        assert float(loss.data) == 0.0

    def test_hand_mean(self):
        tape = ad.Tape()
        pred = tape.leaf(np.array([[1.0], [3.0]]))
        loss = tr.masked_mae_loss(pred, np.array([[2.0], [5.0]]), np.ones((2, 1)))
        assert float(loss.data) == pytest.approx(1.5)

    def test_masked_target_is_inert_bitwise(self):
        tape = ad.Tape()
        pred = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        target = np.array([[0.5, 9.0], [2.5, 4.5]])
        l1 = tr.masked_mae_loss(pred, target, mask)
        target2 = target.copy()
        target2[0, 1] = -1e9
        tape2 = ad.Tape()
        pred2 = tape2.leaf(pred.data.copy())
        l2 = tr.masked_mae_loss(pred2, target2, mask)
        assert float(l1.data) == float(l2.data)

    def test_gradient_zero_at_masked_entries(self):
        tape = ad.Tape()
        p = ad.Parameter("p", np.array([[1.0, 2.0], [3.0, 4.0]]))
        t = tape.parameter(p)
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = tr.masked_mae_loss(t, np.zeros((2, 2)), mask)
        tape.backward(loss)
        assert p.grad[0, 1] == 0.0 and p.grad[1, 0] == 0.0
        assert p.grad[0, 0] != 0.0 and p.grad[1, 1] != 0.0

    def test_rows_without_valid_channels_skipped(self):
        tape = ad.Tape()
        pred = tape.leaf(np.array([[1.0, 1.0], [3.0, 3.0]]))
        mask = np.array([[0.0, 0.0], [1.0, 1.0]])
        loss = tr.masked_mae_loss(pred, np.array([[50.0, 60.0], [4.0, 5.0]]), mask)
        assert float(loss.data) == pytest.approx((1.0 + 2.0) / 2)  # one contributing row

    def test_all_masked_rejected(self):
        tape = ad.Tape()
        pred = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ContractError):
            tr.masked_mae_loss(pred, np.zeros((2, 2)), np.zeros((2, 2)))


class TestAdamW:
    def one_param(self, value):
        return ad.Parameter("p", np.array(value))

    def test_zero_grad_zero_decay_is_noop(self):
        p = self.one_param([[1.0, -2.0]])
        state = tr.OptimState([p], 0.01)
        tr.adamw_step([p], state, weight_decay=0.0)
        np.testing.assert_array_equal(p.value, [[1.0, -2.0]])

    def test_first_step_magnitude(self):
        p = self.one_param([[0.5]])
        p.grad[...] = 1.0
        state = tr.OptimState([p], 0.01)
        tr.adamw_step([p], state, weight_decay=0.0)
        assert p.value[0, 0] == pytest.approx(0.5 - 0.01, abs=1e-9)

    def test_decoupled_decay_shrinks(self):
        p = self.one_param([[2.0]])
        state = tr.OptimState([p], 0.1)
        tr.adamw_step([p], state, weight_decay=0.5)
        assert p.value[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_zero_lr_is_noop(self):
        p = self.one_param([[1.0]])
        p.grad[...] = 3.0
        state = tr.OptimState([p], 0.0)
        tr.adamw_step([p], state, weight_decay=0.3)
        assert p.value[0, 0] == 1.0

    def test_non_finite_gradient_names_parameter(self):
        p = ad.Parameter("enc.w", np.ones((2,)))
        p.grad[...] = np.nan
        with pytest.raises(ContractError, match="enc.w"):
            tr.adamw_step([p], tr.OptimState([p], 0.01))


class TestPlateauScheduler:
    def run(self, metrics, patience=10):
        p = ad.Parameter("p", np.zeros(1))
        state = tr.OptimState([p], 0.001)
        sched = tr.PlateauScheduler(patience=patience, factor=0.5)
        for m in metrics:
            sched.update(state, m)
        return state.lr

    def test_improving_metric_keeps_lr(self):
        assert self.run([1.0 - 0.01 * i for i in range(30)]) == 0.001

    def test_eleven_equal_metrics_halve_once(self):
        assert self.run([0.7] * 11) == pytest.approx(0.0005)

    def test_two_plateaus_quarter(self):
        metrics = [1.0] + [1.0] * 10 + [0.5] + [0.5] * 10
        assert self.run(metrics) == pytest.approx(0.00025)


class TestTrainLoop:
    def test_zero_epochs_returns_init(self):
        model, bundle = make_bundle()
        before = {k: v.value.copy() for k, v in model.params.items()}
        result = tr.train(model, bundle, tr.TrainConfig(max_epochs=0, batches_per_epoch=2, batch_size=4))
        assert result.history == [] and result.epochs_run == 0
        for k, v in model.params.items():
            np.testing.assert_array_equal(v.value, before[k])

    def test_learning_beats_initialization(self):
        model, bundle = make_bundle(t=260)
        cfg = tr.TrainConfig(max_epochs=4, batches_per_epoch=20, batch_size=8, seed=1)
        initial = tr.evaluate(model, bundle, "val")
        result = tr.train(model, bundle, cfg)
        assert result.best_val_mae < initial.mae

    def test_same_seed_identical_history(self):
        cfg = tr.TrainConfig(max_epochs=2, batches_per_epoch=5, batch_size=4, seed=9)
        model1, bundle1 = make_bundle()
        r1 = tr.train(model1, bundle1, cfg)
        model2, bundle2 = make_bundle()
        r2 = tr.train(model2, bundle2, cfg)
        assert r1.history == r2.history
        for k in model1.params:
            np.testing.assert_array_equal(model1.params[k].value, model2.params[k].value)

    def test_best_snapshot_is_minimum(self):
        model, bundle = make_bundle()
        cfg = tr.TrainConfig(max_epochs=3, batches_per_epoch=8, batch_size=4, seed=2)
        result = tr.train(model, bundle, cfg)
        assert result.best_val_mae == pytest.approx(min(h["val_mae"] for h in result.history))


def csv_bundle(tmp_path):
    """A csv panel with time-of-day and day-of-week channels (d_u = 11), built by the CLI."""
    t_len, n = 80, 4
    rng = np.random.default_rng(7)
    x = rng.normal(size=(t_len, n, 1))
    mask = (rng.random(x.shape) > 0.1).astype(float)
    stamps = [datetime(2024, 3, 1) + timedelta(hours=t) for t in range(t_len)]
    write_csv_panel(dt.Panel(x=x * mask, mask=mask, u=np.zeros((t_len, n, 0)), timestamps=stamps),
                    tmp_path / "obs.csv")
    (tmp_path / "coords.csv").write_text(
        "node,lat,lon\n" + "".join(f"{j},{50 + 0.03 * j},{-1 - 0.02 * j}\n" for j in range(n))
    )
    resolved = cli.resolve_config({
        "dataset": {"kind": "csv", "observations": str(tmp_path / "obs.csv"), "coords": str(tmp_path / "coords.csv"),
                    "knn_cap": 3, "time_of_day": True, "day_of_week": True, "window": 6, "horizon": 3},
        "mask": {"eta": 0.2, "p_f": 0.02, "s_min": 2, "s_max": 5},
        "model": {"d_h": 4, "temporal_layers": 1, "spatial_levels": 0, "embedding_size": 2, "decoder_hidden": [4]},
    })
    return cli.prepare_experiment(resolved)[1]


class TestAssembleBatch:
    @pytest.mark.parametrize("kind", ["mso", "csv"])
    @pytest.mark.parametrize("mask_targets", [True, False])
    def test_gather_equals_window_by_window_assembly(self, tmp_path, kind, mask_targets):
        bundle = make_bundle()[1] if kind == "mso" else csv_bundle(tmp_path)
        assert bundle.panel.u.shape[2] == (0 if kind == "mso" else 11)
        starts = np.random.default_rng(1).integers(0, len(bundle.train), size=5)
        for chunk in (starts, bundle.test[:4], bundle.val[:1]):
            got = tr.assemble_batch(bundle, chunk, mask_targets)
            want = assemble_batch_reference(bundle, chunk, mask_targets)
            for field in ("x", "m", "u", "targets", "target_masks", "raw_targets"):
                assert getattr(got, field).shape == getattr(want, field).shape, field
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)

    def test_csv_exogenous_is_a_read_only_view(self, tmp_path):
        # the time encodings are shared by every node: one broadcast view, not N copies
        bundle = csv_bundle(tmp_path)
        u = bundle.panel.u
        assert not u.flags.writeable and u.strides[1] == 0
        copied = dataclasses.replace(bundle, panel=dataclasses.replace(bundle.panel, u=np.array(u)))
        for chunk in (bundle.train[:5], bundle.test[:4]):
            got, want = tr.assemble_batch(bundle, chunk, False), tr.assemble_batch(copied, chunk, False)
            for field in ("x", "m", "u", "targets", "target_masks", "raw_targets"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


class TestEvaluate:
    def test_oracle_predictions_give_zero_mae(self):
        model, bundle = make_bundle()
        report = tr.evaluate(model, bundle, "test")
        # feed the model's own predictions back as the target panel slice
        w, h = bundle.window, bundle.horizon
        for chunk, preds, _ in tr.predict_windows(model, bundle, bundle.test, 16):
            mask = np.concatenate([bundle.panel.mask[s + w : s + w + h] for s in chunk], axis=1)
            mae, mse, n = masked_metrics(preds, preds, mask)
            assert mae == 0.0 and mse == 0.0
        assert report.n_valid > 0

    def test_constant_zero_prediction_equals_mean_abs_target(self):
        model, bundle = make_bundle()
        for name, p in model.params.items():
            if name.startswith("readout."):
                p.value[...] = 0.0
        report = tr.evaluate(model, bundle, "test")
        # zero in scaled space inverts to the training offset
        offset = bundle.scaler.offset[0]
        abs_sum = 0.0
        count = 0
        w, h = bundle.window, bundle.horizon
        for s in bundle.test:
            target, mask = bundle.panel.x[s + w : s + w + h], bundle.panel.mask[s + w : s + w + h]
            abs_sum += (np.abs(offset - target) * mask).sum()
            count += mask.sum()
        assert report.mae == pytest.approx(abs_sum / count, rel=1e-10)

    def test_per_horizon_weighted_average_matches_overall(self):
        model, bundle = make_bundle()
        report = tr.evaluate(model, bundle, "test")
        weighted = sum(m * c for m, c in zip(report.per_horizon_mae, report.per_horizon_counts))
        assert weighted / sum(report.per_horizon_counts) == pytest.approx(report.mae, abs=1e-10)

    def test_future_panel_values_do_not_change_predictions(self):
        model, bundle = make_bundle()
        starts = bundle.test[:1]
        _, preds, _ = next(iter(tr.predict_windows(model, bundle, starts, 1)))
        end = starts[0] + bundle.window + bundle.horizon
        bundle.panel.x[end:] += 123.0  # beyond this window's reach
        _, preds2, _ = next(iter(tr.predict_windows(model, bundle, starts, 1)))
        np.testing.assert_array_equal(preds, preds2)

    def test_persistence_horizon_must_match_the_bundle(self):
        _, bundle = make_bundle()
        with pytest.raises(ContractError, match=r"horizon 6 .*bundle\.horizon = 3"):
            tr.persistence_metrics(bundle, "test", 6)

    def test_persistence_baseline_reasonable(self):
        model, bundle = make_bundle()
        report = tr.persistence_metrics(bundle, "test", model.config.horizon)
        assert np.isfinite(report.mae) and report.mae > 0

    def test_persistence_matches_window_by_window_baseline(self):
        # the chunked baseline sums its errors in another order, so it agrees to rounding
        _, bundle = make_bundle()
        report = tr.persistence_metrics(bundle, "test", bundle.horizon)
        abs_sum, count = 0.0, 0.0
        for s in bundle.test:
            batch = assemble_batch_reference(bundle, [s], mask_targets=False)
            last = bundle.scaler.invert(last_value_imputation(batch.x, batch.m)[-1])
            target = batch.raw_targets.reshape(bundle.horizon, *last.shape)
            mask = batch.target_masks.reshape(target.shape)
            abs_sum += (np.abs(last[None] - target) * mask).sum()
            count += mask.sum()
        assert report.mae == pytest.approx(abs_sum / count, rel=1e-12)


class TestGroupedEvaluation:
    """Evaluation runs each chunk forward in groups of whole windows under a row budget."""

    @staticmethod
    def grouped(monkeypatch, windows_per_group=3):
        # anisotropic per-step model; groups of 3 split every 8-window chunk
        # into 3 + 3 + a ragged 2
        model, bundle = make_bundle(variant="anisotropic", per_step=True)
        monkeypatch.setattr(tr, "_EVAL_ROWS", windows_per_group * model.config.n_nodes + 1)
        return model, bundle

    def test_predictions_match_window_by_window_forward(self, monkeypatch):
        model, bundle = self.grouped(monkeypatch)
        cfg = model.config
        starts = bundle.test[:19]  # chunks of 8, 8 and 3 windows
        for chunk, preds, _ in tr.predict_windows(model, bundle, starts, 8):
            assert preds.shape == (cfg.horizon, len(chunk) * cfg.n_nodes, cfg.d_x)
            for j, s in enumerate(chunk):
                one = tr.assemble_batch(bundle, [s], mask_targets=False)
                bf = model.forward_batch(one.x, one.m, one.u, record_gradients=False)
                want = bundle.scaler.invert(bf.preds.data.reshape(cfg.horizon, cfg.n_nodes, cfg.d_x))
                got = preds[:, j * cfg.n_nodes : (j + 1) * cfg.n_nodes]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_evaluate_repeats_bit_for_bit(self, monkeypatch):
        model, bundle = self.grouped(monkeypatch)
        first = tr.evaluate(model, bundle, "test", batch_size=8)
        assert repr(tr.evaluate(model, bundle, "test", batch_size=8)) == repr(first)

    @pytest.mark.parametrize("windows_per_group", [3, 0])
    def test_unrecorded_passes_stay_within_the_row_budget(self, monkeypatch, windows_per_group):
        # a budget below one window's rows still runs one window per pass
        model, bundle = self.grouped(monkeypatch, windows_per_group)
        n, rows = model.config.n_nodes, []
        forward = Model.forward_batch

        def counting(self, xw, mw, uw, record_gradients=True):
            if not record_gradients:
                rows.append(xw.shape[1])
            return forward(self, xw, mw, uw, record_gradients)

        monkeypatch.setattr(Model, "forward_batch", counting)
        tr.evaluate(model, bundle, "test", batch_size=8)
        assert max(rows) == max(1, windows_per_group) * n <= max(tr._EVAL_ROWS, n)
        assert sum(rows) == len(bundle.test) * n
        if windows_per_group == 3:
            assert 2 * n in rows  # the ragged tail of an 8-window chunk


class TestGradientEndToEnd:
    @pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
    def test_full_model_gradient_matches_finite_differences(self, variant):
        # small smoke version of the acceptance criterion; every parameter
        # is checked at a handful of entries
        model, bundle = make_bundle(n=5, t=60, window=6, horizon=2, variant=variant, d_h=6, layers=2)
        batch = tr.assemble_batch(bundle, bundle.train[:2], mask_targets=True)

        def loss_value():
            bf = model.forward_batch(batch.x, batch.m, batch.u)
            return float(tr.masked_mae_loss(bf.preds, batch.targets, batch.target_masks).data)

        bf = model.forward_batch(batch.x, batch.m, batch.u)
        loss = tr.masked_mae_loss(bf.preds, batch.targets, batch.target_masks)
        model.zero_grads()
        bf.tape.backward(loss)
        eps = 1e-6
        rng = np.random.default_rng(0)
        worst = 0.0
        for p in model.parameters():
            flat = p.value.ravel()
            n_checks = min(3, flat.size)
            for idx in rng.choice(flat.size, size=n_checks, replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_value()
                flat[idx] = orig - eps
                down = loss_value()
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = p.grad.ravel()[idx]
                worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
        assert worst < 1e-4

    def test_every_parameter_group_receives_gradient(self):
        model, bundle = make_bundle(variant="anisotropic", per_step=True)
        batch = tr.assemble_batch(bundle, bundle.train[:3], mask_targets=True)
        bf = model.forward_batch(batch.x, batch.m, batch.u)
        loss = tr.masked_mae_loss(bf.preds, batch.targets, batch.target_masks)
        model.zero_grads()
        bf.tape.backward(loss)
        for p in model.parameters():
            assert np.any(p.grad != 0.0), f"no gradient reached {p.name}"


class TestTapeLifetime:
    def test_backward_frees_the_step_without_the_cyclic_collector(self):
        model, bundle = make_bundle(n=5, t=60, window=6, horizon=2, d_h=6)
        batch = tr.assemble_batch(bundle, bundle.train[:2], mask_targets=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            bf = model.forward_batch(batch.x, batch.m, batch.u)
            loss = tr.masked_mae_loss(bf.preds, batch.targets, batch.target_masks)
            bf.tape.backward(loss)
            slots = weakref.ref(bf.slots.data)
            del bf, loss
            assert slots() is None
        finally:
            if enabled:
                gc.enable()


class TestCheckpoint:
    @staticmethod
    def _saved(tmp_path):
        model, _ = make_bundle()
        tr.save_checkpoint(tmp_path / "ckpt", model, {"seed": 3})
        return model, tmp_path / "ckpt" / "checkpoint.json", tmp_path / "ckpt" / "checkpoint.bin"

    def test_corrupt_manifest_rejected(self, tmp_path):
        _, manifest, _ = self._saved(tmp_path)
        manifest.write_text("{bad")
        with pytest.raises(ContractError, match="checkpoint.json is not valid JSON"):
            tr.load_checkpoint(tmp_path / "ckpt")

    def test_unknown_format_rejected(self, tmp_path):
        _, manifest, _ = self._saved(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["format"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="checkpoint.json has format 99"):
            tr.load_checkpoint(tmp_path / "ckpt")

    def test_missing_key_rejected(self, tmp_path):
        _, manifest, _ = self._saved(tmp_path)
        doc = json.loads(manifest.read_text())
        del doc["params"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="checkpoint.json has no 'params' key"):
            tr.load_checkpoint(tmp_path / "ckpt")

    def test_non_finite_parameter_rejected(self, tmp_path):
        model, _, blob = self._saved(tmp_path)
        values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
        offset = sum(p.value.size for p in model.parameters()[:1])  # first entry of the second parameter
        values[offset] = np.nan
        blob.write_bytes(values.astype("<f8").tobytes())
        name = model.parameters()[1].name
        with pytest.raises(ContractError, match=f"checkpoint.bin: parameter '{name}' holds non-finite values"):
            tr.load_checkpoint(tmp_path / "ckpt")

    def test_roundtrip(self, tmp_path):
        model, bundle = make_bundle()
        tr.save_checkpoint(tmp_path / "ckpt", model, {"seed": 3, "note": "test"})
        config, values, meta = tr.load_checkpoint(tmp_path / "ckpt")
        assert config == model.config
        assert meta == {"seed": 3, "note": "test"}
        for name, p in model.params.items():
            np.testing.assert_array_equal(values[name], p.value)
