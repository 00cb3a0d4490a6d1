import contextlib
import ctypes
import dataclasses
import gc
import json
import multiprocessing
import os
import pickle
import platform
import resource
import signal
import socket
import sys
import threading
import time
import tracemalloc
import types
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
from downcast.rng import stream_rng
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
        state = tr.TrainState([p], 0.01)
        tr.adamw_step([p], state, weight_decay=0.0)
        np.testing.assert_array_equal(p.value, [[1.0, -2.0]])

    def test_first_step_magnitude(self):
        p = self.one_param([[0.5]])
        p.grad[...] = 1.0
        state = tr.TrainState([p], 0.01)
        tr.adamw_step([p], state, weight_decay=0.0)
        assert p.value[0, 0] == pytest.approx(0.5 - 0.01, abs=1e-9)

    def test_decoupled_decay_shrinks(self):
        p = self.one_param([[2.0]])
        state = tr.TrainState([p], 0.1)
        tr.adamw_step([p], state, weight_decay=0.5)
        assert p.value[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_zero_lr_is_noop(self):
        p = self.one_param([[1.0]])
        p.grad[...] = 3.0
        state = tr.TrainState([p], 0.0)
        tr.adamw_step([p], state, weight_decay=0.3)
        assert p.value[0, 0] == 1.0

    def test_non_finite_gradient_names_parameter(self):
        p = ad.Parameter("enc.w", np.ones((2,)))
        p.grad[...] = np.nan
        with pytest.raises(ContractError, match="enc.w"):
            tr.adamw_step([p], tr.TrainState([p], 0.01))


class TestClipGradients:
    @staticmethod
    def params(scale):
        rng = np.random.default_rng(5)
        params = [ad.Parameter("a", np.zeros((3, 2))), ad.Parameter("b", np.zeros(4))]
        for p in params:
            p.grad[...] = scale * rng.standard_normal(p.value.shape)
        return params

    @staticmethod
    def global_norm(params):
        return float(np.linalg.norm(np.concatenate([p.grad.ravel() for p in params])))

    def test_above_max_norm_the_global_norm_becomes_max_norm(self):
        params = self.params(10.0)
        before, grads = self.global_norm(params), [p.grad.copy() for p in params]
        assert before > 2.0
        assert tr.clip_gradients(params, 2.0) == pytest.approx(before, rel=1e-12, abs=0)
        assert self.global_norm(params) == pytest.approx(2.0, rel=1e-12, abs=0)
        for p, g in zip(params, grads):  # one factor for every parameter
            np.testing.assert_allclose(p.grad, g * (2.0 / before), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale, slack", [(0.1, 0.0), (0.1, 0.5), (0.0, 0.0), (0.0, 1.0)])
    def test_at_or_below_max_norm_gradients_are_left_bit_for_bit(self, scale, slack):
        params = self.params(scale)
        before = [p.grad.tobytes() for p in params]
        total = tr.clip_gradients(params, np.inf)
        assert total == pytest.approx(self.global_norm(params), rel=1e-12, abs=0)
        assert tr.clip_gradients(params, total + slack) == total  # at the norm itself when slack is 0
        assert [p.grad.tobytes() for p in params] == before


class TestTrainStateEndEpoch:
    def run(self, metrics, patience=10):
        p = ad.Parameter("p", np.zeros(1))
        state = tr.TrainState([p], 0.001)
        for m in metrics:
            state.end_epoch([p], m, patience, 0.5)
        return state.lr

    def test_improving_metric_keeps_lr(self):
        assert self.run([1.0 - 0.01 * i for i in range(30)]) == 0.001

    def test_eleven_equal_metrics_halve_once(self):
        assert self.run([0.7] * 11) == pytest.approx(0.0005)

    def test_two_plateaus_quarter(self):
        metrics = [1.0] + [1.0] * 10 + [0.5] + [0.5] * 10
        assert self.run(metrics) == pytest.approx(0.00025)

    def test_snapshot_taken_only_on_strict_improvement(self):
        p = ad.Parameter("p", np.zeros(1))
        state = tr.TrainState([p], 0.001)
        for value, metric in ((1.0, 0.5), (2.0, 0.5), (3.0, 0.7), (4.0, 0.4), (5.0, 0.4)):
            p.value[...] = value
            state.end_epoch([p], metric, 10, 0.5)
        assert state.best_val == 0.4 and state.best["p"][0] == 4.0 and state.stale == 1


class TestTrainLoop:
    def test_zero_epochs_returns_init(self):
        model, bundle = make_bundle()
        before = {k: v.value.copy() for k, v in model.params.items()}
        result = tr.train(model, bundle, tr.TrainConfig(max_epochs=0, batches_per_epoch=2, batch_size=4))
        assert result.history == []
        for k, v in model.params.items():
            np.testing.assert_array_equal(v.value, before[k])

    def test_batches_without_a_valid_target_are_skipped(self):
        # the simulated pattern masks every training target: no step has a loss
        model, bundle = make_bundle()
        bundle.sim_mask[:] = 0.0
        before = {k: v.value.copy() for k, v in model.params.items()}
        result = tr.train(model, bundle, tr.TrainConfig(max_epochs=1, batches_per_epoch=3, batch_size=2))
        assert np.isnan(result.history[0]["train_loss"]) and np.isfinite(result.history[0]["val_mae"])
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

    def test_early_stop_cuts_the_rate_and_restores_the_best_snapshot(self):
        # a high rate overshoots, so validation stalls now and then; every stale
        # epoch halves the rate, and the fourth since the best epoch ends the run
        cfg = tr.TrainConfig(
            learning_rate=0.05, max_epochs=40, batches_per_epoch=2, batch_size=4, seed=5,
            plateau_patience=1, early_stop_patience=4,
        )
        model, bundle = make_bundle()
        result = tr.train(model, bundle, cfg)
        history = result.history
        vals = [h["val_mae"] for h in history]
        best_epoch = vals.index(min(vals))
        assert len(history) == best_epoch + 5 < cfg.max_epochs
        lr, best = cfg.learning_rate, float("inf")
        for h in history:
            if h["val_mae"] < best:
                best = h["val_mae"]
            else:
                lr *= 0.5
            assert h["lr"] == lr
        assert result.best_val_mae == vals[best_epoch] == tr.evaluate(model, bundle, "val").mae
        # the batches of each epoch are keyed by (seed, epoch): stopping at the best
        # epoch retrains to the same parameters
        again, bundle2 = make_bundle()
        tr.train(again, bundle2, dataclasses.replace(cfg, max_epochs=best_epoch + 1))
        for k in model.params:
            np.testing.assert_array_equal(model.params[k].value, again.params[k].value)

    def test_best_snapshot_is_minimum(self):
        model, bundle = make_bundle()
        cfg = tr.TrainConfig(max_epochs=3, batches_per_epoch=8, batch_size=4, seed=2)
        result = tr.train(model, bundle, cfg)
        assert result.best_val_mae == pytest.approx(min(h["val_mae"] for h in result.history))

    def test_non_finite_validation_mae_raises_with_the_finished_epochs(self, monkeypatch):
        evaluate, calls = tr.evaluate, []

        def overflow_on_second_epoch(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            calls.append(report.mae)
            return dataclasses.replace(report, mae=float("inf")) if len(calls) == 2 else report

        monkeypatch.setattr(tr, "evaluate", overflow_on_second_epoch)
        model, bundle = make_bundle()
        with pytest.raises(tr.TrainingDiverged, match="validation MAE inf at epoch 1") as err:
            tr.train(model, bundle, tr.TrainConfig(max_epochs=3, batches_per_epoch=2, batch_size=4))
        assert [h["val_mae"] for h in err.value.history] == calls[:1]


def csv_bundle(tmp_path):
    """A csv panel with time-of-day and day-of-week channels (d_u = 11), built by the CLI."""
    t_len, n = 80, 4
    rng = np.random.default_rng(7)
    x = rng.normal(size=(t_len, n, 1))
    mask = (rng.random(x.shape) > 0.1).astype(float)
    stamps = [datetime(2024, 3, 1) + timedelta(hours=t) for t in range(t_len)]
    write_csv_panel(dt.Panel(x=x * mask, mask=mask, u=np.zeros((t_len, 0)), timestamps=stamps),
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
        assert bundle.panel.u.shape[1] == (0 if kind == "mso" else 11)
        starts = np.random.default_rng(1).integers(0, len(bundle.train), size=5)
        for chunk in (starts, bundle.test[:4], bundle.val[:1]):
            got = tr.assemble_batch(bundle, chunk, mask_targets)
            want = assemble_batch_reference(bundle, chunk, mask_targets)
            for field in ("x", "m", "u", "targets", "target_masks", "raw_targets"):
                assert getattr(got, field).shape == getattr(want, field).shape, field
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)

    def test_csv_time_encodings_are_stored_per_step_and_repeated_per_node(self, tmp_path):
        bundle = csv_bundle(tmp_path)
        panel, w = bundle.panel, bundle.window
        assert panel.u.shape == (panel.n_steps, 11)
        for chunk in (bundle.train[:5], bundle.test[:4]):
            u = tr.assemble_batch(bundle, chunk, False).u.reshape(w, panel.n_nodes, len(chunk), 11)
            for b, s in enumerate(chunk):
                for node in range(panel.n_nodes):
                    np.testing.assert_array_equal(u[:, node, b], panel.u[s : s + w])


class TestEvaluate:
    def test_oracle_predictions_give_zero_mae(self):
        model, bundle = make_bundle()
        report = tr.evaluate(model, bundle, "test")
        # feed the model's own predictions back as the target panel slice
        w, h = bundle.window, bundle.horizon
        for chunk, preds, _, _ in tr.predict_windows(model, bundle, bundle.test, 16):
            # (step, node, window) masks as the predictions' (node, window) rows of H steps
            mask = np.stack([bundle.panel.mask[s + w : s + w + h] for s in chunk], axis=2)
            mask = mask.transpose(1, 2, 0, 3).reshape(preds.shape)
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
        _, preds, _, _ = next(iter(tr.predict_windows(model, bundle, starts, 1)))
        end = starts[0] + bundle.window + bundle.horizon
        bundle.panel.x[end:] += 123.0  # beyond this window's reach
        _, preds2, _, _ = next(iter(tr.predict_windows(model, bundle, starts, 1)))
        np.testing.assert_array_equal(preds, preds2)

    def test_persistence_horizon_must_match_the_bundle(self):
        _, bundle = make_bundle()
        with pytest.raises(ContractError, match=r"horizon 6 .*bundle\.horizon = 3"):
            tr.persistence_metrics(bundle, "test", 6)

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_a_split_without_valid_target_has_no_metrics(self, split):
        model, bundle = make_bundle()
        starts, w = bundle.split(split), bundle.window
        bundle.panel.mask[starts[0] + w : starts[-1] + w + bundle.horizon] = 0
        for metrics in (lambda: tr.evaluate(model, bundle, split), lambda: tr.persistence_metrics(bundle, split, 3)):
            with pytest.raises(ContractError, match=f"^the {split} split has no valid target$"):
                metrics()

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
            target = batch.raw_targets.reshape(last.shape[0], bundle.horizon, last.shape[1])
            mask = batch.target_masks.reshape(target.shape)
            abs_sum += (np.abs(last[:, None] - target) * mask).sum()
            count += mask.sum()
        assert report.mae == pytest.approx(abs_sum / count, rel=1e-12)


class TestGroupedEvaluation:
    """Evaluation gathers and runs forward groups of whole windows, one pass per group, under a row budget."""

    @staticmethod
    def grouped(monkeypatch, windows_per_group=3, variant="anisotropic", per_step=True):
        # by default an anisotropic per-step model, under a budget of `windows_per_group` windows' rows
        model, bundle = make_bundle(variant=variant, per_step=per_step)
        monkeypatch.setattr(tr, "_EVAL_ROWS", windows_per_group * model.config.n_nodes + 1)
        return model, bundle

    def test_predictions_and_alphas_match_window_by_window_forward(self, monkeypatch):
        model, bundle = self.grouped(monkeypatch)
        cfg = model.config
        starts = bundle.test[:19]  # six groups of 3 windows and a tail of 1
        for chunk, preds, batch, alphas in tr.predict_windows(model, bundle, starts, 8):
            rows = len(chunk) * cfg.n_nodes
            assert preds.shape == (rows, cfg.horizon, cfg.d_x) and batch.x.shape[1] == rows
            assert alphas.shape == (rows, cfg.horizon, cfg.n_scales)
            for j, s in enumerate(chunk):
                one = tr.assemble_batch(bundle, [s], mask_targets=False)
                bf = model.forward_batch(one.x, one.m, one.u, record_gradients=False)
                want = bundle.scaler.invert(bf.preds.data.reshape(cfg.n_nodes, cfg.horizon, cfg.d_x))
                node_rows = slice(j, rows, len(chunk))  # window j's row of every node
                np.testing.assert_allclose(preds[node_rows], want, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(want).max()))
                np.testing.assert_allclose(alphas[node_rows], bf.alphas, rtol=0, atol=1e-12)

    def test_evaluate_repeats_bit_for_bit(self, monkeypatch):
        model, bundle = self.grouped(monkeypatch)
        first = tr.evaluate(model, bundle, "test", batch_size=8)
        assert repr(tr.evaluate(model, bundle, "test", batch_size=8)) == repr(first)

    @pytest.mark.parametrize("windows_per_group, batch_size, group", [
        (5, 8, 5),  # the row budget sets the group size
        (0, 8, 1),  # a budget below one window's rows still runs one window per pass
        (5, 4, 4),  # a batch size below the budget sets it
    ])
    def test_each_pass_is_one_gather_of_at_most_one_group(self, monkeypatch, windows_per_group, batch_size, group):
        model, bundle = self.grouped(monkeypatch, windows_per_group)
        n, rows, gathered = model.config.n_nodes, [], []
        forward, assemble = Model.forward_batch, tr.assemble_batch

        def counting_forward(self, xw, mw, uw, record_gradients=True):
            if not record_gradients:
                rows.append(xw.shape[1])
            return forward(self, xw, mw, uw, record_gradients)

        def counting_assemble(bundle, starts, mask_targets):
            gathered.append(len(starts) * n)
            return assemble(bundle, starts, mask_targets)

        monkeypatch.setattr(Model, "forward_batch", counting_forward)
        monkeypatch.setattr(tr, "assemble_batch", counting_assemble)
        tr.evaluate(model, bundle, "test", batch_size=batch_size)
        full, tail = divmod(len(bundle.test), group)
        assert tail or group == 1  # 42 test windows: groups of 4 and 5 end in a ragged tail
        # groups run on two threads at once, so their passes may be counted out of order
        assert sorted(rows) == sorted(gathered)
        assert sorted(rows) == sorted([group * n] * full + ([tail * n] if tail else []))


class TestConcurrentEvaluation:
    """Window groups run on a per-call pool; results, errors and errstate are those of one thread."""

    grouped = staticmethod(TestGroupedEvaluation.grouped)

    @pytest.mark.parametrize("variant, per_step", [("anisotropic", True), ("isotropic", False)])
    def test_one_and_two_workers_give_the_same_bits(self, monkeypatch, variant, per_step):
        model, bundle = self.grouped(monkeypatch, variant=variant, per_step=per_step)
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(tr, "_EVAL_WORKERS", workers)
            for split in ("val", "test"):
                outputs = list(tr.predict_windows(model, bundle, bundle.split(split), 8))
                assert len(outputs) >= 5
                runs[workers, split] = (
                    repr(tr.evaluate(model, bundle, split, batch_size=8)),
                    [list(chunk) for chunk, _, _, _ in outputs],
                    [preds.tobytes() for _, preds, _, _ in outputs],
                    [alphas.tobytes() for _, _, _, alphas in outputs],
                )
        for split in ("val", "test"):
            assert runs[1, split] == runs[2, split], split

    def test_caller_errstate_reaches_the_workers(self, monkeypatch):
        model, bundle = self.grouped(monkeypatch)
        # every hidden readout unit is elu(1) = 1, so each output is 1e308 before
        # its bias, and adding the bias of 1e308 overflows on every row
        width = model.config.decoder_hidden[0]
        for name, value in (("h0.weight", 0.0), ("h0.bias", 1.0), ("out.weight", 1e308 / width), ("out.bias", 1e308)):
            model.params[f"readout.{name}"].value[...] = value
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            tr.evaluate(model, bundle, "test", batch_size=8)

    def test_closing_early_waits_for_the_groups_in_flight(self, monkeypatch):
        model, bundle = self.grouped(monkeypatch)
        forward, running = Model.forward_batch, []

        def tracked_forward(self, *args, **kwargs):
            running.append(1)
            try:
                return forward(self, *args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(Model, "forward_batch", tracked_forward)
        threads = threading.active_count()
        predictions = tr.predict_windows(model, bundle, bundle.test, 8)
        next(predictions)
        predictions.close()
        assert running == []
        assert threading.active_count() == threads
        next(iter(tr.predict_windows(model, bundle, bundle.test, 8)))  # dropped at once, as callers do
        assert running == []
        assert threading.active_count() == threads

    def test_numpy_blas_runs_one_thread_in_the_workers_and_is_restored_after(self, monkeypatch):
        blas = tr._openblas_threads()
        if blas is None:
            pytest.skip("numpy links a BLAS other than OpenBLAS")
        get, put = blas
        model, bundle = self.grouped(monkeypatch)
        monkeypatch.setattr(tr, "_EVAL_WORKERS", 2)
        forward, seen = Model.forward_batch, []

        def observing_forward(self, *args, **kwargs):
            seen.append(get())
            if fail:
                raise ValueError("group failed")
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward_batch", observing_forward)
        before = get()
        put(2)
        try:
            fail = False
            tr.evaluate(model, bundle, "test", batch_size=8)  # runs to the end
            assert get() == 2
            predictions = tr.predict_windows(model, bundle, bundle.test, 8)
            next(predictions)
            predictions.close()  # closed early
            assert get() == 2
            fail = True
            with pytest.raises(ValueError, match="group failed"):
                tr.evaluate(model, bundle, "test", batch_size=8)  # raises
            assert get() == 2
        finally:
            put(before)
        assert len(seen) >= 5 and set(seen) == {1}

    def test_a_group_error_reaches_the_caller_unchanged_and_stops_submitting(self, monkeypatch):
        model, bundle = self.grouped(monkeypatch)
        assert len(bundle.test) >= 8 * 3  # at least eight groups of three windows
        second = tr.assemble_batch(bundle, bundle.test[3:6], mask_targets=False).x
        forward, calls = Model.forward_batch, []

        def failing_forward(self, xw, mw, uw, record_gradients=True):
            calls.append(1)
            if xw.shape == second.shape and np.array_equal(xw, second):
                raise ValueError("group 1 failed")
            return forward(self, xw, mw, uw, record_gradients)

        monkeypatch.setattr(Model, "forward_batch", failing_forward)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=r"^group 1 failed$"):
            tr.evaluate(model, bundle, "test", batch_size=8)
        # groups 0 and 1 were in flight, and group 2 was submitted when group 0 was read
        assert len(calls) <= 3
        assert threading.active_count() == threads


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang of more than `seconds` into a TimeoutError in the main thread."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_helper() -> bool:
    return multiprocessing.parent_process() is not None


class TestShardedTraining:
    """A batch above `_SHARD_ROWS` rows trains as two window shards, the second in a helper process."""

    CFG = tr.TrainConfig(max_epochs=2, batches_per_epoch=3, batch_size=6, eval_batch_size=8, seed=4)

    @staticmethod
    def sharded(monkeypatch):
        # an anisotropic per-step model; a 6-window batch (48 rows) splits into two of 3
        model, bundle = make_bundle(variant="anisotropic", per_step=True)
        monkeypatch.setattr(tr, "_SHARD_ROWS", 5 * model.config.n_nodes)
        return model, bundle

    @staticmethod
    def grads(model):
        return {name: p.grad.copy() for name, p in model.params.items()}

    @staticmethod
    def counted_passes(monkeypatch):
        """The row counts of this process's recorded forward passes, from here on."""
        recorded, forward = [], Model.forward_batch

        def counting_forward(self, xw, mw, uw, record_gradients=True):
            if record_gradients:
                recorded.append(xw.shape[1])
            return forward(self, xw, mw, uw, record_gradients)

        monkeypatch.setattr(Model, "forward_batch", counting_forward)
        return recorded

    @staticmethod
    def helper_runs(monkeypatch, helper_shard):
        """Train a sharded model, with `helper_shard` in place of the helper's `_shard_gradients`."""
        shard_gradients = tr._shard_gradients

        def patched(model, shard, n_rows):
            return (helper_shard if in_helper() else shard_gradients)(model, shard, n_rows)

        monkeypatch.setattr(tr, "_EVAL_WORKERS", 2)
        monkeypatch.setattr(tr, "_shard_gradients", patched)
        model, bundle = TestShardedTraining.sharded(monkeypatch)
        with deadline(60):
            tr.train(model, bundle, TestShardedTraining.CFG)

    def test_one_and_two_workers_give_the_same_bits(self, monkeypatch):
        # the helper's passes run in another process, so only this one's are counted
        recorded, forward = [], Model.forward_batch

        def counting_forward(self, xw, mw, uw, record_gradients=True):
            if record_gradients:
                recorded.append(xw.shape[1])
            return forward(self, xw, mw, uw, record_gradients)

        monkeypatch.setattr(Model, "forward_batch", counting_forward)
        runs, passes = {}, {}
        for workers in (1, 2):
            monkeypatch.setattr(tr, "_EVAL_WORKERS", workers)
            model, bundle = self.sharded(monkeypatch)
            recorded.clear()
            result = tr.train(model, bundle, self.CFG)
            runs[workers] = (repr(result.history), repr(result.best_val_mae),
                             [p.value.tobytes() for p in model.parameters()])
            assert set(recorded) == {3 * model.config.n_nodes}  # every pass is a 3-window shard
            passes[workers] = len(recorded)
        assert runs[1] == runs[2]
        steps = self.CFG.max_epochs * self.CFG.batches_per_epoch
        assert passes == {1: 2 * steps, 2: steps}  # with two workers, the helper ran every second shard

    def test_split_step_matches_one_tape(self, monkeypatch):
        model, bundle = make_bundle(variant="anisotropic", per_step=True)
        n = model.config.n_nodes
        batch = tr.assemble_batch(bundle, bundle.train[5:11], mask_targets=True)
        recorded = self.counted_passes(monkeypatch)
        whole_loss = tr._batch_gradients(model, batch, None)
        want = self.grads(model)
        monkeypatch.setattr(tr, "_SHARD_ROWS", 5 * n)
        for p in model.parameters():
            p.grad[...] = 3.0  # a step starts from zeroed gradients
        split_loss = tr._batch_gradients(model, batch, None)
        assert recorded == [6 * n, 3 * n, 3 * n]
        assert split_loss == pytest.approx(whole_loss, rel=1e-12, abs=0)
        got = self.grads(model)
        for name, g in want.items():
            assert np.any(g != 0.0), name
            np.testing.assert_allclose(got[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max(), err_msg=name)

    def test_the_helper_gives_the_bits_of_one_process(self, monkeypatch):
        model, bundle = self.sharded(monkeypatch)
        n = model.config.n_nodes
        batch = tr.assemble_batch(bundle, bundle.train[5:11], mask_targets=True)
        recorded = self.counted_passes(monkeypatch)
        local_loss = tr._batch_gradients(model, batch, None)
        local = [p.grad.tobytes() for p in model.parameters()]
        values = [p.value.copy() for p in model.parameters()]
        with tr._ShardHelper(model) as helper:
            for p in model.parameters():  # the helper forks at these values, then reads each step's
                p.value *= 1.5
            # this step leaves gradients in the helper, which it must zero before the next
            tr._batch_gradients(model, batch, helper)
            for p, value in zip(model.parameters(), values):
                p.value[...] = value
            helped_loss = tr._batch_gradients(model, batch, helper)
        assert recorded == [3 * n] * 4  # two shards here, then one per helped step
        assert helped_loss == local_loss
        assert [p.grad.tobytes() for p in model.parameters()] == local

    def test_a_shard_without_valid_target_is_skipped(self, monkeypatch):
        model, bundle = make_bundle(variant="anisotropic", per_step=True)
        cfg, n = model.config, model.config.n_nodes
        batch = tr.assemble_batch(bundle, bundle.train[5:11], mask_targets=True)
        batch.target_masks.reshape(n, 6, cfg.horizon, cfg.d_x)[:, 3:] = 0.0  # the second shard's windows
        assert batch.target_masks.any()
        whole_loss = tr._batch_gradients(model, batch, None)
        want = self.grads(model)
        monkeypatch.setattr(tr, "_SHARD_ROWS", 5 * n)
        recorded = self.counted_passes(monkeypatch)
        with tr._ShardHelper(model) as helper:
            split_loss = tr._batch_gradients(model, batch, helper)
            assert helper._process is None  # a lone shard forks no helper
        assert recorded == [3 * n]
        assert split_loss == pytest.approx(whole_loss, rel=1e-12, abs=0)
        got = self.grads(model)
        for name, g in want.items():
            np.testing.assert_allclose(got[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max(), err_msg=name)

    @staticmethod
    def overflowing(model):
        # as in TestConcurrentEvaluation: every output is 1e308 before its bias of 1e308
        width = model.config.decoder_hidden[0]
        for name, value in (("h0.weight", 0.0), ("h0.bias", 1.0), ("out.weight", 1e308 / width), ("out.bias", 1e308)):
            model.params[f"readout.{name}"].value[...] = value

    def test_caller_errstate_reaches_the_shard_workers(self, monkeypatch):
        # the helper forks under numpy's default errstate, so only the one sent with
        # the shard can make it raise (the default warns, and the suite's filter
        # turns the warning into a RuntimeWarning error)
        model, bundle = self.sharded(monkeypatch)
        batch = tr.assemble_batch(bundle, bundle.train[5:11], mask_targets=True)
        shard = tr._window_shards(batch, model.config.n_nodes)[1]
        n_rows = int(np.count_nonzero(batch.target_masks.sum(axis=-1)))
        with tr._ShardHelper(model) as helper:
            helper.submit(shard, n_rows)
            assert np.isfinite(helper.result())
            self.overflowing(model)
            with np.errstate(over="raise"):
                helper.submit(shard, n_rows)
                with pytest.raises(FloatingPointError, match="overflow"):
                    helper.result()

    def test_a_helper_error_reaches_the_caller_unchanged(self, monkeypatch):
        def failing(model, shard, n_rows):
            raise ValueError("shard 2 failed")

        with pytest.raises(ValueError, match=r"^shard 2 failed$"):
            self.helper_runs(monkeypatch, failing)

    def test_a_helper_that_dies_names_its_exit_code(self, monkeypatch):
        def dying(model, shard, n_rows):
            os._exit(7)

        with pytest.raises(ContractError, match=r"helper process exited with code 7$"):
            self.helper_runs(monkeypatch, dying)

    def test_an_error_here_stops_a_helper_blocked_on_a_large_reply(self, monkeypatch, tmp_path):
        # the helper replies with its `p.grad`; an 8 MB gradient outgrows the
        # pipe's buffers, so the reply blocks until read; this process raises
        # on its own shard instead of reading
        def failing_here(model, shard, n_rows):
            if in_helper():
                model.parameters()[0].grad = np.zeros(1 << 20)
                return 1.0
            time.sleep(0.5)
            raise RuntimeError("shard 1 failed")

        serve, reply_bytes = tr._serve_shards, tmp_path / "reply-bytes"

        def measured_serve(model, conn, parent_end):
            send = conn.send

            def measured_send(reply):
                reply_bytes.write_text(str(len(pickle.dumps(reply))))
                send(reply)

            conn.send = measured_send
            serve(model, conn, parent_end)

        monkeypatch.setattr(tr, "_EVAL_WORKERS", 2)
        monkeypatch.setattr(tr, "_shard_gradients", failing_here)
        monkeypatch.setattr(tr, "_serve_shards", measured_serve)
        model, bundle = self.sharded(monkeypatch)
        with deadline(60), pytest.raises(RuntimeError, match=r"^shard 1 failed$"):
            tr.train(model, bundle, self.CFG)
        here, there = multiprocessing.get_context("fork").Pipe()  # the helper's kind of pipe
        with here, there, socket.fromfd(there.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sender, \
                socket.fromfd(here.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as receiver:
            buffered = sender.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) + receiver.getsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF)
        assert int(reply_bytes.read_text()) > buffered

    def test_the_helper_exits_when_this_end_of_its_pipe_closes(self, monkeypatch):
        # as when this process is killed without stopping it: the helper holds no copy of this end
        model, bundle = self.sharded(monkeypatch)
        with tr._ShardHelper(model) as helper:
            tr._batch_gradients(model, tr.assemble_batch(bundle, bundle.train[5:11], mask_targets=True), helper)
            helper._conn.close()
            helper._process.join(timeout=30)
            assert helper._process.exitcode == 0

    def test_numpy_blas_runs_one_thread_while_the_helper_lives(self, monkeypatch):
        blas = tr._openblas_threads()
        if blas is None:
            pytest.skip("numpy links a BLAS other than OpenBLAS")
        get, put = blas
        before = get()
        put(2)
        try:
            model, _ = self.sharded(monkeypatch)
            # the helper's loss is its own thread count
            monkeypatch.setattr(tr, "_shard_gradients", lambda model, shard, n_rows: float(get()))
            with tr._ShardHelper(model) as helper:
                helper.submit((), 1)
                assert helper.result() == 1.0 and get() == 1
            assert get() == 2
        finally:
            put(before)

    def test_diverged_step_leaves_no_thread_and_the_model_untouched(self, monkeypatch):
        model, bundle = self.sharded(monkeypatch)
        self.overflowing(model)
        before = [p.value.copy() for p in model.parameters()]
        threads = threading.active_count()
        with np.errstate(all="ignore"), pytest.raises(tr.TrainingDiverged, match="epoch 0, batch 0"):
            tr.train(model, bundle, self.CFG)
        assert threading.active_count() == threads
        for p, value in zip(model.parameters(), before):
            assert np.array_equal(p.value, value), p.name

    def test_a_diverged_helper_shard_stops_training_with_the_model_untouched(self, monkeypatch):
        # only the helper's shard overflows; it reads the parameters anew with each shard
        shard_gradients, here = tr._shard_gradients, []

        def diverging_there(model, shard, n_rows):
            if in_helper():
                TestShardedTraining.overflowing(model)
                return shard_gradients(model, shard, n_rows)
            here.append(shard_gradients(model, shard, n_rows))
            return here[-1]

        monkeypatch.setattr(tr, "_EVAL_WORKERS", 2)
        monkeypatch.setattr(tr, "_shard_gradients", diverging_there)
        model, bundle = self.sharded(monkeypatch)
        before = [p.value.copy() for p in model.parameters()]
        threads = threading.active_count()
        with deadline(60), np.errstate(all="ignore"), \
                pytest.raises(tr.TrainingDiverged, match=r"at epoch 0, batch 0$"):
            tr.train(model, bundle, self.CFG)
        assert len(here) == 1 and np.isfinite(here[0])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        for p, value in zip(model.parameters(), before):
            assert np.array_equal(p.value, value), p.name

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads in")
    def test_the_helper_forks_from_a_process_of_one_thread(self, monkeypatch):
        # Python 3.12 and later warn (DeprecationWarning) when a process of more
        # than one OS thread forks; the parent counts its threads right after the fork
        fork, threads = os.fork, []

        def counting_fork():
            pid = fork()
            if pid:
                threads.append(len(os.listdir("/proc/self/task")))
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(tr, "_EVAL_WORKERS", 2)
        model, bundle = self.sharded(monkeypatch)
        with deadline(60):
            tr.train(model, bundle, self.CFG)
        assert threads == [1]


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

    def test_backward_peaks_little_above_the_forward_it_frees(self, monkeypatch):
        # criterion 6's full model on its desk data at seed 7, and the caller's
        # 320-row shard of the first training batch
        raw = {
            "seed": 7,
            "dataset": {"kind": "mso", "nodes": 20, "steps": 5000, "fan_in": 5, "hops": 2, "in_degree": 3,
                        "window": 24, "horizon": 6},
            "mask": {"eta": 0.05, "p_f": 0.01, "s_min": 8, "s_max": 48, "propagate_over": "mixing"},
            "model": {"d_h": 16, "temporal_layers": 3, "temporal_factor": 3, "spatial_levels": 2,
                      "embedding_size": 8, "smp_variant": "isotropic", "diffusion_hops": 2,
                      "decoder_hidden": [32], "per_step_attention": False},
        }
        model, bundle = cli.prepare_experiment(cli.resolve_config(raw))
        picks = stream_rng(7, "batches-0").integers(0, len(bundle.train), size=32)
        batch = tr.assemble_batch(bundle, bundle.train.start + picks, mask_targets=True)
        n_rows = int(np.count_nonzero(batch.target_masks.sum(axis=-1)))
        shard = tr._window_shards(batch, model.config.n_nodes)[0]
        assert shard[0].shape[1] == 320
        backward, traced = ad.Tape.backward, []

        def measured_backward(tape, loss):
            traced.append(tracemalloc.get_traced_memory()[0])  # the forward's live arrays
            tracemalloc.reset_peak()
            try:
                return backward(tape, loss)
            finally:
                traced.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(ad.Tape, "backward", measured_backward)
        model.zero_grads()
        tracemalloc.start()
        try:
            tr._shard_gradients(model, shard, n_rows)
        finally:
            tracemalloc.stop()
        after_forward, backward_peak = traced
        # holding every record and adjoint to the end peaked at 1.87 times
        assert backward_peak <= 1.4 * after_forward, (after_forward, backward_peak)


class TestFreedMemory:
    """`train` keeps freed memory mapped, so later steps reuse the same pages."""

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="`train` sets glibc's allocator options only on Linux")
    def test_steps_after_train_take_almost_no_page_faults(self):
        # desk-iso's step shape: 20 nodes x 32 windows = 640 rows, d_h 16
        model, bundle = make_bundle(n=20, t=300, window=24, horizon=6, layers=3, levels=2, d_h=16)
        tr.train(model, bundle, tr.TrainConfig(max_epochs=1, batches_per_epoch=1, batch_size=32))
        faults = []
        for i in range(8):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            batch = tr.assemble_batch(bundle, bundle.train.start + i + np.arange(32), mask_targets=True)
            bf = model.forward_batch(batch.x, batch.m, batch.u)
            loss = tr.masked_mae_loss(bf.preds, batch.targets, batch.target_masks)
            model.zero_grads()
            bf.tape.backward(loss)
            del bf, loss
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        # under glibc's default options each such step faults about 11,000 pages back in
        assert np.median(faults[1:]) < 200, faults

    def test_train_runs_without_mallopt(self, monkeypatch):
        opened = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or types.SimpleNamespace())
        model, bundle = make_bundle()
        result = tr.train(model, bundle, tr.TrainConfig(max_epochs=2, batches_per_epoch=3, batch_size=4))
        # the C library, opened for `mallopt`; evaluation may also open numpy's
        # core extension to find OpenBLAS, which finds nothing here either
        assert opened.count(None) == (1 if sys.platform.startswith("linux") else 0)
        assert len(result.history) == 2


def _edit_manifest(edit):
    def apply(manifest, values):
        edit(manifest)
        return values
    return apply


def _swap_params(manifest):
    manifest["params"][1], manifest["params"][2] = manifest["params"][2], manifest["params"][1]


class TestCheckpoint:
    @staticmethod
    def _saved(tmp_path):
        model, _ = make_bundle()
        tr.save_checkpoint(tmp_path / "ckpt", model, {"seed": 3})
        return model, tmp_path / "ckpt" / "checkpoint.json", tmp_path / "ckpt" / "checkpoint.bin"

    @staticmethod
    def _fresh(model):
        """A model of the same config whose parameter values all differ from `model`'s."""
        fresh = Model(model.config, model.hierarchy, init_seed=99)
        for p in fresh.parameters():
            p.value += 1.0  # biases start at zero under every seed
        return fresh

    @staticmethod
    def _assert_refused(tmp_path, model, match):
        before = {name: p.value.tobytes() for name, p in model.params.items()}
        with pytest.raises(ContractError, match=match):
            tr.load_checkpoint(tmp_path / "ckpt", model)
        assert {name: p.value.tobytes() for name, p in model.params.items()} == before

    def test_corrupt_manifest_rejected(self, tmp_path):
        model, manifest, _ = self._saved(tmp_path)
        manifest.write_text("{bad")
        self._assert_refused(tmp_path, self._fresh(model), "checkpoint.json is not valid JSON")

    def test_unknown_format_rejected(self, tmp_path):
        model, manifest, _ = self._saved(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["format"] = 99
        manifest.write_text(json.dumps(doc))
        self._assert_refused(tmp_path, self._fresh(model), "checkpoint.json has format 99")

    def test_missing_key_rejected(self, tmp_path):
        model, manifest, _ = self._saved(tmp_path)
        doc = json.loads(manifest.read_text())
        del doc["params"]
        manifest.write_text(json.dumps(doc))
        self._assert_refused(tmp_path, self._fresh(model), "checkpoint.json has no 'params' key")

    def test_non_finite_parameter_rejected(self, tmp_path):
        model, _, blob = self._saved(tmp_path)
        values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
        offset = sum(p.value.size for p in model.parameters()[:1])  # first entry of the second parameter
        values[offset] = np.nan
        blob.write_bytes(values.astype("<f8").tobytes())
        name = model.parameters()[1].name
        match = f"checkpoint.bin: parameter '{name}' holds non-finite values"
        self._assert_refused(tmp_path, self._fresh(model), match)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # a field that changes no parameter's shape
            (_edit_manifest(lambda m: m["model_config"].update(temporal_factor=3)), "checkpoint.json: model_config"),
            (_edit_manifest(_swap_params), r"checkpoint.json: params\[1\] is .*; the model has"),
            (_edit_manifest(lambda m: m["params"].pop()), r"checkpoint.json: params\[\d+\] is null"),
            (lambda m, values: values[:-1], r"checkpoint.bin does not hold parameter 'readout.out.bias'"),
            (lambda m, values: np.append(values, 0.0), r"checkpoint.bin holds 8 bytes past the last parameter"),
            # a late non-finite value: no earlier parameter may be written either
            (lambda m, values: np.append(values[:-1], np.inf), "checkpoint.bin: parameter 'readout.out.bias'"),
        ],
        ids=["config-field", "swapped-params", "params-entry-missing", "blob-one-short", "blob-one-long",
             "last-value-infinite"],
    )
    def test_mismatch_refused_and_model_untouched(self, tmp_path, edit, match):
        model, manifest, blob = self._saved(tmp_path)
        doc = json.loads(manifest.read_text())
        values = edit(doc, np.frombuffer(blob.read_bytes(), dtype="<f8").copy())
        manifest.write_text(json.dumps(doc))
        blob.write_bytes(values.astype("<f8").tobytes())
        self._assert_refused(tmp_path, self._fresh(model), match)

    def test_params_that_is_not_a_list_is_a_contract_error(self, tmp_path):
        model, manifest, _ = self._saved(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["params"] = 3
        manifest.write_text(json.dumps(doc))
        self._assert_refused(tmp_path, self._fresh(model), "checkpoint.json: 'params' is not a list")

    def test_metadata_json_rejects_leaves_no_file(self, tmp_path):
        model, _ = make_bundle()
        with pytest.raises(TypeError):
            tr.save_checkpoint(tmp_path / "ckpt", model, {"x": object()})
        assert list((tmp_path / "ckpt").iterdir()) == []  # no checkpoint.json, .bin or temp file

    def test_roundtrip(self, tmp_path):
        model, bundle = make_bundle()
        tr.save_checkpoint(tmp_path / "ckpt", model, {"seed": 3, "note": "test"})
        fresh = self._fresh(model)
        assert all(not np.array_equal(fresh.params[name].value, p.value) for name, p in model.params.items())
        assert tr.load_checkpoint(tmp_path / "ckpt", fresh) == {"seed": 3, "note": "test"}
        assert tr.read_manifest(tmp_path / "ckpt")["metadata"] == {"seed": 3, "note": "test"}
        for name, p in model.params.items():
            assert fresh.params[name].value.tobytes() == p.value.tobytes()
