import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downcast import cli


def tiny_config(out_dir, **overrides):
    cfg = {
        "seed": 5,
        "output_dir": str(out_dir),
        "dataset": {
            "kind": "mso",
            "nodes": 8,
            "steps": 160,
            "fan_in": 3,
            "hops": 2,
            "in_degree": 2,
            "window": 8,
            "horizon": 3,
        },
        "mask": {"eta": 0.05, "p_f": 0.01, "s_min": 3, "s_max": 8, "p_g": [1.0]},
        "model": {
            "d_h": 8,
            "temporal_layers": 2,
            "temporal_factor": 2,
            "spatial_levels": 1,
            "embedding_size": 4,
            "decoder_hidden": [8],
        },
        "train": {
            "max_epochs": 1,
            "batches_per_epoch": 3,
            "batch_size": 4,
            "eval_batch_size": 16,
        },
    }
    for key, block in overrides.items():
        if isinstance(block, dict):
            cfg.setdefault(key, {}).update(block)
        else:
            cfg[key] = block
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_unknown_key_rejected_with_path(self, tmp_path):
        cfg = tiny_config(tmp_path / "o")
        cfg["model"]["hidden_size"] = 4
        with pytest.raises(cli.ConfigError, match="model"):
            cli.resolve_config(cfg)

    def test_bad_type_names_field(self):
        with pytest.raises(cli.ConfigError, match="mask.eta"):
            cli.resolve_config({"mask": {"eta": "much"}})

    def test_defaults_materialized(self):
        resolved = cli.resolve_config({})
        assert resolved["train"]["learning_rate"] == 0.001
        assert resolved["train"]["batch_size"] == 32
        assert resolved["train"]["batches_per_epoch"] == 300
        assert resolved["train"]["max_epochs"] == 200
        assert resolved["train"]["plateau_factor"] == 0.5
        assert resolved["train"]["plateau_patience"] == 10
        assert resolved["train"]["early_stop_patience"] == 30
        assert resolved["dataset"]["splits"] == [0.7, 0.1, 0.2]

    def test_csv_requires_observations(self):
        with pytest.raises(cli.ConfigError, match="dataset.observations"):
            cli.resolve_config({"dataset": {"kind": "csv"}})

    def test_split_fractions_checked(self):
        with pytest.raises(cli.ConfigError, match="splits"):
            cli.resolve_config({"dataset": {"splits": [0.9, 0.2, 0.2]}})

    def test_negative_split_fraction_rejected(self):
        with pytest.raises(cli.ConfigError, match="dataset.splits: must be three nonnegative"):
            cli.resolve_config({"dataset": {"splits": [1.2, -0.1, -0.1]}})


    def test_readme_config_block_lists_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Config\n.*?```json\n(.*?)```", readme, re.S).group(1)
        assert json.loads(re.sub(r"//.*", "", block)) == cli.resolve_config({})

    @pytest.mark.parametrize("block, field, value", [
        ("mask", "eta", 1.5),
        ("mask", "p_g", [2.0]),
        ("mask", "s_min", 9),
        ("train", "learning_rate", 0),
        ("train", "eval_batch_size", 0),
        ("train", "plateau_factor", -0.5),
        ("train", "grad_clip_norm", -1.0),
        ("model", "d_h", 0),
        ("model", "spatial_levels", -1),
        ("model", "smp_variant", "spectral"),
        ("model", "per_step_attention", 1),
        ("dataset", "window", 0),
        ("dataset", "in_degree", 8),
        ("dataset", "steps", 10),
        ("dataset", "tau", 1.5),
        ("dataset", "scaling", "zscore"),
        ("dataset", "steps", 1e400),
        ("config", "seed", -1),
        ("config", "output_dir", 7),
    ])
    def test_out_of_range_value_exits_2_naming_the_field_before_any_artifact(
        self, tmp_path, capsys, block, field, value
    ):
        cfg = tiny_config(tmp_path / "o")
        (cfg if block == "config" else cfg[block])[field] = value
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"config error: {block}.{field}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_is_checked_like_the_config_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path / "o"))
        assert cli.main(["run", "--config", str(path), "--seed", "-1"]) == 2
        assert "config error: config.seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRunExperiment:
    def test_artifacts_and_schema(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_config(out))
        metrics = cli.run_experiment(path)
        for name in (
            "metrics.json",
            "history.csv",
            "resolved-config.json",
            "mask-stats.json",
            "attention.csv",
            "checkpoint/checkpoint.json",
            "checkpoint/checkpoint.bin",
        ):
            assert (out / name).exists(), name
        on_disk = json.loads((out / "metrics.json").read_text())
        assert set(on_disk) == {
            "test_mae",
            "test_mse",
            "val_mae",
            "per_horizon_mae",
            "missing_fraction",
            "epochs_run",
        }
        assert len(on_disk["per_horizon_mae"]) == 3
        assert on_disk["epochs_run"] == 1
        assert metrics["test_mae"] == on_disk["test_mae"]

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_config(out))
        cli.run_experiment(path)
        leftovers = list(out.rglob("*.tmp"))
        assert leftovers == []

    def test_rerun_bit_identical(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        path = write_config(tmp_path, cfg)
        cli.run_experiment(path)
        first = (tmp_path / "a" / "metrics.json").read_bytes()
        cli.run_experiment(path, out=str(tmp_path / "b"))
        second = (tmp_path / "b" / "metrics.json").read_bytes()
        assert first == second

    def test_resolved_config_reruns_identically(self, tmp_path):
        path = write_config(tmp_path, tiny_config(tmp_path / "a"))
        cli.run_experiment(path)
        resolved = json.loads((tmp_path / "a" / "resolved-config.json").read_text())
        resolved["output_dir"] = str(tmp_path / "b")
        path2 = write_config(tmp_path, resolved, name="resolved.json")
        cli.run_experiment(path2)
        assert (tmp_path / "a" / "metrics.json").read_bytes() == (tmp_path / "b" / "metrics.json").read_bytes()

    def test_degenerate_recurrent_baseline_path(self, tmp_path):
        out = tmp_path / "gru"
        cfg = tiny_config(out, model={"temporal_layers": 1, "spatial_levels": 0})
        path = write_config(tmp_path, cfg)
        metrics = cli.run_experiment(path)
        assert np.isfinite(metrics["test_mae"])
        with open(out / "attention.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["alpha"] for r in rows} == {"1.0"}  # single scale -> weight 1


class TestCliMain:
    def test_run_and_dump_scores(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tiny_config(
            out,
            model={"temporal_layers": 3, "spatial_levels": 2, "per_step_attention": True},
            dataset={"nodes": 10, "steps": 200, "window": 9},
        )
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 0
        scores_path = tmp_path / "scores.csv"
        code = cli.main(
            ["dump-scores", "--checkpoint", str(out / "checkpoint"), "--window", "1", "--out", str(scores_path)]
        )
        assert code == 0
        with open(scores_path) as fh:
            rows = list(csv.DictReader(fh))
        # 9 scales per (node, horizon step)
        nodes, horizon = 10, 3
        assert len(rows) == nodes * horizon * 9
        by_group = {}
        for r in rows:
            by_group.setdefault((r["node"], r["horizon_step"]), []).append(float(r["alpha"]))
        for group in by_group.values():
            assert len(group) == 9
            assert sum(group) == pytest.approx(1.0, abs=1e-6)

    def test_dump_scores_bad_window_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_config(out))
        assert cli.main(["run", "--config", str(path)]) == 0
        code = cli.main(
            ["dump-scores", "--checkpoint", str(out / "checkpoint"), "--window", "99999", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 4

    def test_dump_scores_rejects_renamed_parameter(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_config(out))
        assert cli.main(["run", "--config", str(path)]) == 0
        manifest_path = out / "checkpoint" / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        entry = next(e for e in manifest["params"] if e["name"] == "encoder.weight")
        entry["name"] = "encoder.renamed"
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = cli.main(
            ["dump-scores", "--checkpoint", str(out / "checkpoint"), "--window", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "encoder.renamed" in err and "encoder.weight" in err

    def test_dump_scores_corrupt_manifest_exits_4(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_config(out))
        assert cli.main(["run", "--config", str(path)]) == 0
        (out / "checkpoint" / "checkpoint.json").write_text("{bad")
        capsys.readouterr()
        code = cli.main(
            ["dump-scores", "--checkpoint", str(out / "checkpoint"), "--window", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 4
        assert "checkpoint.json is not valid JSON" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"wat": 1}}))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("widths", [[0], [-3], [8, 0]])
    def test_non_positive_decoder_width_exits_2_naming_the_field(self, tmp_path, capsys, widths):
        path = write_config(tmp_path, tiny_config(tmp_path / "o", model={"decoder_hidden": widths}))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "model.decoder_hidden" in capsys.readouterr().err

    def test_empty_train_split_exits_2_naming_the_field(self, tmp_path, capsys):
        # 199 steps, window 8 and horizon 2 give 190 windows: 95 val, 95 test, 0 train
        cfg = tiny_config(tmp_path / "o", dataset={"steps": 199, "window": 8, "horizon": 2, "splits": [0.0, 0.5, 0.5]})
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "dataset.splits: the train split is empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mask_stats_command(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path / "o"))
        assert cli.main(["mask-stats", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "missing_fraction" in report and "streak_histogram" in report


class TestCsvDatasetPath:
    def test_non_numeric_cell_exits_4_naming_the_line(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("timestamp,node0_ch0,node1_ch0\n" + "".join(f"{t},1.0,2.0\n" for t in range(30)) + "30,1.0,n/a\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("node,lat,lon\n0,50.0,1.0\n1,50.01,1.01\n")
        cfg = {"dataset": {"kind": "csv", "observations": str(obs), "coords": str(coords), "window": 4, "horizon": 2}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["mask-stats", "--config", str(path)]) == 4
        assert "line 32: field 'node1_ch0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obs_text, coords_text, bad",
        [
            ("", "node,lat,lon\n0,50.0,1.0\n", "obs.csv"),
            ("timestamp\n0\n1\n", "node,lat,lon\n0,50.0,1.0\n", "obs.csv"),
            ("timestamp,node0_ch0\n", "node,lat,lon\n0,50.0,1.0\n", "obs.csv"),
            ("timestamp,node0_ch0\n" + "".join(f"{t},1.0\n" for t in range(30)), "", "coords.csv"),
        ],
        ids=["empty-observations", "timestamp-only-header", "header-only-observations", "empty-coords"],
    )
    def test_empty_or_columnless_csv_exits_4_naming_the_file(self, tmp_path, capsys, obs_text, coords_text, bad):
        (tmp_path / "obs.csv").write_text(obs_text)
        (tmp_path / "coords.csv").write_text(coords_text)
        dataset = {"kind": "csv", "observations": str(tmp_path / "obs.csv"), "coords": str(tmp_path / "coords.csv"),
                   "window": 4, "horizon": 2}
        path = write_config(tmp_path, {"dataset": dataset})
        assert cli.main(["mask-stats", "--config", str(path)]) == 4
        assert f"error: {tmp_path / bad}: " in capsys.readouterr().err

    def test_csv_experiment_with_time_encodings(self, tmp_path):
        rng = np.random.default_rng(0)
        t_len, n = 60, 5
        lines = ["timestamp," + ",".join(f"node{j}_ch0" for j in range(n))]
        for t in range(t_len):
            stamp = f"2024-03-{1 + t // 24:02d}T{t % 24:02d}:00:00"
            vals = [f"{v:.6f}" for v in rng.normal(size=n)]
            if t == 5:
                vals[2] = ""  # one missing cell
            lines.append(stamp + "," + ",".join(vals))
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(lines) + "\n")
        coords = tmp_path / "coords.csv"
        coords.write_text(
            "node,lat,lon\n" + "\n".join(f"{j},{50 + 0.03 * j},{-1 - 0.02 * j}" for j in range(n)) + "\n"
        )
        cfg = {
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
            "dataset": {
                "kind": "csv",
                "observations": str(obs),
                "coords": str(coords),
                "tau": 0.1,
                "knn_cap": 3,
                "time_of_day": True,
                "day_of_week": True,
                "window": 6,
                "horizon": 2,
            },
            "mask": {"eta": 0.1},
            "model": {
                "d_h": 6, "temporal_layers": 1, "spatial_levels": 1,
                "embedding_size": 3, "decoder_hidden": [6],
            },
            "train": {"max_epochs": 1, "batches_per_epoch": 2, "batch_size": 3, "eval_batch_size": 8},
        }
        path = write_config(tmp_path, cfg)
        metrics = cli.run_experiment(path)
        assert np.isfinite(metrics["test_mae"])
        resolved = json.loads((tmp_path / "out" / "resolved-config.json").read_text())
        assert resolved["dataset"]["day_of_week"] is True


# -- properties over the schema -----------------------------------------------------------------

# Per JSON key of each block: a strategy for small valid values and one value
# that breaks the key's type or bounds. Runs stay small: N <= 8, one epoch of
# two batches.
FIELDS = {
    "config": {"seed": (st.integers(0, 2**16), -1), "output_dir": (st.just("run"), 7)},
    "dataset": {
        "kind": (st.just("mso"), "parquet"), "nodes": (st.integers(3, 8), 1), "steps": (st.integers(60, 90), 0),
        "fan_in": (st.integers(1, 3), 0), "hops": (st.integers(1, 2), 0), "in_degree": (st.integers(1, 2), 0),
        "observations": (st.none(), 5), "mask_file": (st.none(), 5), "coords": (st.none(), 5),
        "tau": (st.floats(0.05, 0.9), 1.5), "knn_cap": (st.integers(1, 8), 0),
        "connect_components": (st.booleans(), "yes"), "time_of_day": (st.booleans(), "yes"),
        "day_of_week": (st.booleans(), "yes"), "window": (st.integers(2, 8), 0), "horizon": (st.integers(1, 3), 0),
        "splits": (st.sampled_from([[0.7, 0.1, 0.2], [0.5, 0.25, 0.25]]), [0.5, 0.5]),
        "scaling": (st.sampled_from(["standard", "minmax"]), "zscore"), "pool_hops": (st.integers(1, 2), 0),
    },
    "mask": {
        "eta": (st.floats(0.0, 0.3), 1.5), "p_f": (st.floats(0.0, 0.05), -0.1), "s_min": (st.integers(1, 3), 0),
        "s_max": (st.integers(3, 6), 0), "p_g": (st.lists(st.floats(0.0, 1.0), max_size=2), [2.0]),
        "propagate_over": (st.sampled_from(["mixing", "graph"]), "air"),
    },
    "model": {
        "d_h": (st.integers(2, 6), 0), "temporal_layers": (st.integers(1, 3), 0),
        "temporal_factor": (st.integers(1, 3), 0), "spatial_levels": (st.integers(0, 2), -1),
        "embedding_size": (st.integers(1, 4), 0), "smp_variant": (st.sampled_from(["isotropic", "anisotropic"]), "x"),
        "diffusion_hops": (st.integers(1, 3), 0), "decoder_hidden": (st.lists(st.integers(1, 8), max_size=2), [0]),
        "per_step_attention": (st.booleans(), 1), "normalize_ascent": (st.booleans(), "no"),
    },
    "train": {
        "learning_rate": (st.floats(1e-4, 1e-2), 0), "weight_decay": (st.floats(0.0, 0.1), -1.0),
        "batch_size": (st.integers(1, 4), 0), "batches_per_epoch": (st.just(2), 0), "max_epochs": (st.just(1), -1),
        "plateau_factor": (st.floats(0.0, 1.0), -0.5), "plateau_patience": (st.integers(1, 3), 0),
        "early_stop_patience": (st.integers(1, 3), 0), "grad_clip_norm": (st.none() | st.floats(0.1, 5.0), -1.0),
        "eval_batch_size": (st.integers(1, 16), 0),
    },
}

small_configs = st.fixed_dictionaries({
    block: st.fixed_dictionaries({key: valid for key, (valid, _) in keys.items()}) for block, keys in FIELDS.items()
}).map(lambda c: {**c.pop("config"), **c})


def deterministic(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


def test_fields_cover_the_schema():
    resolved = cli.resolve_config({})
    assert set(FIELDS["config"]) == {k for k in resolved if k not in FIELDS}
    assert all(set(FIELDS[block]) == set(resolved[block]) for block in FIELDS if block != "config")
    assert sum(map(len, FIELDS.values())) == 47


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize("variant", ["isotropic", "anisotropic"])
@pytest.mark.parametrize("per_step", [False, True])
@deterministic(10)
@given(cfg=small_configs)
def test_small_valid_configs_run_and_rerun_bit_identically(variant, per_step, cfg):
    cfg["model"] |= {"smp_variant": variant, "per_step_attention": per_step}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg | {"output_dir": str(tmp / "a")}))
        assert _main("run", "--config", str(path)) == (0, "")
        metrics = json.loads((tmp / "a" / "metrics.json").read_text())
        assert np.all(np.isfinite([metrics["test_mae"], metrics["test_mse"], metrics["val_mae"]]))
        assert np.all(np.isfinite(metrics["per_horizon_mae"]))
        with open(tmp / "a" / "attention.csv") as fh:
            sums = {}
            for row in csv.DictReader(fh):
                key = (row["node"], row["horizon_step"])
                sums[key] = sums.get(key, 0.0) + float(row["alpha"])
        assert max(abs(v - 1.0) for v in sums.values()) <= 1e-9
        rerun = ("run", "--config", str(tmp / "a" / "resolved-config.json"), "--out", str(tmp / "b"))
        assert _main(*rerun) == (0, "")
        assert (tmp / "a" / "metrics.json").read_bytes() == (tmp / "b" / "metrics.json").read_bytes()


@pytest.mark.parametrize("block, key", [(b, k) for b, keys in FIELDS.items() for k in keys])
@deterministic(3)
@given(cfg=small_configs)
def test_one_field_out_of_range_exits_2_naming_it(block, key, cfg):
    (cfg if block == "config" else cfg[block])[key] = FIELDS[block][key][1]
    with tempfile.TemporaryDirectory() as tmp:
        if (block, key) != ("config", "output_dir"):
            cfg["output_dir"] = str(Path(tmp) / "out")
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        code, err = _main("run", "--config", str(path))
        assert code == 2 and f"config error: {block}.{key}" in err
        assert list(Path(tmp).iterdir()) == [path]
