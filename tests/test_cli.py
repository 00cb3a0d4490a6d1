import csv
import json

import numpy as np
import pytest

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

    def test_gen_mso_writes_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "mso"
        code = cli.main(
            [
                "gen-mso", "--nodes", "8", "--steps", "30", "--fan-in", "3",
                "--hops", "2", "--in-degree", "2", "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("panel.csv", "mask.csv", "graph.csv", "adot.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == {
            "dataset": "mso", "nodes": 8, "steps": 30, "fan_in": 3,
            "hops": 2, "in_degree": 2, "seed": 4,
        }

    def test_gen_mso_refuses_existing_without_force(self, tmp_path, capsys):
        out = tmp_path / "mso"
        args = ["gen-mso", "--nodes", "6", "--steps", "10", "--fan-in", "2", "--in-degree", "2", "--out", str(out)]
        assert cli.main(args) == 0
        assert cli.main(args) == 4
        assert cli.main(args + ["--force"]) == 0

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
