"""Experiment runner: config validation, dataset/mask preparation, training
orchestration and interpretability exports.

The config file is JSON with four blocks (dataset, mask, model, train) plus a
seed and an output directory. Every default that applies is materialised into
resolved-config.json, which re-runs the experiment bit-identically. All
artifacts are written atomically (temp file + rename).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as dt
from . import graphs as gr
from . import masking as mk
from . import training as tr
from .errors import ContractError, CsvParseError, DimensionError
from .model import Model, ModelConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# -- schema -------------------------------------------------------------------------


def _typed(kind, *, choices=None, minimum=None):
    def check(value, path):
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is not None and not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            raise ConfigError(f"{path}: expected {getattr(kind, '__name__', kind)}, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}: must be one of {sorted(choices)}, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
        return value

    return check


def _number_list(value, path):
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) for v in value):
        raise ConfigError(f"{path}: expected a list of numbers")
    return [float(v) for v in value]


def _int_list(value, path):
    if not isinstance(value, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{path}: expected a list of integers")
    return list(value)


def _optional_str(value, path):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string or null")
    return value


def _optional_float(value, path):
    if value is None:
        return None
    return _typed(float, minimum=0.0)(value, path)


DATASET_SCHEMA = {
    "kind": ("mso", _typed(str, choices={"mso", "csv"})),
    "nodes": (20, _typed(int, minimum=2)),
    "steps": (5000, _typed(int, minimum=1)),
    "fan_in": (5, _typed(int, minimum=1)),
    "hops": (2, _typed(int, minimum=1)),
    "in_degree": (3, _typed(int, minimum=1)),
    "observations": (None, _optional_str),
    "mask_file": (None, _optional_str),
    "coords": (None, _optional_str),
    "tau": (0.1, _typed(float)),
    "knn_cap": (8, _typed(int, minimum=1)),
    "connect_components": (True, _typed(bool)),
    "time_of_day": (False, _typed(bool)),
    "day_of_week": (False, _typed(bool)),
    "window": (24, _typed(int, minimum=1)),
    "horizon": (6, _typed(int, minimum=1)),
    "splits": ([0.7, 0.1, 0.2], _number_list),
    "scaling": ("standard", _typed(str, choices={"standard", "minmax"})),
    "pool_hops": (1, _typed(int, minimum=1)),
}

MASK_SCHEMA = {
    "eta": (0.0, _typed(float, minimum=0.0)),
    "p_f": (0.0, _typed(float, minimum=0.0)),
    "s_min": (1, _typed(int, minimum=1)),
    "s_max": (1, _typed(int, minimum=1)),
    "p_g": ([], _number_list),
    "propagate_over": ("mixing", _typed(str, choices={"mixing", "graph"})),
}

MODEL_SCHEMA = {
    "d_h": (32, _typed(int, minimum=1)),
    "temporal_layers": (3, _typed(int, minimum=1)),
    "temporal_factor": (3, _typed(int, minimum=1)),
    "spatial_levels": (2, _typed(int, minimum=0)),
    "embedding_size": (16, _typed(int, minimum=1)),
    "smp_variant": ("isotropic", _typed(str, choices={"isotropic", "anisotropic"})),
    "diffusion_hops": (2, _typed(int, minimum=1)),
    "decoder_hidden": ([128, 128], _int_list),
    "per_step_attention": (False, _typed(bool)),
    "normalize_ascent": (False, _typed(bool)),
}

TRAIN_SCHEMA = {
    "learning_rate": (0.001, _typed(float, minimum=0.0)),
    "weight_decay": (0.01, _typed(float, minimum=0.0)),
    "batch_size": (32, _typed(int, minimum=1)),
    "batches_per_epoch": (300, _typed(int, minimum=1)),
    "max_epochs": (200, _typed(int, minimum=0)),
    "plateau_factor": (0.5, _typed(float, minimum=0.0)),
    "plateau_patience": (10, _typed(int, minimum=1)),
    "early_stop_patience": (30, _typed(int, minimum=1)),
    "grad_clip_norm": (None, _optional_float),
    "eval_batch_size": (64, _typed(int, minimum=1)),
}

TOP_SCHEMA = {
    "seed": (0, _typed(int, minimum=0)),
    "output_dir": ("run-output", _typed(str)),
}


def _resolve_block(raw: dict, schema: dict, path: str) -> dict:
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(sorted(unknown))}")
    out = {}
    for key, (default, check) in schema.items():
        if key in raw:
            out[key] = check(raw[key], f"{path}.{key}")
        else:
            out[key] = default
    return out


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill in every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"seed", "output_dir", "dataset", "mask", "model", "train"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config: unknown top-level key(s): {', '.join(sorted(unknown))}")
    resolved = _resolve_block({k: raw[k] for k in raw if k in TOP_SCHEMA}, TOP_SCHEMA, "config")
    resolved["dataset"] = _resolve_block(raw.get("dataset", {}), DATASET_SCHEMA, "dataset")
    resolved["mask"] = _resolve_block(raw.get("mask", {}), MASK_SCHEMA, "mask")
    resolved["model"] = _resolve_block(raw.get("model", {}), MODEL_SCHEMA, "model")
    resolved["train"] = _resolve_block(raw.get("train", {}), TRAIN_SCHEMA, "train")
    ds = resolved["dataset"]
    if ds["kind"] == "csv":
        if not ds["observations"]:
            raise ConfigError("dataset.observations: required when dataset.kind is 'csv'")
    if resolved["mask"]["s_min"] > resolved["mask"]["s_max"]:
        raise ConfigError("mask.s_min: must not exceed mask.s_max")
    splits = resolved["dataset"]["splits"]
    if len(splits) != 3 or abs(sum(splits) - 1.0) > 1e-9:
        raise ConfigError("dataset.splits: must be three fractions summing to 1")
    return resolved


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    return resolve_config(raw)


# -- experiment assembly ----------------------------------------------------------------


def prepare_experiment(resolved: dict) -> tuple[Model, tr.DataBundle]:
    """Deterministically build data, masks, hierarchy and an initialised model."""
    seed = resolved["seed"]
    ds = resolved["dataset"]
    mask_cfg = resolved["mask"]

    if ds["kind"] == "mso":
        graph = dt.random_indegree_graph(ds["nodes"], ds["in_degree"], seed)
        panel, adot = dt.generate_mso(graph, ds["hops"], ds["steps"], ds["fan_in"], seed)
        prop_graph = adot if mask_cfg["propagate_over"] == "mixing" else graph
    else:
        panel, coords = dt.load_csv_panel(
            ds["observations"], mask_path=ds["mask_file"], coords_path=ds["coords"]
        )
        if coords is None:
            raise ConfigError("dataset.coords: required to build the graph for csv datasets")
        graph = gr.build_graph_from_coords(coords, ds["tau"], ds["knn_cap"])
        if ds["connect_components"]:
            graph = gr.ensure_connected(graph, coords, ds["tau"])
        if ds["time_of_day"]:
            if panel.timestamps is None:
                raise ConfigError("dataset.time_of_day: needs datetime timestamps in the csv")
            enc = dt.time_encodings(panel.timestamps, include_dow=ds["day_of_week"])
            panel = dt.Panel(
                x=panel.x, mask=panel.mask,
                u=dt.broadcast_exogenous(enc, panel.n_nodes), timestamps=panel.timestamps,
            )
        prop_graph = graph

    sim = mk.simulate_block(
        panel.x.shape,
        mk.MaskConfig(
            eta=mask_cfg["eta"], p_f=mask_cfg["p_f"], s_min=mask_cfg["s_min"],
            s_max=mask_cfg["s_max"], p_g=tuple(mask_cfg["p_g"]), seed=seed,
        ),
        prop_graph if (mask_cfg["p_g"] or mask_cfg["p_f"] > 0) else None,
    )

    train_w, val_w, test_w = dt.make_windows(panel, ds["window"], ds["horizon"], tuple(ds["splits"]))
    if not val_w or not test_w:
        raise ConfigError("dataset.splits: validation and test splits are empty at this size")
    visible = dt.Panel(
        x=np.where(panel.mask * sim.mask == 1.0, panel.x, 0.0),
        mask=panel.mask * sim.mask,
        u=panel.u,
        timestamps=panel.timestamps,
    )
    scaler = dt.fit_scaler(visible, (0, train_w[-1].start + ds["window"]), ds["scaling"])

    model_cfg = ModelConfig(
        n_nodes=panel.n_nodes,
        window=ds["window"],
        horizon=ds["horizon"],
        d_x=panel.n_channels,
        d_u=panel.u.shape[2],
        d_h=resolved["model"]["d_h"],
        temporal_layers=resolved["model"]["temporal_layers"],
        temporal_factor=resolved["model"]["temporal_factor"],
        spatial_levels=resolved["model"]["spatial_levels"],
        embedding_size=resolved["model"]["embedding_size"],
        smp_variant=resolved["model"]["smp_variant"],
        diffusion_hops=resolved["model"]["diffusion_hops"],
        decoder_hidden=tuple(resolved["model"]["decoder_hidden"]),
        per_step_attention=resolved["model"]["per_step_attention"],
        normalize_ascent=resolved["model"]["normalize_ascent"],
    )
    hierarchy = gr.build_hierarchy(graph, ds["pool_hops"], model_cfg.spatial_levels)
    model = Model(model_cfg, hierarchy, init_seed=seed)
    bundle = tr.DataBundle(
        panel=panel, scaler=scaler, sim_mask=sim.mask, train=train_w, val=val_w, test=test_w
    )
    return model, bundle


def train_config_from(resolved: dict) -> tr.TrainConfig:
    t = resolved["train"]
    return tr.TrainConfig(
        learning_rate=t["learning_rate"],
        weight_decay=t["weight_decay"],
        batch_size=t["batch_size"],
        batches_per_epoch=t["batches_per_epoch"],
        max_epochs=t["max_epochs"],
        plateau_factor=t["plateau_factor"],
        plateau_patience=t["plateau_patience"],
        early_stop_patience=t["early_stop_patience"],
        grad_clip_norm=t["grad_clip_norm"],
        eval_batch_size=t["eval_batch_size"],
        seed=resolved["seed"],
    )


# -- artifact writers ----------------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_history(path: Path, history: list[dict]) -> None:
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_mae", "lr"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["val_mae"]), repr(row["lr"])])
    os.replace(tmp, path)


def write_attention_csv(path: Path, model: Model, bundle: tr.DataBundle, window_index: int) -> None:
    """Per-(node, horizon step) attention over the (k, l) scale grid."""
    samples = bundle.test
    if not (0 <= window_index < len(samples)):
        raise ContractError(f"window index {window_index} out of range (0..{len(samples) - 1})")
    sample = samples[window_index]
    batch = tr.assemble_batch(bundle, [sample], mask_targets=False)
    trace = model.forward_window(batch.x, batch.m, batch.u)
    cfg = model.config
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "horizon_step", "k", "l", "alpha"])
        for h in range(cfg.horizon):
            alphas = trace.alphas[h] if cfg.per_step_attention else trace.alphas[0]
            for node in range(cfg.n_nodes):
                for k in range(cfg.spatial_levels + 1):
                    for l_idx in range(1, cfg.temporal_layers + 1):
                        writer.writerow(
                            [node, h, k, l_idx, repr(float(alphas[node, cfg.slot(k, l_idx)]))]
                        )
    os.replace(tmp, path)


def run_experiment(config_path, seed: int | None = None, out: str | None = None) -> dict:
    """Full pipeline: data, masks, hierarchy, training, evaluation, artifacts."""
    resolved = load_config(config_path)
    if seed is not None:
        resolved["seed"] = seed
    if out is not None:
        resolved["output_dir"] = out
    out_dir = Path(resolved["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "resolved-config.json", resolved)

    model, bundle = prepare_experiment(resolved)
    _write_json(out_dir / "mask-stats.json", mk.mask_statistics(bundle.sim_mask))

    try:
        result = tr.train(model, bundle, train_config_from(resolved))
    except tr.TrainingDiverged as exc:
        _write_history(out_dir / "history.csv", exc.history)
        raise
    test = tr.evaluate(model, bundle, "test", batch_size=resolved["train"]["eval_batch_size"])
    metrics = {
        "test_mae": test.mae,
        "test_mse": test.mse,
        "val_mae": result.best_val_mae if result.history else float("nan"),
        "per_horizon_mae": test.per_horizon_mae,
        "missing_fraction": bundle.combined_missing_fraction,
        "epochs_run": result.epochs_run,
    }
    _write_json(out_dir / "metrics.json", metrics)
    _write_history(out_dir / "history.csv", result.history)
    tr.save_checkpoint(
        out_dir / "checkpoint",
        model,
        {
            "resolved_config": resolved,
            "epoch": result.epochs_run,
            "val_mae": result.best_val_mae,
            "seed": resolved["seed"],
        },
    )
    write_attention_csv(out_dir / "attention.csv", model, bundle, window_index=0)
    return metrics


def dump_scores(checkpoint_dir, window_index: int, out_path) -> None:
    """Recreate the checkpoint's dataset and export one window's attention."""
    config, values, meta = tr.load_checkpoint(checkpoint_dir)
    resolved = meta.get("resolved_config") if isinstance(meta, dict) else None
    if resolved is None:
        raise ContractError(f"{checkpoint_dir}: checkpoint metadata has no 'resolved_config'")
    model, bundle = prepare_experiment(resolved)
    if model.config != config:
        raise ContractError("checkpoint configuration does not match its dataset config")
    unknown = sorted(set(values) - set(model.params))
    missing = sorted(set(model.params) - set(values))
    if unknown or missing:
        raise ContractError(
            f"checkpoint parameters do not match the model: unknown {unknown}, missing {missing}"
        )
    for name, value in values.items():
        expected = model.params[name].value.shape
        if value.shape != expected:
            raise ContractError(
                f"checkpoint parameter {name!r} has shape {value.shape}, the model expects {expected}"
            )
        model.params[name].value[...] = value
    write_attention_csv(Path(out_path), model, bundle, window_index)


# -- entry point -------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="downcast", description="multiscale graph forecasting runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen-mso", help="generate a synthetic oscillator dataset")
    p_gen.add_argument("--nodes", type=int, default=100)
    p_gen.add_argument("--steps", type=int, default=10000)
    p_gen.add_argument("--fan-in", type=int, default=5)
    p_gen.add_argument("--hops", type=int, default=2)
    p_gen.add_argument("--in-degree", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--force", action="store_true")

    p_stats = sub.add_parser("mask-stats", help="print mask statistics for a config")
    p_stats.add_argument("--config", required=True)

    p_dump = sub.add_parser("dump-scores", help="export attention scores for one window")
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--window", type=int, required=True)
    p_dump.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            metrics = run_experiment(args.config, seed=args.seed, out=args.out)
            print(json.dumps(metrics, indent=2, sort_keys=True))
        elif args.command == "gen-mso":
            manifest = dt.export_mso(
                args.out,
                n_nodes=args.nodes,
                length=args.steps,
                fan_in=args.fan_in,
                hops=args.hops,
                in_degree=args.in_degree,
                seed=args.seed,
                force=args.force,
            )
            print(json.dumps(manifest, indent=2, sort_keys=True))
        elif args.command == "mask-stats":
            resolved = load_config(args.config)
            _, bundle = prepare_experiment(resolved)
            print(json.dumps(mk.mask_statistics(bundle.sim_mask), indent=2, sort_keys=True))
        elif args.command == "dump-scores":
            dump_scores(args.checkpoint, args.window, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except tr.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (ContractError, DimensionError, CsvParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
