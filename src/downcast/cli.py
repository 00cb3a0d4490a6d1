"""Experiment runner: config validation, dataset/mask preparation, training
orchestration and interpretability exports.

The config file is JSON with four blocks (dataset, mask, model, train) plus a
seed and an output directory. Each block is the JSON form of one dataclass
(`data.DatasetConfig`, `masking.MaskConfig`, `model.ModelConfig`,
`training.TrainConfig`), less the fields the run supplies: their fields are
the keys, their type hints the types, their defaults the defaults, and their
`__post_init__` checks the bounds. Every default that applies is materialised
into resolved-config.json, which re-runs the experiment bit-identically. Every
artifact is written through `data.atomic_write`, and metrics.json last.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from . import data as dt
from . import graphs as gr
from . import masking as mk
from . import training as tr
from .errors import ContractError, CsvParseError, DimensionError, require
from .model import Model, ModelConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# -- schema -------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """The top level of a config file besides the four blocks."""

    seed: int = 0
    output_dir: str = "run-output"

    def __post_init__(self):
        require(self, "nonnegative", "seed")


def _coerce(value, hint, path: str):
    """`value` as the JSON form of type `hint`: an int widens to float, and a tuple is a list."""
    args = get_args(hint)
    if type(None) in args:  # `X | None`
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if get_origin(hint) is tuple:  # `tuple[X, ...]`
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [_coerce(v, get_args(hint)[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if hint is float and type(value) is int:
        value = float(value)
    if type(value) is not hint:
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def _build(cls, block: dict, path: str, **supplied):
    """The `cls` that `block` describes; a ContractError from its checks becomes a ConfigError under `path`."""
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in block.items()}, **supplied)
    except ContractError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _resolve_block(raw, cls, path: str, **supplied) -> dict:
    """A block of a config file as the JSON form of `cls`, with every default filled in.

    The block's keys are the fields of `cls` that are not `supplied` by the
    run. Its bounds are checked by building `cls`, with the `supplied` values
    standing in for those fields.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {raw!r}")
    keys = [f for f in fields(cls) if f.name not in supplied]
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(sorted(unknown))}")
    hints = get_type_hints(cls)
    out = {}
    for f in keys:
        value = _coerce(raw[f.name], hints[f.name], f"{path}.{f.name}") if f.name in raw else f.default
        out[f.name] = list(value) if isinstance(value, tuple) else value
    _build(cls, out, path, **supplied)
    return out


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill in every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    blocks = ("dataset", "mask", "model", "train")
    resolved = _resolve_block({k: v for k, v in raw.items() if k not in blocks}, RunConfig, "config")
    ds = resolved["dataset"] = _resolve_block(raw.get("dataset", {}), dt.DatasetConfig, "dataset")
    seed = {"seed": resolved["seed"]}
    shape = {"n_nodes": ds["nodes"], "window": ds["window"], "horizon": ds["horizon"], "d_x": 1, "d_u": 0}
    for block, cls, supplied in (("mask", mk.MaskConfig, seed), ("model", ModelConfig, shape),
                                 ("train", tr.TrainConfig, seed)):
        resolved[block] = _resolve_block(raw.get(block, {}), cls, block, **supplied)
    return resolved


def load_config(path, **overrides) -> dict:
    """Read and resolve a config file; `overrides` that are not None replace its top-level keys."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    if isinstance(raw, dict):
        raw |= {k: v for k, v in overrides.items() if v is not None}
    return resolve_config(raw)


# -- experiment assembly ----------------------------------------------------------------


def prepare_experiment(resolved: dict) -> tuple[Model, tr.DataBundle]:
    """Deterministically build data, masks, hierarchy and an initialised model."""
    seed = resolved["seed"]
    ds = _build(dt.DatasetConfig, resolved["dataset"], "dataset")
    mask_cfg = _build(mk.MaskConfig, resolved["mask"], "mask", seed=seed)

    if ds.kind == "mso":
        graph = dt.random_indegree_graph(ds.nodes, ds.in_degree, seed)
        panel, adot = dt.generate_mso(graph, ds.hops, ds.steps, ds.fan_in, seed)
        prop_graph = adot if mask_cfg.propagate_over == "mixing" else graph
    else:
        panel, coords = dt.load_csv_panel(ds.observations, mask_path=ds.mask_file, coords_path=ds.coords)
        if coords is None:
            raise ConfigError("dataset.coords: required to build the graph for csv datasets")
        graph = gr.build_graph_from_coords(coords, ds.tau, ds.knn_cap)
        if ds.connect_components:
            graph = gr.ensure_connected(graph, coords, ds.tau)
        if ds.time_of_day:
            if panel.timestamps is None:
                raise ConfigError("dataset.time_of_day: needs datetime timestamps in the csv")
            enc = dt.time_encodings(panel.timestamps, include_dow=ds.day_of_week)
            panel = dt.Panel(x=panel.x, mask=panel.mask, u=enc, timestamps=panel.timestamps)
        prop_graph = graph

    sim = mk.simulate_block(panel.x.shape, mask_cfg, prop_graph if (mask_cfg.p_g or mask_cfg.p_f > 0) else None)

    train_w, val_w, test_w = dt.make_windows(panel, ds.window, ds.horizon, ds.splits)
    if not train_w:
        raise ConfigError("dataset.splits: the train split is empty at this size")
    if not val_w or not test_w:
        raise ConfigError("dataset.splits: validation and test splits are empty at this size")
    visible = dt.Panel(x=panel.x, mask=panel.mask * sim.mask, u=panel.u)
    scaler = dt.fit_scaler(visible, (0, train_w[-1] + ds.window), ds.scaling)

    model_cfg = _build(
        ModelConfig, resolved["model"], "model", n_nodes=panel.n_nodes, window=ds.window, horizon=ds.horizon,
        d_x=panel.n_channels, d_u=panel.u.shape[1],
    )
    hierarchy = gr.build_hierarchy(graph, ds.pool_hops, model_cfg.spatial_levels)
    model = Model(model_cfg, hierarchy, init_seed=seed)
    bundle = tr.DataBundle(
        panel=panel, scaler=scaler, sim_mask=sim.mask, train=train_w, val=val_w, test=test_w,
        window=ds.window, horizon=ds.horizon,
    )
    return model, bundle


def train_config_from(resolved: dict) -> tr.TrainConfig:
    return _build(tr.TrainConfig, resolved["train"], "train", seed=resolved["seed"])


# -- artifact writers ----------------------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    with dt.atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_history(path: Path, history: list[dict]) -> None:
    with dt.atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_mae", "lr"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["val_mae"]), repr(row["lr"])])


def write_attention_csv(path: Path, model: Model, bundle: tr.DataBundle, window_index: int) -> None:
    """Per-(node, horizon step) attention over the (k, l) scale grid."""
    starts = bundle.test
    if not (0 <= window_index < len(starts)):
        raise ContractError(f"window index {window_index} out of range (0..{len(starts) - 1})")
    ((_, _, alphas, _, _),) = tr.predict_windows(model, bundle, starts[window_index : window_index + 1], 1)
    cfg = model.config
    with dt.atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "horizon_step", "k", "l", "alpha"])
        for h in range(cfg.horizon):
            score_set = h if cfg.per_step_attention else 0
            for node in range(cfg.n_nodes):
                for slot in range(cfg.n_scales):  # spatial-major: slot k*L + (l-1)
                    k, l_idx = divmod(slot, cfg.temporal_layers)
                    writer.writerow([node, h, k, l_idx + 1, repr(float(alphas[node, score_set, slot]))])


def run_experiment(config_path, seed: int | None = None, out: str | None = None) -> dict:
    """Full pipeline: data, masks, hierarchy, training, evaluation, artifacts."""
    resolved = load_config(config_path, seed=seed, output_dir=out)
    model, bundle = prepare_experiment(resolved)
    out_dir = Path(resolved["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").unlink(missing_ok=True)  # a previous run's, until this one finishes
    _write_json(out_dir / "resolved-config.json", resolved)
    _write_json(out_dir / "mask-stats.json", mk.mask_statistics(bundle.sim_mask))

    try:
        result = tr.train(model, bundle, train_config_from(resolved))
    except tr.TrainingDiverged as exc:
        _write_history(out_dir / "history.csv", exc.history)
        raise
    test = tr.evaluate(model, bundle, "test", batch_size=resolved["train"]["eval_batch_size"])
    _write_history(out_dir / "history.csv", result.history)
    if not (math.isfinite(test.mae) and math.isfinite(test.mse)):
        raise tr.TrainingDiverged(f"non-finite test metrics: mae {test.mae!r}, mse {test.mse!r}", result.history)
    val_mae = result.best_val_mae if result.history else None  # no epoch, no validation
    metrics = {
        "test_mae": test.mae,
        "test_mse": test.mse,
        "val_mae": val_mae,
        "per_horizon_mae": test.per_horizon_mae,
        "missing_fraction": bundle.combined_missing_fraction,
        "epochs_run": len(result.history),
    }
    tr.save_checkpoint(
        out_dir / "checkpoint",
        model,
        {
            "resolved_config": resolved,
            "epoch": len(result.history),
            "val_mae": val_mae,
            "seed": resolved["seed"],
        },
    )
    write_attention_csv(out_dir / "attention.csv", model, bundle, window_index=0)
    _write_json(out_dir / "metrics.json", metrics)  # last, so its presence marks a finished run
    return metrics


def dump_scores(checkpoint_dir, window_index: int, out_path) -> None:
    """Rebuild the checkpoint's model from its resolved config, load it and export one window's attention."""
    meta = tr.read_manifest(checkpoint_dir)["metadata"]
    resolved = meta.get("resolved_config") if isinstance(meta, dict) else None
    if resolved is None:
        raise ContractError(f"{checkpoint_dir}: checkpoint metadata has no 'resolved_config'")
    model, bundle = prepare_experiment(resolve_config(resolved))
    tr.load_checkpoint(checkpoint_dir, model)
    write_attention_csv(Path(out_path), model, bundle, window_index)


# -- entry point -------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="downcast", description="multiscale graph forecasting runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

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
    except (ContractError, DimensionError, CsvParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
