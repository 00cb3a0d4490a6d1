"""Workload definitions: one experiment config per workload, built from a seed.

Each workload is one `downcast run` config. The program only ever sees the
files written here: the config JSON and, for `metro-aniso`, a wide CSV panel
and a sensor-coordinate CSV generated from the workload seed.
"""
from __future__ import annotations

import csv
import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

# Run budget per `downcast run`: epochs x batches. Sized so that a benchmark
# run of 40 s holds at least three runs (a fresh process each) and at least
# 100 train steps.
BUDGETS = {
    "desk-iso": {"max_epochs": 2, "batches_per_epoch": 20},
    "metro-aniso": {"max_epochs": 1, "batches_per_epoch": 34},
}

WHY = {
    "desk-iso": (
        "criterion-6 full model via the CLI: 640-row matrices, so steps are bound by "
        "tape and Python overhead in the temporal stack and autodiff; directed iso (rev) operators"
    ),
    "metro-aniso": (
        "150-sensor CSV traffic panel, anisotropic K=3, per-step attention: sparse/BLAS-bound "
        "graph products, 12 attention/readout heads, CSV parsing and fault propagation in set-up"
    ),
}


def desk_iso(seed: int, work: Path) -> dict:
    """Criterion 6's "full" model on the synthetic multi-sine oscillator panel."""
    return {
        "seed": seed,
        "dataset": {
            "kind": "mso", "nodes": 20, "steps": 5000, "fan_in": 5, "hops": 2,
            "in_degree": 3, "window": 24, "horizon": 6,
        },
        "mask": {"eta": 0.05, "p_f": 0.01, "s_min": 8, "s_max": 48, "propagate_over": "mixing"},
        "model": {
            "d_h": 16, "temporal_layers": 3, "temporal_factor": 3, "spatial_levels": 2,
            "embedding_size": 8, "smp_variant": "isotropic", "diffusion_hops": 2,
            "decoder_hidden": [32], "per_step_attention": False,
        },
        "train": {
            "learning_rate": 0.005, "batch_size": 32, "eval_batch_size": 128,
            "early_stop_patience": 50, **BUDGETS["desk-iso"],
        },
    }


METRO_GRID = (10, 15)  # rows x columns of sensor sites
METRO_NODES = METRO_GRID[0] * METRO_GRID[1]
METRO_STEPS = 2000
METRO_GAP_RATE = 0.02
METRO_CENTER = (34.05, -118.25)  # box centre, degrees
METRO_BOX_KM = 40.0
METRO_START = datetime(2024, 3, 4)  # a Monday


def metro_panel(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[datetime]]:
    """Traffic-like speeds: (coords (N, 2), speeds (T, N), validity (T, N), stamps).

    Speeds follow a daily profile with morning and evening dips whose depth
    varies smoothly over space, weaker at weekends, plus spatially correlated
    noise; about 2% of cells are missing at random.
    """
    rng = np.random.default_rng([seed, 0x6D6574726F])
    n, t_len = METRO_NODES, METRO_STEPS
    lat0, lon0 = METRO_CENTER
    # A jittered grid: every seed gets a connected graph of about the same
    # size, so the seed changes values but not the amount of work.
    rows, cols = METRO_GRID
    cell = np.array([METRO_BOX_KM / rows, METRO_BOX_KM / cols])
    grid = np.stack(np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij"), axis=-1).reshape(n, 2)
    km = (grid + 0.5 + rng.uniform(-0.4, 0.4, (n, 2))) * cell - METRO_BOX_KM / 2
    coords = np.column_stack([
        lat0 + km[:, 0] / 111.0,
        lon0 + km[:, 1] / (111.0 * np.cos(np.radians(lat0))),
    ])
    stamps = [METRO_START + timedelta(minutes=5 * t) for t in range(t_len)]
    hour = np.array([s.hour + s.minute / 60.0 for s in stamps])
    weekend = np.array([s.weekday() >= 5 for s in stamps])

    # Congestion depth: a few radial hot spots, so neighbours behave alike.
    spots = rng.uniform(-METRO_BOX_KM / 2, METRO_BOX_KM / 2, size=(4, 2))
    dist = np.linalg.norm(km[:, None, :] - spots[None], axis=2)
    depth = 10.0 + 25.0 * np.exp(-((dist / 8.0) ** 2)).max(axis=1)

    rush = np.exp(-(((hour - 8.0) / 1.2) ** 2)) + 0.8 * np.exp(-(((hour - 17.5) / 1.5) ** 2))
    rush = np.where(weekend, 0.35 * rush, rush)
    free_flow = 62.0 + rng.normal(0.0, 4.0, n)
    factors = np.zeros((t_len, 4))
    shocks = rng.normal(0.0, 1.0, (t_len, 4))
    for t in range(1, t_len):
        factors[t] = 0.95 * factors[t - 1] + 0.3 * shocks[t]
    loadings = np.exp(-((dist / 12.0) ** 2))
    speeds = (
        free_flow[None, :]
        - rush[:, None] * depth[None, :]
        + factors @ loadings.T * 3.0
        + rng.normal(0.0, 1.5, (t_len, n))
    )
    valid = rng.random((t_len, n)) >= METRO_GAP_RATE
    return coords, speeds, valid, stamps


def write_metro_files(seed: int, work: Path) -> tuple[Path, Path]:
    coords, speeds, valid, stamps = metro_panel(seed)
    obs = work / "metro-speeds.csv"
    with open(obs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + [f"node{j}_ch0" for j in range(METRO_NODES)])
        for t, stamp in enumerate(stamps):
            cells = [f"{v:.3f}" if ok else "" for v, ok in zip(speeds[t], valid[t])]
            writer.writerow([stamp.isoformat()] + cells)
    coord_path = work / "metro-coords.csv"
    with open(coord_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "lat", "lon"])
        for j, (lat, lon) in enumerate(coords):
            writer.writerow([j, f"{lat:.6f}", f"{lon:.6f}"])
    return obs, coord_path


def metro_aniso(seed: int, work: Path) -> dict:
    """Traffic-like sensor network read from a generated CSV panel."""
    obs, coord_path = write_metro_files(seed, work)
    return {
        "seed": seed,
        "dataset": {
            "kind": "csv", "observations": str(obs), "coords": str(coord_path),
            "tau": 0.1, "knn_cap": 8, "connect_components": True,
            "time_of_day": True, "day_of_week": True, "window": 12, "horizon": 12,
        },
        "mask": {
            "eta": 0.05, "p_f": 0.002, "s_min": 4, "s_max": 24, "p_g": [0.5],
            "propagate_over": "graph",
        },
        "model": {
            "d_h": 24, "temporal_layers": 2, "spatial_levels": 3,
            "smp_variant": "anisotropic", "per_step_attention": True, "normalize_ascent": True,
            "decoder_hidden": [32],
        },
        "train": {
            "learning_rate": 0.005, "batch_size": 8, "eval_batch_size": 32,
            **BUDGETS["metro-aniso"],
        },
    }


WORKLOADS = {"desk-iso": desk_iso, "metro-aniso": metro_aniso}

# Runs cycle through this many input sets per benchmark seed, so that the
# forecast-quality metric averages over several training trajectories.
INPUT_SETS = 3


def input_seed(seed: int, index: int) -> int:
    """Experiment seed of input set `index` (0 <= index < INPUT_SETS) of a benchmark seed."""
    return INPUT_SETS * seed + index


def write_config(name: str, seed: int, work: Path) -> Path:
    """Generate one input set under `work` (created) and return its config path."""
    work.mkdir(parents=True, exist_ok=True)
    config = WORKLOADS[name](seed, work)
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path
