"""Synthetic benchmark generation, panel ingestion and window preparation.

The synthetic benchmark assigns every node a sinusoid with a frequency
incommensurable with the others, then adds a sparse random mixture of
multi-hop neighbour signals on top. The mixed series are aperiodic, so a
forecaster has to exploit the graph to recover the components.
"""
from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ContractError, CsvParseError, DimensionError
from .graphs import WeightedDigraph, read_graph_csv, write_graph_csv
from .rng import stream_rng

MISSING_TOKENS = {"", "nan", "NaN", "NAN", "NA", "null"}


@dataclass
class Panel:
    """Synchronized multivariate series over N nodes.

    `x` is (T, N, d_x) with zeros at invalid cells, `mask` marks validity
    (1 = valid), `u` is (T, N, d_u) exogenous input (d_u may be zero) and
    `timestamps` is an optional list of datetimes.
    """

    x: np.ndarray
    mask: np.ndarray
    u: np.ndarray
    timestamps: list[datetime] | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.x.ndim != 3 or self.mask.shape != self.x.shape:
            raise DimensionError("panel arrays must be (T, N, d_x) with matching mask")
        if self.u.shape[:2] != self.x.shape[:2]:
            raise DimensionError("exogenous block must cover the same (T, N) grid")
        if not np.all((self.mask == 0.0) | (self.mask == 1.0)):
            raise ContractError("mask must be binary")
        if not np.all(np.isfinite(self.x[self.mask == 1.0])):
            raise ContractError("observations must be finite wherever valid")

    @property
    def n_steps(self) -> int:
        return self.x.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.x.shape[1]

    @property
    def n_channels(self) -> int:
        return self.x.shape[2]


@dataclass(frozen=True)
class WindowSample:
    """One sliding-window example: W input steps and the following H targets."""

    start: int
    x_window: np.ndarray
    m_window: np.ndarray
    u_window: np.ndarray
    x_target: np.ndarray
    m_target: np.ndarray


@dataclass
class Scaler:
    method: str
    offset: np.ndarray  # per channel
    scale: np.ndarray  # per channel, strictly positive

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.offset) / self.scale

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.scale + self.offset


# -- synthetic benchmark --------------------------------------------------------


def random_indegree_graph(n: int, in_degree: int, seed: int) -> WeightedDigraph:
    """Directed binary graph where every node has exactly `in_degree` sources."""
    if in_degree >= n:
        raise ContractError("in-degree must be below the node count")
    rng = stream_rng(seed, "mso-graph")
    edges = []
    for i in range(n):
        others = np.array([j for j in range(n) if j != i])
        for j in rng.choice(others, size=in_degree, replace=False):
            edges.append((int(j), i, 1.0))
    return WeightedDigraph.from_edges(n, edges, directed=True)


def sample_mixing_matrix(graph: WeightedDigraph, hops: int, fan_in: int, rng) -> WeightedDigraph:
    """Per column, keep `fan_in` entries sampled from the column of sum of A^k.

    Entry values are carried over from the hop-sum matrix (path counts for a
    binary graph).
    """
    b = power = graph.csr
    for _ in range(hops - 1):
        power = power @ graph.csr
        b = b + power
    b_by_col = b.tocsc()  # column-major, rows sorted within each column
    edges = []
    for i in range(graph.n):
        lo, hi = b_by_col.indptr[i], b_by_col.indptr[i + 1]
        sources = b_by_col.indices[lo:hi]
        weights = b_by_col.data[lo:hi]
        take = min(fan_in, sources.size)
        if take == 0:
            continue
        pick = rng.choice(sources.size, size=take, replace=False)
        edges.extend((int(sources[p]), i, float(weights[p])) for p in sorted(int(q) for q in pick))
    return WeightedDigraph.from_edges(graph.n, edges, directed=True)


def generate_mso(
    graph: WeightedDigraph, hops: int, length: int, fan_in: int, seed: int
) -> tuple[Panel, WeightedDigraph]:
    """Superimposed-oscillator panel plus the mixing matrix used to build it.

    Base signals are sin(t * e^(-i/N)); each node adds the base signals of its
    sampled multi-hop sources. The mixing matrix is returned so fault
    propagation can reuse the exact neighbourhoods.
    """
    if length <= 0:
        raise ContractError("length must be positive")
    if hops < 1 or fan_in < 1:
        raise ContractError("hops and fan-in must be at least 1")
    if graph.csr.data.size and not np.all(graph.csr.data == 1.0):
        raise ContractError("signal propagation expects a binary graph")
    rng = stream_rng(seed, "mso-signal")
    n = graph.n
    adot = sample_mixing_matrix(graph, hops, fan_in, rng)
    t = np.arange(length, dtype=np.float64)[:, None]
    freq = np.exp(-np.arange(n, dtype=np.float64) / n)[None, :]
    base = np.sin(t * freq)
    mixed = base + (adot.csr.T.tocsr() @ base.T).T
    x = mixed[:, :, None]
    panel = Panel(x=x, mask=np.ones_like(x), u=np.zeros((length, n, 0)), timestamps=None)
    return panel, adot


# -- exogenous encodings ----------------------------------------------------------


def time_encodings(timestamps, include_dow: bool = False) -> np.ndarray:
    """Sinusoidal time-of-day and day-of-year channels, shared by all nodes.

    Returns (T, d_u); day-of-week one-hot channels (Monday = index 0) are
    appended when requested.
    """
    rows = []
    for ts in timestamps:
        second = ts.hour * 3600 + ts.minute * 60 + ts.second + ts.microsecond / 1e6
        day = ts.timetuple().tm_yday - 1
        tod = 2 * np.pi * second / 86400.0
        doy = 2 * np.pi * day / 365.25
        row = [np.sin(tod), np.cos(tod), np.sin(doy), np.cos(doy)]
        if include_dow:
            onehot = [0.0] * 7
            onehot[ts.weekday()] = 1.0
            row.extend(onehot)
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def broadcast_exogenous(u: np.ndarray, n_nodes: int) -> np.ndarray:
    return np.repeat(u[:, None, :], n_nodes, axis=1)


# -- scaling ---------------------------------------------------------------------


def fit_scaler(panel: Panel, train_range: tuple[int, int], method: str) -> Scaler:
    """Per-channel statistics over valid entries inside `train_range`."""
    lo, hi = train_range
    if not (0 <= lo < hi <= panel.n_steps):
        raise ContractError("train range must lie within the panel")
    if method not in ("standard", "minmax"):
        raise ContractError(f"unknown scaling method {method!r}")
    offsets, scales = [], []
    for c in range(panel.n_channels):
        vals = panel.x[lo:hi, :, c][panel.mask[lo:hi, :, c] == 1.0]
        if vals.size == 0:
            raise ContractError(f"channel {c} has no valid training values")
        if method == "standard":
            offsets.append(vals.mean())
            scales.append(max(vals.std(), 1e-8))
        else:
            offsets.append(vals.min())
            scales.append(max(vals.max() - vals.min(), 1e-8))
    return Scaler(method=method, offset=np.array(offsets), scale=np.array(scales))


# -- windows ----------------------------------------------------------------------


def make_windows(
    panel: Panel, window: int, horizon: int, split_spec: tuple[float, float, float] = (0.7, 0.1, 0.2)
) -> tuple[list[WindowSample], list[WindowSample], list[WindowSample]]:
    """Stride-1 windows split sequentially into train/val/test lists."""
    if window <= 0 or horizon <= 0:
        raise ContractError("window and horizon must be positive")
    if panel.n_steps < window + horizon:
        raise ContractError("panel shorter than one window plus horizon")
    total = panel.n_steps - window - horizon + 1
    n_val = int(split_spec[1] * total)
    n_test = int(split_spec[2] * total)
    n_train = total - n_val - n_test

    def sample(start: int) -> WindowSample:
        mid = start + window
        return WindowSample(
            start=start,
            x_window=panel.x[start:mid],
            m_window=panel.mask[start:mid],
            u_window=panel.u[start:mid],
            x_target=panel.x[mid : mid + horizon],
            m_target=panel.mask[mid : mid + horizon],
        )

    starts = list(range(total))
    train = [sample(s) for s in starts[:n_train]]
    val = [sample(s) for s in starts[n_train : n_train + n_val]]
    test = [sample(s) for s in starts[n_train + n_val :]]
    return train, val, test


# -- delimited panel import/export ---------------------------------------------------


_COLUMN_RE = re.compile(r"^node(\d+)_ch(\d+)$")


def _parse_timestamp(token: str):
    try:
        return int(token)
    except ValueError:
        return datetime.fromisoformat(token)


def _parse_field(path, lineno: int, name: str, token: str, parse):
    try:
        return parse(token)
    except ValueError:
        raise CsvParseError(f"{path}: line {lineno}: field {name!r}: cannot read {token!r}") from None


def _format_value(v: float) -> str:
    return repr(float(v))


def write_csv_panel(panel: Panel, obs_path, mask_path=None) -> None:
    """Wide-format observations; invalid cells are written as empty fields."""
    t_col = panel.timestamps if panel.timestamps is not None else list(range(panel.n_steps))
    header = ["timestamp"] + [
        f"node{j}_ch{c}" for j in range(panel.n_nodes) for c in range(panel.n_channels)
    ]
    with open(obs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(panel.n_steps):
            row = [t_col[t] if not isinstance(t_col[t], datetime) else t_col[t].isoformat()]
            for j in range(panel.n_nodes):
                for c in range(panel.n_channels):
                    if panel.mask[t, j, c] == 1.0:
                        row.append(_format_value(panel.x[t, j, c]))
                    else:
                        row.append("")
            writer.writerow(row)
    if mask_path is not None:
        with open(mask_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(panel.n_steps):
                row = [t_col[t] if not isinstance(t_col[t], datetime) else t_col[t].isoformat()]
                row += [
                    str(int(panel.mask[t, j, c]))
                    for j in range(panel.n_nodes)
                    for c in range(panel.n_channels)
                ]
                writer.writerow(row)


def _read_wide_csv(path) -> tuple[list, np.ndarray, np.ndarray]:
    """Returns (timestamps, values (T,N,C), validity (T,N,C))."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "timestamp":
            raise CsvParseError(f"{path}: first column must be 'timestamp'")
        slots = []
        for name in header[1:]:
            m = _COLUMN_RE.match(name)
            if not m:
                raise CsvParseError(f"{path}: unrecognized column {name!r}")
            slots.append((int(m.group(1)), int(m.group(2))))
        n = 1 + max(s[0] for s in slots)
        d = 1 + max(s[1] for s in slots)
        if len(slots) != n * d or len(set(slots)) != len(slots):
            raise CsvParseError(f"{path}: columns do not form a dense node/channel grid")
        stamps, rows_v, rows_m = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            stamps.append(_parse_field(path, lineno, "timestamp", row[0], _parse_timestamp))
            vals = np.zeros((n, d))
            good = np.zeros((n, d))
            for (j, c), name, token in zip(slots, header[1:], row[1:]):
                token = token.strip()
                if token in MISSING_TOKENS:
                    continue
                v = _parse_field(path, lineno, name, token, float)
                if np.isnan(v):
                    continue
                vals[j, c] = v
                good[j, c] = 1.0
            rows_v.append(vals)
            rows_m.append(good)
    return stamps, np.array(rows_v), np.array(rows_m)


def load_csv_panel(obs_path, mask_path=None, coords_path=None) -> tuple[Panel, np.ndarray | None]:
    """Read a wide-format panel; empty/NaN cells become invalid entries.

    A mask file, when given, overrides the sentinel-derived validity. Returns
    the panel together with node coordinates when a coordinates file is given.
    """
    stamps, values, valid = _read_wide_csv(obs_path)
    keys = [s.timestamp() if isinstance(s, datetime) else s for s in stamps]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ContractError(f"{obs_path}: timestamps must be strictly increasing")
    if mask_path is not None:
        _, mvals, _ = _read_wide_csv(mask_path)
        if mvals.shape != values.shape:
            raise DimensionError("mask file shape differs from observations")
        valid = (mvals != 0.0).astype(np.float64)
        values = np.where(valid == 1.0, values, 0.0)
    timestamps = stamps if stamps and isinstance(stamps[0], datetime) else None
    values[valid == 0.0] = 0.0
    panel = Panel(
        x=values,
        mask=valid,
        u=np.zeros(values.shape[:2] + (0,)),
        timestamps=timestamps,
    )
    coords = None
    if coords_path is not None:
        coords = read_coords_csv(coords_path)
        if coords.shape[0] != panel.n_nodes:
            raise DimensionError("coordinate count differs from node count")
    return panel, coords


def read_coords_csv(path) -> np.ndarray:
    """(lat, lon) rows in node order; the node ids must be exactly 0..N-1."""
    coords, lines = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader)[:3] != ["node", "lat", "lon"]:
            raise CsvParseError(f"{path}: expected header node,lat,lon")
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 3:
                raise CsvParseError(f"{path}: line {lineno}: expected fields node,lat,lon, got {len(row)}")
            node = _parse_field(path, lineno, "node", row[0], int)
            if node in coords:
                raise CsvParseError(f"{path}: line {lineno}: field 'node': node {node} also on line {lines[node]}")
            coords[node] = [_parse_field(path, lineno, name, row[f], float) for f, name in ((1, "lat"), (2, "lon"))]
            lines[node] = lineno
    outside = sorted(set(coords) - set(range(len(coords))))
    if outside:
        node = outside[0]
        raise CsvParseError(f"{path}: line {lines[node]}: field 'node': node {node} is outside 0..{len(coords) - 1}")
    return np.array([coords[i] for i in range(len(coords))])


def export_mso(
    out_dir,
    n_nodes: int,
    length: int,
    fan_in: int,
    hops: int,
    in_degree: int,
    seed: int,
    force: bool = False,
) -> dict:
    """Write panel/mask/graph/mixing-matrix files plus a manifest; returns the manifest."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise ContractError(f"output directory {out} is not empty; pass force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    graph = random_indegree_graph(n_nodes, in_degree, seed)
    panel, adot = generate_mso(graph, hops, length, fan_in, seed)
    write_csv_panel(panel, out / "panel.csv.tmp", out / "mask.csv.tmp")
    write_graph_csv(graph, out / "graph.csv.tmp")
    write_graph_csv(adot, out / "adot.csv.tmp")
    for name in ("panel.csv", "mask.csv", "graph.csv", "adot.csv"):
        os.replace(out / f"{name}.tmp", out / name)
    manifest = {
        "dataset": "mso",
        "nodes": n_nodes,
        "steps": length,
        "fan_in": fan_in,
        "hops": hops,
        "in_degree": in_degree,
        "seed": seed,
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out / "manifest.json")
    return manifest


def load_mso_dir(path) -> tuple[Panel, WeightedDigraph, WeightedDigraph, dict]:
    """Read back an exported synthetic dataset directory."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    panel, _ = load_csv_panel(root / "panel.csv", mask_path=root / "mask.csv")
    graph = read_graph_csv(root / "graph.csv", n=manifest["nodes"], directed=True)
    adot = read_graph_csv(root / "adot.csv", n=manifest["nodes"], directed=True)
    return panel, graph, adot, manifest
