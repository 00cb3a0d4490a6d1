"""Synthetic benchmark generation, panel ingestion and window preparation.

The synthetic benchmark assigns every node a sinusoid with a frequency
incommensurable with the others, then adds a sparse random mixture of
multi-hop neighbour signals on top. The mixed series are aperiodic, so a
forecaster has to exploit the graph to recover the components.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ContractError, CsvParseError, DimensionError, parse_csv_field, require, require_one_of
from .graphs import WeightedDigraph
from .rng import stream_rng

MISSING_TOKENS = {"", "nan", "NaN", "NAN", "NA", "null"}


@dataclass(frozen=True)
class DatasetConfig:
    """Where an experiment's panel comes from, and how it is windowed and scaled.

    Kind "mso" generates the synthetic benchmark from `nodes` .. `in_degree`;
    kind "csv" reads `observations`, an optional validity `mask_file`, and the
    `coords` whose kernel graph (`tau`, `knn_cap`, `connect_components`) the
    model runs on.
    """

    kind: str = "mso"
    nodes: int = 20
    steps: int = 5000
    fan_in: int = 5
    hops: int = 2
    in_degree: int = 3
    observations: str | None = None
    mask_file: str | None = None
    coords: str | None = None
    tau: float = 0.1
    knn_cap: int = 8
    connect_components: bool = True
    time_of_day: bool = False
    day_of_week: bool = False
    window: int = 24
    horizon: int = 6
    splits: tuple[float, ...] = (0.7, 0.1, 0.2)
    scaling: str = "standard"
    pool_hops: int = 1  # independence radius used by the pooling

    def __post_init__(self):
        require_one_of(self, "kind", ("mso", "csv"))
        if self.nodes < 2:
            raise ContractError(f"nodes: must be at least 2, got {self.nodes}")
        require(self, "positive", "steps", "fan_in", "hops", "in_degree", "knn_cap", "window", "horizon", "pool_hops")
        if self.kind == "mso" and self.in_degree >= self.nodes:
            raise ContractError(f"in_degree: must be below nodes ({self.nodes}), got {self.in_degree}")
        if self.kind == "mso" and self.steps < self.window + self.horizon:
            raise ContractError(f"steps: must be at least window + horizon, got {self.steps}")
        if self.kind == "csv" and not self.observations:
            raise ContractError("observations: required when kind is 'csv'")
        if not (0.0 < self.tau < 1.0):
            raise ContractError(f"tau: must lie in (0, 1), got {self.tau!r}")
        if len(self.splits) != 3 or min(self.splits) < 0.0 or abs(sum(self.splits) - 1.0) > 1e-9:
            raise ContractError("splits: must be three nonnegative fractions summing to 1")
        require_one_of(self, "scaling", ("standard", "minmax"))


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
    """The (T, d_u) encodings as a read-only (T, N, d_u) view: every node shares each row."""
    return np.broadcast_to(u[:, None, :], (u.shape[0], n_nodes, u.shape[1]))


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
) -> tuple[range, range, range]:
    """Stride-1 window starts split sequentially into train/val/test ranges.

    The window at start s reads steps s..s+W-1 and targets the next H steps.
    """
    if window <= 0 or horizon <= 0:
        raise ContractError("window and horizon must be positive")
    if panel.n_steps < window + horizon:
        raise ContractError("panel shorter than one window plus horizon")
    total = panel.n_steps - window - horizon + 1
    n_val = int(split_spec[1] * total)
    n_test = int(split_spec[2] * total)
    n_train = total - n_val - n_test
    return range(n_train), range(n_train, n_train + n_val), range(n_train + n_val, total)


# -- delimited panel import ---------------------------------------------------------


_COLUMN_RE = re.compile(r"^node(\d+)_ch(\d+)$")


def _parse_timestamp(token: str):
    try:
        return int(token)
    except ValueError:
        return datetime.fromisoformat(token)


def _finite_float(token: str) -> float:
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(token)
    return value


def _read_wide_csv(path) -> tuple[list, np.ndarray, np.ndarray]:
    """Returns (timestamps, values (T,N,C), validity (T,N,C)).

    Cells are stripped; missing tokens and NaN are invalid and read as 0.
    All cells are converted at once, and cell by cell only when that fails or
    yields an infinity, so a CsvParseError names the file, line and field of
    the bad cell.
    Row lengths and timestamps are checked first, row by row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0] != "timestamp":
            raise CsvParseError(f"{path}: first column must be 'timestamp'")
        if len(header) == 1:
            raise CsvParseError(f"{path}: no node columns after 'timestamp'")
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
        stamps, cells = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            stamps.append(parse_csv_field(path, lineno, "timestamp", row[0], _parse_timestamp))
            cells.append(row[1:])
    if not stamps:
        raise CsvParseError(f"{path}: no data rows after the header")
    tokens = np.strings.strip(np.array(cells))
    missing = np.isin(tokens, list(MISSING_TOKENS))
    try:
        values = np.where(missing, "nan", tokens).astype(np.float64)  # float() on each cell
    except ValueError:
        values = None
    if values is None or np.isinf(values).any():  # cell by cell, to name the first bad one
        values = np.array([
            [np.nan if skip else parse_csv_field(path, lineno, name, str(token), _finite_float)
             for name, token, skip in zip(header[1:], row, row_missing)]
            for lineno, (row, row_missing) in enumerate(zip(tokens, missing), start=2)
        ])
    grid = np.empty((len(stamps), n, d))
    grid.reshape(len(stamps), n * d)[:, [j * d + c for j, c in slots]] = values
    invalid = np.isnan(grid)
    return stamps, np.where(invalid, 0.0, grid), (~invalid).astype(np.float64)


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
        if next(reader, [])[:3] != ["node", "lat", "lon"]:
            raise CsvParseError(f"{path}: expected header node,lat,lon")
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 3:
                raise CsvParseError(f"{path}: line {lineno}: expected fields node,lat,lon, got {len(row)}")
            node = parse_csv_field(path, lineno, "node", row[0], int)
            if node in coords:
                raise CsvParseError(f"{path}: line {lineno}: field 'node': node {node} also on line {lines[node]}")
            coords[node] = [
                parse_csv_field(path, lineno, name, row[f], _finite_float) for f, name in ((1, "lat"), (2, "lon"))
            ]
            lines[node] = lineno
    outside = sorted(set(coords) - set(range(len(coords))))
    if outside:
        node = outside[0]
        raise CsvParseError(f"{path}: line {lines[node]}: field 'node': node {node} is outside 0..{len(coords) - 1}")
    return np.array([coords[i] for i in range(len(coords))])
