"""Simulated missing-data patterns: point noise, sensor faults, propagated faults.

All parameters are constant across nodes and time, so the generating process
is stationary. Faults start at any cell with a fixed per-step probability,
last a uniformly drawn number of steps, and may copy their exact interval to
graph neighbours hop by hop. Point noise is applied on top, uniformly
everywhere (also inside fault intervals; invalidity is idempotent).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, require, require_one_of
from .graphs import WeightedDigraph, hop_distances
from .rng import stream_rng


@dataclass(frozen=True)
class MaskConfig:
    eta: float = 0.0
    p_f: float = 0.0
    s_min: int = 1
    s_max: int = 1
    p_g: tuple[float, ...] = ()
    propagate_over: str = "mixing"  # the "mixing" matrix of a synthetic panel, or the "graph"
    seed: int = 0

    def __post_init__(self):
        require(self, "a probability", "eta", "p_f")
        for i, p in enumerate(self.p_g):
            if not (0.0 <= p <= 1.0):
                raise ContractError(f"p_g[{i}]: must be a probability, got {p!r}")
        require(self, "positive", "s_min", "s_max")
        if self.s_min > self.s_max:
            raise ContractError(f"s_min: must not exceed s_max, got {self.s_min} > {self.s_max}")
        require_one_of(self, "propagate_over", ("mixing", "graph"))


@dataclass(frozen=True)
class FaultInterval:
    node: int
    channel: int
    start: int
    length: int
    origin: str  # "direct" or "propagated"


@dataclass
class SimulatedMask:
    mask: np.ndarray  # (T, N, C), 1 = valid
    faults: list[FaultInterval] = field(default_factory=list)

    @property
    def missing_fraction(self) -> float:
        return float(1.0 - self.mask.mean())


def simulate_point(shape: tuple[int, int, int], eta: float, rng: np.random.Generator) -> SimulatedMask:
    """Each cell is independently invalid with probability eta."""
    if not (0.0 <= eta <= 1.0):
        raise ContractError("eta must be a probability")
    mask = (rng.random(shape) >= eta).astype(np.float64)
    return SimulatedMask(mask=mask, faults=[])


def simulate_block(
    shape: tuple[int, int, int],
    cfg: MaskConfig,
    graph: WeightedDigraph | None = None,
) -> SimulatedMask:
    """Point noise plus uniformly-timed sensor faults with optional propagation.

    Every direct fault copies its exact start and duration to each hop-k
    neighbour of its node independently with probability p_g[k-1]; for
    directed graphs, hops follow edge direction. Channels are independent.
    The same seed reproduces the mask bit for bit, and with p_f = 0 and no
    propagation the result equals `simulate_point` under the same seed policy.
    """
    if cfg.p_g and graph is None:
        raise ContractError("propagation probabilities given but no graph supplied")
    t_len, n_nodes, n_ch = shape
    rng = stream_rng(cfg.seed, "mask")
    invalid = rng.random(shape) < cfg.eta  # point noise drawn first

    faults: list[FaultInterval] = []
    if cfg.p_f > 0.0:
        # rings[i][k] lists the hop-(k+1) neighbours of node i in ascending order
        rings = [[]] * n_nodes
        if cfg.p_g:
            dist = hop_distances(graph, undirected=False)
            rings = [[np.flatnonzero(row == k + 1).tolist() for k in range(len(cfg.p_g))] for row in dist]
        starts = np.argwhere(rng.random(shape) < cfg.p_f)
        for t, i, c in starts:
            t, i, c = int(t), int(i), int(c)
            length = int(rng.integers(cfg.s_min, cfg.s_max + 1))
            faults.append(FaultInterval(node=i, channel=c, start=t, length=length, origin="direct"))
            invalid[t : t + length, i, c] = True
            for ring, p in zip(rings[i], cfg.p_g):
                for j in ring:
                    if rng.random() < p:
                        faults.append(FaultInterval(node=j, channel=c, start=t, length=length, origin="propagated"))
                        invalid[t : t + length, j, c] = True
    return SimulatedMask(mask=(~invalid).astype(np.float64), faults=faults)


def mask_statistics(mask: np.ndarray) -> dict:
    """Missing fraction overall and per node, streak histogram, dead steps."""
    mask = np.asarray(mask)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ContractError("mask must be binary")
    t_len, n_nodes, n_ch = mask.shape
    # Streaks are the runs of missing steps in each (node, channel) series.
    missing = np.moveaxis(mask == 0.0, 0, -1).reshape(-1, t_len)
    steps = np.diff(np.pad(missing, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    lengths = np.nonzero(steps == -1)[1] - np.nonzero(steps == 1)[1]
    values, counts = np.unique(lengths, return_counts=True)
    return {
        "missing_fraction": float(1.0 - mask.mean()),
        "per_node_missing": [float(1.0 - mask[:, i].mean()) for i in range(n_nodes)],
        "streak_histogram": {str(v): int(c) for v, c in zip(values.tolist(), counts)},
        "fully_missing_steps": int(np.sum(mask.reshape(t_len, -1).max(axis=1) == 0.0)),
    }


def write_fault_log(sim: SimulatedMask, path) -> None:
    """One JSON object per fault interval, in generation order."""
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w") as fh:
        for f in sim.faults:
            fh.write(
                json.dumps(
                    {
                        "node": f.node,
                        "channel": f.channel,
                        "start": f.start,
                        "length": f.length,
                        "origin": f.origin,
                    }
                )
                + "\n"
            )
    os.replace(tmp, path)
