"""Graph construction, pooling and temporal downsampling indices.

Coarsening follows the select/reduce/connect scheme: centroids form a greedy
maximal independent set of the k-th power graph, member features are summed
into supernodes, and coarse edges accumulate the original cross-cluster
weights. Lifting applies the pseudo-inverse of the binary selection, so
reduce(lift(x)) == x exactly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ContractError, DimensionError

EARTH_RADIUS_KM = 6371.0


class WeightedDigraph:
    """Sparse nonnegative adjacency over N nodes; row i holds out-edges of i.

    `csr` is a canonical `scipy.sparse.csr_array` (duplicates summed, indices
    sorted); stored zero weights are kept and count as edges.
    """

    __slots__ = ("n", "csr", "directed")

    def __init__(self, n: int, csr: sp.csr_array, directed: bool):
        if csr.shape != (n, n):
            raise DimensionError("adjacency must be square over the node count")
        if csr.data.size and csr.data.min() < 0:
            raise ContractError("edge weights must be nonnegative")
        self.n = int(n)
        self.csr = csr
        self.directed = bool(directed)

    @classmethod
    def from_edges(cls, n: int, edges, directed: bool = True) -> "WeightedDigraph":
        """Build from (src, dst, weight) triples; duplicate pairs are rejected."""
        edges = list(edges)
        seen = set()
        for s, d, _ in edges:
            if not (0 <= s < n and 0 <= d < n):
                raise DimensionError(f"edge ({s}, {d}) names a node outside 0..{n - 1}")
            if (s, d) in seen:
                raise ContractError(f"duplicate edge ({s}, {d})")
            seen.add((s, d))
        rows = np.array([e[0] for e in edges], dtype=np.int64)
        cols = np.array([e[1] for e in edges], dtype=np.int64)
        vals = np.array([e[2] for e in edges], dtype=np.float64)
        return cls(n, sp.csr_array((vals, (rows, cols)), shape=(n, n)), directed)

    def edges(self):
        """(src, dst, weight) triples in row-major order."""
        coo = self.csr.tocoo()
        return zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())

    def undirected_view(self) -> "WeightedDigraph":
        """Symmetrised copy; mirrored pairs keep the larger weight and zero weights drop."""
        if not self.directed:
            return self
        return WeightedDigraph(self.n, self.csr.maximum(self.csr.T), directed=False)


@dataclass(frozen=True)
class SelectionMatrix:
    """Partition of N_prev nodes into N_sup supernodes."""

    assignment: np.ndarray  # length N_prev, values in [0, N_sup)
    cluster_sizes: np.ndarray  # length N_sup
    centroids: np.ndarray  # original node index of each supernode

    @property
    def n_prev(self) -> int:
        return int(self.assignment.size)

    @property
    def n_sup(self) -> int:
        return int(self.cluster_sizes.size)

    def reduce_op(self) -> sp.csr_array:
        """Binary selection as a sparse operator (N_sup x N_prev)."""
        idx = np.arange(self.n_prev)
        return sp.csr_array((np.ones(self.n_prev), (self.assignment, idx)), shape=(self.n_sup, self.n_prev))

    def lift_op(self) -> sp.csr_array:
        """Pseudo-inverse action (N_prev x N_sup): copy then divide by cluster size."""
        idx = np.arange(self.n_prev)
        vals = 1.0 / self.cluster_sizes[self.assignment]
        return sp.csr_array((vals, (idx, self.assignment)), shape=(self.n_prev, self.n_sup))


@dataclass(frozen=True)
class CoarseningHierarchy:
    """Level graphs A^(0..K) and the selections that produced them."""

    graphs: tuple[WeightedDigraph, ...]
    selections: tuple[SelectionMatrix, ...]

    @property
    def levels(self) -> int:
        return len(self.selections)


@dataclass(frozen=True)
class TemporalDownsampler:
    """Indices kept when decimating a sequence by `factor`."""

    input_length: int
    factor: int
    kept_indices: tuple[int, ...]

    @property
    def output_length(self) -> int:
        return len(self.kept_indices)


# -- geographic construction --------------------------------------------------


def haversine_km(coords: np.ndarray) -> np.ndarray:
    """Pairwise great-circle distances for (lat, lon) rows in degrees."""
    rad = np.radians(np.asarray(coords, dtype=np.float64))
    lat = rad[:, 0][:, None]
    lon = rad[:, 1][:, None]
    dlat = lat - lat.T
    dlon = lon - lon.T
    a = np.sin(dlat / 2) ** 2 + np.cos(lat) * np.cos(lat.T) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def build_graph_from_coords(coords: np.ndarray, tau: float, knn_cap: int) -> WeightedDigraph:
    """Thresholded Gaussian-kernel graph over sensor coordinates.

    Kernel width is the standard deviation of all pairwise distances; entries
    below `tau` are dropped, each node keeps its `knn_cap` strongest
    neighbours, and surviving edges are mirrored so the result is undirected.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if n < 2:
        raise ContractError("need at least two nodes to build a graph")
    if not (0.0 < tau < 1.0):
        raise ContractError("tau must lie in (0, 1)")
    dist = haversine_km(coords)
    iu = np.triu_indices(n, k=1)
    if np.any(dist[iu] == 0.0):
        warnings.warn("duplicate coordinates found; their edges get weight 1", stacklevel=2)
    sigma = float(np.std(dist[iu]))
    if sigma == 0.0:
        sigma = 1.0
    w = np.exp(-(dist**2) / (sigma**2))
    np.fill_diagonal(w, 0.0)
    w[w < tau] = 0.0

    # Each row keeps its knn_cap strongest entries, ties to the lower index;
    # w is symmetric, so mirroring keeps every weight.
    rank = np.argsort(-w, axis=1, kind="stable")[:, :knn_cap]
    keep = np.zeros(w.shape, dtype=bool)
    np.put_along_axis(keep, rank, True, axis=1)
    keep &= w > 0.0
    return WeightedDigraph(n, sp.csr_array(np.where(keep | keep.T, w, 0.0)), directed=False)


def ensure_connected(graph: WeightedDigraph, coords: np.ndarray, tau: float) -> WeightedDigraph:
    """Bridge components with weight-`tau` edges between closest cross pairs.

    Each bridge joins the closest pair (i < j) of nodes in different
    components, the first in row-major order among equally close pairs.
    """
    if graph.directed:
        raise ContractError("ensure_connected expects an undirected graph")
    dist = haversine_km(coords)
    upper = np.triu(np.isfinite(dist), k=1)
    n_comp, comp = csgraph.connected_components(graph.csr, directed=False)
    bridges = []
    while n_comp > 1:
        cross = np.where(upper & (comp[:, None] != comp[None, :]), dist, np.inf)
        i, j = np.unravel_index(np.argmin(cross), cross.shape)
        if cross[i, j] == np.inf:
            break
        bridges.extend([(int(i), int(j), tau), (int(j), int(i), tau)])
        comp[comp == comp[j]] = comp[i]
        n_comp -= 1
    return WeightedDigraph.from_edges(graph.n, [*graph.edges(), *bridges], directed=False)


# -- power graphs and pooling --------------------------------------------------


def hop_distances(graph: WeightedDigraph, undirected: bool) -> np.ndarray:
    """dist[i, j] counts the hops of a shortest path from i to j (inf if none).

    Hops follow stored edges, zero weights included, or with `undirected` the
    edges of the symmetrised view.
    """
    csr = (graph.undirected_view() if undirected else graph).csr
    return csgraph.shortest_path(csr, directed=True, unweighted=True)


def kmis_select(graph: WeightedDigraph, k: int) -> SelectionMatrix:
    """Centroids greedily chosen as a maximal independent set of the k-power graph.

    Ranking is constant, so ties fall to the lowest node index. Every other
    node joins its nearest centroid by unweighted hop distance on the original
    (undirected) graph, again breaking ties toward the lowest centroid index.
    """
    if graph.n == 0:
        raise ContractError("cannot pool an empty graph")
    dist = hop_distances(graph, undirected=True)
    blocked = np.zeros(graph.n, dtype=bool)
    centroids = []
    for v in range(graph.n):
        if not blocked[v]:
            centroids.append(v)
            blocked |= dist[v] <= k
    centroids = np.array(centroids, dtype=np.int64)
    owner = np.argmin(dist[centroids], axis=0)
    sizes = np.bincount(owner, minlength=centroids.size)
    return SelectionMatrix(assignment=owner, cluster_sizes=sizes, centroids=centroids)


def connect_coarse(sel: SelectionMatrix, graph: WeightedDigraph) -> WeightedDigraph:
    """Coarse adjacency: summed cross-cluster weights, self-loops dropped."""
    if sel.n_prev != graph.n:
        raise DimensionError("selection does not partition this graph's nodes")
    coo = graph.csr.tocoo()
    p, q = sel.assignment[coo.row], sel.assignment[coo.col]
    cross = p != q
    csr = sp.csr_array((coo.data[cross], (p[cross], q[cross])), shape=(sel.n_sup, sel.n_sup))
    return WeightedDigraph(sel.n_sup, csr, directed=graph.directed)


def build_hierarchy(graph: WeightedDigraph, hop_radius: int, levels: int) -> CoarseningHierarchy:
    graphs = [graph]
    selections = []
    for _ in range(levels):
        sel = kmis_select(graphs[-1], hop_radius)
        selections.append(sel)
        graphs.append(connect_coarse(sel, graphs[-1]))
    return CoarseningHierarchy(graphs=tuple(graphs), selections=tuple(selections))


# -- temporal indices ----------------------------------------------------------


def temporal_keep_indices(w_prev: int, d: int) -> TemporalDownsampler:
    """Keep the last index of every block of `d`, scanning backwards from the end."""
    if w_prev < 1 or d < 1:
        raise ContractError("sequence length and factor must be positive")
    kept = tuple(range(w_prev - 1, -1, -d))[::-1]
    return TemporalDownsampler(input_length=w_prev, factor=d, kept_indices=kept)


def temporal_chain(window: int, d: int, layers: int) -> list[TemporalDownsampler]:
    chain = []
    w = window
    for _ in range(layers):
        ds = temporal_keep_indices(w, d)
        chain.append(ds)
        w = ds.output_length
    return chain
