"""Graph construction, pooling and temporal downsampling indices.

Coarsening follows the select/reduce/connect scheme: centroids form a greedy
maximal independent set of the k-th power graph, member features are summed
into supernodes, and coarse edges accumulate the original cross-cluster
weights. Lifting applies the pseudo-inverse of the binary selection, so
reduce(lift(x)) == x exactly.
"""
from __future__ import annotations

import csv
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .sparse import CsrMatrix

EARTH_RADIUS_KM = 6371.0


class WeightedDigraph:
    """Sparse nonnegative adjacency over N nodes; row i holds out-edges of i."""

    __slots__ = ("n", "csr", "directed")

    def __init__(self, n: int, csr: CsrMatrix, directed: bool):
        if csr.n_rows != n or csr.n_cols != n:
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
            if (s, d) in seen:
                raise ContractError(f"duplicate edge ({s}, {d})")
            seen.add((s, d))
        rows = [e[0] for e in edges]
        cols = [e[1] for e in edges]
        vals = [e[2] for e in edges]
        return cls(n, CsrMatrix.from_entries(n, n, rows, cols, vals), directed)

    @property
    def n_edges(self) -> int:
        return self.csr.nnz

    def edges(self):
        return self.csr.entries()

    def undirected_view(self) -> "WeightedDigraph":
        """Symmetrised copy; mirrored pairs keep the larger weight."""
        if not self.directed:
            return self
        m = self.csr.scipy().maximum(self.csr.scipy_t())
        return WeightedDigraph(self.n, CsrMatrix.from_scipy(m), directed=False)

    def neighbor_lists(self, undirected: bool = True) -> list[np.ndarray]:
        g = self.undirected_view() if undirected else self
        return [g.csr.rows(i) for i in range(self.n)]


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

    def reduce_op(self) -> CsrMatrix:
        """Binary selection as a sparse operator (N_sup x N_prev)."""
        idx = np.arange(self.n_prev)
        return CsrMatrix.from_entries(self.n_sup, self.n_prev, self.assignment, idx, np.ones(self.n_prev))

    def lift_op(self) -> CsrMatrix:
        """Pseudo-inverse action (N_prev x N_sup): copy then divide by cluster size."""
        idx = np.arange(self.n_prev)
        vals = 1.0 / self.cluster_sizes[self.assignment]
        return CsrMatrix.from_entries(self.n_prev, self.n_sup, idx, self.assignment, vals)


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

    kept = {}
    for i in range(n):
        nz = np.flatnonzero(w[i])
        if nz.size > knn_cap:
            order = sorted(nz, key=lambda j: (-w[i, j], j))
            nz = np.array(order[:knn_cap])
        for j in nz:
            weight = w[i, j]
            kept[(i, int(j))] = weight
            kept[(int(j), i)] = weight  # mirror to undirected
    edges = [(i, j, v) for (i, j), v in sorted(kept.items())]
    return WeightedDigraph.from_edges(n, edges, directed=False)


def _components(graph: WeightedDigraph) -> np.ndarray:
    adj = graph.neighbor_lists(undirected=True)
    comp = np.full(graph.n, -1, dtype=np.int64)
    c = 0
    for start in range(graph.n):
        if comp[start] >= 0:
            continue
        comp[start] = c
        q = deque([start])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v] = c
                    q.append(v)
        c += 1
    return comp


def ensure_connected(graph: WeightedDigraph, coords: np.ndarray, tau: float) -> WeightedDigraph:
    """Bridge components with weight-`tau` edges between closest cross pairs."""
    if graph.directed:
        raise ContractError("ensure_connected expects an undirected graph")
    dist = haversine_km(coords)
    edges = {(i, j): v for i, j, v in graph.edges()}
    comp = _components(graph)
    while comp.max() > 0:
        best = None
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if comp[i] == comp[j]:
                    continue
                d = dist[i, j]
                if np.isfinite(d) and (best is None or d < best[0]):
                    best = (d, i, j)
        if best is None:
            break
        _, i, j = best
        edges[(i, j)] = tau
        edges[(j, i)] = tau
        merged = WeightedDigraph.from_edges(
            graph.n, [(a, b, v) for (a, b), v in sorted(edges.items())], directed=False
        )
        comp = _components(merged)
        graph = merged
    return graph


# -- power graphs and pooling --------------------------------------------------


def hop_rings(adj: list[np.ndarray], start: int, k: int) -> list[np.ndarray]:
    """rings[h] holds, sorted, the nodes at hop distance exactly h+1 from `start`.

    Hops follow `adj`; all k rings are returned, empty past the reachable set.
    """
    seen = {start}
    frontier = [start]
    rings = []
    for _ in range(k):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                v = int(v)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        rings.append(np.array(sorted(nxt), dtype=np.int64))
        frontier = nxt
    return rings


def reach_within(graph: WeightedDigraph, k: int) -> WeightedDigraph:
    """Binary graph with an edge wherever an undirected path of length <= k exists."""
    if k < 1:
        raise ContractError("hop radius must be at least 1")
    adj = graph.neighbor_lists(undirected=True)
    edges = []
    for i in range(graph.n):
        for ring in hop_rings(adj, i, k):
            edges.extend((i, int(j), 1.0) for j in ring)
    return WeightedDigraph.from_edges(graph.n, edges, directed=False)


def kmis_select(graph: WeightedDigraph, k: int) -> SelectionMatrix:
    """Centroids greedily chosen as a maximal independent set of the k-power graph.

    Ranking is constant, so ties fall to the lowest node index. Every other
    node joins its nearest centroid by unweighted hop distance on the original
    (undirected) graph, again breaking ties toward the lowest centroid index.
    """
    if graph.n == 0:
        raise ContractError("cannot pool an empty graph")
    adj = graph.neighbor_lists(undirected=True)
    blocked = np.zeros(graph.n, dtype=bool)
    centroids = []
    for v in range(graph.n):
        if blocked[v]:
            continue
        centroids.append(v)
        for ring in hop_rings(adj, v, k):
            blocked[ring] = True
    centroids = np.array(centroids, dtype=np.int64)

    owner = np.full(graph.n, -1, dtype=np.int64)
    owner[centroids] = np.arange(centroids.size)
    frontier = list(centroids)
    while frontier:
        claims: dict[int, int] = {}
        for u in frontier:
            for v in adj[u]:
                v = int(v)
                if owner[v] >= 0:
                    continue
                cur = claims.get(v)
                if cur is None or owner[u] < cur:
                    claims[v] = int(owner[u])
        for v, sup in claims.items():
            owner[v] = sup
        frontier = sorted(claims)
    sizes = np.bincount(owner, minlength=centroids.size)
    return SelectionMatrix(assignment=owner, cluster_sizes=sizes, centroids=centroids)


def connect_coarse(sel: SelectionMatrix, graph: WeightedDigraph) -> WeightedDigraph:
    """Coarse adjacency: summed cross-cluster weights, self-loops dropped."""
    if sel.n_prev != graph.n:
        raise DimensionError("selection does not partition this graph's nodes")
    asg = sel.assignment
    rows, cols, vals = [], [], []
    for i, j, v in graph.edges():
        p, q = asg[i], asg[j]
        if p != q:
            rows.append(p)
            cols.append(q)
            vals.append(v)
    csr = CsrMatrix.from_entries(sel.n_sup, sel.n_sup, rows, cols, vals)
    return WeightedDigraph(sel.n_sup, csr, directed=graph.directed)


def reduce_features(sel: SelectionMatrix, x: np.ndarray) -> np.ndarray:
    """Supernode features as the sum of member features."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != sel.n_prev:
        raise DimensionError(f"expected {sel.n_prev} rows, got {x.shape[0]}")
    out = np.zeros((sel.n_sup,) + x.shape[1:])
    np.add.at(out, sel.assignment, x)
    return out


def lift_features(sel: SelectionMatrix, xc: np.ndarray) -> np.ndarray:
    """Moore-Penrose lifting: each member receives its supernode mean."""
    xc = np.asarray(xc, dtype=np.float64)
    if xc.shape[0] != sel.n_sup:
        raise DimensionError(f"expected {sel.n_sup} rows, got {xc.shape[0]}")
    scale = 1.0 / sel.cluster_sizes[sel.assignment]
    return xc[sel.assignment] * scale.reshape((-1,) + (1,) * (xc.ndim - 1))


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


# -- delimited import/export -----------------------------------------------------


def write_graph_csv(graph: WeightedDigraph, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        for i, j, v in graph.edges():
            writer.writerow([i, j, repr(v)])


def read_graph_csv(path, n: int | None = None, directed: bool = True) -> WeightedDigraph:
    edges = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["src", "dst", "weight"]:
            raise ContractError("graph csv must start with header src,dst,weight")
        for row in reader:
            edges.append((int(row[0]), int(row[1]), float(row[2])))
    if n is None:
        n = 1 + max(max(s, d) for s, d, _ in edges) if edges else 0
    return WeightedDigraph.from_edges(n, edges, directed=directed)
