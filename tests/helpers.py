"""Shared test utilities and the reference implementations the program is checked against."""
import csv
from datetime import datetime

import numpy as np

from downcast import autodiff as ad
from downcast import graphs as gr
from downcast import training as tr
from downcast.errors import DimensionError
from downcast.masking import FaultInterval, SimulatedMask
from downcast.model import last_value_imputation, smp_messages
from downcast.rng import stream_rng


def simulate_point(shape, eta, rng):
    """Point noise alone: each cell is independently invalid with probability eta."""
    return SimulatedMask(mask=(rng.random(shape) >= eta).astype(np.float64), faults=[])


def random_graph(n, p, rng, directed=False, zero_frac=0.0):
    """Each ordered pair is an edge with probability p; a `zero_frac` share of weights is 0."""
    edges = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                w = 0.0 if zero_frac and rng.random() < zero_frac else rng.uniform(0.1, 1.0)
                edges[(i, j)] = w
                if not directed:
                    edges[(j, i)] = w
    return gr.WeightedDigraph.from_edges(n, [(i, j, w) for (i, j), w in edges.items()], directed=directed)


def permute_hierarchy(hierarchy, perm):
    """Relabel level-0 nodes by `perm` (old index -> new index).

    Coarse levels keep their supernode numbering, so only the level-0 graph,
    the first selection's assignment and the centroid labels change.
    """
    g0 = hierarchy.graphs[0]
    edges = [(int(perm[i]), int(perm[j]), w) for i, j, w in g0.edges()]
    new_g0 = gr.WeightedDigraph.from_edges(g0.n, edges, directed=g0.directed)
    new_graphs = (new_g0,) + hierarchy.graphs[1:]
    if hierarchy.selections:
        sel = hierarchy.selections[0]
        assignment = np.empty_like(sel.assignment)
        assignment[perm] = sel.assignment
        new_sel = gr.SelectionMatrix(
            assignment=assignment,
            cluster_sizes=sel.cluster_sizes,
            centroids=np.asarray(perm)[sel.centroids],
        )
        new_sels = (new_sel,) + hierarchy.selections[1:]
    else:
        new_sels = hierarchy.selections
    return gr.CoarseningHierarchy(graphs=new_graphs, selections=new_sels)


def gru_layer_reference(seq, w_in, w_hid, bias):
    """Op-by-op gated recurrent layer: the reference for `ad.gru_scan`.

    `seq` is a list of per-step tensors; `w_in`, `w_hid` and `bias` stack
    the reset, update and candidate gates on their leading axis, and each
    gate's block is taken out of them by its own record. Returns every state.
    """
    (wr, wu, wc), (ur, uu, uc), (br, bu, bc) = ([take(w, k) for k in range(3)] for w in (w_in, w_hid, bias))
    h = ad.constant(np.zeros((seq[0].data.shape[0], uc.data.shape[1])))
    out = []
    for x_t in seq:
        r = ad.sigmoid(x_t @ wr + h @ ur + br)
        u = ad.sigmoid(x_t @ wu + h @ uu + bu)
        c = tanh(x_t @ wc + ad.mul(r, h) @ uc + bc)
        h = ad.add(ad.mul(u, h), ad.mul(ad.sub(1.0, u), c))
        out.append(h)
    return out


def spatial_stack_reference(model, p, z_list, rt):
    """Per-layer spatial loop: the reference for `Model.spatial_stack`.

    Runs every level once per temporal summary in `z_list`; returns the S
    encodings as a list in slot order k*L + (l-1).
    """
    cfg = model.config
    slots = [None] * cfg.n_scales
    for l_idx, z in enumerate(z_list, start=1):
        slots[l_idx - 1] = z
        r = z
        for k in range(1, cfg.spatial_levels + 1):
            r = ad.sparse_matmul(rt.reduce_ops[k - 1], smp_messages(r, k, p, cfg, rt))
            lifted = r
            for j in range(k, 0, -1):
                lifted = ad.sparse_matmul(rt.lift_ops[j - 1], lifted)
                lifted = ad.sparse_matmul(rt.ascent_ops[j - 1], lifted, transpose=True)
            slots[k * cfg.temporal_layers + l_idx - 1] = lifted
    return slots


def encode_inputs_reference(model, x, m, u):
    """Concatenated encoder: the reference for `Model.encode_inputs`.

    Every (step, node, window) row holds [imputed x, u, mask, embedding],
    the embedding repeated over the windows and tiled over the steps, and
    takes one product with `encoder.steps` stacked on `encoder.nodes`.
    Returns the (W*N*B, d_h) array.
    """
    pv = {k: v.value for k, v in model.params.items()}
    w, rows = x.shape[0], x.shape[1]
    emb = np.tile(np.repeat(pv["embeddings"], rows // model.config.n_nodes, axis=0), (w, 1))
    feats = np.concatenate([last_value_imputation(x, m), u, m], axis=2).reshape(w * rows, -1)
    weight = np.concatenate([pv["encoder.steps"], pv["encoder.nodes"]])
    return np.concatenate([feats, emb], axis=1) @ weight + pv["encoder.bias"]


def edge_messages_reference(x, src, recv, weight, w1, w2, w3):
    """Op-by-op gated edge messages: the reference for `ad.edge_messages`.

    Gathers the receiver and sender rows through the incidence operators,
    runs the message MLP on the [receiver, sender, weight] edge features and
    sums the gated messages at the receivers through the transposed operator.
    """
    x_recv = ad.sparse_matmul(recv, x)
    x_src = ad.sparse_matmul(src, x)
    repeated = np.repeat(weight, x.data.shape[0] // src.shape[1], axis=0)  # edge-major, like x_recv
    feats = concat_cols([x_recv, x_src, ad.constant(repeated)])
    m = ad.elu(feats @ w1) @ w2
    gated = ad.mul(ad.sigmoid(m @ w3), m)
    return ad.sparse_matmul(recv, gated, transpose=True)


def scale_attention_reference(slots, theta):
    """Per-slot score, softmax and mix chain: the reference for `ad.scale_attention`.

    Returns (one fused tensor per score set, one weight tensor per score set).
    """
    score_cols = [z @ theta for z in slots]
    alphas, fused = [], []
    for h in range(theta.data.shape[1]):
        al = softmax_rows(concat_cols([slice_cols(s, h, h + 1) for s in score_cols]))
        z_mix = None
        for s, z in enumerate(slots):
            term = ad.mul(slice_cols(al, s, s + 1), z)
            z_mix = term if z_mix is None else z_mix + term
        alphas.append(al)
        fused.append(z_mix)
    return fused, alphas


# -- autodiff ops the model does not use -------------------------------------------


def exp(x):
    return ad._unary(x, np.exp, lambda g, v, out: g * out)


def tanh(x):
    return ad._unary(x, np.tanh, lambda g, v, out: g * (1.0 - out * out))


def negate(x):
    return ad._unary(x, lambda v: -v, lambda g, v, out: -g)


def softmax_rows(x):
    """Row-wise softmax of a matrix, stabilised by per-row max subtraction."""
    x = ad._as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("softmax_rows expects a matrix")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return ad._emit((x,), out, vjp)


def concat_cols(parts):
    """Concatenate matrices with equal row counts along columns; each adjoint is its column slice."""
    parts = [ad._as_tensor(p) for p in parts]
    if any(p.data.ndim != 2 or p.data.shape[0] != parts[0].data.shape[0] for p in parts):
        raise DimensionError("operands joined along columns must be matrices of equal row count")
    ends = np.cumsum([p.data.shape[1] for p in parts]).tolist()
    spans = list(zip([0, *ends], ends))
    return ad._emit(parts, np.concatenate([p.data for p in parts], axis=1), lambda g: [g[:, lo:hi] for lo, hi in spans])


def slice_cols(x, lo, hi):
    x = ad._as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("slice_cols expects a matrix")
    if not (0 <= lo <= hi <= x.data.shape[1]):
        raise DimensionError(f"slice [{lo}:{hi}] out of range for {x.data.shape}")
    data = x.data[:, lo:hi].copy()

    def vjp(g):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = g
        return (full,)

    return ad._emit((x,), data, vjp)


def take(x, k):
    """Block k along the leading axis of a stacked array; its adjoint is zero outside block k."""
    x = ad._as_tensor(x)
    if x.data.ndim != 3 or not (0 <= k < x.data.shape[0]):
        raise DimensionError(f"block {k} out of range for {x.data.shape}")

    def vjp(g):
        full = np.zeros_like(x.data)
        full[k] = g
        return (full,)

    return ad._emit((x,), x.data[k], vjp)


def reduce_mean(x, axis=None):
    x = ad._as_tensor(x)
    if axis is not None and axis >= x.data.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")
    n = x.data.size if axis is None else x.data.shape[axis]
    data = x.data.mean(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, x.data.shape).copy(),)

    return ad._emit((x,), data, vjp)


# -- graph oracles: feature maps and breadth-first search ------------------------------


def reduce_features(sel, x):
    """Supernode features as the sum of member features."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != sel.n_prev:
        raise DimensionError(f"expected {sel.n_prev} rows, got {x.shape[0]}")
    out = np.zeros((sel.n_sup,) + x.shape[1:])
    np.add.at(out, sel.assignment, x)
    return out


def lift_features(sel, xc):
    """Moore-Penrose lifting: each member receives its supernode mean."""
    xc = np.asarray(xc, dtype=np.float64)
    if xc.shape[0] != sel.n_sup:
        raise DimensionError(f"expected {sel.n_sup} rows, got {xc.shape[0]}")
    scale = 1.0 / sel.cluster_sizes[sel.assignment]
    return xc[sel.assignment] * scale.reshape((-1,) + (1,) * (xc.ndim - 1))


def neighbor_lists(graph, undirected=True):
    """Stored out-neighbours of every node, of the symmetrised view with `undirected`."""
    g = graph.undirected_view() if undirected else graph
    return [g.csr.indices[g.csr.indptr[i]:g.csr.indptr[i + 1]] for i in range(graph.n)]


def hop_rings(adj, start, k):
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


def reach_within(graph, k):
    """Binary graph with an edge wherever an undirected path of length <= k exists."""
    adj = neighbor_lists(graph, undirected=True)
    edges = []
    for i in range(graph.n):
        for ring in hop_rings(adj, i, k):
            edges.extend((i, int(j), 1.0) for j in ring)
    return gr.WeightedDigraph.from_edges(graph.n, edges, directed=False)


def kmis_select_reference(graph, k):
    """k-MIS selection by breadth-first search: rings block, then a multi-source claim."""
    adj = neighbor_lists(graph, undirected=True)
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
        claims = {}
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
    return gr.SelectionMatrix(assignment=owner, cluster_sizes=sizes, centroids=centroids)


def fault_list_reference(shape, cfg, graph):
    """The faults of `masking.simulate_block`, propagated over breadth-first rings."""
    rng = stream_rng(cfg.seed, "mask")
    rng.random(shape)  # point noise
    succ = neighbor_lists(graph, undirected=False)
    faults = []
    for t, i, c in np.argwhere(rng.random(shape) < cfg.p_f):
        t, i, c = int(t), int(i), int(c)
        length = int(rng.integers(cfg.s_min, cfg.s_max + 1))
        faults.append(FaultInterval(node=i, channel=c, start=t, length=length, origin="direct"))
        for ring, p in zip(hop_rings(succ, i, len(cfg.p_g)), cfg.p_g):
            for j in ring:
                if rng.random() < p:
                    faults.append(FaultInterval(node=int(j), channel=c, start=t, length=length, origin="propagated"))
    return faults


def knn_graph_reference(w, knn_cap):
    """Edges of `graphs.build_graph_from_coords` from its thresholded kernel `w`, row by row."""
    kept = {}
    for i in range(w.shape[0]):
        nz = np.flatnonzero(w[i])
        if nz.size > knn_cap:
            nz = np.array(sorted(nz, key=lambda j: (-w[i, j], j))[:knn_cap])
        for j in nz:
            kept[(i, int(j))] = kept[(int(j), i)] = w[i, j]  # mirror to undirected
    return [(i, j, float(v)) for (i, j), v in sorted(kept.items())]


def streak_histogram_reference(mask):
    """Run lengths of missing steps per (node, channel) series, counted in a loop."""
    t_len, n_nodes, n_ch = mask.shape
    histogram = {}
    for i in range(n_nodes):
        for c in range(n_ch):
            run = 0
            for t in range(t_len + 1):
                if t < t_len and mask[t, i, c] == 0.0:
                    run += 1
                elif run:
                    histogram[run] = histogram.get(run, 0) + 1
                    run = 0
    return {str(k): histogram[k] for k in sorted(histogram)}


def masked_metrics(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> tuple[float, float, int]:
    """(masked MAE, masked MSE, valid count) over scalar entries."""
    diff = np.abs(pred - target) * mask
    n = int(mask.sum())
    if n == 0:
        return float("nan"), float("nan"), 0
    return float(diff.sum() / n), float(((pred - target) ** 2 * mask).sum() / n), n


def write_csv_panel(panel, path) -> None:
    """A panel's observations as a wide CSV; invalid cells are empty fields."""
    stamps = panel.timestamps if panel.timestamps is not None else range(panel.n_steps)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["timestamp"] + [f"node{j}_ch{c}" for j in range(panel.n_nodes) for c in range(panel.n_channels)]
        )
        for stamp, values, valid in zip(stamps, panel.x, panel.mask):
            cells = [repr(float(v)) if ok == 1.0 else "" for v, ok in zip(values.ravel(), valid.ravel())]
            writer.writerow([stamp.isoformat() if isinstance(stamp, datetime) else stamp] + cells)


def write_mask_csv(mask: np.ndarray, path) -> None:
    """A (T, N, C) validity mask as a wide CSV, one 0/1 column per node and channel."""
    t_len, n_nodes, n_ch = mask.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["timestamp"] + [f"node{j}_ch{c}" for j in range(n_nodes) for c in range(n_ch)]
        )
        for t in range(t_len):
            writer.writerow([t] + [str(int(v)) for v in mask[t].ravel()])


def assemble_batch_reference(bundle, starts, mask_targets):
    """Window-by-window batch assembly: slice each window by its start, then
    stack the windows inside the node axis, so row i*B + b is node i of
    window b, and put each row's H target steps consecutively. The exogenous
    rows are stored per step and repeated for every node."""
    panel, w, h = bundle.panel, bundle.window, bundle.horizon
    xs, ms, us, ys, mts, raws = [], [], [], [], [], []
    for s in starts:
        inputs, targets = slice(s, s + w), slice(s + w, s + w + h)
        xs.append(bundle.scaler.apply(panel.x[inputs]))
        ms.append(panel.mask[inputs] * bundle.sim_mask[inputs])
        us.append(np.repeat(panel.u[inputs, None], panel.n_nodes, axis=1))  # each step's row for every node
        ys.append(bundle.scaler.apply(panel.x[targets]))
        m_target = panel.mask[targets]
        mts.append(m_target * bundle.sim_mask[targets] if mask_targets else m_target)
        raws.append(panel.x[targets])
    n, b = panel.n_nodes, len(xs)
    x, m, u = (np.stack(parts, axis=2).reshape(w, n * b, parts[0].shape[2]) for parts in (xs, ms, us))
    y, mt, raw = (np.stack(parts, axis=2).transpose(1, 2, 0, 3).reshape(n * b * h, -1) for parts in (ys, mts, raws))
    return tr.AssembledBatch(x, m, u, y, mt, raw)
