"""Shared test utilities."""
import numpy as np

from downcast import autodiff as ad
from downcast import graphs as gr


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


def gru_layer_reference(seq, gates):
    """Op-by-op gated recurrent layer: the reference for `ad.gru_scan`.

    `seq` is a list of per-step tensors; `gates` holds (w_in, w_hid, bias)
    for the reset, update and candidate gates. Returns every state.
    """
    (wr, ur, br), (wu, uu, bu), (wc, uc, bc) = gates
    h = ad.constant(np.zeros((seq[0].data.shape[0], uc.data.shape[1])))
    out = []
    for x_t in seq:
        r = ad.sigmoid(x_t @ wr + h @ ur + br)
        u = ad.sigmoid(x_t @ wu + h @ uu + bu)
        c = ad.tanh(x_t @ wc + ad.mul(r, h) @ uc + bc)
        h = ad.add(ad.mul(u, h), ad.mul(ad.sub(1.0, u), c))
        out.append(h)
    return out


def scale_attention_reference(slots, theta):
    """Per-slot score, softmax and mix chain: the reference for `ad.scale_attention`.

    Returns (one fused tensor per score set, one weight tensor per score set).
    """
    score_cols = [z @ theta for z in slots]
    alphas, fused = [], []
    for h in range(theta.data.shape[1]):
        al = ad.softmax_rows(ad.concat_cols([ad.slice_cols(s, h, h + 1) for s in score_cols]))
        z_mix = None
        for s, z in enumerate(slots):
            term = ad.mul(ad.slice_cols(al, s, s + 1), z)
            z_mix = term if z_mix is None else z_mix + term
        alphas.append(al)
        fused.append(z_mix)
    return fused, alphas
