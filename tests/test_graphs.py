import re

import numpy as np
import pytest
from scipy.sparse import csgraph

from downcast.errors import ContractError, DimensionError
from downcast import graphs as gr
from helpers import (
    hop_rings,
    kmis_select_reference,
    knn_graph_reference,
    lift_features,
    neighbor_lists,
    random_graph,
    reach_within,
    reduce_features,
)


def path_graph(n, weight=1.0):
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, weight))
        edges.append((i + 1, i, weight))
    return gr.WeightedDigraph.from_edges(n, edges, directed=False)


def oracle_graph(seed):
    """Random graphs for the oracle checks: sparse ones fall apart, some carry zero weights."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(5, 30))
    p = float(rng.choice([0.03, 0.1, 0.2]))
    return random_graph(n, p, rng, directed=seed % 2 == 1, zero_frac=0.25 if seed % 4 >= 2 else 0.0)


class TestWeightedDigraph:
    @pytest.mark.parametrize("edge", [(-1, 2, 1.0), (1, 3, 1.0)])
    def test_out_of_range_node_names_the_edge(self, edge):
        with pytest.raises(DimensionError, match=re.escape(f"edge ({edge[0]}, {edge[1]})")):
            gr.WeightedDigraph.from_edges(3, [(0, 1, 1.0), edge])

    def test_zero_weights_are_stored_edges(self):
        g = gr.WeightedDigraph.from_edges(3, [(2, 0, 0.0), (0, 1, 0.5), (2, 1, 1.0)])
        assert list(g.edges()) == [(0, 1, 0.5), (2, 0, 0.0), (2, 1, 1.0)]
        assert g.n_edges == 3


class TestBuildFromCoords:
    def test_duplicate_points_get_unit_edge(self):
        coords = np.array([[10.0, 20.0], [10.0, 20.0]])
        with pytest.warns(UserWarning):
            g = gr.build_graph_from_coords(coords, tau=0.1, knn_cap=4)
        weights = {(i, j): w for i, j, w in g.edges()}
        assert weights == {(0, 1): 1.0, (1, 0): 1.0}

    def test_far_outlier_isolated(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.3], [0.0, 60.0]])
        dist = gr.haversine_km(coords)
        sigma = np.std(dist[np.triu_indices(3, k=1)])
        kernel = np.exp(-(dist**2) / sigma**2)
        tau = 0.1
        assert kernel[0, 1] >= tau and kernel[0, 2] < tau and kernel[1, 2] < tau
        g = gr.build_graph_from_coords(coords, tau=tau, knn_cap=8)
        adj = g.csr.toarray()
        assert adj[0, 1] == pytest.approx(kernel[0, 1], rel=1e-12)
        assert np.all(adj[2] == 0) and np.all(adj[:, 2] == 0)

    def test_knn_cap_one_keeps_strongest_then_mirrors(self):
        coords = np.array([[0.0, 0.0], [0.045, 0.0], [0.27, 0.0]])
        dist = gr.haversine_km(coords)
        sigma = np.std(dist[np.triu_indices(3, k=1)])
        kernel = np.exp(-(dist**2) / sigma**2)
        np.fill_diagonal(kernel, 0.0)
        tau = 1e-4
        assert np.all(kernel[np.triu_indices(3, k=1)] >= tau)  # cap, not threshold, binds
        expected = set()
        for i in range(3):
            j = int(np.argmax(kernel[i]))
            expected.add((i, j))
            expected.add((j, i))
        g = gr.build_graph_from_coords(coords, tau=tau, knn_cap=1)
        assert {(i, j) for i, j, _ in g.edges()} == expected
        assert (0, 2) not in {(i, j) for i, j, _ in g.edges()}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_row_loop_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(3, 40))
        coords = rng.uniform(-1.0, 1.0, (n, 2)) * [0.5, 0.5] + [48.0, 11.0]
        coords[rng.integers(0, n, 3)] = coords[0]  # duplicate sites: tied weights
        tau, cap = float(rng.choice([0.05, 0.3, 0.7])), int(rng.integers(1, 6))
        with pytest.warns(UserWarning):
            g = gr.build_graph_from_coords(coords, tau=tau, knn_cap=cap)
        dist = gr.haversine_km(coords)
        w = np.exp(-(dist**2) / np.std(dist[np.triu_indices(n, k=1)]) ** 2)
        np.fill_diagonal(w, 0.0)
        w[w < tau] = 0.0
        assert list(g.edges()) == knn_graph_reference(w, cap)

    def test_single_node_rejected(self):
        with pytest.raises(ContractError):
            gr.build_graph_from_coords(np.array([[0.0, 0.0]]), tau=0.1, knn_cap=2)


class TestEnsureConnected:
    def test_connected_unchanged(self):
        g = path_graph(4)
        coords = np.array([[0.0, i * 0.1] for i in range(4)])
        out = gr.ensure_connected(g, coords, tau=0.1)
        assert {(i, j, w) for i, j, w in out.edges()} == {(i, j, w) for i, j, w in g.edges()}

    def test_two_components_bridged_at_closest_pair(self):
        edges = [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]
        g = gr.WeightedDigraph.from_edges(4, edges, directed=False)
        # node 1 and node 2 are the closest cross pair
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0], [0.0, 4.0]])
        out = gr.ensure_connected(g, coords, tau=0.1)
        new = {(i, j): w for i, j, w in out.edges() if (i, j) not in {(0, 1), (1, 0), (2, 3), (3, 2)}}
        assert new == {(1, 2): 0.1, (2, 1): 0.1}

    def test_tied_cross_distances_bridge_first_pair_in_row_major_order(self):
        edges = [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]
        g = gr.WeightedDigraph.from_edges(4, edges, directed=False)
        # nodes 0 and 3 share a site, as do 1 and 2: the cross pairs (0, 3) and (1, 2) tie at 0 km
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        out = gr.ensure_connected(g, coords, tau=0.1)
        new = {(i, j): w for i, j, w in out.edges() if (i, j) not in {(0, 1), (1, 0), (2, 3), (3, 2)}}
        assert new == {(0, 3): 0.1, (3, 0): 0.1}

    def test_zero_weight_edge_connects(self):
        g = gr.WeightedDigraph.from_edges(3, [(0, 1, 0.0), (1, 0, 0.0)], directed=False)
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
        out = gr.ensure_connected(g, coords, tau=0.2)
        assert list(out.edges()) == [(0, 1, 0.0), (1, 0, 0.0), (1, 2, 0.2), (2, 1, 0.2)]

    def test_three_singletons(self):
        g = gr.WeightedDigraph.from_edges(3, [], directed=False)
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 5.0]])
        out = gr.ensure_connected(g, coords, tau=0.2)
        assert out.n_edges == 4  # two undirected bridges
        assert csgraph.connected_components(out.csr, directed=False)[0] == 1


class TestReachWithin:
    def test_path_two_hops(self):
        g = path_graph(3)
        r = reach_within(g, 2)
        dense = r.csr.toarray()
        assert dense[0, 2] == 1.0 and dense[2, 0] == 1.0

    def test_k1_binarizes(self):
        g = path_graph(3, weight=0.7)
        dense = reach_within(g, 1).csr.toarray()
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(dense, expected)

    def test_matches_boolean_power_oracle(self):
        rng = np.random.default_rng(3)
        g = random_graph(12, 0.15, rng)
        und = (g.undirected_view().csr.toarray() > 0).astype(int)
        k = 3
        reach = np.linalg.matrix_power(und + np.eye(12, dtype=int), k) > 0
        np.fill_diagonal(reach, False)
        np.testing.assert_array_equal(reach_within(g, k).csr.toarray() > 0, reach)


class TestTraversalMatchesOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_hop_distance_rings(self, seed):
        g = oracle_graph(seed)
        for undirected in (False, True):
            dist = gr.hop_distances(g, undirected)
            adj = neighbor_lists(g, undirected)
            for i in range(g.n):
                for h, ring in enumerate(hop_rings(adj, i, 3)):
                    np.testing.assert_array_equal(np.flatnonzero(dist[i] == h + 1), ring)

    @pytest.mark.parametrize("seed", range(8))
    def test_hop_distances_equal_csgraph_shortest_paths(self, seed):
        g = oracle_graph(seed)
        for undirected in (False, True):
            csr = (g.undirected_view() if undirected else g).csr
            expected = csgraph.shortest_path(csr, directed=True, unweighted=True)
            np.testing.assert_array_equal(gr.hop_distances(g, undirected), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_kmis_select(self, seed):
        g = oracle_graph(seed)
        for k in (1, 2, 3):
            sel, ref = gr.kmis_select(g, k), kmis_select_reference(g, k)
            np.testing.assert_array_equal(sel.centroids, ref.centroids)
            np.testing.assert_array_equal(sel.assignment, ref.assignment)
            np.testing.assert_array_equal(sel.cluster_sizes, ref.cluster_sizes)

    def test_oracle_graphs_cover_disconnected_and_zero_weights(self):
        graphs = [oracle_graph(seed) for seed in range(8)]
        assert any(csgraph.connected_components(g.csr, directed=False)[0] > 1 for g in graphs)
        assert any(g.n_edges and np.any(g.csr.data == 0.0) for g in graphs)
        assert any(g.directed for g in graphs) and any(not g.directed for g in graphs)


class TestKmisSelect:
    def test_six_path(self):
        sel = gr.kmis_select(path_graph(6), k=1)
        np.testing.assert_array_equal(sel.centroids, [0, 2, 4])
        np.testing.assert_array_equal(sel.assignment, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(sel.cluster_sizes, [2, 2, 2])

    def test_edgeless_identity(self):
        g = gr.WeightedDigraph.from_edges(5, [], directed=False)
        sel = gr.kmis_select(g, k=1)
        np.testing.assert_array_equal(sel.centroids, np.arange(5))
        np.testing.assert_array_equal(sel.assignment, np.arange(5))

    def test_complete_graph_single_supernode(self):
        edges = [(i, j, 1.0) for i in range(5) for j in range(5) if i != j]
        g = gr.WeightedDigraph.from_edges(5, edges, directed=False)
        sel = gr.kmis_select(g, k=1)
        assert sel.n_sup == 1
        np.testing.assert_array_equal(sel.assignment, np.zeros(5))

    def test_empty_graph_rejected(self):
        g = gr.WeightedDigraph.from_edges(0, [], directed=False)
        with pytest.raises(ContractError):
            gr.kmis_select(g, k=1)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        g = random_graph(20, 0.12, rng)
        a, b = gr.kmis_select(g, 2), gr.kmis_select(g, 2)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2])
    def test_invariants_on_random_graphs(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        g = random_graph(n, 0.1, rng)
        sel = gr.kmis_select(g, k)
        # full partition
        assert sel.assignment.size == n
        assert np.all(sel.cluster_sizes >= 1)
        assert sel.cluster_sizes.sum() == n
        np.testing.assert_array_equal(np.bincount(sel.assignment, minlength=sel.n_sup), sel.cluster_sizes)
        # centroids pairwise more than k hops apart
        adj = neighbor_lists(g)
        for c in sel.centroids:
            within = np.concatenate(hop_rings(adj, int(c), k))
            assert not set(within.tolist()) & set(sel.centroids.tolist())


class TestConnectReduceLift:
    def identity_selection(self, n):
        return gr.SelectionMatrix(
            assignment=np.arange(n), cluster_sizes=np.ones(n, dtype=np.int64), centroids=np.arange(n)
        )

    def test_identity_selection_drops_diagonal(self):
        g = gr.WeightedDigraph.from_edges(3, [(0, 1, 2.0), (1, 0, 2.0), (1, 1, 5.0)], directed=False)
        out = gr.connect_coarse(self.identity_selection(3), g)
        dense = out.csr.toarray()
        assert dense[1, 1] == 0.0
        assert dense[0, 1] == 2.0

    def test_six_path_pairs_to_coarse_path(self):
        sel = gr.SelectionMatrix(
            assignment=np.array([0, 0, 1, 1, 2, 2]),
            cluster_sizes=np.array([2, 2, 2]),
            centroids=np.array([0, 2, 4]),
        )
        out = gr.connect_coarse(sel, path_graph(6))
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(out.csr.toarray(), expected)

    def test_all_in_one_gives_single_node(self):
        sel = gr.SelectionMatrix(
            assignment=np.zeros(4, dtype=np.int64), cluster_sizes=np.array([4]), centroids=np.array([0])
        )
        out = gr.connect_coarse(sel, path_graph(4))
        assert out.n == 1 and out.n_edges == 0

    def test_cross_cluster_weight_conserved(self):
        rng = np.random.default_rng(5)
        g = random_graph(15, 0.2, rng)
        sel = gr.kmis_select(g, 1)
        coarse = gr.connect_coarse(sel, g)
        asg = sel.assignment
        cross = sum(w for i, j, w in g.edges() if asg[i] != asg[j])
        assert coarse.csr.data.sum() == pytest.approx(cross, rel=1e-12)

    def test_reduce_hand_case(self):
        sel = gr.SelectionMatrix(
            assignment=np.array([0, 0, 1, 1]), cluster_sizes=np.array([2, 2]), centroids=np.array([0, 2])
        )
        np.testing.assert_array_equal(
            reduce_features(sel, np.array([[1.0], [2.0], [3.0], [4.0]])), [[3.0], [7.0]]
        )
        # reducing all-ones recovers the cluster sizes
        np.testing.assert_array_equal(reduce_features(sel, np.ones((4, 1)))[:, 0], sel.cluster_sizes)

    def test_lift_hand_case(self):
        sel = gr.SelectionMatrix(
            assignment=np.array([0, 0, 1, 1]), cluster_sizes=np.array([2, 2]), centroids=np.array([0, 2])
        )
        np.testing.assert_array_equal(
            lift_features(sel, np.array([[4.0], [6.0]])), [[2.0], [2.0], [3.0], [3.0]]
        )

    def test_identity_selection_noops(self):
        sel = self.identity_selection(4)
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_array_equal(reduce_features(sel, x), x)
        np.testing.assert_array_equal(lift_features(sel, x), x)

    @pytest.mark.parametrize("seed", range(5))
    def test_reduce_of_lift_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(int(rng.integers(4, 30)), 0.15, rng)
        sel = gr.kmis_select(g, 1)
        xc = rng.normal(size=(sel.n_sup, 4))
        back = reduce_features(sel, lift_features(sel, xc))
        assert np.max(np.abs(back - xc)) <= 1e-12

    def test_operators_match_feature_maps(self):
        rng = np.random.default_rng(9)
        g = random_graph(18, 0.15, rng)
        sel = gr.kmis_select(g, 1)
        x = rng.normal(size=(18, 3))
        np.testing.assert_allclose(sel.reduce_op() @ x, reduce_features(sel, x), atol=1e-14)
        xc = rng.normal(size=(sel.n_sup, 3))
        np.testing.assert_allclose(sel.lift_op() @ xc, lift_features(sel, xc), atol=1e-14)


class TestTemporalIndices:
    def test_72_by_3(self):
        ds = gr.temporal_keep_indices(72, 3)
        assert ds.kept_indices == tuple(range(2, 72, 3))
        assert ds.output_length == 24

    def test_factor_one_keeps_all(self):
        assert gr.temporal_keep_indices(5, 1).kept_indices == (0, 1, 2, 3, 4)

    def test_8_by_3(self):
        assert gr.temporal_keep_indices(8, 3).kept_indices == (1, 4, 7)

    def test_chain_lengths(self):
        chain = gr.temporal_chain(72, 3, 4)
        assert [c.output_length for c in chain] == [24, 8, 3, 1]
        for c in chain:
            assert c.kept_indices[-1] == c.input_length - 1

    def test_ceiling_length_property(self):
        for w in range(1, 40):
            for d in range(1, 7):
                ds = gr.temporal_keep_indices(w, d)
                assert ds.output_length == -(-w // d)
                assert ds.kept_indices[-1] == w - 1
                assert all(b > a for a, b in zip(ds.kept_indices, ds.kept_indices[1:]))


class TestHierarchy:
    def test_node_counts_decrease(self):
        rng = np.random.default_rng(2)
        g = random_graph(30, 0.12, rng)
        h = gr.build_hierarchy(g, hop_radius=1, levels=3)
        counts = [lvl.n for lvl in h.graphs]
        for a, b in zip(counts, counts[1:]):
            assert b <= a

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        g = random_graph(10, 0.2, rng, directed=True)
        path = tmp_path / "graph.csv"
        gr.write_graph_csv(g, path)
        back = gr.read_graph_csv(path, n=10, directed=True)
        assert list(back.edges()) == list(g.edges())
