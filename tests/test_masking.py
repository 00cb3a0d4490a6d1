import json

import numpy as np
import pytest

from downcast import masking as mk
from downcast.errors import ContractError
from downcast.graphs import WeightedDigraph
from downcast.rng import stream_rng
from helpers import (
    fault_list_reference,
    neighbor_lists,
    random_graph,
    simulate_point,
    streak_histogram_reference,
    write_mask_csv,
)


class TestSimulatePoint:
    def test_eta_zero_all_valid(self):
        sim = simulate_point((10, 4, 1), 0.0, stream_rng(0, "mask"))
        assert sim.mask.all() and not sim.faults

    def test_eta_one_all_missing(self):
        sim = simulate_point((10, 4, 1), 1.0, stream_rng(0, "mask"))
        assert not sim.mask.any()

    def test_binomial_concentration(self):
        sim = simulate_point((10000, 100, 1), 0.05, stream_rng(1, "mask"))
        assert sim.missing_fraction == pytest.approx(0.05, abs=0.005)


class TestSimulateBlock:
    def ring_graph(self, n):
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        return WeightedDigraph.from_edges(n, edges, directed=True)

    def test_pf_zero_reduces_to_point(self):
        cfg = mk.MaskConfig(eta=0.07, p_f=0.0, s_min=2, s_max=5, seed=13)
        blk = mk.simulate_block((60, 5, 2), cfg)
        pt = simulate_point((60, 5, 2), 0.07, stream_rng(13, "mask"))
        assert np.array_equal(blk.mask, pt.mask)

    def test_same_seed_bit_identical(self):
        g = self.ring_graph(6)
        cfg = mk.MaskConfig(eta=0.02, p_f=0.01, s_min=3, s_max=9, p_g=(1.0,), seed=5)
        a = mk.simulate_block((200, 6, 1), cfg, g)
        b = mk.simulate_block((200, 6, 1), cfg, g)
        assert np.array_equal(a.mask, b.mask)
        assert a.faults == b.faults

    def test_propagation_requires_graph(self):
        cfg = mk.MaskConfig(eta=0.0, p_f=0.01, s_min=1, s_max=2, p_g=(0.5,), seed=0)
        with pytest.raises(ContractError):
            mk.simulate_block((10, 3, 1), cfg)

    def test_propagated_intervals_are_exact_copies(self):
        g = self.ring_graph(5)
        cfg = mk.MaskConfig(eta=0.0, p_f=0.004, s_min=4, s_max=8, p_g=(1.0,), seed=3)
        sim = mk.simulate_block((400, 5, 1), cfg, g)
        direct = [f for f in sim.faults if f.origin == "direct"]
        propagated = [f for f in sim.faults if f.origin == "propagated"]
        assert direct and propagated
        # ring out-degree is 1, so every direct fault spawns exactly one copy
        assert len(propagated) == len(direct)
        for d, p in zip(direct, propagated):
            assert (p.start, p.length, p.channel) == (d.start, d.length, d.channel)
            assert p.node in neighbor_lists(g, undirected=False)[d.node]

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_lists_match_bfs_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_graph(int(rng.integers(5, 25)), float(rng.choice([0.05, 0.15])), rng,
                         directed=seed % 2 == 0, zero_frac=0.25 if seed >= 3 else 0.0)
        for p_g in [(1.0,), (0.5, 0.3), (0.9, 0.5, 0.2)]:
            cfg = mk.MaskConfig(eta=0.02, p_f=0.02, s_min=2, s_max=5, p_g=p_g, seed=seed)
            sim = mk.simulate_block((80, g.n, 2), cfg, g)
            assert any(f.origin == "propagated" for f in sim.faults)
            assert sim.faults == fault_list_reference((80, g.n, 2), cfg, g)

    def test_every_missing_cell_attributed(self):
        g = self.ring_graph(7)
        cfg = mk.MaskConfig(eta=0.01, p_f=0.01, s_min=2, s_max=6, p_g=(1.0,), seed=11)
        sim = mk.simulate_block((300, 7, 1), cfg, g)
        covered = np.zeros_like(sim.mask, dtype=bool)
        for f in sim.faults:
            covered[f.start : f.start + f.length, f.node, f.channel] = True
        # cells missing but not fault-covered must come from point noise; rebuild it
        rng = stream_rng(cfg.seed, "mask")
        point = rng.random(sim.mask.shape) < cfg.eta
        unexplained = (sim.mask == 0.0) & ~covered & ~point
        assert not unexplained.any()

    def test_channels_independent(self):
        cfg = mk.MaskConfig(eta=0.0, p_f=0.02, s_min=3, s_max=3, seed=21)
        sim = mk.simulate_block((2000, 2, 2), cfg)
        m = sim.mask
        assert not np.array_equal(m[:, :, 0], m[:, :, 1])

    def test_stationary_across_nodes(self):
        cfg = mk.MaskConfig(eta=0.05, p_f=0.01, s_min=8, s_max=48, seed=2)
        sim = mk.simulate_block((6000, 20, 1), cfg)
        fractions = 1.0 - sim.mask.mean(axis=(0, 2))
        # all nodes share the generating process; spread is sampling noise only
        assert fractions.std() < 0.05
        assert abs(fractions.mean() - sim.missing_fraction) < 1e-12


class TestMaskStatistics:
    def test_all_valid(self):
        report = mk.mask_statistics(np.ones((5, 3, 1)))
        assert report["missing_fraction"] == 0.0
        assert report["streak_histogram"] == {}
        assert report["fully_missing_steps"] == 0

    def test_single_streak(self):
        mask = np.ones((10, 1, 1))
        mask[2:7, 0, 0] = 0.0
        report = mk.mask_statistics(mask)
        assert report["streak_histogram"] == {"5": 1}

    def test_fraction_matches_naive_loop(self):
        rng = np.random.default_rng(8)
        mask = (rng.random((40, 6, 2)) > 0.3).astype(float)
        report = mk.mask_statistics(mask)
        naive = sum(
            1
            for t in range(40)
            for i in range(6)
            for c in range(2)
            if mask[t, i, c] == 0.0
        ) / (40 * 6 * 2)
        assert report["missing_fraction"] == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_streak_histogram_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.random((int(rng.integers(1, 80)), 5, 2)) > rng.uniform(0.05, 0.9)).astype(float)
        mask[:, 0, 0] = 0.0  # one series missing throughout
        assert mk.mask_statistics(mask)["streak_histogram"] == streak_histogram_reference(mask)

    def test_fully_missing_steps_counted(self):
        mask = np.ones((6, 2, 1))
        mask[3] = 0.0
        assert mk.mask_statistics(mask)["fully_missing_steps"] == 1


class TestExports:
    def test_fault_log_jsonl(self, tmp_path):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0)], directed=True)
        cfg = mk.MaskConfig(eta=0.0, p_f=0.05, s_min=2, s_max=4, p_g=(1.0,), seed=1)
        sim = mk.simulate_block((50, 3, 1), cfg, g)
        path = tmp_path / "faults.jsonl"
        mk.write_fault_log(sim, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(sim.faults)
        assert all(set(line) == {"node", "channel", "start", "length", "origin"} for line in lines)

    def test_mask_csv(self, tmp_path):
        mask = np.ones((4, 2, 1))
        mask[1, 0, 0] = 0.0
        write_mask_csv(mask, tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "timestamp,node0_ch0,node1_ch0"
        assert lines[2] == "1,0,1"
