from datetime import datetime, timedelta

import numpy as np
import pytest

from downcast import data as dt
from downcast.errors import ContractError, CsvParseError, DimensionError
from downcast.graphs import WeightedDigraph
from helpers import write_csv_panel, write_mask_csv


def small_graph(n=8, indeg=2, seed=0):
    return dt.random_indegree_graph(n, indeg, seed)


class TestGenerateMso:
    def test_first_row_is_zero(self):
        panel, _ = dt.generate_mso(small_graph(), hops=2, length=50, fan_in=3, seed=1)
        np.testing.assert_array_equal(panel.x[0], np.zeros((8, 1)))

    def test_fan_in_is_exact_when_candidates_allow(self):
        g = dt.random_indegree_graph(30, 3, seed=2)
        _, adot = dt.generate_mso(g, hops=2, length=10, fan_in=5, seed=2)
        dense = adot.csr.toarray()
        b = g.csr.toarray()
        b = b + b @ g.csr.toarray()
        for i in range(30):
            candidates = np.flatnonzero(b[:, i]).size
            assert np.count_nonzero(dense[:, i]) == min(5, candidates)
            if candidates >= 5:
                assert np.count_nonzero(dense[:, i]) == 5

    def test_mixing_entries_subset_of_hop_sum_with_values(self):
        g = small_graph(12, 2, seed=3)
        _, adot = dt.generate_mso(g, hops=2, length=10, fan_in=4, seed=3)
        b = g.csr.toarray()
        b = b + b @ g.csr.toarray()
        for j, i, v in adot.edges():
            assert b[j, i] == v

    def test_isolated_node_keeps_pure_sinusoid(self):
        # node 0 has no incoming edges anywhere in the hop sum
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        panel, adot = dt.generate_mso(g, hops=2, length=40, fan_in=5, seed=4)
        t = np.arange(40.0)
        np.testing.assert_allclose(panel.x[:, 0, 0], np.sin(t * np.exp(0.0)), atol=1e-15)
        assert np.count_nonzero(adot.csr.toarray()[:, 0]) == 0

    def test_signal_matches_dense_oracle(self):
        g = small_graph(10, 2, seed=5)
        panel, adot = dt.generate_mso(g, hops=2, length=30, fan_in=3, seed=5)
        n = 10
        t = np.arange(30.0)[:, None]
        base = np.sin(t * np.exp(-np.arange(n) / n)[None, :])
        expected = base + base @ adot.csr.toarray()
        np.testing.assert_allclose(panel.x[:, :, 0], expected, atol=1e-12)

    def test_same_seed_bit_identical(self):
        g = small_graph(seed=6)
        p1, a1 = dt.generate_mso(g, 2, 60, 3, seed=7)
        p2, a2 = dt.generate_mso(g, 2, 60, 3, seed=7)
        assert np.array_equal(p1.x, p2.x)
        assert list(a1.edges()) == list(a2.edges())

    def test_zero_length_rejected(self):
        with pytest.raises(ContractError):
            dt.generate_mso(small_graph(), 2, 0, 3, seed=0)


class TestTimeEncodings:
    def test_midnight(self):
        u = dt.time_encodings([datetime(2024, 1, 1, 0, 0, 0)])
        assert u[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert u[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_noon(self):
        u = dt.time_encodings([datetime(2024, 6, 15, 12, 0, 0)])
        assert u[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert u[0, 1] == pytest.approx(-1.0, abs=1e-9)

    def test_monday_one_hot(self):
        u = dt.time_encodings([datetime(2024, 1, 1, 8, 0, 0)], include_dow=True)  # a Monday
        assert u.shape[1] == 11
        np.testing.assert_array_equal(u[0, 4:], [1, 0, 0, 0, 0, 0, 0])

    def test_panel_holds_one_row_per_step(self):
        # every node shares a step's encodings, so a panel stores them per step
        stamps = [datetime(2024, 1, 1) + timedelta(hours=h) for h in range(5)]
        u = dt.time_encodings(stamps)
        x = np.zeros((5, 3, 1))
        assert dt.Panel(x=x, mask=np.ones_like(x), u=u).u.shape == (5, 4)
        per_node = np.broadcast_to(u[:, None], (5, 3, 4))
        with pytest.raises(DimensionError, match=r"must be \(5, d_u\).*got \(5, 3, 4\)"):
            dt.Panel(x=x, mask=np.ones_like(x), u=per_node)


class TestScaler:
    def make_panel(self, x, mask=None):
        x = np.asarray(x, dtype=float)
        mask = np.ones_like(x) if mask is None else np.asarray(mask, dtype=float)
        x = np.where(mask == 1.0, x, 0.0)
        return dt.Panel(x=x, mask=mask, u=np.zeros((x.shape[0], 0)))

    def test_constant_channel_floored(self):
        panel = self.make_panel(np.full((4, 2, 1), 3.0))
        sc = dt.fit_scaler(panel, (0, 4), "standard")
        out = sc.apply(panel.x)
        np.testing.assert_array_equal(out, np.zeros((4, 2, 1)))

    def test_minmax_span(self):
        panel = self.make_panel(np.linspace(2, 10, 8).reshape(4, 2, 1))
        sc = dt.fit_scaler(panel, (0, 4), "minmax")
        assert sc.apply(np.array([2.0])) == pytest.approx(0.0)
        assert sc.apply(np.array([10.0])) == pytest.approx(1.0)

    def test_masked_outlier_excluded(self):
        x = np.array([[[1.0]], [[100.0]], [[3.0]]])
        mask = np.array([[[1.0]], [[0.0]], [[1.0]]])
        sc = dt.fit_scaler(self.make_panel(x, mask), (0, 3), "standard")
        assert sc.offset[0] == pytest.approx(2.0)

    def test_invertibility(self):
        rng = np.random.default_rng(0)
        panel = self.make_panel(rng.normal(size=(20, 4, 2)) * 7 + 3)
        for method in ("standard", "minmax"):
            sc = dt.fit_scaler(panel, (0, 15), method)
            back = sc.invert(sc.apply(panel.x))
            assert np.max(np.abs(back - panel.x)) < 1e-10

    def test_empty_channel_rejected(self):
        x = np.zeros((3, 2, 2))
        mask = np.ones_like(x)
        mask[:, :, 1] = 0.0
        with pytest.raises(ContractError, match="channel 1"):
            dt.fit_scaler(self.make_panel(x, mask), (0, 3), "standard")


class TestWindows:
    def make_panel(self, t, n=2, d=1):
        x = np.arange(t * n * d, dtype=float).reshape(t, n, d)
        return dt.Panel(x=x, mask=np.ones_like(x), u=np.zeros((t, 0)))

    def test_window_count(self):
        train, val, test = dt.make_windows(self.make_panel(10), 3, 2, (0.7, 0.1, 0.2))
        assert len(train) + len(val) + len(test) == 6

    def test_fraction_split(self):
        panel = self.make_panel(100 + 3 + 2 - 1)
        train, val, test = dt.make_windows(panel, 3, 2, (0.7, 0.1, 0.2))
        assert (len(train), len(val), len(test)) == (70, 10, 20)

    def test_last_test_target_reaches_end(self):
        panel = self.make_panel(25)
        _, _, test = dt.make_windows(panel, 4, 3)
        assert test[-1] + 4 + 3 == panel.n_steps  # the last window's last target is the last step

    def test_window_and_target_disjoint_and_ordered(self):
        panel = self.make_panel(30)
        train, val, test = dt.make_windows(panel, 5, 2)
        # the splits are consecutive runs of the starts 0..T-W-H
        assert [*train, *val, *test] == list(range(30 - 5 - 2 + 1))

    def test_too_short_panel_rejected(self):
        with pytest.raises(ContractError):
            dt.make_windows(self.make_panel(4), 3, 2)


class TestCoordsCsv:
    def write(self, tmp_path, body):
        path = tmp_path / "coords.csv"
        path.write_text("node,lat,lon\n" + body)
        return path

    def test_rows_ordered_by_node_id(self, tmp_path):
        path = self.write(tmp_path, "1,50.5,2.0\n0,50.0,1.0\n")
        np.testing.assert_array_equal(dt.read_coords_csv(path), [[50.0, 1.0], [50.5, 2.0]])

    def test_non_numeric_field_reports_line_and_field(self, tmp_path):
        path = self.write(tmp_path, "0,50.0,1.0\n1,north,1.0\n")
        with pytest.raises(CsvParseError, match=r"coords\.csv: line 3: field 'lat': cannot read 'north'"):
            dt.read_coords_csv(path)

    @pytest.mark.parametrize("lat, lon, field, token", [
        ("inf", "1.0", "lat", "inf"), ("50.5", "nan", "lon", "nan"), ("-Infinity", "NaN", "lat", "-Infinity"),
    ])
    def test_non_finite_coordinate_reports_line_and_field(self, tmp_path, lat, lon, field, token):
        path = self.write(tmp_path, f"0,50.0,1.0\n1,{lat},{lon}\n")
        with pytest.raises(CsvParseError, match=rf"coords\.csv: line 3: field '{field}': cannot read '{token}'"):
            dt.read_coords_csv(path)

    def test_short_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "0,50.0,1.0\n1,50.5\n")
        with pytest.raises(CsvParseError, match=r"coords\.csv: line 3: expected fields node,lat,lon, got 2"):
            dt.read_coords_csv(path)

    def test_duplicate_node_id_rejected(self, tmp_path):
        path = self.write(tmp_path, "0,50.0,1.0\n0,50.5,2.0\n2,51.0,3.0\n")
        with pytest.raises(CsvParseError, match=r"line 3: field 'node': node 0 also on line 2"):
            dt.read_coords_csv(path)

    def test_node_id_outside_range_rejected(self, tmp_path):
        path = self.write(tmp_path, "0,50.0,1.0\n1,50.5,2.0\n7,51.0,3.0\n")
        with pytest.raises(CsvParseError, match=r"line 4: field 'node': node 7 is outside 0\.\.2"):
            dt.read_coords_csv(path)

    @pytest.mark.parametrize("body, message", [
        ('1,50.5,east\n', r"line 4: field 'lon': cannot read 'east'"),
        ('0,50.5,2.0\n', r"line 4: field 'node': node 0 also on line 2"),
        ('7,50.5,2.0\n', r"line 4: field 'node': node 7 is outside 0\.\.1"),
    ])
    def test_lines_are_physical_after_a_cell_that_spans_lines(self, tmp_path, body, message):
        path = self.write(tmp_path, '0,50.0,"1.0\n"\n' + body)
        with pytest.raises(CsvParseError, match=rf"coords\.csv: {message}"):
            dt.read_coords_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write(tmp_path, "0,50.0,1.0\n\n1,50.5,2.0\n\n")
        np.testing.assert_array_equal(dt.read_coords_csv(path), [[50.0, 1.0], [50.5, 2.0]])

    def test_lines_are_physical_after_a_blank_line(self, tmp_path):
        path = self.write(tmp_path, "0,50.0,1.0\n\n1,50.5,east\n")
        with pytest.raises(CsvParseError, match=r"coords\.csv: line 4: field 'lon': cannot read 'east'"):
            dt.read_coords_csv(path)


class TestCsvPanel:
    def test_missing_cell_marked(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("timestamp,node0_ch0,node1_ch0\n0,1.5,2.5\n1,,3.5\n2,4.5,5.5\n")
        panel, _ = dt.load_csv_panel(path)
        assert panel.mask.sum() == 5.0
        assert panel.mask[1, 0, 0] == 0.0

    def test_mask_file_overrides(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("timestamp,node0_ch0\n0,nan\n1,2.0\n")
        mask = tmp_path / "mask.csv"
        mask.write_text("timestamp,node0_ch0\n0,1\n1,1\n")
        panel, _ = dt.load_csv_panel(obs, mask_path=mask)
        np.testing.assert_array_equal(panel.mask, np.ones((2, 1, 1)))

    def test_mask_timestamps_must_be_the_observations(self, tmp_path):
        obs, mask = tmp_path / "obs.csv", tmp_path / "mask.csv"
        obs.write_text("timestamp,node0_ch0\n0,1.0\n1,2.0\n2,3.0\n")
        mask.write_text("timestamp,node0_ch0\n10,1\n11,1\n12,1\n")
        with pytest.raises(CsvParseError, match=r"mask\.csv: line 2: field 'timestamp': '10' differs"):
            dt.load_csv_panel(obs, mask_path=mask)

    @pytest.mark.parametrize("cell", ["0.5", "7"])
    def test_mask_cell_that_is_not_0_or_1_reports_file_line_and_field(self, tmp_path, cell):
        obs, mask = tmp_path / "obs.csv", tmp_path / "mask.csv"
        obs.write_text("timestamp,node0_ch0,node1_ch0\n0,1.0,2.0\n1,3.0,4.0\n")
        mask.write_text(f"timestamp,node0_ch0,node1_ch0\n0,1,0\n1,1,{cell}\n")
        with pytest.raises(CsvParseError, match=rf"mask\.csv: line 3: field 'node1_ch0': '{cell}' is not 0 or 1"):
            dt.load_csv_panel(obs, mask_path=mask)

    def test_missing_mask_cells_are_invalid(self, tmp_path):
        obs, mask = tmp_path / "obs.csv", tmp_path / "mask.csv"
        obs.write_text("timestamp,node0_ch0,node1_ch0\n0,1.0,2.0\n1,3.0,4.0\n")
        mask.write_text("timestamp,node0_ch0,node1_ch0\n0,,1\n1,NA,1.0\n")
        panel, _ = dt.load_csv_panel(obs, mask_path=mask)
        np.testing.assert_array_equal(panel.mask[:, :, 0], [[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(panel.x[:, :, 0], [[0.0, 2.0], [0.0, 4.0]])

    def test_mask_shape_error_names_both_files_and_shapes(self, tmp_path):
        obs, mask = tmp_path / "obs.csv", tmp_path / "mask.csv"
        obs.write_text("timestamp,node0_ch0\n0,1.0\n1,2.0\n2,3.0\n")
        mask.write_text("timestamp,node0_ch0\n0,1\n1,1\n")
        with pytest.raises(DimensionError, match=r"mask\.csv has shape \(2, 1, 1\), \S*obs\.csv has \(3, 1, 1\)"):
            dt.load_csv_panel(obs, mask_path=mask)

    def test_coordinate_count_error_names_the_file_and_both_counts(self, tmp_path):
        obs, coords = tmp_path / "obs.csv", tmp_path / "coords.csv"
        obs.write_text("timestamp,node0_ch0,node1_ch0\n0,1.0,2.0\n")
        coords.write_text("node,lat,lon\n0,50.0,1.0\n1,50.5,2.0\n2,51.0,3.0\n")
        with pytest.raises(DimensionError, match=r"coords\.csv: 3 coordinates for 2 nodes in \S*obs\.csv"):
            dt.load_csv_panel(obs, coords_path=coords)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 3, 2))
        mask = (rng.random((12, 3, 2)) > 0.2).astype(float)
        x = np.where(mask == 1.0, x, 0.0)
        panel = dt.Panel(x=x, mask=mask, u=np.zeros((12, 0)))
        write_csv_panel(panel, tmp_path / "p.csv")
        write_mask_csv(panel.mask, tmp_path / "m.csv")
        back, _ = dt.load_csv_panel(tmp_path / "p.csv", mask_path=tmp_path / "m.csv")
        assert np.array_equal(back.x, panel.x)
        assert np.array_equal(back.mask, panel.mask)

    def test_cells_follow_header_order_and_token_rules(self, tmp_path):
        # columns out of grid order; stripped cells, missing tokens and NaN
        # spellings are invalid, and underscored digits read as float() reads them
        path = tmp_path / "obs.csv"
        path.write_text(
            "timestamp,node1_ch0,node0_ch1,node0_ch0,node1_ch1\n"
            "0, 1.5 ,NA,-nan,1_0\n"
            "1,-3,null,+NaN, 2e-3\n"
        )
        panel, _ = dt.load_csv_panel(path)
        np.testing.assert_array_equal(panel.x, [[[0.0, 0.0], [1.5, 10.0]], [[0.0, 0.0], [-3.0, 0.002]]])
        np.testing.assert_array_equal(panel.mask, [[[0, 0], [1, 1]], [[0, 0], [1, 1]]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("timestamp,node0_ch0,node1_ch0\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(CsvParseError, match="line 3"):
            dt.load_csv_panel(path)

    def test_non_numeric_cell_reports_file_line_and_field(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("timestamp,node0_ch0,node1_ch0\n0,1.0,2.0\n1,3.0,fast\n")
        with pytest.raises(CsvParseError, match=r"obs\.csv: line 3: field 'node1_ch0': cannot read 'fast'"):
            dt.load_csv_panel(path)

    @pytest.mark.parametrize("last, message", [
        ("2,3.0,fast", r"line 5: field 'node1_ch0': cannot read 'fast'"),
        ("2,inf,4.0", r"line 5: field 'node0_ch0': cannot read 'inf'"),
        ("2,3.0", r"line 5: expected 3 fields, got 2"),
        ("noon,3.0,4.0", r"line 5: field 'timestamp'"),
    ])
    def test_lines_are_physical_after_a_cell_that_spans_lines(self, tmp_path, last, message):
        path = tmp_path / "obs.csv"
        path.write_text(f'timestamp,node0_ch0,node1_ch0\n0,1.0,"2.0\n"\n1,1.5,2.5\n{last}\n')
        with pytest.raises(CsvParseError, match=rf"obs\.csv: {message}"):
            dt.load_csv_panel(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        obs, mask = tmp_path / "obs.csv", tmp_path / "mask.csv"
        obs.write_text("timestamp,node0_ch0,node1_ch0\n0,1.5,2.5\n\n1,,3.5\n\n")
        mask.write_text("timestamp,node0_ch0,node1_ch0\n\n0,1,1\n1,0,1\n\n")
        panel, _ = dt.load_csv_panel(obs, mask_path=mask)
        np.testing.assert_array_equal(panel.x[:, :, 0], [[1.5, 2.5], [0.0, 3.5]])
        np.testing.assert_array_equal(panel.mask[:, :, 0], [[1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("last, message", [
        ("2,3.0,fast", r"line 5: field 'node1_ch0': cannot read 'fast'"),
        ("2,3.0", r"line 5: expected 3 fields, got 2"),
    ])
    def test_lines_are_physical_after_a_blank_line(self, tmp_path, last, message):
        path = tmp_path / "obs.csv"
        path.write_text(f"timestamp,node0_ch0,node1_ch0\n0,1.0,2.0\n1,1.5,2.5\n\n{last}\n")
        with pytest.raises(CsvParseError, match=rf"obs\.csv: {message}"):
            dt.load_csv_panel(path)

    @pytest.mark.parametrize("cells, field, token", [
        ("3.0,inf", "node1_ch0", "inf"), ("-Infinity,4.0", "node0_ch0", "-Infinity"), ("inf,fast", "node0_ch0", "inf"),
    ])
    def test_infinite_cell_reports_file_line_and_field(self, tmp_path, cells, field, token):
        path = tmp_path / "obs.csv"
        path.write_text(f"timestamp,node0_ch0,node1_ch0\n0,1.0,2.0\n1,{cells}\n")
        with pytest.raises(CsvParseError, match=rf"obs\.csv: line 3: field '{field}': cannot read '{token}'"):
            dt.load_csv_panel(path)

    def test_bad_timestamp_reports_file_line_and_field(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("timestamp,node0_ch0\n0,1.0\nnoon,2.0\n")
        with pytest.raises(CsvParseError, match=r"obs\.csv: line 3: field 'timestamp'"):
            dt.load_csv_panel(path)

    @pytest.mark.parametrize("stamps", [("2024-01-01T00:00:00", "9999999999"), ("0", "2024-01-01T00:00:00")])
    def test_mixed_integer_and_iso_timestamps_rejected(self, tmp_path, stamps):
        path = tmp_path / "obs.csv"
        path.write_text(f"timestamp,node0_ch0\n{stamps[0]},1.0\n{stamps[1]},2.0\n")
        with pytest.raises(CsvParseError, match=r"obs\.csv: line 3: field 'timestamp': .* mixes integer and ISO"):
            dt.load_csv_panel(path)

    @pytest.mark.parametrize("name", ["obs.csv", "mask.csv", "coords.csv"])
    def test_bytes_that_are_not_utf8_report_file_and_line(self, tmp_path, name):
        files = {
            "obs.csv": b"timestamp,node0_ch0\n0,1.0\n1,2.0\n",
            "mask.csv": b"timestamp,node0_ch0\n0,1\n1,1\n",
            "coords.csv": b"node,lat,lon\n0,50.0,1.0\n",
        }
        files[name] = files[name].replace(b"\n0,", b"\n0,\xff")
        for file, text in files.items():
            (tmp_path / file).write_bytes(text)
        with pytest.raises(CsvParseError, match=rf"{name}: line 2: byte 0xff is not valid UTF-8"):
            dt.load_csv_panel(tmp_path / "obs.csv", tmp_path / "mask.csv", tmp_path / "coords.csv")

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("timestamp,node0_ch0\n5,1.0\n4,2.0\n")
        with pytest.raises(ContractError):
            dt.load_csv_panel(path)


class TestAtomicWrite:
    def test_block_commits_on_exit(self, tmp_path):
        path = tmp_path / "out.txt"
        with dt.atomic_write(path) as fh:
            fh.write("new")
            assert not path.exists()
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_error_keeps_the_old_file_and_deletes_the_temp_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="half way"):
            with dt.atomic_write(path, "wb") as fh:
                fh.write(b"new")
                raise RuntimeError("half way")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
