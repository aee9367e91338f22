import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsvol.cli import main
from nsvol.errors import SchemeError
from nsvol.scheme import (ObservationGrid, check_a2, diag_power_traces,
                          load_grid_csv, load_grid_json, operator_norm,
                          overlap_matrix, poisson_grid, resolvent_diag,
                          resolvent_trace,
                          save_grid_json, theta_interval, theta_length_sums,
                          uniform_grid, validate_deltas)


def counterexample_grid(n, horizon=1.0):
    """First n side-1 intervals crammed into [0, T/n], then uniform."""
    T = horizon
    first = np.arange(n + 1) * T / n ** 2
    rest = (np.arange(n + 1, 2 * n) + 1 - n) * T / n
    s = np.concatenate([first, rest])
    t = np.arange(n + 1) * T / n
    return ObservationGrid(s, t, T, bn=n)


class TestObservationGrid:
    def test_validation(self):
        with pytest.raises(SchemeError):
            ObservationGrid([0.0, 0.5], [0.0, 1.0], 1.0, 1.0)  # s misses T
        with pytest.raises(SchemeError):
            ObservationGrid([0.0, 0.5, 0.5, 1.0], [0.0, 1.0], 1.0, 1.0)
        with pytest.raises(SchemeError):
            ObservationGrid([0.1, 1.0], [0.0, 1.0], 1.0, 1.0)
        with pytest.raises(SchemeError):
            ObservationGrid([0.0, 1.0], [0.0, 1.0], 1.0, 0.0)

    def test_merged_is_union(self):
        g = ObservationGrid([0, 1, 2], [0, 0.5, 1.5, 2], 2.0, 5.0)
        assert np.array_equal(g.merged, [0, 0.5, 1, 1.5, 2])
        assert np.array_equal(g.s_times[g.k1 >= 0], g.merged[g.k1])
        assert np.array_equal(g.t_times, g.merged[g.k2])

    def test_grid_holds_only_its_times(self):
        g = poisson_grid(1.0, 2.0, 1.0, bn=300, seed=5)
        stored = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
        assert (sum(a.nbytes for a in stored)
                == g.s_times.nbytes + g.t_times.nbytes)
        merged = np.union1d(g.s_times, g.t_times)
        assert np.array_equal(g.merged, merged)
        assert np.array_equal(g.k1, np.searchsorted(merged, g.s_times))
        assert np.array_equal(g.k2, np.searchsorted(merged, g.t_times))

    def test_counting(self):
        g = uniform_grid(4, 4, 0.0, 1.0)
        assert g.count1(0.5) == 2
        assert g.active_intervals(0.5, 1) == 2
        assert g.active_intervals(0.6, 1) == 3
        assert g.mesh == pytest.approx(0.25)


class TestGenerators:
    def test_poisson_empty_draw(self):
        g = poisson_grid(1.0, 1.0, 1.0, bn=1e-9, seed=0)
        assert np.array_equal(g.s_times, [0.0, 1.0])
        assert np.array_equal(g.t_times, [0.0, 1.0])

    def test_poisson_determinism(self):
        a = poisson_grid(1.0, 2.0, 1.0, bn=500, seed=42)
        b = poisson_grid(1.0, 2.0, 1.0, bn=500, seed=42)
        assert np.array_equal(a.s_times, b.s_times)
        assert np.array_equal(a.t_times, b.t_times)
        c = poisson_grid(1.0, 2.0, 1.0, bn=500, seed=43)
        assert not np.array_equal(a.s_times, c.s_times)

    def test_poisson_count_statistics(self):
        # mean interval count matches the intensity within 4 sqrt(n)
        n = 10_000
        counts = [poisson_grid(1.0, 1.0, 1.0, bn=n, seed=s).n_intervals1
                  for s in range(100)]
        assert abs(np.mean(counts) - n) < 4 * np.sqrt(n)

    def test_uniform_examples(self):
        g = uniform_grid(2, 2, 0.0, 1.0)
        assert np.allclose(g.s_times, [0, 0.5, 1])
        assert np.allclose(g.t_times, [0, 0.5, 1])
        g2 = uniform_grid(2, 2, 0.5, 2.0)
        assert np.allclose(g2.t_times, [0, 1.5, 2])
        assert np.allclose(g2.merged, [0, 1, 1.5, 2])
        assert g2.bn == 4


class TestOverlapMatrix:
    def test_identity_for_synchronous(self):
        ov = overlap_matrix(uniform_grid(6, 6, 0.0, 1.0))
        assert np.allclose(ov.to_dense(), np.eye(6))
        assert ov.bandwidth == 0

    def test_worked_example(self):
        g = ObservationGrid([0, 1, 2], [0, 0.5, 1.5, 2], 2.0, 5.0)
        ov = overlap_matrix(g)
        expected = np.array([[np.sqrt(0.5), 0.5, 0.0],
                             [0.0, 0.5, np.sqrt(0.5)]])
        assert np.allclose(ov.to_dense(), expected)

    def test_single_interval(self):
        g = ObservationGrid([0, 3.0], [0, 3.0], 3.0, 2.0)
        assert np.allclose(overlap_matrix(g).to_dense(), [[1.0]])

    def test_values_in_unit_interval_and_contiguous(self):
        for seed in range(5):
            g = poisson_grid(1.0, 1.5, 1.0, bn=120, seed=seed)
            ov = overlap_matrix(g)
            dense = ov.to_dense()
            assert dense[dense > 0].max() <= 1.0 + 1e-15
            for i in range(ov.rows):
                cols, vals = ov.row_entries(i)
                assert np.all(vals > 0)
                assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))

    def test_row_partition_identity(self):
        # sum_j G_ij sqrt(|J_j| / |I_i|) telescopes to 1 on covered rows
        g = poisson_grid(1.0, 1.0, 1.0, bn=80, seed=9)
        ov = overlap_matrix(g)
        l1 = np.diff(g.s_times)
        l2 = np.diff(g.t_times)
        for i in range(ov.rows):
            cols, vals = ov.row_entries(i)
            total = np.sum(vals * np.sqrt(l2[cols] / l1[i]))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_operator_norm_bound(self):
        for seed in range(6):
            ov = overlap_matrix(poisson_grid(1.0, 2.0, 1.0, bn=150, seed=seed))
            assert operator_norm(ov) <= 1.0 + 1e-10


class TestResolventTrace:
    def test_identity_grid_geometric(self):
        ov = overlap_matrix(uniform_grid(12, 12, 0.0, 1.0))
        for z in (0.2, 0.7):
            assert resolvent_trace(ov, z) == pytest.approx(12 / (1 - z * z),
                                                           rel=1e-12)

    def test_z_zero_counts(self):
        ov = overlap_matrix(poisson_grid(1.0, 2.0, 1.0, bn=60, seed=1))
        assert resolvent_trace(ov, 0.0, side=1) == ov.rows
        assert resolvent_trace(ov, 0.0, side=2) == ov.cols

    def test_domain_error(self):
        ov = overlap_matrix(uniform_grid(4, 4, 0.0, 1.0))
        with pytest.raises(SchemeError):
            resolvent_trace(ov, 1.0)
        with pytest.raises(SchemeError):
            resolvent_trace(ov, -1.2)

    @pytest.mark.parametrize("z", [0.0, 0.5])
    def test_diag_rejects_negative_upto(self, z):
        ov = overlap_matrix(uniform_grid(4, 4, 0.0, 1.0))
        for side in (1, 2):
            assert resolvent_diag(ov, z, side, upto=0).size == 0
            with pytest.raises(ValueError, match="upto"):
                resolvent_diag(ov, z, side, upto=-1)

    def test_against_dense_oracle(self):
        g = poisson_grid(1.0, 1.4, 1.0, bn=90, seed=3)
        ov = overlap_matrix(g)
        G = ov.to_dense()
        for z, t, side in [(0.5, None, 1), (0.85, None, 2), (0.6, 0.37, 1),
                           (0.3, 0.81, 2)]:
            gram = G @ G.T if side == 1 else G.T @ G
            n = gram.shape[0]
            inv = np.linalg.inv(np.eye(n) - z * z * gram)
            left = g.s_times[:-1] if side == 1 else g.t_times[:-1]
            upto = n if t is None else int(np.searchsorted(left, t, "left"))
            oracle = np.diag(inv)[:upto].sum()
            assert resolvent_trace(ov, z, t, side) == pytest.approx(
                oracle, rel=1e-12)

    def test_shared_spectrum_identity(self):
        # tr resolvent minus dimension agrees across sides (eigen oracle)
        for seed in (0, 4):
            ov = overlap_matrix(poisson_grid(1.0, 0.7, 1.0, bn=100, seed=seed))
            for z in (0.1, 0.5, 0.95):
                t1 = resolvent_trace(ov, z, side=1) - ov.rows
                t2 = resolvent_trace(ov, z, side=2) - ov.cols
                assert t1 == pytest.approx(t2, abs=1e-10)


class TestDiagPowerTraces:
    def test_p_zero_and_identity(self):
        ov = overlap_matrix(poisson_grid(1.0, 1.0, 1.0, bn=40, seed=2))
        assert np.array_equal(diag_power_traces(ov, 0, 1), np.ones(ov.rows))
        ovi = overlap_matrix(uniform_grid(7, 7, 0.0, 1.0))
        for p in (1, 3):
            assert np.allclose(diag_power_traces(ovi, p, 1), np.ones(7))

    def test_worked_example(self):
        g = ObservationGrid([0, 1, 2], [0, 0.5, 1.5, 2], 2.0, 5.0)
        ov = overlap_matrix(g)
        assert np.allclose(diag_power_traces(ov, 1, 1), [0.75, 0.75])

    def test_against_dense_oracle(self):
        ov = overlap_matrix(poisson_grid(1.0, 1.6, 1.0, bn=70, seed=5))
        G = ov.to_dense()
        for p, side in [(2, 1), (3, 2)]:
            gram = G @ G.T if side == 1 else G.T @ G
            assert np.allclose(diag_power_traces(ov, p, side),
                               np.diag(np.linalg.matrix_power(gram, p)))


def theta_oracle(grid, p, l):
    """Literal chain enumeration over pooled half-open intervals."""
    ivals = ([(grid.s_times[i], grid.s_times[i + 1])
              for i in range(grid.n_intervals1)]
             + [(grid.t_times[j], grid.t_times[j + 1])
                for j in range(grid.n_intervals2)])

    def meets(a, b):
        return a[0] < b[1] and b[0] < a[1]

    theta0 = ivals[l]
    if p == 0:
        return theta0
    reach = {k for k, K in enumerate(ivals) if meets(K, theta0)}
    for _ in range(2 * p - 1):
        reach = {k2 for k2, K2 in enumerate(ivals)
                 if any(meets(K2, ivals[k1]) for k1 in reach)}
    lo = min(ivals[k][0] for k in reach)
    hi = max(ivals[k][1] for k in reach)
    return (lo, hi)


class TestThetaIntervals:
    def test_p_zero(self):
        g = uniform_grid(4, 3, 0.25, 1.0)
        assert theta_interval(g, 0, 1) == pytest.approx((0.25, 0.5))
        assert theta_interval(g, 0, 4) == pytest.approx((0.0, 1.25 / 3))

    def test_saturation(self):
        g = uniform_grid(5, 4, 0.5, 1.0)
        assert theta_interval(g, 10, 2) == (0.0, 1.0)

    def test_matches_chain_enumeration(self):
        g = uniform_grid(6, 5, 0.4, 1.0)
        gp = poisson_grid(1.0, 1.0, 1.0, bn=12, seed=8)
        for grid in (g, gp):
            total = grid.n_intervals1 + grid.n_intervals2
            for l in range(total):
                for p in (0, 1, 2):
                    assert theta_interval(grid, p, l) == pytest.approx(
                        theta_oracle(grid, p, l))

    def test_coincident_grids_never_spread(self):
        # half-open intervals: same-grid neighbours are disjoint, so the
        # closure of a synchronous interval is the interval itself
        g = uniform_grid(6, 6, 0.0, 1.0)
        assert theta_interval(g, 3, 2) == theta_interval(g, 0, 2)

    def test_out_of_range(self):
        g = uniform_grid(3, 3, 0.0, 1.0)
        with pytest.raises(SchemeError):
            theta_interval(g, 1, 6)

    @pytest.mark.parametrize("p_max", [-1, -2])
    def test_length_sums_reject_negative_depth(self, p_max):
        with pytest.raises(ValueError, match="p_max"):
            theta_length_sums(uniform_grid(3, 3, 0.0, 1.0), p_max)

    def test_length_sums_monotone(self):
        g = uniform_grid(8, 7, 0.3, 1.0)
        sums = theta_length_sums(g, 3)
        assert np.all(np.diff(sums) >= -1e-12)
        assert sums[0] == pytest.approx(2.0)  # both partitions tile [0, T)


# --- oracle: the per-interval closure loop, verbatim apart from names -----

def old_expand_once(lo, hi, s, t):
    """Union of all sampling intervals (both grids) meeting [lo, hi)."""
    new_lo = lo
    new_hi = hi
    for arr in (s, t):
        i_left = np.searchsorted(arr, lo, side="right") - 1
        i_right = np.searchsorted(arr, hi, side="left") - 1
        i_left = min(max(i_left, 0), len(arr) - 2)
        i_right = min(max(i_right, 0), len(arr) - 2)
        new_lo = min(new_lo, arr[i_left])
        new_hi = max(new_hi, arr[i_right + 1])
    return new_lo, new_hi


def old_theta_interval(grid: ObservationGrid, p, l):
    """Closure of one sampling interval under ``2p`` overlap transfers.

    Index ``l`` runs over the combined interval list, side-1 intervals
    first (``0 <= l < n_intervals1``) then side-2.  A transfer moves from
    an interval to any interval of either grid with nonempty (half-open)
    intersection; the union over all chains of ``2p`` transfers is again a
    half-open interval, returned as ``(lo, hi)``.
    """
    n1 = grid.n_intervals1
    n2 = grid.n_intervals2
    if not 0 <= l < n1 + n2:
        raise SchemeError(f"interval index {l} out of range [0, {n1 + n2})")
    if p < 0:
        raise ValueError("p must be >= 0")
    if l < n1:
        lo, hi = grid.s_times[l], grid.s_times[l + 1]
    else:
        j = l - n1
        lo, hi = grid.t_times[j], grid.t_times[j + 1]
    for _ in range(2 * p):
        new = old_expand_once(lo, hi, grid.s_times, grid.t_times)
        if new == (lo, hi):
            break
        lo, hi = new
    return lo, hi


def old_theta_length_sums(grid: ObservationGrid, p_max):
    """Total closure length per transfer depth, for scheme diagnostics.

    Returns ``sums[p] = sum_l |theta(p, l)|`` for ``p = 0, ..., p_max``.
    Threshold choice against these raw sums is left to the caller.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    n = grid.n_intervals1 + grid.n_intervals2
    sums = np.zeros(p_max + 1)
    for l in range(n):
        if l < grid.n_intervals1:
            lo, hi = grid.s_times[l], grid.s_times[l + 1]
        else:
            j = l - grid.n_intervals1
            lo, hi = grid.t_times[j], grid.t_times[j + 1]
        sums[0] += hi - lo
        for p in range(1, p_max + 1):
            lo, hi = old_expand_once(*old_expand_once(lo, hi, grid.s_times, grid.t_times),
                                     grid.s_times, grid.t_times)
            sums[p] += hi - lo
    return sums


@st.composite
def adversarial_grids(draw):
    """Synchronous, uniform or drawn grids; drawn sides put their interior
    times on a shared lattice (so the sides have coincident times) or
    anywhere, and either side may have no interior time at all."""
    horizon = draw(st.sampled_from([1.0, 2.5, 1e-3, 7.0]))
    kind = draw(st.sampled_from(["synchronous", "uniform", "drawn"]))
    if kind == "uniform":
        return uniform_grid(draw(st.integers(1, 9)), draw(st.integers(1, 9)),
                            draw(st.sampled_from([0.0, 0.25, 0.5, 0.9])),
                            horizon)
    denom = draw(st.integers(2, 16))

    def side():
        if draw(st.booleans()):
            ks = draw(st.sets(st.integers(1, denom - 1), max_size=denom))
            inner = [horizon * k / denom for k in ks]
        else:
            inner = draw(st.lists(st.floats(0.0, horizon, exclude_min=True,
                                            exclude_max=True),
                                  max_size=10))
        return np.unique(np.concatenate([[0.0], inner, [horizon]]))

    s = side()
    t = s.copy() if kind == "synchronous" else side()
    return ObservationGrid(s, t, horizon, bn=len(s) + len(t) - 2)


class TestClosureKernel:
    """The array closure kernel against the per-interval loop it replaced."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(grid=adversarial_grids(), p_max=st.integers(0, 4))
    def test_matches_per_interval_loop(self, grid, p_max):
        assert np.array_equal(theta_length_sums(grid, p_max),
                              old_theta_length_sums(grid, p_max))
        for l in range(grid.n_intervals1 + grid.n_intervals2):
            for p in range(p_max + 1):
                assert (theta_interval(grid, p, l)
                        == old_theta_interval(grid, p, l))

    def test_check_output_byte_identical(self, tmp_path, capsys):
        g = poisson_grid(1.0, 2.0, 1.0, bn=600, seed=11)
        path = tmp_path / "g.json"
        save_grid_json(g, path)
        assert main(["check", "--grid", str(path)]) == 0
        out = capsys.readouterr().out
        overlap = overlap_matrix(g)
        doc = check_a2(g).to_dict()
        doc.update({
            "n_intervals1": g.n_intervals1,
            "n_intervals2": g.n_intervals2,
            "bandwidth": overlap.bandwidth,
            "col_bandwidth": overlap.col_bandwidth,
            "theta_length_sums": old_theta_length_sums(g, 2).tolist(),
        })
        assert out == json.dumps(doc, indent=1, sort_keys=True) + "\n"


class TestSpacingCheck:
    def test_delta_validation(self):
        with pytest.raises(SchemeError):
            validate_deltas(0.2, 0.05, 0.05)
        with pytest.raises(SchemeError):
            validate_deltas(0.05, -0.1, 0.05)
        validate_deltas(0.05, 0.05, 0.05)

    def test_uniform_grid_clean(self):
        diag = check_a2(uniform_grid(1000, 1000, 0.0, 1.0, bn=1000))
        assert not diag.any_violation
        assert not diag.side1.raw_violation

    def test_poisson_clean_with_guard(self):
        for seed in (0, 1, 2):
            diag = check_a2(poisson_grid(1.0, 1.0, 1.0, bn=1000, seed=seed))
            assert not diag.any_violation

    def test_counterexample_flagged(self):
        diag = check_a2(counterexample_grid(1000))
        assert diag.side1.violation
        assert not diag.side2.violation
        assert diag.side1.min_ratio < diag.side1.threshold

    def test_single_interval_vacuous(self):
        g = ObservationGrid([0.0, 1.0], [0.0, 1.0], 1.0, bn=4.0)
        diag = check_a2(g)
        assert not diag.any_violation
        assert diag.side1.n_pairs == 0

    def test_to_dict_roundtrips_json(self):
        diag = check_a2(uniform_grid(50, 60, 0.5, 1.0))
        doc = json.loads(json.dumps(diag.to_dict()))
        assert doc["any_violation"] is False


class TestTraceLinearity:
    def test_uniform_counting_density(self):
        # scaled interval counts grow linearly in t with slope n1/((n1+n2) T)
        for n in (1000, 10_000):
            g = uniform_grid(n, n // 2, 0.5, 1.0)
            ov = overlap_matrix(g)
            slope = n / (g.bn * g.horizon)
            for t in (0.25, 0.5, 0.75):
                val = resolvent_trace(ov, 0.0, t, 1) / g.bn
                assert val == pytest.approx(slope * t, rel=2e-2)


class TestGridFiles:
    def test_json_roundtrip(self, tmp_path):
        g = poisson_grid(1.0, 1.3, 2.0, bn=50, seed=6)
        path = tmp_path / "grid.json"
        save_grid_json(g, path)
        g2 = load_grid_json(path)
        assert np.array_equal(g.s_times, g2.s_times)
        assert np.array_equal(g.t_times, g2.t_times)
        assert g2.bn == g.bn and g2.horizon == g.horizon

    def test_json_bn_fallback(self, tmp_path):
        path = tmp_path / "grid.json"
        with open(path, "w") as fh:
            json.dump({"s_times": [0, 0.4, 1], "t_times": [0, 1],
                       "horizon": 1.0}, fh)
        g = load_grid_json(path)
        assert g.bn == 3  # interval-count fallback

    def test_json_null_horizon_falls_back(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"s_times": [0, 0.5, 2], "t_times": [0, 2],
                                    "horizon": None, "bn": None}))
        g = load_grid_json(path)
        assert g.horizon == 2.0 and g.bn == 3

    @pytest.mark.parametrize("horizon", ["soon", [1.0], {"T": 1.0}])
    def test_json_non_numeric_horizon(self, tmp_path, horizon):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"s_times": [0, 0.5, 1], "t_times": [0, 1],
                                    "horizon": horizon}))
        with pytest.raises(SchemeError, match=r"grid\.json, field 'horizon':"
                           r" must be a number"):
            load_grid_json(path)

    def test_csv_roundtrip(self, tmp_path):
        g = uniform_grid(5, 4, 0.25, 1.0)
        for name, times in (("s.csv", g.s_times), ("t.csv", g.t_times)):
            with open(tmp_path / name, "w") as fh:
                fh.write("index,time\n")
                for i, t in enumerate(times):
                    fh.write(f"{i},{float(t)!r}\n")
        g2 = load_grid_csv(tmp_path / "s.csv", tmp_path / "t.csv")
        assert np.array_equal(g2.s_times, g.s_times)
        assert g2.bn == 9

    def test_csv_duplicate_index(self, tmp_path):
        (tmp_path / "s.csv").write_text("index,time\n0,0.0\n1,0.5\n1,0.7\n2,1.0\n")
        (tmp_path / "t.csv").write_text("index,time\n0,0.0\n1,1.0\n")
        with pytest.raises(SchemeError, match="row 4 .*duplicate index 1"):
            load_grid_csv(tmp_path / "s.csv", tmp_path / "t.csv")

    def _csv_pair(self, tmp_path, s_rows):
        (tmp_path / "s.csv").write_text("index,time\n" + s_rows)
        (tmp_path / "t.csv").write_text("index,time\n0,0.0\n1,1.0\n")
        return tmp_path / "s.csv", tmp_path / "t.csv"

    def test_csv_index_gap(self, tmp_path):
        paths = self._csv_pair(tmp_path, "0,0.0\n1,0.5\n3,1.0\n")
        with pytest.raises(SchemeError, match=r"s\.csv, row 4 .*index 3 "
                           r"leaves a gap; index 2 is missing"):
            load_grid_csv(*paths)

    def test_csv_negative_index(self, tmp_path):
        paths = self._csv_pair(tmp_path, "0,0.0\n-1,0.5\n1,1.0\n")
        with pytest.raises(SchemeError,
                           match=r"s\.csv, row 3 .*negative index -1"):
            load_grid_csv(*paths)

    def test_csv_malformed_row(self, tmp_path):
        paths = self._csv_pair(tmp_path, "0,0.0\n1;0.5\n2,1.0\n")
        with pytest.raises(SchemeError,
                           match=r"s\.csv, row 3 \('1;0\.5'\): malformed"):
            load_grid_csv(*paths)

    def test_csv_header_only_on_first_line(self, tmp_path):
        paths = self._csv_pair(tmp_path, "0,0.0\nINDEX,0.3\n1,0.5\n2,1.0\n")
        with pytest.raises(SchemeError,
                           match=r"s\.csv, row 3 \('INDEX,0\.3'\): malformed"):
            load_grid_csv(*paths)

    def test_csv_fewer_than_two_times(self, tmp_path):
        paths = self._csv_pair(tmp_path, "0,0.0\n")
        with pytest.raises(SchemeError, match=r"s\.csv: .*at least two"):
            load_grid_csv(*paths)

    def test_json_missing_field(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"s_times": [0, 0.5, 1], "horizon": 1.0}))
        with pytest.raises(SchemeError, match=r"grid\.json: missing field "
                           r"'t_times'"):
            load_grid_json(path)

    def test_json_fewer_than_two_times(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"s_times": [], "t_times": [0, 1]}))
        with pytest.raises(SchemeError, match=r"grid\.json, field 's_times':"
                           r" .*at least two"):
            load_grid_json(path)
