import dataclasses

import numpy as np
import pytest
from scipy import stats

from nsvol.errors import ParameterOutOfDomainError, SchemeError, SimulationError
from nsvol.models import (MODELS, correlated_bm, get_model, scalar_bm,
                          state_dependent)
from nsvol.scheme import ObservationGrid, poisson_grid, uniform_grid
from nsvol.sde import (DiffusionModel, default_max_step, observe,
                       read_sample_csv, simulate_path, write_sample_csv)

from conftest import make_constant_model, sample_with_values


class TestSimulatePath:
    def test_zero_coefficients_constant_path(self):
        model = make_constant_model(np.zeros((2, 2)))
        g = uniform_grid(8, 5, 0.5, 1.0)
        path = simulate_path(model, [1.0], g, seed=0)
        assert np.allclose(path, 0.0)

    def test_pure_drift_exact(self):
        model = make_constant_model(np.zeros((2, 2)), drift_vec=(1.0, 0.0))
        g = poisson_grid(1.0, 1.0, 1.0, bn=30, seed=1)
        path = simulate_path(model, [1.0], g, max_step=0.01, seed=0)
        assert np.allclose(path[:, 0], g.merged)
        assert np.allclose(path[:, 1], 0.0)

    def test_brownian_terminal_variance(self):
        # independent unit Brownian components: Var(Y1_T) = T
        model = make_constant_model(np.eye(2))
        g = ObservationGrid([0.0, 1.0], [0.0, 1.0], 1.0, 2.0)
        vals = np.array([
            simulate_path(model, [1.0], g, max_step=0.125, seed=s)[-1, 0]
            for s in range(10_000)])
        assert vals.var() == pytest.approx(1.0, rel=0.05)

    def test_determinism_and_seed_sequences(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=50, seed=3)
        p1 = simulate_path(model, [1.0, 0.4], g, seed=7)
        p2 = simulate_path(model, [1.0, 0.4], g, seed=7)
        p3 = simulate_path(model, [1.0, 0.4], g, seed=[7, 1])
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_loop_and_vectorized_paths_agree_in_law(self):
        # the state-dependent loop with constant coefficients must match the
        # fast path exactly: same draws, same recursion
        base = state_dependent()
        frozen = DiffusionModel(
            dim_param=2,
            drift=lambda t, x, s: np.zeros_like(np.atleast_2d(x)),
            diffusion=lambda t, x, s: base.diffusion(
                t, np.zeros_like(np.atleast_2d(x)), s),
            param_box=base.param_box, y0=base.y0, constant_coeffs=False)
        fast = DiffusionModel(
            dim_param=2,
            drift=frozen.drift, diffusion=frozen.diffusion,
            param_box=base.param_box, y0=base.y0, constant_coeffs=True)
        g = uniform_grid(6, 4, 0.5, 1.0)
        sig = [1.2, 0.9]
        slow_path = simulate_path(frozen, sig, g, max_step=0.05, seed=11)
        fast_path = simulate_path(fast, sig, g, max_step=0.05, seed=11)
        assert np.allclose(slow_path, fast_path, atol=1e-12)

    def test_out_of_box_sigma(self):
        with pytest.raises(ParameterOutOfDomainError):
            simulate_path(scalar_bm(), [99.0], uniform_grid(2, 2), seed=0)

    def test_contains_rejects_wrong_length(self):
        model = correlated_bm()
        with pytest.raises(ParameterOutOfDomainError, match="dim_param=2"):
            model.contains([0.5])
        with pytest.raises(ParameterOutOfDomainError, match="dim_param=2"):
            model.contains(np.ones((4, 3)))
        assert model.contains(np.ones((4, 2)) * 0.5)
        assert scalar_bm().contains(1.0)

    def test_require_in_box_rejects_wrong_length(self):
        with pytest.raises(ParameterOutOfDomainError, match="dim_param=1"):
            scalar_bm().require_in_box([1.0, 1.0])

    def test_nonfinite_coefficients_error(self):
        def bad_diffusion(t, x, s):
            x = np.atleast_2d(x)
            out = np.full((x.shape[0], 2, 2), np.nan)
            return out

        model = DiffusionModel(dim_param=1, drift=lambda t, x, s: 0 * np.atleast_2d(x),
                               diffusion=bad_diffusion, param_box=((0.1, 2),),
                               y0=(0, 0))
        with pytest.raises(SimulationError) as err:
            simulate_path(model, [1.0], uniform_grid(4, 4), seed=0)
        assert err.value.x is not None

    def test_default_max_step(self):
        g = uniform_grid(10, 10, 0.0, 1.0)
        assert default_max_step(g) == pytest.approx(min(0.1 / 4, 1 / 1024))


class TestObserve:
    def test_constant_path_zero_z(self):
        g = uniform_grid(5, 3, 0.5, 1.0)
        path = np.ones((len(g.merged), 2))
        assert np.allclose(observe(path, g).z, 0.0)

    def test_normalization_arithmetic(self):
        g = ObservationGrid([0.0, 4.0], [0.0, 4.0], 4.0, 2.0)
        s = sample_with_values(g, [0.0, 2.0], [0.0, 0.0])
        assert s.z[0] == pytest.approx(1.0)  # 2 / sqrt(4)

    def test_synchronous_stacking(self):
        n = 6
        g = uniform_grid(n, n, 0.0, 1.0)
        path = np.cumsum(np.ones((len(g.merged), 2)), axis=0)
        z = observe(path, g).z
        assert z.shape == (2 * n,)
        assert np.allclose(z, 1.0 / np.sqrt(1.0 / n))

    def test_shape_mismatch(self):
        g = uniform_grid(4, 4, 0.5, 1.0)
        with pytest.raises(SchemeError):
            observe(np.zeros((3, 2)), g)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("side", [1, 2])
    def test_rejects_non_finite_observation(self, side, value):
        g = uniform_grid(3, 2, 0.5, 1.0)
        y1, y2 = np.zeros(4), np.zeros(3)
        (y1 if side == 1 else y2)[2] = value
        with pytest.raises(SchemeError,
                           match=f"y{side}_obs has a non-finite value .* index 2"):
            sample_with_values(g, y1, y2)


class TestDistributionalChecks:
    def test_z_entries_gaussian_chi2(self):
        # constant coefficients, no drift: Z entries are exactly normal with
        # the coefficient row norms as scales; pooled chi-square GoF at 1%
        b = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        model = make_constant_model(b)
        g = uniform_grid(200, 1, 0.0, 1.0)
        draws = []
        for s in range(50):
            sample = observe(simulate_path(model, [1.0], g, max_step=1.0,
                                           seed=s), g)
            draws.append(sample.z[:200])  # side-1 entries, scale |b1| = 1
        draws = np.concatenate(draws)
        assert draws.size == 10_000
        edges = stats.norm.ppf(np.linspace(0, 1, 21))
        counts, _ = np.histogram(draws, bins=edges)
        p = stats.chisquare(counts).pvalue
        assert p > 0.01

    def test_drift_mean_scaling(self):
        #|mean(Z)| scales with sqrt of the interval length: one density
        # doubling multiplies it by ~ 1/sqrt(2)
        model = make_constant_model(np.eye(2), drift_vec=(1.0, 0.0))
        means = {}
        for n in (500, 1000):
            g = uniform_grid(n, 1, 0.0, 1.0)
            acc = []
            for s in range(2000):
                z = observe(simulate_path(model, [1.0], g, max_step=1.0,
                                          seed=[n, s]), g).z[:n]
                acc.append(z.mean())
            means[n] = abs(np.mean(acc))
        ratio = means[1000] / means[500]
        assert 0.55 < ratio < 0.95


class TestModelRegistry:
    def test_get_model(self):
        assert get_model("bm1").dim_param == 1
        assert get_model("corr").dim_param == 2
        with pytest.raises(KeyError):
            get_model("nope")

    @pytest.mark.parametrize("name", ["bm1", "corr", "statedep"])
    def test_dsigma_matches_finite_differences(self, name):
        model = get_model(name)
        rng = np.random.default_rng(0)
        box = model.param_box
        for _ in range(5):
            sigma = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.uniform(
                0.2, 0.8, size=model.dim_param)
            t = rng.uniform(0, 1)
            x = rng.normal(size=(3, 2))
            got = np.asarray(model.diffusion_dsigma(t, x, sigma))
            h = 1e-6
            for j in range(model.dim_param):
                up = sigma.copy(); up[j] += h
                dn = sigma.copy(); dn[j] -= h
                fd = (np.asarray(model.diffusion(t, x, up))
                      - np.asarray(model.diffusion(t, x, dn))) / (2 * h)
                scale = np.abs(fd).max() + 1.0
                assert np.allclose(got[:, j], fd, atol=1e-6 * scale)

    def test_diffusion_positive_definite(self):
        # sampled ellipticity check on the built-ins
        rng = np.random.default_rng(1)
        for name in ("bm1", "corr", "statedep"):
            model = get_model(name)
            box = model.param_box
            for _ in range(10):
                sigma = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.uniform(
                    0.05, 0.95, size=model.dim_param)
                x = rng.normal(size=(4, 2))
                b = np.asarray(model.diffusion(rng.uniform(0, 1), x, sigma))
                bbt = np.einsum("kij,klj->kil", b, b)
                assert np.all(np.linalg.eigvalsh(bbt)[:, 0] > 0)


class TestSampleCsv:
    def test_roundtrip(self, tmp_path):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=40, seed=2)
        sample = observe(simulate_path(model, [1.0, 0.3], g, seed=5), g)
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, path)
        back = read_sample_csv(path, g)
        assert np.array_equal(back.y1_obs, sample.y1_obs)
        assert np.array_equal(back.y2_obs, sample.y2_obs)
        assert np.array_equal(back.z, sample.z)

    def test_incomplete_file(self, tmp_path):
        g = uniform_grid(2, 2, 0.0, 1.0)
        path = tmp_path / "bad.csv"
        path.write_text("side,index,time,value\n1,0,0.0,0.0\n")
        with pytest.raises(SchemeError):
            read_sample_csv(path, g)

    @pytest.mark.parametrize("bad_row,message", [
        ("2,1,123.0,0.3", "time differs"),
        ("1,1,0.5,0.9", "repeats side 1 index 1"),
        ("1,-1,1.0,0.5", "index out of range"),
        ("2,3,1.0,0.5", "index out of range"),
        ("1,1,0.5", "malformed"),
        ("2,1,0.5,inf", "non-finite value"),
        ("2,1,0.5,nan", "non-finite value"),
        ("2,1,nan,0.3", "time differs"),
    ])
    def test_rejects_bad_row(self, tmp_path, bad_row, message):
        # the complete, correct file for a 2 + 2 interval grid
        g = uniform_grid(2, 2, 0.0, 1.0)
        rows = ["1,0,0.0,0.0", "1,1,0.5,0.1", "1,2,1.0,0.2",
                "2,0,0.0,0.0", "2,1,0.5,0.3", "2,2,1.0,0.4"]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["side,index,time,value", *rows[:4],
                                   bad_row, *rows[4:]]) + "\n")
        with pytest.raises(SchemeError, match=f"row 6 .*{message}"):
            read_sample_csv(path, g)


class TestScales:
    @pytest.mark.parametrize("name", [n for n in MODELS
                                      if get_model(n).scales is not None])
    def test_rows_are_unit_rows_times_scales(self, name):
        model = get_model(name)
        i1, i2 = model.scales
        unit = np.ones(model.dim_param)
        rng = np.random.default_rng(3)
        box = model.param_box
        for _ in range(5):
            sigma = rng.uniform(box[:, 0], box[:, 1])
            t = rng.uniform(0, 1, size=4)
            x = rng.normal(size=(4, 2))
            b1, b2 = model.coeff_rows(t, x, sigma)
            u1, u2 = model.coeff_rows(t, x, unit)
            assert np.allclose(b1, sigma[i1] * u1, rtol=1e-14, atol=0)
            assert np.allclose(b2, sigma[i2] * u2, rtol=1e-14, atol=0)

    def test_correlation_model_makes_no_claim(self):
        assert get_model("corr").scales is None

    @pytest.mark.parametrize("scales", [(0,), (0, 0, 1), (0, 0), (1, 1),
                                        (0, 2), (-1, 0), (0.0, 1)])
    def test_rejects_scales_not_naming_each_parameter(self, scales):
        with pytest.raises(ValueError, match="scales"):
            dataclasses.replace(state_dependent(), scales=scales)

    def test_rejects_nonpositive_scale_box(self):
        with pytest.raises(ValueError, match="strictly positive"):
            state_dependent(box=((0.4, 2.5), (0.0, 2.5)))
        with pytest.raises(ValueError, match="strictly positive"):
            scalar_bm(box=((-1.0, 1.0),))
