import dataclasses

import numpy as np
import pytest

from nsvol.errors import EstimationError
from nsvol.estimate import (_Panel, bayes, hayashi_yoshida, observed_info,
                            plugin_covariation, qmle, qmle_detail,
                            run_estimation)
from nsvol.likelihood import QuasiLikEngine
from nsvol.models import correlated_bm, scalar_bm, state_dependent
from nsvol.scheme import ObservationGrid, poisson_grid, uniform_grid
from nsvol.sde import observe, simulate_path

from conftest import make_constant_model, sample_with_values


def _engine(model, sigma, grid, seed=0):
    return QuasiLikEngine(model, observe(
        simulate_path(model, sigma, grid, seed=seed), grid))


class TestQmle:
    def test_scalar_closed_form(self):
        n = 150
        model = scalar_bm()
        g = uniform_grid(n, n, 0.0, 1.0)
        engine = _engine(model, [1.0], g, seed=11)
        closed = np.sqrt((engine.z ** 2).sum() / (2 * n))
        assert qmle(engine)[0] == pytest.approx(closed, abs=1e-6)

    def test_flat_likelihood_flagged(self, sigma_free_model):
        g = poisson_grid(1.0, 1.0, 1.0, bn=40, seed=0)
        engine = _engine(sigma_free_model, [1.0], g)
        detail = qmle_detail(engine)
        assert detail.degenerate
        box = sigma_free_model.param_box
        assert box[0, 0] - 1e-9 <= detail.sigma[0] <= box[0, 1] + 1e-9

    def test_boundary_flag(self):
        # data generated far above the admissible box pins the argmax at hi
        wide = scalar_bm(box=((0.2, 4.0),))
        narrow = scalar_bm(box=((0.2, 0.5),))
        g = uniform_grid(100, 100, 0.0, 1.0)
        sample = observe(simulate_path(wide, [2.5], g, seed=5), g)
        engine = QuasiLikEngine(narrow, sample)
        detail = qmle_detail(engine)
        assert detail.on_boundary
        assert detail.sigma[0] == pytest.approx(0.5, abs=1e-6)

    def test_pure_scale_counts_probes(self):
        # the closed-form argmax evaluates the five starts and itself
        model = state_dependent()
        g = poisson_grid(1.0, 2.0, 1.0, bn=150, seed=1)
        detail = qmle_detail(_engine(model, [1.0, 1.5], g, seed=2))
        assert detail.n_evaluations == 6
        assert detail.n_failures == 0

    def test_unit_factor_failure(self):
        # parallel rows: S(1), hence every S(sigma), is singular
        model = dataclasses.replace(
            make_constant_model([[1.0, 0.0], [1.0, 0.0]], sigma_scales=True),
            scales=(0, 0))
        engine = _engine(model, [1.0], uniform_grid(4, 4, 0.0, 1.0))
        with pytest.raises(EstimationError,
                           match="no start produced a factorizable"):
            qmle_detail(engine)

    def test_stationarity_at_interior_optimum(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=250, seed=2)
        engine = _engine(model, [1.0, 0.5], g, seed=3)
        detail = qmle_detail(engine)
        assert not detail.on_boundary
        grad = engine.gradient(detail.sigma)
        assert np.linalg.norm(grad) <= 1e-4 * (1 + abs(detail.value))

    def test_monte_carlo_consistency_rate(self):
        # |sigma_hat - sigma*| shrinks roughly like 1 / sqrt(bn)
        model = scalar_bm()
        rmse = []
        ladder = [250, 1000, 4000]
        for n in ladder:
            errs = []
            for r in range(24):
                g = poisson_grid(1.0, 1.0, 1.0, bn=n, seed=[n, r])
                engine = _engine(model, [1.0], g, seed=[n, r, 1])
                errs.append(qmle(engine)[0] - 1.0)
            rmse.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(ladder), np.log(rmse), 1)[0]
        assert -0.75 < slope < -0.25


class TestBayes:
    def test_flat_likelihood_centroid(self, sigma_free_model):
        g = poisson_grid(1.0, 1.0, 1.0, bn=30, seed=1)
        engine = _engine(sigma_free_model, [1.0], g)
        box = sigma_free_model.param_box
        assert bayes(engine)[0] == pytest.approx(box[0].mean(), rel=1e-9)

    def test_peaked_posterior_tracks_qmle(self):
        model = scalar_bm()
        g = uniform_grid(400, 400, 0.0, 1.0)
        engine = _engine(model, [1.0], g, seed=7)
        hat = qmle(engine)
        spacing = (model.param_box[0, 1] - model.param_box[0, 0]) / 41
        assert abs(bayes(engine)[0] - hat[0]) <= 10 * spacing
        assert abs(bayes(engine, adaptive=True)[0] - hat[0]) <= 0.02

    def test_in_box_hull(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=60, seed=4)
        engine = _engine(model, [1.0, 0.3], g)
        tilde = bayes(engine, adaptive=True)
        box = model.param_box
        assert np.all(tilde >= box[:, 0]) and np.all(tilde <= box[:, 1])

    def test_prior_washout(self):
        # two bounded priors agree better at larger sample sizes
        model = scalar_bm()
        flat = lambda s: 1.0
        tilted = lambda s: 0.25 + (s[0] - 0.2) / 4.0
        gaps = {}
        for n in (250, 4000):
            diffs = []
            for r in range(4):
                g = poisson_grid(1.0, 1.0, 1.0, bn=n, seed=[n, r])
                engine = _engine(model, [1.0], g, seed=[n, r, 9])
                diffs.append(abs(bayes(engine, flat, adaptive=True)[0]
                                 - bayes(engine, tilted, adaptive=True)[0]))
            gaps[n] = np.median(diffs)
        assert gaps[4000] < gaps[250]

    def test_adaptive_matches_fine_fixed_grid(self):
        # an explicit flat prior keeps bm1 on the panel rules
        model = scalar_bm()
        g = uniform_grid(200, 200, 0.0, 1.0)
        engine = _engine(model, [1.0], g, seed=13)
        flat = lambda s: 1.0  # noqa: E731
        fine = bayes(engine, flat, nodes_per_dim=801, adaptive=False)
        adapt = bayes(engine, flat, adaptive=True)
        assert adapt[0] == pytest.approx(fine[0], abs=2e-4)

    @pytest.mark.parametrize("factory,sigma", [
        (state_dependent, [1.0, 1.5]), (scalar_bm, [1.0]),
        (correlated_bm, [1.0, 0.5])])
    def test_panel_matches_pointwise_quadrature(self, factory, sigma):
        # oracle: per-axis Gauss-Legendre rule and one loglik per node
        model = factory()
        g = poisson_grid(1.0, 2.0, 1.0, bn=60, seed=3)
        engine = _engine(model, sigma, g, seed=4)
        lo, hi = model.param_box[:, 0], 0.5 * model.param_box.sum(axis=1)
        xi, wi = np.polynomial.legendre.leggauss(9)
        axes = [lo[j] + 0.5 * (xi + 1.0) * (hi[j] - lo[j])
                for j in range(lo.size)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                       axis=-1)
        w = np.prod(np.stack([m.ravel() for m in np.meshgrid(
            *[0.5 * (hi[j] - lo[j]) * wi for j in range(lo.size)],
            indexing="ij")], axis=-1), axis=-1)
        vals = np.array([engine.loglik(p) for p in pts])
        ew = w * np.exp(vals - vals.max())
        panel = _Panel(engine, lambda s: 1.0, lo, hi, 9)
        assert panel.n_ok == pts.shape[0]
        if model.scales is None:
            assert panel.hmax == vals.max()
            assert panel.mass == ew.sum()
            assert np.array_equal(panel.moment, (pts * ew[:, None]).sum(0))
        else:
            assert panel.hmax == pytest.approx(vals.max(), rel=1e-15)
            assert panel.mass == pytest.approx(ew.sum(), rel=1e-12)
            assert panel.moment == pytest.approx((pts * ew[:, None]).sum(0),
                                                 rel=1e-12)

    def test_unit_factor_failure(self):
        model = dataclasses.replace(
            make_constant_model([[1.0, 0.0], [1.0, 0.0]], sigma_scales=True),
            scales=(0, 0))
        engine = _engine(model, [1.0], uniform_grid(4, 4, 0.0, 1.0))
        box = model.param_box
        panel = _Panel(engine, lambda s: 1.0, box[:, 0], box[:, 1], 15)
        assert panel.n_ok == 0 and panel.hmax == -np.inf
        for adaptive in (False, True):
            with pytest.raises(EstimationError,
                               match="no quadrature node produced"):
                bayes(engine, adaptive=adaptive)


def _box_posterior_mean(engine, panels=400, nodes=10, chunk=400_000):
    """Brute-force posterior mean under the uniform prior: a composite
    Gauss-Legendre rule over the whole box, ``panels`` x ``nodes`` points
    per axis, scored by ``loglik_batch`` in chunks of rows."""
    xi, wi = np.polynomial.legendre.leggauss(nodes)
    axes, weights = [], []
    for lo, hi in engine.model.param_box:
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        axes.append(((edges[:-1] + half)[:, None] + half[:, None] * xi).ravel())
        weights.append((half[:, None] * wi).ravel())
    top = engine.loglik(engine.scale_argmax())  # the largest value
    if len(axes) == 1:
        e = weights[0] * np.exp(engine.loglik_batch(axes[0][:, None]) - top)
        return np.array([axes[0] @ e / e.sum()])
    (x1, x2), (w1, w2) = axes, weights
    den, num = 0.0, np.zeros(2)
    rows = chunk // x2.size
    for k in range(0, x1.size, rows):
        pts = np.stack(np.meshgrid(x1[k:k + rows], x2, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        e = (np.outer(w1[k:k + rows], w2).ravel()
             * np.exp(engine.loglik_batch(pts) - top))
        den += e.sum()
        num += pts.T @ e
    return num / den


WIDE = dict(box=((0.05, 20.0), (0.05, 20.0)))


class TestScalePosteriorMean:
    """``bayes`` with the uniform prior on a pure-scale model: the scale
    integrated out in closed form, against a brute-force quadrature."""

    CASES = ([(scalar_bm, (), [1.0], n, (1.0, 1.0), None)
              for n in (30, 150, 1000, 4000)]
             + [(state_dependent, (), [1.0, 1.5], n, (1.0, 2.0), None)
                for n in (30, 150, 1000, 4000)]
             # a box corner cuts the posterior
             + [(scalar_bm, (), [0.21], n, (1.0, 1.0), None)
                for n in (30, 1000)]
             + [(state_dependent, (), [0.42, 2.45], n, (1.0, 2.0), None)
                for n in (30, 1000)]
             # the peak sits on the kink of the corner (hi, hi)
             + [(state_dependent, (), [2.45, 2.45], 150, (1.0, 2.0), WIDE)]
             # the posterior lies far outside the box: the incomplete gamma
             # functions underflow, and the mass sits in a corner layer
             + [(scalar_bm, ((0.2, 0.5),), [2.5], 100, (1.0, 1.0),
                 dict(box=((0.1, 5.0),))),
                (scalar_bm, ((1.0, 1.5),), [0.3], 1000, (1.0, 1.0),
                 dict(box=((0.1, 5.0),))),
                (state_dependent, ((0.4, 0.5), (0.4, 0.5)), [1.0, 1.5], 150,
                 (1.0, 2.0), WIDE),
                (state_dependent, (), [0.2, 4.0], 150, (1.0, 2.0), WIDE)])

    @pytest.mark.parametrize("factory,box,sigma,n,rates,data_box", CASES)
    def test_matches_brute_force(self, factory, box, sigma, n, rates,
                                 data_box):
        model = factory(box=box) if box else factory()
        data_model = factory(**data_box) if data_box else model
        g = poisson_grid(*rates, 1.0, bn=n, seed=[n, 5])
        sample = observe(simulate_path(data_model, sigma, g, seed=[n, 6]), g)
        engine = QuasiLikEngine(model, sample)
        got = bayes(engine)
        ref = _box_posterior_mean(engine)
        assert np.abs(got / ref - 1.0).max() <= 1e-8

    def test_route_ignores_panel_options(self, monkeypatch):
        model = state_dependent()
        g = poisson_grid(1.0, 2.0, 1.0, bn=150, seed=1)
        engine = _engine(model, [1.0, 1.5], g, seed=2)
        expect = engine.scale_posterior_mean()

        def refuse(points):
            raise AssertionError("loglik_batch called")

        monkeypatch.setattr(engine, "loglik_batch", refuse)
        for opts in ({}, {"adaptive": True}, {"adaptive": False},
                     {"nodes_per_dim": 3, "adaptive": True, "top_mass": 0.1}):
            assert np.array_equal(bayes(engine, **opts), expect)

    def test_needs_scales(self):
        g = poisson_grid(1.0, 1.0, 1.0, bn=40, seed=1)
        engine = _engine(correlated_bm(), [1.0, 0.5], g)
        with pytest.raises(EstimationError, match="needs a model with scales"):
            engine.scale_posterior_mean()

    def test_uniform_prior_panel_is_bit_identical(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 2.0, 1.0, bn=60, seed=3)
        engine = _engine(model, [1.0, 0.5], g, seed=4)
        lo, hi = model.param_box[:, 0], 0.5 * model.param_box.sum(axis=1)
        none = _Panel(engine, None, lo, hi, 9)
        flat = _Panel(engine, lambda s: 1.0, lo, hi, 9)
        assert none.mass == flat.mass and none.hmax == flat.hmax
        assert np.array_equal(none.moment, flat.moment)


class TestObservedInfo:
    def test_sigma_free_fallback(self, sigma_free_model):
        g = poisson_grid(1.0, 1.0, 1.0, bn=40, seed=3)
        engine = _engine(sigma_free_model, [1.0], g)
        info = observed_info(engine, [1.0])
        assert not info.positive_definite
        assert np.array_equal(info.gamma_n, np.eye(1))
        assert np.array_equal(info.score_n, np.zeros(1))

    def test_scalar_closed_form(self):
        n = 120
        model = scalar_bm()
        g = uniform_grid(n, n, 0.0, 1.0)
        engine = _engine(model, [1.0], g, seed=6)
        hat = qmle(engine)
        info = observed_info(engine, hat)
        # at the optimum the curvature is 4 n / sigma^2, scaled by 1/bn
        expected = 4 * n / (g.bn * hat[0] ** 2)
        assert info.positive_definite
        assert info.gamma_n[0, 0] == pytest.approx(expected, rel=1e-4)

    def test_unpacking(self):
        model = scalar_bm()
        g = uniform_grid(30, 30, 0.0, 1.0)
        engine = _engine(model, [1.0], g)
        gamma, score = observed_info(engine, [1.0])
        assert gamma.shape == (1, 1) and score.shape == (1,)


class TestCovariations:
    def test_hy_synchronous_realized_covariance(self):
        model = correlated_bm()
        g = uniform_grid(50, 50, 0.0, 1.0)
        sample = observe(simulate_path(model, [1.0, 0.6], g, seed=9), g)
        hy = hayashi_yoshida(sample)
        realized = float(np.diff(sample.y1_obs) @ np.diff(sample.y2_obs))
        assert hy == pytest.approx(realized, rel=1e-12)

    def test_hy_constant_component_zero(self):
        g = uniform_grid(10, 7, 0.5, 1.0)
        sample = sample_with_values(g, np.sin(g.s_times), np.ones(8))
        assert hayashi_yoshida(sample) == 0.0

    def test_hy_unbiased_for_covariation(self):
        model = correlated_bm()
        rho, T = 0.6, 1.0
        vals = []
        for r in range(1000):
            g = poisson_grid(1.0, 1.0, T, bn=60, seed=[r, 0])
            sample = observe(simulate_path(model, [1.0, rho], g,
                                           seed=[r, 1]), g)
            vals.append(hayashi_yoshida(sample))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - rho * T) <= 3 * se

    def test_plugin_constant_model_exact(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 2.0, bn=40, seed=5)
        sample = observe(simulate_path(model, [1.0, 0.5], g, seed=1), g)
        val = plugin_covariation(model, [1.2, 0.3], g, sample)
        assert val == pytest.approx(2.0 * 1.2 ** 2 * 0.3, rel=1e-12)
        exact = plugin_covariation(model, [1.0, 0.5], g, sample)
        assert exact == pytest.approx(2.0 * 0.5, rel=1e-12)

    def test_plugin_state_dependent_uses_prev_tick(self):
        model = state_dependent()
        g = ObservationGrid([0.0, 0.5, 1.0], [0.0, 0.4, 1.0], 1.0, 4.0)
        sample = sample_with_values(g, [0.0, 1.0, 0.5], [0.0, -1.0, 0.2])
        sigma = np.array([1.0, 1.0])
        # left-point previous-tick oracle over the merged grid
        merged = g.merged
        acc = 0.0
        for k in range(len(merged) - 1):
            t = merged[k]
            x1 = sample.y1_obs[np.searchsorted(g.s_times, t, "right") - 1]
            x2 = sample.y2_obs[np.searchsorted(g.t_times, t, "right") - 1]
            b1, b2 = model.coeff_rows(t, np.array([[x1, x2]]), sigma)
            acc += float(b1[0] @ b2[0]) * (merged[k + 1] - merged[k])
        assert plugin_covariation(model, sigma, g, sample) == \
            pytest.approx(acc, rel=1e-12)


class TestRunEstimation:
    def test_full_outcome(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=150, seed=12)
        engine = _engine(model, [1.0, 0.5], g, seed=2)
        out = run_estimation(engine, bayes_opts={"adaptive": True})
        assert out.sigma_hat.shape == (2,)
        assert out.sigma_tilde.shape == (2,)
        assert out.gamma_n.shape == (2, 2)
        assert np.allclose(out.gamma_n, out.gamma_n.T)
        assert out.positive_definite
        assert isinstance(out.hy_covariation, float)
        doc = out.to_dict()
        assert set(doc) >= {"sigma_hat", "sigma_tilde", "gamma_n", "score_n",
                            "on_boundary", "hy_covariation",
                            "plugin_covariation", "diagnostics"}

    def test_bayes_skippable(self):
        model = scalar_bm()
        g = uniform_grid(40, 40, 0.0, 1.0)
        engine = _engine(model, [1.0], g)
        out = run_estimation(engine, do_bayes=False, do_hy=False)
        assert out.sigma_tilde is None
        assert out.hy_covariation is None
