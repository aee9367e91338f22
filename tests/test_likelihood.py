import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from nsvol import scheme
from nsvol.errors import (EstimationError, NotPositiveDefiniteError,
                          ParameterOutOfDomainError, SchemeError)
from nsvol.estimate import qmle_detail
from nsvol.likelihood import (QuasiLikEngine, _argmax_two_scales, build_S,
                              dense_quasi_loglik)
from nsvol.models import correlated_bm, scalar_bm, state_dependent
from nsvol.scheme import ObservationGrid, poisson_grid, uniform_grid
from nsvol.sde import observe, simulate_path

from conftest import halt_probe_grid, make_constant_model, sample_with_values


def _sample(model, sigma, grid, seed=0):
    return observe(simulate_path(model, sigma, grid, seed=seed), grid)


class TestWideBandRefusal:
    """The engine refuses a halt grid before it builds the pair index."""

    def test_refused_past_the_limit(self):
        g = halt_probe_grid(16000)
        sample = sample_with_values(g, np.zeros(g.s_times.size),
                                    np.zeros(g.t_times.size))
        with pytest.raises(SchemeError, match=(
                r"side-2 interval 12000 \[0.25, 0.75\) overlaps 8000 "
                r"side-1 intervals: predicted half-bandwidth 7999, ")):
            QuasiLikEngine(correlated_bm(), sample)

    def test_prediction_matches_the_engine(self, monkeypatch):
        model = correlated_bm()
        sample = _sample(model, [1.0, 0.5], halt_probe_grid(400), seed=2)
        engine = QuasiLikEngine(model, sample)
        assert engine._swap and engine._hw == 199
        nbytes = 8 * (3 * engine._p.size + engine._gram.size)
        monkeypatch.setattr(scheme, "MAX_BAND_BYTES", nbytes - 1)
        with pytest.raises(SchemeError, match=(
                f"half-bandwidth 199, {engine._p.size} entry pairs and "
                f"{nbytes} bytes")):
            QuasiLikEngine(model, sample)
        monkeypatch.setattr(scheme, "MAX_BAND_BYTES", nbytes)
        QuasiLikEngine(model, sample)


class TestBuildS:
    def test_unit_norm_coefficients(self):
        g = poisson_grid(1.0, 1.0, 1.0, bn=30, seed=0)
        from nsvol.scheme import overlap_matrix
        G = overlap_matrix(g)
        # orthogonal unit rows: unit diagonals, coupling vanishes on G's pattern
        model = make_constant_model(np.eye(2))
        cov = build_S(model, [1.0], _sample(model, [1.0], g))
        assert np.allclose(cov.d1, 1.0)
        assert np.allclose(cov.d2, 1.0)
        assert cov.coupling.nnz == G.csr.nnz
        assert np.allclose(cov.coupling.data, 0.0)
        # parallel unit rows: coupling equals the overlap matrix entrywise
        model2 = make_constant_model([[1.0, 0.0], [1.0, 0.0]])
        cov2 = build_S(model2, [1.0], _sample(model2, [1.0], g))
        assert np.allclose(cov2.coupling.toarray(), G.to_dense())

    def test_synchronous_block_structure(self):
        rho = 0.6
        b = np.array([[1.0, 0.0], [rho, np.sqrt(1 - rho * rho)]])
        model = make_constant_model(b, sigma_scales=True)
        n = 5
        g = uniform_grid(n, n, 0.0, 1.0)
        sample = _sample(model, [1.3], g)
        S = build_S(model, [1.3], sample).to_dense()
        s2 = 1.3 ** 2
        expected = np.block([[s2 * np.eye(n), s2 * rho * np.eye(n)],
                             [s2 * rho * np.eye(n), s2 * np.eye(n)]])
        assert np.allclose(S, expected)

    def test_single_interval_correlation(self):
        rho = -0.35
        b = np.array([[1.0, 0.0], [rho, np.sqrt(1 - rho * rho)]])
        model = make_constant_model(b)
        g = ObservationGrid([0.0, 1.0], [0.0, 1.0], 1.0, 2.0)
        S = build_S(model, [1.0], _sample(model, [1.0], g)).to_dense()
        assert np.allclose(S, [[1.0, rho], [rho, 1.0]])

    def test_previous_tick_freezing(self):
        # state-dependent coefficient must read the other component at its
        # last observation at or before the interval's left endpoint
        model = state_dependent()
        g = ObservationGrid([0.0, 0.4, 1.0], [0.0, 0.7, 1.0], 1.0, 4.0)
        y1 = np.array([0.0, 0.5, 0.2])
        y2 = np.array([0.0, -0.4, 0.3])
        sample = sample_with_values(g, y1, y2)
        sigma = np.array([1.1, 0.9])
        cov = build_S(model, sigma, sample)
        assert np.array_equal(cov.prev_tick1, [0, 0])   # T^0=0 precedes both
        assert np.array_equal(cov.prev_tick2, [0, 1])   # S^1=0.4 <= 0.7
        b1a = model.coeff_rows(0.0, np.array([[0.0, 0.0]]), sigma)[0][0]
        b1b = model.coeff_rows(0.4, np.array([[0.5, 0.0]]), sigma)[0][0]
        assert cov.d1[0] == pytest.approx(b1a @ b1a)
        assert cov.d1[1] == pytest.approx(b1b @ b1b)
        b2b = model.coeff_rows(0.7, np.array([[0.5, -0.4]]), sigma)[1][0]
        assert cov.d2[1] == pytest.approx(b2b @ b2b)

    def test_out_of_box(self):
        model = scalar_bm()
        g = uniform_grid(3, 3, 0.0, 1.0)
        sample = _sample(model, [1.0], g)
        with pytest.raises(ParameterOutOfDomainError):
            build_S(model, [7.0], sample)


class TestQuasiLoglik:
    def test_zero_increments_identity_cov(self):
        model = scalar_bm()
        g = uniform_grid(4, 4, 0.0, 1.0)
        sample = sample_with_values(g, np.zeros(5), np.zeros(5))
        engine = QuasiLikEngine(model, sample)
        assert engine.loglik([1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_single_interval_unit_z(self):
        model = scalar_bm()
        g = ObservationGrid([0.0, 1.0], [0.0, 1.0], 1.0, 2.0)
        sample = sample_with_values(g, [0.0, 1.0], [0.0, 1.0])
        engine = QuasiLikEngine(model, sample)
        assert engine.loglik([1.0]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("rates", [(1.0, 1.0), (1.0, 2.5), (2.5, 1.0)])
    def test_banded_matches_dense(self, rates):
        model = correlated_bm()
        sigma = [1.1, 0.45]
        g = poisson_grid(*rates, 1.0, bn=120, seed=4)
        engine = QuasiLikEngine(model, _sample(model, sigma, g, seed=9))
        for trial in ([1.1, 0.45], [0.8, -0.2], [1.9, 0.7]):
            hb = engine.loglik(trial)
            hd = engine.loglik_dense(trial)
            assert abs(hb - hd) <= 1e-9 * (1 + abs(hd))

    def test_diagonal_cov_closed_form(self):
        model = scalar_bm()
        g = uniform_grid(5, 5, 0.0, 1.0)
        sample = _sample(model, [1.0], g, seed=3)
        engine = QuasiLikEngine(model, sample)
        z = sample.z
        for s in (0.7, 1.0, 1.8):
            expected = -0.5 * (z ** 2).sum() / s ** 2 - 0.5 * z.size * np.log(s ** 2)
            assert engine.loglik([s]) == pytest.approx(expected, rel=1e-12)

    def test_dense_permutation_invariance(self):
        rng = np.random.default_rng(0)
        n1, n2 = 4, 3
        A = rng.normal(size=(n1 + n2, n1 + n2))
        S = A @ A.T + (n1 + n2) * np.eye(n1 + n2)
        z = rng.normal(size=n1 + n2)
        base = dense_quasi_loglik(S, z)
        perm = np.concatenate([np.arange(n1), n1 + rng.permutation(n2)])
        assert dense_quasi_loglik(S[np.ix_(perm, perm)], z[perm]) == \
            pytest.approx(base, rel=1e-12)

    def test_not_positive_definite_error(self):
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            dense_quasi_loglik(S, np.ones(2))
        assert err.value.pivot in (None, 1)

    def test_degenerate_correlation_raises(self):
        # parallel coefficient rows + synchronous grid make S singular
        model = make_constant_model([[1.0, 0.0], [1.0, 0.0]])
        g = uniform_grid(4, 4, 0.0, 1.0)
        engine = QuasiLikEngine(model, _sample(model, [1.0], g))
        with pytest.raises(NotPositiveDefiniteError):
            engine.loglik([1.0])

    @pytest.mark.parametrize("factory,sigma", [
        (correlated_bm, [1.0, 0.5]),
        (state_dependent, [1.1, 0.8]),
    ])
    def test_wide_schur_band_stays_banded(self, factory, sigma):
        # a side-1 halt over [0.25, 0.75] spans 149 side-2 intervals
        s = np.concatenate([np.linspace(0, 0.25, 201),
                            np.linspace(0.75, 1, 201)])
        g = ObservationGrid(s, np.linspace(0, 1, 301), 1.0, 701.0)
        model = factory()
        engine = QuasiLikEngine(model, _sample(model, sigma, g, seed=3))
        assert engine._hw == 149
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = engine.loglik(sigma)
            an = engine.gradient(sigma, method="analytic")
            fd = engine.gradient(sigma, method="fd")
        assert h == pytest.approx(engine.loglik_dense(sigma), rel=1e-10)
        assert np.all(np.abs(fd - an) <= 1e-5 * (1 + np.abs(an)))

    def test_synchronous_exactness_constant_offset(self):
        # H differs from the exact Gaussian log-density by a sigma-free
        # constant on synchronous grids with constant coefficients
        model = correlated_bm()
        sigma0 = [1.0, 0.5]
        g = uniform_grid(40, 40, 0.0, 1.0)
        sample = _sample(model, sigma0, g, seed=8)
        engine = QuasiLikEngine(model, sample)
        offsets = []
        for trial in ([1.0, 0.5], [0.8, 0.2], [1.4, -0.3], [1.0, 0.0],
                      [2.0, 0.7]):
            S = build_S(model, trial, sample).to_dense()
            exact = multivariate_normal(mean=np.zeros(S.shape[0]),
                                        cov=S).logpdf(sample.z)
            offsets.append(engine.loglik(trial) - exact)
        assert np.ptp(offsets) < 1e-10
        assert offsets[0] == pytest.approx(
            0.5 * sample.z.size * np.log(2 * np.pi), rel=1e-12)

    def test_scaling_covariance(self):
        # b -> c b together with Z -> c Z shifts H by -(l1+l2) log c
        model = scalar_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=50, seed=6)
        sample = _sample(model, [1.0], g, seed=2)
        c = 1.7
        scaled = sample_with_values(g, c * sample.y1_obs, c * sample.y2_obs)
        e1 = QuasiLikEngine(model, sample)
        e2 = QuasiLikEngine(model, scaled)
        for s in (0.9, 1.3):
            # scale-parameterized model: same shift evaluated at c * sigma
            assert e2.loglik([c * s]) == pytest.approx(
                e1.loglik([s]) - sample.z.size * np.log(c), rel=1e-12)


class TestDerivatives:
    def test_sigma_free_gradient_zero(self, sigma_free_model):
        g = poisson_grid(1.0, 1.0, 1.0, bn=40, seed=1)
        engine = QuasiLikEngine(sigma_free_model,
                                _sample(sigma_free_model, [1.0], g))
        assert engine.gradient([1.0]) == pytest.approx(0.0, abs=1e-9)
        assert engine.gradient([1.0], method="analytic") == pytest.approx(
            0.0, abs=1e-14)

    def test_scalar_closed_form_gradient(self):
        model = scalar_bm()
        n = 60
        g = uniform_grid(n, n, 0.0, 1.0)
        sample = _sample(model, [1.0], g, seed=4)
        engine = QuasiLikEngine(model, sample)
        z2 = (sample.z ** 2).sum()
        for s in (0.8, 1.0, 1.5):
            closed = z2 / s ** 3 - 2 * n / s
            assert engine.gradient([s], method="analytic")[0] == \
                pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("factory,sigma", [
        (correlated_bm, [1.2, 0.35]),
        (state_dependent, [1.1, 0.8]),
    ])
    def test_analytic_vs_fd(self, factory, sigma):
        model = factory()
        g = poisson_grid(1.0, 1.4, 1.0, bn=100, seed=7)
        engine = QuasiLikEngine(model, _sample(model, sigma, g, seed=1))
        fd = engine.gradient(sigma, method="fd")
        an = engine.gradient(sigma, method="analytic")
        assert np.all(np.abs(fd - an) <= 1e-5 * (1 + np.abs(an)))

    @pytest.mark.parametrize("rates", [(1.0, 1.4), (1.4, 1.0)])
    @pytest.mark.parametrize("factory,sigma", [
        (correlated_bm, [1.2, 0.35]),
        (state_dependent, [1.1, 0.8]),
    ])
    def test_analytic_matches_dense_trace_formula(self, factory, sigma, rates):
        # dH/dsigma_k = x' dS_k x / 2 - tr(S^{-1} dS_k) / 2 with x = S^{-1} Z,
        # from dense matrices; dS_k by central differences of build_S
        model = factory()
        g = poisson_grid(*rates, 1.0, bn=60, seed=3)
        sample = _sample(model, sigma, g, seed=2)
        engine = QuasiLikEngine(model, sample)
        S = build_S(model, sigma, sample).to_dense()
        Sinv = np.linalg.inv(S)
        x = Sinv @ sample.z
        ref = []
        for k in range(len(sigma)):
            up, dn = np.array(sigma), np.array(sigma)
            up[k] += 1e-6
            dn[k] -= 1e-6
            dS = (build_S(model, up, sample).to_dense()
                  - build_S(model, dn, sample).to_dense()) / 2e-6
            ref.append(0.5 * x @ dS @ x - 0.5 * np.trace(Sinv @ dS))
        an = engine.gradient(sigma, method="analytic")
        assert np.allclose(an, ref, rtol=1e-7, atol=1e-7)

    def test_one_sided_near_boundary(self):
        model = scalar_bm(box=((0.2, 1.0),))
        g = uniform_grid(10, 10, 0.0, 1.0)
        engine = QuasiLikEngine(model, _sample(model, [0.9], g))
        with pytest.warns(RuntimeWarning):
            _, flags = engine.gradient([1.0], return_flags=True)
        assert flags[0]

    def test_hessian_symmetry_and_fd_agreement(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=80, seed=3)
        engine = QuasiLikEngine(model, _sample(model, [1.0, 0.4], g, seed=5))
        H = engine.hessian([1.0, 0.4])
        assert np.allclose(H, H.T, atol=1e-8)
        # diagonal matches the scalar second difference of the profile
        s = np.array([1.0, 0.4])
        h = 3e-3
        up = s.copy(); up[0] += h
        dn = s.copy(); dn[0] -= h
        prof = (engine.loglik(up) - 2 * engine.loglik(s)
                + engine.loglik(dn)) / h ** 2
        assert H[0, 0] == pytest.approx(prof, rel=1e-3)


class TestEngineCache:
    def test_concurrent_evaluations(self):
        from concurrent.futures import ThreadPoolExecutor

        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=120, seed=10)
        engine = QuasiLikEngine(model, _sample(model, [1.0, 0.5], g))
        sigmas = [[0.8 + 0.02 * k, 0.1 + 0.01 * k] for k in range(24)]
        serial = [engine.loglik(s) for s in sigmas]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(engine.loglik, sigmas))
        assert serial == threaded

    def test_factor_reuse(self):
        model = scalar_bm()
        g = uniform_grid(20, 20, 0.0, 1.0)
        engine = QuasiLikEngine(model, _sample(model, [1.0], g))
        v1 = engine.loglik([1.0])
        v2 = engine.loglik([1.0])
        assert v1 == v2

    def test_warning_free_small_bandwidth(self):
        model = scalar_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=30, seed=8)
        engine = QuasiLikEngine(model, _sample(model, [1.0], g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.loglik([1.0])


class TestPureScale:
    """Models declaring ``scales`` evaluate a closed form in the scales."""

    CASES = [
        (scalar_bm, {}, [1.0], (1.0, 2.5)),
        (state_dependent, {}, [1.0, 1.5], (1.0, 2.0)),
        (state_dependent, {}, [1.0, 1.5], (2.0, 1.0)),
        # unit point outside the box, as in the QMLE boundary test
        (scalar_bm, {"box": ((0.2, 0.5),)}, [2.5], (1.0, 1.0)),
    ]

    @pytest.mark.parametrize("factory,kw,sigma,rates", CASES)
    def test_matches_banded_and_dense(self, factory, kw, sigma, rates):
        # data from sigma in the default box, evaluated in the model's box
        model = factory(**kw)
        g = poisson_grid(*rates, 1.0, bn=80, seed=4)
        sample = _sample(factory(), sigma, g, seed=6)
        engine = QuasiLikEngine(model, sample)
        banded_engine = QuasiLikEngine(
            dataclasses.replace(model, scales=None), sample)
        rng = np.random.default_rng(2)
        lo, hi = model.param_box[:, 0], model.param_box[:, 1]
        for _ in range(10):
            s = rng.uniform(lo, hi)
            got = engine.loglik(s)
            assert got == pytest.approx(banded_engine.loglik(s), rel=1e-12)
            assert got == pytest.approx(engine.loglik_dense(s), rel=1e-10)
        with pytest.raises(ParameterOutOfDomainError):
            engine.loglik(hi + 1.0)

    def test_unit_factor_failure_raises_every_call(self):
        # parallel rows on a synchronous grid: S(1), hence every S(sigma),
        # is singular
        model = dataclasses.replace(
            make_constant_model([[1.0, 0.0], [1.0, 0.0]], sigma_scales=True),
            scales=(0, 0))
        g = uniform_grid(4, 4, 0.0, 1.0)
        sample = _sample(model, [1.0], g)
        engine = QuasiLikEngine(model, sample)
        banded_engine = QuasiLikEngine(
            dataclasses.replace(model, scales=None), sample)
        for s in (0.5, 1.0, 3.0):
            with pytest.raises(NotPositiveDefiniteError) as err:
                engine.loglik([s])
            with pytest.raises(NotPositiveDefiniteError) as ref:
                banded_engine.loglik([s])
            assert err.value.pivot == ref.value.pivot is not None

    def test_no_factorization_after_init(self, monkeypatch):
        from nsvol import banded

        model = state_dependent()
        g = poisson_grid(1.0, 2.0, 1.0, bn=60, seed=1)
        engine = QuasiLikEngine(model, _sample(model, [1.0, 1.5], g))

        def refuse(band):
            raise AssertionError("loglik factored a band")

        monkeypatch.setattr(banded, "cholesky", refuse)
        for s in ([1.0, 1.5], [0.7, 2.1]):
            assert np.isfinite(engine.loglik(s))


def _neg_profile(q, n1, n2, l1, l2):
    """F = 1/2 (q11 u^2 + 2 q12 u v + q22 v^2) - n1 log u - n2 log v."""
    u, v = 1.0 / l1, 1.0 / l2
    return (0.5 * (q[0] * u * u + 2.0 * q[1] * u * v + q[2] * v * v)
            + n1 * np.log(l1) + n2 * np.log(l2))


def _reference_argmin(q, n1, n2, lo, hi, m=41):
    """Brute-force grid over the box, refined by bounded L-BFGS-B from
    the best few grid points."""
    g1 = np.linspace(lo[0], hi[0], m)
    g2 = np.linspace(lo[1], hi[1], m)
    L1, L2 = np.meshgrid(g1, g2, indexing="ij")
    vals = _neg_profile(q, n1, n2, L1, L2).ravel()
    best = np.inf
    for k in np.argsort(vals)[:4]:
        x0 = np.array([L1.ravel()[k], L2.ravel()[k]])
        res = minimize(lambda x: _neg_profile(q, n1, n2, x[0], x[1]), x0,
                       method="L-BFGS-B", bounds=list(zip(lo, hi)),
                       options={"ftol": 1e-15, "gtol": 1e-12})
        best = min(best, res.fun, vals[k])
    return best


@st.composite
def _scale_problems(draw):
    """Random positive semidefinite Q (rank 0, 1 or 2, optionally with
    q22 = 0), counts n1, n2 and a box that may or may not hold the
    unconstrained optimum."""
    entry = st.floats(-5.0, 5.0, allow_nan=False)
    rank = draw(st.integers(0, 2))
    L = np.array([[draw(entry) for _ in range(rank)] for _ in range(2)])
    if rank and draw(st.booleans()):
        L[1] = 0.0
    Q = L @ L.T if rank else np.zeros((2, 2))
    n1, n2 = draw(st.integers(1, 500)), draw(st.integers(1, 500))
    base = np.sqrt((Q[0, 0] + Q[1, 1]) / (n1 + n2)) or 1.0
    lo = base * np.exp([draw(st.floats(-3.0, 1.0)) for _ in range(2)])
    hi = lo * np.exp([draw(st.floats(0.01, 4.0)) for _ in range(2)])
    return (Q[0, 0], Q[0, 1], Q[1, 1]), n1, n2, lo, hi


class TestScaleArgmax:
    """The closed-form QMLE of a pure-scale model."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_scale_problems())
    def test_two_scales_beat_bounded_reference(self, problem):
        q, n1, n2, lo, hi = problem
        l1, l2 = _argmax_two_scales(*q, n1, n2, lo, hi)
        assert lo[0] <= l1 <= hi[0] and lo[1] <= l2 <= hi[1]
        closed = _neg_profile(q, n1, n2, l1, l2)
        ref = _reference_argmin(q, n1, n2, lo, hi)
        assert closed <= ref + 1e-12 * (1.0 + abs(ref))

    @pytest.mark.parametrize("q,lo,hi,expect", [
        # Q = 0: F = n1 log l1 + n2 log l2 falls to the lower corner
        ((0.0, 0.0, 0.0), (0.5, 0.5), (2.0, 2.0), (0.5, 0.5)),
        # diagonal Q: l_k = sqrt(q_kk / n_k) = (1, 2), inside the box
        ((50.0, 0.0, 400.0), (0.5, 0.5), (3.0, 3.0), (1.0, 2.0)),
        # same optimum, box cuts l2 at 1.5: the edge minimizer
        ((50.0, 0.0, 400.0), (0.5, 0.5), (3.0, 1.5), (1.0, 1.5)),
    ])
    def test_known_optima(self, q, lo, hi, expect):
        got = _argmax_two_scales(*q, 50, 100, np.array(lo), np.array(hi))
        assert got == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("factory,kw,sigma,rates", [
        (state_dependent, {}, [1.0, 1.5], (1.0, 2.0)),
        (state_dependent, {}, [1.0, 1.5], (2.0, 1.0)),
        (scalar_bm, {}, [1.0], (1.0, 2.5)),
        # narrow boxes pin one or both scales to the boundary
        (state_dependent, {"box": ((0.4, 0.9), (0.4, 2.5))}, [1.0, 1.5],
         (1.0, 2.0)),
        (scalar_bm, {"box": ((0.2, 0.5),)}, [2.5], (1.0, 1.0)),
    ])
    def test_engine_matches_simplex(self, factory, kw, sigma, rates):
        model = factory(**kw)
        g = poisson_grid(*rates, 1.0, bn=150, seed=3)
        sample = _sample(factory(), sigma, g, seed=4)
        closed = qmle_detail(QuasiLikEngine(model, sample))
        simplex = qmle_detail(QuasiLikEngine(
            dataclasses.replace(model, scales=None), sample))
        assert closed.sigma == pytest.approx(simplex.sigma, rel=1e-6)
        assert closed.value >= simplex.value - 1e-10 * (1 + abs(simplex.value))
        assert closed.on_boundary == simplex.on_boundary
        assert closed.degenerate == simplex.degenerate is False
        assert closed.n_evaluations == 2 * model.dim_param + 2

    def test_needs_scales(self):
        model = correlated_bm()
        g = poisson_grid(1.0, 1.0, 1.0, bn=30, seed=1)
        engine = QuasiLikEngine(model, _sample(model, [1.0, 0.5], g))
        with pytest.raises(EstimationError):
            engine.scale_argmax()


class TestLoglikBatch:
    """``loglik_batch`` agrees with ``loglik`` point by point."""

    @pytest.mark.parametrize("factory,sigma,rates", [
        (state_dependent, [1.0, 1.5], (1.0, 2.0)),
        (state_dependent, [1.0, 1.5], (2.0, 1.0)),
        (scalar_bm, [1.0], (1.0, 2.5)),
        (correlated_bm, [1.0, 0.5], (1.0, 2.0)),
    ])
    def test_matches_pointwise(self, factory, sigma, rates):
        model = factory()
        g = poisson_grid(*rates, 1.0, bn=80, seed=2)
        engine = QuasiLikEngine(model, _sample(model, sigma, g, seed=5))
        lo, hi = model.param_box[:, 0], model.param_box[:, 1]
        pts = np.random.default_rng(0).uniform(lo, hi, (60, lo.size))
        got = engine.loglik_batch(pts)
        ref = np.array([engine.loglik(p) for p in pts])
        if model.scales is None:
            assert np.array_equal(got, ref)
        else:
            assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))

    def test_failed_unit_factor_gives_minus_inf(self):
        model = dataclasses.replace(
            make_constant_model([[1.0, 0.0], [1.0, 0.0]], sigma_scales=True),
            scales=(0, 0))
        g = uniform_grid(4, 4, 0.0, 1.0)
        engine = QuasiLikEngine(model, _sample(model, [1.0], g))
        got = engine.loglik_batch(np.array([[0.5], [1.0], [3.0]]))
        assert np.array_equal(got, np.full(3, -np.inf))
        with pytest.raises(NotPositiveDefiniteError):
            engine.scale_argmax()

    def test_rejects_bad_points(self):
        model = state_dependent()
        g = poisson_grid(1.0, 2.0, 1.0, bn=30, seed=1)
        engine = QuasiLikEngine(model, _sample(model, [1.0, 1.5], g))
        with pytest.raises(ParameterOutOfDomainError):
            engine.loglik_batch(np.array([[1.0, 1.0], [1.0, 9.0]]))
        with pytest.raises(ValueError):
            engine.loglik_batch(np.array([1.0, 1.0]))
