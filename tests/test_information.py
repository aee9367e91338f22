import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nsvol.errors import (CoverageError, ParameterOutOfDomainError,
                          SchemeError)
from nsvol.information import (InformationResult, TraceDensities, _states_at,
                               identifiability_profile, information_matrix,
                               information_matrix_mc, trace_densities)
from nsvol.models import correlated_bm, scalar_bm, state_dependent
from nsvol.scheme import poisson_grid, uniform_grid
from nsvol.sde import DiffusionModel, simulate_path

from conftest import make_constant_model


# -- the per-bin formula route as it was before the array rewrite, kept
# verbatim apart from the names as the oracle


def old_coeff_geometry(model, t, x, sigma):
    """(|b1|, |b2|, rho) at a single evaluation point."""
    b1, b2 = model.coeff_rows(np.atleast_1d(t), np.atleast_2d(x), sigma)
    n1 = float(np.sqrt(b1[0] @ b1[0]))
    n2 = float(np.sqrt(b2[0] @ b2[0]))
    rho = float(b1[0] @ b2[0]) / (n1 * n2)
    return n1, n2, rho


def old_information_matrix(model: DiffusionModel, sigma_star, densities:
                       TraceDensities, coeff_path="constant", *,
                       z_step=1e-4, sigma_step=1e-6, rho_eps=1e-12
                       ) -> InformationResult:
    """Information matrix from the trace-density integral.

    ``coeff_path`` is ``"constant"`` (coefficients read at the initial
    state; exact for constant-coefficient models) or a ``(times, values)``
    path supplying the state left-point per bin.  Parameter derivatives of
    the coefficient ratios use central differences with step
    ``sigma_step * max(1, |sigma_j|)``; the density's correlation slope
    uses a central step of ``z_step``.  Bins where the instantaneous
    correlation vanishes drop the correlation terms and are flagged.
    """
    sigma_star = np.asarray(sigma_star, dtype=float)
    d = sigma_star.size
    edges = densities.bin_edges
    t_left = edges[:-1]
    width = densities.bin_width
    states = _states_at(coeff_path, t_left, model.y0)

    h = sigma_step * np.maximum(1.0, np.abs(sigma_star))
    geoms = []
    for k in range(densities.bins):
        n1, n2, rho = old_coeff_geometry(model, t_left[k], states[k], sigma_star)
        dn1 = np.empty(d)
        dn2 = np.empty(d)
        drho = np.empty(d)
        for j in range(d):
            up = sigma_star.copy(); up[j] += h[j]
            dn = sigma_star.copy(); dn[j] -= h[j]
            n1u, n2u, ru = old_coeff_geometry(model, t_left[k], states[k], up)
            n1d, n2d, rd = old_coeff_geometry(model, t_left[k], states[k], dn)
            dn1[j] = (n1u - n1d) / (2 * h[j])
            dn2[j] = (n2u - n2d) / (2 * h[j])
            drho[j] = (ru - rd) / (2 * h[j])
        # ratio of frozen numerator to moving denominator: derivative is
        # the negated log-derivative of the coefficient norm
        dB1 = -dn1 / n1
        dB2 = -dn2 / n2
        geoms.append((rho, dB1, dB2, drho))

    sup_rho = max(abs(g[0]) for g in geoms)
    if sup_rho + z_step >= densities.z_max:
        raise CoverageError(
            f"sup |rho| = {sup_rho:.6f} exceeds the usable density radius")

    contribs = np.zeros((densities.bins, d, d))
    rho_zero_bins = []
    for k, (rho, dB1, dB2, drho) in enumerate(geoms):
        t_eval = t_left[k] + 0.5 * width  # interior point of bin k
        a_val = densities.a(rho, t_eval)
        c_val = densities.c(rho, t_eval)
        a0 = densities.a(0.0, t_eval)
        term = (2.0 * a_val * np.outer(dB1, dB1)
                + 2.0 * c_val * np.outer(dB2, dB2))
        if abs(rho) < rho_eps:
            rho_zero_bins.append(k)
        else:
            dz_a = (densities.a(rho + z_step, t_eval)
                    - densities.a(rho - z_step, t_eval)) / (2 * z_step)
            term = term + dz_a * np.outer(drho, drho) / rho
            v = drho / rho - dB1 - dB2
            term = term - (a_val - a0) * np.outer(v, v)
        contribs[k] = term * width
    matrix = contribs.sum(axis=0)
    return InformationResult(matrix=matrix, route="formula",
                             bin_contributions=contribs,
                             rho_zero_bins=rho_zero_bins,
                             meta={"sup_rho": sup_rho,
                                   "z_margin": densities.z_max - sup_rho})


def old_identifiability_profile(model: DiffusionModel, sigma_star, densities:
                            TraceDensities, sigma_list, coeff_path="constant",
                            rho_nodes=21):
    """Diagnostic contrast functional over a parameter list.

    Evaluates, for each trial parameter, the limit of the scaled
    quasi-log-likelihood difference from the true parameter; it is zero at
    the truth and strictly negative elsewhere exactly when the model is
    identifiable on the scheme.  Diagnostics only: nothing on the
    estimation path consumes it.
    """
    sigma_star = np.asarray(sigma_star, dtype=float)
    edges = densities.bin_edges
    t_left = edges[:-1]
    width = densities.bin_width
    states = _states_at(coeff_path, t_left, model.y0)
    xi, wi = leggauss(rho_nodes)

    out = []
    for sigma in sigma_list:
        sigma = np.asarray(sigma, dtype=float)
        total = 0.0
        for k in range(densities.bins):
            t_eval = t_left[k] + 0.5 * width
            n1s, n2s, rho_star = old_coeff_geometry(model, t_left[k], states[k],
                                                 sigma_star)
            n1, n2, rho = old_coeff_geometry(model, t_left[k], states[k], sigma)
            B1 = n1s / n1
            B2 = n2s / n2
            a_r = densities.a(rho, t_eval)
            c_r = densities.c(rho, t_eval)
            a0 = densities.a(0.0, t_eval)
            c0 = densities.c(0.0, t_eval)
            val = (-0.5 * B1 * B1 * a_r - 0.5 * B2 * B2 * c_r
                   + 0.5 * a0 + 0.5 * c0
                   + a0 * np.log(B1) + c0 * np.log(B2))
            if abs(rho) > 1e-12:
                val += B1 * B2 * (a_r - a0) * rho_star / rho
            # integral of (a(r) - a0)/r between the two correlations
            lo, hi = rho_star, rho
            if abs(hi - lo) > 1e-14:
                nodes = lo + 0.5 * (xi + 1.0) * (hi - lo)
                w = 0.5 * (hi - lo) * wi
                vals = np.empty(rho_nodes)
                for m, r in enumerate(nodes):
                    if abs(r) < 1e-10:
                        vals[m] = 0.0
                    else:
                        vals[m] = (densities.a(r, t_eval) - a0) / r
                val += float(vals @ w)
            total += val * width
        out.append(total)
    return np.asarray(out)


def mixed_rho_model():
    """Correlation sigma[1] * x1 where x1 > 0 and exactly zero elsewhere."""

    def diffusion(t, x, sigma):
        s, k = sigma
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = k * np.maximum(x[:, 0], 0.0)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = s
        out[:, 1, 0] = s * r
        out[:, 1, 1] = s * np.sqrt(1.0 - r * r)
        return out

    return DiffusionModel(
        dim_param=2, drift=lambda t, x, s: 0.0 * np.atleast_2d(x),
        diffusion=diffusion, param_box=((0.5, 2.0), (0.1, 0.9)),
        y0=(0.0, 0.0), name="mixed_rho")


def sine_path(bins):
    """x1 = sin(2 pi t) at the bin edges: x1 > 0 on (0, 1/2) only."""
    times = np.linspace(0.0, 1.0, bins + 1)
    return times, np.column_stack([np.sin(2 * np.pi * times),
                                   np.zeros_like(times)])


class TestTraceDensities:
    def test_synchronous_uniform_closed_form(self):
        # G is the identity: the trace density is constant in time and the
        # resolvent is the scalar geometric value
        n, T = 64, 1.0
        dens = trace_densities([uniform_grid(n, n, 0.0, T)], bins=8)
        for z in (0.0, 0.4, 0.8):
            expected = 1.0 / (2 * T * (1 - z * z))
            assert np.allclose(dens.a_bins(z), expected, rtol=1e-12)
            assert np.allclose(dens.c_bins(z), expected, rtol=1e-12)

    def test_zero_z_counting_density(self):
        n = 40
        g = uniform_grid(n, n // 2, 0.5, 1.0)
        dens = trace_densities([g], bins=10)
        assert dens.a(0.0, 0.55) == pytest.approx(n / (g.bn * g.horizon),
                                                  rel=1e-9)

    def test_identity_residual_small(self):
        grids = [poisson_grid(1.0, 1.4, 1.0, bn=150, seed=s) for s in range(4)]
        dens = trace_densities(grids, bins=16)
        for z in (0.25, 0.6, 0.9):
            assert dens.identity_residual(z) <= 1e-8

    def test_monotone_in_z(self):
        grids = [poisson_grid(1.0, 1.0, 1.0, bn=120, seed=s) for s in range(3)]
        dens = trace_densities(grids, bins=12)
        prev = dens.a_bins(0.0)
        for z in (0.3, 0.6, 0.9):
            cur = dens.a_bins(z)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_left_continuity_binning(self):
        dens = trace_densities([uniform_grid(16, 16, 0.0, 1.0)], bins=4)
        # a bin edge belongs to the lower bin
        assert dens._bin_index(0.25) == 0
        assert dens._bin_index(0.2500001) == 1
        with pytest.raises(SchemeError):
            dens.a(0.0, 0.0)

    def test_domain_validation(self):
        with pytest.raises(SchemeError):
            trace_densities([])
        g1 = uniform_grid(4, 4, 0.0, 1.0)
        g2 = uniform_grid(4, 4, 0.0, 2.0)
        with pytest.raises(SchemeError):
            trace_densities([g1, g2])
        dens = trace_densities([g1])
        with pytest.raises(SchemeError):
            dens.a(1.0, 0.5)


class TestInformationFormula:
    def test_scalar_closed_form(self):
        # independent components, synchronous grids scaled per side: 4/s^2
        model = scalar_bm()
        n = 256
        dens = trace_densities([uniform_grid(n, n, 0.0, 1.0, bn=n)], bins=8)
        for s in (0.7, 1.0, 1.9):
            res = information_matrix(model, [s], dens)
            assert res.matrix[0, 0] == pytest.approx(4 / s ** 2, rel=1e-9)
            assert res.route == "formula"
        assert len(res.rho_zero_bins) == 8  # orthogonal rows: rho == 0

    def test_sigma_free_zero(self, sigma_free_model):
        dens = trace_densities([uniform_grid(32, 32, 0.0, 1.0)], bins=4)
        res = information_matrix(sigma_free_model, [1.0], dens)
        assert np.allclose(res.matrix, 0.0, atol=1e-12)

    def test_rho_zero_branch_drops_correlation_terms(self):
        # correlation parameter at zero: only the scale couples, through the
        # norm-ratio terms; the correlation slope enters the (2,2) entry
        model = correlated_bm()
        n = 128
        dens = trace_densities([uniform_grid(n, n, 0.0, 1.0)], bins=4)
        res = information_matrix(model, [1.0, 0.0], dens)
        assert len(res.rho_zero_bins) == 4
        a0 = dens.a(0.0, 0.5)
        # with rho = 0 only 2 a0 (dB1)^2 + 2 c0 (dB2)^2 survives
        assert res.matrix[0, 0] == pytest.approx(4 * a0, rel=1e-9)
        assert res.matrix[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert res.matrix[1, 1] == pytest.approx(0.0, abs=1e-9)

    def test_coverage_error_when_rho_too_large(self):
        q = np.sqrt(1 - 0.999999 ** 2)
        model = make_constant_model([[1.0, 0.0], [0.999999, q]])
        dens = trace_densities([uniform_grid(16, 16, 0.0, 1.0)], bins=4)
        with pytest.raises(CoverageError):
            information_matrix(model, [1.0], dens)

    def test_zero_norm_row_refused(self):
        # a zero side-1 row leaves rho = 0/0; both routes through the bin
        # geometry refuse it, naming the side, the bin, its time and sigma
        model = make_constant_model([[0.0, 0.0], [0.3, 0.9]])
        dens = trace_densities([uniform_grid(16, 16, 0.0, 1.0)], bins=4)
        match = r"side-1 .* sigma = \[1\.0\], first in bin 0 \(left time 0\.0\)"
        with pytest.raises(ParameterOutOfDomainError, match=match):
            information_matrix(model, [1.0], dens)
        with pytest.raises(ParameterOutOfDomainError, match=match):
            identifiability_profile(model, [1.0], dens, [[2.0]])

    def test_bin_contributions_sum(self):
        model = correlated_bm()
        grids = [poisson_grid(1.0, 1.0, 1.0, bn=100, seed=s) for s in range(3)]
        dens = trace_densities(grids, bins=8)
        res = information_matrix(model, [1.0, 0.5], dens)
        assert np.allclose(res.bin_contributions.sum(axis=0), res.matrix)
        assert np.allclose(res.matrix, res.matrix.T)


class TestInformationEmpirical:
    def test_sigma_free_zero(self, sigma_free_model):
        gen = lambda seed: poisson_grid(1.0, 1.0, 1.0, bn=60, seed=seed)
        res = information_matrix_mc(sigma_free_model, [1.0], gen,
                                    replicates=3, seed=0)
        assert np.allclose(res.matrix, 0.0, atol=1e-4)

    def test_replicate_validation(self):
        with pytest.raises(ValueError):
            information_matrix_mc(scalar_bm(), [1.0], lambda s: None,
                                  replicates=1)

    def test_two_route_consistency_small(self):
        model = correlated_bm()
        sigma = [1.0, 0.5]
        gen = lambda seed: poisson_grid(1.0, 1.0, 1.0, bn=250, seed=seed)
        grids = [gen([77, k]) for k in range(24)]
        dens = trace_densities(grids, bins=32)
        formula = information_matrix(model, sigma, dens)
        mc = information_matrix_mc(model, sigma, gen, replicates=48, seed=19)
        assert np.all(np.abs(formula.matrix - mc.matrix) <= 3.0 * mc.se)

    def test_scalar_closed_form_route(self):
        model = scalar_bm()
        n = 200
        gen = lambda seed: uniform_grid(n, n, 0.0, 1.0, bn=n)
        res = information_matrix_mc(model, [1.0], gen, replicates=32, seed=3)
        assert res.matrix[0, 0] == pytest.approx(4.0, rel=0.05)
        assert res.se.shape == (1, 1)


class TestIdentifiabilityProfile:
    def test_zero_at_truth_negative_elsewhere(self):
        model = correlated_bm()
        grids = [poisson_grid(1.0, 1.0, 1.0, bn=150, seed=s) for s in range(6)]
        dens = trace_densities(grids, bins=16)
        sigma_star = np.array([1.0, 0.5])
        vals = identifiability_profile(
            model, sigma_star, dens,
            [sigma_star, [1.3, 0.5], [1.0, 0.1], [0.7, -0.2]])
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert np.all(vals[1:] < 0)

    def test_curvature_matches_information(self):
        model = correlated_bm()
        grids = [poisson_grid(1.0, 1.0, 1.0, bn=120, seed=s) for s in range(4)]
        dens = trace_densities(grids, bins=16)
        sigma_star = np.array([1.0, 0.4])
        gamma = information_matrix(model, sigma_star, dens).matrix
        h = 1e-4
        hess = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for si in (1, -1):
                    for sj in (1, -1):
                        p = sigma_star.copy()
                        p[i] += si * h
                        p[j] += sj * h
                        acc += si * sj * identifiability_profile(
                            model, sigma_star, dens, [p])[0]
                hess[i, j] = acc / (4 * h * h)
        assert np.allclose(-hess, gamma, rtol=1e-3, atol=1e-6)

    def test_state_dependent_path_branch(self):
        # non-separable coefficients: the norm ratios depend on the state,
        # so the supplied-path branch must differ from the constant branch
        from nsvol.sde import DiffusionModel, simulate_path

        q0 = np.sqrt(1 - 0.16)

        def shape(u):
            return u / np.sqrt(1.0 + u * u)

        def diffusion(t, x, sigma):
            s1, s2 = sigma
            x = np.atleast_2d(np.asarray(x, dtype=float))
            e1 = s1 + 0.25 * s2 * shape(x[:, 1])
            e2 = s2 + 0.25 * s1 * shape(x[:, 0])
            out = np.zeros((x.shape[0], 2, 2))
            out[:, 0, 0] = e1
            out[:, 1, 0] = 0.4 * e2
            out[:, 1, 1] = q0 * e2
            return out

        model = DiffusionModel(
            dim_param=2,
            drift=lambda t, x, s: 0.0 * np.atleast_2d(x),
            diffusion=diffusion,
            param_box=((0.8, 2.0), (0.8, 2.0)), y0=(0.0, 0.0))
        sigma = np.array([1.0, 1.0])
        grid = poisson_grid(1.0, 1.0, 1.0, bn=200, seed=2)
        path = simulate_path(model, sigma, grid, seed=3)
        grids = [poisson_grid(1.0, 1.0, 1.0, bn=200, seed=s) for s in range(4)]
        dens = trace_densities(grids, bins=16)
        res = information_matrix(model, sigma, dens,
                                 coeff_path=(grid.merged, path))
        assert np.all(np.isfinite(res.matrix))
        assert np.linalg.eigvalsh(res.matrix)[0] > 0
        res0 = information_matrix(model, sigma, dens, coeff_path="constant")
        assert not np.allclose(res.matrix, res0.matrix)

    def test_positive_definite_information(self):
        # identifiable built-ins must yield a PD limit information
        for model, sigma in ((scalar_bm(), [1.2]),
                             (correlated_bm(), [0.9, 0.35])):
            grids = [poisson_grid(1.0, 1.0, 1.0, bn=150, seed=s)
                     for s in range(4)]
            dens = trace_densities(grids, bins=16)
            gamma = information_matrix(model, sigma, dens).matrix
            assert np.linalg.eigvalsh(gamma)[0] > 0


def _poisson_densities(bn=100, count=3, bins=8):
    grids = [poisson_grid(1.0, 1.0, 1.0, bn=bn, seed=s) for s in range(count)]
    return trace_densities(grids, bins=bins)


def _statedep_path(sigma):
    model = state_dependent()
    grid = poisson_grid(1.0, 1.0, 1.0, bn=120, seed=5)
    return grid.merged, simulate_path(model, sigma, grid, seed=6)


ORACLE_CASES = {
    # synchronous uniform grid: every bin has rho = 0 and the value is 4
    "bm1": lambda: (scalar_bm(), [1.0], trace_densities(
        [uniform_grid(64, 64, 0.0, 1.0, bn=64)], bins=8), "constant",
        [[1.0], [1.3], [0.7]]),
    "corr": lambda: (correlated_bm(), [1.0, 0.5], _poisson_densities(),
                     "constant",
                     [[1.0, 0.5], [1.2, 0.5], [1.0, 0.3], [0.8, -0.2]]),
    "corr_rho0": lambda: (correlated_bm(), [1.0, 0.0], _poisson_densities(),
                          "constant", [[1.0, 0.0], [1.1, 0.2], [0.9, -0.1]]),
    "statedep": lambda: (state_dependent(), [1.0, 1.2], _poisson_densities(),
                         "constant", [[1.0, 1.2], [1.3, 1.0]]),
    "statedep_path": lambda: (state_dependent(), [1.0, 1.2],
                              _poisson_densities(bins=16),
                              _statedep_path([1.0, 1.2]),
                              [[1.0, 1.2], [0.8, 1.5]]),
    "sigma_free": lambda: (make_constant_model(
        [[1.0, 0.0], [0.3, np.sqrt(1 - 0.09)]]), [1.0],
        _poisson_densities(), "constant", [[1.0], [2.0]]),
    "mixed_rho": lambda: (mixed_rho_model(), [1.0, 0.5],
                          _poisson_densities(bn=60, count=2, bins=16),
                          sine_path(16),
                          [[1.0, 0.5], [1.2, 0.5], [1.0, 0.7]]),
}


def _assert_close(new, old):
    old = np.asarray(old)
    scale = np.max(np.abs(old))
    tol = np.where(old == 0.0, 1e-15, 1e-13 * scale)
    assert np.all(np.abs(np.asarray(new) - old) <= tol)


class TestPerBinOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_bin_route(self, case):
        model, sigma_star, dens, path, trials = ORACLE_CASES[case]()
        cached = set(dens._by_z)
        new = information_matrix(model, sigma_star, dens, path)
        if len(new.rho_zero_bins) == dens.bins:
            # flagged bins look up no density beyond rho itself
            assert set(dens._by_z) == cached
        old = old_information_matrix(model, sigma_star, dens, path)
        _assert_close(new.matrix, old.matrix)
        _assert_close(new.bin_contributions, old.bin_contributions)
        assert new.rho_zero_bins == old.rho_zero_bins
        for key in ("sup_rho", "z_margin"):
            assert abs(new.meta[key] - old.meta[key]) <= 1e-15
        new_profile = identifiability_profile(model, sigma_star, dens,
                                              trials, path)
        old_profile = old_identifiability_profile(model, sigma_star, dens,
                                                  trials, path)
        assert np.all(np.abs(new_profile - old_profile) <= 1e-13)
        if case == "bm1":
            assert new.matrix[0, 0] == pytest.approx(4.0, rel=1e-9)
            assert len(new.rho_zero_bins) == 8

    def test_coverage_error_on_both_routes(self):
        q = np.sqrt(1 - 0.999999 ** 2)
        model = make_constant_model([[1.0, 0.0], [0.999999, q]])
        dens = trace_densities([uniform_grid(16, 16, 0.0, 1.0)], bins=4)
        for route in (information_matrix, old_information_matrix):
            with pytest.raises(CoverageError):
                route(model, [1.0], dens)


class TestMixedRhoBins:
    def test_flagged_bins_keep_only_the_norm_terms(self):
        # rho is exactly 0 where sin(2 pi t) <= 0, about 1e-16 times 0.5 at
        # t = 1/2 (below the cutoff), and positive on bins 1-7
        model = mixed_rho_model()
        dens = _poisson_densities(bn=60, count=2, bins=16)
        res = information_matrix(model, [1.0, 0.5], dens, sine_path(16))
        assert res.rho_zero_bins == [0] + list(range(8, 16))
        assert np.all(np.isfinite(res.bin_contributions))
        flagged = res.bin_contributions[res.rho_zero_bins]
        assert np.all(flagged[:, 0, 0] > 0)
        assert np.all(flagged[:, [0, 1, 1], [1, 0, 1]] == 0.0)
        assert np.all(res.bin_contributions[1:8, 1, 1] > 0)


class TestParameterLength:
    def test_information_matrix_rejects_wrong_length(self):
        dens = _poisson_densities(bn=40, count=1, bins=4)
        with pytest.raises(ParameterOutOfDomainError, match="dim_param=2"):
            information_matrix(correlated_bm(), [1.0], dens)

    def test_profile_rejects_wrong_length_trial_point(self):
        dens = _poisson_densities(bn=40, count=1, bins=4)
        with pytest.raises(ParameterOutOfDomainError, match="dim_param=2"):
            identifiability_profile(correlated_bm(), [1.0, 0.5], dens,
                                    [[1.0, 0.5], [1.0]])
