"""Acceptance suite: each numbered criterion at its stated tolerance.

Every test prints one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  The Monte Carlo fixtures are module-scoped;
the criteria that read them (6-9) are marked ``slow``, because
``mc_corr_1000`` alone takes about three minutes.
"""

import time

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from nsvol.estimate import qmle
from nsvol.harness import ExperimentConfig, run_mc
from nsvol.information import (information_matrix, information_matrix_mc,
                               trace_densities)
from nsvol.likelihood import QuasiLikEngine
from nsvol.models import correlated_bm, scalar_bm, state_dependent
from nsvol.scheme import (check_a2, overlap_matrix, poisson_grid,
                          resolvent_trace, uniform_grid)
from nsvol.sde import observe, simulate_path

from test_scheme import counterexample_grid


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def _engine(model, sigma, grid, seed, **kw):
    sample = observe(simulate_path(model, sigma, grid, seed=seed), grid)
    return QuasiLikEngine(model, sample, **kw)


# -- shared Monte Carlo runs -------------------------------------------------


@pytest.fixture(scope="module")
def mc_scalar_1000():
    cfg = ExperimentConfig(model="bm1", sigma_star=[1.0], bn_ladder=[1000],
                           replicates=1000, seed=2026, do_bayes=True)
    return run_mc(cfg)


@pytest.fixture(scope="module")
def mc_scalar_ladder():
    cfg = ExperimentConfig(model="bm1", sigma_star=[1.0],
                           bn_ladder=[250, 1000, 4000], replicates=200,
                           seed=515, do_bayes=True)
    return run_mc(cfg)


@pytest.fixture(scope="module")
def mc_corr_1000():
    cfg = ExperimentConfig(model="corr", sigma_star=[1.0, 0.5],
                           bn_ladder=[1000], replicates=1000, seed=99,
                           do_bayes=False)
    return run_mc(cfg)


# -- criterion 1: banded oracle equivalence and large-n speed ----------------


def test_criterion_01_banded_dense_equivalence():
    model = correlated_bm()
    sigma = np.array([1.0, 0.5])
    worst = 0.0
    rng = np.random.default_rng(1)
    for k in range(200):
        bn = int(rng.integers(40, 501))
        r2 = float(rng.uniform(0.5, 2.0))
        grid = poisson_grid(1.0, r2, 1.0, bn=bn, seed=[10, k])
        engine = _engine(model, sigma, grid, seed=[11, k])
        trial = np.array([rng.uniform(0.6, 1.8), rng.uniform(-0.7, 0.7)])
        hb = engine.loglik(trial)
        hd = engine.loglik_dense(trial)
        worst = max(worst, abs(hb - hd) / (1.0 + abs(hd)))
    ok_acc = worst <= 1e-8

    big = uniform_grid(100_000, 70_000, 0.5, 1.0)
    ov = overlap_matrix(big)
    sample = observe(simulate_path(model, sigma, big, max_step=1.0, seed=12),
                     big)
    t0 = time.perf_counter()
    engine = QuasiLikEngine(model, sample)
    engine.loglik(sigma)
    elapsed = time.perf_counter() - t0
    ok_speed = ov.bandwidth <= 16 and elapsed < 1.0
    _report(1, ok_acc and ok_speed,
            f"max rel gap {worst:.2e} over 200 grids; n=1e5 setup+eval "
            f"{elapsed * 1e3:.0f} ms at bandwidth {ov.bandwidth}")


# -- criterion 2: synchronous exactness ---------------------------------------


def test_criterion_02_synchronous_exactness():
    model = correlated_bm()
    sigma0 = [1.0, 0.5]
    grid = uniform_grid(200, 200, 0.0, 1.0)
    sample = observe(simulate_path(model, sigma0, grid, seed=7), grid)
    engine = QuasiLikEngine(model, sample)

    def exact(sig):
        from nsvol.likelihood import build_S
        S = build_S(model, sig, sample).to_dense()
        return multivariate_normal(mean=np.zeros(S.shape[0]),
                                   cov=S).logpdf(sample.z)

    pairs = [([1.0, 0.5], [0.8, 0.3]), ([1.3, -0.2], [0.9, 0.6]),
             ([2.0, 0.0], [0.7, 0.45])]
    worst = max(abs((engine.loglik(a) - engine.loglik(b))
                    - (exact(a) - exact(b))) for a, b in pairs)
    _report(2, worst <= 1e-10,
            f"max |quasi-LR - exact Gaussian LR| = {worst:.2e}")


# -- criterion 3: derivative checks -------------------------------------------


def test_criterion_03_gradient_hessian():
    rng = np.random.default_rng(3)
    worst_grad = 0.0
    worst_sym = 0.0
    for factory, lo, hi in ((correlated_bm, [0.6, -0.6], [1.8, 0.6]),
                            (state_dependent, [0.6, 0.6], [1.8, 1.8])):
        model = factory()
        grid = poisson_grid(1.0, 1.2, 1.0, bn=150, seed=31)
        engine = _engine(model, np.array([1.0, 0.5 if factory is correlated_bm
                                          else 1.0]), grid, seed=32)
        for _ in range(4):
            sigma = rng.uniform(lo, hi)
            fd = engine.gradient(sigma, method="fd")
            an = engine.gradient(sigma, method="analytic")
            worst_grad = max(worst_grad,
                             float(np.max(np.abs(fd - an) / (1 + np.abs(an)))))
            H = engine.hessian(sigma)
            worst_sym = max(worst_sym, float(np.max(np.abs(H - H.T))))
    ok = worst_grad <= 1e-5 and worst_sym <= 1e-8
    _report(3, ok, f"analytic-FD gradient rel err {worst_grad:.2e}; "
                   f"Hessian asymmetry {worst_sym:.2e}")


# -- criterion 4: spectral identity -------------------------------------------


def test_criterion_04_spectral_identity():
    grids = [uniform_grid(300, 300, 0.0, 1.0),
             uniform_grid(400, 250, 0.5, 1.0),
             poisson_grid(1.0, 1.0, 1.0, bn=400, seed=41),
             poisson_grid(1.0, 2.0, 1.0, bn=300, seed=42),
             poisson_grid(0.7, 1.0, 1.0, bn=500, seed=43)]
    worst = 0.0
    for grid in grids:
        ov = overlap_matrix(grid)
        for z in np.arange(0.1, 0.95, 0.1):
            t1 = resolvent_trace(ov, z, side=1) - ov.rows
            t2 = resolvent_trace(ov, z, side=2) - ov.cols
            worst = max(worst, abs(t1 - t2))
    _report(4, worst <= 1e-10, f"max spectral-identity residual {worst:.2e}")


# -- criterion 5: information two-route consistency ---------------------------


def test_criterion_05_information_two_routes():
    model = correlated_bm()
    sigma_star = np.array([1.0, 0.5])

    def gen(seed):
        return poisson_grid(1.0, 1.0, 1.0, bn=1000, seed=seed)

    grids = [gen([314, k]) for k in range(48)]
    densities = trace_densities(grids, bins=64)
    formula = information_matrix(model, sigma_star, densities)
    empirical = information_matrix_mc(model, sigma_star, gen,
                                      replicates=200, seed=41)
    gaps = np.abs(formula.matrix - empirical.matrix) / empirical.se
    ok_corr = bool(np.all(gaps <= 3.0))

    n = 1000
    scalar = scalar_bm()
    dens_s = trace_densities([uniform_grid(n, n, 0.0, 1.0, bn=n)], bins=64)
    f_s = information_matrix(scalar, [1.0], dens_s).matrix[0, 0]
    e_s = information_matrix_mc(
        scalar, [1.0], lambda s: uniform_grid(n, n, 0.0, 1.0, bn=n),
        replicates=200, seed=5).matrix[0, 0]
    ok_scalar = abs(f_s - 4.0) <= 0.2 and abs(e_s - 4.0) <= 0.2
    _report(5, ok_corr and ok_scalar,
            f"correlated max |formula-MC|/SE = {gaps.max():.2f}; scalar "
            f"formula {f_s:.4f}, MC {e_s:.4f} vs 4.0")


# -- criterion 6: LAMN studentization -----------------------------------------


@pytest.mark.slow
def test_criterion_06_lamn_ks(mc_scalar_1000):
    block = mc_scalar_1000.summaries["per_n"]["1000"]["studentized"]
    pmin = min(block["ks_pvalue"])
    ok = pmin >= 0.01 and all(block["abs_mean_within_3se"])
    _report(6, ok, f"KS p-values {block['ks_pvalue']}, means "
                   f"{block['mean']} (SE {block['mean_se']})")


# -- criterion 7: convergence rate --------------------------------------------


@pytest.mark.slow
def test_criterion_07_rate(mc_scalar_ladder):
    slope = mc_scalar_ladder.summaries["rmse_slope"]
    _report(7, -0.65 <= slope <= -0.35, f"log-log RMSE slope {slope:.3f}")


# -- criterion 8: efficiency versus overlap covariation -----------------------


@pytest.mark.slow
def test_criterion_08_efficiency(mc_corr_1000):
    entry = mc_corr_1000.summaries["per_n"]["1000"]
    reps = entry["replicates"]
    rho_T = 0.5
    hy_gap = abs(entry["hy_mean"] - rho_T)
    hy_3se = 3 * np.sqrt(entry["hy_var"] / reps)
    plug_gap = abs(entry["plugin_mean"] - rho_T)
    plug_3se = 3 * np.sqrt(entry["plugin_var"] / reps)
    ratio = entry["variance_ratio"]
    ok = ratio < 1.0 and hy_gap <= hy_3se and plug_gap <= plug_3se
    _report(8, ok, f"var(plugin)/var(HY) = {ratio:.3f}; bias/3SE: "
                   f"HY {hy_gap:.4f}/{hy_3se:.4f}, "
                   f"plugin {plug_gap:.4f}/{plug_3se:.4f}")


# -- criterion 9: Bayes and QMLE agree ----------------------------------------


@pytest.mark.slow
def test_criterion_09_bayes_agreement(mc_scalar_ladder, mc_scalar_1000):
    gaps = [mc_scalar_ladder.summaries["per_n"][str(n)]
            ["bayes_qmle_median_gap"] for n in (250, 1000, 4000)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    block = mc_scalar_1000.summaries["per_n"]["1000"]["studentized_bayes"]
    pmin = min(block["ks_pvalue"])
    ok = monotone and pmin >= 0.01
    _report(9, ok, f"median |bayes-qmle| over ladder {gaps}; "
                   f"Bayes KS p-values {block['ks_pvalue']}")


# -- criterion 10: scheme condition diagnostics -------------------------------


def test_criterion_10_condition_diagnostics():
    clean = [uniform_grid(1000, 1000, 0.0, 1.0, bn=1000),
             uniform_grid(1000, 700, 0.5, 1.0, bn=1000)]
    clean += [poisson_grid(1.0, 1.0, 1.0, bn=1000, seed=s) for s in range(3)]
    all_clean = all(not check_a2(g).any_violation for g in clean)
    flagged = check_a2(counterexample_grid(1000)).side1.violation
    _report(10, all_clean and flagged,
            f"uniform+poisson clean: {all_clean}; clustered counterexample "
            f"flagged: {flagged}")


# -- supporting spot check: optimizer against the closed-form argmax ----------


def test_qmle_closed_form_spot_check():
    model = scalar_bm()
    n = 300
    grid = uniform_grid(n, n, 0.0, 1.0)
    engine = _engine(model, [1.0], grid, seed=6)
    closed = np.sqrt((engine.z ** 2).sum() / (2 * n))
    assert qmle(engine)[0] == pytest.approx(closed, abs=1e-6)
