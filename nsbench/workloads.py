"""The three closed-loop workloads of the ``nsvol`` benchmark.

Every workload calls the package through its public entry points, looked
up on the module at call time so that the traced run sees them wrapped.
A workload object offers

* ``setup()``: build this run's inputs from the seed and warm up;
  ``run.py`` times it several times and reports the median;
* ``op(i)``: timed op ``i``; inputs cycle in a fixed order, so one seed
  always gives the same ops;
* ``check_op(i, out)``: untimed check of one op's output, returning the
  reason it failed or ``None``;
* ``check_run(outputs)``: untimed checks over the whole run.

``ops_per_round`` ops form a round; a run attempts whole rounds only.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from nsvol import cli, harness, information, likelihood, models, scheme, sde

import checks

#: Index of the warm-up input, outside the range of timed ops.
WARMUP = 1 << 20


def _seed_list(seed, count):
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


class McCorr:
    """One Monte Carlo replicate of the ``corr`` model per op.

    Mirrors the acceptance fixture ``mc_corr_1000``: sigma* = (1.0, 0.5),
    Poisson rates 1:1, n = 1000, QMLE, observed information, HY and
    plug-in covariation, no Bayes.  Op ``i`` runs ``harness.run_mc`` on a
    one-replicate config whose seed is entry ``i`` of a list drawn from the
    run's seed.
    """

    name = "mc-corr"
    ops_per_round = 1
    N = 1000
    SIGMA = (1.0, 0.5)
    MIN_LAMN_OPS = 20

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = models.get_model("corr")

    def _config(self, replicate_seed):
        return harness.ExperimentConfig(
            model="corr", sigma_star=list(self.SIGMA), bn_ladder=[self.N],
            replicates=1, scheme="poisson", rate1=1.0, rate2=1.0,
            seed=replicate_seed, do_bayes=False, do_hy=True)

    def setup(self):
        self.seeds = _seed_list([self.seed, 0], 4096)
        self.op(WARMUP)

    def op(self, i):
        seed = (self.seeds[i % len(self.seeds)] if i != WARMUP
                else _seed_list([self.seed, 1], 1)[0])
        row = harness.run_mc(self._config(seed)).rows[0]
        if row.error is not None:
            raise RuntimeError(row.error)
        return seed, row

    def _engine(self, seed):
        """Engine on the replicate's sample, rebuilt from its seed streams.

        ``harness`` derives replicate streams from ``(seed, ladder index,
        replicate)``: ``[seed, 0, 0, 0]`` for the grid and ``[seed, 0, 0,
        1]`` for the path of the only replicate.
        """
        grid = scheme.poisson_grid(1.0, 1.0, 1.0, bn=self.N,
                                   seed=[seed, 0, 0, 0])
        path = sde.simulate_path(self.model, np.asarray(self.SIGMA), grid,
                                 seed=[seed, 0, 0, 1])
        return likelihood.QuasiLikEngine(self.model, sde.observe(path, grid))

    def check_op(self, i, out):
        seed, row = out
        engine = self._engine(seed)
        sample = engine.sample
        hat = np.asarray(row.sigma_hat)
        why = checks.local_argmax_failure(engine.loglik, hat,
                                          self.model.param_box)
        if why:
            return why
        s, r = hat
        plugin = s * s * r * sample.grid.horizon
        if abs(row.plugin - plugin) > 1e-12 * (1.0 + abs(plugin)):
            return f"plugin {row.plugin!r} != s^2 r T = {plugin!r}"
        hy = checks.hy_double_sum(sample.grid.s_times, sample.grid.t_times,
                                  sample.y1_obs, sample.y2_obs)
        if abs(row.hy - hy) > 1e-12 + 1e-10 * abs(hy):
            return f"HY {row.hy!r} != double sum {hy!r}"
        if i == 0:
            banded = engine.loglik(hat)
            dense = engine.loglik_dense(hat)
            if abs(banded - dense) > 1e-8 * (1.0 + abs(dense)):
                return f"banded loglik {banded!r} != dense {dense!r}"
        return None

    def check_run(self, outputs):
        """LAMN: studentized errors have mean zero, coordinate by coordinate."""
        sigma = np.asarray(self.SIGMA)
        stud = [math.sqrt(row.n) * checks.sym_sqrt(row.gamma_n)
                @ (np.asarray(row.sigma_hat) - sigma)
                for _, row in outputs if row.positive_definite]
        if len(stud) < self.MIN_LAMN_OPS:
            return [], [f"LAMN check skipped: {len(stud)} replicates"]
        stud = np.array(stud)
        mean = stud.mean(axis=0)
        se = stud.std(axis=0, ddof=1) / math.sqrt(len(stud))
        bad = [f"studentized mean {mean[j]:.3g} beyond 4 SE ({se[j]:.3g}) "
               f"in coordinate {j}" for j in range(sigma.size)
               if abs(mean[j]) > 4.0 * se[j]]
        return bad, []


class EstimateStatedep:
    """``nsvol estimate --bayes-adaptive`` on the ``statedep`` model.

    sigma* = (1.0, 1.5), Poisson rates 1:2 at n = 150, so side 2 holds the
    larger block and the engine runs in swapped orientation.  Set-up
    simulates ``POOL`` samples (the Euler loop of ``simulate_path``) and
    writes each as a grid JSON and a sample CSV; op ``i`` estimates from
    pool entry ``i mod POOL`` through ``nsvol.cli.main``.
    """

    name = "estimate-statedep"
    ops_per_round = 1
    N = 150
    RATES = (1.0, 2.0)
    SIGMA = (1.0, 1.5)
    POOL = 16
    #: |sigma_tilde - sigma_hat| may reach this share of the smallest
    #: posterior scale (bn * lambda_min(Gamma_n))^(-1/2).  The estimators
    #: are asymptotically equivalent, so the share shrinks like bn^(-1/2);
    #: at n = 150 it stayed within 0.08-0.26 over 20 samples.
    BAYES_GAP = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.model = models.get_model("statedep")

    def _paths(self, k):
        return (os.path.join(self.workdir, f"grid-{k}.json"),
                os.path.join(self.workdir, f"sample-{k}.csv"))

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.samples = []
        for k in range(self.POOL):
            grid = scheme.poisson_grid(*self.RATES, 1.0, bn=self.N,
                                       seed=[self.seed, k, 0])
            path = sde.simulate_path(self.model, np.asarray(self.SIGMA), grid,
                                     seed=[self.seed, k, 1])
            sample = sde.observe(path, grid)
            grid_path, sample_path = self._paths(k)
            scheme.save_grid_json(grid, grid_path)
            sde.write_sample_csv(sample, sample_path)
            self.samples.append(sample)
        engine = likelihood.QuasiLikEngine(self.model, self.samples[0])
        engine.loglik(np.asarray(self.SIGMA))

    def op(self, i):
        grid_path, sample_path = self._paths(i % self.POOL)
        out = os.path.join(self.workdir, f"outcome-{i}.json")
        code = cli.main(["estimate", "--grid", grid_path, "--sample",
                         sample_path, "--model", "statedep",
                         "--bayes-adaptive", "--out", out])
        if code != 0:
            raise RuntimeError(f"nsvol estimate exited with {code}")
        return out

    def check_op(self, i, out):
        k = i % self.POOL
        sample = self.samples[k]
        grid_path, sample_path = self._paths(k)
        grid = scheme.load_grid_json(grid_path)
        if not (np.array_equal(grid.s_times, sample.grid.s_times)
                and np.array_equal(grid.t_times, sample.grid.t_times)):
            return "grid file does not reproduce the grid"
        back = sde.read_sample_csv(sample_path, sample.grid)
        if not (np.array_equal(back.y1_obs, sample.y1_obs)
                and np.array_equal(back.y2_obs, sample.y2_obs)):
            return "sample file does not reproduce the sample"
        with open(out) as fh:
            doc = json.load(fh)
        hat = np.asarray(doc["sigma_hat"])
        tilde = np.asarray(doc["sigma_tilde"])
        gamma = np.asarray(doc["gamma_n"])
        engine = likelihood.QuasiLikEngine(self.model, sample)
        why = checks.local_argmax_failure(engine.loglik, hat,
                                          self.model.param_box)
        if why:
            return why
        if not doc["positive_definite"]:
            return "observed information is not positive definite"
        if np.abs(gamma - gamma.T).max() > 1e-12 * np.abs(gamma).max():
            return "Gamma_n is not symmetric"
        lam_min = float(np.linalg.eigvalsh(gamma)[0])
        if not lam_min > 0.0:
            return f"Gamma_n has eigenvalue {lam_min!r}"
        scale = 1.0 / math.sqrt(sample.grid.bn * lam_min)
        gap = float(np.abs(tilde - hat).max())
        if gap > self.BAYES_GAP * scale:
            return (f"|sigma_tilde - sigma_hat| = {gap:.3g} exceeds "
                    f"{self.BAYES_GAP} * {scale:.3g}")
        return None

    def check_run(self, outputs):
        return [], []


class SchemeInfo:
    """Scheme diagnostics and limit information of one Poisson grid per op.

    Rates 1:2 on the ladder n = 500, 1000, 2000; a round is one grid per
    rung, drawn from ``(seed, round, rung)``.  Each op runs ``check_a2``,
    ``theta_length_sums(p_max=2)``, ``trace_densities`` at the z values
    ``information_matrix`` queries for ``corr`` at sigma* = (1.0, 0.5)
    (rho = 0.5 and rho +- 1e-4), ``information_matrix`` itself, and the
    spectral identity residuals at those z values.
    """

    name = "scheme-info"
    LADDER = (500, 1000, 2000)
    ops_per_round = len(LADDER)
    RATES = (1.0, 2.0)
    SIGMA = (1.0, 0.5)
    Z = (0.5, 0.5 + 1e-4, 0.5 - 1e-4)
    BINS = 64
    RESOLVENT_ENTRIES = (0, 1, 2)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = models.get_model("corr")

    def setup(self):
        self._study(scheme.poisson_grid(*self.RATES, 1.0, bn=100,
                                        seed=[self.seed, WARMUP]))

    def rung(self, i):
        return i % len(self.LADDER)

    def _study(self, grid):
        a2 = scheme.check_a2(grid)
        theta = scheme.theta_length_sums(grid, 2)
        dens = information.trace_densities([grid], z_values=self.Z,
                                           bins=self.BINS)
        info = information.information_matrix(self.model,
                                              np.asarray(self.SIGMA), dens)
        residuals = [dens.identity_residual(z) for z in self.Z]
        return grid, a2, theta, info.matrix, residuals

    def op(self, i):
        rung = self.rung(i)
        grid = scheme.poisson_grid(*self.RATES, 1.0, bn=self.LADDER[rung],
                                   seed=[self.seed, i // len(self.LADDER),
                                         rung])
        return self._study(grid)

    def check_op(self, i, out):
        grid, a2, theta, matrix, residuals = out
        if not np.all(np.isfinite(matrix)):
            return "non-finite information matrix"
        if max(residuals) > 1e-9:
            return f"spectral identity residuals {residuals}"
        horizon = grid.horizon
        if abs(theta[0] - 2.0 * horizon) > 1e-9 * horizon:
            return f"theta_length_sums[0] = {theta[0]!r}, not 2T"
        if np.any(np.diff(theta) < -1e-12 * theta[0]):
            return f"theta_length_sums decrease in p: {theta.tolist()}"
        G = checks.overlap_matrix_from_times(grid.s_times, grid.t_times)
        overlap = scheme.overlap_matrix(grid)
        ks = self.RESOLVENT_ENTRIES
        for side in (1, 2):
            got = scheme.resolvent_diag(overlap, self.Z[0], side,
                                        upto=max(ks) + 1)[list(ks)]
            ref = checks.resolvent_entries(G, self.Z[0], side, ks)
            if np.abs(got - ref).max() > 1e-10 * np.abs(ref).max():
                return f"resolvent diagonal side {side}: {got} vs {ref}"
        if i == 0:
            for sc, times in ((a2.side1, grid.s_times),
                              (a2.side2, grid.t_times)):
                floor = max(1, math.ceil(grid.bn ** 0.05))
                ref = checks.spacing_min_ratio_loop(times, floor)
                if abs(sc.min_ratio - ref) > 1e-12 * ref:
                    return (f"check_a2 side {sc.side} min_ratio "
                            f"{sc.min_ratio!r} != double loop {ref!r}")
        return None

    def check_run(self, outputs):
        """Formula information of ``bm1`` on a synchronous grid is 4."""
        n = 10 * self.BINS
        grid = scheme.uniform_grid(n, n, 0.0, 1.0, bn=n)
        dens = information.trace_densities([grid], bins=self.BINS)
        value = information.information_matrix(models.get_model("bm1"),
                                               np.array([1.0]), dens)
        got = float(value.matrix[0, 0])
        if abs(got - 4.0) > 1e-6:
            return [f"bm1 synchronous information {got!r} != 4"], []
        return [], []


WORKLOADS = {w.name: w for w in (McCorr, EstimateStatedep, SchemeInfo)}
