"""Limit information of the model, by formula and by simulation.

The asymptotic information is an integral of scheme-level trace densities
``a(z, t)``, ``c(z, t)`` (scaled resolvent traces of the overlap Gram
matrices, differenced over a time partition) against parameter derivatives
of the coefficient ratios.  This module estimates those densities from
sampled grids, evaluates the information integral, and cross-validates it
against the empirical route: the average scaled negative Hessian of the
quasi-log-likelihood at the true parameter over fresh simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CoverageError, SchemeError
from .likelihood import QuasiLikEngine
from .scheme import overlap_matrix, resolvent_diag
from .sde import DiffusionModel, observe, simulate_path

__all__ = [
    "TraceDensities",
    "InformationResult",
    "trace_densities",
    "information_matrix",
    "information_matrix_mc",
    "identifiability_profile",
]


class TraceDensities:
    """Binned trace densities of a family of observation grids.

    For each grid the diagonal of ``(I - z^2 G G*)^{-1}`` is accumulated
    over the sampling intervals meeting ``[0, t)``, scaled by the grid's
    ``1/bn``, averaged across grids, and differenced over ``bins`` equal
    time bins; ``c`` is the ``G* G`` analog.  Densities at new ``z`` values
    are computed on demand and cached (they depend on ``z^2`` only), so the
    usable radius is the full ``|z| < 1``.
    """

    def __init__(self, grids, z_values=(), bins=64):
        grids = list(grids)
        if not grids:
            raise SchemeError("at least one grid is required")
        horizon = grids[0].horizon
        if any(abs(g.horizon - horizon) > 0 for g in grids):
            raise SchemeError("grids must share the horizon")
        if bins < 1:
            raise SchemeError("bins must be >= 1")
        self.horizon = horizon
        self.bins = bins
        self.bin_edges = np.linspace(0.0, horizon, bins + 1)
        self.bin_width = horizon / bins
        self._overlaps = [overlap_matrix(g) for g in grids]
        self._by_z = {}
        for z in set(float(z) for z in z_values) | {0.0}:
            self._bin_densities(z)

    @property
    def z_max(self):
        """Largest correlation magnitude the densities can be queried at."""
        return 1.0 - 1e-9

    def _bin_densities(self, z):
        key = round(z * z, 15)
        hit = self._by_z.get(key)
        if hit is not None:
            return hit
        if abs(z) >= 1.0:
            raise SchemeError(f"|z| must be < 1, got {z}")
        acc1 = np.zeros(self.bins)
        acc2 = np.zeros(self.bins)
        for ov in self._overlaps:
            for side, acc in ((1, acc1), (2, acc2)):
                diag = resolvent_diag(ov, z, side)
                cum = np.concatenate([[0.0], np.cumsum(diag)])
                edges = ov.grid.active_intervals(self.bin_edges, side)
                acc += np.diff(cum[edges]) / ov.grid.bn
        n = len(self._overlaps)
        dens = (acc1 / (n * self.bin_width), acc2 / (n * self.bin_width))
        self._by_z[key] = dens
        return dens

    def _bin_index(self, t):
        if not 0.0 < t <= self.horizon:
            raise SchemeError(f"t={t} outside (0, horizon]")
        return int(np.searchsorted(self.bin_edges[1:-1], t, side="left"))

    def a_bins(self, z):
        """Per-bin density of the side-1 trace (left-continuous in t)."""
        return self._bin_densities(z)[0]

    def c_bins(self, z):
        return self._bin_densities(z)[1]

    def a(self, z, t):
        return float(self.a_bins(z)[self._bin_index(t)])

    def c(self, z, t):
        return float(self.c_bins(z)[self._bin_index(t)])

    def identity_residual(self, z):
        """| integral(a(z)-a0) - integral(c(z)-c0) | over the horizon.

        The two Gram matrices share their nonzero spectrum, so the residual
        is solver noise for every grid.
        """
        da = self.a_bins(z) - self.a_bins(0.0)
        dc = self.c_bins(z) - self.c_bins(0.0)
        return float(abs((da - dc).sum() * self.bin_width))


def trace_densities(grids, z_values=(), bins=64) -> TraceDensities:
    """Estimate binned trace densities from one or more grids."""
    return TraceDensities(grids, z_values, bins)


@dataclass
class InformationResult:
    """Information matrix with its provenance.

    ``route`` is ``"formula"`` (density integral) or ``"empirical"``
    (Monte Carlo average of scaled negative Hessians, with entrywise
    standard errors in ``se``).
    """

    matrix: np.ndarray
    route: str
    se: np.ndarray = None
    bin_contributions: np.ndarray = field(default=None, repr=False)
    rho_zero_bins: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _states_at(coeff_path, times, y0):
    if isinstance(coeff_path, str):
        if coeff_path != "constant":
            raise ValueError(f"unknown coeff_path {coeff_path!r}")
        return np.broadcast_to(y0, (times.size, 2))
    path_times, path_values = coeff_path
    path_times = np.asarray(path_times, dtype=float)
    path_values = np.asarray(path_values, dtype=float)
    idx = np.searchsorted(path_times, times, side="right") - 1
    idx = np.clip(idx, 0, len(path_times) - 1)
    return path_values[idx]


def _coeff_geometry(model, t, x, sigma):
    """(|b1|, |b2|, rho) at a single evaluation point."""
    b1, b2 = model.coeff_rows(np.atleast_1d(t), np.atleast_2d(x), sigma)
    n1 = float(np.sqrt(b1[0] @ b1[0]))
    n2 = float(np.sqrt(b2[0] @ b2[0]))
    rho = float(b1[0] @ b2[0]) / (n1 * n2)
    return n1, n2, rho


def information_matrix(model: DiffusionModel, sigma_star, densities:
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
        n1, n2, rho = _coeff_geometry(model, t_left[k], states[k], sigma_star)
        dn1 = np.empty(d)
        dn2 = np.empty(d)
        drho = np.empty(d)
        for j in range(d):
            up = sigma_star.copy(); up[j] += h[j]
            dn = sigma_star.copy(); dn[j] -= h[j]
            n1u, n2u, ru = _coeff_geometry(model, t_left[k], states[k], up)
            n1d, n2d, rd = _coeff_geometry(model, t_left[k], states[k], dn)
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


def information_matrix_mc(model: DiffusionModel, sigma_star, grid_generator,
                          replicates, seed=0, max_step=None
                          ) -> InformationResult:
    """Monte Carlo route: average scaled negative Hessian at the truth.

    ``grid_generator`` maps a seed (int sequence) to an observation grid;
    each replicate simulates a fresh path on a fresh grid and evaluates
    the quasi-log-likelihood Hessian at ``sigma_star``.
    """
    if replicates < 2:
        raise ValueError("need at least two replicates for a standard error")
    sigma_star = np.asarray(sigma_star, dtype=float)
    d = sigma_star.size
    draws = np.empty((replicates, d, d))
    for r in range(replicates):
        grid = grid_generator([seed, r, 0])
        path = simulate_path(model, sigma_star, grid, max_step=max_step,
                             seed=[seed, r, 1])
        sample = observe(path, grid)
        engine = QuasiLikEngine(model, sample)
        draws[r] = -engine.hessian(sigma_star) / grid.bn
    matrix = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(replicates)
    return InformationResult(matrix=matrix, route="empirical", se=se,
                             meta={"replicates": replicates})


def identifiability_profile(model: DiffusionModel, sigma_star, densities:
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
            n1s, n2s, rho_star = _coeff_geometry(model, t_left[k], states[k],
                                                 sigma_star)
            n1, n2, rho = _coeff_geometry(model, t_left[k], states[k], sigma)
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
