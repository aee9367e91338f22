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

from .errors import CoverageError, ParameterOutOfDomainError, SchemeError
from .likelihood import QuasiLikEngine
from .scheme import overlap_matrix, resolvent_diag
from .sde import DiffusionModel, observe, simulate_path

__all__ = [
    "TraceDensities",
    "InformationResult",
    "trace_densities",
    "information_matrix",
    "information_matrix_mc",
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


Z_STEP = 1e-4  # central step of the density's correlation slope
SIGMA_STEP = 1e-6  # parameter step, relative to max(1, |sigma_j|)
RHO_EPS = 1e-12  # smaller correlations count as zero


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


def _bin_geometry(model, sigma, densities, coeff_path):
    """(|b1|, |b2|, rho) at the left point of every bin, from one
    coefficient evaluation.

    Raises ``ParameterOutOfDomainError`` when a diffusion row has zero
    norm, since its correlation is then undefined.
    """
    t_left = densities.bin_edges[:-1]
    sigma = np.asarray(sigma, dtype=float)
    b1, b2 = model.coeff_rows(t_left, _states_at(coeff_path, t_left, model.y0),
                              sigma)
    # row-wise dot products, rounded as a 1-d ``u @ v`` is
    s11, s22, s12 = ((u[:, None, :] @ v[:, :, None])[:, 0, 0]
                     for u, v in ((b1, b1), (b2, b2), (b1, b2)))
    for side, sq in ((1, s11), (2, s22)):
        zero = np.flatnonzero(sq == 0.0)
        if zero.size:
            k = int(zero[0])
            raise ParameterOutOfDomainError(
                f"side-{side} diffusion row has zero norm at sigma = "
                f"{sigma.tolist()}, first in bin {k} (left time "
                f"{float(t_left[k])!r}); its correlation is undefined")
    n1 = np.sqrt(s11)
    n2 = np.sqrt(s22)
    return n1, n2, s12 / (n1 * n2)


def _at_rho(bin_densities, rho):
    """``bin_densities(rho[k, ...])[k]`` for every entry of ``rho``, one
    lookup per distinct correlation."""
    out = np.empty(rho.shape)
    for value in np.unique(rho):
        hit = np.nonzero(rho == value)
        out[hit] = bin_densities(float(value))[hit[0]]
    return out


def information_matrix(model: DiffusionModel, sigma_star, densities:
                       TraceDensities, coeff_path="constant"
                       ) -> InformationResult:
    """Information matrix from the trace-density integral.

    ``coeff_path`` is ``"constant"`` (coefficients read at the initial
    state; exact for constant-coefficient models) or a ``(times, values)``
    path supplying the state left-point per bin.  Parameter derivatives of
    the coefficient ratios use central differences with step
    ``1e-6 * max(1, |sigma_j|)``; the density's correlation slope uses a
    central step of ``1e-4``.  Bins with an instantaneous correlation below
    ``1e-12`` in magnitude drop the correlation terms and are flagged.
    """
    model.require_in_box(sigma_star)
    sigma_star = np.asarray(sigma_star, dtype=float)
    n1, n2, rho = _bin_geometry(model, sigma_star, densities, coeff_path)
    h = SIGMA_STEP * np.maximum(1.0, np.abs(sigma_star))
    up, down = (np.array([_bin_geometry(model, sigma_star + e, densities,
                                        coeff_path) for e in steps])
                for steps in (np.diag(h), -np.diag(h)))
    dn1, dn2, drho = ((up - down) / (2 * h[:, None, None])).transpose(1, 2, 0)
    # ratio of frozen numerator to moving denominator: derivative is
    # the negated log-derivative of the coefficient norm
    dB1 = -dn1 / n1[:, None]
    dB2 = -dn2 / n2[:, None]

    sup_rho = float(np.max(np.abs(rho)))
    if sup_rho + Z_STEP >= densities.z_max:
        raise CoverageError(
            f"sup |rho| = {sup_rho:.6f} exceeds the usable density radius")

    live = np.abs(rho) >= RHO_EPS
    r = np.where(live, rho, 1.0)
    a_val = _at_rho(densities.a_bins, rho)
    c_val = _at_rho(densities.c_bins, rho)
    # zero z steps and level changes drop the flagged bins' correlation terms
    step = np.where(live, Z_STEP, 0.0)
    dz_a = (_at_rho(densities.a_bins, rho + step)
            - _at_rho(densities.a_bins, rho - step)) / (2 * Z_STEP)
    level = np.where(live, a_val - densities.a_bins(0.0), 0.0)
    v = drho / r[:, None] - dB1 - dB2
    a_val, c_val, dz_a, level, r = (x[:, None, None] for x in
                                    (a_val, c_val, dz_a, level, r))
    outer = lambda u: np.einsum("ki,kj->kij", u, u)  # noqa: E731 - per bin
    term = (2.0 * a_val * outer(dB1) + 2.0 * c_val * outer(dB2)
            + dz_a * outer(drho) / r - level * outer(v))
    contribs = term * densities.bin_width
    return InformationResult(matrix=contribs.sum(axis=0), route="formula",
                             bin_contributions=contribs,
                             rho_zero_bins=np.flatnonzero(~live).tolist(),
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
