"""Structured Gaussian quasi-likelihood of nonsynchronous increments.

The normalized increment vector ``Z`` gets the surrogate covariance

    S(sigma) = [[diag(|b1_(i)|^2),  {b1_(i).b2_(j) G_ij}],
                [      *         ,  diag(|b2_(j)|^2)   ]],

where ``b1_(i)`` and ``b2_(j)`` are the diffusion rows evaluated at each
interval's left endpoint with the other component frozen at its previous
tick, and ``G`` is the interval-overlap matrix.  The quasi-log-likelihood

    H(sigma) = -1/2 Z' S(sigma)^{-1} Z - 1/2 log det S(sigma)

(no 2*pi constant) is evaluated through a banded Schur complement:
eliminating the larger diagonal block ``D_A`` leaves
``C = D_B - M' D_A^{-1} M``, which inherits a bandwidth bounded by the
overlap bandwidth and factors in O(n w^2) on every grid.

``QuasiLikEngine`` builds everything that depends only on the sample once:
the coupling pattern ordered by rows of the larger block, the coefficient
evaluation points, and the index of entry pairs sharing a row, each with
its position in the band of ``M' D_A^{-1} M``.  An evaluation is then a
stateless function of ``sigma``: coefficient rows, a ``bincount`` over the
pairs for the band, one banded factor and solve.  ``build_S`` and the
dense evaluation ``dense_quasi_loglik`` are kept as the test oracle.

A pure-scale model (``DiffusionModel.scales = (i1, i2)``) has
``S(sigma) = D S(1) D`` with ``D = diag(l1 I, l2 I)``, ``l1 = sigma[i1]``,
``l2 = sigma[i2]``.  The engine then factors ``S(1)`` once, keeps
``qab = za' [S(1)^{-1}]_ab zb`` and ``log det S(1)``, and evaluates

    H(sigma) = -1/2 (q11/l1^2 + 2 q12/(l1 l2) + q22/l2^2)
               - n1 log l1 - n2 log l2 - 1/2 log det S(1)

with no factorization.  Its argmax over the box is a closed form too
(``QuasiLikEngine.scale_argmax``): with ``u = 1/l1``, ``v = 1/l2`` the
negated likelihood is strictly convex, so the stationary point is the
answer when it lies in the box, and otherwise the best of the four edge
minimizers, each the positive root of a quadratic clipped to its edge.
Its posterior mean under the uniform prior on the box
(``QuasiLikEngine.scale_posterior_mean``) integrates the scale out with the
incomplete gamma function.  The analytic gradient keeps the banded path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc, gammaincc, gammaln

from . import banded
from .errors import EstimationError, NotPositiveDefiniteError
from .scheme import OverlapMatrix, overlap_matrix
from .sde import DiffusionModel, NonsyncSample

__all__ = [
    "StructuredCov",
    "QuasiLikEngine",
    "build_S",
    "dense_quasi_loglik",
]


@dataclass(frozen=True, eq=False)
class StructuredCov:
    """Structured covariance ``S(sigma)`` in block form.

    ``coupling`` shares the overlap matrix's sparsity pattern exactly;
    ``prev_tick1[i]`` is the side-2 observation index frozen into the
    side-1 coefficient of interval ``i`` (and symmetrically).
    """

    d1: np.ndarray
    d2: np.ndarray
    coupling: sp.csr_matrix
    prev_tick1: np.ndarray
    prev_tick2: np.ndarray
    overlap: OverlapMatrix

    @property
    def dim(self):
        return self.d1.size + self.d2.size

    def to_dense(self):
        n1, n2 = self.d1.size, self.d2.size
        S = np.zeros((n1 + n2, n1 + n2))
        S[:n1, :n1] = np.diag(self.d1)
        S[n1:, n1:] = np.diag(self.d2)
        V = self.coupling.toarray()
        S[:n1, n1:] = V
        S[n1:, :n1] = V.T
        return S


def _prev_tick_indices(grid):
    j_prev = np.searchsorted(grid.t_times, grid.s_times[:-1], side="right") - 1
    i_prev = np.searchsorted(grid.s_times, grid.t_times[:-1], side="right") - 1
    return j_prev, i_prev


def _coeff_points(sample):
    """Per-interval evaluation points (t, x) with previous-tick freezing."""
    grid = sample.grid
    j_prev, i_prev = _prev_tick_indices(grid)
    t1 = grid.s_times[:-1]
    x1 = np.column_stack([sample.y1_obs[:-1], sample.y2_obs[j_prev]])
    t2 = grid.t_times[:-1]
    x2 = np.column_stack([sample.y1_obs[i_prev], sample.y2_obs[:-1]])
    return (t1, x1), (t2, x2), j_prev, i_prev


def _coeff_rows(model, sigma, points, deriv=False):
    """Side-1 diffusion rows at the side-1 points, side-2 rows at side 2.

    Rows have shape ``(n, 2)``, or ``(n, d, 2)`` for the parameter
    derivative (``deriv=True``).  A constant-coefficient model is evaluated
    once and repeated.
    """
    fn, tail = ((model.diffusion_dsigma, (model.dim_param, 2, 2)) if deriv
                else (model.diffusion, (2, 2)))
    if model.constant_coeffs:
        b = np.asarray(fn(0.0, model.y0[None, :], sigma), float).reshape(tail)
        return [np.repeat(b[None, ..., k, :], t.size, axis=0)
                for k, (t, _) in enumerate(points)]
    return [np.asarray(fn(t, x, sigma), float).reshape((t.size,) + tail)
            [..., k, :] for k, (t, x) in enumerate(points)]


def _row_dots(a, b, ia=None, ib=None):
    """Dot products of 2-vector rows ``a[ia]`` and ``b[ib]`` (all rows by
    default)."""
    if ia is None:
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
    return (a[:, 0].take(ia) * b[:, 0].take(ib)
            + a[:, 1].take(ia) * b[:, 1].take(ib))


def _scale_objective(q11, q12, q22, n1, n2, l1, l2):
    """``-H - 1/2 log det S(1)`` of a pure-scale model at scales
    ``(l1, l2)``; scalars or broadcasting arrays."""
    return (0.5 * (q11 / l1 ** 2 + 2.0 * q12 / (l1 * l2) + q22 / l2 ** 2)
            + n1 * np.log(l1) + n2 * np.log(l2))


def _positive_root(a, b, c):
    """Positive root of ``a x^2 + b x - c = 0`` for ``a >= 0, c > 0``;
    ``inf`` when there is none (``a = 0, b <= 0``)."""
    disc = np.sqrt(b * b + 4.0 * a * c)
    if b > 0:
        return 2.0 * c / (b + disc)  # no cancellation
    return (disc - b) / (2.0 * a) if a > 0 else np.inf


def _argmax_two_scales(q11, q12, q22, n1, n2, lo, hi):
    """Argmax ``(l1, l2)`` over ``[lo, hi]`` (per scale) of the pure-scale
    closed form with two distinct scales.

    In ``u = 1/l1, v = 1/l2`` the objective
    ``F = 1/2 (q11 u^2 + 2 q12 u v + q22 v^2) - n1 log u - n2 log v`` is
    strictly convex (``Q`` is positive semidefinite).  Its stationary point
    has ``r = v/u`` the positive root of
    ``n1 q22 r^2 + (n1 - n2) q12 r - n2 q11 = 0`` and
    ``u^2 = n1 / (q11 + q12 r)``; it is the answer when it lies in the box.
    Otherwise the minimum lies on an edge, where the free coordinate is
    the positive root of a quadratic clipped to its range.
    """
    r = _positive_root(n1 * q22, (n1 - n2) * q12, n2 * q11)
    if 0.0 < r < np.inf and q11 + q12 * r > 0.0:
        l1 = np.sqrt((q11 + q12 * r) / n1)
        l2 = l1 / r
        if lo[0] <= l1 <= hi[0] and lo[1] <= l2 <= hi[1]:
            return np.array([l1, l2])
    cand = [(e, np.clip(1.0 / _positive_root(q22, q12 / e, n2), lo[1], hi[1]))
            for e in (lo[0], hi[0])]
    cand += [(np.clip(1.0 / _positive_root(q11, q12 / e, n1), lo[0], hi[0]), e)
             for e in (lo[1], hi[1])]
    l1, l2 = np.array(cand).T
    best = int(np.argmin(_scale_objective(q11, q12, q22, n1, n2, l1, l2)))
    return np.array(cand[best])


# Composite rule of the two-scale posterior mean in log t: a window where
# the log-marginal lies within _WINDOW_NATS of its largest probed value,
# split at the peak; each side holds _PANELS panels of a Gauss-Legendre
# rule graded towards the peak, plus a cut at each kink of the integrand.
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_PANELS = 3
_BREAKS = np.linspace(0.0, 1.0, _PANELS + 1)
_GRADE = 2
_PROBES = 24
_WINDOW_NATS = 40.0


def _tail_series(a, x, upper):
    """Series that scales an underflowing incomplete gamma function:
    ``sum_k prod_(j<=k) (a - j)/x`` where ``upper`` (asymptotic) and
    ``sum_k prod_(j<=k) x/(a + j)`` elsewhere.  Where the regularized
    value underflows the ratios stay below one, so the terms fall
    geometrically."""
    ratio = np.where(upper, (a - 1.0) / x, x / (a + 1.0))
    terms = np.log(1e-17) / np.log(min(ratio.max(), 1.0 - 1e-6))
    k = np.arange(1, min(int(terms) + 2, 10_000))
    a, x = a[:, None], x[:, None]
    steps = np.where(upper[:, None], (a - k) / x, x / (a + k))
    return 1.0 + np.cumprod(steps, axis=1).sum(axis=1)


def _log_tail_integral(a, q, u, upper):
    """``log`` of the integral of ``w^(2a-1) exp(-q w^2 / 2)`` over
    ``w > u`` where ``upper`` and over ``0 < w < u`` elsewhere.

    With ``x = q u^2 / 2`` it is ``1/2 (2/q)^a Gamma(a)`` times ``Q(a, x)``
    or ``P(a, x)``.  Where those underflow the value is their leading term
    times ``_tail_series``, in log space.
    """
    x = 0.5 * q * u * u
    reg = np.empty(x.shape)
    reg[upper] = gammaincc(a[upper], x[upper])
    reg[~upper] = gammainc(a[~upper], x[~upper])
    out = a * np.log(2.0 / q) - np.log(2.0) + gammaln(a) + np.log(reg)
    tiny = reg < 1e-280
    if tiny.any():
        a, x, u, q, up = a[tiny], x[tiny], u[tiny], q[tiny], upper[tiny]
        out[tiny] = (np.where(up, (2.0 * a - 2.0) * np.log(u) - np.log(q),
                              2.0 * a * np.log(u) - np.log(2.0 * a))
                     - x + np.log(_tail_series(a, x, up)))
    return out


def _log_window_integral(a, q, ua, ub):
    """``log`` of the integral of ``u^(2a-1) exp(-q u^2 / 2)`` over
    ``[ua, ub]``, elementwise over the broadcast arguments; ``-inf`` for an
    empty window.

    A window above the integrand's mode (``q ua^2 / 2 > a - 1``) is the
    difference of two upper tails, any other the difference of two lower
    tails, so the larger term never cancels to rounding.
    """
    a, q, ua, ub = np.broadcast_arrays(a, q, ua, ub)
    upper = 0.5 * q * ua * ua > np.maximum(a - 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the near and the far end in one call
        near, far = np.split(_log_tail_integral(
            np.concatenate([a, a]), np.concatenate([q, q]),
            np.concatenate([np.where(upper, ua, ub), np.where(upper, ub, ua)]),
            np.concatenate([upper, upper])), 2)
        return near + np.log1p(-np.exp(np.minimum(far - near, 0.0)))


def _posterior_mean_two_scales(q11, q12, q22, n1, n2, lo, hi):
    """Posterior mean ``(l1, l2)`` of the pure-scale likelihood with two
    scales under the uniform prior on the box ``[lo, hi]``.

    In ``u = 1/l1`` and ``t = l1/l2`` the posterior is proportional to
    ``u^(N-3) t^(n2-2) exp(-u^2 q(t) / 2)`` with
    ``q(t) = q11 + 2 q12 t + q22 t^2``, and the box becomes a ``u``-window
    for each ``t``.  The ``u``-integrals of the mass and of both moments are
    incomplete gamma functions (``_log_window_integral``); the ``log t``
    integral is a composite Gauss-Legendre rule.  Its window holds the
    marginal within ``_WINDOW_NATS`` of its largest value, found by probes
    at geometric distances from the box-constrained argmax; the panels are
    graded towards that peak (a box corner pins the mass within a layer
    much thinner than the window) and cut where the ``u``-window's ends
    switch between box edges.
    """
    (lo1, lo2), (hi1, hi2) = lo, hi
    a0, a1 = 0.5 * (n1 + n2 - 2), 0.5 * (n1 + n2 - 3)

    def log_marginal(s, a):
        t = np.exp(s)
        ua = np.maximum(1.0 / hi1, 1.0 / (t * hi2))
        ub = np.minimum(1.0 / lo1, 1.0 / (t * lo2))
        return (n2 - 1) * s + _log_window_integral(
            a, q11 + (2.0 * q12 + q22 * t) * t, ua, ub)

    smin, smax = np.log(lo1 / hi2), np.log(hi1 / lo2)
    l1, l2 = _argmax_two_scales(q11, q12, q22, n1, n2, lo, hi)
    peak = np.log(l1 / l2)
    dist = (smax - smin) * 0.5 ** np.arange(_PROBES - 1, -1, -1.0)
    sides = [np.clip(peak + sign * np.concatenate([[0.0], dist]), smin, smax)
             for sign in (-1.0, 1.0)]
    probed = np.split(log_marginal(np.concatenate(sides), a0), 2)
    floor = max(v.max() for v in probed) - _WINDOW_NATS
    kinks = np.log([lo1 / lo2, hi1 / hi2])
    s, w = [], []
    for pos, vals in zip(sides, probed):
        inside = np.flatnonzero(vals >= floor)
        if inside.size == 0:
            continue
        # the window ends at the first probe past the last one inside
        span = pos[min(inside[-1] + 1, pos.size - 1)] - peak
        if span == 0.0:
            continue
        rel = (kinks - peak) / span
        breaks = np.sort(np.concatenate(
            [_BREAKS, rel[(rel > 0) & (rel < 1)] ** (1 / _GRADE)]))
        half = 0.5 * np.diff(breaks)
        y = ((breaks[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel()
        s.append(peak + span * y ** _GRADE)
        w.append(abs(span) * _GRADE * y ** (_GRADE - 1)
                 * (half[:, None] * _GL_WEIGHTS).ravel())
    s, w = np.concatenate(s), np.concatenate(w)
    mass, moment = log_marginal(s, np.array([[a0], [a1]]))
    top = mass.max()
    den = w @ np.exp(mass - top)
    return np.array([w @ np.exp(moment - top),
                     w @ np.exp(moment - s - top)]) / den


def build_S(model: DiffusionModel, sigma, sample: NonsyncSample,
            overlap: OverlapMatrix = None) -> StructuredCov:
    """Assemble the structured covariance at ``sigma``.

    Raises ``ParameterOutOfDomainError`` when ``sigma`` leaves the closed
    parameter box.
    """
    model.require_in_box(sigma)
    sigma = np.asarray(sigma, dtype=float)
    if overlap is None:
        overlap = overlap_matrix(sample.grid)
    p1, p2, j_prev, i_prev = _coeff_points(sample)
    b1rows, b2rows = _coeff_rows(model, sigma, (p1, p2))
    d1 = np.einsum("ik,ik->i", b1rows, b1rows)
    d2 = np.einsum("jk,jk->j", b2rows, b2rows)
    G = overlap.csr
    rows = np.repeat(np.arange(overlap.rows), np.diff(G.indptr))
    vals = np.einsum("nk,nk->n", b1rows[rows], b2rows[G.indices]) * G.data
    coupling = sp.csr_matrix((vals, G.indices.copy(), G.indptr.copy()),
                             shape=G.shape)
    return StructuredCov(d1, d2, coupling, j_prev, i_prev, overlap)


def dense_quasi_loglik(S, z):
    """Reference evaluation from an explicit covariance matrix."""
    S = np.asarray(S, dtype=float)
    z = np.asarray(z, dtype=float)
    try:
        cf = sla.cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"dense factorization failed: {exc}",
            pivot=banded.pivot_from_message(exc)) from exc
    logdet = 2.0 * np.log(np.diag(cf[0])).sum()
    x = sla.cho_solve(cf, z)
    return float(-0.5 * z @ x - 0.5 * logdet)


class QuasiLikEngine:
    """Banded evaluation of the quasi-log-likelihood and its derivatives.

    Orientation: side A is the larger diagonal block (eliminated first),
    side B the smaller one, whose Schur complement is banded within the
    overlap bandwidth on every grid.  ``__init__`` builds all sample-only
    structure, and for a pure-scale model the quadratic forms of ``S(1)``;
    evaluations only read them, so one engine serves concurrent callers.
    ``loglik_dense`` is the independent oracle.
    """

    def __init__(self, model: DiffusionModel, sample: NonsyncSample):
        self.model = model
        self.sample = sample
        self.grid = sample.grid
        self.overlap = overlap_matrix(sample.grid)
        self.z = sample.z
        n1, n2 = self.grid.n_intervals1, self.grid.n_intervals2
        self._swap = n2 > n1
        self._nA, self._nB = (n2, n1) if self._swap else (n1, n2)
        self._hw = (self.overlap.col_bandwidth if self._swap
                    else self.overlap.bandwidth)
        p1, p2, _, _ = _coeff_points(sample)
        self._points = (p1, p2)
        # coupling pattern ordered by A-row, B-columns ascending within it
        G = self.overlap.csr
        i1 = np.repeat(np.arange(n1), np.diff(G.indptr))
        i2 = G.indices
        order = np.lexsort((i1, i2)) if self._swap else np.arange(G.nnz)
        self._i1, self._i2, self._g = i1[order], i2[order], G.data[order]
        self._row_a, self._col_b = ((self._i2, self._i1) if self._swap
                                    else (self._i1, self._i2))
        z1, z2 = self.z[:n1], self.z[n1:]
        self._zA, self._zB = (z2, z1) if self._swap else (z1, z2)
        # pairs p <= q of entries in one A-row, and the position of band
        # entry (col p, col q) in the Fortran-ordered upper-band layout
        row_end = np.searchsorted(self._row_a, self._row_a, side="right")
        counts = row_end - np.arange(self._g.size)
        self._p = np.repeat(np.arange(self._g.size), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        self._q = self._p + np.arange(self._p.size) - starts
        cp, cq = self._col_b[self._p], self._col_b[self._q]
        self._pos = cq * (self._hw + 1) + self._hw + cp - cq
        # G' G on the band: constant-coefficient models only rescale it
        self._gram = self._band_sum(self._g[self._p] * self._g[self._q])
        self._unit = (None if model.scales is None
                      else self._unit_forms())

    def _band_sum(self, weights):
        size = (self._hw + 1) * self._nB
        return np.bincount(self._pos, weights, size).reshape(
            self._nB, self._hw + 1).T

    # -- evaluation -----------------------------------------------------

    def _evaluate(self, sigma):
        """Box check, then ``_factor``."""
        self.model.require_in_box(sigma)
        return self._factor(np.asarray(sigma, dtype=float))

    def _factor(self, sigma):
        """(b1, b2, dA, v, cb): coefficient rows, the diagonal of ``D_A``,
        coupling values on the pattern and the factor of ``C``."""
        b1, b2 = _coeff_rows(self.model, sigma, self._points)
        dA, dB = _row_dots(b1, b1), _row_dots(b2, b2)
        if self._swap:
            dA, dB = dB, dA
        # a nonpositive entry of D_B also fails the factor of C at its pivot
        if dA.min() <= 0:
            raise NotPositiveDefiniteError(
                "nonpositive diagonal block entry", pivot=int(np.argmin(dA)))
        v = _row_dots(b1, b2, self._i1, self._i2) * self._g
        if self.model.constant_coeffs:
            c = b1[0] @ b2[0]
            band = (-c * c / dA[0]) * self._gram
        else:
            # W'W with W = D_A^{-1/2} M, entry by entry over the pairs
            w = v * (1.0 / np.sqrt(dA))[self._row_a]
            band = -self._band_sum(w[self._p] * w[self._q])
        band[self._hw] += dB
        return b1, b2, dA, v, banded.cholesky(band)

    def _solve(self, dA, v, cb, zA=None, zB=None):
        """``S^{-1} [zA; zB]`` in oriented parts ``(xA, xB)`` (``Z`` by
        default)."""
        zA = self._zA if zA is None else zA
        zB = self._zB if zB is None else zB
        row_a, col_b = self._row_a, self._col_b
        rhs = zB - np.bincount(col_b, v * (zA / dA).take(row_a), self._nB)
        xB = banded.solve(cb, rhs)
        xA = (zA - np.bincount(row_a, v * xB.take(col_b), self._nA)) / dA
        return xA, xB

    def _logdet(self, dA, cb):
        return np.log(dA).sum() + 2.0 * np.log(cb[self._hw]).sum()

    def _unit_forms(self):
        """``(q11, q12, q22, log det S(1))`` of a pure-scale model, with
        ``qab = za' [S(1)^{-1}]_ab zb``; or the error of the unit factor.

        The unit point may lie outside the box, so no box check here.
        """
        try:
            _, _, dA, v, cb = self._factor(np.ones(self.model.dim_param))
        except NotPositiveDefiniteError as exc:
            return exc
        # S(1)^{-1} [zA; 0] and S(1)^{-1} [0; zB]
        xA, xB = self._solve(dA, v, cb, zB=np.zeros(self._nB))
        _, yB = self._solve(dA, v, cb, zA=np.zeros(self._nA))
        qAA, qAB, qBB = self._zA @ xA, self._zB @ xB, self._zB @ yB
        q11, q22 = (qBB, qAA) if self._swap else (qAA, qBB)
        return float(q11), float(qAB), float(q22), float(self._logdet(dA, cb))

    def _unit_or_raise(self):
        """The unit forms, or the unit factor's error raised afresh:
        positive scales leave every leading minor's sign, so S(sigma)
        fails at the same pivot as S(1)."""
        if isinstance(self._unit, NotPositiveDefiniteError):
            raise NotPositiveDefiniteError(str(self._unit),
                                           pivot=self._unit.pivot)
        return self._unit

    def _closed_form(self, sigma):
        """Pure-scale likelihood at ``sigma``, one point or ``(m, d)``."""
        q11, q12, q22, logdet = self._unit_or_raise()
        i1, i2 = self.model.scales
        n1, n2 = self.grid.n_intervals1, self.grid.n_intervals2
        return (-_scale_objective(q11, q12, q22, n1, n2, sigma[..., i1],
                                  sigma[..., i2]) - 0.5 * logdet)

    def loglik(self, sigma):
        """Quasi-log-likelihood at ``sigma``.

        A pure-scale model (``model.scales``) reads the closed form in the
        two scales; any other model runs the banded Schur path.
        """
        if self._unit is None:
            _, _, dA, v, cb = self._evaluate(sigma)
            xA, xB = self._solve(dA, v, cb)
            return float(-0.5 * (self._zA @ xA + self._zB @ xB)
                         - 0.5 * self._logdet(dA, cb))
        self.model.require_in_box(sigma)
        return float(self._closed_form(
            np.asarray(sigma, dtype=float).reshape(-1)))

    def loglik_batch(self, points):
        """Quasi-log-likelihood at each row of an ``(m, d)`` array of points,
        ``-inf`` where ``S`` fails to factor.

        A pure-scale model evaluates the closed form on the whole array;
        any other model calls ``loglik`` point by point.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (m, d) array")
        self.model.require_in_box(points)
        if self._unit is not None:
            if isinstance(self._unit, NotPositiveDefiniteError):
                return np.full(points.shape[0], -np.inf)
            return self._closed_form(points)
        vals = np.full(points.shape[0], -np.inf)
        for k, p in enumerate(points):
            try:
                vals[k] = self.loglik(p)
            except NotPositiveDefiniteError:
                continue
        return vals

    def scale_argmax(self):
        """Exact argmax over the box of a pure-scale model's likelihood.

        With one shared scale (``i1 == i2``) the likelihood is unimodal in
        it and peaks at ``sqrt((q11 + 2 q12 + q22) / (n1 + n2))``, clipped
        to the box; two scales go through ``_argmax_two_scales``.  Raises
        ``NotPositiveDefiniteError`` when ``S(1)`` does not factor.
        """
        if self._unit is None:
            raise EstimationError("scale_argmax needs a model with scales")
        q11, q12, q22, _ = self._unit_or_raise()
        i1, i2 = self.model.scales
        n1, n2 = self.grid.n_intervals1, self.grid.n_intervals2
        lo, hi = self.model.param_box[:, 0], self.model.param_box[:, 1]
        sigma = np.empty(self.model.dim_param)
        if i1 == i2:
            quad = max(q11 + 2.0 * q12 + q22, 0.0)
            sigma[i1] = np.clip(np.sqrt(quad / (n1 + n2)), lo[i1], hi[i1])
        else:
            sigma[[i1, i2]] = _argmax_two_scales(
                q11, q12, q22, n1, n2, lo[[i1, i2]], hi[[i1, i2]])
        return sigma

    def scale_posterior_mean(self):
        """Posterior mean of a pure-scale model under the uniform prior on
        the box, with the scale integrated out in closed form.

        In ``u = 1/l`` the ``u``-integral of ``u^(2a-1) exp(-q u^2 / 2)``
        over the box is an incomplete gamma function of order ``a``.  With
        one shared scale (``i1 == i2``, ``N = n1 + n2``) the mean is exact:
        ``sqrt(Q/2) Gamma((N-2)/2) / Gamma((N-1)/2)`` times the ratio of the
        box's regularized incomplete-gamma masses of those orders, with
        ``Q = q11 + 2 q12 + q22``.  Two scales leave one integral over
        ``log(l1/l2)``, done by ``_posterior_mean_two_scales``.  Raises
        ``NotPositiveDefiniteError`` when ``S(1)`` does not factor.
        """
        if self._unit is None:
            raise EstimationError(
                "scale_posterior_mean needs a model with scales")
        q11, q12, q22, _ = self._unit_or_raise()
        i1, i2 = self.model.scales
        n1, n2 = self.grid.n_intervals1, self.grid.n_intervals2
        lo, hi = self.model.param_box[:, 0], self.model.param_box[:, 1]
        # the orders (N-2)/2 (one scale) and (N-3)/2 (two) must be positive
        if n1 + n2 < (3 if i1 == i2 else 4):
            raise EstimationError(
                f"the closed-form posterior mean needs more than {n1 + n2} "
                "intervals")
        sigma = np.empty(self.model.dim_param)
        if i1 == i2:
            moment, mass = _log_window_integral(
                0.5 * np.array([n1 + n2 - 2, n1 + n2 - 1]),
                q11 + 2.0 * q12 + q22, 1.0 / hi[i1], 1.0 / lo[i1])
            sigma[i1] = np.exp(moment - mass)
        else:
            sigma[[i1, i2]] = _posterior_mean_two_scales(
                q11, q12, q22, n1, n2, lo[[i1, i2]], hi[[i1, i2]])
        return sigma

    def loglik_dense(self, sigma):
        """Dense-oracle evaluation, independent of the banded path."""
        cov = build_S(self.model, sigma, self.sample, self.overlap)
        return dense_quasi_loglik(cov.to_dense(), self.z)

    # -- derivatives ------------------------------------------------------

    def _fd_steps(self, sigma, scale):
        return scale * np.maximum(1.0, np.abs(sigma))

    def gradient(self, sigma, method="fd", return_flags=False):
        """Gradient of the quasi-log-likelihood.

        ``method="fd"`` uses central differences with step
        ``1e-5 * max(1, |sigma_j|)``, switching to one-sided differences
        (flagged) against the box boundary.  ``method="analytic"`` requires
        the model's diffusion parameter derivative and computes the trace
        term from selected inverse entries on the covariance pattern.
        """
        sigma = np.asarray(sigma, dtype=float)
        if method == "analytic":
            g = self._gradient_analytic(sigma)
            return (g, np.zeros(sigma.size, dtype=bool)) if return_flags else g
        if method != "fd":
            raise ValueError(f"unknown gradient method {method!r}")
        h = self._fd_steps(sigma, 1e-5)
        lo, hi = self.model.param_box[:, 0], self.model.param_box[:, 1]
        g = np.empty(sigma.size)
        onesided = np.zeros(sigma.size, dtype=bool)
        f0 = None
        for j in range(sigma.size):
            up = sigma.copy()
            dn = sigma.copy()
            if sigma[j] + h[j] <= hi[j] and sigma[j] - h[j] >= lo[j]:
                up[j] += h[j]
                dn[j] -= h[j]
                g[j] = (self.loglik(up) - self.loglik(dn)) / (2.0 * h[j])
            else:
                onesided[j] = True
                if f0 is None:
                    f0 = self.loglik(sigma)
                if sigma[j] + h[j] <= hi[j]:
                    up[j] += h[j]
                    g[j] = (self.loglik(up) - f0) / h[j]
                else:
                    dn[j] -= h[j]
                    g[j] = (f0 - self.loglik(dn)) / h[j]
        if onesided.any():
            warnings.warn("gradient used one-sided differences at the box "
                          "boundary", RuntimeWarning, stacklevel=2)
        return (g, onesided) if return_flags else g

    def _gradient_analytic(self, sigma):
        """``dH/dsigma_k = 1/2 x' dS_k x - 1/2 tr(S^{-1} dS_k)``, x = S^{-1} Z.

        ``dS_k`` lives on the diagonals and the coupling pattern, so the
        trace needs ``S^{-1}`` only there: ``C^{-1}`` on its band gives the
        B diagonal, and its entries at the pair positions give the A
        diagonal and the coupling block.
        """
        if self.model.diffusion_dsigma is None:
            raise EstimationError("model has no diffusion parameter derivative")
        b1, b2, dA, v, cb = self._evaluate(sigma)
        db1, db2 = _coeff_rows(self.model, sigma, self._points, deriv=True)
        i1, i2, P, Q = self._i1, self._i2, self._p, self._q
        dd1 = 2.0 * np.einsum("im,ikm->ki", b1, db1)
        dd2 = 2.0 * np.einsum("jm,jkm->kj", b2, db2)
        dv = (np.einsum("nkm,nm->kn", db1.take(i1, 0), b2.take(i2, 0))
              + np.einsum("nm,nkm->kn", b1.take(i1, 0), db2.take(i2, 0))
              ) * self._g
        xA, xB = self._solve(dA, v, cb)
        x1, x2 = (xB, xA) if self._swap else (xA, xB)
        cinv = banded.selected_inverse(cb)
        diagB = cinv[self._hw]
        # X = C^{-1}[col p, col q] per pair; an off-diagonal pair counts for
        # both (p, q) and (q, p)
        X = cinv.ravel(order="F")[self._pos]
        off = P != Q
        quadA = np.bincount(self._row_a[P], np.where(off, 2.0, 1.0)
                            * v[P] * v[Q] * X, self._nA)
        diagA = 1.0 / dA + quadA / dA ** 2
        cross = -(np.bincount(P, v[Q] * X, v.size)
                  + np.bincount(Q[off], (v[P] * X)[off], v.size))
        cross /= dA[self._row_a]
        diag1, diag2 = (diagB, diagA) if self._swap else (diagA, diagB)
        quad = dd1 @ (x1 * x1) + dd2 @ (x2 * x2) + 2.0 * dv @ (x1[i1] * x2[i2])
        trace = dd1 @ diag1 + dd2 @ diag2 + 2.0 * dv @ cross
        return 0.5 * quad - 0.5 * trace

    def hessian(self, sigma):
        """Central finite-difference Hessian (exactly symmetric stencil).

        Steps scale as the square root of the gradient step; steps shrink
        against the box boundary when needed.
        """
        sigma = np.asarray(sigma, dtype=float)
        d = sigma.size
        lo, hi = self.model.param_box[:, 0], self.model.param_box[:, 1]
        k = self._fd_steps(sigma, np.sqrt(1e-5))
        room = 0.9 * np.minimum(hi - sigma, sigma - lo)
        k = np.minimum(k, room)
        if np.any(k < 1e-9):
            raise EstimationError("sigma is on the box boundary; Hessian "
                                  "stencil does not fit")
        H = np.empty((d, d))
        f0 = self.loglik(sigma)
        for i in range(d):
            up = sigma.copy(); up[i] += k[i]
            dn = sigma.copy(); dn[i] -= k[i]
            H[i, i] = (self.loglik(up) - 2.0 * f0 + self.loglik(dn)) / k[i] ** 2
        for i in range(d):
            for j in range(i + 1, d):
                pp = sigma.copy(); pp[i] += k[i]; pp[j] += k[j]
                pm = sigma.copy(); pm[i] += k[i]; pm[j] -= k[j]
                mp = sigma.copy(); mp[i] -= k[i]; mp[j] += k[j]
                mm = sigma.copy(); mm[i] -= k[i]; mm[j] -= k[j]
                val = (self.loglik(pp) - self.loglik(pm)
                       - self.loglik(mp) + self.loglik(mm)) / (4.0 * k[i] * k[j])
                H[i, j] = val
                H[j, i] = val
        if not np.all(np.isfinite(H)):
            raise EstimationError("non-finite Hessian")
        return H

