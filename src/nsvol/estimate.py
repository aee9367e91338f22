"""Point estimation from one nonsynchronous sample.

Provides the quasi-maximum-likelihood estimator (the closed-form argmax
for a pure-scale model, otherwise multi-start simplex over the closed
parameter box, then coordinate polish), the Bayes-type estimator (posterior
mean under a bounded prior: the scale integrated out in closed form for a
pure-scale model under the uniform prior, otherwise panelized
Gauss-Legendre quadrature), the observed-information pair used for
studentization, and the two covariation estimators that the efficiency
comparison is built on.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import Bounds, minimize, minimize_scalar

from .errors import EstimationError, NotPositiveDefiniteError
from .likelihood import QuasiLikEngine
from .scheme import OverlapMatrix, overlap_matrix
from .sde import DiffusionModel, NonsyncSample

__all__ = [
    "QmleResult",
    "ObservedInfo",
    "EstimationOutcome",
    "qmle",
    "qmle_detail",
    "bayes",
    "observed_info",
    "hayashi_yoshida",
    "plugin_covariation",
    "run_estimation",
]


@dataclass
class QmleResult:
    sigma: np.ndarray
    value: float
    on_boundary: bool
    degenerate: bool
    n_evaluations: int
    n_failures: int


class _Objective:
    """Negated log-likelihood with failure accounting."""

    def __init__(self, engine):
        self.engine = engine
        self.n_evaluations = 0
        self.n_failures = 0
        self.best = -np.inf
        self.worst = np.inf

    def __call__(self, sigma):
        self.n_evaluations += 1
        try:
            value = self.engine.loglik(sigma)
        except NotPositiveDefiniteError:
            self.n_failures += 1
            return np.inf
        if value > self.best:
            self.best = value
        if value < self.worst:
            self.worst = value
        return -value


def _default_starts(box):
    """Box center plus the (slightly interior) midpoints of each face."""
    lo, hi = box[:, 0], box[:, 1]
    center = 0.5 * (lo + hi)
    starts = [center]
    for j in range(box.shape[0]):
        span = hi[j] - lo[j]
        for edge in (lo[j] + 0.02 * span, hi[j] - 0.02 * span):
            p = center.copy()
            p[j] = edge
            starts.append(p)
    return starts


def _simplex_argmax(obj, box, starts, xtol, polish_sweeps):
    """``(x, -loglik(x))``: multi-start simplex (coarse tolerance) locates
    the basin; a tight simplex restart from the winner plus coordinate-wise
    bounded refinement sharpens the argmax to ``xtol``."""
    lo, hi = box[:, 0], box[:, 1]
    span = hi - lo
    best_x = None
    best_f = np.inf
    coarse = float(1e-3 * span.min())
    for x0 in starts:
        res = minimize(obj, np.asarray(x0, dtype=float), method="Nelder-Mead",
                       bounds=Bounds(lo, hi),
                       options={"xatol": coarse, "fatol": 1e-9,
                                "maxiter": 200 * box.shape[0]})
        if res.fun < best_f:
            best_f = res.fun
            best_x = np.clip(res.x, lo, hi)
    if best_x is None or not np.isfinite(best_f):
        raise EstimationError("no start produced a factorizable covariance")
    res = minimize(obj, best_x, method="Nelder-Mead", bounds=Bounds(lo, hi),
                   options={"xatol": 0.1 * xtol, "fatol": 1e-12,
                            "maxiter": 400 * box.shape[0]})
    if res.fun < best_f:
        best_f = res.fun
        best_x = np.clip(res.x, lo, hi)

    # Coordinate polish keeps ties deterministic and sharpens the simplex
    # answer to the requested parameter tolerance.
    x = best_x.copy()
    for _ in range(polish_sweeps):
        for j in range(box.shape[0]):
            def along(v, j=j):
                p = x.copy()
                p[j] = v
                return obj(p)

            res = minimize_scalar(along, bounds=(lo[j], hi[j]),
                                  method="bounded",
                                  options={"xatol": 0.1 * xtol})
            if res.fun <= best_f:
                best_f = res.fun
                x[j] = res.x
    return x, best_f


def qmle_detail(engine: QuasiLikEngine, starts=None, xtol=1e-8,
                polish_sweeps=2) -> QmleResult:
    """Maximize the quasi-log-likelihood over the closed parameter box.

    A pure-scale model (``engine.model.scales``) takes the exact argmax
    ``engine.scale_argmax()``; the starts are only probed, so
    ``n_evaluations`` counts the starts plus the argmax, and ``xtol`` and
    ``polish_sweeps`` do not apply.  Any other model runs a multi-start
    simplex (coarse tolerance) to locate the basin, then a tight simplex
    restart from the winner plus coordinate-wise bounded refinement sharpen
    the argmax to ``xtol``.  ``degenerate`` flags a likelihood whose values
    at every evaluated point agree to 1e-9 relative.
    """
    box = engine.model.param_box
    lo, hi = box[:, 0], box[:, 1]
    obj = _Objective(engine)
    if starts is None:
        starts = _default_starts(box)
    if engine.model.scales is None:
        x, best_f = _simplex_argmax(obj, box, starts, xtol, polish_sweeps)
    else:
        for x0 in starts:
            obj(np.clip(np.asarray(x0, dtype=float), lo, hi))
        if not np.isfinite(obj.best):
            raise EstimationError("no start produced a factorizable covariance")
        x = engine.scale_argmax()
        best_f = obj(x)
    if obj.n_failures and obj.n_failures == obj.n_evaluations:
        raise EstimationError("every evaluation failed to factorize")

    span = hi - lo
    on_boundary = bool(np.any((x - lo < 1e-7 * span) | (hi - x < 1e-7 * span)))
    degenerate = bool(np.isfinite(obj.best) and np.isfinite(obj.worst)
                      and obj.best - obj.worst <= 1e-9 * (1.0 + abs(obj.best)))
    return QmleResult(sigma=x, value=-best_f, on_boundary=on_boundary,
                      degenerate=degenerate,
                      n_evaluations=obj.n_evaluations,
                      n_failures=obj.n_failures)


def qmle(engine: QuasiLikEngine, **kwargs) -> np.ndarray:
    """Quasi-maximum-likelihood estimate (argmax over the closed box)."""
    return qmle_detail(engine, **kwargs).sigma


# ---------------------------------------------------------------------------
# Bayes-type estimator
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _unit_tensor(m, d):
    """Tensor Gauss-Legendre rule with ``m`` nodes per axis on ``[0, 1]^d``:
    nodes ``(m^d, d)`` and the per-axis weights of ``[-1, 1]`` at them."""
    xi, wi = leggauss(m)
    nodes = np.stack([g.ravel() for g in np.meshgrid(
        *[0.5 * (xi + 1.0)] * d, indexing="ij")], axis=-1)
    weights = np.stack([g.ravel() for g in np.meshgrid(
        *[wi] * d, indexing="ij")], axis=-1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class _Panel:
    """One quadrature box with stabilized weight sums; its nodes are scored
    by one ``loglik_batch`` call.  ``prior=None`` is the uniform prior: the
    node weights are used as they are."""

    __slots__ = ("lo", "hi", "hmax", "mass", "moment", "n_ok")

    def __init__(self, engine, prior, lo, hi, nodes_per_dim):
        self.lo = lo
        self.hi = hi
        nodes, wunit = _unit_tensor(nodes_per_dim, lo.size)
        pts = lo + nodes * (hi - lo)
        w = np.prod(0.5 * (hi - lo) * wunit, axis=-1)
        vals = engine.loglik_batch(pts)
        ok = np.isfinite(vals)
        self.n_ok = int(ok.sum())
        if self.n_ok == 0:
            self.hmax = -np.inf
            self.mass = 0.0
            self.moment = np.zeros(lo.size)
            return
        self.hmax = float(vals[ok].max())
        pw = np.zeros_like(w)
        pw[ok] = w[ok] if prior is None else w[ok] * np.asarray(
            [prior(p) for p in pts[ok]])
        expv = np.zeros_like(w)
        expv[ok] = np.exp(vals[ok] - self.hmax)
        self.mass = float(np.sum(pw * expv))
        self.moment = (pts * (pw * expv)[:, None]).sum(axis=0)


def bayes(engine: QuasiLikEngine, prior=None, *, nodes_per_dim=None,
          adaptive=None, top_mass=0.5, max_refine=64) -> np.ndarray:
    """Posterior-mean estimator under a bounded positive prior on the box.

    ``prior=None`` is the uniform prior.  With it, a pure-scale model
    (``engine.model.scales``) integrates the scale out in closed form
    (``engine.scale_posterior_mean()``): exact for one shared scale, one
    Gauss-Legendre rule in ``log(l1/l2)`` for two.  That route ignores
    ``nodes_per_dim``, ``adaptive``, ``top_mass`` and ``max_refine``.

    Any other prior or model takes tensor-product Gauss-Legendre
    quadrature with exp-stabilization around the running maximum.  With
    ``adaptive=True`` the panel holding most of the posterior mass is
    recursively bisected (per dimension) until no panel dominates, which
    resolves sharply peaked likelihoods without a global fine grid; this is
    the default for three or more parameters.  Each panel scores its nodes
    with one ``engine.loglik_batch`` call: one array expression for a
    pure-scale model, a node-by-node loop otherwise.  Raises
    ``EstimationError`` when no node's covariance factors (on the
    closed-form route: when ``S(1)`` does not factor).
    """
    if prior is None and engine.model.scales is not None:
        try:
            return engine.scale_posterior_mean()
        except NotPositiveDefiniteError as exc:
            raise EstimationError("no quadrature node produced a "
                                  "factorizable covariance") from exc
    d = engine.model.dim_param
    box = engine.model.param_box
    if adaptive is None:
        adaptive = d >= 3
    if nodes_per_dim is None:
        if not adaptive and d <= 2:
            nodes_per_dim = 41
        else:
            nodes_per_dim = {1: 15, 2: 9}.get(d, 7)

    panels = [_Panel(engine, prior, box[:, 0].copy(), box[:, 1].copy(),
                     nodes_per_dim)]
    splits = 0
    min_width = 1e-10 * (box[:, 1] - box[:, 0]).max()
    while adaptive and splits < max_refine:
        hmax = max(p.hmax for p in panels)
        if not np.isfinite(hmax):
            break
        masses = np.array([p.mass * np.exp(p.hmax - hmax) if p.n_ok else 0.0
                           for p in panels])
        total = masses.sum()
        if total <= 0.0:
            break
        top = int(np.argmax(masses))
        if masses[top] <= top_mass * total:
            break
        parent = panels.pop(top)
        if (parent.hi - parent.lo).max() <= min_width:
            panels.append(parent)
            break
        mids = 0.5 * (parent.lo + parent.hi)
        for corner in range(2 ** d):
            lo = parent.lo.copy()
            hi = parent.hi.copy()
            for j in range(d):
                if corner >> j & 1:
                    lo[j] = mids[j]
                else:
                    hi[j] = mids[j]
            panels.append(_Panel(engine, prior, lo, hi, nodes_per_dim))
        splits += 1

    hmax = max(p.hmax for p in panels)
    if not np.isfinite(hmax):
        raise EstimationError("no quadrature node produced a factorizable "
                              "covariance")
    den = 0.0
    num = np.zeros(d)
    for p in panels:
        if p.n_ok == 0:
            continue
        scale = np.exp(p.hmax - hmax)
        den += p.mass * scale
        num += p.moment * scale
    if den <= 0.0:
        raise EstimationError("posterior mass vanished numerically")
    return num / den


# ---------------------------------------------------------------------------
# observed information
# ---------------------------------------------------------------------------


@dataclass
class ObservedInfo:
    """Scaled observed information and studentizing score.

    On the positive-definite event ``gamma_n`` is the negative Hessian of
    the quasi-log-likelihood scaled by ``1/bn`` and ``score_n`` is the
    inverse-square-root-weighted gradient; otherwise the identity/zero
    fallback is returned with ``positive_definite=False``.
    """

    gamma_n: np.ndarray
    score_n: np.ndarray
    positive_definite: bool
    eigenvalues: np.ndarray = field(repr=False, default=None)

    def __iter__(self):
        return iter((self.gamma_n, self.score_n))


def observed_info(engine: QuasiLikEngine, sigma, eig_floor=1e-12) -> ObservedInfo:
    """Observed information pair at an interior parameter point.

    The square root uses a symmetric eigendecomposition; the positive
    definite branch is only taken when the smallest eigenvalue clears
    ``eig_floor`` times the largest.
    """
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.size
    hess = engine.hessian(sigma)
    grad = engine.gradient(sigma)
    info = -0.5 * (hess + hess.T)
    w, U = np.linalg.eigh(info)
    pd = bool(w[0] > 0.0 and w[0] > eig_floor * max(w[-1], 0.0))
    if pd:
        gamma_n = info / engine.grid.bn
        score_n = U @ ((U.T @ grad) / np.sqrt(w))
    else:
        gamma_n = np.eye(d)
        score_n = np.zeros(d)
    return ObservedInfo(gamma_n=gamma_n, score_n=score_n,
                        positive_definite=pd, eigenvalues=w)


# ---------------------------------------------------------------------------
# covariation estimators
# ---------------------------------------------------------------------------


def hayashi_yoshida(sample: NonsyncSample, overlap: OverlapMatrix = None):
    """Covariation estimate from products of overlapping raw increments."""
    if overlap is None:
        overlap = overlap_matrix(sample.grid)
    dy1 = np.diff(sample.y1_obs)
    dy2 = np.diff(sample.y2_obs)
    cs = np.concatenate([[0.0], np.cumsum(dy2)])
    runs = cs[overlap.row_last + 1] - cs[overlap.row_first]
    return float(dy1 @ runs)


def plugin_covariation(model: DiffusionModel, sigma_hat, grid, sample=None):
    """Integrated cross-diffusion at a fitted parameter.

    Approximates the integral of ``b1 . b2`` along the previous-tick state
    path by left-point sums over the merged grid; exact for constant
    coefficients.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if model.constant_coeffs:
        b1, b2 = model.coeff_rows(0.0, model.y0[None, :], sigma_hat)
        return float(grid.horizon * (b1[0] @ b2[0]))
    if sample is None:
        raise ValueError("state-dependent models need the observed sample")
    merged = grid.merged
    left, dt = merged[:-1], np.diff(merged)
    idx1 = np.searchsorted(grid.s_times, left, side="right") - 1
    idx2 = np.searchsorted(grid.t_times, left, side="right") - 1
    x = np.column_stack([sample.y1_obs[idx1], sample.y2_obs[idx2]])
    b1, b2 = model.coeff_rows(left, x, sigma_hat)
    return float(np.einsum("km,km,k->", b1, b2, dt))


# ---------------------------------------------------------------------------
# combined outcome
# ---------------------------------------------------------------------------


@dataclass
class EstimationOutcome:
    """Everything estimated from one sample, JSON-friendly."""

    sigma_hat: np.ndarray
    sigma_tilde: np.ndarray
    gamma_n: np.ndarray
    score_n: np.ndarray
    on_boundary: bool
    positive_definite: bool
    hy_covariation: float
    plugin_covariation: float
    diagnostics: dict

    def to_dict(self):
        return {
            "sigma_hat": self.sigma_hat.tolist(),
            "sigma_tilde": (None if self.sigma_tilde is None
                            else self.sigma_tilde.tolist()),
            "gamma_n": self.gamma_n.tolist(),
            "score_n": self.score_n.tolist(),
            "on_boundary": self.on_boundary,
            "positive_definite": self.positive_definite,
            "hy_covariation": self.hy_covariation,
            "plugin_covariation": self.plugin_covariation,
            "diagnostics": self.diagnostics,
        }


def run_estimation(engine: QuasiLikEngine, prior=None, do_bayes=True,
                   do_hy=True, info_sigma=None, bayes_opts=None
                   ) -> EstimationOutcome:
    """Estimate everything from one engine-wrapped sample.

    The observed information is evaluated at ``info_sigma`` when given
    (e.g. a known true parameter in simulations), else at the point
    estimate, nudged inward when it sits on the box boundary.
    """
    t0 = time.perf_counter()
    detail = qmle_detail(engine)
    sigma_tilde = None
    if do_bayes:
        sigma_tilde = bayes(engine, prior, **(bayes_opts or {}))
    box = engine.model.param_box
    if info_sigma is None:
        span = box[:, 1] - box[:, 0]
        info_sigma = np.clip(detail.sigma, box[:, 0] + 1e-4 * span,
                             box[:, 1] - 1e-4 * span)
    info = observed_info(engine, info_sigma)
    hy = hayashi_yoshida(engine.sample, engine.overlap) if do_hy else None
    plugin = plugin_covariation(engine.model, detail.sigma, engine.grid,
                                engine.sample)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return EstimationOutcome(
        sigma_hat=detail.sigma,
        sigma_tilde=sigma_tilde,
        gamma_n=info.gamma_n,
        score_n=info.score_n,
        on_boundary=detail.on_boundary,
        positive_definite=info.positive_definite,
        hy_covariation=hy,
        plugin_covariation=plugin,
        diagnostics={
            "loglik_at_hat": detail.value,
            "degenerate": detail.degenerate,
            "n_evaluations": detail.n_evaluations,
            "n_failures": detail.n_failures,
            "wall_ms": wall_ms,
        },
    )
