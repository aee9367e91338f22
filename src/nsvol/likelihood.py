"""Structured Gaussian quasi-likelihood of nonsynchronous increments.

The normalized increment vector ``Z`` gets the surrogate covariance

    S(sigma) = [[diag(|b1_(i)|^2),  {b1_(i).b2_(j) G_ij}],
                [      *         ,  diag(|b2_(j)|^2)   ]],

where ``b1_(i)`` and ``b2_(j)`` are the diffusion rows evaluated at each
interval's left endpoint with the other component frozen at its previous
tick, and ``G`` is the interval-overlap matrix.  The quasi-log-likelihood

    H(sigma) = -1/2 Z' S(sigma)^{-1} Z - 1/2 log det S(sigma)

(no 2*pi constant) is evaluated through a banded Schur complement:
eliminating the larger diagonal block leaves
``C = D_small - M' D_big^{-1} M``, which inherits a bandwidth bounded by
the overlap bandwidth and factors in O(n w^2) on every grid.  The dense
evaluation ``dense_quasi_loglik`` is kept as the test oracle.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

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

#: Factorizations kept per engine (most recently used parameters).
_CACHE_SIZE = 16


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
    (t1, x1), (t2, x2), j_prev, i_prev = _coeff_points(sample)
    if model.constant_coeffs:
        b1, b2 = model.coeff_rows(0.0, model.y0[None, :], sigma)
        b1rows = np.broadcast_to(b1[0], (t1.size, 2))
        b2rows = np.broadcast_to(b2[0], (t2.size, 2))
    else:
        b1rows, _ = model.coeff_rows(t1, x1, sigma)
        _, b2rows = model.coeff_rows(t2, x2, sigma)
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


class _BandedFactor:
    """Schur-complement factorization of the block covariance.

    Orientation: side A is the larger diagonal block (eliminated first),
    side B the smaller one whose Schur complement ``C`` is banded.  When
    the normalized Gram band ``M' M`` is supplied (constant-coefficient
    models: it only rescales with the parameter), the per-call sparse
    product is skipped.
    """

    def __init__(self, dA, dB, M, hw, gram_band=None, gram_scale=1.0,
                 ops=None):
        if np.any(dA <= 0):
            raise NotPositiveDefiniteError(
                "nonpositive diagonal block entry", pivot=int(np.argmin(dA)))
        if np.any(dB <= 0):
            raise NotPositiveDefiniteError(
                "nonpositive diagonal block entry", pivot=int(np.argmin(dB)))
        self.dA = dA
        self.dB = dB
        self.M = M
        self.hw = hw
        nB = dB.size
        if ops is not None:
            self._mv, self._rmv = ops
        else:
            Mt = M.T.tocsr()
            self._mv = M.__matmul__
            self._rmv = Mt.__matmul__
        if gram_band is None:
            W = M.multiply((1.0 / np.sqrt(dA))[:, None]).tocsr()
            band = -banded.upper_band(W.T @ W, hw, nB)
        else:
            band = (-gram_scale) * gram_band
        band[hw, :] += dB
        self.cb = banded.cholesky(band)
        self.logdet = float(np.log(dA).sum() + 2.0 * np.log(self.cb[hw, :]).sum())
        self._cinv_band = None

    def solve_parts(self, zA, zB):
        rhs = zB - self._rmv(zA / self.dA)
        xB = sla.cho_solve_banded((self.cb, False), rhs)
        xA = (zA - self._mv(xB)) / self.dA
        return xA, xB

    def inv_band(self):
        """Upper-band layout of ``C^{-1}`` within ``hw`` of the diagonal."""
        if self._cinv_band is None:
            self._cinv_band = banded.selected_inverse(self.cb)
        return self._cinv_band

    def inv_block(self, run):
        """Dense ``C^{-1}[run, run]`` for a short contiguous index run."""
        lo = np.minimum.outer(run, run)
        hi = np.maximum.outer(run, run)
        return self.inv_band()[self.hw + lo - hi, hi]


class QuasiLikEngine:
    """Factorized evaluation of the quasi-log-likelihood and derivatives.

    Every evaluation goes through the banded Schur complement, whose
    bandwidth the overlap bandwidth bounds on every grid; ``loglik_dense``
    is the independent oracle.  Factorizations are cached per parameter vector behind a lock, so
    concurrent evaluations at different parameters are safe.
    """

    def __init__(self, model: DiffusionModel, sample: NonsyncSample):
        self.model = model
        self.sample = sample
        self.grid = sample.grid
        self.overlap = overlap_matrix(sample.grid)
        self.z = sample.z
        self._n1 = self.grid.n_intervals1
        self._n2 = self.grid.n_intervals2
        self._swap = self._n2 > self._n1
        self._hw = (self.overlap.col_bandwidth if self._swap
                    else self.overlap.bandwidth)
        if self._swap:
            G = self.overlap.csr
            rows = np.repeat(np.arange(self.overlap.rows), np.diff(G.indptr))
            marker = sp.csr_matrix(
                (np.arange(G.nnz), (G.indices, rows)),
                shape=(self._n2, self._n1))
            # marker.data[p] is the original-order position stored at
            # transposed position p; structure reused for the coupling.
            self._perm = marker.data.astype(int)
            self._t_struct = (marker.indices.copy(), marker.indptr.copy())
            self._G_or = sp.csr_matrix((G.data[self._perm], *self._t_struct),
                                       shape=(self._n2, self._n1))
            self._zA, self._zB = self.z[self._n1:], self.z[:self._n1]
        else:
            self._perm = None
            self._t_struct = None
            self._G_or = self.overlap.csr
            self._zA, self._zB = self.z[:self._n1], self.z[self._n1:]
        if model.constant_coeffs:
            nB = self._n1 if self._swap else self._n2
            self._gram_band0 = banded.upper_band(self._G_or.T @ self._G_or,
                                                 self._hw, nB)
            self._G_orT = self._G_or.T.tocsr()
        else:
            self._gram_band0 = None
            self._G_orT = None
        self._cache = OrderedDict()
        self._lock = threading.Lock()

    # -- assembly -----------------------------------------------------

    def build(self, sigma) -> StructuredCov:
        return build_S(self.model, sigma, self.sample, self.overlap)

    def _oriented(self, cov: StructuredCov):
        """(dA, dB, M, zA, zB) with A the larger block."""
        z1, z2 = self.z[:self._n1], self.z[self._n1:]
        V = cov.coupling
        if not self._swap:
            return cov.d1, cov.d2, V, z1, z2
        Mt = sp.csr_matrix((V.data[self._perm], *self._t_struct),
                           shape=(self._n2, self._n1))
        return cov.d2, cov.d1, Mt, z2, z1

    def _factor(self, sigma):
        key = tuple(np.asarray(sigma, dtype=float).tolist())
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                return hit
        if self._gram_band0 is not None:
            self.model.require_in_box(sigma)
            b1, b2 = self.model.coeff_rows(0.0, self.model.y0[None, :],
                                           np.asarray(sigma, dtype=float))
            a1 = float(b1[0] @ b1[0])
            a2 = float(b2[0] @ b2[0])
            c = float(b1[0] @ b2[0])
            aA, aB = (a2, a1) if self._swap else (a1, a2)
            nA, nB = ((self._n2, self._n1) if self._swap
                      else (self._n1, self._n2))
            G, Gt = self._G_or, self._G_orT
            factor = _BandedFactor(
                np.full(nA, aA), np.full(nB, aB), None, self._hw,
                gram_band=self._gram_band0, gram_scale=c * c / aA,
                ops=(lambda x: c * (G @ x), lambda x: c * (Gt @ x)))
            factor.coupling_scale = c
        else:
            cov = self.build(sigma)
            dA, dB, M, _, _ = self._oriented(cov)
            factor = _BandedFactor(dA, dB, M, self._hw)
        with self._lock:
            self._cache[key] = factor
            while len(self._cache) > _CACHE_SIZE:
                self._cache.popitem(last=False)
        return factor

    # -- values ---------------------------------------------------------

    def loglik(self, sigma):
        """Quasi-log-likelihood at ``sigma`` (banded Schur path)."""
        factor = self._factor(sigma)
        xA, xB = factor.solve_parts(self._zA, self._zB)
        return float(-0.5 * (self._zA @ xA + self._zB @ xB)
                     - 0.5 * factor.logdet)

    def loglik_dense(self, sigma):
        """Dense-oracle evaluation, independent of the banded path."""
        cov = self.build(sigma)
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

    def _coupling_dsigma(self, sigma):
        """(ddiag1, ddiag2, dvals) parameter derivatives of S's blocks."""
        if self.model.diffusion_dsigma is None:
            raise EstimationError("model has no diffusion parameter derivative")
        (t1, x1), (t2, x2), _, _ = _coeff_points(self.sample)
        d = self.model.dim_param
        if self.model.constant_coeffs:
            y = self.model.y0[None, :]
            b = np.asarray(self.model.diffusion(0.0, y, sigma), float).reshape(2, 2)
            db = np.asarray(self.model.diffusion_dsigma(0.0, y, sigma),
                            float).reshape(d, 2, 2)
            b1rows = np.broadcast_to(b[0], (t1.size, 2))
            b2rows = np.broadcast_to(b[1], (t2.size, 2))
            db1rows = np.broadcast_to(db[:, 0, :], (t1.size, d, 2))
            db2rows = np.broadcast_to(db[:, 1, :], (t2.size, d, 2))
        else:
            b1rows, _ = self.model.coeff_rows(t1, x1, sigma)
            _, b2rows = self.model.coeff_rows(t2, x2, sigma)
            full1 = np.asarray(self.model.diffusion_dsigma(t1, x1, sigma), float)
            full2 = np.asarray(self.model.diffusion_dsigma(t2, x2, sigma), float)
            db1rows = full1.reshape(t1.size, d, 2, 2)[:, :, 0, :]
            db2rows = full2.reshape(t2.size, d, 2, 2)[:, :, 1, :]
        dd1 = 2.0 * np.einsum("im,ikm->ki", b1rows, db1rows)
        dd2 = 2.0 * np.einsum("jm,jkm->kj", b2rows, db2rows)
        G = self.overlap.csr
        rows = np.repeat(np.arange(self.overlap.rows), np.diff(G.indptr))
        cols = G.indices
        dvals = (np.einsum("nkm,nm->kn", db1rows[rows], b2rows[cols])
                 + np.einsum("nm,nkm->kn", b1rows[rows], db2rows[cols])) * G.data
        return dd1, dd2, dvals, rows, cols

    def _gradient_analytic(self, sigma):
        factor = self._factor(sigma)
        dd1, dd2, dvals, rows, cols = self._coupling_dsigma(sigma)
        d = self.model.dim_param
        dA = factor.dA
        M = factor.M
        if M is None:  # constant-coefficient fast path stores scale only
            M = self._G_or * factor.coupling_scale
        xA, xB = factor.solve_parts(self._zA, self._zB)
        x1, x2 = (xB, xA) if self._swap else (xA, xB)
        diagB = factor.inv_band()[factor.hw, :]
        nA = dA.size
        diagA = np.empty(nA)
        crossA = np.empty(M.nnz)
        indptr, indices, data = M.indptr, M.indices, M.data
        for i in range(nA):
            lo, hi = indptr[i], indptr[i + 1]
            run = indices[lo:hi]
            v = data[lo:hi]
            block = factor.inv_block(run)
            w = v @ block
            crossA[lo:hi] = -w / dA[i]
            diagA[i] = 1.0 / dA[i] + (w @ v) / dA[i] ** 2
        if self._swap:
            diag1, diag2 = diagB, diagA
            # crossA follows the transposed pattern; map to overlap order.
            cross = np.empty_like(crossA)
            cross[self._perm] = crossA
        else:
            diag1, diag2 = diagA, diagB
            cross = crossA
        grad = np.empty(d)
        for k in range(d):
            quad = (dd1[k] @ (x1 * x1) + dd2[k] @ (x2 * x2)
                    + 2.0 * np.sum(dvals[k] * x1[rows] * x2[cols]))
            trace = (diag1 @ dd1[k] + diag2 @ dd2[k]
                     + 2.0 * np.sum(cross * dvals[k]))
            grad[k] = 0.5 * quad - 0.5 * trace
        return grad

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

