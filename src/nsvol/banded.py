"""Banded symmetric positive-definite matrices: layout, factor, inverse band.

Both banded computations of the package run through this module: the
Schur complement of the structured quasi-likelihood and the resolvent
``I - z^2 G G*`` of the scheme diagnostics.  Matrices are held in the
LAPACK upper-band layout ``band[hw + i - j, j] = A[i, j]`` for
``0 <= j - i <= hw``, the layout LAPACK's ``dpbtrf`` and ``dpbtrs`` read
and write.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import NotPositiveDefiniteError

__all__ = ["upper_band", "cholesky", "solve", "selected_inverse",
           "pivot_from_message"]

_MINOR_RE = re.compile(r"(\d+)-th leading minor")


def pivot_from_message(msg):
    """0-based failing pivot from a LAPACK leading-minor message, or None."""
    m = _MINOR_RE.search(str(msg))
    return int(m.group(1)) - 1 if m else None


def upper_band(P, hw, n):
    """Upper-band layout of the ``n x n`` sparse symmetric matrix ``P``.

    Entries of the strict lower triangle are ignored; an upper entry more
    than ``hw`` off the diagonal breaks the caller's bandwidth bound.
    """
    P = P.tocoo()
    band = np.zeros((hw + 1, n))
    keep = P.row <= P.col
    r, c, v = P.row[keep], P.col[keep], P.data[keep]
    if r.size and int((c - r).max()) > hw:
        raise AssertionError(f"matrix bandwidth exceeds the bound {hw}")
    np.add.at(band, (hw + r - c, c), v)
    return band


def cholesky(band):
    """Upper Cholesky factor ``U`` (``A = U' U``) in the same layout.

    Raises ``NotPositiveDefiniteError`` carrying the failing pivot, and
    ``ValueError`` on a band with non-finite entries.
    """
    if not np.all(np.isfinite(band)):
        raise ValueError("band must not contain infs or NaNs")
    cb, info = dpbtrf(band, lower=0)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"banded factorization failed: {info}-th leading minor not "
            f"positive definite", pivot=info - 1)
    return cb


def solve(cb, rhs):
    """Solution of ``A x = rhs`` from the upper factor ``cb`` of ``A``."""
    return dpbtrs(cb, rhs, lower=0)[0]


def selected_inverse(cb):
    """Entries of ``A^{-1}`` within the band, from the factor ``cb``.

    Takahashi / Erisman-Tinney backward recurrence: with ``A = U' U``,
    ``U A^{-1} = U^{-T}`` gives, for ``j >= i``,

        X[i, j] = (delta_ij / U[i, i] - sum_{0 < k - i <= hw} U[i, k] X[k, j]) / U[i, i],

    and every ``X[k, j]`` on the right lies in the band of rows after
    ``i``.  Cost O(n hw^2).  Returns the upper-band layout of ``A^{-1}``.
    """
    hw = cb.shape[0] - 1
    n = cb.shape[1]
    offsets = range(min(hw, n - 1) + 1)
    # urow[i, k] = U[i, i + k]; xrow[i, k] = X[i, i + k]
    urow = np.zeros((n, hw + 1))
    for k in offsets:
        urow[:n - k, k] = cb[hw - k, k:]
    xrow = np.zeros((n, hw + 1))
    # window[a, b] = X[i + a, i + b] for the current row i
    window = np.zeros((hw + 1, hw + 1))
    for i in range(n - 1, -1, -1):
        m = min(hw, n - 1 - i)
        d = urow[i, 0]
        u = urow[i, 1:m + 1]
        s = window[:m, :m] @ u / -d
        window[1:, 1:] = window[:-1, :-1]
        window[0, 0] = (1.0 / d - u @ s) / d
        window[0, 1:m + 1] = s
        window[1:m + 1, 0] = s
        xrow[i, :m + 1] = window[0, :m + 1]
    out = np.zeros_like(cb)
    for k in offsets:
        out[hw - k, k:] = xrow[:n - k, k]
    return out
