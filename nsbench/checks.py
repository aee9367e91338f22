"""Reference computations the benchmark checks ``nsvol``'s outputs against.

Each function here recomputes a quantity from its definition, from grid
times and observed values, without calling the code path it checks.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


def hy_double_sum(s_times, t_times, y1_obs, y2_obs):
    """Hayashi-Yoshida estimate by its definition.

    Sum of ``dX_i * dY_j`` over every pair of sampling intervals
    ``(s_i, s_{i+1}]`` and ``(t_j, t_{j+1}]`` that overlap.
    """
    s = np.asarray(s_times)
    t = np.asarray(t_times)
    dx = np.diff(y1_obs)
    dy = np.diff(y2_obs)
    total = 0.0
    for lo in range(0, s.size - 1, 256):
        hi = min(lo + 256, s.size - 1)
        overlap = ((s[lo:hi, None] < t[None, 1:])
                   & (t[None, :-1] < s[lo + 1:hi + 1, None]))
        total += float(dx[lo:hi] @ (overlap @ dy))
    return total


def local_argmax_failure(loglik, sigma, box, rel_step=1e-4):
    """Reason ``sigma`` is not a local argmax of ``loglik``, else ``None``.

    Compares against ``sigma +- h e_j`` with ``h = rel_step * max(1,
    |sigma_j|)``; steps that leave the box are skipped.  The tolerance
    covers rounding in a sum of order ``n`` terms only.
    """
    sigma = np.asarray(sigma, dtype=float)
    centre = loglik(sigma)
    tol = 1e-10 * (1.0 + abs(centre))
    for j in range(sigma.size):
        h = rel_step * max(1.0, abs(sigma[j]))
        for sign in (1.0, -1.0):
            trial = sigma.copy()
            trial[j] += sign * h
            if not box[j, 0] <= trial[j] <= box[j, 1]:
                continue
            value = loglik(trial)
            if value > centre + tol:
                return (f"loglik at sigma_hat{'+' if sign > 0 else '-'}h"
                        f"e_{j} exceeds loglik at sigma_hat by "
                        f"{value - centre:.3g}")
    return None


def sym_sqrt(mat):
    """Symmetric square root of a positive semi-definite matrix."""
    w, U = np.linalg.eigh(np.asarray(mat, dtype=float))
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def spacing_min_ratio_loop(times, gap_floor):
    """``min |S[j2] - S[j1]| / (j2 - j1)`` over pairs with gap >= floor."""
    times = [float(v) for v in times]
    n = len(times)
    best = math.inf
    for j1 in range(n):
        t1 = times[j1]
        for j2 in range(j1 + gap_floor, n):
            ratio = (times[j2] - t1) / (j2 - j1)
            if ratio < best:
                best = ratio
    return best


def overlap_matrix_from_times(s_times, t_times):
    """``G[i, j] = |I_i cap J_j| / sqrt(|I_i| |J_j|)``, one row at a time."""
    s = np.asarray(s_times)
    t = np.asarray(t_times)
    rows, cols, vals = [], [], []
    for i in range(s.size - 1):
        a, b = s[i], s[i + 1]
        j_lo = int(np.searchsorted(t, a, side="right")) - 1
        j_hi = int(np.searchsorted(t, b, side="left"))
        j = np.arange(max(j_lo, 0), min(j_hi, t.size - 1))
        inter = np.minimum(b, t[j + 1]) - np.maximum(a, t[j])
        keep = inter > 0
        j = j[keep]
        rows.append(np.full(j.size, i))
        cols.append(j)
        vals.append(inter[keep] / np.sqrt((b - a) * (t[j + 1] - t[j])))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(s.size - 1, t.size - 1))


def resolvent_entries(G, z, side, ks):
    """Entries ``k`` of ``(I - z^2 G G*)^{-1} e_k`` by a sparse LU solve."""
    gram = (G @ G.T) if side == 1 else (G.T @ G)
    n = gram.shape[0]
    lu = splu((sp.identity(n) - (z * z) * gram).tocsc())
    rhs = np.zeros((n, len(ks)))
    rhs[list(ks), np.arange(len(ks))] = 1.0
    sol = lu.solve(rhs)
    return np.array([sol[k, m] for m, k in enumerate(ks)])
