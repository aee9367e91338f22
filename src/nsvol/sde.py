"""Simulation of the two-dimensional diffusion and nonsynchronous sampling.

The process solves ``dY_t = mu(t, Y_t, sigma) dt + b(t, Y_t, sigma) dW_t``
with a two-dimensional driving Wiener process.  Paths are generated by an
Euler scheme on a refinement of the merged observation grid, so observation
times are hit exactly, and then read off nonsynchronously: component 1 at
the side-1 times, component 2 at the side-2 times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterOutOfDomainError, SchemeError, SimulationError
from .scheme import ObservationGrid, _read_csv

__all__ = [
    "DiffusionModel",
    "NonsyncSample",
    "default_max_step",
    "simulate_path",
    "observe",
    "write_sample_csv",
    "read_sample_csv",
]


@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """Coefficient functions and parameter box of the diffusion.

    ``drift`` and ``diffusion`` must broadcast over a leading sample axis:
    called with ``t`` of shape ``(K,)`` and ``x`` of shape ``(K, 2)`` they
    return ``(K, 2)`` and ``(K, 2, 2)`` arrays (scalar ``t`` with a single
    state is also accepted).  ``diffusion_dsigma``, when given, returns the
    parameter derivative with shape ``(K, d, 2, 2)``.

    ``param_box`` is the closed axis-aligned box of admissible parameters,
    one ``(low, high)`` row per coordinate.  ``constant_coeffs`` marks
    models whose coefficients do not depend on ``(t, x)``, which enables
    exact vectorized simulation and cheap likelihood assembly.

    ``scales = (i1, i2)`` declares a pure-scale model: every side-1 row is
    ``sigma[i1]`` times its value at unit parameters, every side-2 row is
    ``sigma[i2]`` times its unit value, and the rows depend on ``sigma``
    through nothing else.  Then ``S(sigma) = D S(1) D`` with
    ``D = diag(sigma[i1] I, sigma[i2] I)``, and the likelihood engine
    factors ``S(1)`` once.  The two indices must together name every
    parameter, and the box of each must be strictly positive.  ``None``
    (the default) makes no claim.
    """

    dim_param: int
    drift: callable
    diffusion: callable
    param_box: np.ndarray
    y0: np.ndarray
    diffusion_dsigma: callable = None
    constant_coeffs: bool = False
    name: str = ""
    scales: tuple = None

    def __post_init__(self):
        box = np.atleast_2d(np.asarray(self.param_box, dtype=float))
        if box.shape != (self.dim_param, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("param_box must be (d, 2) with low < high")
        if self.scales is not None:
            scales = tuple(self.scales)
            if (len(scales) != 2
                    or not all(isinstance(i, (int, np.integer)) for i in scales)
                    or set(scales) != set(range(self.dim_param))):
                raise ValueError(
                    f"scales={self.scales!r} must be two parameter indices "
                    f"that together name each of the {self.dim_param} "
                    f"parameters")
            if np.any(box[list(scales), 0] <= 0):
                raise ValueError("the box of a scale parameter must be "
                                 "strictly positive")
            object.__setattr__(self, "scales", tuple(int(i) for i in scales))
        object.__setattr__(self, "param_box", box)
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float).reshape(2))

    def contains(self, sigma, tol=0.0):
        """Whether ``sigma``, one point or an ``(m, d)`` array of points,
        lies in the box widened by ``tol``.  Raises unless the last axis
        holds ``dim_param`` entries (a scalar holds one)."""
        sigma = np.asarray(sigma, dtype=float)
        if (sigma.shape[-1:] or (1,)) != (self.dim_param,):
            raise ParameterOutOfDomainError(
                f"sigma={sigma.tolist()} is not of dim_param={self.dim_param}")
        lo, hi = self.param_box[:, 0], self.param_box[:, 1]
        return bool(np.all(sigma >= lo - tol) and np.all(sigma <= hi + tol))

    def require_in_box(self, sigma):
        if not self.contains(sigma, tol=1e-12):
            raise ParameterOutOfDomainError(
                f"sigma={np.asarray(sigma)} outside closed parameter box")

    def coeff_rows(self, t, x, sigma):
        """Rows of the diffusion matrix at vectorized evaluation points.

        Returns ``(b1, b2)`` with shapes ``(K, 2)``; row ``k`` of the
        diffusion matrix drives component ``k``.
        """
        b = np.asarray(self.diffusion(t, x, sigma), dtype=float)
        b = b.reshape((-1, 2, 2))
        return b[:, 0, :], b[:, 1, :]


@dataclass(frozen=True, eq=False)
class NonsyncSample:
    """Observed values at each side's times plus normalized increments.

    ``z`` stacks the side-1 increments scaled by the square root of their
    interval lengths, followed by the side-2 analog.
    """

    grid: ObservationGrid
    y1_obs: np.ndarray
    y2_obs: np.ndarray
    z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        y1 = np.asarray(self.y1_obs, dtype=float)
        y2 = np.asarray(self.y2_obs, dtype=float)
        if y1.shape != self.grid.s_times.shape:
            raise SchemeError("y1_obs length does not match s_times")
        if y2.shape != self.grid.t_times.shape:
            raise SchemeError("y2_obs length does not match t_times")
        for name, y in (("y1_obs", y1), ("y2_obs", y2)):
            bad = np.flatnonzero(~np.isfinite(y))
            if bad.size:
                raise SchemeError(
                    f"{name} has a non-finite value {float(y[bad[0]])!r} at index "
                    f"{bad[0]}")
        z = np.concatenate([
            np.diff(y1) / np.sqrt(self.grid.lengths1),
            np.diff(y2) / np.sqrt(self.grid.lengths2),
        ])
        object.__setattr__(self, "y1_obs", y1)
        object.__setattr__(self, "y2_obs", y2)
        object.__setattr__(self, "z", z)


def default_max_step(grid: ObservationGrid):
    """Default Euler step cap: discretization error below statistical error."""
    return min(grid.mesh / 4.0, grid.horizon / 1024.0)


def _refined_steps(grid, max_step):
    """Substep lengths covering the merged grid with steps <= max_step.

    Returns ``(dt, owner_end)`` where ``owner_end[k]`` marks the merged-grid
    point index reached after substep ``k``.
    """
    lens = np.diff(grid.merged)
    counts = np.maximum(1, np.ceil(lens / max_step).astype(int))
    dt = np.repeat(lens / counts, counts)
    ends = np.cumsum(counts)
    return dt, ends


def simulate_path(model: DiffusionModel, sigma, grid: ObservationGrid,
                  max_step=None, seed=0):
    """Euler path of the diffusion, returned at the merged grid times.

    The merged grid is refined so every Euler step is at most ``max_step``
    (default ``min(mesh/4, horizon/1024)``); steps land exactly on merged
    grid points so observed values involve no interpolation.  Deterministic
    given ``seed``; seeds may be ints or int sequences for stream derivation.
    """
    model.require_in_box(sigma)
    sigma = np.asarray(sigma, dtype=float)
    if max_step is None:
        max_step = default_max_step(grid)
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    dt, ends = _refined_steps(grid, max_step)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((dt.size, 2))
    dw = noise * np.sqrt(dt)[:, None]
    y0 = model.y0

    if model.constant_coeffs:
        mu = np.asarray(model.drift(0.0, y0[None, :], sigma), dtype=float).reshape(-1, 2)[0]
        b = np.asarray(model.diffusion(0.0, y0[None, :], sigma), dtype=float).reshape(2, 2)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(b))):
            raise SimulationError("non-finite coefficients", t=0.0, x=y0)
        incs = dt[:, None] * mu + dw @ b.T
        path = np.vstack([y0, y0 + np.cumsum(incs, axis=0)])
    else:
        times = np.concatenate([[0.0], np.cumsum(dt)])
        path = np.empty((dt.size + 1, 2))
        path[0] = y = y0.copy()
        for k in range(dt.size):
            t = times[k]
            mu = np.asarray(model.drift(t, y[None, :], sigma), dtype=float).reshape(-1, 2)[0]
            b = np.asarray(model.diffusion(t, y[None, :], sigma), dtype=float).reshape(2, 2)
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(b))):
                raise SimulationError("non-finite coefficients", t=t, x=y.copy())
            y = y + mu * dt[k] + b @ dw[k]
            path[k + 1] = y
    return path[np.concatenate([[0], ends])]


def observe(path, grid: ObservationGrid) -> NonsyncSample:
    """Read a merged-grid path nonsynchronously.

    ``path`` must hold one 2-vector per merged grid point.
    """
    path = np.asarray(path, dtype=float)
    points = len(grid.merged)
    if path.shape != (points, 2):
        raise SchemeError(f"path shape {path.shape} does not cover the "
                          f"merged grid ({points} points)")
    y1 = path[grid.k1, 0]
    y2 = path[grid.k2, 1]
    return NonsyncSample(grid, y1, y2)


def sample_csv_text(sample: NonsyncSample):
    """Observations as ``side,index,time,value`` rows (full float repr)."""
    lines = ["side,index,time,value"]
    for i, (t, v) in enumerate(zip(sample.grid.s_times, sample.y1_obs)):
        lines.append(f"1,{i},{float(t)!r},{float(v)!r}")
    for j, (t, v) in enumerate(zip(sample.grid.t_times, sample.y2_obs)):
        lines.append(f"2,{j},{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def write_sample_csv(sample: NonsyncSample, path):
    """Write observations as ``side,index,time,value`` rows."""
    with open(path, "w") as fh:
        fh.write(sample_csv_text(sample))


def read_sample_csv(path, grid: ObservationGrid) -> NonsyncSample:
    """Read a ``side,index,time,value`` file against a known grid.

    Every row must name an in-range observation of its side once, at that
    observation's grid time (to within ``1e-12 * horizon``), with a finite
    value; the lowest-numbered row that does not raises ``SchemeError``.
    """
    return NonsyncSample(grid, *_read_csv(path, grid))
