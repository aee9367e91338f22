"""Built-in diffusion models for experiments and the CLI.

All coefficient callables broadcast over a leading sample axis, as the
engine expects.  Each factory takes the true-parameter box as an optional
override; boxes are chosen wide enough that simulated estimates stay
interior at desk-scale sample sizes.
"""

from __future__ import annotations

import numpy as np

from .sde import DiffusionModel

__all__ = ["scalar_bm", "correlated_bm", "state_dependent", "get_model", "MODELS"]


def _zeros_drift(t, x, sigma):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.zeros_like(x)


def scalar_bm(box=((0.2, 4.0),), y0=(0.0, 0.0)):
    """Both components driven independently with one common scale.

    ``b = sigma * I``, so the two components never couple and the scale is
    the single unknown; it multiplies both sides' rows (``scales=(0, 0)``).
    """

    def diffusion(t, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = sigma[0]
        out[:, 1, 1] = sigma[0]
        return out

    def diffusion_dsigma(t, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((x.shape[0], 1, 2, 2))
        out[:, 0, 0, 0] = 1.0
        out[:, 0, 1, 1] = 1.0
        return out

    return DiffusionModel(
        dim_param=1,
        drift=_zeros_drift,
        diffusion=diffusion,
        diffusion_dsigma=diffusion_dsigma,
        param_box=box,
        y0=y0,
        constant_coeffs=True,
        name="bm1",
        scales=(0, 0),
    )


def correlated_bm(box=((0.4, 2.5), (-0.9, 0.9)), y0=(0.0, 0.0)):
    """Correlated constant-coefficient model, sigma = (scale, correlation).

    ``b = [[s, 0], [s r, s sqrt(1 - r^2)]]``: both components share the
    scale ``s`` and correlate with coefficient ``r``, so the instantaneous
    correlation is exactly ``r`` and varies with the parameter.
    """

    def diffusion(t, x, sigma):
        s, r = sigma
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = s
        out[:, 1, 0] = s * r
        out[:, 1, 1] = s * np.sqrt(1.0 - r * r)
        return out

    def diffusion_dsigma(t, x, sigma):
        s, r = sigma
        q = np.sqrt(1.0 - r * r)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((x.shape[0], 2, 2, 2))
        out[:, 0, 0, 0] = 1.0
        out[:, 0, 1, 0] = r
        out[:, 0, 1, 1] = q
        out[:, 1, 1, 0] = s
        out[:, 1, 1, 1] = -s * r / q
        return out

    return DiffusionModel(
        dim_param=2,
        drift=_zeros_drift,
        diffusion=diffusion,
        diffusion_dsigma=diffusion_dsigma,
        param_box=box,
        y0=y0,
        constant_coeffs=True,
        name="corr",
    )


def state_dependent(box=((0.4, 2.5), (0.4, 2.5)), y0=(0.0, 0.0), rho0=0.4):
    """State-dependent volatilities with mild mean reversion.

    sigma = (s1, s2); component k has volatility ``s_k`` modulated by a
    smooth bounded factor of the other component's level, with a fixed
    instantaneous correlation ``rho0``.  The modulation keeps the diffusion
    uniformly elliptic with bounded derivatives.  ``s1`` multiplies every
    side-1 row and ``s2`` every side-2 row (``scales=(0, 1)``).
    """
    q0 = np.sqrt(1.0 - rho0 * rho0)

    def bump(u):
        return 1.0 + 0.2 * u / np.sqrt(1.0 + u * u)

    def drift(t, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return -0.3 * x

    def diffusion(t, x, sigma):
        s1, s2 = sigma
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g1 = bump(x[:, 1])
        g2 = bump(x[:, 0])
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = s1 * g1
        out[:, 1, 0] = s2 * rho0 * g2
        out[:, 1, 1] = s2 * q0 * g2
        return out

    def diffusion_dsigma(t, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g1 = bump(x[:, 1])
        g2 = bump(x[:, 0])
        out = np.zeros((x.shape[0], 2, 2, 2))
        out[:, 0, 0, 0] = g1
        out[:, 1, 1, 0] = rho0 * g2
        out[:, 1, 1, 1] = q0 * g2
        return out

    return DiffusionModel(
        dim_param=2,
        drift=drift,
        diffusion=diffusion,
        diffusion_dsigma=diffusion_dsigma,
        param_box=box,
        y0=y0,
        constant_coeffs=False,
        name="statedep",
        scales=(0, 1),
    )


MODELS = {
    "bm1": scalar_bm,
    "corr": correlated_bm,
    "statedep": state_dependent,
}


def get_model(name, **overrides) -> DiffusionModel:
    """Instantiate a built-in model by registry name."""
    try:
        factory = MODELS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODELS)}") from None
    return factory(**overrides)
