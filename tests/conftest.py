import numpy as np
import pytest

from nsvol.sde import DiffusionModel


def make_constant_model(b_matrix, drift_vec=(0.0, 0.0), box=((0.1, 5.0),),
                        sigma_scales=False, name="const"):
    """Model whose diffusion matrix ignores the parameter entirely."""
    b_matrix = np.asarray(b_matrix, dtype=float)
    drift_vec = np.asarray(drift_vec, dtype=float)

    def drift(t, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.broadcast_to(drift_vec, x.shape)

    def diffusion(t, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        scale = sigma[0] if sigma_scales else 1.0
        return np.broadcast_to(scale * b_matrix, (x.shape[0], 2, 2))

    def diffusion_dsigma(t, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d = 1
        base = b_matrix if sigma_scales else np.zeros((2, 2))
        return np.broadcast_to(base, (x.shape[0], d, 2, 2))

    return DiffusionModel(dim_param=1, drift=drift, diffusion=diffusion,
                          diffusion_dsigma=diffusion_dsigma, param_box=box,
                          y0=(0.0, 0.0), constant_coeffs=True, name=name)


@pytest.fixture
def sigma_free_model():
    """d = 1 dummy parameter; likelihood is flat in sigma."""
    return make_constant_model([[1.0, 0.0], [0.3, np.sqrt(1 - 0.09)]],
                               name="sigma_free")


def sample_with_values(grid, y1, y2):
    from nsvol.sde import NonsyncSample
    return NonsyncSample(grid, np.asarray(y1, float), np.asarray(y2, float))


def halt_probe_grid(m):
    """Side 1 uniform with ``m`` intervals (``m`` a multiple of 4); side 2,
    the larger block, cuts each side-1 interval of [0, 1/4] and [3/4, 1]
    in three and has one halt over [1/4, 3/4], which overlaps ``m/2``
    side-1 intervals.  Every other side-2 interval overlaps one."""
    from nsvol.scheme import ObservationGrid
    s = np.arange(m + 1) / m

    def thirds(times):
        return (times[:-1, None]
                + np.diff(times)[:, None] * [0.0, 1 / 3, 2 / 3]).ravel()

    t = np.concatenate([thirds(s[:m // 4 + 1]), [0.25],
                        thirds(s[3 * m // 4:]), [1.0]])
    return ObservationGrid(s, t, 1.0, m + t.size - 1)
