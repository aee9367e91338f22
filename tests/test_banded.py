import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nsvol import banded
from nsvol.errors import NotPositiveDefiniteError
from nsvol.likelihood import QuasiLikEngine
from nsvol.models import correlated_bm, state_dependent
from nsvol.scheme import ObservationGrid, overlap_matrix, resolvent_diag

from conftest import sample_with_values

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


def _random_spd_banded(rng, n, hw):
    A = np.zeros((n, n))
    for k in range(hw + 1):
        v = rng.normal(size=n - k)
        A += np.diag(v, k) + (np.diag(v, -k) if k else 0.0)
    A += (np.abs(A).sum(axis=1).max() + rng.uniform(0.1, 2.0)) * np.eye(n)
    return A


def _band_of_dense(X, hw):
    n = X.shape[0]
    band = np.zeros((hw + 1, n))
    for k in range(hw + 1):
        band[hw - k, k:] = np.diag(X, k)
    return band


class TestKernel:
    @pytest.mark.parametrize("n,hw", [(1, 0), (6, 0), (9, 3), (40, 39),
                                      (60, 80), (250, 7), (300, 25)])
    def test_selected_inverse_matches_dense(self, n, hw):
        rng = np.random.default_rng(n * 1000 + hw)
        hw_eff = min(hw, n - 1)
        A = _random_spd_banded(rng, n, hw_eff)
        band = banded.upper_band(sp.csr_matrix(A), hw, n)
        got = banded.selected_inverse(banded.cholesky(band))
        ref = _band_of_dense(np.linalg.inv(A), hw)
        assert got.shape == (hw + 1, n)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.allclose(got[hw], ref[hw], rtol=1e-12, atol=0.0)

    def test_upper_band_layout(self):
        A = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
        band = banded.upper_band(sp.csr_matrix(A), 1, 3)
        assert np.array_equal(band, [[0.0, 1.0, 2.0], [4.0, 5.0, 6.0]])
        with pytest.raises(AssertionError):
            banded.upper_band(sp.csr_matrix(np.ones((3, 3))), 1, 3)

    def test_cholesky_reports_pivot(self):
        A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            banded.cholesky(banded.upper_band(sp.csr_matrix(A), 1, 3))
        assert err.value.pivot == 1


# -- adversarial grids ------------------------------------------------------


@st.composite
def adversarial_grids(draw):
    """Grids with coincident cross-side times, 1e-12 intervals, rate
    ratios up to 1:200 (either side denser) and single-interval sides."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_sparse = draw(st.integers(0, 6))
    ratio = draw(st.sampled_from([1, 3, 20, 200]))
    n_dense = min(ratio * max(n_sparse, 1), 400)
    sparse = rng.uniform(0.0, 1.0, n_sparse)
    dense = rng.uniform(0.0, 1.0, n_dense)
    if draw(st.booleans()) and sparse.size:  # coincident cross-side times
        dense = np.concatenate([dense, sparse[:draw(st.integers(1, sparse.size))]])
    if draw(st.booleans()):  # intervals of length 1e-12
        sparse = np.concatenate([sparse, sparse[:2] + 1e-12])
        dense = np.concatenate([dense, dense[:2] + 1e-12])

    def times(inner):
        inner = np.unique(inner[(inner > 0.0) & (inner < 1.0)])
        return np.concatenate([[0.0], inner, [1.0]])

    s, t = times(sparse), times(dense)
    if draw(st.booleans()):
        s, t = t, s
    return ObservationGrid(s, t, 1.0, float(s.size + t.size - 2))


def _gaussian_sample(grid, seed):
    """Observations whose normalized increments are standard normal."""
    rng = np.random.default_rng(seed)

    def path(lengths):
        steps = np.sqrt(lengths) * rng.normal(size=lengths.size)
        return np.concatenate([[0.0], np.cumsum(steps)])

    return sample_with_values(grid, path(grid.lengths1), path(grid.lengths2))


@PROPERTY
@given(grid=adversarial_grids(), z=st.sampled_from([0.3, 0.7, 0.95]),
       side=st.sampled_from([1, 2]))
def test_resolvent_diag_matches_dense_inverse(grid, z, side):
    ov = overlap_matrix(grid)
    G = ov.to_dense()
    gram = G @ G.T if side == 1 else G.T @ G
    ref = np.diag(np.linalg.inv(np.eye(gram.shape[0]) - z * z * gram))
    got = resolvent_diag(ov, z, side)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(resolvent_diag(ov, z, side, upto=2), got[:2])


@PROPERTY
@given(grid=adversarial_grids(), seed=st.integers(0, 1000),
       statedep=st.booleans())
def test_loglik_and_gradient_on_adversarial_grids(grid, seed, statedep):
    model, sigma = ((state_dependent(), np.array([1.1, 0.8])) if statedep
                    else (correlated_bm(), np.array([1.2, 0.35])))
    engine = QuasiLikEngine(model, _gaussian_sample(grid, seed))
    hb = engine.loglik(sigma)
    hd = engine.loglik_dense(sigma)
    assert abs(hb - hd) <= 1e-8 * (1.0 + abs(hd))
    an = engine.gradient(sigma, method="analytic")
    fd = engine.gradient(sigma, method="fd")
    assert np.all(np.abs(fd - an) <= 1e-5 * (1.0 + np.abs(an)))
