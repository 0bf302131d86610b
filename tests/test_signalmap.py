import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey.signalmap import (
    GpParams,
    SignalMap,
    Z90,
    bucket_fractions,
    compare_maps,
    error_cdf,
    fit_signal_map,
    gp_predict,
    grid_shape,
    interval_overlap,
    position_one_shot,
    sq_exp_kernel,
)


def _dense_oracle(train_x, train_y, query, p):
    """Straight dense-matrix GP posterior, the slow obvious way."""
    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return p.sigma_f ** 2 * np.exp(-0.5 * d2 / p.length_scale ** 2)

    K = k(train_x, train_x) + p.sigma_n ** 2 * np.eye(len(train_x))
    Ks = k(query, train_x)
    Kinv = np.linalg.inv(K)
    mu = p.mean + Ks @ Kinv @ (train_y - p.mean)
    var = p.sigma_f ** 2 - np.einsum("ij,jk,ik->i", Ks, Kinv, Ks) + p.sigma_n ** 2
    return mu, np.sqrt(var)


def test_gp_predict_matches_dense_oracle():
    rng = np.random.default_rng(31)
    p = GpParams()
    train_x = rng.uniform(0, 10, size=(5, 2))
    train_y = rng.uniform(-80, -40, size=5)
    query = rng.uniform(0, 10, size=(40, 2))
    mu, sigma = gp_predict(train_x, train_y, query, p)
    omu, osigma = _dense_oracle(train_x, train_y, query, p)
    assert np.allclose(mu, omu, atol=1e-6)
    assert np.allclose(sigma, osigma, atol=1e-6)


def test_gp_predict_interpolates_with_zero_noise():
    p = GpParams(sigma_n=1e-6)
    train_x = np.array([[2.0, 3.0]])
    train_y = np.array([-55.0])
    mu, sigma = gp_predict(train_x, train_y, train_x, p)
    assert math.isclose(mu[0], -55.0, abs_tol=1e-6)
    assert sigma[0] < 1e-3


def test_gp_predict_prior_reversion_far_away():
    p = GpParams()
    train_x = np.array([[0.0, 0.0]])
    train_y = np.array([-50.0])
    far = np.array([[100.0, 100.0]])
    mu, sigma = gp_predict(train_x, train_y, far, p)
    assert math.isclose(mu[0], p.mean, abs_tol=1e-9)
    assert math.isclose(sigma[0], math.hypot(p.sigma_f, p.sigma_n), abs_tol=1e-9)


def test_gp_predict_no_data_returns_prior():
    p = GpParams()
    mu, sigma = gp_predict(np.zeros((0, 2)), np.zeros(0), np.array([[1.0, 1.0]]), p)
    assert mu[0] == p.mean
    assert math.isclose(sigma[0], math.hypot(p.sigma_f, p.sigma_n))


def test_gp_variance_bounded():
    rng = np.random.default_rng(7)
    p = GpParams()
    train_x = rng.uniform(0, 20, size=(30, 2))
    train_y = rng.uniform(-90, -30, size=30)
    query = rng.uniform(-5, 25, size=(500, 2))
    _, sigma = gp_predict(train_x, train_y, query, p)
    assert np.all(sigma > 0)
    assert np.all(sigma <= math.hypot(p.sigma_f, p.sigma_n) + 1e-9)


def test_gp_predict_chunking_consistent():
    rng = np.random.default_rng(13)
    p = GpParams()
    train_x = rng.uniform(0, 30, size=(40, 2))
    train_y = rng.uniform(-90, -30, size=40)
    big = rng.uniform(0, 30, size=(2500, 2))  # spans a chunk boundary
    mu, sigma = gp_predict(train_x, train_y, big, p)
    mu2, sigma2 = gp_predict(train_x, train_y, big[:100], p)
    assert np.allclose(mu[:100], mu2, atol=1e-10)
    assert np.allclose(sigma[:100], sigma2, atol=1e-10)


def test_sq_exp_kernel_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.0, 0.0], [2.0, 0.0]])
    k = sq_exp_kernel(a, b, length_scale=2.0, sigma_f=3.0)
    assert math.isclose(k[0, 0], 9.0)
    assert math.isclose(k[0, 1], 9.0 * math.exp(-0.5))


# -------------------------------------------------------------- grid/maps

def test_grid_shape_covers_bounds():
    assert grid_shape((0, 0, 10, 5), 0.5) == (20, 10)
    assert grid_shape((0, 0, 10.2, 5.0), 0.5) == (21, 10)


def test_signal_map_centers_and_index():
    m = SignalMap("ap", 0.0, 0.0, 1.0, 3, 2, np.zeros(6), np.ones(6))
    c = m.centers
    assert np.allclose(c[0], [0.5, 0.5])
    assert np.allclose(c[-1], [2.5, 1.5])
    assert m.cell_index(2.5, 1.5) == 5


def test_fit_signal_map_grid_matches_params(two_room_plan):
    p = GpParams(cell=1.0)
    m = fit_signal_map("ap0", two_room_plan.bounds, np.array([[5.0, 5.0]]),
                       np.array([-60.0]), p)
    assert (m.nx, m.ny) == (10, 10)
    assert m.mu.shape == (100,)


# ----------------------------------------------------------------- rss90

def test_interval_overlap_reference_values():
    def make(mu, sigma):
        return SignalMap("a", 0, 0, 1.0, 1, 1, np.array([mu]), np.array([sigma]))

    assert interval_overlap(make(0.0, 1.0), make(0.0, 1.0))[0] == 1.0
    assert interval_overlap(make(0.0, 1.0), make(100.0, 1.0))[0] == 0.0
    got = interval_overlap(make(0.0, 1.0), make(1.0, 1.0))[0]
    want = (2 * Z90 - 1.0) / (2 * Z90 + 1.0)
    assert math.isclose(got, want, abs_tol=1e-12)
    assert math.isclose(got, 0.534, abs_tol=5e-4)


@settings(max_examples=60, deadline=None)
@given(st.floats(-80, -30), st.floats(-80, -30), st.floats(0.5, 8), st.floats(0.5, 8),
       st.floats(-20, 20))
def test_interval_overlap_symmetric_and_shift_invariant(m1, m2, s1, s2, shift):
    def make(mu, sigma):
        return SignalMap("a", 0, 0, 1.0, 1, 1, np.array([mu]), np.array([sigma]))

    ab = interval_overlap(make(m1, s1), make(m2, s2))[0]
    ba = interval_overlap(make(m2, s2), make(m1, s1))[0]
    shifted = interval_overlap(make(m1 + shift, s1), make(m2 + shift, s2))[0]
    assert 0.0 <= ab <= 1.0
    assert math.isclose(ab, ba, abs_tol=1e-12)
    assert math.isclose(ab, shifted, abs_tol=1e-9)


def test_compare_maps_identity_and_mask():
    rng = np.random.default_rng(3)
    m = SignalMap("a", 0, 0, 1.0, 4, 4, rng.uniform(-70, -40, 16), rng.uniform(1, 5, 16))
    scores, med = compare_maps(m, m)
    assert np.all(scores == 1.0) and med == 1.0
    shifted = SignalMap("a", 0, 0, 1.0, 4, 4, m.mu + 50.0, m.sigma)
    scores, med = compare_maps(m, shifted)
    assert med < 0.05
    mask = np.zeros(16, dtype=bool)
    with pytest.raises(ValueError):
        compare_maps(m, m, mask)


def test_compare_maps_rejects_mismatched_grids():
    a = SignalMap("a", 0, 0, 1.0, 2, 2, np.zeros(4), np.ones(4))
    b = SignalMap("a", 0, 0, 0.5, 4, 4, np.zeros(16), np.ones(16))
    with pytest.raises(ValueError):
        compare_maps(a, b)


# ------------------------------------------------------------ positioning

def _maps_for_positioning():
    nx = ny = 5
    maps = []
    for s, ap in enumerate(("ap0", "ap1")):
        mu = np.linspace(-80 + 10 * s, -40 + 10 * s, nx * ny)
        maps.append(SignalMap(ap, 0, 0, 1.0, nx, ny, mu, np.full(nx * ny, 3.0)))
    return maps


def test_position_one_shot_exact_match_and_order_invariance():
    maps = _maps_for_positioning()
    c = 13
    obs = {m.ap_id: float(m.mu[c]) for m in maps}
    x, y, ll = position_one_shot(maps, obs)
    assert maps[0].cell_index(x, y) == c
    x2, y2, ll2 = position_one_shot(maps[::-1], obs)
    assert (x, y, ll) == (x2, y2, ll2)


def test_position_one_shot_tie_breaks_to_lowest_index():
    mu = np.array([-50.0, -60.0, -60.0, -50.0])
    m = SignalMap("ap0", 0, 0, 1.0, 4, 1, mu, np.full(4, 2.0))
    x, y, _ = position_one_shot([m], {"ap0": -60.0})
    assert m.cell_index(x, y) == 1


def test_position_one_shot_ignores_unknown_sources():
    maps = _maps_for_positioning()
    obs = {maps[0].ap_id: float(maps[0].mu[7]), "nonexistent": -10.0}
    x, y, _ = position_one_shot(maps, obs)
    assert maps[0].cell_index(x, y) == 7
    with pytest.raises(ValueError):
        position_one_shot(maps, {"other": -50.0})


# ------------------------------------------------------------------- CDFs

def test_error_cdf_basic():
    xs, ps = error_cdf(np.array([3.0, 1.0, 2.0]))
    assert np.allclose(xs, [1, 2, 3])
    assert np.allclose(ps, [1 / 3, 2 / 3, 1.0])
    with pytest.raises(ValueError):
        error_cdf(np.array([]))


def test_bucket_fractions():
    e = np.array([0.2, 0.5, 1.5, 2.5, 9.0])
    a, b, c = bucket_fractions(e)
    assert np.allclose((a, b, c), (0.4, 0.2, 0.4))
    assert math.isclose(a + b + c, 1.0)
