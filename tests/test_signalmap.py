import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from floorsurvey.signalmap import (
    GpParams,
    SignalMap,
    Z90,
    bucket_fractions,
    compare_maps,
    fit_signal_map,
    fit_signal_maps,
    gp_predict,
    grid_shape,
    interval_overlap,
    position_one_shot,
    sq_exp_kernel,
)
from floorsurvey.simulate import corridor_scenario, grid_survey, office_floorplan


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


def test_gp_predict_many_targets_match_dense_solve():
    rng = np.random.default_rng(41)
    p = GpParams()
    train_x = rng.uniform(0, 12, size=(25, 2))
    train_y = rng.uniform(-90, -30, size=(25, 3))
    query = rng.uniform(-2, 14, size=(60, 2))
    mu, sigma = gp_predict(train_x, train_y, query, p)
    assert mu.shape == (60, 3) and sigma.shape == (60,)
    K = sq_exp_kernel(train_x, train_x, p.length_scale, p.sigma_f) + p.sigma_n ** 2 * np.eye(25)
    ks = sq_exp_kernel(query, train_x, p.length_scale, p.sigma_f)
    want_mu = p.mean + ks @ np.linalg.solve(K, train_y - p.mean)
    want_var = p.sigma_f ** 2 - (ks * np.linalg.solve(K, ks.T).T).sum(axis=1) + p.sigma_n ** 2
    assert np.allclose(mu, want_mu, atol=1e-8)
    assert np.allclose(sigma, np.sqrt(want_var), atol=1e-8)
    for s in range(3):  # each column as its own one-source fit, to the byte
        one_mu, one_sigma = gp_predict(train_x, train_y[:, s], query, p)
        assert np.array_equal(mu[:, s], one_mu) and np.array_equal(sigma, one_sigma)


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


def test_signal_map_is_frozen_and_read_only():
    given_mu = np.zeros(4)
    m = SignalMap("a", 0.0, 0.0, 1.0, 2, 2, given_mu, np.ones(4))
    given_mu[0] = 5.0  # the map holds its own copy
    assert m.mu[0] == 0.0
    for name in ("mu", "sigma"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, np.ones(4))
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, name)[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, name)[:] += 1.0
    with pytest.raises(ValueError, match="shape"):
        SignalMap("a", 0.0, 0.0, 1.0, 2, 2, np.zeros(3), np.ones(4))


def test_fit_signal_map_grid_matches_params(two_room_plan):
    p = GpParams(cell=1.0)
    m = fit_signal_map("ap0", two_room_plan.bounds, np.array([[5.0, 5.0]]),
                       np.array([-60.0]), p)
    assert (m.nx, m.ny) == (10, 10)
    assert m.mu.shape == (100,)


def test_fit_signal_maps_equal_separate_fits_on_grid_survey():
    fp = office_floorplan()
    pts, mag, wifi = grid_survey(corridor_scenario(), fp, spacing=1.0, seed=404)
    p = GpParams(cell=0.7)  # 3,096 cells: the query side spans a chunk boundary
    values = {"mag": mag, **wifi}
    maps = fit_signal_maps(fp.bounds, pts, values, p)
    assert list(maps) == list(values)
    for ap, v in values.items():
        one = fit_signal_map(ap, fp.bounds, pts, v, p)
        assert maps[ap].ap_id == ap and maps[ap].congruent(one)
        assert np.array_equal(maps[ap].mu, one.mu)
        assert np.array_equal(maps[ap].sigma, one.sigma)
    assert maps["mag"].sigma is not maps["ap0"].sigma


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


def _bits(fix) -> bytes:
    return np.array(fix, dtype=float).tobytes()


@st.composite
def _positioning_case(draw):
    """Congruent random maps, some flat (prior only), maybe with an exact
    or near two-cell tie and an extra map on another grid that no scan hears,
    plus scans that hear different subsets of the maps, some with
    readings far outside the mu range."""
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = nx * ny
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    maps = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            mu, sigma = np.full(n, -90.0), np.full(n, 7.2)
        else:
            mu, sigma = rng.uniform(-100.0, -30.0, n), rng.uniform(0.5, 9.0, n)
        maps.append(SignalMap(f"ap{i}", 1.0, -2.0, 0.5, nx, ny, mu, sigma))
    ulps = draw(st.sampled_from([None, 0, 1, 2, 64]))
    if n > 1 and ulps is not None:
        # cell b copies cell a, then moves mu a few ulps: an exact tie at 0
        a, b = rng.choice(n, 2, replace=False)
        for i, m in enumerate(maps):
            mu, sigma = m.mu.copy(), m.sigma.copy()
            mu[b], sigma[b] = mu[a], sigma[a]
            for _ in range(ulps):
                mu[b] = np.nextafter(mu[b], -np.inf if rng.random() < 0.5 else np.inf)
            maps[i] = dataclasses.replace(m, mu=mu, sigma=sigma)
    if draw(st.booleans()):
        other = SignalMap("unheard", 0.0, 0.0, 1.0, nx + 1, ny, np.zeros(n + ny), np.ones(n + ny))
        maps.insert(draw(st.integers(0, len(maps))), other)
    scans = []
    for _ in range(draw(st.integers(1, 4))):
        obs = {}
        for m in maps:
            if m.ap_id != "unheard" and draw(st.booleans()):
                obs[m.ap_id] = draw(st.one_of(st.floats(-110.0, -20.0),
                                              st.floats(-1e6, 1e6),
                                              st.sampled_from(list(m.mu))))
        scans.append(obs)
    return maps, scans


@settings(max_examples=150, deadline=None)
@given(_positioning_case())
def test_position_one_shot_equals_dense_oracle(case):
    maps, scans = case
    for ms in (maps, maps[::-1]):
        for obs in scans:
            if not obs:
                for fn in (position_one_shot, oracles.position_one_shot):
                    with pytest.raises(ValueError, match="no sources"):
                        fn(ms, obs)
                continue
            assert _bits(position_one_shot(ms, obs)) == _bits(oracles.position_one_shot(ms, obs))


def test_position_one_shot_equals_dense_oracle_on_gp_maps():
    fp = office_floorplan()
    pts, mag, wifi = grid_survey(corridor_scenario(), fp, spacing=1.0, seed=404)
    maps = list(fit_signal_maps(fp.bounds, pts, {"mag": mag, **wifi}, GpParams(cell=0.7)).values())
    rng = np.random.default_rng(5)
    for _ in range(150):
        c = int(rng.integers(maps[0].nx * maps[0].ny))
        heard = [m for m in maps if rng.random() < 0.8] or maps[:1]
        obs = {m.ap_id: float(m.mu[c] + rng.normal(0.0, 4.0)) for m in heard}
        assert _bits(position_one_shot(maps, obs)) == _bits(oracles.position_one_shot(maps, obs))


@pytest.mark.parametrize("sigma0, reading", [(0.0, -60.0), (1e-170, -60.0), (3.0, 1e200)])
def test_position_one_shot_equals_dense_oracle_beyond_the_screen_bound(sigma0, reading):
    # a zero or underflowing variance, or a reading whose square
    # overflows, leaves the screen no finite bound: every cell is rescored
    maps = _maps_for_positioning()
    sigma = maps[1].sigma.copy()
    sigma[4] = sigma0
    maps[1] = dataclasses.replace(maps[1], sigma=sigma)
    obs = {"ap0": -55.0, "ap1": reading}
    with np.errstate(all="ignore"):
        assert _bits(position_one_shot(maps, obs)) == _bits(oracles.position_one_shot(maps, obs))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_position_one_shot_rejects_non_finite_reading(bad):
    maps = _maps_for_positioning()
    with pytest.raises(ValueError, match="'ap1' is not finite"):
        position_one_shot(maps, {"ap0": -50.0, "ap1": bad})


# ------------------------------------------------------------------- CDFs

def test_error_cdf_basic():
    xs, ps = oracles.error_cdf(np.array([3.0, 1.0, 2.0]))
    assert np.allclose(xs, [1, 2, 3])
    assert np.allclose(ps, [1 / 3, 2 / 3, 1.0])
    with pytest.raises(ValueError):
        oracles.error_cdf(np.array([]))


def test_bucket_fractions():
    e = np.array([0.2, 0.5, 1.5, 2.5, 9.0])
    a, b, c = bucket_fractions(e)
    assert np.allclose((a, b, c), (0.4, 0.2, 0.4))
    assert math.isclose(a + b + c, 1.0)
