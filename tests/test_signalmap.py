import dataclasses
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

import oracles

from floorsurvey import signalmap
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


def test_gp_params_allow_zero_noise_and_any_finite_mean():
    p = GpParams(sigma_f=0.0, sigma_n=0.0, mean=0.0, cell=1e-3, length_scale=1e-3)
    assert (p.sigma_f, p.sigma_n) == (0.0, 0.0)
    with pytest.raises(ValueError, match="cell must be positive and finite, got 3.0 and -0.5"):
        GpParams(cell=-0.5)


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


def _random_fit(rng, n, sources, m):
    p = GpParams(length_scale=rng.uniform(1.0, 5.0), sigma_f=rng.uniform(2.0, 8.0),
                 sigma_n=rng.uniform(1.0, 5.0), mean=rng.uniform(-95.0, -60.0))
    train_x = rng.uniform(0, 30, size=(n, 2))
    train_y = rng.uniform(-90, -30, size=(n, sources) if sources else n)  # 0: one source, (n,)
    return train_x, train_y, rng.uniform(-3, 33, size=(m, 2)), p


def _assert_matches_both_oracles(train_x, train_y, query, p):
    mu, sigma = gp_predict(train_x, train_y, query, p)
    one_mu, one_sigma = oracles.gp_predict(train_x, train_y, query, p, solves=1)
    _, two_sigma = oracles.gp_predict(train_x, train_y, query, p)
    assert np.array_equal(mu, one_mu)
    assert np.max(np.abs(sigma - one_sigma)) <= 1e-12
    assert np.max(np.abs(sigma - two_sigma)) <= 1e-12


EDGES = [1, 2, 127, 128, 129, 255, 256, 257]  # around the 128-row solve blocks


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from(EDGES) | st.integers(1, 300), sources=st.integers(0, 4))
def test_gp_predict_matches_two_solve_oracle(seed, n, sources):
    # the mean to the byte and the blocked-substitution variance to 1e-12
    # of the full Cholesky solve and of the one-substitution form, at every
    # block count and with a short last block, on queries across the
    # 2,048-query chunk edge
    rng = np.random.default_rng(seed)
    _assert_matches_both_oracles(*_random_fit(rng, n, sources, int(rng.integers(2049, 4500))))


@pytest.mark.parametrize("block", [64, 256])
def test_gp_predict_matches_both_oracles_at_other_block_sizes(monkeypatch, block):
    monkeypatch.setattr(signalmap, "_SOLVE_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (1, 63, 64, 65, 200, 256, 257, 300):
        _assert_matches_both_oracles(*_random_fit(rng, n, 3, 2100))


def _refined_sigma(train_x, query, p):
    """Predictive std from K^-1 k* by a float64 Cholesky solve and three
    residual corrections with the residual and the sum in long double."""
    K = sq_exp_kernel(train_x, train_x, p.length_scale, p.sigma_f)
    K[np.diag_indices(len(train_x))] += p.sigma_n ** 2 + 1e-10
    ks = sq_exp_kernel(query, train_x, p.length_scale, p.sigma_f)
    chol = cho_factor(K, lower=True)
    K_l, ks_l = K.astype(np.longdouble), ks.T.astype(np.longdouble)
    x = cho_solve(chol, ks.T).astype(np.longdouble)
    for _ in range(3):
        x += cho_solve(chol, (ks_l - K_l @ x).astype(float))
    var = np.longdouble(p.sigma_f) ** 2 - (ks_l * x).sum(axis=0)
    return np.sqrt(np.maximum(var, 0) + np.longdouble(p.sigma_n) ** 2)


def _clusters(rng):
    centres = np.array([[5.0, 5.0], [9.0, 6.0], [7.0, 12.0]])
    return (centres[:, None, :] + rng.normal(0.0, 0.05, size=(3, 100, 2))).reshape(-1, 2)


def _laps(rng):
    # 0.3 m steps along three parallel 45 m lines, 1 m apart
    i = np.arange(400)
    return np.column_stack([i * 0.3 % 45.0, i // 150]).astype(float)


@pytest.mark.parametrize("sigma_n", [0.0, 1e-3])
@pytest.mark.parametrize("points", [_clusters, _laps])
def test_gp_predict_variance_on_ill_conditioned_fits(points, sigma_n):
    # K's condition number is 1e9 or more.  Multiplying by inverted
    # diagonal blocks in place of the block solves gave 4 to 14 times the
    # one-solve error on three of these four fits: k* is smooth and the
    # inverses are large, so their products cancel.
    rng = np.random.default_rng(5)
    train_x = points(rng)
    query = np.concatenate([train_x[::7] + rng.normal(0.0, 0.02, size=train_x[::7].shape),
                            rng.uniform(-2, 47, size=(200, 2))])
    p = GpParams(sigma_n=sigma_n)
    want = _refined_sigma(train_x, query, p)
    _, sigma = gp_predict(train_x, np.zeros(len(train_x)), query, p)
    _, one_sigma = oracles.gp_predict(train_x, np.zeros(len(train_x)), query, p, solves=1)
    err = float(np.max(np.abs(sigma - want)))
    one_err = float(np.max(np.abs(one_sigma - want)))
    assert err <= 2.0 * one_err + 1e-12


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


def test_gp_predict_reuses_its_buffers_without_changing_a_byte(monkeypatch):
    # fits of growing, then shrinking, sizes in one process, some across
    # the 2,048-query chunk edge: each equals a fit with fresh buffers,
    # and no later fit changes what an earlier one returned
    monkeypatch.setattr(signalmap, "_buffers", threading.local())
    rng = np.random.default_rng(29)
    kept = []
    for n, sources, m in [(5, 0, 300), (130, 2, 2100), (300, 1, 4200), (257, 3, 2048),
                          (40, 0, 1000), (1, 2, 7)]:
        fit = _random_fit(rng, n, sources, m)
        mu, sigma = gp_predict(*fit)
        with monkeypatch.context() as fresh:
            fresh.setattr(signalmap, "_buffers", threading.local())
            want_mu, want_sigma = gp_predict(*fit)
        assert mu.tobytes() == want_mu.tobytes() and sigma.tobytes() == want_sigma.tobytes()
        kept.append((mu, sigma, mu.tobytes(), sigma.tobytes()))
    # 300 x 2,048 = 614,400 floats is within the 2^20-float budget, so
    # the largest of these fits still takes whole 2,048-query chunks
    assert len(signalmap._buffers.work) == 300 * 2048
    for mu, sigma, mu_bytes, sigma_bytes in kept:
        assert mu.tobytes() == mu_bytes and sigma.tobytes() == sigma_bytes
        for a in (mu, sigma):
            assert not np.shares_memory(a, signalmap._buffers.work)
            assert not np.shares_memory(a, signalmap._buffers.cross)


def test_chunk_is_a_multiple_of_64_within_the_budget():
    for n, m in itertools.product([1, 63, 64, 511, 512, 513, 700, 1500, 16384, 20000],
                                  [1, 7, 63, 64, 700, 2047, 2048, 2049, 10 ** 6]):
        chunk = signalmap._chunk(n, m)
        assert chunk % 64 == 0 and 64 <= chunk <= 2048 and chunk < m + 64
        assert n * chunk <= max(signalmap._WORK, 64 * n)
    assert signalmap._chunk(512, 6000) == 2048 and signalmap._chunk(1500, 6000) == 640


@pytest.mark.parametrize("n, sources, m", [(300, 0, 2101), (300, 3, 1001), (700, 3, 2101),
                                           (700, 0, 1001), (1100, 3, 4099), (60, 0, 57)])
def test_gp_predict_keeps_its_bytes_at_every_chunk_width(monkeypatch, n, sources, m):
    # under the float budget, n = 60 and 300 take 2,048-query chunks, n =
    # 700 takes 1,472 and n = 1,100 takes 896; m % 8 != 0, and m = 2,101
    # and 4,099 cross the 2,048 edge.  Each fit pads its last chunk to
    # whole groups of 64 queries; unpadded, these fits' last-chunk stds
    # move by up to 4e-15 with the chunk width.
    fit = _random_fit(np.random.default_rng(n + m + sources), n, sources, m)
    want_mu, want_sigma = gp_predict(*fit)
    for chunk in (64, 640, 2048, 10 ** 6):  # the last fits m in one chunk
        with monkeypatch.context() as patch:
            patch.setattr(signalmap, "_WORK", n * chunk)
            assert signalmap._chunk(n, m) == min(chunk, 2048, -(-m // 64) * 64)
            mu, sigma = gp_predict(*fit)
        assert mu.tobytes() == want_mu.tobytes() and sigma.tobytes() == want_sigma.tobytes()


def test_gp_predict_holds_one_kernel_and_a_bounded_workspace():
    # traced from a fresh thread, so that the thread's kept buffers count:
    # the factor overwrites the kernel and each buffer holds at most _WORK
    # floats.  cho_factor's finiteness check takes one byte per kernel entry.
    n, sources, m = 600, 3, 2101
    fit = _random_fit(np.random.default_rng(3), n, sources, m)
    peaks = []

    def fit_twice():
        tracemalloc.start()
        try:
            gp_predict(*fit)
            tracemalloc.reset_peak()
            gp_predict(*fit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=fit_twice)
    thread.start()
    thread.join()
    floats = n * n + 2 * signalmap._WORK + 16 * (n + m) * sources
    assert peaks[0] <= 8 * floats + n * n


def test_sq_exp_kernel_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.0, 0.0], [2.0, 0.0]])
    k = sq_exp_kernel(a, b, length_scale=2.0, sigma_f=3.0)
    assert math.isclose(k[0, 0], 9.0)
    assert math.isclose(k[0, 1], 9.0 * math.exp(-0.5))



@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length_scale=st.floats(1e-3, 1e3),
       sigma_f=st.floats(0.0, 1e3))
def test_sq_exp_kernel_equals_textbook_form_to_the_byte(seed, length_scale, sigma_f):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-20, 20, size=(30, 2))
    a = np.vstack([b[:5], rng.uniform(-20, 20, size=(20, 2))])  # five zero distances
    d2 = cdist(a, b, "sqeuclidean")
    want = sigma_f ** 2 * np.exp(-d2 / (2 * length_scale ** 2))
    assert np.array_equal(sq_exp_kernel(a, b, length_scale, sigma_f), want)
    out = np.full((len(a), len(b)), np.nan)
    assert sq_exp_kernel(a, b, length_scale, sigma_f, out=out) is out
    assert np.array_equal(out, want)


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


# origins drift by 0.9e-9 relative along the chain c - a - b, so a is
# congruent to b and to c but b is not congruent to c; d has their shape
# on an origin half a cell off.  A list is taken when every map lies on
# the grid of its first map, whichever maps the scan hears
_GRID_TABLE = [
    ("a", True), ("d", True), ("ab", True), ("ba", True), ("ac", True), ("ca", True),
    ("abc", True), ("acb", True),
    ("bc", False), ("cb", False), ("bac", False), ("bca", False), ("cab", False),
    ("cba", False), ("ad", False), ("da", False), ("abd", False), ("dab", False),
]


def _grid_table_cases():
    """(maps, taken, scans) for each row of _GRID_TABLE: every scan
    hears a non-empty subset of the row's maps."""
    m0, m1 = _maps_for_positioning()
    grid = {ap: dataclasses.replace(m, ap_id=ap, x0=x0) for ap, m, x0 in (
        ("a", m0, 1.0), ("b", m1, 1.0 + 0.9e-9), ("c", m0, 1.0 - 0.9e-9), ("d", m1, 1.5))}
    a, b, c, d = grid.values()
    assert a.congruent(b) and a.congruent(c) and not b.congruent(c) and not a.congruent(d)
    for order, taken in _GRID_TABLE:
        scans = [{ap: -55.0 + 3 * i for i, ap in enumerate(heard)}
                 for n in range(1, len(order) + 1)
                 for heard in itertools.combinations(order, n)]
        yield [grid[ap] for ap in order], taken, scans


def test_position_one_shot_rejects_scans_across_grids():
    # a list with a map off its first map's grid is refused for every
    # scan that hears a source, by the library and the oracle alike; a
    # scan that hears no source is refused as such, before the grid check
    refused = 0
    for ms, taken, scans in _grid_table_cases():
        for obs in scans if not taken else ():
            for fn in (position_one_shot, oracles.position_one_shot):
                with pytest.raises(ValueError, match="not on the same grid"):
                    fn(ms, obs)
            refused += 1
        for fn in (position_one_shot, oracles.position_one_shot):
            with pytest.raises(ValueError, match="no sources"):
                fn(ms, {"e": -50.0})
    assert refused == 2 * 3 + 4 * 7 + 2 * 3 + 2 * 7


def test_position_one_shot_tests_congruence_pairwise_like_the_oracle():
    # congruence is tested pairwise between the first map and each other
    # map, as the oracle tests it: a list is taken exactly when every
    # pair holds, and a taken list gives the oracle's bits for every scan
    fixed = 0
    for ms, taken, scans in _grid_table_cases():
        assert all(m.congruent(ms[0]) for m in ms) == taken
        for obs in scans if taken else ():
            assert _bits(position_one_shot(ms, obs)) == \
                _bits(oracles.position_one_shot(ms, obs))
            fixed += 1
    assert fixed == 2 * 1 + 4 * 3 + 2 * 7


def _bits(fix) -> bytes:
    return np.array(fix, dtype=float).tobytes()


@st.composite
def _positioning_case(draw):
    """Congruent random maps, some flat (prior only), some RSS-like
    (-100..-30) and some magnitude-like (+20..+90), so that mu ranges lie
    far from zero and from each other, maybe with an exact or near
    two-cell tie and an extra map on another grid that no scan hears (a
    list that holds it is refused), plus scans that hear different
    subsets of the maps, some with readings far outside each map's mu
    range."""
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = nx * ny
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    maps = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flat", "rss", "magnitude"]))
        if kind == "flat":
            mu, sigma = np.full(n, -90.0), np.full(n, 7.2)
        else:
            lo = -100.0 if kind == "rss" else 20.0
            mu, sigma = rng.uniform(lo, lo + 70.0, n), rng.uniform(0.5, 9.0, n)
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
                lo, hi = float(m.mu.min()), float(m.mu.max())
                obs[m.ap_id] = draw(st.one_of(st.floats(-110.0, 100.0),
                                              st.floats(-1e6, 1e6),
                                              st.sampled_from(list(m.mu)),
                                              st.floats(20.0, 1e4).map(lambda d: lo - d),
                                              st.floats(20.0, 1e4).map(lambda d: hi + d)))
        scans.append(obs)
    return maps, scans


@settings(max_examples=150, deadline=None)
@given(_positioning_case())
def test_position_one_shot_equals_dense_oracle(case):
    maps, scans = case
    off_grid = any(m.ap_id == "unheard" for m in maps)
    for ms in (maps, maps[::-1]):
        for obs in scans:
            if not obs or off_grid:
                match = "not on the same grid" if obs else "no sources"
                for fn in (position_one_shot, oracles.position_one_shot):
                    with pytest.raises(ValueError, match=match):
                        fn(ms, obs)
                continue
            assert _bits(position_one_shot(ms, obs)) == _bits(oracles.position_one_shot(ms, obs))


@st.composite
def _float32_tie_case(draw):
    """Maps whose cells are mostly near-copies of one cell, their mu
    moved by up to 8 float32 ulps (exact ties among them), with |mu| up
    to 1e6 and readings many |mu| away: the best cells' scores lie within
    a few float32 ulps of the screen's bound G, where the float32 screen
    cannot order them."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    n = nx * ny
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(1, 6))
    copies = rng.random(n) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    maps, obs = [], {}
    for i in range(draw(st.integers(1, 3))):
        mu0, sigma0 = rng.uniform(-scale, scale), rng.uniform(0.5, 9.0)
        mu = np.where(copies, mu0 * (1.0 + rng.integers(-8, 9, n) * 2.0 ** -24),
                      rng.uniform(-scale, scale, n))
        sigma = np.where(copies, sigma0, rng.uniform(0.5, 9.0, n))
        maps.append(SignalMap(f"ap{i}", 0.0, 0.0, 1.0, nx, ny, mu, sigma))
        obs[f"ap{i}"] = mu0 + rng.uniform(-4.0, 4.0) * scale
    return maps, obs


@settings(max_examples=200, deadline=None)
@given(_float32_tie_case())
def test_position_one_shot_equals_dense_oracle_at_float32_ties(case):
    maps, obs = case
    assert _bits(position_one_shot(maps, obs)) == _bits(oracles.position_one_shot(maps, obs))


def test_position_one_shot_equals_dense_oracle_on_gp_maps(monkeypatch):
    # seven maps in one block, as in the benchmark; scans that hear all
    # of them, or all but one or two.  72 x 43 and 35 x 21 cells: the
    # screen's rows are padded to whole 16-float lines.  Timing-free: the
    # screen, centred on each map's mu range, leaves few cells to rescore
    # (counted at the rescore's gather from the block's table)
    taken = []

    class CountedTable(np.ndarray):
        def take(self, indices, axis=None, **kwargs):
            taken.append(len(indices))
            return np.asarray(self).take(indices, axis, **kwargs)

    fp = office_floorplan()
    pts, mag, wifi = grid_survey(corridor_scenario(), fp, spacing=1.0, seed=404)
    rng = np.random.default_rng(5)
    for cell in (0.7, 1.45):
        maps = list(fit_signal_maps(fp.bounds, pts, {"mag": mag, **wifi}, GpParams(cell=cell)).values())
        assert len(maps) == 7 and maps[0].nx * maps[0].ny % 16 != 0
        block = signalmap._block(tuple(maps))
        monkeypatch.setattr(block, "table", block.table.view(CountedTable))
        dropped = []
        for _ in range(150):
            c = int(rng.integers(maps[0].nx * maps[0].ny))
            drop = set(rng.choice(7, int(rng.integers(3)), replace=False).tolist())
            dropped.append(len(drop))
            obs = {m.ap_id: float(m.mu[c] + rng.normal(0.0, 4.0))
                   for i, m in enumerate(maps) if i not in drop}
            assert _bits(position_one_shot(maps, obs)) == _bits(oracles.position_one_shot(maps, obs))
        assert set(dropped) == {0, 1, 2}
    assert len(taken) == 300 and sum(taken) / len(taken) <= 4.0


def test_position_screen_rows_start_on_cache_lines():
    # timing-free: a list's block has a float32 screen that starts on a
    # 64-byte boundary with a whole number of 64-byte lines per row
    rng = np.random.default_rng(19)
    for k in range(1, 9):
        for n in range(1, 131):
            maps = [SignalMap(f"ap{i}", 0.0, 0.0, 1.0, n, 1, rng.uniform(-90.0, -40.0, n),
                              rng.uniform(1.0, 6.0, n)) for i in range(k)]
            w = signalmap._block(tuple(maps)).w
            assert w.shape == (3 * k, n)
            assert w.ctypes.data % 64 == 0 and w.strides[0] % 64 == 0
            heard = maps if n % 2 else maps[: max(1, k - 1)]
            obs = {m.ap_id: float(m.mu[n // 2] + rng.normal(0.0, 3.0)) for m in heard}
            assert _bits(position_one_shot(maps, obs)) == _bits(oracles.position_one_shot(maps, obs))


@pytest.mark.parametrize("sigma0, mu0, reading", [
    pytest.param(0.0, None, -60.0, id="0.0--60.0"),
    pytest.param(1e-170, None, -60.0, id="1e-170--60.0"),
    pytest.param(3.0, None, 1e200, id="3.0-1e+200"),
    pytest.param(3.0, None, 1e30, id="3.0-1e+30"),
    pytest.param(3.0, 1e25, -60.0, id="3.0--60.0-mu1e+25"),
])
def test_position_one_shot_equals_dense_oracle_beyond_the_screen_bound(sigma0, mu0, reading):
    # a zero or underflowing variance, a reading whose square overflows
    # float64 or float32, or a mu whose terms overflow float32, leaves
    # the screen no bound: every cell is rescored when ap1 is heard, and
    # ap1 is left out of the screen when it is not
    maps = _maps_for_positioning()
    mu, sigma = maps[1].mu.copy(), maps[1].sigma.copy()
    sigma[4] = sigma0
    if mu0 is not None:
        mu[4] = mu0
    maps[1] = dataclasses.replace(maps[1], mu=mu, sigma=sigma)
    for obs in ({"ap0": -55.0, "ap1": reading}, {"ap0": -55.0}):
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
