import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey import loopclosure
from floorsurvey.loopclosure import (
    LoopClosureResult,
    MspParams,
    SegmentPair,
    StepLoopClosure,
    SubMatching,
    ValidationParams,
    detect_loop_closures,
    find_msps,
    obe_dtw,
    split_warping_path,
    thin_to_steps,
    validate_closure,
)
from floorsurvey.sensors import MagSample, PdrTrajectory

import oracles


def test_step_loop_closure_ordering():
    StepLoopClosure(1, 5)
    with pytest.raises(ValueError):
        StepLoopClosure(5, 1)
    with pytest.raises(ValueError):
        StepLoopClosure(-1, 2)


# ------------------------------------------------------------------- DTW

def _dtw_oracle(q, r):
    """Minimum over every admissible warp: any start column, reference
    advances by 0, 1 or 2 per query sample."""
    n, m = len(q), len(r)
    best = math.inf
    for j0 in range(m):
        for moves in itertools.product((0, 1, 2), repeat=n - 1):
            j = j0
            total = abs(q[0] - r[j])
            ok = True
            for i, d in enumerate(moves, start=1):
                j += d
                if j >= m:
                    ok = False
                    break
                total += abs(q[i] - r[j])
            if ok and total < best:
                best = total
    return best / n


@settings(max_examples=200, deadline=None)
@given(q=st.lists(st.integers(0, 2), min_size=1, max_size=7),
       r=st.lists(st.integers(0, 2), min_size=1, max_size=10))
def test_obe_dtw_matches_exhaustive_enumeration(q, r):
    # samples in 0..2 make tied warps common
    q, r = np.array(q, dtype=float), np.array(r, dtype=float)
    score, path = obe_dtw(q, r)
    assert math.isclose(score, _dtw_oracle(q, r), rel_tol=0, abs_tol=1e-12)
    # the returned path realises the returned score
    realised = sum(abs(q[i] - r[j]) for i, j in enumerate(path)) / len(q)
    assert math.isclose(realised, score, abs_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ties=st.booleans())
def test_obe_dtw_equals_stacked_argmin_oracle(data, ties):
    # tie-heavy integer samples, or any finite floats, of lengths 1-60:
    # the same distance bytes, and the oracle's (i, j) pairs hold row i
    # and the matched reference index at row i
    values = st.integers(0, 2) if ties else st.floats(-1e6, 1e6, allow_nan=False)
    q, r = (np.array(data.draw(st.lists(values, min_size=1, max_size=60)), dtype=float)
            for _ in range(2))
    score, path = obe_dtw(q, r)
    want_score, want_path = oracles.obe_dtw(q, r)
    assert np.float64(score).tobytes() == np.float64(want_score).tobytes()
    assert [i for i, _ in want_path] == list(range(len(q)))
    assert path.dtype == np.intp and path.tolist() == [j for _, j in want_path]


def test_obe_dtw_path_is_admissible():
    rng = np.random.default_rng(8)
    q, r = rng.normal(size=7), rng.normal(size=10)
    _, path = obe_dtw(q, r)
    assert path.shape == (len(q),)
    steps = np.diff(path)
    assert np.all((steps >= 0) & (steps <= 2)) and path[-1] < len(r)


def test_obe_dtw_identical_and_embedded():
    q = np.array([1.0, 2.0, 3.0])
    score, path = obe_dtw(q, q)
    assert score == 0.0 and path.tolist() == [0, 1, 2]
    # open begin and end: q sits inside r
    r = np.array([9.0, 1.0, 2.0, 3.0, 9.0])
    score, path = obe_dtw(q, r)
    assert score == 0.0 and path.tolist() == [1, 2, 3]


def test_obe_dtw_empty_raises():
    with pytest.raises(ValueError):
        obe_dtw(np.array([]), np.array([1.0]))


# ------------------------------------------------------------ warp splits

def test_split_warping_path_removes_flat_stretches():
    path = np.array([0, 1, 1, 1, 2, 3])
    assert split_warping_path(path, max_flat=3) == [(0, 1), (4, 6)]


def test_split_warping_path_keeps_short_flats():
    path = np.array([0, 1, 1, 2])
    assert split_warping_path(path, max_flat=3) == [(0, 4)]


def test_split_warping_path_max_flat_validation():
    with pytest.raises(ValueError):
        split_warping_path(np.array([0]), max_flat=1)


def _split_as_pairs(path, max_flat):
    # the row ranges spelled out as the oracle's (i, j) fragments
    return [[(i, int(path[i])) for i in range(lo, hi)]
            for lo, hi in split_warping_path(path, max_flat)]


@pytest.mark.parametrize("path, max_flat, want", [
    ([], 3, []),                               # empty path
    ([4, 4, 4, 4], 3, []),                     # all flat
    ([4, 4, 4], 3, []),                        # one run of exactly max_flat
    ([4, 4], 3, [(0, 2)]),                     # one short of max_flat
    ([0, 2, 2, 2, 4, 4, 4, 5], 3, [(0, 1), (7, 8)]),  # flat runs back to back
    ([0, 1, 1, 2, 2, 3], 2, [(0, 1), (5, 6)]),
])
def test_split_warping_path_edge_cases(path, max_flat, want):
    path = np.array(path, dtype=np.intp)
    assert split_warping_path(path, max_flat) == want
    assert _split_as_pairs(path, max_flat) == oracles.split_warping_path(
        list(enumerate(path.tolist())), max_flat)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.sampled_from([0, 0, 0, 1, 2]), max_size=40),
       start=st.integers(0, 3), max_flat=st.integers(2, 6))
def test_split_warping_path_matches_per_point_oracle(steps, start, max_flat):
    # warp paths advance by 0, 1 or 2; stays weighted up so flat runs are common
    path = start + np.cumsum(np.array(steps, dtype=np.intp))
    got = split_warping_path(path, max_flat)
    assert all(type(lo) is int and type(hi) is int and lo < hi for lo, hi in got)
    assert _split_as_pairs(path, max_flat) == oracles.split_warping_path(
        list(enumerate(path.tolist())), max_flat)


# ------------------------------------------------------------------ MSPs

def test_find_msps_figure_case():
    # nine positions out and back along a line, 4 m apart: the out leg
    # 0..3 pairs with the back leg 8..5 and nothing else survives
    x = np.array([0.0, 4.0, 8.0, 12.0, 16.0, 12.0, 8.0, 4.0, 0.0])
    pos = np.column_stack([x, np.zeros(9)])
    pairs = find_msps(pos, MspParams(min_separation=1))
    assert pairs == [SegmentPair(0, 3, 8, 5)]
    assert pairs[0].decreasing


def test_find_msps_guard_band_blocks_near_indices():
    x = np.array([0.0, 4.0, 8.0, 12.0, 16.0, 12.0, 8.0, 4.0, 0.0])
    pos = np.column_stack([x, np.zeros(9)])
    assert find_msps(pos) == []  # default separation 15 exceeds the walk


def test_find_msps_same_direction_pair():
    # two forward passes along the same line, separated by a far detour
    xs = list(range(6)) + [50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61] + list(range(6))
    pos = np.column_stack([np.array(xs, dtype=float), np.zeros(len(xs))])
    pairs = find_msps(pos, MspParams(radius=0.5, min_separation=10))
    assert SegmentPair(0, 5, 18, 23) in pairs
    assert all(not p.decreasing for p in pairs)


def test_find_msps_short_input():
    assert find_msps(np.zeros((1, 2))) == []


_index = st.integers(0, 12)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.tuples(_index, _index, _index, _index), max_size=40, unique=True))
def test_uncontained_matches_pairwise_oracle(keys):
    # small indices make equal, nested and reversed ranges common
    assert loopclosure._uncontained(keys) == oracles.uncontained(keys)


def test_uncontained_equal_nested_and_reversed_ranges():
    # equal ranges with the b side reversed contain each other: both go
    assert loopclosure._uncontained([(0, 5, 10, 15), (0, 5, 15, 10)]) == []
    # a nested pair goes, whichever way its b side runs; the outer one stays
    keys = [(1, 3, 14, 12), (0, 5, 10, 15), (2, 4, 11, 13), (6, 9, 0, 2)]
    assert loopclosure._uncontained(keys) == [(0, 5, 10, 15), (6, 9, 0, 2)]
    assert loopclosure._uncontained([]) == []


@pytest.mark.parametrize("block", [1, 3, loopclosure._SWEEP_BLOCK])
def test_uncontained_blocks_match_pairwise_oracle(block, monkeypatch):
    # more keys than one block, so the maxima carry over between blocks
    monkeypatch.setattr(loopclosure, "_SWEEP_BLOCK", block)
    rng = np.random.default_rng(block)
    for high in (6, 12, 40, 6, 12, 40):
        keys = list(dict.fromkeys(map(tuple, rng.integers(0, high, size=(150, 4)).tolist())))
        assert loopclosure._uncontained(keys) == oracles.uncontained(keys)


def test_uncontained_memory_is_linear_in_keys():
    # a K x K mask of 8,000 keys would take 64 MB per comparison
    rng = np.random.default_rng(4)
    keys = list(dict.fromkeys(map(tuple, rng.integers(0, 3000, size=(8100, 4)).tolist())))[:8000]
    assert len(keys) == 8000
    tracemalloc.start()
    try:
        kept = loopclosure._uncontained(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # every dropped key lies in a kept one, and no kept key lies in another
    k, m = np.array(keys), np.array(kept)

    def vectors(a):
        return np.column_stack([-a[:, 0], a[:, 1], -a[:, 2:].min(axis=1), a[:, 2:].max(axis=1)])

    kv, mv = vectors(k), vectors(m)
    covered = np.zeros(len(k), dtype=bool)
    for v in mv:
        covered |= (v >= kv).all(axis=1)
    assert 0 < len(kept) < len(keys) and covered.all()
    assert [sum((v >= mv).all(axis=1)) for v in mv] == [1] * len(kept)


@pytest.mark.parametrize("seed", range(2))
def test_find_msps_matches_pairwise_filter_on_random_walks(seed, monkeypatch):
    steps = np.random.default_rng(seed).normal(0.0, 1.0, size=(200, 2))
    pos = np.cumsum(steps, axis=0) * 0.6
    fast = find_msps(pos)
    monkeypatch.setattr(loopclosure, "_uncontained", oracles.uncontained)
    assert fast == find_msps(pos)
    assert len(fast) > 10


def _dense_msps(pos, params, monkeypatch):
    """find_msps on oracles.msp_links: its cdist returns 0.0 where the
    dense form links and inf elsewhere."""
    with monkeypatch.context() as m:
        m.setattr(loopclosure, "cdist", lambda a, b: np.where(
            oracles.msp_links(a, params.radius, params.min_separation), 0.0, np.inf))
        return find_msps(pos, params)


def test_find_msps_band_edges_match_dense_separation_table(monkeypatch):
    # out and back 1 m apart (exactly the radius) with the turn's two
    # x = 2 points exactly min_separation (2) apart: they are not linked
    x = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
    pos = np.column_stack([x, (np.arange(7) > 3).astype(float)])
    params = MspParams(radius=1.0, min_separation=2)
    assert find_msps(pos, params) == _dense_msps(pos, params, monkeypatch) == [SegmentPair(0, 1, 6, 5)]
    # one more step apart, they are
    pos = np.column_stack([np.r_[x[:4], 3.0, x[4:]], np.r_[np.zeros(4), np.ones(4)]])
    assert find_msps(pos, params) == _dense_msps(pos, params, monkeypatch) == [SegmentPair(0, 2, 7, 5)]


@pytest.mark.parametrize("n", [10, 300])
@pytest.mark.parametrize("sep", [0, 1, 15])
def test_find_msps_match_dense_separation_table_on_lattice_walks(n, sep, monkeypatch):
    # 0.5 m lattice steps: many pairs lie exactly 1 m (the radius) apart
    steps = np.random.default_rng(n + sep).integers(-1, 2, size=(n, 2)) * 0.5
    pos = np.cumsum(steps, axis=0)
    params = MspParams(radius=1.0, min_separation=sep)
    fast = find_msps(pos, params)
    assert fast == _dense_msps(pos, params, monkeypatch)
    assert bool(fast) == (n > sep)


# ------------------------------------------------------------- validation

def _sub(length_a, length_b, d_mean=0.0, d_var=0.0, m=5):
    pos_a = np.column_stack([np.linspace(0, length_a, m), np.zeros(m)])
    offsets = np.full(m, d_mean)
    if d_var > 0:
        half = m // 2
        spread = math.sqrt(d_var)
        offsets = d_mean + np.concatenate([np.full(half, -spread),
                                           np.full(m - half, spread)])
    pos_b = pos_a + np.column_stack([np.zeros(m), offsets])
    return SubMatching(pos_a, pos_b, length_a, length_b)


def test_validate_closure_accepts_good_match():
    ok, reason = validate_closure(_sub(4.0, 3.5, d_mean=1.0))
    assert ok and reason == ""


def test_validate_closure_rejection_reasons():
    assert validate_closure(_sub(2.0, 2.0))[1] == "min_length"
    assert validate_closure(_sub(6.0, 2.9))[1] == "ratio"
    assert validate_closure(_sub(4.0, 4.0, d_mean=3.5))[1] == "mean_dist"
    # separations 0.8/3.2: mean 2.24 passes, variance 1.38 fails
    assert validate_closure(_sub(4.0, 4.0, d_mean=2.0, d_var=1.44))[1] == "dist_var"


def test_validate_closure_bounds_are_inclusive_for_distances():
    p = ValidationParams()
    ok, _ = validate_closure(_sub(4.0, 4.0, d_mean=p.max_mean_dist))
    assert ok
    ok, _ = validate_closure(_sub(4.0, 4.0, d_var=p.max_dist_var))
    assert ok
    # strict bounds for length and ratio
    assert not validate_closure(_sub(p.min_length, p.min_length))[0]
    assert not validate_closure(_sub(5.0, 2.5))[0]


# ------------------------------------------------------------- thinning

def test_thin_to_steps_interpolates_and_dedupes():
    step_times = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0])
    matches = [(1.0, 13.0), (3.0, 11.0)]
    out = thin_to_steps(matches, step_times)
    assert out == [StepLoopClosure(1, 7), StepLoopClosure(2, 6), StepLoopClosure(3, 5)]


def test_thin_to_steps_drops_self_pairs():
    step_times = np.array([0.0, 1.0, 2.0])
    assert thin_to_steps([(0.0, 0.4), (2.0, 2.2)], step_times) == []
    assert thin_to_steps([], step_times) == []
    assert thin_to_steps(np.empty((0, 2)), step_times) == []


def test_thin_to_steps_halfway_and_repeated_step_times():
    step_times = np.array([0.0, 1.0, 1.0, 3.0])
    cases = [
        # epoch 3 maps to t = 0.5, halfway between epochs 0 and 1: the earlier wins
        ([(3.0, 0.5)], [StepLoopClosure(0, 3)]),
        # epochs 1 and 2 share t = 1: a match there snaps to epoch 1 ...
        ([(0.0, 1.0)], [StepLoopClosure(0, 1)]),
        # ... and epoch 2 pairs with epoch 1
        ([(1.0, 1.0)], [StepLoopClosure(1, 2)]),
    ]
    for matches, want in cases:
        assert thin_to_steps(matches, step_times) == want
        assert oracles.thin_to_steps(matches, step_times) == want


_half = st.integers(0, 16).map(lambda k: k / 2)  # halves make exact midpoints and ties common


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_half, min_size=1, max_size=12),
       matches=st.lists(st.tuples(_half, _half), max_size=10))
def test_thin_to_steps_matches_per_epoch_oracle(steps, matches):
    # repeated step times, matches out of time order and empty matches
    step_times = np.sort(np.array(steps))
    got = thin_to_steps(matches, step_times)
    assert got == oracles.thin_to_steps(matches, step_times)
    assert all(type(c.epoch_a) is int and type(c.epoch_b) is int for c in got)


# ------------------------------------------------- end-to-end detection

def _out_and_back(n_steps=60, stride=0.75, dt=0.5):
    """Straight out along x and straight back, poses at every step."""
    half = n_steps // 2
    xs = [stride * i for i in range(half + 1)]
    xs += [xs[-1] - stride * (i + 1) for i in range(half)]
    poses = np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])
    times = np.arange(len(xs)) * dt
    return PdrTrajectory(poses, times)


def _field_samples(traj, rate=25.0):
    """Magnetometer magnitudes from a bumpy 1-D field along the walk."""
    t = np.arange(traj.times[0], traj.times[-1], 1.0 / rate)
    x = np.interp(t, traj.times, traj.positions[:, 0])
    mag = 50.0 + 8.0 * np.sin(0.9 * x) + 5.0 * np.cos(2.3 * x + 1.0)
    return [MagSample(float(ti), (float(v), 0.0, 0.0)) for ti, v in zip(t, mag)]


def test_detect_loop_closures_on_clean_out_and_back():
    traj = _out_and_back()
    mags = _field_samples(traj)
    res = detect_loop_closures(traj, mags)
    assert res.msps, "expected at least one maximal segment pair"
    assert res.closures, "expected accepted closures"
    # every accepted closure links near-coincident positions
    for c in res.closures:
        d = np.hypot(*(traj.positions[c.epoch_a] - traj.positions[c.epoch_b]))
        assert d <= 3.0
    # canonical ordering
    pairs = [(c.epoch_a, c.epoch_b) for c in res.closures]
    assert pairs == sorted(pairs)


def test_detect_loop_closures_validate_false_accepts_more():
    traj = _out_and_back()
    mags = _field_samples(traj)
    strict = detect_loop_closures(traj, mags)
    loose = detect_loop_closures(traj, mags, validate=False)
    assert len(loose.closures) >= len(strict.closures)
    assert not loose.rejected


def test_detect_loop_closures_needs_mag_data():
    traj = _out_and_back()
    res = detect_loop_closures(traj, [])
    assert res == LoopClosureResult([], [], [])


def test_detect_loop_closures_window_grid_past_the_last_epoch(monkeypatch):
    # the 10 Hz grid over [6.388, 21.188] s ends one rounding past
    # 21.188; the positions there are the last pose's, as np.interp
    # gives them, not a range error
    base = _out_and_back()
    times = np.concatenate([np.linspace(0.0, 6.388, 37), np.linspace(6.388, 21.188, 25)[1:]])
    traj = PdrTrajectory(base.poses, times)
    mags = _field_samples(PdrTrajectory(np.vstack([base.poses, base.poses[-1:]]),
                                        np.append(times, times[-1] + 1.0)))
    grid, _ = loopclosure._resample_window(*loopclosure._magnitude_series(mags), times[36], times[60])
    assert grid[-1] > times[-1]
    got = detect_loop_closures(traj, mags)
    assert got.closures

    def interp_unchecked(traj, ts):
        return np.stack([np.interp(ts, traj.times, traj.poses[:, 0]),
                         np.interp(ts, traj.times, traj.poses[:, 1])], axis=1)

    monkeypatch.setattr(loopclosure, "interpolate_positions", interp_unchecked)
    assert detect_loop_closures(traj, mags) == got

