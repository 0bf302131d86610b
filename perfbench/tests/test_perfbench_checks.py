"""Fast tests of the benchmark's output checks.

Each check passes on a tiny case worked out by hand and fails once the
case is corrupted.  Run with:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SQUARE = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
EAST = np.array([[4, 0], [8, 0], [8, 4], [4, 4]], dtype=float)


def test_trajectory_shape_and_finiteness():
    poses = np.zeros((4, 3))
    checks.check_trajectory(poses, 3)
    with pytest.raises(CheckFailed):
        checks.check_trajectory(poses, 4)
    poses[2, 1] = np.nan
    with pytest.raises(CheckFailed):
        checks.check_trajectory(poses, 3)


def test_wall_crossing_touch_rule():
    wall = np.array([[2.0, 0.0, 2.0, 4.0]])
    beside = np.array([[0.5, 1.0, 0.0], [1.5, 1.0, 0.0], [1.5, 3.0, 0.0]])
    checks.check_no_wall_crossing(beside, wall)
    through = beside.copy()
    through[2] = [2.5, 3.0, 0.0]
    with pytest.raises(CheckFailed):
        checks.check_no_wall_crossing(through, wall)
    touching = beside.copy()
    touching[2] = [2.0, 1.0, 0.0]  # ends on the wall: counts as crossing
    with pytest.raises(CheckFailed):
        checks.check_no_wall_crossing(touching, wall)
    # collinear with the wall but past its end: clear
    assert not checks.move_touches_wall((2.0, 5.0), (2.0, 6.0), wall[0])
    assert checks.move_touches_wall((2.0, 3.0), (2.0, 6.0), wall[0])


def test_accuracy_limits():
    truth = np.zeros((10, 2))
    est = np.zeros((10, 2))
    est[:, 0] = np.arange(10) * 0.1  # errors 0.0 .. 0.9, p90 = 0.81
    p90 = float(np.percentile(checks.position_errors(est, truth), 90))
    assert math.isclose(p90, 0.81)
    checks.check_accuracy(p90, 1.5, first_pass_p90=1.0)
    with pytest.raises(CheckFailed):
        checks.check_accuracy(p90, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_accuracy(p90, 1.5, first_pass_p90=0.8)


def test_closures_near_share():
    truth = np.array([[0, 0], [10, 0], [0, 2], [10, 2.5], [30, 0]], dtype=float)
    good = [(0, 2), (1, 3), (0, 4)]  # two of three within 3 m
    with pytest.raises(CheckFailed):
        checks.check_closures(good, truth, share=0.7)
    checks.check_closures(good[:2], truth)
    with pytest.raises(CheckFailed):
        checks.check_closures([], truth)


def test_room_label_misses_lie_near_boundaries():
    rooms = [SQUARE, EAST]
    truth = np.array([[1.0, 2.0], [3.5, 2.0], [6.0, 2.0]])
    assert checks.room_label_misses([0, 0, 1], truth, rooms) == []
    assert checks.room_of(rooms, (4.0, 2.0)) == 0  # shared edge: lowest id
    assert checks.room_of(rooms, (9.0, 2.0)) == -1
    # epoch 1 is 0.5 m from the shared wall: a wrong label there is allowed
    near = checks.room_label_misses([0, 1, 1], truth, rooms)
    assert [e for e, _ in near] == [1] and math.isclose(near[0][1], 0.5)
    checks.check_room_labels(near, stride=0.75)
    # epoch 0 is 1 m from the west wall; epoch 2 is 2 m from every edge
    far = checks.room_label_misses([1, 0, 0], truth, rooms)
    assert np.allclose([d for _, d in far], [1.0, 2.0])
    with pytest.raises(CheckFailed):
        checks.check_room_labels(far, stride=0.75)
    labels = [None, 0, 1]  # None is "in no room"
    assert [e for e, _ in checks.room_label_misses(labels, truth, rooms)] == [0]


def test_dense_gp_matches_hand_solution():
    # one training point: mu = m + k/(sf2+sn2) (y - m), var = sf2 - k^2/(sf2+sn2)
    sf, sn, ls, m = 2.0, 1.0, 1.0, -50.0
    q = np.array([[0.0, 0.0], [1.0, 0.0]])
    mu, sd = checks.dense_gp_posterior([[0.0, 0.0]], [-45.0], q, ls, sf, sn, m)
    k = np.array([4.0, 4.0 * math.exp(-0.5)])
    assert np.allclose(mu, m + k / 5.0 * 5.0)
    assert np.allclose(sd, np.sqrt(4.0 - k * k / 5.0 + 1.0))

    class P:
        length_scale, sigma_f, sigma_n, mean = ls, sf, sn, m
    cells = np.array([0, 1])
    checks.check_gp_map(mu, sd, q, cells, [[0.0, 0.0]], [-45.0], P)
    with pytest.raises(CheckFailed):
        checks.check_gp_map(mu + np.array([0.0, 1e-3]), sd, q, cells, [[0.0, 0.0]], [-45.0], P)
    with pytest.raises(CheckFailed):
        checks.check_gp_map(mu, sd * 1.001, q, cells, [[0.0, 0.0]], [-45.0], P)


def test_fix_is_lowest_index_best_cell():
    # two sources, four cells; cells 1 and 3 are identical and best
    mus = np.array([[0.0, 5.0, 9.0, 5.0], [0.0, 1.0, 4.0, 1.0]])
    sigmas = np.ones((2, 4))
    reading = np.array([5.0, 1.0])
    checks.check_fix(1, mus, sigmas, reading)
    with pytest.raises(CheckFailed):
        checks.check_fix(3, mus, sigmas, reading)  # tie goes to the lower index
    with pytest.raises(CheckFailed):
        checks.check_fix(2, mus, sigmas, reading)
    s = checks.log_likelihoods(mus, sigmas, reading)
    assert math.isclose(s[1], -math.log(2.0 * math.pi))


def test_near_path_fixes_beat_far_ones():
    errors = np.array([0.5, 1.0, 0.7, 4.0, 5.0, 3.0])
    dist = np.array([0.0, 1.0, 2.0, 3.0, 6.0, 9.0])
    assert checks.check_near_beats_far(errors, dist) == (0.7, 4.0)
    with pytest.raises(CheckFailed):
        checks.check_near_beats_far(errors[::-1], dist)


def test_distance_to_polyline():
    path = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]])
    pts = np.array([[2.0, 1.0], [5.0, 2.0], [-3.0, -4.0]])
    assert np.allclose(checks.distance_to_polyline(pts, path), [1.0, 1.0, 5.0])


def test_repeat_digest():
    a = np.arange(6, dtype=float)
    d = checks.digest(a, a.reshape(2, 3))
    assert d == checks.digest(a.copy(), a.reshape(2, 3).copy())
    assert d != checks.digest(a, a.reshape(3, 2))
    checks.check_repeat(None, d)
    checks.check_repeat(d, d)
    b = a.copy()
    b[5] = np.nextafter(b[5], 10.0)
    with pytest.raises(CheckFailed):
        checks.check_repeat(d, checks.digest(b, b.reshape(2, 3)))


def test_probe_calibration_arithmetic():
    import speed

    probe = speed.Probe()
    probe.samples = [1e-3, 2e-3]
    mark = (0.0, 1)  # one sample before the stage, one within it
    assert math.isclose(probe.scale(mark), speed.REFERENCE_S / 2e-3)
    assert math.isclose(probe.scale((0.0, 0)), speed.REFERENCE_S / 1.5e-3)
    # a stage with no sample in it times the kernel once more
    assert probe.scale((0.0, 2)) > 0 and len(probe.samples) == 3
    # the kernel's own time within a stage is not the stage's
    probe.samples = [0.25]
    assert probe.own((speed.time.process_time(), 0)) < -0.2
