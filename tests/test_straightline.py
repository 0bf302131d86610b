import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey.sensors import StepEvent
from floorsurvey.straightline import StraightLineParams, detect_straight_steps

import oracles


def _steps(dthetas_deg):
    return [StepEvent(0.5 * (i + 1), 0.75, math.radians(d))
            for i, d in enumerate(dthetas_deg)]


def test_detect_runs_and_short_run_dropped():
    # 12 straight, turn, 8 straight, turn, 15 straight
    pattern = [0.0] * 12 + [90.0] + [0.0] * 8 + [-90.0] + [0.0] * 15
    flags = detect_straight_steps(_steps(pattern))
    want = np.array([True] * 12 + [False] + [False] * 8 + [False] + [True] * 15)
    assert np.array_equal(flags, want)


def test_threshold_is_strict():
    flags = detect_straight_steps(_steps([5.0] * 12))
    assert not flags.any()
    flags = detect_straight_steps(_steps([4.99] * 12))
    assert flags.all()
    # sign does not matter
    flags = detect_straight_steps(_steps([-4.99] * 12))
    assert flags.all()


def test_min_run_boundary():
    assert detect_straight_steps(_steps([0.0] * 10)).all()
    assert not detect_straight_steps(_steps([0.0] * 9)).any()
    p = StraightLineParams(min_run=3)
    assert detect_straight_steps(_steps([0.0] * 3), p).all()


def test_empty_and_bad_params():
    assert len(detect_straight_steps([])) == 0
    with pytest.raises(ValueError):
        detect_straight_steps(_steps([0.0]), StraightLineParams(min_run=0))


def test_runs_at_sequence_edges():
    pattern = [0.0] * 10 + [45.0] + [0.0] * 10
    flags = detect_straight_steps(_steps(pattern))
    assert flags[:10].all() and not flags[10] and flags[11:].all()


@pytest.mark.parametrize("pattern, min_run", [
    ([], 1), ([], 10),                   # empty input
    ([0.0] * 7, 3), ([0.0] * 7, 7),      # all straight
    ([0.0] * 6, 7),                      # all straight, one short of min_run
    ([90.0] * 5, 1),                     # no candidate
    ([0.0] * 3 + [90.0] + [0.0] * 2 + [90.0] + [0.0] * 3, 3),  # runs of exactly min_run
    ([0.0, 90.0, 0.0, 90.0, 0.0], 1),    # one-step runs
])
def test_detect_straight_steps_edge_cases_match_oracle(pattern, min_run):
    steps, p = _steps(pattern), StraightLineParams(min_run=min_run)
    flags = detect_straight_steps(steps, p)
    assert flags.dtype == bool and flags.shape == (len(pattern),)
    assert np.array_equal(flags, oracles.detect_straight_steps(steps, p))


@settings(max_examples=300, deadline=None)
@given(pattern=st.lists(st.sampled_from([0.0, 4.99, -4.99, 5.0, -5.0, 90.0]), max_size=40),
       min_run=st.integers(1, 5))
def test_detect_straight_steps_matches_index_walking_oracle(pattern, min_run):
    steps, p = _steps(pattern), StraightLineParams(min_run=min_run)
    assert np.array_equal(detect_straight_steps(steps, p), oracles.detect_straight_steps(steps, p))

