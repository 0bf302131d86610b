import math

import numpy as np
import pytest

from floorsurvey.geometry import Pose2D
from floorsurvey.sensors import (
    LogError,
    MagSample,
    PdrTrajectory,
    StepEvent,
    StepNoiseModel,
    SurveyLog,
    WifiObservation,
    interpolate_positions,
    parse_survey_log,
    step_epoch_times,
)

import oracles


def test_step_event_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        StepEvent(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        StepEvent(0.0, -0.5, 0.0)


@pytest.mark.parametrize("fields", [(math.nan, 0.75, 0.0), (0.0, math.nan, 0.0),
                                    (0.0, math.inf, 0.0), (0.0, 0.75, math.nan),
                                    (-math.inf, 0.75, 0.0), (0.0, 0.75, np.float64(-np.inf))])
def test_step_event_rejects_non_finite_fields(fields):
    with pytest.raises(ValueError, match="not finite"):
        StepEvent(*fields)


def test_mag_magnitude():
    assert math.isclose(MagSample(0.0, (3.0, 4.0, 12.0)).magnitude, 13.0)


def test_wifi_rssi_range():
    WifiObservation(0.0, "ap", -50.0)
    with pytest.raises(ValueError):
        WifiObservation(0.0, "ap", 5.0)
    with pytest.raises(ValueError):
        WifiObservation(0.0, "ap", -130.0)


def test_noise_model_defaults():
    m = StepNoiseModel()
    assert math.isclose(m.sigma_dtheta, math.radians(0.5))
    assert math.isclose(m.sigma_length(0.75), 0.375)
    assert math.isclose(m.sigma_length(1.0), 0.5)


@pytest.mark.parametrize("field", ["sigma_dtheta", "length_lambda"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-9])
def test_noise_model_rejects_non_finite_or_negative(field, value):
    with pytest.raises(ValueError, match=field):
        StepNoiseModel(**{field: value})


# ----------------------------------------------------------------- parsing

GOOD = """
start,1.5,2.5,0.25
step,1.0,0.75,0.1
step,2.0,0.8,-0.05
mag,0.5,10,20,30
wifi,1.2,ap0,-55
"""


def test_parse_survey_log_roundtrip_fields():
    log = parse_survey_log(GOOD)
    assert len(log.steps) == 2 and len(log.mags) == 1 and len(log.wifi) == 1
    assert log.start_pose == Pose2D(1.5, 2.5, 0.25)
    assert log.steps[1].length == 0.8
    assert log.mags[0].b == (10.0, 20.0, 30.0)
    assert log.wifi[0].ap_id == "ap0"
    assert log.has_start


def test_parse_survey_log_room_hint():
    log = parse_survey_log("start,3\nstep,0.5,0.75,0\n")
    assert log.start_room == 3
    assert log.start_pose is None


@pytest.mark.parametrize("bad,msg", [
    ("step,1.0,0.75\n", "line 1"),
    ("step,2.0,0.75,0\nstep,1.0,0.75,0\n", "non-decreasing"),
    ("start,1\nstart,2\n", "duplicate start"),
    ("bogus,1,2\n", "unknown record"),
    ("mag,1,2,3\n", "expected mag"),
    ("step,1.0,nan,0.0\n", "line 1: non-finite"),
    ("step,1.0,0.75,0\nstep,nan,0.75,0\n", "line 2: non-finite"),
    ("step,1.0,inf,0\n", "line 1: non-finite"),
    ("step,1.0,0.75,-inf\n", "line 1: non-finite"),
    ("mag,1.0,2,nan,3\n", "line 1: non-finite"),
    ("# head\nwifi,inf,ap0,-60\n", "line 2: non-finite"),
    ("wifi,1.0,ap0,nan\n", "line 1: non-finite"),
    ("start,1,nan,0\n", "line 1: non-finite"),
    # a component of 1e200 overflowed in the magnitude's square
    ("mag,1.0,2,10000.001,3\n", "line 1: mag component above 10000 uT"),
    ("step,1.0,0.75,0\nmag,1.0,-1e200,0,0\n", "line 2: mag component above 10000 uT"),
])
def test_parse_survey_log_errors(bad, msg):
    with pytest.raises(LogError, match=msg):
        parse_survey_log(bad)


def test_parse_survey_log_takes_mag_components_at_the_bound():
    log = parse_survey_log("mag,1.0,10000,-10000,10000\n")
    assert log.mags[0].b == (1e4, -1e4, 1e4)
    assert math.isclose(log.mags[0].magnitude, math.sqrt(3.0) * 1e4)


# ------------------------------------------------------------ epoch times

def test_step_epoch_times_nominal():
    steps = [StepEvent(t, 0.75, 0.0) for t in (1.0, 1.5, 2.0)]
    times = step_epoch_times(steps)
    assert np.allclose(times, [0.5, 1.0, 1.5, 2.0])


def test_step_epoch_times_clamped_at_zero():
    steps = [StepEvent(0.1, 0.75, 0.0), StepEvent(1.5, 0.75, 0.0)]
    times = step_epoch_times(steps)
    assert times[0] == 0.0


def test_step_epoch_times_single_step():
    times = step_epoch_times([StepEvent(2.0, 0.75, 0.0)])
    assert np.allclose(times, [1.5, 2.0])
    assert len(step_epoch_times([])) == 1


# ---------------------------------------------------------- dead reckoning

def test_dead_reckon_right_angles():
    # east one stride, then a left turn north for two strides
    steps = [StepEvent(1.0, 1.0, 0.0), StepEvent(2.0, 2.0, math.pi / 2)]
    traj = oracles.dead_reckon(steps, Pose2D(0.0, 0.0, 0.0))
    assert np.allclose(traj.poses[0], [0, 0, 0])
    assert np.allclose(traj.poses[1], [1, 0, 0], atol=1e-12)
    assert np.allclose(traj.poses[2], [1, 2, math.pi / 2], atol=1e-12)
    assert len(traj) == 3


def test_dead_reckon_turn_applies_before_stride():
    steps = [StepEvent(1.0, 1.0, math.pi)]
    traj = oracles.dead_reckon(steps, Pose2D(0.0, 0.0, 0.0))
    assert np.allclose(traj.positions[1], [-1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------- interpolation

def _ramp_traj():
    poses = np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], dtype=float)
    return PdrTrajectory(poses, np.array([0.0, 1.0, 2.0]))


def test_interpolate_position_linear_inside_range():
    traj = _ramp_traj()
    assert np.allclose(oracles.interpolate_position(traj, 0.5), [0.5, 0.0])
    assert np.allclose(oracles.interpolate_position(traj, 1.5), [2.0, 0.0])
    assert np.allclose(oracles.interpolate_position(traj, 2.0), [3.0, 0.0])
    assert np.allclose(interpolate_positions(traj, np.array([0.5, 1.5, 2.0])),
                       [[0.5, 0.0], [2.0, 0.0], [3.0, 0.0]])


def test_interpolate_position_rejects_out_of_range():
    traj = _ramp_traj()
    with pytest.raises(ValueError):
        oracles.interpolate_position(traj, -0.1)
    with pytest.raises(ValueError):
        interpolate_positions(traj, np.array([-0.1]))
    with pytest.raises(ValueError):
        interpolate_positions(traj, np.array([0.5, 2.1]))


def test_interpolate_positions_matches_scalar():
    traj = _ramp_traj()
    ts = np.array([0.0, 0.25, 1.0, 1.75, 2.0])
    out = interpolate_positions(traj, ts)
    for i, t in enumerate(ts):
        assert np.allclose(out[i], oracles.interpolate_position(traj, t))
