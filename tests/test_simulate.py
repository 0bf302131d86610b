import hashlib
import math

import numpy as np
import pytest

from floorsurvey.geometry import containing_room, containing_rooms, segments_cross_walls
from floorsurvey.simulate import (
    CORRIDOR_Y,
    AccessPoint,
    MagFieldModel,
    Scenario,
    WalkScript,
    corrupt_steps,
    corridor_scenario,
    corridor_walk,
    default_aps,
    detour_scenario,
    detour_walk,
    floor_loop_scenario,
    floor_loop_walk,
    generate_walk,
    grid_survey,
    multi_room_scenario,
    multi_room_walk,
    office_floorplan,
    parse_scenario,
    random_anomalies,
    rss_at,
    sample_magnetics,
    simulate_scenario,
    simulate_wifi,
)


# ------------------------------------------------------------------ walks

def test_generate_walk_square():
    traj, steps = generate_walk(WalkScript([(0, 0), (3, 0), (3, 3), (0, 3), (0, 0)]))
    assert len(steps) == 16
    assert len(traj) == 17
    assert np.allclose(traj.poses[-1, :2], [0, 0], atol=1e-9)
    # first leg sets the initial heading, so step 0 has no turn
    assert steps[0].dtheta == 0.0
    turns = [s.dtheta for s in steps if abs(s.dtheta) > 1e-9]
    assert np.allclose(turns, math.pi / 2)
    # constant cadence at speed / step_length
    dts = np.diff([s.t for s in steps])
    assert np.allclose(dts, 0.6)
    assert traj.times[0] == 0.0


def test_generate_walk_leg_rounding_and_reaim():
    # 1 m leg rounds to one 0.75 m stride; the next leg re-aims from the
    # actual endpoint, not the waypoint
    traj, steps = generate_walk(WalkScript([(0, 0), (1.0, 0), (1.0, 2.0)]))
    assert np.allclose(traj.poses[1, :2], [0.75, 0])
    second_heading = math.atan2(2.0, 1.0 - 0.75)
    assert math.isclose(traj.poses[2, 2], second_heading, abs_tol=1e-12)


def test_generate_walk_skips_tiny_legs():
    traj, steps = generate_walk(WalkScript([(0, 0), (0.3, 0), (3.0, 0)]))
    assert len(steps) == 4
    assert np.allclose(traj.poses[-1, :2], [3.0, 0])


def test_generate_walk_start_theta():
    _, steps = generate_walk(WalkScript([(0, 0), (3, 0)], start_theta=math.pi / 2))
    assert math.isclose(steps[0].dtheta, -math.pi / 2)


def test_generate_walk_needs_two_waypoints():
    with pytest.raises(ValueError):
        generate_walk(WalkScript([(0, 0)]))


def test_corrupt_steps_zero_noise_is_identity():
    _, steps = generate_walk(WalkScript([(0, 0), (6, 0), (6, 6)]))
    out = corrupt_steps(steps, theta_sigma=0.0, len_sigma=0.0)
    assert out == steps
    assert corrupt_steps([]) == []


def test_corrupt_steps_bias_is_linear_in_time():
    _, steps = generate_walk(WalkScript([(0, 0), (6, 0)]))
    out = corrupt_steps(steps, theta_sigma=0.0, len_sigma=0.0, bias_deg_per_min=60.0)
    # 60 deg/min = 1 deg/s; each stride takes 0.6 s
    per_step = math.radians(1.0) * 0.6
    for a, b in zip(steps, out):
        assert math.isclose(b.dtheta - a.dtheta, per_step, abs_tol=1e-12)


def test_corrupt_steps_clamps_length():
    _, steps = generate_walk(WalkScript([(0, 0), (6, 0)]))
    out = corrupt_steps(steps, theta_sigma=0.0, len_sigma=5.0,
                        rng=np.random.default_rng(1))
    assert all(s.length >= 0.05 for s in out)


def test_corrupt_steps_deterministic():
    _, steps = generate_walk(WalkScript([(0, 0), (6, 0)]))
    a = corrupt_steps(steps, rng=np.random.default_rng(5))
    b = corrupt_steps(steps, rng=np.random.default_rng(5))
    assert a == b


# ----------------------------------------------------------------- fields

def test_mag_field_model():
    field = MagFieldModel(50.0, np.array([[0.0, 0.0, 10.0, 2.0]]))
    v = field.field_at(np.array([[2.0, 0.0], [100.0, 0.0]]))
    assert math.isclose(v[0], 50.0 + 10.0 * math.exp(-1.0))
    assert math.isclose(v[1], 50.0, abs_tol=1e-9)
    assert MagFieldModel(48.0).field_at([1.0, 2.0])[0] == 48.0


def test_rss_at_log_distance():
    ap = AccessPoint("a", 0.0, 0.0)
    v = rss_at(ap, np.array([[1.0, 0.0], [10.0, 0.0], [0.0, 0.0]]))
    assert math.isclose(v[0], -40.0)
    assert math.isclose(v[1], -40.0 - 25.0 * 1.0)
    # inside 0.1 m the distance is clamped, not the power
    assert math.isclose(v[2], -40.0 + 25.0)
    far = rss_at(ap, np.array([[1e6, 0.0]]))
    assert far[0] == -120.0


def test_sample_magnetics_timing_and_values():
    traj, _ = generate_walk(WalkScript([(0, 0), (6, 0)]))
    field = MagFieldModel(50.0)
    mags = sample_magnetics(traj, field, rate=10.0, sigma=0.0)
    t0, t1 = traj.times[0], traj.times[-1]
    assert len(mags) == int(math.floor((t1 - t0) * 10.0)) + 1
    assert mags[0].t == t0
    assert all(m.magnitude == 50.0 for m in mags)


def test_simulate_wifi_sorted_and_bounded():
    traj, _ = generate_walk(WalkScript([(0, 0), (10, 0)]))
    aps = default_aps()[:3]
    obs = simulate_wifi(traj, aps, scan_period=1.0, rng=np.random.default_rng(2))
    keys = [(o.t, o.ap_id) for o in obs]
    assert keys == sorted(keys)
    scans = int(math.floor((traj.times[-1] - traj.times[0]) / 1.0)) + 1
    assert len(obs) == scans * 3
    assert all(-120.0 <= o.rssi <= 0.0 for o in obs)


def test_random_anomalies_ranges():
    a = random_anomalies((0, 0, 10, 5), count=200, rng=np.random.default_rng(3))
    assert a.shape == (200, 4)
    assert np.all((a[:, 0] >= 0) & (a[:, 0] <= 10))
    assert np.all((a[:, 1] >= 0) & (a[:, 1] <= 5))
    mag = np.abs(a[:, 2])
    assert np.all((mag >= 10.0) & (mag <= 25.0))
    assert (a[:, 2] < 0).any() and (a[:, 2] > 0).any()
    assert np.all((a[:, 3] >= 1.0) & (a[:, 3] <= 2.2))


@pytest.mark.parametrize("builder, count, digest", [
    (corridor_scenario, 110, "ca894a1571ebffe1"),
    (floor_loop_scenario, 60, "2d87c0395087f3f5"),
    (detour_scenario, 110, "7d8d6c0ff7fbf427"),
    (multi_room_scenario, 110, "38496d420b6380da"),
])
def test_scenario_anomalies_keep_their_bytes(builder, count, digest):
    # the fields every benchmark and acceptance walk is simulated in:
    # sha256 prefixes of each builder's anomalies at its defaults
    a = builder().anomalies
    assert a.shape == (count, 4) and a.dtype == np.float64
    assert hashlib.sha256(a.tobytes()).hexdigest()[:16] == digest
    # drawn over the office floor's bounds
    want = random_anomalies(office_floorplan().bounds, count, np.random.default_rng(3))
    assert np.array_equal(builder(field_seed=3).anomalies, want)


# -------------------------------------------------------------- floorplan

def test_office_floorplan_structure():
    fp = office_floorplan()
    assert len(fp.rooms) == 18
    assert fp.bounds == (0.0, 0.0, 50.0, 30.0)
    assert containing_room(fp, (3.125, 5.0)) == 0
    assert containing_room(fp, (25.0, CORRIDOR_Y)) == 16
    assert containing_room(fp, (25.0, 20.0)) == 17
    assert containing_room(fp, (2.875, 20.0)) == 8
    assert containing_room(fp, (47.125, 20.0)) == 15


def test_office_floorplan_doorways():
    fp = office_floorplan(door=2.0)
    # through the room-0 doorway: no wall crossed
    a = np.array([[3.125, 14.0]])
    b = np.array([[3.125, 13.0]])
    assert not segments_cross_walls(a, b, fp.walls)[0]
    # one metre to the side the wall is solid
    a2 = np.array([[1.0, 14.0]])
    b2 = np.array([[1.0, 13.0]])
    assert segments_cross_walls(a2, b2, fp.walls)[0]
    # just outside the 2 m gap
    a3 = np.array([[4.2, 14.0]])
    b3 = np.array([[4.2, 13.0]])
    assert segments_cross_walls(a3, b3, fp.walls)[0]


def test_walk_scripts_stay_inside():
    fp = office_floorplan()
    for wps in (corridor_walk(), floor_loop_walk(), detour_walk(), multi_room_walk()):
        traj, _ = generate_walk(WalkScript(wps))
        inside = containing_rooms(fp, traj.positions) >= 0
        assert inside.all()
        crossed = segments_cross_walls(traj.positions[:-1], traj.positions[1:], fp.walls)
        assert not crossed.any()


def test_multi_room_walk_covers_fifteen_rooms():
    fp = office_floorplan()
    wps = multi_room_walk()
    dips = [w for w in wps if abs(w[1] - CORRIDOR_Y) > 1.0]
    rooms = {containing_room(fp, w) for w in dips}
    assert len(rooms) == 15
    assert 16 not in rooms and 17 not in rooms


# -------------------------------------------------------------- scenarios

SCENARIO_TEXT = """\
# demo scenario
waypoint, 1.0, 2.0
waypoint, 9.0, 2.0
ap, 5.0, 5.0, -38.0, 2.0
anomaly, 3.0, 3.0, 12.0, 1.5
speed, 1.0
bias_deg_per_min, 2.5
starthint, room
"""


def test_parse_scenario_full():
    sc = parse_scenario(SCENARIO_TEXT)
    assert sc.waypoints == [(1.0, 2.0), (9.0, 2.0)]
    assert sc.aps == [AccessPoint("ap0", 5.0, 5.0, -38.0, 2.0)]
    assert np.allclose(sc.anomalies, [[3.0, 3.0, 12.0, 1.5]])
    assert sc.speed == 1.0
    assert sc.bias_deg_per_min == 2.5
    assert sc.start_hint == "room"


def test_parse_scenario_defaults():
    sc = parse_scenario("waypoint,0,0\nwaypoint,5,0\n")
    assert sc.aps == default_aps()
    assert sc.anomalies.shape == (0, 4)
    assert sc.start_hint == "pose"


@pytest.mark.parametrize("text,fragment", [
    ("waypoint,0,0\n", "two waypoint"),
    ("waypoint,0,0\nwaypoint,1,x\n", "line 2"),
    ("bogus,1\nwaypoint,0,0\nwaypoint,1,0\n", "line 1"),
    ("waypoint,0,0\nwaypoint,1,0\nap,1,2\n", "line 3"),
    ("waypoint,0,0\nwaypoint,1,0\nstarthint,sofa\n", "pose or room"),
    ("waypoint,0,0\nwaypoint,nan,0\n", "line 2: non-finite"),
    ("waypoint,0,0\nwaypoint,1,0\nap,1,2,-40,inf\n", "line 3: non-finite"),
    ("waypoint,0,0\nwaypoint,1,0\nanomaly,1,2,nan,1.5\n", "line 3: non-finite"),
    # a decay at or below 0 would write infinite magnetometer readings
    *((f"waypoint,0,0\nwaypoint,1,0\nanomaly,4.0,14.5,18.0,{decay}\n",
       f"line 3: anomaly decay must be positive, got {float(decay)}")
      for decay in ("0", "-0.01")),
    ("waypoint,0,0\nwaypoint,1,0\nspeed,-inf\n", "line 3: non-finite"),
    # divisors must be positive and noise scales non-negative
    *((f"waypoint,0,0\n# {name}\nwaypoint,1,0\n{name},{value}\n",
       f"line 4: {name} must be positive, got {float(value)}")
      for name in ("speed", "step_length", "mag_rate", "scan_period") for value in ("0", "-5")),
    *((f"waypoint,0,0\nwaypoint,1,0\n{name},-1\n",
       f"line 3: {name} must be non-negative, got -1.0")
      for name in ("theta_sigma", "len_sigma", "mag_sigma", "shadow_sigma")),
])
def test_parse_scenario_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_scenario(text)


def test_parse_scenario_accepts_zero_noise_and_any_finite_background_or_bias():
    sc = parse_scenario("waypoint,0,0\nwaypoint,1,0\ntheta_sigma,0\nlen_sigma,0\n"
                        "mag_sigma,0\nshadow_sigma,0\nbackground,-5\nbias_deg_per_min,-3\n")
    assert (sc.theta_sigma, sc.len_sigma, sc.mag_sigma, sc.shadow_sigma) == (0.0,) * 4
    assert (sc.background, sc.bias_deg_per_min) == (-5.0, -3.0)


def _tiny_scenario() -> Scenario:
    return Scenario(
        waypoints=[(2.0, CORRIDOR_Y), (12.0, CORRIDOR_Y)],
        aps=default_aps()[:2],
        anomalies=np.array([[5.0, 14.0, 15.0, 1.5]]),
    )


def test_simulate_scenario_deterministic():
    fp = office_floorplan()
    sc = _tiny_scenario()
    log1, truth1 = simulate_scenario(sc, fp, seed=3)
    log2, truth2 = simulate_scenario(sc, fp, seed=3)
    assert log1.steps == log2.steps
    assert log1.mags == log2.mags
    assert log1.wifi == log2.wifi
    assert np.array_equal(truth1.poses, truth2.poses)
    log3, _ = simulate_scenario(sc, fp, seed=4)
    assert log3.steps != log1.steps


def test_simulate_scenario_start_hints():
    fp = office_floorplan()
    sc = _tiny_scenario()
    log, truth = simulate_scenario(sc, fp, seed=0)
    assert log.start_pose is not None and log.start_room is None
    assert np.allclose((log.start_pose.x, log.start_pose.y), truth.poses[0, :2])
    sc.start_hint = "room"
    log2, _ = simulate_scenario(sc, fp, seed=0)
    assert log2.start_room == 16 and log2.start_pose is None
    assert log2.has_start


def test_grid_survey_inside_and_deterministic():
    fp = office_floorplan()
    sc = _tiny_scenario()
    pts, mag, wifi = grid_survey(sc, fp, spacing=2.0, seed=11)
    assert (containing_rooms(fp, pts) >= 0).all()
    assert mag.shape == (len(pts),)
    assert set(wifi) == {"ap0", "ap1"}
    assert all(v.shape == (len(pts),) for v in wifi.values())
    pts2, mag2, wifi2 = grid_survey(sc, fp, spacing=2.0, seed=11)
    assert np.array_equal(pts, pts2) and np.array_equal(mag, mag2)
    assert all(np.array_equal(wifi[k], wifi2[k]) for k in wifi)
