import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from floorsurvey import pipeline
from floorsurvey.filtering import FilterResult
from floorsurvey.pipeline import (
    PipelineConfig,
    SurveyPoint,
    apply_overrides,
    build_signal_maps,
    build_survey_points,
    evaluate_trajectory,
    run_survey,
)
from floorsurvey.sensors import (
    MagSample,
    PdrTrajectory,
    StepEvent,
    SurveyLog,
    WifiObservation,
)
from floorsurvey.simulate import (
    CORRIDOR_Y,
    Scenario,
    default_aps,
    office_floorplan,
    simulate_scenario,
)
from floorsurvey.signalmap import GpParams, fit_signal_map


# -------------------------------------------------------------- overrides

def test_apply_overrides_nested_and_flat():
    cfg = PipelineConfig()
    out = apply_overrides(cfg, {
        "sigma_closure": "0.8",
        "msp.radius": "2.5",
        "pf1.n_min": "100",
        "validation.max_flat": "5",
    })
    assert out.sigma_closure == 0.8
    assert out.msp.radius == 2.5
    assert out.pf1.n_min == 100 and isinstance(out.pf1.n_min, int)
    assert out.validation.max_flat == 5
    # the input config is untouched
    assert cfg.sigma_closure != 0.8 and cfg.msp.radius != 2.5


@pytest.mark.parametrize("key", ["bogus", "msp.bogus", "bogus.radius"])
def test_apply_overrides_unknown_keys(key):
    with pytest.raises(ValueError, match="unknown config"):
        apply_overrides(PipelineConfig(), {key: "1"})


def test_apply_overrides_rejects_section_assignment():
    with pytest.raises(ValueError, match="cannot be overridden"):
        apply_overrides(PipelineConfig(), {"noise": "3"})


def test_apply_overrides_bad_number():
    with pytest.raises(ValueError):
        apply_overrides(PipelineConfig(), {"pf1.n_min": "many"})


@pytest.mark.parametrize("key, text", [("pf1.n_min", "0"), ("pf2.bin_x", "nan"),
                                       ("noise.sigma_dtheta", "-1"),
                                       ("gp.cell", "0"), ("gp.cell", "inf"),
                                       ("gp.length_scale", "0"), ("gp.length_scale", "-3"),
                                       ("gp.sigma_f", "-1"), ("gp.sigma_f", "nan"),
                                       ("gp.sigma_n", "-0.5"), ("gp.sigma_n", "inf"),
                                       ("gp.mean", "-inf"), ("gp.mean", "nan")])
def test_apply_overrides_rejects_invalid_values(key, text):
    with pytest.raises(ValueError, match=key.partition(".")[2]):
        apply_overrides(PipelineConfig(), {key: text})


# ----------------------------------------------------------- survey points

def _fake_result(times, rooms=None):
    n = len(times)
    poses = np.column_stack([np.arange(n, dtype=float),
                             np.zeros(n), np.zeros(n)])
    if rooms is None:
        rooms = [None] * n
    return FilterResult(poses, poses.copy(), np.asarray(times, dtype=float),
                        rooms, np.full(n, 1), None)


def test_build_survey_points_window_assignment():
    res = _fake_result([0.0, 0.5, 1.0], rooms=[3, 3, 4])
    log = SurveyLog(
        steps=[StepEvent(0.5, 0.75, 0.0), StepEvent(1.0, 0.75, 0.0)],
        mags=[MagSample(0.0, (10.0, 0, 0)), MagSample(0.2, (20.0, 0, 0)),
              MagSample(0.4, (40.0, 0, 0)), MagSample(0.9, (7.0, 0, 0)),
              MagSample(5.0, (9.0, 0, 0))],
        wifi=[WifiObservation(0.4, "ap0", -50.0), WifiObservation(0.45, "ap0", -60.0),
              WifiObservation(0.9, "ap1", -70.0)],
    )
    pts = build_survey_points(res, log)
    assert [p.epoch for p in pts] == [0, 1, 2]
    # a sample lands in the first epoch whose time is >= t; trailing
    # samples fold into the last epoch
    assert pts[0].mag == 10.0
    assert pts[1].mag == 30.0
    assert pts[2].mag == 8.0
    assert pts[0].wifi == {}
    assert pts[1].wifi == {"ap0": -55.0}
    assert pts[2].wifi == {"ap1": -70.0}
    assert [p.room for p in pts] == [3, 3, 4]
    assert pts[1].x == 1.0 and pts[1].t == 0.5


def test_build_survey_points_no_signals():
    res = _fake_result([0.0, 1.0])
    log = SurveyLog(steps=[StepEvent(1.0, 0.75, 0.0)])
    pts = build_survey_points(res, log)
    assert all(p.mag is None and p.wifi == {} for p in pts)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 200), st.integers(0, 200), st.integers(0, 2 ** 32 - 1))
def test_build_survey_points_match_scalar_search_oracle(n, n_mag, n_wifi, seed):
    # samples before the first epoch, on epoch times, between them and
    # past the last, in log (time) order
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 0.8, n)) - 0.5
    pool = np.concatenate([times, rng.uniform(times[0] - 1.0, times[-1] + 1.0, 400)])
    res = _fake_result(times)
    log = SurveyLog(
        mags=[MagSample(float(t), tuple(rng.normal(0.0, 30.0, 3).tolist()))
              for t in np.sort(rng.choice(pool, n_mag))],
        wifi=[WifiObservation(float(t), f"ap{rng.integers(4)}", float(rng.uniform(-100, -20)))
              for t in np.sort(rng.choice(pool, n_wifi))],
    )
    # repr spells every float to the last bit
    assert repr(build_survey_points(res, log)) == repr(oracles.build_survey_points(res, log))


# ------------------------------------------------------------- evaluation

def test_evaluate_trajectory_hand_stats(two_room_plan):
    ref = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
    est = ref + np.array([[0.0, 0], [1.0, 0], [0, 2.0], [0, -3.0]])
    n = len(ref)
    truth = PdrTrajectory(np.column_stack([ref, np.zeros(n)]), np.arange(n, dtype=float))
    rep = evaluate_trajectory(est, [0, 0, 1, 0], truth, two_room_plan)
    assert rep.n_epochs == 4
    assert math.isclose(rep.mean_error, 1.5)
    assert math.isclose(rep.median_error, 1.5)
    assert math.isclose(rep.p90_error, 2.7)
    assert rep.max_error == 3.0 and rep.final_error == 3.0
    assert rep.room_mismatches == 1 and rep.room_accuracy == 0.75
    rep2 = evaluate_trajectory(est, None, truth)
    assert rep2.room_accuracy is None and rep2.room_mismatches is None


def test_evaluate_trajectory_length_mismatch():
    truth = PdrTrajectory(np.zeros((3, 3)), np.arange(3.0))
    with pytest.raises(ValueError, match="mismatch"):
        evaluate_trajectory(np.zeros((2, 2)), None, truth)


# -------------------------------------------------------------- map builds

def test_build_signal_maps_sources_and_grids():
    pts = [
        SurveyPoint(0, 0.0, 1.0, 1.0, 0.0, None, 50.0, {"ap0": -50.0}),
        SurveyPoint(1, 1.0, 2.0, 1.0, 0.0, None, None, {"ap0": -52.0, "ap1": -60.0}),
        SurveyPoint(2, 2.0, 3.0, 1.0, 0.0, None, 55.0, {}),
    ]
    maps = build_signal_maps(pts, (0.0, 0.0, 4.0, 2.0))
    assert set(maps) == {"mag", "ap0", "ap1"}
    shapes = {(m.nx, m.ny, m.x0, m.y0, m.cell) for m in maps.values()}
    assert len(shapes) == 1  # congruent grids for cross-map comparison
    assert maps["mag"].mu.shape == maps["ap0"].mu.shape


def _grouped_calls(monkeypatch):
    """Record the sources of each grouped fit that build_signal_maps makes."""
    calls = []
    fit = pipeline.fit_signal_maps

    def spy(bounds, positions, values_by_source, params=None):
        calls.append(list(values_by_source))
        return fit(bounds, positions, values_by_source, params)

    monkeypatch.setattr(pipeline, "fit_signal_maps", spy)
    return calls


def _assert_equal_separate_fits(maps, pts, bounds):
    for src, m in maps.items():
        sel = [p for p in pts if (p.mag is not None if src == "mag" else src in p.wifi)]
        pos = np.array([(p.x, p.y) for p in sel]).reshape(-1, 2)
        val = np.array([p.mag if src == "mag" else p.wifi[src] for p in sel])
        one = fit_signal_map(src, bounds, pos, val, GpParams())
        assert m.ap_id == src
        assert np.array_equal(m.mu, one.mu), src
        assert np.array_equal(m.sigma, one.sigma), src


def test_build_signal_maps_groups_by_training_positions(monkeypatch):
    rng = np.random.default_rng(5)
    xy = rng.uniform(0.0, 6.0, size=(9, 2))
    # ap1 sees the first six points, ap0, ap2 and the magnetometer all nine;
    # ap1 is inserted before ap0 so that group order differs from key order
    pts = [SurveyPoint(i, float(i), float(x), float(y), 0.0, None, 40.0 + i,
                       {**({"ap1": -70.0 + i} if i < 6 else {}),
                        "ap0": -50.0 - i, "ap2": -60.0 + 2 * i})
           for i, (x, y) in enumerate(xy)]
    calls = _grouped_calls(monkeypatch)
    maps = build_signal_maps(pts, (0.0, 0.0, 6.0, 4.0))
    assert list(maps) == ["mag", "ap0", "ap1", "ap2"]
    assert calls == [["mag", "ap0", "ap2"], ["ap1"]]
    _assert_equal_separate_fits(maps, pts, (0.0, 0.0, 6.0, 4.0))


def test_build_signal_maps_empty_magnetic_set_gives_prior(monkeypatch):
    pts = [SurveyPoint(i, float(i), 1.0 + i, 1.0, 0.0, None, None, {"ap0": -50.0 - i})
           for i in range(3)]
    calls = _grouped_calls(monkeypatch)
    maps = build_signal_maps(pts, (0.0, 0.0, 4.0, 2.0))
    assert calls == [["mag"], ["ap0"]]
    gp = GpParams()
    assert np.all(maps["mag"].mu == gp.mean)
    assert np.all(maps["mag"].sigma == math.hypot(gp.sigma_f, gp.sigma_n))
    _assert_equal_separate_fits(maps, pts, (0.0, 0.0, 4.0, 2.0))


def test_build_signal_maps_same_points_other_order_are_separate_groups(monkeypatch):
    xy = [(1.0, 1.0), (2.5, 1.5), (3.0, 0.5)]
    log = [(0, "ap0"), (1, "ap0"), (2, "ap0"), (2, "ap1"), (1, "ap1"), (0, "ap1")]
    # one point per (position, source) reading, so the two sources visit the
    # same three positions in opposite orders and no magnetometer is read
    pts = [SurveyPoint(e, float(e), *xy[i], 0.0, None, None, {ap: -50.0 - 3 * i - e})
           for e, (i, ap) in enumerate(log)]
    calls = _grouped_calls(monkeypatch)
    maps = build_signal_maps(pts, (0.0, 0.0, 4.0, 2.0))
    assert calls == [["mag"], ["ap0"], ["ap1"]]
    _assert_equal_separate_fits(maps, pts, (0.0, 0.0, 4.0, 2.0))


# ------------------------------------------------------------------- e2e

def _short_log():
    fp = office_floorplan()
    sc = Scenario(
        waypoints=[(2.0, CORRIDOR_Y), (14.0, CORRIDOR_Y)],
        aps=default_aps()[:2],
        anomalies=np.array([[4.0, 14.5, 18.0, 1.5], [9.0, 14.8, -15.0, 1.2]]),
    )
    log, truth = simulate_scenario(sc, fp, seed=2)
    return log, truth, fp


def test_run_survey_modes_share_pf1():
    log, truth, fp = _short_log()
    full = run_survey(log, fp, seed=5, mode="full")
    only = run_survey(log, fp, seed=5, mode="pf1")
    # one generator drives both passes in order, so the first pass is
    # bit-identical whether or not a second pass follows
    assert np.array_equal(full.pf1.poses, only.pf1.poses)
    assert only.pf2 is None and only.closures is None
    assert full.pf2 is not None
    assert full.final is full.pf2 and only.final is only.pf1
    assert len(full.points) == len(log.steps) + 1
    assert np.allclose([p.x for p in full.points], full.pf2.poses[:, 0])
    rep = evaluate_trajectory(full.final.positions, full.final.rooms, truth, fp)
    assert rep.p90_error < 1.5
    assert rep.room_accuracy == 1.0


def test_run_survey_rejects_bad_input():
    log, _, fp = _short_log()
    with pytest.raises(ValueError, match="mode"):
        run_survey(log, fp, mode="pf3")
    empty = SurveyLog()
    empty.start_room = 16
    with pytest.raises(ValueError, match="no steps"):
        run_survey(empty, fp)
    nostart = SurveyLog(steps=log.steps)
    with pytest.raises(ValueError, match="start"):
        run_survey(nostart, fp)
