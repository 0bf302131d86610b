import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey import fileio
from floorsurvey.geometry import Floorplan, Room, parse_floorplan, records
from floorsurvey.loopclosure import RejectedMatch, StepLoopClosure
from floorsurvey.pipeline import EvalReport, SurveyPoint
from floorsurvey.sensors import (
    MagSample,
    Pose2D,
    StepEvent,
    SurveyLog,
    WifiObservation,
    parse_survey_log,
)
from floorsurvey.signalmap import SignalMap
from floorsurvey.simulate import office_floorplan, parse_scenario


def test_fmt_six_decimals():
    assert fileio.fmt(1.0) == "1.000000"
    assert fileio.fmt(-0.1234567) == "-0.123457"
    assert fileio.fmt(float("nan")) == "nan"


def test_trajectory_roundtrip(tmp_path):
    f = tmp_path / "traj.csv"
    times = np.array([0.0, 0.5, 1.0])
    poses = np.array([[1.234567891, 2.0, 0.1], [2.0, 3.0, -0.2], [3.0, 4.0, 3.1]])
    fileio.write_trajectory(f, times, poses)
    rt, rp = fileio.read_trajectory(f)
    assert np.allclose(rt, times, atol=1e-6)
    assert np.allclose(rp, poses, atol=1e-6)
    # 6-decimal quantisation is the only loss
    assert rp[0, 0] == 1.234568


def test_trajectory_read_errors(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("# header\n0,0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        fileio.read_trajectory(f)
    f.write_text("0,0.0,1.0,x,0.0\n")
    with pytest.raises(ValueError, match="line 1"):
        fileio.read_trajectory(f)
    for bad in ("nan", "inf", "-inf"):
        f.write_text(f"0,0.0,1.0,2.0,0.0\n1,0.5,{bad},2.0,0.0\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            fileio.read_trajectory(f)
    for epoch in ("abc", "1.5", ""):
        f.write_text(f"0,0.0,1.0,2.0,0.0\n{epoch},0.5,1.0,2.0,0.0\n")
        with pytest.raises(ValueError, match="line 2: invalid literal for int"):
            fileio.read_trajectory(f)


@pytest.mark.parametrize("rows, match", [
    (["0,0.0", "5,0.5"], "line 3: epoch 5 where epoch 1 was due"),
    (["0,0.0", "1,0.5", "1,0.5"], "line 4: epoch 1 where epoch 2 was due"),
    (["1,0.0"], "line 2: epoch 1 where epoch 0 was due"),
    (["0,0.0", "2,0.5", "1,0.25"], "line 3: epoch 2 where epoch 1 was due"),
    (["0,0.0", "1,0.5", "2,0.25"], "line 4: time 0.25 is before the previous row's 0.5"),
    (["0,1.0", "1,-1.0"], "line 3: time -1.0 is before"),
])
def test_trajectory_rows_must_run_in_epoch_and_time_order(tmp_path, rows, match):
    f = tmp_path / "bad.csv"
    f.write_text("# epoch,t,x,y,theta\n" + "".join(f"{r},1.0,2.0,0.0\n" for r in rows))
    with pytest.raises(ValueError, match=match):
        fileio.read_trajectory(f)


def test_trajectory_times_may_repeat(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,0.5,1.0,2.0,0.0\n# comment\n\n1,0.5,1.5,2.0,0.0\n")
    times, poses = fileio.read_trajectory(f)
    assert times.tolist() == [0.5, 0.5] and poses.shape == (2, 3)


def _six_decimals(values) -> list[float]:
    """Values as the six-decimal writers leave them."""
    return [float(fileio.fmt(v)) for v in values]


_coordinate = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trajectory_write_read_roundtrip(tmp_path_factory, data):
    n = data.draw(st.integers(0, 30))
    times = np.sort(_six_decimals(data.draw(st.lists(st.floats(0.0, 1e5), min_size=n, max_size=n))))
    poses = np.array(_six_decimals(data.draw(st.lists(_coordinate, min_size=3 * n, max_size=3 * n))))
    poses = poses.reshape(n, 3)
    f = tmp_path_factory.mktemp("traj") / "t.traj"
    fileio.write_trajectory(f, times, poses)
    rt, rp = fileio.read_trajectory(f)
    assert np.array_equal(rt, times) and np.array_equal(rp, poses)
    assert rt.shape == (n,) and rp.shape == (n, 3)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)), max_size=40))
def test_closures_write_read_roundtrip(tmp_path_factory, pairs):
    closures = [StepLoopClosure(a, a + gap) for a, gap in pairs]
    f = tmp_path_factory.mktemp("lc") / "c.lc"
    fileio.write_closures(f, closures)
    assert fileio.read_closures(f) == closures


@settings(max_examples=60, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=60))
def test_straight_flags_write_read_roundtrip(tmp_path_factory, flags):
    # no library reader: the file's rows are read back with the shared
    # line reader, and must be step_index,0|1 in step order
    f = tmp_path_factory.mktemp("str") / "s.str"
    fileio.write_straight_flags(f, np.array(flags, dtype=bool))
    rows = [parts for _, parts in records(f.read_text())]
    assert [int(i) for i, _ in rows] == list(range(len(flags)))
    assert all(v in ("0", "1") for _, v in rows)
    assert np.array_equal(np.array([v == "1" for _, v in rows], dtype=bool),
                          np.array(flags, dtype=bool))


_name = st.text("abcXYZ019_-.", min_size=1, max_size=8)


def _floats(data, n, lo=-1e6, hi=1e6) -> list[float]:
    return _six_decimals(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_floorplan_write_read_roundtrip(tmp_path_factory, data):
    walls = np.array(_floats(data, 4 * data.draw(st.integers(0, 12)))).reshape(-1, 4)
    rooms = []
    for room_id in range(data.draw(st.integers(0, 6))):
        # rectangles at floorplan scale: the plan's degenerate-edge test
        # is relative to the coordinates' size
        x0, y0 = _floats(data, 2, -1e3, 1e3)
        x1, y1 = _six_decimals(np.array([x0, y0]) + _floats(data, 2, 1.0, 100.0))
        rooms.append(Room(room_id, data.draw(_name), [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]))
    fp = Floorplan(walls, rooms)
    f = tmp_path_factory.mktemp("plan") / "p.plan"
    fileio.write_floorplan(f, fp)
    back = parse_floorplan(f.read_text())
    assert np.array_equal(back.walls, walls)
    assert [(r.room_id, r.name) for r in back.rooms] == [(r.room_id, r.name) for r in rooms]
    assert all(np.array_equal(a.vertices, b.vertices) for a, b in zip(back.rooms, rooms))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_survey_log_write_read_roundtrip(tmp_path_factory, data):
    def times(n):
        return sorted(_floats(data, n, 0.0, 1e4))

    n_steps, n_mags, n_wifi = (data.draw(st.integers(0, 20)) for _ in range(3))
    log = SurveyLog(
        steps=[StepEvent(t, *_floats(data, 1, 0.01, 5.0), *_floats(data, 1, -3.2, 3.2))
               for t in times(n_steps)],
        mags=[MagSample(t, tuple(_floats(data, 3, -1e3, 1e3))) for t in times(n_mags)],
        wifi=[WifiObservation(t, data.draw(_name), *_floats(data, 1, -120.0, 0.0))
              for t in times(n_wifi)],
    )
    start = data.draw(st.sampled_from(["none", "room", "pose"]))
    if start == "room":
        log.start_room = data.draw(st.integers(0, 1000))
    elif start == "pose":
        log.start_pose = Pose2D(*_floats(data, 2), *_floats(data, 1, -3.0, 3.0))
    f = tmp_path_factory.mktemp("log") / "s.log"
    fileio.write_survey_log(f, log)
    back = parse_survey_log(f.read_text())
    assert (back.steps, back.mags, back.wifi) == (log.steps, log.mags, log.wifi)
    assert back.start_room == log.start_room
    assert (back.start_pose is None) == (log.start_pose is None)
    if log.start_pose is not None:
        # Pose2D wraps theta, which may move it by an ulp
        assert np.allclose([back.start_pose.x, back.start_pose.y, back.start_pose.theta],
                           [log.start_pose.x, log.start_pose.y, log.start_pose.theta],
                           rtol=0.0, atol=1e-6)
    # a second write of what was read gives the same bytes
    g = f.with_name("again.log")
    fileio.write_survey_log(g, back)
    assert g.read_bytes() == f.read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_survey_points_write_read_roundtrip(tmp_path_factory, data):
    points = []
    for epoch in sorted(data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=15))):
        room = data.draw(st.none() | st.integers(0, 100))
        mag = _floats(data, 1, 0.0, fileio.MAX_MAG)[0] if data.draw(st.booleans()) else None
        wifi = {ap: _floats(data, 1, -120.0, 0.0)[0]
                for ap in data.draw(st.lists(_name, unique=True, max_size=4))}
        points.append(SurveyPoint(epoch, *_floats(data, 4), room, mag, wifi))
    f = tmp_path_factory.mktemp("spt") / "p.spt"
    fileio.write_survey_points(f, points)
    assert fileio.read_survey_points(f) == points


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_signal_map_write_read_roundtrip(tmp_path_factory, data):
    nx, ny = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    sm = SignalMap(data.draw(_name), *_floats(data, 2), *_floats(data, 1, 0.01, 10.0), nx, ny,
                   _floats(data, nx * ny, -120.0, 100.0), _floats(data, nx * ny, 0.001, 50.0))
    f = tmp_path_factory.mktemp("map") / "m.map"
    fileio.write_signal_map(f, sm)
    back = fileio.read_signal_map(f)
    assert (back.ap_id, back.x0, back.y0, back.cell, back.nx, back.ny) == \
        (sm.ap_id, sm.x0, sm.y0, sm.cell, sm.nx, sm.ny)
    assert np.array_equal(back.mu, sm.mu) and np.array_equal(back.sigma, sm.sigma)


_SCENARIO = "waypoint,0,0\nwaypoint,1,0\n"
_MAP = "source,a{a}\ngrid,0,0,1.0,1,1{b}\ncell,0,0,-50.0,1.0{c}\n"
_POINTS = "point,0,0.0,1.0,2.0,0.5,3,nan{a}\nsig,0,ap0,-50.0{b}\n"
_READERS = {
    "floorplan": parse_floorplan,
    "log": parse_survey_log,
    "scenario": parse_scenario,
    "trajectory": fileio.read_trajectory,
    "closures": fileio.read_closures,
    "map": fileio.read_signal_map,
    "points": fileio.read_survey_points,
}


# one {a} marks the record that gets a trailing field
@pytest.mark.parametrize("reader, text", [
    ("floorplan", "wall,0,0,1,0\n# walls\nwall,0,0,0,1{a}\nroom,0,a,0,0,1,0,1,1\n"),
    ("log", "step,0.5,0.75,0.0{a}\n"),
    ("log", "# log\nmag,0.5,50.0,0.0,0.0{a}\n"),
    ("log", "wifi,0.5,ap0,-60.0{a}\n"),
    ("log", "start,1.0,2.0,0.5{a}\n"),
    ("log", "start,3{a}\n"),
    ("scenario", "waypoint,0,0\nwaypoint,1,0{a}\n"),
    ("scenario", _SCENARIO + "ap,1,2,-40,2.5{a}\n"),
    ("scenario", _SCENARIO + "anomaly,1,2,10,1.5{a}\n"),
    ("scenario", _SCENARIO + "starthint,room{a}\n"),
    *(("scenario", _SCENARIO + f"{name},1.0{{a}}\n")
      for name in ("speed", "step_length", "theta_sigma", "len_sigma", "background",
                   "mag_sigma", "mag_rate", "shadow_sigma", "scan_period", "bias_deg_per_min")),
    ("trajectory", "# epoch,t,x,y,theta\n0,0.0,1.0,2.0,0.0\n1,0.5,1.0,2.0,0.0{a}\n"),
    ("closures", "1,2\n3,4{a}\n"),
    ("map", _MAP.format(a="{a}", b="", c="")),
    ("map", _MAP.format(a="", b="{a}", c="")),
    ("map", _MAP.format(a="", b="", c="{a}")),
    ("points", _POINTS.format(a="{a}", b="")),
    ("points", _POINTS.format(a="", b="{a}")),
])
def test_readers_reject_one_trailing_field(tmp_path, reader, text):
    def read(text):
        if reader in ("floorplan", "log", "scenario"):
            return _READERS[reader](text)
        f = tmp_path / "in.txt"
        f.write_text(text)
        return _READERS[reader](f)

    read(text.format(a=""))
    lineno = next(i for i, ln in enumerate(text.splitlines(), start=1) if "{a}" in ln)
    with pytest.raises(ValueError, match=f"^line {lineno}: expected "):
        read(text.format(a=",9"))


def test_empty_trajectory_roundtrip(tmp_path):
    f = tmp_path / "empty.csv"
    fileio.write_trajectory(f, np.zeros(0), np.zeros((0, 3)))
    rt, rp = fileio.read_trajectory(f)
    assert rt.shape == (0,) and rp.shape == (0, 3)


def test_flags_roundtrip(tmp_path):
    f = tmp_path / "flags.csv"
    flags = np.array([True, False, True, True])
    fileio.write_straight_flags(f, flags)
    assert f.read_text() == "# step_index,straight\n0,1\n1,0\n2,1\n3,1\n"


def test_closures_roundtrip(tmp_path):
    f = tmp_path / "closures.csv"
    cl = [StepLoopClosure(2, 9), StepLoopClosure(4, 7)]
    fileio.write_closures(f, cl)
    assert fileio.read_closures(f) == cl
    f.write_text("1,notanint\n")
    with pytest.raises(ValueError, match="line 1"):
        fileio.read_closures(f)
    for bad in ("1,2,99", "3"):
        f.write_text(f"# epoch_a,epoch_b\n1,2\n{bad}\n")
        with pytest.raises(ValueError, match="line 3: expected epoch_a,epoch_b"):
            fileio.read_closures(f)


def test_rejected_roundtrip(tmp_path):
    f = tmp_path / "rej.csv"
    rej = [RejectedMatch(1, 5, "ratio"), RejectedMatch(2, 6, "min_length")]
    fileio.write_rejected(f, rej)
    assert f.read_text() == "# epoch_a,epoch_b,reason\n1,5,ratio\n2,6,min_length\n"


def test_signal_map_roundtrip(tmp_path):
    f = tmp_path / "map.csv"
    rng = np.random.default_rng(0)
    sm = SignalMap("ap3", 1.0, 2.0, 0.5, 4, 3,
                   rng.uniform(-80, -40, 12), rng.uniform(0.5, 6, 12))
    fileio.write_signal_map(f, sm)
    back = fileio.read_signal_map(f)
    assert back.ap_id == "ap3"
    assert (back.x0, back.y0, back.cell, back.nx, back.ny) == (1.0, 2.0, 0.5, 4, 3)
    assert np.allclose(back.mu, sm.mu, atol=1e-6)
    assert np.allclose(back.sigma, sm.sigma, atol=1e-6)


def test_signal_map_rejects_repeated_cell(tmp_path):
    f = tmp_path / "m.map"
    f.write_text("source,a\ngrid,0,0,1.0,2,1\ncell,0,0,-50.0,2.0\ncell,0,0,-70.0,2.0\n"
                 "cell,1,0,-60.0,2.0\n")
    with pytest.raises(ValueError, match=r"line 4: cell \(0, 0\) repeats"):
        fileio.read_signal_map(f)


def test_signal_map_rejects_repeated_source_or_grid(tmp_path):
    f = tmp_path / "m.map"
    for text, match in (("source,a\ngrid,0,0,1.0,1,1\nsource,b\n", "line 3: source row repeats"),
                        ("source,a\ngrid,0,0,1.0,1,1\ngrid,0,0,1.0,1,1\n",
                         "line 3: grid row repeats")):
        f.write_text(text + "cell,0,0,-50.0,1.0\n")
        with pytest.raises(ValueError, match=match):
            fileio.read_signal_map(f)


@pytest.mark.parametrize("nx, ny", [(2 ** 20, 2 ** 20), (2 ** 62, 2 ** 62)])
def test_signal_map_with_a_huge_grid_row_reads_as_uncovered(tmp_path, nx, ny):
    # 2^40 cells or more: nothing is allocated from the grid row before
    # the cell rows are counted
    f = tmp_path / "m.map"
    f.write_text(f"source,a\ngrid,0,0,1.0,{nx},{ny}\ncell,0,0,-50.0,1.0\n")
    with pytest.raises(ValueError, match="does not cover every cell"):
        fileio.read_signal_map(f)


def test_signal_map_read_errors(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("source,a\ncell,0,0,1.0,1.0\n")
    with pytest.raises(ValueError, match="before grid"):
        fileio.read_signal_map(f)
    f.write_text("source,a\ngrid,0,0,1.0,2,1\ncell,0,0,-50.0,1.0\n")
    with pytest.raises(ValueError, match="every cell"):
        fileio.read_signal_map(f)
    f.write_text("grid,0,0,1.0,1,1\ncell,0,0,-50.0,1.0\n")
    with pytest.raises(ValueError, match="source"):
        fileio.read_signal_map(f)
    # non-finite grid origin and cell size, mu and sigma
    for grid, cell in (("nan,0,1.0", "-50.0,1.0"), ("0,0,inf", "-50.0,1.0"),
                       ("0,0,1.0", "nan,1.0"), ("0,0,1.0", "-50.0,inf")):
        f.write_text(f"source,a\ngrid,{grid},1,1\ncell,0,0,{cell}\n")
        with pytest.raises(ValueError, match="non-finite"):
            fileio.read_signal_map(f)
    # a cell outside the grid, a sigma that is not positive, an empty grid
    # and a pitch that is not positive
    for grid, cell, match in (("0,0,1.0,2,1", "-1,0,-50.0,1.0", "outside"),
                              ("0,0,1.0,2,1", "2,0,-50.0,1.0", "outside"),
                              ("0,0,1.0,2,1", "0,1,-50.0,1.0", "outside"),
                              ("0,0,1.0,2,1", "0,0,-50.0,0.0", "sigma"),
                              ("0,0,1.0,2,1", "0,0,-50.0,-1.0", "sigma"),
                              ("0,0,0.0,2,1", "0,0,-50.0,1.0", "pitch"),
                              ("0,0,-1.0,2,1", "0,0,-50.0,1.0", "pitch"),
                              ("0,0,1.0,0,1", "0,0,-50.0,1.0", "empty"),
                              ("0,0,1.0,2,-1", "0,0,-50.0,1.0", "empty")):
        f.write_text(f"source,a\n# map\ngrid,{grid}\ncell,1,0,-50.0,1.0\ncell,{cell}\n")
        line = 5 if match in ("outside", "sigma") else 3
        with pytest.raises(ValueError, match=f"line {line}: .*{match}"):
            fileio.read_signal_map(f)


def test_signal_map_cell_order_irrelevant(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("source,a\ngrid,0,0,1.0,2,1\n"
                 "cell,1,0,-60.0,2.0\ncell,0,0,-50.0,1.0\n")
    back = fileio.read_signal_map(f)
    assert np.allclose(back.mu, [-50.0, -60.0])


def test_survey_points_roundtrip(tmp_path):
    f = tmp_path / "points.csv"
    pts = [
        SurveyPoint(0, 0.0, 1.0, 2.0, 0.5, 3, 51.25, {"ap0": -50.0, "ap1": -61.5}),
        SurveyPoint(1, 0.5, 1.5, 2.5, 0.5, None, None, {}),
    ]
    fileio.write_survey_points(f, pts)
    back = fileio.read_survey_points(f)
    assert len(back) == 2
    assert back[0].room == 3 and back[0].mag == 51.25
    assert back[0].wifi == pts[0].wifi
    assert back[1].room is None and back[1].mag is None and back[1].wifi == {}
    f.write_text("sig,0,ap0,-50.0\n")
    with pytest.raises(ValueError, match="before its point"):
        fileio.read_survey_points(f)
    # only the mag column may be nan, meaning no magnetometer samples
    for point, sig in (("0.0,nan,2.0,0.5,3,nan", "-50.0"), ("0.0,1.0,2.0,0.5,3,inf", "-50.0"),
                       ("0.0,1.0,2.0,0.5,3,nan", "nan")):
        f.write_text(f"point,0,{point}\nsig,0,ap0,{sig}\n")
        with pytest.raises(ValueError, match="non-finite"):
            fileio.read_survey_points(f)


def test_survey_points_bound_mag_and_rssi(tmp_path):
    # a mag of 1e300 used to fit a map of 300-digit mu values, and a sig
    # of 55 dBm was taken as a reading
    f = tmp_path / "points.csv"
    ok = "point,0,0.0,1.0,2.0,0.5,3,{mag}\nsig,0,ap0,{rssi}\n"
    f.write_text(ok.format(mag="17320.508076", rssi="-120.0"))
    assert fileio.read_survey_points(f)[0].mag == fileio.MAX_MAG == 17320.508076
    f.write_text(ok.format(mag="0.0", rssi="0.0"))
    assert fileio.read_survey_points(f)[0].wifi == {"ap0": 0.0}
    for mag, rssi, match in (("1e300", "-50.0", "line 1: mag 1e+300 outside"),
                             ("17320.508077", "-50.0", "line 1: mag 17320.508077 outside"),
                             ("-0.5", "-50.0", "line 1: mag -0.5 outside"),
                             ("50.0", "55.0", "line 2: rssi 55.0 outside [-120, 0] dBm"),
                             ("50.0", "-120.5", "line 2: rssi -120.5 outside")):
        f.write_text(ok.format(mag=mag, rssi=rssi))
        with pytest.raises(ValueError, match=re.escape(match)):
            fileio.read_survey_points(f)


def test_signal_map_bounds_the_grid_far_corner(tmp_path):
    # a pitch of 1e308 put every fix at inf, and position exited 0
    f = tmp_path / "m.map"
    for pitch, match in (("1e308", "non-finite number in inf,1e+308"),
                         ("1e150", "coordinate above 1e+150 in magnitude in 2e+150,1e+150")):
        f.write_text(f"source,ap0\ngrid,0,0,{pitch},2,1\ncell,0,0,-50.0,1.0\ncell,1,0,-60.0,1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"line 2: {match}")):
            fileio.read_signal_map(f)
    f.write_text("source,ap0\ngrid,-1e150,0,1e150,2,1\ncell,0,0,-50.0,1.0\ncell,1,0,-60.0,1.0\n")
    assert fileio.read_signal_map(f).cell == 1e150


def test_survey_points_reject_repeated_epoch_and_source(tmp_path):
    f = tmp_path / "points.csv"
    point = "0.0,1.0,2.0,0.5,3,nan"
    # a second point row for epoch 0 would drop the first one's sig rows
    f.write_text(f"point,0,{point}\nsig,0,ap0,-50.0\npoint,1,{point}\npoint,0,{point}\n")
    with pytest.raises(ValueError, match="line 4: point epoch 0 repeats"):
        fileio.read_survey_points(f)
    f.write_text(f"point,0,{point}\nsig,0,ap0,-50.0\nsig,0,ap1,-60.0\nsig,0,ap0,-70.0\n")
    with pytest.raises(ValueError, match="line 4: source 'ap0' repeats at epoch 0"):
        fileio.read_survey_points(f)
    # one source at two epochs is fine
    f.write_text(f"point,0,{point}\nsig,0,ap0,-50.0\npoint,1,{point}\nsig,1,ap0,-70.0\n")
    assert [p.wifi for p in fileio.read_survey_points(f)] == [{"ap0": -50.0}, {"ap0": -70.0}]


def test_positions_format(tmp_path):
    f = tmp_path / "pos.csv"
    fileio.write_positions(f, [(1.0, 2.0, 3.0, -4.5)])
    lines = f.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "1.000000,2.000000,3.000000,-4.500000"


def test_floorplan_roundtrip(tmp_path):
    f = tmp_path / "plan.csv"
    fp = office_floorplan()
    fileio.write_floorplan(f, fp)
    back = parse_floorplan(f.read_text())
    assert np.allclose(back.walls, fp.walls, atol=1e-6)
    assert len(back.rooms) == len(fp.rooms)
    for a, b in zip(back.rooms, fp.rooms):
        assert a.room_id == b.room_id and a.name == b.name
        assert np.allclose(a.vertices, b.vertices, atol=1e-6)


def test_survey_log_roundtrip(tmp_path):
    f = tmp_path / "log.csv"
    log = SurveyLog(
        steps=[StepEvent(0.6, 0.75, 0.01), StepEvent(1.2, 0.74, -0.02)],
        mags=[MagSample(0.55, (50.0, 0.0, 0.0)), MagSample(0.6, (51.0, 1.0, -1.0))],
        wifi=[WifiObservation(0.6, "ap0", -55.0)],
    )
    log.start_pose = Pose2D(1.0, 2.0, 0.5)
    fileio.write_survey_log(f, log)
    back = parse_survey_log(f.read_text())
    assert len(back.steps) == 2 and len(back.mags) == 2 and len(back.wifi) == 1
    assert math.isclose(back.steps[0].length, 0.75, abs_tol=1e-6)
    assert math.isclose(back.mags[1].b[2], -1.0, abs_tol=1e-6)
    assert back.wifi[0].ap_id == "ap0"
    assert back.start_pose is not None
    assert math.isclose(back.start_pose.theta, 0.5, abs_tol=1e-6)
    # records interleave by time with steps before coincident samples
    tags = [ln.split(",")[0] for ln in f.read_text().splitlines()[2:]]
    assert tags == ["mag", "step", "mag", "wifi", "step"]


def test_survey_log_roundtrip_room_start(tmp_path):
    f = tmp_path / "log2.csv"
    log = SurveyLog(steps=[StepEvent(0.5, 0.75, 0.0)])
    log.start_room = 7
    fileio.write_survey_log(f, log)
    back = parse_survey_log(f.read_text())
    assert back.start_room == 7 and back.start_pose is None


def test_eval_report_write(tmp_path):
    f = tmp_path / "eval.csv"
    rep = EvalReport(5, 1.0, 0.9, 1.6, 2.0, 0.4, 0.8, 1)
    fileio.write_eval_report(f, rep)
    text = f.read_text()
    assert "epochs,5" in text
    assert "p90_error,1.600000" in text
    assert "room_accuracy,0.800000" in text
    assert "room_mismatches,1" in text
    rep2 = EvalReport(5, 1.0, 0.9, 1.6, 2.0, 0.4, None, None)
    fileio.write_eval_report(f, rep2)
    assert "room_accuracy" not in f.read_text()


def test_overlap_write(tmp_path):
    f = tmp_path / "cmp.csv"
    sm = SignalMap("a", 0, 0, 1.0, 2, 1, np.zeros(2), np.ones(2))
    fileio.write_overlap(f, sm, np.array([0.25, 0.75]), 0.5)
    text = f.read_text()
    assert "median,0.500000" in text
    assert "cell,0,0,0.250000" in text
    assert "cell,1,0,0.750000" in text
