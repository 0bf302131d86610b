import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey import fileio
from floorsurvey.cli import main
from floorsurvey.filtering import FilterLostError
from floorsurvey.geometry import containing_room, load_floorplan
from floorsurvey.pipeline import evaluate_trajectory
from floorsurvey.sensors import LogError, PdrTrajectory, parse_survey_log
from floorsurvey.signalmap import SignalMap
from floorsurvey.simulate import corridor_scenario, office_floorplan, simulate_scenario

ROOT = Path(__file__).resolve().parents[1]

SCENARIO = """\
waypoint, 2.0, 14.625
waypoint, 14.0, 14.625
ap, 5.0, 5.0, -40.0, 2.5
ap, 25.0, 15.0, -40.0, 2.5
anomaly, 4.0, 14.5, 18.0, 1.5
anomaly, 9.0, 14.8, -15.0, 1.2
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One simulated walk pushed through the whole command chain."""
    root = tmp_path_factory.mktemp("cli")
    scen = root / "walk.scen"
    scen.write_text(SCENARIO)
    sim = root / "sim"
    assert main(["simulate", "--scenario", str(scen), "--out", str(sim),
                 "--seed", "2"]) == 0
    srv = root / "srv"
    assert main(["survey", "--log", str(sim / "log.txt"),
                 "--floorplan", str(sim / "floorplan.txt"),
                 "--out", str(srv), "--seed", "5"]) == 0
    maps = root / "maps"
    assert main(["map", "--points", str(srv / "points.spt"),
                 "--out", str(maps)]) == 0
    return {"root": root, "scen": scen, "sim": sim, "srv": srv, "maps": maps}


def test_simulate_outputs(ws):
    sim = ws["sim"]
    for name in ("floorplan.txt", "log.txt", "truth.traj"):
        assert (sim / name).exists()
    times, poses = fileio.read_trajectory(sim / "truth.traj")
    assert len(times) == 17  # 12 m at 0.75 m strides, plus the start epoch


def test_survey_outputs(ws):
    srv = ws["srv"]
    for name in ("pf1.traj", "pf2.traj", "straight.str", "closures.lc",
                 "rejected.lcrej", "points.spt"):
        assert (srv / name).exists()
    _, pf2 = fileio.read_trajectory(srv / "pf2.traj")
    truth_t, truth = fileio.read_trajectory(ws["sim"] / "truth.traj")
    assert len(pf2) == len(truth)
    err = np.hypot(*(pf2[:, :2] - truth[:, :2]).T)
    assert np.percentile(err, 90) < 1.5


def test_pf1_command(ws, tmp_path):
    out = tmp_path / "pf1"
    assert main(["pf1", "--log", str(ws["sim"] / "log.txt"),
                 "--out", str(out), "--seed", "5"]) == 0
    assert (out / "pf1.traj").exists() and (out / "points.spt").exists()


def test_straight_command_and_config_override(ws, tmp_path, capsys):
    log = str(ws["sim"] / "log.txt")
    steps = parse_survey_log((ws["sim"] / "log.txt").read_text()).steps
    f1 = tmp_path / "a.str"
    assert main(["straight", "--log", log, "--out", str(f1)]) == 0
    rows = f1.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [str(i) for i in range(len(steps))]
    flags = [r.split(",")[1] for r in rows]
    assert set(flags) <= {"0", "1"} and "1" in flags
    f2 = tmp_path / "b.str"
    assert main(["straight", "--log", log, "--out", str(f2),
                 "--config", "straight.min_run=50"]) == 0
    assert f2.read_text().splitlines()[1:] == [f"{i},0" for i in range(len(steps))]


def test_loops_command(ws, tmp_path):
    out = tmp_path / "loops"
    assert main(["loops", "--log", str(ws["sim"] / "log.txt"),
                 "--out", str(out), "--seed", "5"]) == 0
    assert (out / "closures.lc").exists() and (out / "rejected.lcrej").exists()


def test_map_outputs(ws):
    maps = ws["maps"]
    names = sorted(p.name for p in maps.iterdir())
    assert names == ["map_ap0.map", "map_ap1.map", "map_mag.map"]
    sm = fileio.read_signal_map(maps / "map_ap0.map")
    assert sm.nx * sm.ny == len(sm.mu)


def test_compare_command(ws, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    a = str(ws["maps"] / "map_ap0.map")
    assert main(["compare", "--map-a", a, "--map-b", a, "--out", str(out)]) == 0
    assert "median,1.000000" in capsys.readouterr().out
    assert "median,1.000000" in out.read_text()


def test_position_command(ws, tmp_path, capsys):
    out = tmp_path / "pos.csv"
    assert main(["position", "--map", str(ws["maps"] / "map_ap0.map"),
                 "--map", str(ws["maps"] / "map_ap1.map"),
                 "--log", str(ws["sim"] / "log.txt"), "--out", str(out)]) == 0
    n = int(capsys.readouterr().out.split("fixes,")[1].split()[0])
    assert n > 0
    assert len(out.read_text().splitlines()) == n + 1


def test_position_rejects_maps_on_different_grids(tmp_path, capsys):
    # two 2 x 1 maps of pitch 1.0 and 0.5 share no cell centres
    for name, cell in (("a", 1.0), ("b", 0.5)):
        (tmp_path / f"{name}.map").write_text(
            f"source,ap{name}\ngrid,0,0,{cell},2,1\ncell,0,0,-50.0,2.0\ncell,1,0,-60.0,2.0\n")
    log = tmp_path / "log.txt"
    log.write_text("wifi,0.0,apa,-50.0\nwifi,0.0,apb,-55.0\nwifi,1.0,apa,-60.0\n"
                   "wifi,2.0,apz,-60.0\n")
    a, b, out = str(tmp_path / "a.map"), str(tmp_path / "b.map"), tmp_path / "pos.csv"
    assert main(["position", "--map", a, "--map", b, "--log", str(log),
                 "--out", str(out)]) == 2
    assert f"{b}: map is not on the grid of {a}" in capsys.readouterr().err
    assert not out.exists()
    # on one grid, only the scan that hears none of the maps' sources is skipped
    assert main(["position", "--map", a, "--log", str(log), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "fixes,2\n"
    assert [line.split(",")[1:3] for line in out.read_text().splitlines()[1:]] == \
        [["0.500000", "0.500000"], ["1.500000", "0.500000"]]


def test_position_averages_mag_samples_within_half_a_second(tmp_path, capsys):
    # mag records out of time order; samples at exactly +-0.5 s count and
    # samples just beyond, or at the +-1 s edge of the searched window, do not
    m = SignalMap("mag", 0.0, 0.0, 1.0, 4, 1, np.array([40.0, 45.0, 50.0, 55.0]), np.ones(4))
    fileio.write_signal_map(tmp_path / "mag.map", m)
    mags = [(10.5000001, 100.0), (21.0, 0.001), (10.5, 55.0), (19.5, 55.0), (9.49, 100.0),
            (10.0, 40.0), (20.5, 55.0), (9.5, 40.0), (19.0, 0.001)]
    log = tmp_path / "log.txt"
    log.write_text("".join(f"mag,{t},{v},0,0\n" for t, v in mags)
                   + "wifi,20.0,apx,-50.0\nwifi,10.0,apx,-50.0\n")
    out = tmp_path / "pos.csv"
    assert main(["position", "--map", str(tmp_path / "mag.map"), "--log", str(log),
                 "--out", str(out)]) == 0
    # means 45 and 55 hit cells 1 and 3 exactly: ll = -log(2 pi) / 2
    assert out.read_text().splitlines()[1:] == ["10.000000,1.500000,0.500000,-0.918939",
                                                "20.000000,3.500000,0.500000,-0.918939"]


def test_position_output_does_not_depend_on_blas_threads(tmp_path):
    # three 80 x 50 maps: the screening product is large enough for
    # OpenBLAS to split it over two threads
    rng = np.random.default_rng(8)
    nx, ny = 80, 50
    grid = SignalMap("", 0.0, 0.0, 0.5, nx, ny, np.zeros(nx * ny), np.zeros(nx * ny))
    cmd = [sys.executable, "-c", "import sys; from floorsurvey.cli import main; sys.exit(main())",
           "position", "--log", str(tmp_path / "log.txt")]
    maps = []
    for i in range(3):
        d = np.hypot(*(grid.centers - rng.uniform([0, 0], [40, 25])).T)
        m = SignalMap(f"ap{i}", 0.0, 0.0, 0.5, nx, ny, -40.0 - 20.0 * np.log10(d + 1.0),
                      rng.uniform(3.0, 6.0, nx * ny))
        fileio.write_signal_map(tmp_path / f"ap{i}.map", m)
        cmd += ["--map", str(tmp_path / f"ap{i}.map")]
        maps.append(m)
    lines = []
    for k in range(300):
        c = rng.integers(nx * ny)
        lines += [f"wifi,{k * 0.5:.6f},{m.ap_id},{m.mu[c] + rng.normal(0.0, 4.0):.6f}"
                  for m in maps if rng.random() < 0.8]
    (tmp_path / "log.txt").write_text("\n".join(lines) + "\n")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"pos{threads}.csv"
        done = subprocess.run(cmd + ["--out", str(out)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith("fixes,")


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_blas_threads(**extra):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return dict(env, PYTHONPATH=str(ROOT / "src"), **extra)


def test_console_entry_defaults_blas_to_one_thread():
    # the entry module loads no numpy, and sets each count the
    # environment leaves unset before cli (and so numpy) loads
    code = ("import os, sys; import floorsurvey.__main__ as entry; "
            "assert 'numpy' not in sys.modules; entry.main([]); assert 'numpy' in sys.modules; "
            f"print(*(os.environ.get(v) for v in {BLAS_THREADS!r}))")
    for extra, want in (({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
                        ({"OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "4"}, ["1", "2", "4"])):
        done = subprocess.run([sys.executable, "-c", code], env=_env_without_blas_threads(**extra),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == want
    done = subprocess.run([sys.executable, "-m", "floorsurvey"], env=_env_without_blas_threads(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stderr.startswith("usage: floorsurvey")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS runs one thread anyway")
def test_map_output_with_blas_threads_unset_equals_one_thread(tmp_path):
    # the 1,500-point reference survey of the four-lap corridor walk
    from floorsurvey.pipeline import SurveyPoint
    from floorsurvey.simulate import grid_survey

    pts, mag, wifi = grid_survey(corridor_scenario(repeats=4), office_floorplan(), seed=12345)
    fileio.write_survey_points(tmp_path / "points.spt", [
        SurveyPoint(i, float(i), float(p[0]), float(p[1]), 0.0, None, float(mag[i]),
                    {ap: float(v[i]) for ap, v in sorted(wifi.items())}) for i, p in enumerate(pts)])
    outputs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"maps{len(outputs)}"
        done = subprocess.run([sys.executable, "-m", "floorsurvey", "map", "--points",
                               str(tmp_path / "points.spt"), "--out", str(out)],
                              env=_env_without_blas_threads(**extra), capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == 7


def test_floorplan_with_a_degenerate_edge_exits_2(tmp_path, capsys):
    plan = tmp_path / "repeated.plan"
    plan.write_text("wall,0,0,1,0\nroom,0,r,0,0,1,0,1,0,1,1,0,1\n")
    assert main(["plot", "--floorplan", str(plan), "--out", str(tmp_path / "scene.svg")]) == 2
    assert "error: room 0 has a degenerate edge" in capsys.readouterr().err


def test_eval_command(ws, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    assert main(["eval", "--traj", str(ws["srv"] / "pf2.traj"),
                 "--truth", str(ws["sim"] / "truth.traj"),
                 "--floorplan", str(ws["sim"] / "floorplan.txt"),
                 "--out", str(out)]) == 0
    fp = load_floorplan(ws["sim"] / "floorplan.txt")
    _, est = fileio.read_trajectory(ws["srv"] / "pf2.traj")
    truth_t, truth = fileio.read_trajectory(ws["sim"] / "truth.traj")
    rooms = [containing_room(fp, p) for p in est[:, :2]]
    want = evaluate_trajectory(est[:, :2], rooms, PdrTrajectory(truth, truth_t), fp)
    lines = out.read_text().splitlines()
    assert f"p90_error,{fileio.fmt(want.p90_error)}" in lines
    assert f"room_accuracy,{fileio.fmt(want.room_accuracy)}" in lines
    assert f"room_mismatches,{want.room_mismatches}" in lines
    assert f"p90_error,{fileio.fmt(want.p90_error)}" in capsys.readouterr().out
    out2 = tmp_path / "eval2.csv"
    assert main(["eval", "--traj", str(ws["srv"] / "pf2.traj"),
                 "--truth", str(ws["sim"] / "truth.traj"),
                 "--out", str(out2)]) == 0
    assert "room_accuracy" not in out2.read_text()


def test_plot_command(ws, tmp_path):
    out = tmp_path / "scene.svg"
    assert main(["plot", "--traj", str(ws["srv"] / "pf2.traj"),
                 "--ref", str(ws["sim"] / "truth.traj"),
                 "--closures", str(ws["srv"] / "closures.lc"),
                 "--floorplan", str(ws["sim"] / "floorplan.txt"),
                 "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 10


def test_exit_code_usage_errors(ws, tmp_path, capsys):
    assert main([]) == 1
    assert main(["survey", "--log", "x"]) == 1          # missing --out
    assert main(["simulate", "--nonsense", "y"]) == 1
    # simulate reads no pipeline config, so it takes no --config
    assert main(["simulate", "--walk", "corridor", "--seed", "1", "--config", "bogus.key=1",
                 "--out", str(tmp_path / "s")]) == 1
    # commands that draw no random numbers and read no config take neither flag
    a = str(ws["maps"] / "map_ap0.map")
    assert main(["compare", "--map-a", a, "--map-b", a, "--out", str(tmp_path / "c"),
                 "--seed", "1"]) == 1
    assert main(["compare", "--map-a", a, "--map-b", a, "--out", str(tmp_path / "c"),
                 "--config", "gp.cell=1.0"]) == 1
    # config keys are checked after the log loads, so use a real log
    assert main(["straight", "--log", str(ws["sim"] / "log.txt"),
                 "--out", str(tmp_path / "y"), "--config", "bogus.key=1"]) == 1
    # so are config values that the config classes reject
    for bad in ("pf1.n_min=0", "noise.sigma_dtheta=nan"):
        assert main(["pf1", "--log", str(ws["sim"] / "log.txt"),
                     "--out", str(tmp_path / "z"), "--config", bad]) == 1
    # GP values that would divide by zero or fit a NaN map
    capsys.readouterr()
    for bad in ("gp.cell=0", "gp.length_scale=0", "gp.sigma_n=-1", "gp.mean=nan"):
        assert main(["map", "--points", str(ws["srv"] / "points.spt"),
                     "--out", str(tmp_path / "m"), "--config", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and bad[3:bad.index("=")] in err


def test_exit_code_data_errors(ws, tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["pf1", "--log", missing, "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.log"
    bad.write_text("step,0.5,notanumber,0.0\n")
    assert main(["pf1", "--log", str(bad), "--out", str(tmp_path / "o2")]) == 2
    badplan = tmp_path / "bad.plan"
    badplan.write_text("wall,0,0,1\n")
    assert main(["simulate", "--scenario", str(ws["scen"]),
                 "--floorplan", str(badplan), "--out", str(tmp_path / "o3")]) == 2
    nanplan = tmp_path / "nan.plan"
    nanplan.write_text("wall,0,0,10,0\nwall,0,nan,10,10\n")
    assert main(["simulate", "--scenario", str(ws["scen"]),
                 "--floorplan", str(nanplan), "--out", str(tmp_path / "o4")]) == 2
    assert "line 2: non-finite" in capsys.readouterr().err
    nantraj = tmp_path / "nan.traj"
    lines = (ws["srv"] / "pf2.traj").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("3,"))
    e, t, _, y, theta = lines[at].split(",")
    lines[at] = f"{e},{t},nan,{y},{theta}"
    nantraj.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--traj", str(nantraj), "--truth", str(ws["sim"] / "truth.traj"),
                 "--out", str(tmp_path / "o5")]) == 2
    assert f"line {at + 1}: non-finite" in capsys.readouterr().err
    badmap = tmp_path / "bad.map"
    # a cell outside the grid, a sigma that is not positive, a repeated
    # cell, and cells that could not be scored finitely: a sigma whose
    # square underflows, a mu or sigma whose square overflows, and values
    # just past the map bounds
    for cell in ("-1,0,-50.0,1.0", "0,0,-50.0,0.0", "1,0,-70.0,2.0", "0,0,-50.0,1e-170",
                 "0,0,1e308,2.0", "0,0,-50.0,1e200", "0,0,-1000000.5,2.0", "0,0,-50.0,0.0000009",
                 "0,0,-50.0,1000000.5"):
        badmap.write_text(f"source,ap0\ngrid,0,0,1.0,2,1\ncell,1,0,-60.0,2.0\ncell,{cell}\n")
        assert main(["position", "--map", str(badmap), "--log", str(ws["sim"] / "log.txt"),
                     "--out", str(tmp_path / "o6")]) == 2
        assert "line 4: " in capsys.readouterr().err
    # a grid of 2^40 cells is rejected before anything is allocated for it
    badmap.write_text("source,ap0\ngrid,0,0,1.0,1048576,1048576\ncell,0,0,-60.0,2.0\n")
    assert main(["compare", "--map-a", str(badmap), "--map-b", str(badmap),
                 "--out", str(tmp_path / "o7")]) == 2
    assert "does not cover every cell" in capsys.readouterr().err


def test_survey_on_a_room_wider_than_the_largest_float_exits_2(ws, tmp_path):
    # such a room used to load, and seeding particles in it never returned
    plan = tmp_path / "wide.plan"
    plan.write_text("room,0,wide,-1e308,-1,1e308,-1,1e308,1,-1e308,1\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from floorsurvey.cli import main; sys.exit(main())",
         "survey", "--log", str(ws["sim"] / "log.txt"), "--floorplan", str(plan),
         "--out", str(tmp_path / "srv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "line 1: coordinate above 1e+150 in magnitude" in done.stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ["1,0.5,1e308,2.0,0.0", "1,0.5,1.0,-1e151,0.0"])
def test_plot_and_eval_refuse_a_coordinate_beyond_the_bound(ws, tmp_path, capsys, row):
    # such a coordinate used to write inf into the SVG, or a mean error
    # near 3e307, and exit 0; with warnings as errors the plot raised
    traj = tmp_path / "far.traj"
    traj.write_text(f"# epoch,t,x,y,theta\n0,0.0,1.0,2.0,0.0\n{row}\n")
    truth = str(ws["sim"] / "truth.traj")
    for args in (["plot", "--traj", str(traj)], ["plot", "--ref", str(traj)],
                 ["eval", "--traj", str(traj), "--truth", truth],
                 ["eval", "--traj", truth, "--truth", str(traj)]):
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        assert "line 3: coordinate above 1e+150 in magnitude" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, tag, field", [
    ("pf1", "start", 1), ("pf1", "start", 2), ("map", "point", 3), ("map", "point", 4),
    ("position", "grid", 1), ("position", "grid", 2),
    ("simulate", "waypoint", 1), ("simulate", "ap", 2), ("simulate", "anomaly", 1)])
def test_every_reader_refuses_a_coordinate_beyond_the_bound(ws, tmp_path, capsys, command, tag, field):
    # a log's start of x = 1e200 used to survey, exit 0 and write a
    # pf1.traj that eval then refused; a waypoint of 1e151 had simulate
    # walk until memory ran out
    src = {"pf1": ws["sim"] / "log.txt", "map": ws["srv"] / "points.spt",
           "position": ws["maps"] / "map_ap0.map", "simulate": ws["scen"]}[command]
    lines = src.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.split(",")[0].strip() == tag)
    parts = lines[at].split(",")
    parts[field] = "1e151"
    lines[at] = ",".join(parts)
    bad = tmp_path / src.name
    bad.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    args = {"pf1": ["pf1", "--log", str(bad), "--seed", "5"],
            "map": ["map", "--points", str(bad)],
            "position": ["position", "--map", str(bad), "--log", str(ws["sim"] / "log.txt")],
            "simulate": ["simulate", "--scenario", str(bad)]}[command]
    assert main([*args, "--out", out]) == 2
    assert f"line {at + 1}: coordinate above 1e+150 in magnitude" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_position_scores_a_map_at_its_bounds_finitely(tmp_path, capsys):
    # the extreme mu and sigma a map file may hold, against the extreme
    # readings a log may hold: every fix has a finite log-likelihood
    log = tmp_path / "bounds.log"
    log.write_text("wifi,0.0,ap0,-120.0\nwifi,1.0,ap0,0.0\n"
                   "mag,0.0,0.0,0.0,0.0\nmag,1.0,10000.0,-10000.0,10000.0\n")
    for source in ("ap0", "mag"):
        grid = tmp_path / f"{source}.map"
        grid.write_text(f"source,{source}\ngrid,0,0,1.0,2,1\ncell,0,0,1000000.0,0.000001\n"
                        "cell,1,0,-1000000.0,0.000001\n")
        out = tmp_path / f"{source}.pos"
        assert main(["position", "--map", str(grid), "--log", str(log), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2
        assert all(np.isfinite(float(r[3])) and float(r[3]) < -1e20 for r in rows)
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_position_and_survey_refuse_a_mag_component_beyond_the_bound(ws, tmp_path, capsys):
    # squaring a component of 1e200 overflowed: both commands exited 1
    # with a traceback
    lines = (ws["sim"] / "log.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("mag,"))
    parts = lines[at].split(",")
    parts[2] = "1e200"
    lines[at] = ",".join(parts)
    log = tmp_path / "log.txt"
    log.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    for args in (["position", "--map", str(ws["maps"] / "map_mag.map"),
                  "--map", str(ws["maps"] / "map_ap0.map"), "--log", str(log), "--out", str(out)],
                 ["survey", "--log", str(log), "--floorplan", str(ws["sim"] / "floorplan.txt"),
                  "--out", str(out), "--seed", "5"]):
        assert main(args) == 2
        assert f"line {at + 1}: mag component above 10000 uT" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_refuses_a_walk_beyond_the_stride_bound(tmp_path, capsys):
    # a waypoint within the coordinate bound but 1e150 m away made
    # simulate stride until memory ran out; the step_length that sets
    # the stride may come after the waypoints
    scen = tmp_path / "far.scen"
    out = tmp_path / "out"
    for text, line in (("waypoint,2.0,14.625\nwaypoint,1e150,14.625\n", 2),
                       ("waypoint,2.0,14.625\nwaypoint,14.0,14.625\nwaypoint,14.0,1e5\n"
                        "step_length,0.5\n", 3)):
        scen.write_text(text)
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 2
        assert f"line {line}: walk of more than 100000 strides" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_refuses_a_walk_beyond_the_log_span_bound(tmp_path, capsys):
    # this walk at 1e-4 m/s simulated with exit 0 to a log whose records
    # spread over 120,000 s, which survey then refused
    scen = tmp_path / "slow.scen"
    scen.write_text("waypoint,2.0,14.625\nwaypoint,14.0,14.625\nspeed,1e-4\nmag_rate,0.01\n"
                    "scan_period,100\n")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 2
    assert "line 2: walk of more than 100000 s at 0.0001 m/s" in capsys.readouterr().err
    assert not out.exists()


def _run_capped(args: list[str]) -> subprocess.CompletedProcess:
    """The command line in a child process whose address space is capped
    at 1 GiB, so that an input that asks for gigabytes fails at once."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", "import sys; from floorsurvey.cli import main; sys.exit(main())",
         *args], env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(sys.platform != "linux", reason="address-space cap")
def test_simulate_refuses_a_rate_beyond_the_sample_bound(tmp_path):
    # mag_rate,1e8 on a 12 m walk asked for a 7 GiB array
    scen = tmp_path / "fast.scen"
    scen.write_text(SCENARIO + "mag_rate,1e8\n")
    done = _run_capped(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert done.returncode == 2, done.stderr
    assert "line 2: walk of more than 3e+06 magnetometer samples at 1e+08 Hz" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="address-space cap")
def test_survey_refuses_a_log_beyond_the_time_span_bound(tmp_path):
    # one step and one mag record at t = 1e9 s after a corridor walk:
    # closure mining asked for a 74.5 GiB resample grid
    log, _ = simulate_scenario(corridor_scenario(), office_floorplan(), seed=4)
    path = tmp_path / "log.txt"
    fileio.write_survey_log(path, log)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + ["step,1e9,0.75,0.0", "mag,1e9,50.0,0.0,0.0"]) + "\n")
    done = _run_capped(["survey", "--log", str(path), "--out", str(tmp_path / "out")])
    assert done.returncode == 2, done.stderr
    assert (f"line {len(lines) + 1}: time 1e+09 s spreads the log's records over more "
            "than 100000 s") in done.stderr
    assert not (tmp_path / "out").exists()


def test_survey_refuses_invalid_config_values_before_filtering(ws, tmp_path, monkeypatch, capsys):
    # sigma_alpha=nan lost the filter (exit 3), msp.radius=nan mined no
    # closures with exit 0, and the rest exited 2 after the first pass
    import floorsurvey.cli as cli

    def explode(*a, **kw):
        raise AssertionError("the survey ran")

    monkeypatch.setattr(cli, "run_survey", explode)
    for bad in ("sigma_alpha=nan", "sigma_closure=0", "validation.max_flat=1",
                "straight.min_run=0", "msp.radius=nan"):
        assert main(["survey", "--log", str(ws["sim"] / "log.txt"), "--out", str(tmp_path / "o"),
                     "--config", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and bad.split("=")[0].rpartition(".")[2] in err
    assert not (tmp_path / "o").exists()


def test_map_refuses_a_points_file_beyond_the_signal_bounds(tmp_path, capsys):
    # a mag of 1e300 used to exit 0 and write 300-digit mu values
    points = tmp_path / "bad.spt"
    for rows, match in (("point,0,0.0,1.0,2.0,0.5,3,1e300", "line 1: mag 1e+300 outside"),
                        ("point,1,0.0,1.0,2.0,0.5,3,50.0\nsig,1,ap0,55.0",
                         "line 2: rssi 55.0 outside [-120, 0] dBm")):
        points.write_text(rows + "\n")
        assert main(["map", "--points", str(points), "--out", str(tmp_path / "o")]) == 2
        assert match in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_code_rejected_rows(ws, tmp_path, capsys):
    traj = tmp_path / "bad.traj"
    traj.write_text("# epoch,t,x,y,theta\n0,0.0,1.0,2.0,0.0\nabc,0.5,1.0,2.0,0.0\n")
    assert main(["eval", "--traj", str(traj), "--truth", str(ws["sim"] / "truth.traj"),
                 "--out", str(tmp_path / "o1")]) == 2
    assert "line 3: " in capsys.readouterr().err
    # reordered, repeated or time-reversed rows would pair the wrong epochs
    for rows, match in (("0,0.0\n2,0.5\n1,0.25", "line 3: epoch 2 where epoch 1 was due"),
                        ("0,0.0\n1,0.5\n1,0.5", "line 4: epoch 1 where epoch 2 was due"),
                        ("0,0.5\n1,0.25", "line 3: time 0.25 is before")):
        traj.write_text("# epoch,t,x,y,theta\n"
                        + "".join(f"{r},1.0,2.0,0.0\n" for r in rows.split("\n")))
        assert main(["eval", "--traj", str(traj), "--truth", str(ws["sim"] / "truth.traj"),
                     "--out", str(tmp_path / "o1")]) == 2
        assert match in capsys.readouterr().err
    closures = tmp_path / "bad.lc"
    for bad in ("1,2,99", "3"):
        closures.write_text(f"0,5\n{bad}\n")
        assert main(["plot", "--traj", str(ws["srv"] / "pf2.traj"), "--closures", str(closures),
                     "--floorplan", str(ws["sim"] / "floorplan.txt"),
                     "--out", str(tmp_path / "o2.svg")]) == 2
        assert "line 2: expected epoch_a,epoch_b" in capsys.readouterr().err
    points = tmp_path / "bad.spt"
    point = "0.0,1.0,2.0,0.5,3,nan"
    for rows, match in ((f"point,0,{point}\npoint,0,{point}", "line 2: point epoch 0 repeats"),
                        (f"point,0,{point}\nsig,0,ap0,-50.0\nsig,0,ap0,-51.0",
                         "line 3: source 'ap0' repeats")):
        points.write_text(rows + "\n")
        assert main(["map", "--points", str(points), "--out", str(tmp_path / "o3")]) == 2
        assert match in capsys.readouterr().err
    # one trailing field on a map, a points file and a closures file
    badmap = tmp_path / "extra.map"
    badmap.write_text("source,ap0\ngrid,0,0,1.0,1,1\ncell,0,0,-50.0,2.0,junk\n")
    assert main(["compare", "--map-a", str(badmap), "--map-b", str(badmap),
                 "--out", str(tmp_path / "o4")]) == 2
    assert "line 3: expected cell,ix,iy,mu,sigma" in capsys.readouterr().err
    points.write_text(f"point,0,{point}\nsig,0,ap0,-50.0,junk\n")
    assert main(["map", "--points", str(points), "--out", str(tmp_path / "o5")]) == 2
    assert "line 2: expected sig,epoch,source,rssi" in capsys.readouterr().err
    closures.write_text("# epoch_a,epoch_b\n0,5,junk\n")
    assert main(["plot", "--closures", str(closures), "--out", str(tmp_path / "o6.svg")]) == 2
    assert "line 2: expected epoch_a,epoch_b" in capsys.readouterr().err


@pytest.mark.parametrize("record, match", [
    ("speed,0", "speed must be positive"),
    ("scan_period,0", "scan_period must be positive"),
    ("mag_rate,0", "mag_rate must be positive"),
    ("mag_rate,-5", "mag_rate must be positive"),
    ("mag_sigma,-1", "mag_sigma must be non-negative"),
    ("anomaly,4.0,14.5,18.0,-0.01", "anomaly decay must be positive, got -0.01"),
    ("waypoint,0,0,7", "expected waypoint,x,y"),
])
def test_simulate_rejects_bad_scenario_records(tmp_path, capsys, record, match):
    scen = tmp_path / "bad.scen"
    scen.write_text(SCENARIO + record + "\n")
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert f"error: line 7: {match}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_survey_rejects_nan_stride(tmp_path, capsys):
    # a 60-step corridor log with the stride of step index 10 set to nan
    log, _ = simulate_scenario(corridor_scenario(repeats=1), office_floorplan(), seed=3)
    assert len(log.steps) == 60
    path = tmp_path / "nan.log"
    fileio.write_survey_log(path, log)
    lines = path.read_text().splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("step,")][10]
    t, _, dtheta = lines[at].split(",")[1:]
    lines[at] = f"step,{t},nan,{dtheta}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogError, match=f"line {at + 1}: non-finite"):
        parse_survey_log(path.read_text())
    assert main(["survey", "--log", str(path), "--out", str(tmp_path / "o2")]) == 2
    assert f"line {at + 1}" in capsys.readouterr().err


def test_exit_code_filter_lost(ws, tmp_path, monkeypatch, capsys):
    import floorsurvey.cli as cli

    def explode(*a, **kw):
        raise FilterLostError(3, "pf1")

    monkeypatch.setattr(cli, "run_survey", explode)
    assert main(["pf1", "--log", str(ws["sim"] / "log.txt"),
                 "--out", str(tmp_path / "o")]) == 3
    assert "epoch 3" in capsys.readouterr().err


def test_exit_code_out_of_memory(ws, tmp_path, monkeypatch, capsys):
    # a valid log whose closure mining asks for more memory than there is
    import floorsurvey.pipeline as pipeline

    def exhaust(*a, **kw):
        raise MemoryError("Unable to allocate 1.75 GiB for an array with shape (15301, 15343)")

    monkeypatch.setattr(pipeline, "detect_loop_closures", exhaust)
    assert main(["survey", "--log", str(ws["sim"] / "log.txt"),
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 1.75 GiB for an array with shape (15301, 15343)\n"
    assert "Traceback" not in err


def test_exit_code_non_finite_pose(tmp_path, capsys):
    # step noise takes some 1.7e308 m strides past the largest float
    log = tmp_path / "log.txt"
    log.write_text("start,5.0,14.6,0.0\nstep,1.0,1.7e308,0.0\nstep,2.0,1.7e308,0.0\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["pf1", "--log", str(log), "--out", str(tmp_path / "o")]) == 3
    assert "pf1: non-finite pose at epoch 1" in capsys.readouterr().err


# The commands that read each input of the ws session, with the input's
# path left as f; --out is added per run
def _readers(ws):
    sim, srv, maps = ws["sim"], ws["srv"], ws["maps"]
    plan, log, truth = (str(sim / n) for n in ("floorplan.txt", "log.txt", "truth.traj"))
    mag, ap0 = str(maps / "map_mag.map"), str(maps / "map_ap0.map")
    return {
        "scenario": (ws["scen"], lambda f: ["simulate", "--scenario", f, "--seed", "2"]),
        "floorplan": (sim / "floorplan.txt",
                      lambda f: ["simulate", "--scenario", str(ws["scen"]), "--floorplan", f]),
        "survey-log": (sim / "log.txt",
                       lambda f: ["survey", "--log", f, "--floorplan", plan, "--seed", "5"]),
        "straight-log": (sim / "log.txt", lambda f: ["straight", "--log", f]),
        "position-log": (sim / "log.txt",
                         lambda f: ["position", "--map", mag, "--map", ap0, "--log", f]),
        "points": (srv / "points.spt", lambda f: ["map", "--points", f, "--floorplan", plan]),
        "position-map": (maps / "map_mag.map",
                         lambda f: ["position", "--map", f, "--map", ap0, "--log", log]),
        "compare-map": (maps / "map_ap0.map", lambda f: ["compare", "--map-a", f, "--map-b", ap0]),
        "eval-traj": (srv / "pf2.traj",
                      lambda f: ["eval", "--traj", f, "--truth", truth, "--floorplan", plan]),
        "eval-truth": (sim / "truth.traj", lambda f: ["eval", "--traj", f, "--truth", truth]),
        "plot-traj": (srv / "pf2.traj", lambda f: ["plot", "--traj", f, "--floorplan", plan]),
        "plot-closures": (ws["closures"], lambda f: ["plot", "--closures", f, "--floorplan", plan]),
    }


# errors about a whole file, which no one line holds: a record that a
# deleted line held, or two files that do not fit together
_WHOLE_FILE_ERRORS = ("survey log contains no start hint", "scenario needs at least two waypoint",
                      "missing source or grid record", "map file does not cover every cell",
                      "room ids must be unique and contiguous", "epoch count mismatch")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _mutate(lines: list[str], data) -> list[str]:
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    kind = data.draw(st.sampled_from(["field", "repeat", "delete", "swap"]), label="mutation")
    out = list(lines)
    if kind == "field":
        parts = out[at].split(",")
        k = data.draw(st.integers(0, len(parts) - 1), label="field")
        # a tag or a name (a source id, a room name) set to nan or inf is
        # still a word, which outputs may repeat
        values = ["nan", "inf"] * _is_number(parts[k]) + ["1e400", "1e308", "", "text"]
        parts[k] = data.draw(st.sampled_from(values), label="value")
        out[at] = ",".join(parts)
    elif kind == "repeat":
        out.insert(at, out[at])
    elif kind == "delete":
        del out[at]
    else:
        other = data.draw(st.integers(0, len(lines) - 1), label="other line")
        out[at], out[other] = out[other], out[at]
    return out


@pytest.fixture(scope="module")
def mutation_session(ws):
    closures = ws["root"] / "mutation.lc"
    closures.write_text("# epoch_a,epoch_b\n0,5\n2,9\n")
    return {**ws, "closures": closures}


_BAD_TOKEN = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@pytest.mark.parametrize("reader", ["scenario", "floorplan", "survey-log", "straight-log",
                                    "position-log", "points", "position-map", "compare-map",
                                    "eval-traj", "eval-truth", "plot-traj", "plot-closures"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_one_mutated_line_exits_cleanly(mutation_session, reader, data):
    # one line of one valid input is mutated, and the command that reads
    # it either succeeds with finite output, fails on data naming a line,
    # or loses the filter; warnings are errors
    src, command = _readers(mutation_session)[reader]
    lines = src.read_text().splitlines()
    with tempfile.TemporaryDirectory(dir=mutation_session["root"]) as tmp:
        bad = Path(tmp) / src.name
        bad.write_text("\n".join(_mutate(lines, data)) + "\n")
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = main([*command(str(bad)), "--out", str(out)])
        assert code in (0, 2, 3), stderr.getvalue()
        if code == 2:
            err = stderr.getvalue()
            assert re.search(r"line \d+: ", err) or any(m in err for m in _WHOLE_FILE_ERRORS), err
        if code == 0:
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            for text in [stdout.getvalue()] + [f.read_text() for f in files]:
                # a points row's last field, mag, is nan where the epoch had no samples
                text = re.sub(r"^(point,.*),nan$", r"\1", text, flags=re.MULTILINE)
                assert not _BAD_TOKEN.search(text), text[:2000]
