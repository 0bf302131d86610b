import xml.etree.ElementTree as ET

import numpy as np
import pytest

from floorsurvey import fileio
from floorsurvey.cli import main
from floorsurvey.filtering import FilterLostError
from floorsurvey.sensors import LogError, parse_survey_log
from floorsurvey.simulate import corridor_scenario, office_floorplan, simulate_scenario

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
    f1 = tmp_path / "a.str"
    assert main(["straight", "--log", log, "--out", str(f1)]) == 0
    flags = fileio.read_straight_flags(f1)
    assert flags.sum() > 0
    f2 = tmp_path / "b.str"
    assert main(["straight", "--log", log, "--out", str(f2),
                 "--config", "straight.min_run=50"]) == 0
    assert fileio.read_straight_flags(f2).sum() == 0


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


def test_eval_command(ws, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    assert main(["eval", "--traj", str(ws["srv"] / "pf2.traj"),
                 "--truth", str(ws["sim"] / "truth.traj"),
                 "--floorplan", str(ws["sim"] / "floorplan.txt"),
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "p90_error," in text and "room_accuracy," in text
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
    capsys.readouterr()


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
