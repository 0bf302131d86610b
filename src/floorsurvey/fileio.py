"""Plain-text readers and writers for every pipeline artifact.

All numbers are written with six fixed decimals so repeated runs with
the same seed produce byte-identical files.  Every text input (these
artifacts, floorplans, survey logs, scenarios) has one grammar, read by
geometry.records: one record per line, comma-separated fields stripped
of spaces, blank and '#' lines skipped, an exact field count per record
kind (only a floorplan room, three or more vertices, and a log start,
one or three values, vary) and finite numbers.  A bad record raises a
ValueError "line N: ...", which the command line turns into exit code 2.
"""

from __future__ import annotations

import numpy as np

from .geometry import Floorplan, expect, finite_floats, records
from .loopclosure import RejectedMatch, StepLoopClosure
from .pipeline import EvalReport, SurveyPoint
from .sensors import MagSample, StepEvent, SurveyLog, WifiObservation
from .signalmap import SignalMap


def fmt(x: float) -> str:
    return f"{float(x):.6f}"


def write_trajectory(path, times: np.ndarray, poses: np.ndarray) -> None:
    """Rows of epoch,t,x,y,theta."""
    lines = ["# epoch,t,x,y,theta"]
    for e, (t, pose) in enumerate(zip(times, poses)):
        lines.append(f"{e},{fmt(t)},{fmt(pose[0])},{fmt(pose[1])},{fmt(pose[2])}")
    _write(path, lines)


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray]:
    """The k-th data row must carry epoch k, and times never decrease,
    so that readers can pair two trajectories row by row."""
    times, poses = [], []
    for line, parts in records(_read(path)):
        with line:
            epoch = int(expect(parts, "epoch,t,x,y,theta")[0])
            if epoch != len(times):
                raise ValueError(f"epoch {epoch} where epoch {len(times)} was due")
            t, x, y, theta = finite_floats(parts[1:])
            if times and t < times[-1]:
                raise ValueError(f"time {t} is before the previous row's {times[-1]}")
            times.append(t)
            poses.append([x, y, theta])
    return np.asarray(times), np.asarray(poses).reshape(-1, 3)


def write_straight_flags(path, flags: np.ndarray) -> None:
    lines = ["# step_index,straight"]
    lines += [f"{i},{int(v)}" for i, v in enumerate(flags)]
    _write(path, lines)


def write_closures(path, closures: list[StepLoopClosure]) -> None:
    lines = ["# epoch_a,epoch_b"]
    lines += [f"{c.epoch_a},{c.epoch_b}" for c in closures]
    _write(path, lines)


def read_closures(path) -> list[StepLoopClosure]:
    out = []
    for line, parts in records(_read(path)):
        with line:
            a, b = expect(parts, "epoch_a,epoch_b")
            out.append(StepLoopClosure(int(a), int(b)))
    return out


def write_rejected(path, rejected: list[RejectedMatch]) -> None:
    lines = ["# epoch_a,epoch_b,reason"]
    lines += [f"{r.epoch_a},{r.epoch_b},{r.reason}" for r in rejected]
    _write(path, lines)


def write_signal_map(path, sm: SignalMap) -> None:
    """Header meta row, then one row per cell in index order."""
    lines = [
        "# signal map",
        f"source,{sm.ap_id}",
        f"grid,{fmt(sm.x0)},{fmt(sm.y0)},{fmt(sm.cell)},{sm.nx},{sm.ny}",
        "# cell,ix,iy,mu,sigma",
    ]
    for c in range(sm.nx * sm.ny):
        ix, iy = c % sm.nx, c // sm.nx
        lines.append(f"cell,{ix},{iy},{fmt(sm.mu[c])},{fmt(sm.sigma[c])}")
    _write(path, lines)


def read_signal_map(path) -> SignalMap:
    source = None
    grid = None
    cells: dict[int, tuple[float, float]] = {}  # the grid's size is not trusted before the count
    for line, parts in records(_read(path)):
        with line:
            if parts[0] == "source":
                if source is not None:
                    raise ValueError("source row repeats an earlier one")
                source = expect(parts, "source,<ap_id>")[1]
            elif parts[0] == "grid":
                if grid is not None:
                    raise ValueError("grid row repeats an earlier one")
                _, x0, y0, cell, nx, ny = expect(parts, "grid,x0,y0,cell,nx,ny")
                grid = (*finite_floats([x0, y0, cell]), int(nx), int(ny))
                if grid[2] <= 0:
                    raise ValueError(f"grid pitch {grid[2]} is not positive")
                if grid[3] <= 0 or grid[4] <= 0:
                    raise ValueError(f"grid of {grid[3]} x {grid[4]} cells is empty")
            elif parts[0] == "cell":
                if grid is None:
                    raise ValueError("cell row before grid row")
                ix, iy = int(expect(parts, "cell,ix,iy,mu,sigma")[1]), int(parts[2])
                if not (0 <= ix < grid[3] and 0 <= iy < grid[4]):
                    raise ValueError(f"cell ({ix}, {iy}) outside the {grid[3]} x {grid[4]} grid")
                c = iy * grid[3] + ix
                if c in cells:
                    raise ValueError(f"cell ({ix}, {iy}) repeats an earlier row")
                mu, sigma = finite_floats(parts[3:])
                if sigma <= 0:
                    raise ValueError(f"sigma {sigma} is not positive")
                cells[c] = (mu, sigma)
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
    if source is None or grid is None:
        raise ValueError("missing source or grid record")
    # distinct cells inside the grid: as many as it has cells cover it
    if len(cells) != grid[3] * grid[4]:
        raise ValueError("map file does not cover every cell")
    mu, sigma = np.array([cells[c] for c in range(len(cells))]).T
    return SignalMap(source, grid[0], grid[1], grid[2], grid[3], grid[4], mu, sigma)


def write_overlap(path, sm: SignalMap, scores: np.ndarray, median: float) -> None:
    """Per-cell interval overlap plus the summary median."""
    lines = ["# map comparison", f"median,{fmt(median)}", "# cell,ix,iy,score"]
    for c in range(sm.nx * sm.ny):
        lines.append(f"cell,{c % sm.nx},{c // sm.nx},{fmt(scores[c])}")
    _write(path, lines)


def write_survey_points(path, points: list[SurveyPoint]) -> None:
    """point rows carry the pose and mag summary; sig rows carry the
    per-source RSS means keyed by epoch."""
    lines = ["# point,epoch,t,x,y,theta,room,mag"]
    for p in points:
        room = -1 if p.room is None else p.room
        mag = "nan" if p.mag is None else fmt(p.mag)
        lines.append(f"point,{p.epoch},{fmt(p.t)},{fmt(p.x)},{fmt(p.y)},"
                     f"{fmt(p.theta)},{room},{mag}")
        for ap, rssi in p.wifi.items():
            lines.append(f"sig,{p.epoch},{ap},{fmt(rssi)}")
    _write(path, lines)


def read_survey_points(path) -> list[SurveyPoint]:
    """Numbers must be finite, except a mag of nan, meaning no samples."""
    points: dict[int, SurveyPoint] = {}
    for line, parts in records(_read(path)):
        with line:
            if parts[0] == "point":
                epoch = int(expect(parts, "point,epoch,t,x,y,theta,room,mag")[1])
                if epoch in points:
                    raise ValueError(f"point epoch {epoch} repeats an earlier row")
                t, x, y, theta = finite_floats(parts[2:6])
                room = int(parts[6])
                mag = None if parts[7] == "nan" else finite_floats(parts[7:])[0]
                points[epoch] = SurveyPoint(epoch, t, x, y, theta,
                                            None if room < 0 else room, mag, {})
            elif parts[0] == "sig":
                epoch = int(expect(parts, "sig,epoch,source,rssi")[1])
                if epoch not in points:
                    raise ValueError("sig row before its point row")
                if parts[2] in points[epoch].wifi:
                    raise ValueError(f"source {parts[2]!r} repeats at epoch {epoch}")
                points[epoch].wifi[parts[2]] = finite_floats(parts[3:])[0]
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
    return [points[e] for e in sorted(points)]


def write_eval_report(path, report: EvalReport) -> None:
    lines = ["# trajectory evaluation", f"epochs,{report.n_epochs}"]
    for name in ("mean_error", "median_error", "p90_error", "max_error", "final_error"):
        lines.append(f"{name},{fmt(getattr(report, name))}")
    if report.room_accuracy is not None:
        lines.append(f"room_accuracy,{fmt(report.room_accuracy)}")
        lines.append(f"room_mismatches,{report.room_mismatches}")
    _write(path, lines)


def write_positions(path, rows: list[tuple[float, float, float, float]]) -> None:
    """Rows of t,x,y,loglik for one-shot position fixes."""
    lines = ["# t,x,y,loglik"]
    lines += [f"{fmt(t)},{fmt(x)},{fmt(y)},{fmt(ll)}" for t, x, y, ll in rows]
    _write(path, lines)


def write_floorplan(path, fp: Floorplan) -> None:
    lines = ["# floorplan"]
    for x0, y0, x1, y1 in fp.walls:
        lines.append(f"wall,{fmt(x0)},{fmt(y0)},{fmt(x1)},{fmt(y1)}")
    for room in fp.rooms:
        coords = ",".join(f"{fmt(v[0])},{fmt(v[1])}" for v in room.vertices)
        lines.append(f"room,{room.room_id},{room.name},{coords}")
    _write(path, lines)


def write_survey_log(path, log: SurveyLog) -> None:
    """Same record grammar the log parser accepts."""
    lines = ["# survey log"]
    if log.start_pose is not None:
        p = log.start_pose
        lines.append(f"start,{fmt(p.x)},{fmt(p.y)},{fmt(p.theta)}")
    elif log.start_room is not None:
        lines.append(f"start,{log.start_room}")
    events: list[tuple[float, int, str]] = []
    for s in log.steps:
        events.append((s.t, 0, f"step,{fmt(s.t)},{fmt(s.length)},{fmt(s.dtheta)}"))
    for m in log.mags:
        events.append((m.t, 1, f"mag,{fmt(m.t)},{fmt(m.b[0])},{fmt(m.b[1])},{fmt(m.b[2])}"))
    for w in log.wifi:
        events.append((w.t, 2, f"wifi,{fmt(w.t)},{w.ap_id},{fmt(w.rssi)}"))
    events.sort(key=lambda e: (e[0], e[1]))
    lines += [e[2] for e in events]
    _write(path, lines)


def _write(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
