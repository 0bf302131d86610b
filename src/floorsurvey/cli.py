"""Command line front end.

Subcommands cover the whole pipeline: simulate a walk, run either
filter pass, mine loop closures, build and compare signal maps, run
one-shot positioning, evaluate against truth, and render SVG plots.

Exit codes: 0 success, 1 usage errors, 2 malformed or missing data,
3 filter lost (every particle weight hit zero), 4 out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .filtering import FilterLostError
from .geometry import Floorplan, containing_rooms, load_floorplan
from .pipeline import (
    MAG_SOURCE,
    PipelineConfig,
    apply_overrides,
    build_signal_maps,
    evaluate_trajectory,
    run_survey,
)
from .plotsvg import EST_COLOR, REF_COLOR, render_scene
from .sensors import PdrTrajectory, SurveyLog, load_survey_log
from .signalmap import compare_maps, position_one_shot
from .simulate import (
    corridor_scenario,
    detour_scenario,
    floor_loop_scenario,
    multi_room_scenario,
    office_floorplan,
    parse_scenario,
    simulate_scenario,
)

_BUILTIN_WALKS = {
    "corridor": corridor_scenario,
    "loop": floor_loop_scenario,
    "detour": detour_scenario,
    "rooms": multi_room_scenario,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p: _Parser, floorplan=False, log=False, seed=False, config=False) -> None:
    if floorplan:
        p.add_argument("--floorplan", help="floorplan file (default: built-in office)")
    if log:
        p.add_argument("--log", required=True, help="survey log file")
    p.add_argument("--out", required=True, help="output file or directory")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if config:
        p.add_argument("--config", action="append", default=[], metavar="KEY=VALUE",
                       help="pipeline parameter override, repeatable")


def _load_fp(args) -> Floorplan:
    fp_path = getattr(args, "floorplan", None)
    return load_floorplan(fp_path) if fp_path else office_floorplan()


def _load_config(args) -> PipelineConfig:
    overrides = {}
    for item in args.config:
        if "=" not in item:
            raise UsageError(f"--config expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    try:
        return apply_overrides(PipelineConfig(), overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _survey_inputs(args) -> tuple[Floorplan, SurveyLog, PipelineConfig]:
    return _load_fp(args), load_survey_log(args.log), _load_config(args)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    sc = (parse_scenario(Path(args.scenario).read_text(encoding="utf-8")) if args.scenario
          else _BUILTIN_WALKS[args.walk]())
    fp = _load_fp(args)
    log, truth = simulate_scenario(sc, fp, seed=args.seed)
    out = _outdir(args)
    fileio.write_floorplan(out / "floorplan.txt", fp)
    fileio.write_survey_log(out / "log.txt", log)
    fileio.write_trajectory(out / "truth.traj", truth.times, truth.poses)
    print(f"steps,{len(log.steps)}")
    print(f"mag_samples,{len(log.mags)}")
    print(f"wifi_observations,{len(log.wifi)}")
    return 0


def cmd_pf1(args) -> int:
    fp, log, config = _survey_inputs(args)
    res = run_survey(log, fp, config, seed=args.seed, mode="pf1")
    out = _outdir(args)
    fileio.write_trajectory(out / "pf1.traj", res.pf1.times, res.pf1.poses)
    fileio.write_survey_points(out / "points.spt", res.points)
    print(f"epochs,{len(res.pf1.poses)}")
    print(f"final_particles,{int(res.pf1.counts[-1])}")
    return 0


def cmd_straight(args) -> int:
    log = load_survey_log(args.log)
    config = _load_config(args)
    from .straightline import detect_straight_steps

    flags = detect_straight_steps(log.steps, config.straight)
    fileio.write_straight_flags(args.out, flags)
    print(f"steps,{len(flags)}")
    print(f"straight_steps,{int(flags.sum())}")
    return 0


def cmd_loops(args) -> int:
    fp, log, config = _survey_inputs(args)
    res = run_survey(log, fp, config, seed=args.seed, mode="pf1")
    from .loopclosure import detect_loop_closures

    lc = detect_loop_closures(res.pf1, log.mags, config.msp, config.validation)
    out = _outdir(args)
    fileio.write_trajectory(out / "pf1.traj", res.pf1.times, res.pf1.poses)
    fileio.write_closures(out / "closures.lc", lc.closures)
    fileio.write_rejected(out / "rejected.lcrej", lc.rejected)
    print(f"matched_segment_pairs,{len(lc.msps)}")
    print(f"closures,{len(lc.closures)}")
    print(f"rejected,{len(lc.rejected)}")
    return 0


def cmd_survey(args) -> int:
    fp, log, config = _survey_inputs(args)
    res = run_survey(log, fp, config, seed=args.seed, mode="full")
    out = _outdir(args)
    fileio.write_trajectory(out / "pf1.traj", res.pf1.times, res.pf1.poses)
    fileio.write_trajectory(out / "pf2.traj", res.pf2.times, res.pf2.poses)
    fileio.write_straight_flags(out / "straight.str", res.straight_flags)
    fileio.write_closures(out / "closures.lc", res.closures.closures)
    fileio.write_rejected(out / "rejected.lcrej", res.closures.rejected)
    fileio.write_survey_points(out / "points.spt", res.points)
    print(f"epochs,{len(res.pf2.poses)}")
    print(f"straight_steps,{int(res.straight_flags.sum())}")
    print(f"closures,{len(res.closures.closures)}")
    return 0


def cmd_map(args) -> int:
    fp = _load_fp(args)
    points = fileio.read_survey_points(args.points)
    config = _load_config(args)
    maps = build_signal_maps(points, fp.bounds, config.gp)
    out = _outdir(args)
    for name in sorted(maps):
        fileio.write_signal_map(out / f"map_{name}.map", maps[name])
        print(f"map,{name}")
    return 0


def cmd_compare(args) -> int:
    sm_a = fileio.read_signal_map(args.map_a)
    sm_b = fileio.read_signal_map(args.map_b)
    scores, median = compare_maps(sm_a, sm_b)
    fileio.write_overlap(args.out, sm_a, scores, median)
    print(f"median,{fileio.fmt(median)}")
    return 0


def cmd_position(args) -> int:
    maps = [fileio.read_signal_map(p) for p in args.map]
    for path, m in zip(args.map, maps):
        if not m.congruent(maps[0]):
            raise ValueError(f"{path}: map is not on the grid of {args.map[0]}")
    log = load_survey_log(args.log)
    by_t: dict[float, dict[str, float]] = {}
    for ob in log.wifi:
        by_t.setdefault(ob.t, {})[ob.ap_id] = ob.rssi
    have_mag = any(m.ap_id == MAG_SOURCE for m in maps)
    if have_mag and log.mags:
        mt = np.array([m.t for m in log.mags])
        mv = np.array([m.magnitude for m in log.mags])
        # rounding is monotone, so every sample with |mt - t| <= 0.5 lies
        # in [t - 1, t + 1] as rounded: search the sorted times for that window
        order = np.argsort(mt, kind="stable")
        ts, sorted_t = np.array(list(by_t)), mt[order]
        los = np.searchsorted(sorted_t, ts - 1.0, "left")
        his = np.searchsorted(sorted_t, ts + 1.0, "right")
        for (t, obs), lo, hi in zip(by_t.items(), los, his):
            near = np.sort(order[lo:hi])  # log order, as the mean's sum takes them
            sel = near[np.abs(mt[near] - t) <= 0.5]
            if len(sel):
                obs[MAG_SOURCE] = float(mv[sel].mean())
    sources = {m.ap_id for m in maps}
    rows = []
    for t in sorted(by_t):
        if sources.isdisjoint(by_t[t]):
            continue
        rows.append((t, *position_one_shot(maps, by_t[t])))
    fileio.write_positions(args.out, rows)
    print(f"fixes,{len(rows)}")
    return 0


def cmd_eval(args) -> int:
    fp = _load_fp(args) if args.floorplan else None
    _, est_poses = fileio.read_trajectory(args.traj)
    truth_times, truth_poses = fileio.read_trajectory(args.truth)
    truth = PdrTrajectory(truth_poses, truth_times)
    est = est_poses[:, :2]
    rooms = containing_rooms(fp, est) if fp is not None else None
    report = evaluate_trajectory(est, rooms, truth, fp)
    fileio.write_eval_report(args.out, report)
    print(f"p90_error,{fileio.fmt(report.p90_error)}")
    if report.room_accuracy is not None:
        print(f"room_accuracy,{fileio.fmt(report.room_accuracy)}")
    return 0


def cmd_plot(args) -> int:
    fp = _load_fp(args)
    trajectories = []
    if args.traj:
        _, poses = fileio.read_trajectory(args.traj)
        trajectories.append((poses[:, :2], EST_COLOR))
    if args.ref:
        _, poses = fileio.read_trajectory(args.ref)
        trajectories.append((poses[:, :2], REF_COLOR))
    closures = fileio.read_closures(args.closures) if args.closures else None
    svg = render_scene(fp, trajectories, closures)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(f"svg,{args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="floorsurvey", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("simulate", help="synthesise a survey walk")
    p.add_argument("--scenario", help="scenario file (overrides --walk)")
    p.add_argument("--walk", choices=sorted(_BUILTIN_WALKS), default="corridor")
    _add_common(p, floorplan=True, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pf1", help="first pass: wall constraints only")
    _add_common(p, floorplan=True, log=True, seed=True, config=True)
    p.set_defaults(func=cmd_pf1)

    p = sub.add_parser("straight", help="flag straight-walk steps")
    _add_common(p, log=True, config=True)
    p.set_defaults(func=cmd_straight)

    p = sub.add_parser("loops", help="mine magnetic loop closures")
    _add_common(p, floorplan=True, log=True, seed=True, config=True)
    p.set_defaults(func=cmd_loops)

    p = sub.add_parser("survey", help="full two-pass survey")
    _add_common(p, floorplan=True, log=True, seed=True, config=True)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("map", help="build GP signal maps from survey points")
    p.add_argument("--points", required=True, help="survey points file")
    _add_common(p, floorplan=True, config=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("compare", help="interval overlap of two maps")
    p.add_argument("--map-a", required=True)
    p.add_argument("--map-b", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("position", help="one-shot fixes from maps and scans")
    p.add_argument("--map", action="append", required=True,
                   help="signal map file, repeatable")
    _add_common(p, log=True)
    p.set_defaults(func=cmd_position)

    p = sub.add_parser("eval", help="error statistics against a truth walk")
    p.add_argument("--traj", required=True, help="estimated trajectory file")
    p.add_argument("--truth", required=True, help="truth trajectory file")
    _add_common(p, floorplan=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render an SVG scene")
    p.add_argument("--traj", help="estimated trajectory file")
    p.add_argument("--ref", help="reference trajectory file")
    p.add_argument("--closures", help="closures file to overlay")
    _add_common(p, floorplan=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FilterLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
