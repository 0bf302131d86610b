#!/usr/bin/env python3
"""Benchmark of the survey pipeline on three generated workloads.

    python3 perfbench/run.py --workload corridor-laps --seed 6 --seconds 10 --trace 0

Run from the root of a checkout.  One caller drives floorsurvey's public
functions in a closed loop: it sets up the workload's inputs from the
seed (eleven times, to time set-up), surveys one walk from its log text,
fits maps, localises rounds of single scans until --seconds have passed,
then checks every output.  Times are CPU times calibrated by speed.Probe.
The last line of standard output is one JSON object with the end-to-end
metrics (--trace 0), or the per-layer metrics of a run with timing
wrappers installed (--trace 1).  Run outputs and traces go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
MIN_FIX_ROUNDS = 2


def single_thread_blas() -> None:
    """Run BLAS on one thread; must run before numpy is imported.  With
    two threads on a 2-CPU machine the 450-point path-map fits were 16%
    slower and spread over +-6% instead of +-0.5%."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def fixed_layout() -> None:
    """Re-execute this process once with address-space randomisation off
    and a fixed string-hash seed, so that every run lays out its arrays
    and dicts alike.  Where they fall relative to cache lines moved the
    same code's speed by a few percent from process to process."""
    if os.environ.get("PERFBENCH_FIXED_LAYOUT") == "1":
        return
    os.environ["PERFBENCH_FIXED_LAYOUT"] = "1"
    libc = ctypes.CDLL(None, use_errno=True)
    addr_no_randomize = 0x0040000
    persona = libc.personality(0xFFFFFFFF)
    if persona == -1 or libc.personality(persona | addr_no_randomize) == -1:
        return  # not allowed here: run with the layout as it is
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])


def code_hash() -> str:
    """Hash of the program and benchmark sources, so that stored output
    digests are only compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def per_layer_metrics(tracer) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    m = {
        "filtering.pf1_s": metric(total("filtering.pf1"), "s"),
        "filtering.pf2_s": metric(total("filtering.pf2"), "s"),
        "filtering.particles": metric(counts["filtering.particles"], "count"),
        "filtering.live_fraction": metric(
            counts["filtering.live_particles"] / max(counts["filtering.particles"], 1), "ratio"),
    }
    for name in ("kld_resample", "propagate", "prune_smooth", "compact", "ancestor_positions"):
        m[f"filtering.{name}_s"] = metric(self_time(f"filtering.{name}"), "s")
    m["filtering.anchor_lookups"] = metric(counts["filtering.anchor_lookups"], "count")
    m["geometry.segments_cross_walls_s"] = metric(self_time("geometry.segments_cross_walls"), "s")
    m["geometry.wall_tests"] = metric(counts["geometry.wall_tests"], "count")
    m["geometry.containing_rooms_s"] = metric(self_time("geometry.containing_rooms"), "s")
    m["geometry.room_queries"] = metric(counts["geometry.room_queries"], "count")
    m["geometry.acute_angles_s"] = metric(self_time("geometry.acute_angles"), "s")
    m["loopclosure.detect_s"] = metric(total("loopclosure.detect"), "s")
    m["loopclosure.find_msps_s"] = metric(self_time("loopclosure.find_msps"), "s")
    m["loopclosure.msps"] = metric(counts["loopclosure.msps"], "count")
    m["loopclosure.obe_dtw_s"] = metric(self_time("loopclosure.obe_dtw"), "s")
    m["loopclosure.dtw_cells"] = metric(counts["loopclosure.dtw_cells"], "count")
    m["loopclosure.closures"] = metric(counts["loopclosure.closures"], "count")
    m["loopclosure.accept_ratio"] = metric(
        counts["loopclosure.accepted"] / max(counts["loopclosure.validated"], 1), "ratio")
    m["sensors.parse_s"] = metric(self_time("sensors.parse"), "s")
    m["straightline.detect_s"] = metric(self_time("straightline.detect"), "s")
    m["pipeline.build_survey_points_s"] = metric(self_time("pipeline.build_survey_points"), "s")
    m["signalmap.fit_s"] = metric(self_time("signalmap.fit"), "s")
    m["signalmap.train_points"] = metric(counts["signalmap.train_points"], "count")
    m["signalmap.cells"] = metric(counts["signalmap.cells"], "count")
    m["signalmap.position_s"] = metric(self_time("signalmap.position"), "s")
    m["signalmap.fixes"] = metric(counts["signalmap.fixes"], "count")
    return m


def layer_table(tracer) -> str:
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1][0])
    lines = [f"{'span':34s} {'total_s':>9s} {'self_s':>9s} {'calls':>7s}"]
    lines += [f"{name:34s} {tot:9.3f} {own:9.3f} {n:7d}" for name, (tot, own, n) in rows]
    lines += [f"{k:34s} {v:19.0f}" for k, v in sorted(tracer.counts.items())]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="seeds the filter, the reference survey and the scans")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="keep localising rounds of scans until this much wall time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "floorsurvey" / "__init__.py").is_file():
        print(f"error: no floorsurvey sources under {SRC}", file=sys.stderr)
        return 2
    fixed_layout()
    single_thread_blas()
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks  # imports numpy, so only after the BLAS thread setting
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        result = run(w, args.seed, args.seconds, args.trace)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


def run(w, seed: int, seconds: float, trace: int) -> dict:
    import checks
    import speed
    import workloads

    setup_s = []
    digests = set()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch, speed.Probe() as probe:
        start = probe.mark()
        for _ in range(SETUP_REPEATS):
            m = probe.mark()
            inp = workloads.make_inputs(w, seed, Path(scratch))
            setup_s.append(probe.own(m))
            digests.add(workloads.inputs_digest(inp))
        # one set-up is too short to calibrate alone: scale by the whole phase
        setup_scale = probe.scale(start)
    checks.require(len(digests) == 1, "the same seed gave different inputs")

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    try:
        out = workloads.run_workload(w, inp, seconds, MIN_FIX_ROUNDS)
    finally:
        if tracer is not None:
            uninstall()
    accuracy = workloads.check_outputs(w, inp, out, seed)

    # a run at a seed seen before, with the same code, must repeat its outputs
    got = workloads.outputs_digest(out)
    store = OUT / "digests" / f"{w.name}-{seed}-{code_hash()}.sha256"
    previous = store.read_text().strip() if store.is_file() else None
    checks.check_repeat(previous, got)
    if previous is None:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(got + "\n")
        os.replace(tmp, store)

    misses = accuracy["room_misses"]
    deepest = ""
    if misses:
        epoch, depth = max(misses, key=lambda m: m[1])
        deepest = f" (deepest at epoch {epoch}, {depth:.2f} m from any room boundary)"
    print(f"# workload {w.name} seed {seed} "
          f"survey {out.survey[0]:.3f} s (cpu {out.survey[1]:.3f} s, wall {out.survey_wall_s:.3f} s) "
          f"maps {workloads.maps_s(out):.3f} s (cpu {workloads.maps_s(out, 1):.3f} s) "
          f"fixes/s {workloads.fixes_per_s(out):.0f} (cpu {workloads.fixes_per_s(out, 1):.0f}) "
          f"fits {len(out.fits)} blocks {len(out.blocks)} of {workloads.BLOCK} "
          f"kernel {1e3 * out.kernel_s:.3f} ms "
          f"p90 {accuracy['traj_p90_error_m']:.3f} m room misses {len(misses)}{deepest} "
          f"digest {got[:16]}", file=sys.stderr)
    if tracer is not None:
        tracer.write(OUT / f"trace-{w.name}-{seed}.json")
        print(layer_table(tracer), file=sys.stderr)
        metrics = per_layer_metrics(tracer)
    else:
        metrics = {
            "survey_s": metric(out.survey[0], "s"),
            "traj_p90_error_m": metric(accuracy["traj_p90_error_m"], "m"),
            "maps_s": metric(workloads.maps_s(out), "s"),
            "fixes_per_s": metric(workloads.fixes_per_s(out), "1/s"),
            "fix_median_error_m": metric(accuracy["fix_median_error_m"], "m"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": metric(workloads.median(setup_s) * setup_scale, "s"),
        }
    return {"correct": True, "attempted": out.attempted, "failed": 0, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
