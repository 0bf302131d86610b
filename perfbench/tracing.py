"""Spans and counts around the program's public functions.

A traced run swaps the names that the program looks up at call time
(module globals and class attributes) for timing wrappers.  Each call
records a span (name, start, end, parent span) and the counts named in
its wrapper; all of it stays in memory until the run writes it out.
Span times are CPU times of the process, the clock of the untraced run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from floorsurvey import filtering, geometry, loopclosure, pipeline, sensors, signalmap


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    stack: list[int] = field(default_factory=list)
    resample_calls: int = 0  # kld_resample calls in the current filter pass

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(Span(name, time.process_time(), 0.0, self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx].end = time.process_time()

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total time, self time, calls).  Self time is
        a span's time minus the time of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, list] = {}
        for s, c in zip(self.spans, child):
            row = out.setdefault(s.name, [0.0, 0.0, 0])
            row[0] += s.end - s.start
            row[1] += s.end - s.start - c
            row[2] += 1
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write(self, path) -> None:
        doc = {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, out, *args, **kwargs)
        return out
    return wrapper


def _count(key: str, amount):
    def after(tracer: Tracer, out, *args, **kwargs):
        tracer.counts[key] += amount(out, *args, **kwargs)
    return after


def _after_resample(tracer: Tracer, draws, poses, weights, *args, **kwargs):
    tracer.counts["filtering.particles"] += len(draws)
    # the first call of a pass resamples the seed cloud, which was not drawn
    if tracer.resample_calls:
        tracer.counts["filtering.live_particles"] += int(np.count_nonzero(weights))
    tracer.resample_calls += 1


def _traced_run_filter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.resample_calls = 0
        result = tracer.call(f"filtering.{kwargs.get('label', 'filter')}", fn, *args, **kwargs)
        tracer.counts["filtering.live_particles"] += int(np.count_nonzero(result.tree[-1].weights))
        return result
    return wrapper


def _after_validate(tracer: Tracer, out, *args, **kwargs):
    tracer.counts["loopclosure.validated"] += 1
    tracer.counts["loopclosure.accepted"] += int(bool(out[0]))


def _room_points(out, fp, pts):
    return len(pts)


def _after_fit(tracer: Tracer, out, ap_id, bounds, positions, *args, **kwargs):
    tracer.counts["signalmap.train_points"] += len(positions)
    tracer.counts["signalmap.cells"] += out.nx * out.ny


def install(tracer: Tracer):
    """Swap the program's looked-up names for traced wrappers.  Returns
    a function that puts the originals back."""
    saved: list[tuple[object, str, object]] = []

    def swap(owner, attr: str, name: str, after=None):
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, name, fn, after))

    n_walls = _count("geometry.wall_tests", lambda out, p0s, p1s, walls: len(p0s) * len(walls))
    rooms = _count("geometry.room_queries", _room_points)
    one_room = _count("geometry.room_queries", lambda out, fp, p: 1)

    swap(sensors, "parse_survey_log", "sensors.parse")
    swap(pipeline, "detect_straight_steps", "straightline.detect")
    saved.append((pipeline, "run_filter", pipeline.run_filter))
    pipeline.run_filter = _traced_run_filter(tracer, pipeline.run_filter)
    swap(filtering, "kld_resample", "filtering.kld_resample", _after_resample)
    swap(filtering, "propagate", "filtering.propagate")
    swap(filtering, "prune_smooth", "filtering.prune_smooth")
    swap(filtering.AncestorTree, "compact", "filtering.compact")
    swap(filtering.AncestorTree, "ancestor_positions", "filtering.ancestor_positions",
         _count("filtering.anchor_lookups", lambda *a, **k: 1))
    swap(filtering, "segments_cross_walls", "geometry.segments_cross_walls", n_walls)
    swap(filtering, "containing_rooms", "geometry.containing_rooms", rooms)
    swap(filtering, "containing_room", "geometry.containing_rooms", one_room)
    swap(filtering, "acute_angles_to_room_walls", "geometry.acute_angles")
    swap(geometry, "containing_rooms", "geometry.containing_rooms", rooms)
    swap(pipeline, "detect_loop_closures", "loopclosure.detect",
         _count("loopclosure.closures", lambda out, *a, **k: len(out.closures)))
    swap(loopclosure, "find_msps", "loopclosure.find_msps",
         _count("loopclosure.msps", lambda out, *a, **k: len(out)))
    swap(loopclosure, "obe_dtw", "loopclosure.obe_dtw",
         _count("loopclosure.dtw_cells", lambda out, q, r: len(q) * len(r)))
    swap(loopclosure, "validate_closure", "loopclosure.validate", _after_validate)
    swap(pipeline, "build_survey_points", "pipeline.build_survey_points")
    swap(pipeline, "fit_signal_map", "signalmap.fit", _after_fit)
    swap(signalmap, "position_one_shot", "signalmap.position",
         _count("signalmap.fixes", lambda *a, **k: 1))

    def uninstall():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return uninstall
