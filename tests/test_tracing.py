"""The benchmark's traced mode swaps names that the program looks up at
call time (perfbench/tracing.py); these tests keep those names working."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from floorsurvey import filtering, geometry, pipeline
from floorsurvey.filtering import KldConfig
from floorsurvey.pipeline import PipelineConfig, run_survey
from floorsurvey.simulate import corridor_scenario, office_floorplan, simulate_scenario

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _tiny_survey():
    fp = office_floorplan()
    log, _ = simulate_scenario(corridor_scenario(repeats=2), fp, seed=3)
    config = PipelineConfig(pf2=KldConfig(bin_x=0.5, bin_y=0.5, n_min=1000))
    return run_survey(log, fp, config, seed=4)


def test_traced_survey_matches_untraced_and_uninstalls():
    names = [(filtering, "containing_room"), (filtering, "containing_rooms"),
             (filtering, "segments_cross_walls"), (geometry, "containing_rooms"),
             (pipeline, "run_filter"), (filtering.AncestorTree, "ancestor_positions")]
    before = [getattr(owner, attr) for owner, attr in names]
    plain = _tiny_survey()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = _tiny_survey()
    finally:
        uninstall()
    assert [getattr(owner, attr) for owner, attr in names] == before
    # the wrappers draw no random numbers and change no output
    for a, b in ((plain.pf1, traced.pf1), (plain.pf2, traced.pf2)):
        assert np.array_equal(a.poses, b.poses)
        assert np.array_equal(a.map_poses, b.map_poses)
        assert a.rooms == b.rooms
    assert traced.closures.closures == plain.closures.closures
    totals = tracer.totals()
    for span in ("filtering.pf1", "filtering.pf2", "filtering.kld_resample",
                 "geometry.containing_rooms", "geometry.segments_cross_walls",
                 "loopclosure.find_msps", "loopclosure.obe_dtw", "loopclosure.validate",
                 "filtering.ancestor_positions"):
        assert totals[span][2] > 0, span
    # the per-layer dtw_cells and accept_ratio metrics read these counts
    assert tracer.counts["loopclosure.dtw_cells"] > 0
    assert tracer.counts["loopclosure.validated"] > 0
    assert len(plain.closures.closures) > 0
    assert tracer.counts["filtering.anchor_lookups"] > 0
    assert 0 < tracer.counts["filtering.live_particles"] <= tracer.counts["filtering.particles"]
    assert tracer.counts["geometry.room_queries"] > 0
