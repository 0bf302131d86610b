"""Signal maps from a survey walk vs a dense reference survey.

Fits Gaussian-process RSS maps from the recovered corridor walk, then
fits a second set from an exhaustive 1 m grid survey of the same
simulated field, and scores their agreement cell by cell with the 90%
interval-overlap metric.  Agreement is high near the walked path and
decays away from it, which is exactly what a path-based survey can and
cannot promise.
"""

import sys
from pathlib import Path

import numpy as np

from floorsurvey import fileio
from floorsurvey.pipeline import build_signal_maps, run_survey
from floorsurvey.signalmap import compare_maps, fit_signal_maps
from floorsurvey.simulate import (
    corridor_scenario,
    grid_survey,
    office_floorplan,
    simulate_scenario,
)

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demos/out")
out.mkdir(parents=True, exist_ok=True)

fp = office_floorplan()
sc = corridor_scenario()
log, truth = simulate_scenario(sc, fp, seed=4)
res = run_survey(log, fp, seed=4)

maps = build_signal_maps(res.points, fp.bounds)
print(f"maps from the walk: {sorted(maps)}")

# the reference surveyor measures every square metre once
pts, mag, wifi = grid_survey(sc, fp, spacing=1.0, seed=404)
print(f"reference grid: {len(pts)} sample points")

# the six reference maps share the grid points, so they share one GP fit
refs = fit_signal_maps(fp.bounds, pts, wifi)
path = res.final.positions
centers = maps["ap0"].centers
d_path = np.sqrt(((centers[:, None, :] - path[None, :, :]) ** 2).sum(-1)).min(axis=1)

print("source   all cells   within 2 m of path")
for ap in sorted(wifi):
    _, med_all = compare_maps(maps[ap], refs[ap])
    _, med_near = compare_maps(maps[ap], refs[ap], d_path <= 2.0)
    print(f"{ap:6s}   {med_all:9.2f}   {med_near:18.2f}")

fileio.write_signal_map(out / "map_ap0.map", maps["ap0"])
print(f"wrote {out / 'map_ap0.map'}")
