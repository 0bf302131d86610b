"""Room-by-room survey walk: per-epoch room labeling.

The multi-room walk dips into 15 of the 16 offices from the corridor.
The full pipeline labels each epoch with a room id; this script prints
the visit order it recovers and the label accuracy against truth.
"""

import sys
from itertools import groupby
from pathlib import Path

from floorsurvey.pipeline import evaluate_trajectory, run_survey
from floorsurvey.plotsvg import render_scene
from floorsurvey.simulate import multi_room_scenario, office_floorplan, simulate_scenario

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demos/out")
out.mkdir(parents=True, exist_ok=True)

fp = office_floorplan()
sc = multi_room_scenario()
log, truth = simulate_scenario(sc, fp, seed=1)
print(f"walk of {len(log.steps)} steps")

res = run_survey(log, fp, seed=1)

# collapse consecutive equal labels into a visit sequence; drop the
# corridor polygons (ids 16 and 17) to show just the room dips
visits = [r for r, _ in groupby(res.final.rooms) if r is not None and r < 16]
print(f"rooms visited in order ({len(visits)}): {visits}")

rep = evaluate_trajectory(res.final.positions, res.final.rooms, truth, fp)
agree = rep.n_epochs - rep.room_mismatches
print(f"label agreement: {agree}/{rep.n_epochs} epochs "
      f"({100.0 * agree / rep.n_epochs:.2f}%)")
print(f"position error: median {rep.median_error:.2f} m, p90 {rep.p90_error:.2f} m")

svg = render_scene(fp, [(truth.positions, "gray"), (res.final.positions, "green")])
(out / "room_survey.svg").write_text(svg)
print(f"wrote {out / 'room_survey.svg'}")
