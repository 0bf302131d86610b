"""Corridor walk with gyro drift: why two passes beat one.

Simulates an out-and-back corridor walk whose gyroscope drifts by
3 degrees per minute, runs the wall-only first pass and the fully
constrained second pass, and prints the error statistics side by side.
Writes an SVG overlay of truth vs both estimates.
"""

import sys
from pathlib import Path

from floorsurvey.pipeline import evaluate_trajectory, run_survey
from floorsurvey.plotsvg import render_scene
from floorsurvey.simulate import corridor_scenario, office_floorplan, simulate_scenario

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demos/out")
out.mkdir(parents=True, exist_ok=True)

fp = office_floorplan()
sc = corridor_scenario()  # 3 deg/min bias, two 45 m legs
log, truth = simulate_scenario(sc, fp, seed=4)
print(f"simulated {len(log.steps)} steps, {len(log.mags)} magnetometer samples")

res = run_survey(log, fp, seed=4)
print(f"straight steps flagged: {int(res.straight_flags.sum())}/{len(log.steps)}")
print(f"loop closures kept: {len(res.closures.closures)} "
      f"(rejected {len(res.closures.rejected)})")

# the drift bends the wall-only estimate; closures and straight-walk
# constraints pull the second pass back onto the corridor line
for name, fres in (("first pass ", res.pf1), ("second pass", res.final)):
    r = evaluate_trajectory(fres.positions, fres.rooms, truth)
    print(f"{name}  mean {r.mean_error:.2f} m   p90 {r.p90_error:.2f} m   "
          f"max {r.max_error:.2f} m")

svg = render_scene(fp, [
    (truth.positions, "gray"),
    (res.pf1.positions, "brown"),
    (res.final.positions, "green"),
])
(out / "corridor_drift.svg").write_text(svg)
print(f"wrote {out / 'corridor_drift.svg'} (gray truth, brown pass 1, green pass 2)")
