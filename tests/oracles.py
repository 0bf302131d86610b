"""Brute-force scalar references for the library's batch kernels.

Each function answers one question for one point or one move, by plain
loops over every wall and room, so tests can check the vectorised and
grid-indexed code in floorsurvey against it.
"""

from __future__ import annotations

import math

import numpy as np

from floorsurvey.filtering import ConstraintSet, folded_normal_density
from floorsurvey.geometry import Floorplan, _orient, _segments_touch, _within_bbox


def segment_crosses_wall(fp: Floorplan, p0, p1) -> bool:
    """True iff the segment p0 -> p1 meets any wall.

    Deliberately conservative: touching a wall endpoint or running
    collinearly along a wall count as crossing.  A wall whose bounding
    box does not meet the segment's is never crossed.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    for w in fp.walls:
        if min(w[0], w[2]) > hi[0] or max(w[0], w[2]) < lo[0] \
                or min(w[1], w[3]) > hi[1] or max(w[1], w[3]) < lo[1]:
            continue
        if _segments_touch(p0, p1, w[:2], w[2:]):
            return True
    return False


def _point_on_polygon_boundary(vs: np.ndarray, x: float, y: float) -> bool:
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        if _orient(x0, y0, x1, y1, x, y) == 0 and _within_bbox(x0, y0, x1, y1, x, y):
            return True
    return False


def _point_in_polygon(vs: np.ndarray, x: float, y: float) -> bool:
    # even-odd rule; boundary handled separately by the caller
    inside = False
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if x < xc:
                inside = not inside
    return inside


def containing_room(fp: Floorplan, p) -> int | None:
    """Room id containing point p, or None.

    Boundary points belong to every room they touch; the lowest room id
    wins the tie.
    """
    x, y = float(p[0]), float(p[1])
    for room in fp.rooms:  # already sorted by id
        if _point_on_polygon_boundary(room.vertices, x, y) or _point_in_polygon(room.vertices, x, y):
            return room.room_id
    return None


def acute_angle_to_best_wall(fp: Floorplan, p, heading: float) -> float | None:
    """Acute angle between heading and the most parallel wall of p's room.

    Returns a value in [0, pi/2], or None when p lies in no room.
    """
    room_id = containing_room(fp, p)
    if room_id is None:
        return None
    angles = fp.room_edge_angles(room_id)
    d = (heading - angles + math.pi / 2.0) % math.pi - math.pi / 2.0
    return float(np.abs(d).min())


def reweight(prev_pos, new_pose, step_index: int, constraints: ConstraintSet,
             anchors: dict[int, tuple[float, float]]) -> float:
    """Constraint weight of one particle's move at the given step.

    Order: start at 1; a wall crossing returns 0 immediately; a
    straight-line step multiplies by the folded-normal density of the
    acute angle to the most parallel wall of the containing room (no
    factor when the particle is in no room); each loop closure ending at
    this step multiplies by the folded-normal density of the distance to
    the particle's anchor.  anchors maps each such closure's anchor
    epoch to this particle's (x, y) there.
    """
    new_pose = np.asarray(new_pose, dtype=float)
    prev_pos = np.asarray(prev_pos, dtype=float)[:2]
    fp = constraints.floorplan
    new_xy = new_pose[:2]
    w = 1.0
    if constraints.use_walls and segment_crosses_wall(fp, prev_pos, new_xy):
        return 0.0
    flags = constraints.straight_flags
    if flags is not None and 0 <= step_index < len(flags) and flags[step_index]:
        alpha = acute_angle_to_best_wall(fp, new_xy, float(new_pose[2]))
        if alpha is not None:
            w *= folded_normal_density(alpha, constraints.sigma_alpha)
    for c in constraints.closures:
        if c.epoch_b != step_index + 1:
            continue
        ax, ay = anchors[c.epoch_a]
        d = float(np.hypot(new_xy[0] - ax, new_xy[1] - ay))
        w *= folded_normal_density(d, constraints.sigma_closure)
    return float(w)
