"""Brute-force references for the library's batch kernels.

Most functions answer one question for one point, move, time or scan,
by plain loops over every wall, room and map where it needs them, so tests
can check the vectorised and grid-indexed code in floorsurvey against it.
The last two are the straightforward forms of KLD resampling and of the
MSP containment filter.
"""

from __future__ import annotations

import math

import numpy as np

from floorsurvey.filtering import (
    ConstraintSet,
    KldConfig,
    _bin_ids,
    folded_normal_density,
    kld_required_particles,
)
from floorsurvey.geometry import Floorplan
from floorsurvey.sensors import PdrTrajectory
from floorsurvey.signalmap import SignalMap


def _orient(ax, ay, bx, by, cx, cy):
    # twice the signed area of triangle abc; sign gives the turn direction
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _within_bbox(ax, ay, bx, by, px, py):
    return (
        min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
    )


def _segments_touch(p0, p1, q0, q1) -> bool:
    """Closed-segment intersection: touches and collinear overlap count.
    Segments whose bounding boxes do not meet never touch."""
    if min(q0[0], q1[0]) > max(p0[0], p1[0]) or max(q0[0], q1[0]) < min(p0[0], p1[0]) \
            or min(q0[1], q1[1]) > max(p0[1], p1[1]) or max(q0[1], q1[1]) < min(p0[1], p1[1]):
        return False
    o1 = _orient(p0[0], p0[1], p1[0], p1[1], q0[0], q0[1])
    o2 = _orient(p0[0], p0[1], p1[0], p1[1], q1[0], q1[1])
    o3 = _orient(q0[0], q0[1], q1[0], q1[1], p0[0], p0[1])
    o4 = _orient(q0[0], q0[1], q1[0], q1[1], p1[0], p1[1])
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and _within_bbox(p0[0], p0[1], p1[0], p1[1], q0[0], q0[1]):
        return True
    if o2 == 0 and _within_bbox(p0[0], p0[1], p1[0], p1[1], q1[0], q1[1]):
        return True
    if o3 == 0 and _within_bbox(q0[0], q0[1], q1[0], q1[1], p0[0], p0[1]):
        return True
    if o4 == 0 and _within_bbox(q0[0], q0[1], q1[0], q1[1], p1[0], p1[1]):
        return True
    return False


def segment_crosses_wall(fp: Floorplan, p0, p1) -> bool:
    """True iff the segment p0 -> p1 meets any wall.

    Deliberately conservative: touching a wall endpoint or running
    collinearly along a wall count as crossing.  A wall whose bounding
    box does not meet the segment's is never crossed.
    """
    return any(_segments_touch(p0, p1, w[:2], w[2:]) for w in fp.walls)


def polygon_is_simple(vertices) -> bool:
    """False iff the closed polygon has an edge whose ends are np.allclose,
    or two non-adjacent edges that touch (as _segments_touch)."""
    vs = np.asarray(vertices, dtype=float)
    n = len(vs)
    for i in range(n):
        a0, a1 = vs[i], vs[(i + 1) % n]
        if np.allclose(a0, a1):
            return False
        for j in range(i + 1, n):
            if j == (i + 1) % n or (j + 1) % n == i:
                continue
            if _segments_touch(a0, a1, vs[j], vs[(j + 1) % n]):
                return False
    return True


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
    best = math.inf
    vs = fp.rooms[room_id].vertices
    for (x0, y0), (x1, y1) in zip(vs, np.roll(vs, -1, axis=0)):
        wall = math.atan2(y1 - y0, x1 - x0) % math.pi
        best = min(best, abs((heading - wall + math.pi / 2.0) % math.pi - math.pi / 2.0))
    return float(best)


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
    if segment_crosses_wall(fp, prev_pos, new_xy):
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


def interpolate_position(traj: PdrTrajectory, t: float) -> np.ndarray:
    """Linear position interpolation along a trajectory at time t.

    Raises ValueError when t is outside the trajectory's time range.
    """
    times = traj.times
    if t < times[0] or t > times[-1]:
        raise ValueError(f"t={t} outside trajectory time range [{times[0]}, {times[-1]}]")
    x = np.interp(t, times, traj.poses[:, 0])
    y = np.interp(t, times, traj.poses[:, 1])
    return np.array([x, y])


def position_one_shot(maps: list[SignalMap],
                      observation: dict[str, float]) -> tuple[float, float, float]:
    """Most likely cell centre for a single scan, scoring every cell of
    every map the scan heard: the summed Gaussian log-likelihood, in the
    order of maps, with ties to the lowest cell index."""
    used = [m for m in maps if m.ap_id in observation]
    if not used:
        raise ValueError("observation shares no sources with the maps")
    first = used[0]
    score = np.zeros(first.nx * first.ny)
    for m in used:
        if not m.congruent(first):
            raise ValueError("maps are not on the same grid")
        r = observation[m.ap_id]
        var = m.sigma ** 2
        score += -0.5 * np.log(2.0 * math.pi * var) - (r - m.mu) ** 2 / (2.0 * var)
    best = int(np.argmax(score))
    cx = first.x0 + (best % first.nx + 0.5) * first.cell
    cy = first.y0 + (best // first.nx + 0.5) * first.cell
    return cx, cy, float(score[best])


def kld_resample(poses, weights, cfg: KldConfig, rng: np.random.Generator) -> np.ndarray:
    """KLD resampling by binary search, recounting the occupied bins of
    all draws so far from scratch after every round of draws."""
    poses = np.asarray(poses, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not total > 0:
        raise ValueError("total particle weight is zero")
    cum = np.cumsum(weights / total)
    cum[np.flatnonzero(weights > 0)[-1]:] = 1.0
    bins = _bin_ids(poses, cfg)
    target = cfg.n_min
    parts: list[np.ndarray] = []
    drawn = 0
    while True:
        u = rng.random(target - drawn)
        idx = np.searchsorted(cum, u, side="right")
        np.clip(idx, 0, len(cum) - 1, out=idx)
        parts.append(idx)
        drawn = target
        k = np.unique(bins[np.concatenate(parts)]).size
        target = min(cfg.n_max, max(cfg.n_min, kld_required_particles(k, cfg.epsilon)))
        if drawn >= target:
            return np.concatenate(parts)


def uncontained(keys: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The segment-pair keys (a0, a1, b0, b1) that lie inside no other
    key, testing every ordered pair of keys in turn."""

    def contained(a, b) -> bool:
        # both index ranges of a lie inside those of b
        alo, ahi = a[0], a[1]
        blo, bhi = min(a[2], a[3]), max(a[2], a[3])
        olo, ohi = b[0], b[1]
        plo, phi = min(b[2], b[3]), max(b[2], b[3])
        return olo <= alo and ahi <= ohi and plo <= blo and bhi <= phi

    return [key for key in keys
            if not any(other != key and contained(key, other) for other in keys)]
