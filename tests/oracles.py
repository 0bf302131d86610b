"""Brute-force references for the library's batch kernels.

Most functions answer one question for one point, move, time or scan,
by plain loops over every wall, room and map where it needs them, so tests
can check the vectorised and grid-indexed code in floorsurvey against it.
The others are the straightforward forms of the angle factor, the
per-edge polygon test, the grid index's room table, KLD resampling, the
MSP links and containment filter, two ancestor-tree walks, the smoothing
mass, the per-epoch room labels, the GP predictions whose variance takes
one or two triangular solves per query chunk, the DTW whose rows pick
each step by an argmin and returns (i, j) pairs, the per-point warp-path
split, the per-epoch closure thinning, the index-walking straight-run
detector and the motion update that draws its two noise rows in two
calls, plus dead reckoning, a map's cell index and the empirical error
CDF, which only tests use.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from floorsurvey.filtering import (
    ConstraintSet,
    KldConfig,
    folded_normal_density,
    kld_required_particles,
    prune_smooth,
)
from floorsurvey.geometry import _MIXED, Floorplan, Pose2D, _rooms_by_polygon, wrap_angle
from floorsurvey.loopclosure import StepLoopClosure
from floorsurvey.pipeline import SurveyPoint
from floorsurvey.sensors import PdrTrajectory, StepEvent, StepNoiseModel, step_epoch_times
from floorsurvey.signalmap import GpParams, SignalMap
from floorsurvey.straightline import StraightLineParams


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


def polygon_fault(vertices) -> str | None:
    """What Floorplan says of a room with these vertices: "has a
    degenerate edge" if some edge's two ends are equal, "polygon is
    self-intersecting" if two non-adjacent edges touch (as
    _segments_touch), None for a simple polygon."""
    vs = np.asarray(vertices, dtype=float)
    n = len(vs)
    if any((vs[i] == vs[(i + 1) % n]).all() for i in range(n)):
        return "has a degenerate edge"
    for i in range(n):
        for j in range(i + 1, n):
            if j == (i + 1) % n or (j + 1) % n == i:
                continue
            if _segments_touch(vs[i], vs[(i + 1) % n], vs[j], vs[(j + 1) % n]):
                return "polygon is self-intersecting"
    return None


def polygon_is_simple(vertices) -> bool:
    return polygon_fault(vertices) is None


def points_in_polygon(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Bool per point for one polygon, one numpy pass per edge: the
    even-odd rule, with boundary points inside."""
    vs = np.asarray(vertices, dtype=float)
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    boundary = np.zeros(len(pts), dtype=bool)
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        o = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        boundary |= (o == 0) \
            & (np.minimum(x0, x1) <= x) & (x <= np.maximum(x0, x1)) \
            & (np.minimum(y0, y1) <= y) & (y <= np.maximum(y0, y1))
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < xc)
    return inside | boundary


def seed_in_room(fp: Floorplan, n: int, rng: np.random.Generator, room: int) -> np.ndarray:
    """filtering.seed_particles(start_room=room) by per-polygon rejection:
    batches of uniform draws in the room's box, each tested by
    points_in_polygon, then uniform headings."""
    vs = fp.rooms[room].vertices
    lo, hi = vs.min(axis=0), vs.max(axis=0)
    pts: list[np.ndarray] = []
    got = 0
    while got < n:
        batch = rng.random((max(2 * (n - got), 64), 2)) * (hi - lo) + lo
        pts.append(batch[points_in_polygon(vs, batch)])
        got += len(pts[-1])
    poses = np.empty((n, 3))
    poses[:, :2] = np.concatenate(pts)[:n]
    poses[:, 2] = rng.random(n) * (2.0 * math.pi) - math.pi
    return poses


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


def acute_angles_to_room_walls(fp: Floorplan, rooms: np.ndarray, headings: np.ndarray) -> np.ndarray:
    """geometry.acute_angles_to_room_walls in one (n, U) pass: each
    heading against its room's whole row of the angle table, then the
    minimum along the row."""
    rooms = np.asarray(rooms)
    headings = np.asarray(headings, dtype=float)
    out = np.full(len(rooms), np.nan)
    ok = rooms >= 0
    d = (headings[ok, None] - fp._edge_angles[rooms[ok]] + math.pi / 2.0) % math.pi - math.pi / 2.0
    out[ok] = np.abs(d).min(axis=1)
    return out


def grid_rooms(fp: Floorplan) -> np.ndarray:
    """The grid index's flat room table, from one exact room test of
    every free cell centre of the whole grid."""
    edges = fp._edges
    free = np.flatnonzero(~fp._near(np.hstack([np.minimum(edges[:, :2], edges[:, 2:]),
                                               np.maximum(edges[:, :2], edges[:, 2:])])))
    centres = fp._origin + (np.column_stack([free % fp._width, free // fp._width]) - 0.5) * fp._cell
    rooms = np.full(fp._rows * fp._width, _MIXED, dtype=int)
    rooms[free] = _rooms_by_polygon(fp, centres)
    return rooms


def reweight(fp: Floorplan, prev_pos, new_pose, step_index: int, constraints: ConstraintSet,
             anchors: dict[int, tuple[float, float]]) -> float:
    """Constraint weight of one particle's move at the given step in plan fp.

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


def propagate(poses, step: StepEvent, noise: StepNoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Turn-then-stride motion update whose heading and stride noise
    rows are two rng.normal calls, returned as an (N, 3) array."""
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    n = len(poses)
    e_theta = rng.normal(0.0, noise.sigma_dtheta, n)
    e_len = rng.normal(0.0, noise.sigma_length(step.length), n)
    theta = poses[:, 2] + step.dtheta + e_theta
    length = step.length + e_len
    return np.column_stack([poses[:, 0] + length * np.cos(theta),
                            poses[:, 1] + length * np.sin(theta), wrap_angle(theta)])


def dead_reckon(steps: list[StepEvent], start: Pose2D) -> PdrTrajectory:
    """Integrate step events from a start pose, turn first then stride."""
    n = len(steps)
    poses = np.empty((n + 1, 3))
    poses[0] = start.x, start.y, start.theta
    theta = start.theta
    for i, s in enumerate(steps):
        theta = theta + s.dtheta
        poses[i + 1, 0] = poses[i, 0] + s.length * math.cos(theta)
        poses[i + 1, 1] = poses[i, 1] + s.length * math.sin(theta)
        poses[i + 1, 2] = theta
    poses[:, 2] = wrap_angle(poses[:, 2])
    return PdrTrajectory(poses, step_epoch_times(steps))


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


def cell_index(m: SignalMap, x: float, y: float) -> int:
    """Index iy * nx + ix of the map cell that holds the point (x, y)."""
    ix = int((x - m.x0) // m.cell)
    iy = int((y - m.y0) // m.cell)
    if not (0 <= ix < m.nx and 0 <= iy < m.ny):
        raise ValueError(f"point ({x}, {y}) outside map extent")
    return iy * m.nx + ix


def position_one_shot(maps: list[SignalMap],
                      observation: dict[str, float]) -> tuple[float, float, float]:
    """Most likely cell centre for a single scan, on maps that all lie
    on the grid of the first, scoring every cell of every map the scan
    heard: the summed Gaussian log-likelihood, in the order of maps,
    with ties to the lowest cell index."""
    used = [m for m in maps if m.ap_id in observation]
    if not used:
        raise ValueError("observation shares no sources with the maps")
    for m in maps:
        if not m.congruent(maps[0]):
            raise ValueError("maps are not on the same grid")
    first = used[0]
    score = np.zeros(first.nx * first.ny)
    for m in used:
        r = observation[m.ap_id]
        var = m.sigma ** 2
        score += -0.5 * np.log(2.0 * math.pi * var) - (r - m.mu) ** 2 / (2.0 * var)
    best = int(np.argmax(score))
    cx = first.x0 + (best % first.nx + 0.5) * first.cell
    cy = first.y0 + (best // first.nx + 0.5) * first.cell
    return cx, cy, float(score[best])


def _sq_exp_kernel(a: np.ndarray, b: np.ndarray, length_scale: float,
                   sigma_f: float) -> np.ndarray:
    """sigma_f^2 exp(-d2 / (2 l^2)) over squared distances, with temporaries."""
    d2 = cdist(np.atleast_2d(a), np.atleast_2d(b), "sqeuclidean")
    return sigma_f ** 2 * np.exp(-d2 / (2.0 * length_scale ** 2))


def gp_predict(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray,
               params: GpParams, solves: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Exact GP posterior mean and predictive std (noise included), with
    the variance k(x*, x*) - k*' K^-1 k* per query chunk from the full
    Cholesky solve K^-1 k* (solves=2: a forward and a back substitution)
    or from v'v, v = L^-1 k* (solves=1: one forward substitution); shapes
    as in floorsurvey.signalmap.gp_predict."""
    query = np.atleast_2d(np.asarray(query, dtype=float))
    m = len(query)
    train_y = np.asarray(train_y, dtype=float)
    ys = train_y[:, None] if train_y.ndim == 1 else train_y
    mu = np.full((ys.shape[1], m), params.mean)
    sigma = np.full(m, math.sqrt(params.sigma_f ** 2 + params.sigma_n ** 2))
    if len(train_x) > 0:
        train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
        n = len(train_x)
        K = _sq_exp_kernel(train_x, train_x, params.length_scale, params.sigma_f)
        K[np.diag_indices(n)] += params.sigma_n ** 2 + 1e-10
        chol = cho_factor(K, lower=True)
        alphas = np.ascontiguousarray(cho_solve(chol, ys - params.mean).T)
        for lo in range(0, m, 2048):
            hi = min(m, lo + 2048)
            ks = _sq_exp_kernel(query[lo:hi], train_x, params.length_scale, params.sigma_f)
            # the library pads each chunk with zero rows to whole groups of 64
            # queries, and BLAS rounds a row of a product by the product's shape
            padded = np.concatenate([ks, np.zeros((-(hi - lo) % 64, n))])
            for row, alpha in zip(mu, alphas):
                row[lo:hi] = params.mean + (padded @ alpha)[:hi - lo]
            if solves == 2:
                var_f = params.sigma_f ** 2 - np.einsum("ij,ji->i", ks, cho_solve(chol, ks.T))
            else:
                v = solve_triangular(chol[0], ks.T, lower=True)
                var_f = params.sigma_f ** 2 - np.einsum("ij,ij->j", v, v)
            sigma[lo:hi] = np.sqrt(np.maximum(var_f, 0.0) + params.sigma_n ** 2)
    return (mu[0] if train_y.ndim == 1 else mu.T), sigma


def build_survey_points(result, log) -> list[SurveyPoint]:
    """pipeline.build_survey_points with one scalar np.searchsorted per
    magnetic sample and per WiFi observation."""
    times = result.times
    n = len(times)

    def epoch_of(t: float) -> int:
        return min(int(np.searchsorted(times, t, side="left")), n - 1)

    mag_acc = [[] for _ in range(n)]
    for m in log.mags:
        mag_acc[epoch_of(m.t)].append(m.magnitude)
    wifi_acc: list[dict[str, list[float]]] = [dict() for _ in range(n)]
    for ob in log.wifi:
        wifi_acc[epoch_of(ob.t)].setdefault(ob.ap_id, []).append(ob.rssi)
    points = []
    for e in range(n):
        x, y, theta = result.poses[e]
        mag = float(np.mean(mag_acc[e])) if mag_acc[e] else None
        wifi = {ap: float(np.mean(v)) for ap, v in sorted(wifi_acc[e].items())}
        points.append(SurveyPoint(e, float(times[e]), float(x), float(y), float(theta),
                                  result.rooms[e], mag, wifi))
    return points


def error_cdf(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF support points: sorted errors and P(error <= x)."""
    e = np.sort(np.asarray(errors, dtype=float))
    if len(e) == 0:
        raise ValueError("no errors given")
    return e, np.arange(1, len(e) + 1) / len(e)


def bin_ids(poses, cfg: KldConfig) -> list[tuple[float, float, int]]:
    """KLD histogram bin per pose as an exact (x, y, heading) row, with
    np.remainder for the heading: x and y bins anchored at the origin,
    heading bins modulo 2*pi."""
    bx = np.floor(poses[:, 0] / cfg.bin_x)
    by = np.floor(poses[:, 1] / cfg.bin_y)
    n_theta = max(1, math.ceil(2.0 * math.pi / cfg.bin_theta))
    bt = np.floor(np.remainder(poses[:, 2], 2.0 * math.pi) / cfg.bin_theta).astype(np.int64)
    bt = np.clip(bt, 0, n_theta - 1)
    return list(zip(bx.tolist(), by.tolist(), bt.tolist()))


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
    bins = bin_ids(poses, cfg)
    target = cfg.n_min
    parts: list[np.ndarray] = []
    drawn = 0
    while True:
        u = rng.random(target - drawn)
        idx = np.searchsorted(cum, u, side="right")
        np.clip(idx, 0, len(cum) - 1, out=idx)
        parts.append(idx)
        drawn = target
        k = len({bins[i] for i in np.concatenate(parts).tolist()})
        target = min(cfg.n_max, max(cfg.n_min, kld_required_particles(k, cfg.epsilon)))
        if drawn >= target:
            return np.concatenate(parts)


def obe_dtw(q: np.ndarray, r: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """floorsurvey.loopclosure.obe_dtw with each row's step chosen by an
    argmin over the stacked stay, diagonal and skip predecessors."""
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    n, m = len(q), len(r)
    cost = np.abs(q[:, None] - r[None, :])
    dist = np.empty((n, m))
    back = np.zeros((n, m), dtype=np.uint8)
    dist[0] = cost[0]
    for i in range(1, n):
        prev = dist[i - 1]
        diag = np.full(m, np.inf)
        diag[1:] = prev[:-1]
        skip = np.full(m, np.inf)
        skip[2:] = prev[:-2]
        stacked = np.stack([prev, diag, skip])
        choice = np.argmin(stacked, axis=0)  # ties prefer the smaller jump
        dist[i] = cost[i] + stacked[choice, np.arange(m)]
        back[i] = choice
    j = int(np.argmin(dist[n - 1]))
    total = float(dist[n - 1, j])
    path = [(n - 1, j)]
    for i in range(n - 1, 0, -1):
        j -= int(back[i, j])
        path.append((i - 1, j))
    path.reverse()
    return total / n, path


def split_warping_path(path: list[tuple[int, int]], max_flat: int) -> list[list[tuple[int, int]]]:
    """floorsurvey.loopclosure.split_warping_path on (i, j) pairs: mark
    each run of points sharing one reference index, then collect the
    unmarked points into fragments one point at a time."""
    n = len(path)
    removed = np.zeros(n, dtype=bool)
    s = 0
    while s < n:
        e = s
        while e < n and path[e][1] == path[s][1]:
            e += 1
        if e - s >= max_flat:
            removed[s:e] = True
        s = e
    subs: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] = []
    for k in range(n):
        if removed[k]:
            if current:
                subs.append(current)
                current = []
        else:
            current.append(path[k])
    if current:
        subs.append(current)
    return subs


def thin_to_steps(matches, step_times: np.ndarray) -> list[StepLoopClosure]:
    """floorsurvey.loopclosure.thin_to_steps with one interpolation and
    one nearest-epoch search per step epoch, collected in a set."""
    if not len(matches):
        return []
    step_times = np.asarray(step_times, dtype=float)
    ta, tb = np.asarray(matches, dtype=float).T
    order = np.argsort(ta)
    ta, tb = ta[order], tb[order]
    pairs = set()
    inside = np.nonzero((step_times >= ta[0]) & (step_times <= ta[-1]))[0]
    for e in inside:
        matched_t = np.interp(step_times[e], ta, tb)
        eb = int(np.argmin(np.abs(step_times - matched_t)))
        if eb == e:
            continue
        pairs.add((min(int(e), eb), max(int(e), eb)))
    return [StepLoopClosure(a, b) for a, b in sorted(pairs)]


def detect_straight_steps(steps: list[StepEvent], params: StraightLineParams) -> np.ndarray:
    """floorsurvey.straightline.detect_straight_steps walking each
    candidate run index by index."""
    n = len(steps)
    flags = np.zeros(n, dtype=bool)
    cand = np.array([abs(s.dtheta) < params.turn_threshold for s in steps], dtype=bool)
    i = 0
    while i < n:
        if not cand[i]:
            i += 1
            continue
        j = i
        while j < n and cand[j]:
            j += 1
        if j - i >= params.min_run:
            flags[i:j] = True
        i = j
    return flags


def msp_links(pos: np.ndarray, radius: float, min_separation: int) -> np.ndarray:
    """find_msps' link matrix from a full T x T table of index
    separations: within the radius and more than min_separation apart."""
    sep = np.abs(np.arange(len(pos))[:, None] - np.arange(len(pos))[None, :])
    return (cdist(pos, pos) <= radius) & (sep > min_separation)


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


def ancestor_positions(tree, idx, epochs) -> dict[int, np.ndarray]:
    """(x, y) at each of the given epochs of the ancestors of final-epoch
    particles idx, tracing each particle's parent chain back one epoch
    at a time."""
    last = len(tree) - 1
    out = {}
    for epoch in epochs:
        rows = np.empty((len(idx), 2))
        for j, i in enumerate(idx):
            i = int(i)
            for e in range(last, epoch, -1):
                i = int(tree[e].parents[i])
            rows[j] = tree[epoch].poses[i, :2]
        out[int(epoch)] = rows
    return out


def surviving(tree) -> list[np.ndarray]:
    """Per-epoch sorted indices of particles with a final-epoch
    descendant: np.unique of the survivors' parents, level by level."""
    last = len(tree) - 1
    keep = [np.zeros(0, dtype=np.int64)] * len(tree)
    keep[last] = np.arange(len(tree[last].poses), dtype=np.int64)
    for e in range(last - 1, -1, -1):
        keep[e] = np.unique(tree[e + 1].parents[keep[e + 1]])
    return keep


def smoothing_mass(tree) -> list[np.ndarray]:
    """Per-epoch smoothing weights: each final weight added into every
    ancestor with np.add.at, one epoch at a time, then normalised."""
    mass = [np.empty(0)] * len(tree)
    mass[-1] = tree[len(tree) - 1].weights.copy()
    for e in range(len(tree) - 1, 0, -1):
        mass[e - 1] = np.zeros(len(tree[e - 1].weights))
        np.add.at(mass[e - 1], tree[e].parents, mass[e])
    return [m / m.sum() for m in mass]


def room_labels(fp: Floorplan, tree) -> tuple[list, list[int]]:
    """Per-epoch room labels of a filter run, one epoch and one point at
    a time: the smoothed mean pose's room, unless the modal room of the
    survivors, weighted by smoothing mass, disagrees; then the map
    lineage's room.  Also returns the epochs that took the map room."""
    smooth = prune_smooth(tree)
    keep = surviving(tree)
    rooms, arbitrated = [], []
    for e, idx in enumerate(keep):
        votes = [-1 if r is None else r
                 for r in (containing_room(fp, p) for p in tree[e].poses[idx, :2])]
        mass = np.bincount(np.array(votes, dtype=int) + 1, weights=smooth.mass[e][idx],
                           minlength=len(fp.rooms) + 1)
        mode = int(np.argmax(mass)) - 1
        mode_room = None if mode < 0 else mode
        mean_room = containing_room(fp, smooth.mean_poses[e, :2])
        if mean_room == mode_room:
            rooms.append(mean_room)
        else:
            rooms.append(containing_room(fp, smooth.map_poses[e, :2]))
            arbitrated.append(e)
    return rooms, arbitrated
