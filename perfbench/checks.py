"""Output checks for the survey benchmark.

Every check recomputes what it needs from the inputs, apart from the
program: its own segment-crossing test, its own GP posterior by a dense
solve, its own likelihood scores.  None compares against stored output.
Each check raises CheckFailed with a message naming what went wrong.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- trajectories -----------------------------------------------------------

def check_trajectory(poses: np.ndarray, n_steps: int) -> None:
    """A final trajectory has one finite (x, y, theta) per epoch."""
    poses = np.asarray(poses, dtype=float)
    require(poses.shape == (n_steps + 1, 3),
            f"trajectory has shape {poses.shape}, expected {(n_steps + 1, 3)}")
    require(bool(np.isfinite(poses).all()),
            f"trajectory has {int((~np.isfinite(poses)).any(axis=1).sum())} non-finite poses")


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def move_touches_wall(a, b, wall) -> bool:
    """Conservative crossing rule: a proper intersection, or any endpoint
    of either segment lying on the other, counts as crossing."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy, dx, dy = (float(v) for v in wall)
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and _on_segment(ax, ay, bx, by, cx, cy))
            or (o2 == 0 and _on_segment(ax, ay, bx, by, dx, dy))
            or (o3 == 0 and _on_segment(cx, cy, dx, dy, ax, ay))
            or (o4 == 0 and _on_segment(cx, cy, dx, dy, bx, by)))


def check_no_wall_crossing(map_poses: np.ndarray, walls: np.ndarray) -> None:
    """The map lineage never moves through a wall between consecutive
    epochs: a crossing move gets zero weight and is never drawn again."""
    xy = np.asarray(map_poses, dtype=float)[:, :2]
    walls = np.asarray(walls, dtype=float).reshape(-1, 4)
    lo_w = np.minimum(walls[:, [0, 1]], walls[:, [2, 3]])
    hi_w = np.maximum(walls[:, [0, 1]], walls[:, [2, 3]])
    for e in range(len(xy) - 1):
        a, b = xy[e], xy[e + 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        near = np.nonzero((lo_w <= hi).all(axis=1) & (hi_w >= lo).all(axis=1))[0]
        for w in near:
            require(not move_touches_wall(a, b, walls[w]),
                    f"map lineage crosses wall {int(w)} between epochs {e} and {e + 1}")


def position_errors(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    est = np.asarray(estimate, dtype=float)[:, :2]
    ref = np.asarray(truth, dtype=float)[:, :2]
    require(est.shape == ref.shape, f"epoch count mismatch: {est.shape} vs {ref.shape}")
    return np.sqrt(((est - ref) ** 2).sum(axis=1))


def check_accuracy(final_p90: float, limit: float = 1.5,
                   first_pass_p90: float | None = None) -> None:
    """The final trajectory's p90 error is within the limit and, where a
    first-pass figure is given, below it."""
    require(final_p90 <= limit, f"trajectory p90 error {final_p90:.3f} m exceeds {limit} m")
    if first_pass_p90 is not None:
        require(final_p90 < first_pass_p90,
                f"second pass p90 {final_p90:.3f} m is not below first pass {first_pass_p90:.3f} m")


def check_closures(pairs: list[tuple[int, int]], truth_xy: np.ndarray,
                   radius: float = 3.0, share: float = 0.7) -> None:
    """At least the given share of accepted closures pair epochs whose
    true positions lie within radius of each other."""
    require(len(pairs) > 0, "no loop closures were accepted")
    truth_xy = np.asarray(truth_xy, dtype=float)
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    d = np.sqrt(((truth_xy[a] - truth_xy[b]) ** 2).sum(axis=1))
    got = float(np.mean(d <= radius))
    require(got >= share,
            f"only {got:.2f} of {len(pairs)} closures pair true positions within {radius} m")


# --- rooms ------------------------------------------------------------------

def point_in_room(vertices: np.ndarray, x: float, y: float) -> bool:
    """Ray casting, with points on an edge counting as inside."""
    vs = np.asarray(vertices, dtype=float)
    inside = False
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        if _orient(x0, y0, x1, y1, x, y) == 0 and _on_segment(x0, y0, x1, y1, x, y):
            return True
        if (y0 > y) != (y1 > y) and x < x0 + (y - y0) * (x1 - x0) / (y1 - y0):
            inside = not inside
    return inside


def room_of(rooms: list[np.ndarray], p) -> int:
    """Lowest-index room containing p, or -1."""
    for rid, vs in enumerate(rooms):
        if point_in_room(vs, float(p[0]), float(p[1])):
            return rid
    return -1


def distance_to_boundaries(rooms: list[np.ndarray], p) -> float:
    """Distance from p to the nearest edge of any room polygon."""
    p = np.asarray(p, dtype=float)[:2]
    best = math.inf
    for vs in rooms:
        vs = np.asarray(vs, dtype=float)
        a = vs
        d = np.roll(vs, -1, axis=0) - vs
        t = np.clip(((p - a) * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
        foot = a + t[:, None] * d
        best = min(best, float(np.sqrt(((foot - p) ** 2).sum(axis=1)).min()))
    return best


def room_label_misses(labels: list, truth_xy: np.ndarray, rooms: list[np.ndarray]) -> list:
    """(epoch, distance of the true position to the nearest room boundary)
    for every epoch whose label differs from the true room."""
    out = []
    for e, label in enumerate(labels):
        if (-1 if label is None else int(label)) != room_of(rooms, truth_xy[e]):
            out.append((e, distance_to_boundaries(rooms, truth_xy[e])))
    return out


def check_room_labels(misses: list, stride: float) -> None:
    """Every epoch whose room label differs from the true room lies
    within one stride of a room boundary."""
    for e, depth in misses:
        require(depth <= stride, f"epoch {e} is mislabelled {depth:.2f} m from any room boundary, "
                                 f"more than one stride ({stride} m)")


# --- signal maps and positioning --------------------------------------------

def dense_gp_posterior(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray,
                       length_scale: float, sigma_f: float, sigma_n: float,
                       mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and predictive std (noise included) of a GP with a
    squared-exponential kernel, by dense linear solves."""
    X = np.asarray(train_x, dtype=float).reshape(-1, 2)
    Q = np.asarray(query, dtype=float).reshape(-1, 2)

    def kern(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return sigma_f ** 2 * np.exp(-0.5 * d2 / length_scale ** 2)

    K = kern(X, X) + sigma_n ** 2 * np.eye(len(X))
    ks = kern(X, Q)
    mu = mean + ks.T @ np.linalg.solve(K, np.asarray(train_y, dtype=float) - mean)
    var = sigma_f ** 2 - (ks * np.linalg.solve(K, ks)).sum(axis=0)
    return mu, np.sqrt(np.maximum(var, 0.0) + sigma_n ** 2)


def check_gp_map(mu: np.ndarray, sigma: np.ndarray, centers: np.ndarray, cells: np.ndarray,
                 train_x: np.ndarray, train_y: np.ndarray, params, tol: float = 1e-6) -> None:
    """Sampled cells of a fitted map agree with the dense posterior."""
    want_mu, want_sd = dense_gp_posterior(train_x, train_y, centers[cells],
                                          params.length_scale, params.sigma_f,
                                          params.sigma_n, params.mean)
    err_mu = float(np.abs(np.asarray(mu)[cells] - want_mu).max())
    err_sd = float(np.abs(np.asarray(sigma)[cells] - want_sd).max())
    require(err_mu <= tol, f"GP mean differs from the dense posterior by {err_mu:.3g}")
    require(err_sd <= tol, f"GP std differs from the dense posterior by {err_sd:.3g}")


def log_likelihoods(mus: np.ndarray, sigmas: np.ndarray, reading: np.ndarray) -> np.ndarray:
    """Summed Gaussian log-density per cell; mus and sigmas are
    (sources, cells), reading is (sources,)."""
    z = (np.asarray(reading, dtype=float)[:, None] - mus) / sigmas
    return (-np.log(sigmas) - 0.5 * math.log(2.0 * math.pi) - 0.5 * z * z).sum(axis=0)


def check_fix(cell: int, mus: np.ndarray, sigmas: np.ndarray, reading: np.ndarray,
              tol: float = 1e-9) -> None:
    """The fix is the lowest-index cell with the highest score.

    Scores recomputed here may differ from the program's in the last
    bits, so a cell within tol of the best counts as best; an exact tie
    with a lower-index cell still fails.
    """
    s = log_likelihoods(mus, sigmas, reading)
    best = float(s.max())
    slack = tol * (1.0 + abs(best))
    require(s[cell] >= best - slack,
            f"fix cell {cell} scores {s[cell]:.6f}, best is {best:.6f} at cell {int(np.argmax(s))}")
    lower = s[:cell]
    require(not bool((lower > s[cell] + slack).any()) and not bool((lower == s[cell]).any()),
            f"fix cell {cell} is not the lowest-index best cell")


def check_near_beats_far(errors: np.ndarray, dist_to_path: np.ndarray,
                         near: float = 2.0) -> tuple[float, float]:
    """On path maps, fixes near the walked path are better than the rest."""
    errors = np.asarray(errors, dtype=float)
    sel = np.asarray(dist_to_path) <= near
    require(sel.any() and (~sel).any(), "need fixes both near and far from the path")
    med_near = float(np.median(errors[sel]))
    med_far = float(np.median(errors[~sel]))
    require(med_near < med_far,
            f"median fix error near the path {med_near:.3f} m is not below far {med_far:.3f} m")
    return med_near, med_far


def distance_to_polyline(pts: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest segment of a polyline."""
    pts = np.asarray(pts, dtype=float)
    a = np.asarray(path, dtype=float)[:-1, :2]
    d = np.asarray(path, dtype=float)[1:, :2] - a
    dd = np.maximum((d * d).sum(axis=1), 1e-300)
    out = np.full(len(pts), np.inf)
    for lo in range(0, len(pts), 512):
        p = pts[lo:lo + 512, None, :]
        t = np.clip(((p - a) * d).sum(axis=2) / dd, 0.0, 1.0)
        foot = a + t[..., None] * d
        out[lo:lo + 512] = np.sqrt(((foot - p) ** 2).sum(axis=2)).min(axis=1)
    return out


# --- repeatability ----------------------------------------------------------

def digest(*arrays) -> str:
    """SHA-256 over the bytes of the given arrays, with their shapes."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def check_repeat(previous: str | None, current: str) -> None:
    """A run at a seed seen before gives the same output digest."""
    require(previous is None or previous == current,
            f"outputs differ from an earlier run at the same seed "
            f"({previous[:12] if previous else ''} vs {current[:12]})")
