"""Loop-closure detection from a first-pass trajectory and magnetometer data.

Revisited stretches of the walk are proposed geometrically (maximal
segment pairs of trajectory indices that stay within a link radius),
then matched sample-by-sample with an open-begin/open-end dynamic
time warp over magnetic field magnitude, split where the warp degenerates,
validated on shape criteria, and finally thinned to step-level closure
pairs the second filter pass can consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .sensors import MagSample, interpolate_positions

RESAMPLE_HZ = 10.0  # uniform magnitude rate of each matched window before warping


@dataclass(frozen=True)
class StepLoopClosure:
    """The walk revisited epoch_a's position at epoch_b (epoch_a < epoch_b)."""

    epoch_a: int
    epoch_b: int

    def __post_init__(self):
        if not 0 <= self.epoch_a < self.epoch_b:
            raise ValueError(f"need 0 <= epoch_a < epoch_b, got ({self.epoch_a}, {self.epoch_b})")


@dataclass(frozen=True)
class SegmentPair:
    """Aligned trajectory index ranges; side b may run backwards."""

    a_start: int
    a_end: int
    b_start: int
    b_end: int

    @property
    def decreasing(self) -> bool:
        return self.b_end < self.b_start


@dataclass
class MspParams:
    radius: float = 3.0       # metres; link indices whose positions are this close
    min_separation: int = 15  # steps; closer indices are never linked

    def __post_init__(self):
        # a NaN radius links nothing; a negative separation links an index to itself
        if not (0.0 < self.radius < math.inf and self.min_separation >= 0):
            raise ValueError(f"radius must be positive and finite and min_separation non-negative, "
                             f"got {self.radius} and {self.min_separation}")


@dataclass
class ValidationParams:
    min_length: float = 2.5     # metres; longer matched side must exceed this
    max_ratio: float = 2.0      # longer/shorter matched length, strict
    max_mean_dist: float = 3.0  # metres; mean matched-point separation, inclusive
    max_dist_var: float = 1.0   # metres^2; separation variance, inclusive
    max_flat: int = 3           # warp-path points sharing one reference sample

    def __post_init__(self):
        # a NaN threshold would pass or fail every match unnoticed
        for name in ("min_length", "max_ratio", "max_mean_dist", "max_dist_var"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if self.max_flat < 2:
            raise ValueError(f"max_flat must be >= 2, got {self.max_flat}")


@dataclass
class RejectedMatch:
    epoch_a: int
    epoch_b: int
    reason: str


@dataclass
class LoopClosureResult:
    closures: list[StepLoopClosure]
    rejected: list[RejectedMatch]
    msps: list[SegmentPair]


_SWEEP_BLOCK = 64  # vectors tested together in the containment sweep


def _uncontained(keys: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The distinct keys (a0, a1, b0, b1) not contained in another key,
    in order.

    Key r lies in key c when c's vector (-a0, a1, -min b, max b) is >=
    r's in every component (either direction of a b range counts), so a
    key survives iff its vector is maximal and no other key shares it.
    A sweep over the distinct vectors in descending lexicographic order,
    a block at a time, meets every dominating vector first; each block is
    tested against itself and the maxima kept so far (Kung, Luccio &
    Preparata 1975), so memory stays O(K).
    """
    if not keys:
        return []
    k = np.array(keys, dtype=np.int64)
    vec = np.column_stack([-k[:, 0], k[:, 1], -k[:, 2:].min(axis=1), k[:, 2:].max(axis=1)])
    vals, inv, count = np.unique(vec, axis=0, return_inverse=True, return_counts=True)
    vals = np.ascontiguousarray(vals.T)
    maxima = vals[:, :0]
    keep = count == 1
    for hi in range(len(count), 0, -_SWEEP_BLOCK):
        lo = max(hi - _SWEEP_BLOCK, 0)
        block = vals[:, lo:hi]
        tops = np.concatenate([maxima, block], axis=1)
        inside = tops[0][:, None] >= block[0]
        for t, v in zip(tops[1:], block[1:]):
            inside &= t[:, None] >= v
        np.fill_diagonal(inside[maxima.shape[1]:], False)  # a vector does not contain itself
        new = ~inside.any(axis=0)
        maxima = np.concatenate([maxima, block[:, new]], axis=1)
        keep[lo:hi] &= new
    return [key for key, ok in zip(keys, keep[inv.ravel()]) if ok]


def find_msps(positions: np.ndarray, params: MspParams | None = None) -> list[SegmentPair]:
    """Maximal segment pairs of a trajectory's position sequence.

    Each index links to every other index within the link radius whose
    separation exceeds the temporal guard; a linear pass then grows
    aligned pairs while the linked counter-indices continue in sequence
    (advancing preferred, repeating allowed).  Mirrored duplicates and
    pairs contained in a longer pair are dropped.
    """
    p = params or MspParams()
    pos = np.asarray(positions, dtype=float)[:, :2]
    n = len(pos)
    if n < 2:
        return []
    link = cdist(pos, pos) <= p.radius
    # keep |i - j| > min_separation: the two triangles off the band
    link = np.triu(link, p.min_separation + 1) | np.tril(link, -p.min_separation - 1)

    found: dict[tuple[int, int, int, int], None] = {}
    for i0 in range(n):
        js = np.nonzero(link[i0])[0]
        for j0 in js:
            for dr in (1, -1):
                back = j0 - dr
                if i0 > 0 and (link[i0 - 1, j0] or (0 <= back < n and link[i0 - 1, back])):
                    continue  # reachable from an earlier start; that pair contains this one
                i, j = i0, int(j0)
                while i + 1 < n:
                    nj = j + dr
                    if 0 <= nj < n and link[i + 1, nj]:
                        i, j = i + 1, nj
                    elif link[i + 1, j]:
                        i += 1
                    else:
                        break
                if i == i0:
                    continue
                if i0 <= j0:
                    key = (i0, i, int(j0), j)
                else:
                    key = (j, int(j0), i, i0)
                found[key] = None

    out = [SegmentPair(*key) for key in _uncontained(list(found))]
    out.sort(key=lambda s: (s.a_start, s.a_end, s.b_start, s.b_end))
    return out


def obe_dtw(q: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """Open-begin/open-end dynamic time warp of query q onto reference r.

    Asymmetric step pattern: (i, j) is reached from (i-1, j), (i-1, j-1)
    or (i-1, j-2), so every query sample matches exactly one reference
    sample and the reference index never decreases.  The match may start
    and end anywhere on r.  Returns the per-sample-normalised absolute
    distance and the warp path: the matched reference index of each
    query sample.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if q.size == 0 or r.size == 0:
        raise ValueError("empty input sequence")
    n, m = len(q), len(r)
    cost = np.abs(q[:, None] - r[None, :])
    dist = np.empty((n, m))
    back = np.zeros((n, m), dtype=np.uint8)
    dist[0] = cost[0]
    diag = np.full(m, np.inf)  # the previous row shifted by one and by two
    skip = np.full(m, np.inf)
    best = np.empty(m)
    for i in range(1, n):
        prev = dist[i - 1]
        diag[1:] = prev[:-1]
        skip[2:] = prev[:-2]
        # ties prefer the smaller jump: stay, then diagonal, then skip
        np.minimum(prev, diag, out=best)
        choice = back[i]
        choice[diag < prev] = 1
        choice[skip < best] = 2
        np.minimum(best, skip, out=best)
        np.add(cost[i], best, out=dist[i])
    j = int(np.argmin(dist[n - 1]))
    total = float(dist[n - 1, j])
    path = np.empty(n, dtype=np.intp)
    path[-1] = j
    for i in range(n - 1, 0, -1):
        j -= int(back[i, j])
        path[i - 1] = j
    return total / n, path


def split_warping_path(path: np.ndarray, max_flat: int = 3) -> list[tuple[int, int]]:
    """Split a warp path at degenerate flat stretches.

    Maximal runs of at least max_flat consecutive rows sharing one
    reference index are removed; the surviving contiguous fragments are
    returned as [lo, hi) row ranges.
    """
    if max_flat < 2:
        raise ValueError(f"max_flat must be >= 2, got {max_flat}")
    n = len(path)
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(path)) + 1, [n]))  # runs of one index
    flat = np.diff(cuts) >= max_flat
    lo = np.concatenate(([0], cuts[1:][flat]))
    hi = np.concatenate((cuts[:-1][flat], [n]))
    keep = lo < hi
    return list(zip(lo[keep].tolist(), hi[keep].tolist()))


@dataclass
class SubMatching:
    """A contiguous matched stretch with positions along the trajectory."""

    pos_a: np.ndarray  # (M, 2)
    pos_b: np.ndarray  # (M, 2)
    length_a: float    # metres along the trajectory
    length_b: float


def validate_closure(sub: SubMatching, params: ValidationParams | None = None) -> tuple[bool, str]:
    """Accept or reject a sub-matching; the reason names the first
    failing criterion (min_length, ratio, mean_dist, dist_var)."""
    p = params or ValidationParams()
    longer = max(sub.length_a, sub.length_b)
    shorter = min(sub.length_a, sub.length_b)
    if not longer > p.min_length:
        return False, "min_length"
    ratio = longer / shorter if shorter > 0 else math.inf
    if not ratio < p.max_ratio:
        return False, "ratio"
    d = np.hypot(sub.pos_a[:, 0] - sub.pos_b[:, 0], sub.pos_a[:, 1] - sub.pos_b[:, 1])
    if d.mean() > p.max_mean_dist:
        return False, "mean_dist"
    if d.var() > p.max_dist_var:
        return False, "dist_var"
    return True, ""


def thin_to_steps(matches, step_times: np.ndarray) -> list[StepLoopClosure]:
    """Thin dense matched sample pairs (t_a, t_b) to step-level closures.

    For every step epoch whose time falls inside the matched interval on
    side a, the matched time on side b is interpolated and snapped to
    the nearest step epoch; duplicates collapse and pairs are ordered
    epoch_a < epoch_b.
    """
    if not len(matches):
        return []
    step_times = np.asarray(step_times, dtype=float)
    ta, tb = np.asarray(matches, dtype=float).T
    order = np.argsort(ta)
    ta, tb = ta[order], tb[order]
    e = np.flatnonzero((step_times >= ta[0]) & (step_times <= ta[-1]))
    matched_t = np.interp(step_times[e], ta, tb)
    eb = np.argmin(np.abs(step_times - matched_t[:, None]), axis=1)
    pairs = np.column_stack([np.minimum(e, eb), np.maximum(e, eb)])[e != eb]
    return [StepLoopClosure(a, b) for a, b in np.unique(pairs, axis=0).tolist()]


def _magnitude_series(mags: list[MagSample]) -> tuple[np.ndarray, np.ndarray]:
    t = np.array([m.t for m in mags], dtype=float)
    v = np.array([m.magnitude for m in mags], dtype=float)
    order = np.argsort(t, kind="stable")
    return t[order], v[order]


def _resample_window(t: np.ndarray, v: np.ndarray, t0: float,
                     t1: float) -> tuple[np.ndarray, np.ndarray] | None:
    t0 = max(t0, float(t[0]))
    t1 = min(t1, float(t[-1]))
    count = int(math.floor((t1 - t0) * RESAMPLE_HZ)) + 1
    if count < 2:
        return None
    grid = t0 + np.arange(count) / RESAMPLE_HZ
    return grid, np.interp(grid, t, v)


def _arc_lengths(traj) -> np.ndarray:
    pos = traj.poses
    seg = np.hypot(np.diff(pos[:, 0]), np.diff(pos[:, 1]))
    return np.concatenate(([0.0], np.cumsum(seg)))


def detect_loop_closures(traj, mags: list[MagSample], msp_params: MspParams | None = None,
                         validation: ValidationParams | None = None,
                         validate: bool = True) -> LoopClosureResult:
    """Full detection pipeline over a trajectory and its magnetometer log.

    traj needs .poses and .times, as sensors.interpolate_positions reads
    them (first-pass filter output or a dead-reckoned trajectory).
    Magnitudes are resampled to a uniform rate per matched window before
    warping; a decreasing counter-segment is matched against its
    reversal.  With validate=False every sub-matching is accepted
    (diagnostic mode).
    """
    mp = msp_params or MspParams()
    vp = validation or ValidationParams()
    if len(mags) < 2:
        return LoopClosureResult([], [], [])
    mt, mv = _magnitude_series(mags)
    times = np.asarray(traj.times, dtype=float)
    arcs = _arc_lengths(traj)
    pairs = find_msps(traj.poses, mp)
    accepted: set[tuple[int, int]] = set()
    rejected: list[RejectedMatch] = []
    for pair in pairs:
        qa = _resample_window(mt, mv, times[pair.a_start], times[pair.a_end])
        blo = min(pair.b_start, pair.b_end)
        bhi = max(pair.b_start, pair.b_end)
        rb = _resample_window(mt, mv, times[blo], times[bhi])
        if qa is None or rb is None:
            continue
        grid_a, vals_a = qa
        grid_b, vals_b = rb
        if pair.decreasing:
            grid_b = grid_b[::-1]
            vals_b = vals_b[::-1]
        # a grid can pass the last epoch by one rounding; np.interp holds
        # the end position there, where interpolate_positions would refuse it
        pos_a = interpolate_positions(traj, np.minimum(grid_a, times[-1]))
        pos_b = interpolate_positions(traj, np.minimum(grid_b, times[-1]))
        _, path = obe_dtw(vals_a, vals_b)
        for lo, hi in split_warping_path(path, vp.max_flat):
            jb = path[lo:hi]
            t_a = grid_a[lo:hi]
            t_b = grid_b[jb]
            # times run monotonically along a warp path, so its ends bound them
            arc = np.interp([t_a[0], t_a[-1], t_b[0], t_b[-1]], times, arcs)
            sm = SubMatching(pos_a[lo:hi], pos_b[jb],
                             abs(float(arc[1] - arc[0])), abs(float(arc[3] - arc[2])))
            ok, reason = (True, "") if not validate else validate_closure(sm, vp)
            if ok:
                for c in thin_to_steps(np.column_stack([t_a, t_b]), times):
                    accepted.add((c.epoch_a, c.epoch_b))
            else:
                mid = (hi - lo) // 2
                ea = int(np.argmin(np.abs(times - t_a[mid])))
                eb = int(np.argmin(np.abs(times - t_b[mid])))
                if ea != eb:
                    rejected.append(RejectedMatch(min(ea, eb), max(ea, eb), reason))

    closures = [StepLoopClosure(a, b) for a, b in sorted(accepted)]
    return LoopClosureResult(closures, rejected, pairs)
