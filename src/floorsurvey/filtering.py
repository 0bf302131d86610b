"""Constraint-weighted particle filtering with KLD-adaptive resampling.

One filter core serves both passes of the survey pipeline: the first
pass weights particles with wall crossings only, the second adds
straight-line and loop-closure constraints.  Particle histories form an
ancestor tree; the smoother prunes lineages that leave no descendants
and averages what remains per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Floorplan,
    Pose2D,
    acute_angles_to_room_walls,
    containing_room,
    containing_rooms,
    points_in_polygon,
    rooms_in_cells,
    segments_cross_walls,
    wrap_angle,
)
from .loopclosure import StepLoopClosure
from .sensors import StepEvent, StepNoiseModel, step_epoch_times

TAU = 2.0 * math.pi
COMPACT_EVERY = 64  # epochs between ancestor-tree compactions; 0 never compacts


class FilterLostError(RuntimeError):
    """All particle weights collapsed to zero at some epoch."""

    def __init__(self, epoch: int, label: str = "filter"):
        super().__init__(f"{label}: particle weights collapsed to zero at epoch {epoch}")
        self.epoch = epoch
        self.label = label


@dataclass
class KldConfig:
    """Histogram bin sizes and stopping parameters for KLD resampling."""

    bin_x: float = 2.0
    bin_y: float = 2.0
    bin_theta: float = math.radians(30.0)
    epsilon: float = 0.0109238
    n_min: int = 504
    cap_factor: int = 10

    def __post_init__(self):
        for name in ("bin_x", "bin_y", "bin_theta", "epsilon"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.n_min < 1 or self.cap_factor < 1:
            raise ValueError(f"n_min and cap_factor must be at least 1, "
                             f"got {self.n_min} and {self.cap_factor}")

    @property
    def n_max(self) -> int:
        return self.cap_factor * self.n_min


def pf1_kld_config() -> KldConfig:
    """Coarse-bin configuration for the wall-constraint pass."""
    return KldConfig()


def pf2_kld_config() -> KldConfig:
    """Fine-bin configuration for the fully constrained pass."""
    return KldConfig(bin_x=0.5, bin_y=0.5, bin_theta=math.radians(1.0), n_min=16433)


def kld_required_particles(k: int, epsilon: float) -> int:
    """Draws needed before a cloud occupying k histogram bins is sampled
    within KL divergence epsilon of the underlying distribution.

    First-order form of the sample-size bound, rounded up.  The
    calibrated epsilon already encodes the confidence level (the two
    larger reference counts in use, 504 and 16433, follow from exactly
    this form).  Returns 0 for k < 2, where the bound is undefined and
    callers fall back to their configured floor.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if k < 2:
        return 0
    return math.ceil((k - 1) / (2.0 * epsilon))


def folded_normal_density(x, sigma: float):
    """Density of |N(0, sigma^2)| at x; peaks at sqrt(2)/(sigma*sqrt(pi))."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.abs(np.asarray(x, dtype=float))
    out = math.sqrt(2.0) / (sigma * math.sqrt(math.pi)) * np.exp(-(x * x) / (2.0 * sigma * sigma))
    if out.ndim == 0:
        return float(out)
    return out


def propagate(poses, step: StepEvent, noise: StepNoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Turn-then-stride motion update with sampled step noise.

    poses is (N, 3); heading noise and stride noise are drawn even when
    their sigmas are zero so the random stream stays aligned across
    configurations.  Returns the (N, 3) view of a (3, N) block.
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    n = len(poses)
    e_theta = rng.normal(0.0, noise.sigma_dtheta, n)
    e_len = rng.normal(0.0, noise.sigma_length(step.length), n)
    theta = poses[:, 2] + step.dtheta + e_theta
    length = step.length + e_len
    out = np.empty((3, n))
    np.cos(theta, out=out[0])
    np.sin(theta, out=out[1])
    out[:2] *= length
    out[0] += poses[:, 0]
    out[1] += poses[:, 1]
    out[2] = wrap_angle(theta)
    return out.T


@dataclass
class ConstraintSet:
    """Which constraint classes apply during reweighting, and their scales.

    Straight-line weighting applies only to steps flagged in
    straight_flags; each loop closure applies at its epoch_b, against the
    particle's own ancestor at its epoch_a.
    """

    floorplan: Floorplan
    straight_flags: np.ndarray | None = None
    closures: list[StepLoopClosure] = field(default_factory=list)
    sigma_alpha: float = math.radians(2.5)
    sigma_closure: float = 1.0

    def __post_init__(self):
        self._by_b: dict[int, list[int]] = {}
        for c in self.closures:
            self._by_b.setdefault(c.epoch_b, []).append(c.epoch_a)

    def closures_at(self, epoch_b: int) -> list[int]:
        """Anchor epochs of all closures that constrain the given epoch."""
        return self._by_b.get(epoch_b, [])


def _reweight_batch(prev_xy: np.ndarray, prev_cells: np.ndarray, new_poses: np.ndarray,
                    new_cells: np.ndarray, step_index: int, constraints: ConstraintSet,
                    anchors: dict[int, np.ndarray]) -> np.ndarray:
    """Constraint weight of each particle's move prev_xy -> new_poses at
    the given step; prev_cells and new_cells are the grid cells of the
    two ends (Floorplan.cells).

    Order: start at 1; a wall crossing zeroes the weight; a straight-line
    step multiplies by the folded-normal density of the acute angle to
    the most parallel wall of the containing room (no factor outside
    every room); each loop closure ending at this step multiplies by the
    folded-normal density of the distance to the particle's anchor.
    anchors maps the anchor epoch of each such closure to per-particle
    (x, y) positions aligned with the cloud.
    """
    fp = constraints.floorplan
    w = np.ones(len(new_poses))
    new_xy = new_poses[:, :2]
    if len(fp.walls):
        # moves the grid index clears cannot touch a wall; test the rest
        test = np.flatnonzero(~fp.clear_between_cells(prev_cells, new_cells))
        if len(test):
            p0s, p1s = _take(prev_xy, test), _take(new_xy, test)
            lo = np.minimum(p0s.min(axis=0), p1s.min(axis=0))
            hi = np.maximum(p0s.max(axis=0), p1s.max(axis=0))
            near = fp.walls_near(lo, hi)
            if len(near):
                w[test[segments_cross_walls(p0s, p1s, fp.walls[near])]] = 0.0
    flags = constraints.straight_flags
    if flags is not None and 0 <= step_index < len(flags) and flags[step_index]:
        # dead weights stay 0.0 * factor = 0.0
        alphas = acute_angles_to_room_walls(fp, rooms_in_cells(fp, new_xy, new_cells), new_poses[:, 2])
        ok = ~np.isnan(alphas)
        w[ok] *= folded_normal_density(alphas[ok], constraints.sigma_alpha)
    for epoch_a in constraints.closures_at(step_index + 1):
        anchor = anchors[epoch_a]
        d = np.hypot(new_xy[:, 0] - anchor[:, 0], new_xy[:, 1] - anchor[:, 1])
        w *= folded_normal_density(d, constraints.sigma_closure)
    return w


_BOFF = 1 << 20  # supports |bin index| up to ~10^6


def _bin_ids(poses: np.ndarray, cfg: KldConfig) -> np.ndarray:
    """Histogram bin id per pose; x/y bins anchored at the origin, theta
    binned modulo 2*pi."""
    bx = np.floor(poses[:, 0] / cfg.bin_x).astype(np.int64)
    by = np.floor(poses[:, 1] / cfg.bin_y).astype(np.int64)
    n_theta = max(1, int(math.ceil(TAU / cfg.bin_theta)))
    bt = np.floor((poses[:, 2] % TAU) / cfg.bin_theta).astype(np.int64)
    np.clip(bt, 0, n_theta - 1, out=bt)
    return ((bx + _BOFF) * (2 * _BOFF) + (by + _BOFF)) * (n_theta + 1) + bt


_GUIDE_STEPS = 4  # subset advances before the last draws fall back to searchsorted


def _buckets(x: np.ndarray, n: int) -> np.ndarray:
    """Guide bucket min(floor(x * n), n - 1) of each x in [0, 1].
    Rounding x * n is monotone in x, and so is the bucket."""
    return np.minimum((x * n).astype(np.intp), n - 1)


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """Guide table of a cumulative distribution (Chen & Asau 1974):
    guide[j] counts the entries of cum whose bucket lies below j."""
    n = len(cum)
    guide = np.zeros(n, dtype=np.intp)
    np.cumsum(np.bincount(_buckets(cum, n), minlength=n)[:-1], out=guide[1:])
    return guide


def _guide_draws(cum: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cum, u, side="right") through the guide table, for
    uniforms u in [0, 1).

    Each uniform starts at guide[j] for its own bucket j.  The same
    monotone bucket function maps u and every cum entry, so an entry
    before the start, whose bucket is below j, has cum < u: no rounding
    can skip the answer.  Exact comparisons then advance past every
    cum <= u, and cum[-1] = 1 > u stops them inside the array.  Draws
    still short after a few advances (a bucket crowded with tiny
    weights) take the binary search.
    """
    idx = guide[_buckets(u, len(cum))]
    # about half the draws pass one entry: one whole-vector step first
    idx += cum[idx] <= u
    todo = np.flatnonzero(cum[idx] <= u)
    for _ in range(_GUIDE_STEPS):
        if not len(todo):
            return idx
        idx[todo] += 1
        todo = todo[cum[idx[todo]] <= u[todo]]
    idx[todo] = np.searchsorted(cum, u[todo], side="right")
    return idx


def kld_resample(poses: np.ndarray, weights: np.ndarray, cfg: KldConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Weighted resampling until the KLD bound for the bins occupied so
    far is met.

    Returns draw indices into the input cloud; the resampled cloud is
    poses[draws] with uniform weights and the draws double as parent
    pointers.  Draw count never drops below n_min and is capped at
    n_max; zero-weight particles are never drawn.  Occupied bins are
    counted as draws arrive (Fox 2003) and each draw goes through a
    guide table, so a call is linear in the particles and draws.
    """
    poses = np.asarray(poses, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not 0 < total < math.inf:
        raise ValueError(f"total particle weight {total} is not positive and finite")
    cum = np.cumsum(weights / total)
    # from the last positive weight on, so no trailing zero weight holds
    # an interval below 1
    cum[np.flatnonzero(weights > 0)[-1]:] = 1.0
    guide = _guide_table(cum)
    bins, bin_of = np.unique(_bin_ids(poses, cfg), return_inverse=True)
    seen = np.zeros(len(bins), dtype=bool)
    target = cfg.n_min
    cap = cfg.n_max
    parts: list[np.ndarray] = []
    drawn = 0
    while True:
        idx = _guide_draws(cum, guide, rng.random(target - drawn))
        parts.append(idx)
        drawn = target
        seen[bin_of[idx]] = True
        need = max(cfg.n_min, kld_required_particles(np.count_nonzero(seen), cfg.epsilon))
        target = min(cap, need)
        if drawn >= target:
            return np.concatenate(parts)


def _take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[idx] for an (n, k) array, gathered column by column into a
    (k, len(idx)) block and returned as its (len(idx), k) view."""
    out = np.empty((a.shape[1], len(idx)), dtype=a.dtype)
    for col, dst in zip(a.T, out):
        np.take(col, idx, out=dst)
    return out.T


_DEDUP_LEVELS = 16  # parent gathers between deduplications in an ancestor walk


def _distinct(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(idx, return_inverse=True) for indices in [0, n), from a
    mask of the values present and a scatter of their ranks: no sort."""
    present = np.zeros(n, dtype=bool)
    present[idx] = True
    values = np.flatnonzero(present)
    rank = np.empty(n, dtype=np.intp)
    rank[values] = np.arange(len(values))
    return values, rank[idx]


@dataclass
class EpochCloud:
    poses: np.ndarray     # (n, 3), the view of a (3, n) block once resampled
    weights: np.ndarray   # (n,), sums to 1
    parents: np.ndarray   # (n,) indices into the previous epoch; -1 at epoch 0


class AncestorTree:
    """Per-epoch particle clouds linked by parent indices."""

    def __init__(self):
        self.epochs: list[EpochCloud] = []

    def __len__(self):
        return len(self.epochs)

    def __getitem__(self, e: int) -> EpochCloud:
        return self.epochs[e]

    def append(self, poses, weights, parents):
        self.epochs.append(EpochCloud(
            np.asarray(poses, dtype=float),
            np.asarray(weights, dtype=float),
            np.asarray(parents, dtype=np.int64),
        ))

    def ancestor_positions(self, idx: np.ndarray, epochs) -> dict[int, np.ndarray]:
        """(x, y) at each of the given epochs of the ancestors of
        final-epoch particles idx: {epoch: one row per entry of idx}.

        One walk back through the parent arrays serves every epoch.  It
        follows only the distinct ancestors, which shrink fast as
        lineages coalesce, and deduplicates them every _DEDUP_LEVELS
        levels; between dedups the gathered array keeps its alignment,
        so a single map from idx into it is composed at each dedup.
        """
        wanted = set(epochs)
        low = min(wanted)
        last = len(self.epochs) - 1
        cur, where = _distinct(idx, len(self.epochs[last].poses))
        out: dict[int, np.ndarray] = {}
        for e in range(last, low, -1):
            if e in wanted:
                out[e] = _take(self.epochs[e].poses[:, :2], cur[where])
            cur = self.epochs[e].parents[cur]
            if (last - e + 1) % _DEDUP_LEVELS == 0:
                cur, inv = _distinct(cur, len(self.epochs[e - 1].poses))
                where = inv[where]
        out[low] = _take(self.epochs[low].poses[:, :2], cur[where])
        return out

    def _survivors(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """surviving(), plus per epoch from 1 on each survivor's parent
        as an index into the previous epoch's survivors."""
        last = len(self.epochs) - 1
        keep: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(self.epochs)
        up = list(keep)
        keep[last] = np.arange(len(self.epochs[last].poses), dtype=np.int64)
        for e in range(last, 0, -1):
            keep[e - 1], up[e] = _distinct(self.epochs[e].parents[keep[e]],
                                           len(self.epochs[e - 1].poses))
        return keep, up

    def surviving(self) -> list[np.ndarray]:
        """Per-epoch sorted indices of particles with a descendant in the
        final epoch (every final particle counts)."""
        return self._survivors()[0]

    def compact(self):
        """Drop particles with no surviving descendants and remap parent
        indices.  The final epoch is left untouched, so any external
        arrays aligned with it stay valid."""
        if len(self.epochs) < 2:
            return
        keep, up = self._survivors()
        for e, cloud in enumerate(self.epochs):
            idx = keep[e]
            parents = up[e] if e else cloud.parents[idx]
            if len(idx) == len(cloud.poses):
                cloud.parents = parents
            else:
                self.epochs[e] = EpochCloud(_take(cloud.poses, idx), cloud.weights[idx], parents)


@dataclass
class SmoothResult:
    mean_poses: np.ndarray       # (T+1, 3) smoothed weighted mean
    map_poses: np.ndarray        # (T+1, 3) highest-weight surviving lineage
    survivor_counts: np.ndarray  # (T+1,)
    survivors: list              # per-epoch index arrays into the tree
    mass: list                   # per-epoch smoothing weights, each sums to 1


def prune_smooth(tree: AncestorTree) -> SmoothResult:
    """Smooth a filter run by pruning extinct lineages.

    A particle's smoothing mass is the summed final-epoch weight of its
    descendants, so extinct lineages weigh nothing and each epoch's pose
    is the mass-weighted mean (headings via unit vectors).  The map
    trajectory is the surviving lineage with the highest product of
    stored epoch weights along its ancestry.
    """
    if len(tree) == 0:
        raise ValueError("empty ancestor tree")
    keep = tree.surviving()
    t1 = len(tree)
    mass: list[np.ndarray] = [np.empty(0)] * t1
    mass[t1 - 1] = tree[t1 - 1].weights.copy()
    for e in range(t1 - 1, 0, -1):
        acc = np.zeros(len(tree[e - 1].weights))
        np.add.at(acc, tree[e].parents, mass[e])
        mass[e - 1] = acc
    mean_poses = np.empty((t1, 3))
    counts = np.empty(t1, dtype=np.int64)
    for e in range(t1):
        if len(keep[e]) == 0:
            raise ValueError(f"no surviving particles at epoch {e}")
        total = mass[e].sum()
        if not total > 0:
            raise ValueError(f"surviving mass is zero at epoch {e}")
        w = mass[e] / total
        # BLAS rounds a dot product over a contiguous column differently
        # from one over a strided column; a row-major copy keeps the
        # means independent of how the cloud is laid out
        poses = np.ascontiguousarray(tree[e].poses)
        mean_poses[e, 0] = w @ poses[:, 0]
        mean_poses[e, 1] = w @ poses[:, 1]
        mean_poses[e, 2] = math.atan2(w @ np.sin(poses[:, 2]), w @ np.cos(poses[:, 2]))
        counts[e] = len(keep[e])
        mass[e] = w
    with np.errstate(divide="ignore"):
        score = np.log(tree[0].weights)
        for e in range(1, t1):
            score = score[tree[e].parents] + np.log(tree[e].weights)
    map_poses = np.empty((t1, 3))
    i = int(np.argmax(score))
    for e in range(t1 - 1, -1, -1):
        map_poses[e] = tree[e].poses[i]
        i = int(tree[e].parents[i])
    return SmoothResult(mean_poses, map_poses, counts, keep, mass)


def seed_particles(fp: Floorplan, n: int, rng: np.random.Generator,
                   start_room: int | None = None, start_pose: Pose2D | None = None) -> np.ndarray:
    """Initial cloud from a start hint.

    Room hint: uniform rejection sampling over the room polygon, heading
    uniform.  Pose hint: Gaussian ball around the pose, 0.3 m in x and y
    and 5 degrees in heading.
    """
    if start_pose is not None:
        poses = np.empty((n, 3))
        poses[:, 0] = start_pose.x + rng.normal(0.0, 0.3, n)
        poses[:, 1] = start_pose.y + rng.normal(0.0, 0.3, n)
        poses[:, 2] = wrap_angle(start_pose.theta + rng.normal(0.0, math.radians(5.0), n))
        return poses
    if start_room is None:
        raise ValueError("a start hint (room id or pose) is required")
    if not 0 <= start_room < len(fp.rooms):
        raise ValueError(f"unknown room id {start_room}")
    vs = fp.rooms[start_room].vertices
    lo = vs.min(axis=0)
    hi = vs.max(axis=0)
    pts: list[np.ndarray] = []
    got = 0
    while got < n:
        batch = rng.random((max(2 * (n - got), 64), 2)) * (hi - lo) + lo
        ok = points_in_polygon(vs, batch)
        accepted = batch[ok]
        pts.append(accepted)
        got += len(accepted)
    xy = np.concatenate(pts)[:n]
    poses = np.empty((n, 3))
    poses[:, :2] = xy
    poses[:, 2] = rng.random(n) * TAU - math.pi
    return poses


@dataclass
class FilterResult:
    poses: np.ndarray            # (T+1, 3) smoothed weighted-mean poses
    map_poses: np.ndarray        # (T+1, 3) highest-weight surviving lineage
    times: np.ndarray            # (T+1,)
    rooms: list                  # per-epoch room id or None
    counts: np.ndarray           # particles per epoch as generated
    survivor_counts: np.ndarray  # particles per epoch after pruning
    tree: AncestorTree

    @property
    def positions(self) -> np.ndarray:
        return self.poses[:, :2]


def run_filter(steps: list[StepEvent], fp: Floorplan, kld: KldConfig,
               noise: StepNoiseModel, constraints: ConstraintSet, rng: np.random.Generator,
               start_room: int | None = None, start_pose: Pose2D | None = None,
               label: str = "filter") -> FilterResult:
    """Run the constraint-weighted filter over a step sequence.

    Per epoch: resample the previous weighted cloud under the KLD bound,
    propagate each draw through the step with noise, reweight under the
    constraint set.  Raises FilterLostError when every weight hits zero.
    Loop-closure distances use each draw's own ancestor at the anchor
    epoch, looked up in the ancestor tree.
    """
    n0 = kld.n_min
    poses0 = seed_particles(fp, n0, rng, start_room=start_room, start_pose=start_pose)
    tree = AncestorTree()
    tree.append(poses0, np.full(n0, 1.0 / n0), np.full(n0, -1, dtype=np.int64))
    cells = fp.cells(poses0[:, :2])  # grid cells of the latest cloud
    counts = [n0]
    for i, step in enumerate(steps):
        epoch = i + 1
        prev = tree[len(tree) - 1]
        draws = kld_resample(prev.poses, prev.weights, kld, rng)
        anchor_epochs = constraints.closures_at(epoch)
        anchors = tree.ancestor_positions(draws, anchor_epochs) if anchor_epochs else {}
        selected = _take(prev.poses, draws)
        new_poses = propagate(selected, step, noise, rng)
        prev_cells, cells = _take(cells, draws), fp.cells(new_poses[:, :2])
        w = _reweight_batch(selected[:, :2], prev_cells, new_poses, cells, i, constraints, anchors)
        total = w.sum()
        if not total > 0:
            raise FilterLostError(epoch, label)
        tree.append(new_poses, w / total, draws)
        counts.append(len(new_poses))
        if COMPACT_EVERY and epoch % COMPACT_EVERY == 0:
            tree.compact()
    smooth = prune_smooth(tree)
    # room per epoch: the weighted-mean pose's room, unless the cloud's
    # modal room disagrees, in which case the map lineage arbitrates
    rooms = []
    for e in range(len(smooth.mean_poses)):
        idx = smooth.survivors[e]
        cloud = tree[e]
        votes = containing_rooms(fp, _take(cloud.poses[:, :2], idx))
        mass = np.bincount(votes + 1, weights=smooth.mass[e][idx],
                           minlength=len(fp.rooms) + 1)
        mode = int(np.argmax(mass)) - 1
        mode_room = None if mode < 0 else mode
        mean_room = containing_room(fp, smooth.mean_poses[e, :2])
        if mean_room == mode_room:
            rooms.append(mean_room)
        else:
            rooms.append(containing_room(fp, smooth.map_poses[e, :2]))
    return FilterResult(
        poses=smooth.mean_poses,
        map_poses=smooth.map_poses,
        times=step_epoch_times(steps),
        rooms=rooms,
        counts=np.asarray(counts, dtype=np.int64),
        survivor_counts=smooth.survivor_counts,
        tree=tree,
    )
