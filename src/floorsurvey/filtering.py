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
    containing_room,  # unused here; perfbench/tracing.py swaps this name
    containing_rooms,
    points_in_rooms,
    remainder,
    rooms_in_cells,
    segments_cross_walls,
    wrap_angle,
)
from .loopclosure import StepLoopClosure
from .sensors import StepEvent, StepNoiseModel, step_epoch_times

TAU = 2.0 * math.pi
COMPACT_EVERY = 16  # epochs between ancestor-tree compactions; 0 compacts only at the end
_GUIDE_STEPS = 8    # vector steps of the guide-table draws still short before the binary search


class FilterLostError(RuntimeError):
    """The filter lost its cloud at some epoch: all particle weights
    collapsed to zero, or a pose left the finite range."""

    def __init__(self, epoch: int, label: str = "filter",
                 reason: str = "particle weights collapsed to zero"):
        super().__init__(f"{label}: {reason} at epoch {epoch}")
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

    @property
    def n_theta(self) -> int:
        """Heading bins in a turn."""
        return max(1, math.ceil(TAU / self.bin_theta))


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
    # the draws and bits of rng.normal(0.0, s, n) twice, which returns
    # 0.0 + s z: adding 0.0 turns a zero sigma's -0.0 noise into +0.0
    e = rng.standard_normal((2, n))
    e[0] *= noise.sigma_dtheta
    e[1] *= noise.sigma_length(step.length)
    e += 0.0
    theta = poses[:, 2] + step.dtheta + e[0]
    length = step.length + e[1]
    out = np.empty((3, n))
    np.cos(theta, out=out[0])
    np.sin(theta, out=out[1])
    out[:2] *= length
    out[0] += poses[:, 0]
    out[1] += poses[:, 1]
    out[2] = wrap_angle(theta)
    return out.T


@dataclass(kw_only=True)
class ConstraintSet:
    """Which constraint classes apply during reweighting, and their scales.

    Straight-line weighting applies only to steps flagged in
    straight_flags; each loop closure applies at its epoch_b, against the
    particle's own ancestor at its epoch_a.
    """

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


def _reweight_batch(fp: Floorplan, prev_xy: np.ndarray, prev_cells: np.ndarray,
                    new_poses: np.ndarray, new_cells: np.ndarray, step_index: int,
                    constraints: ConstraintSet, anchors: dict[int, np.ndarray]) -> np.ndarray:
    """Constraint weight of each particle's move prev_xy -> new_poses at
    the given step in plan fp; prev_cells and new_cells are the grid
    cells of the two ends (fp.cells).

    Order: start at 1; a wall crossing zeroes the weight; a straight-line
    step multiplies by the folded-normal density of the acute angle to
    the most parallel wall of the containing room (a factor of 1.0
    outside every room, so every weight takes one unmasked multiply);
    each loop closure ending at this step multiplies by the
    folded-normal density of the distance to the particle's anchor.
    anchors maps the anchor epoch of each such closure to per-particle
    (x, y) positions aligned with the cloud.
    """
    w = np.ones(len(new_poses))
    new_xy = new_poses[:, :2]
    if len(fp.walls):
        # moves the grid index clears cannot touch a wall; test the rest
        test = np.flatnonzero(~fp.clear_between_cells(prev_cells, new_cells))
        if len(test):
            p0s, p1s = np.take(prev_xy.T, test, axis=1).T, np.take(new_xy.T, test, axis=1).T
            lo = np.minimum(p0s.min(axis=0), p1s.min(axis=0))
            hi = np.maximum(p0s.max(axis=0), p1s.max(axis=0))
            near = fp.walls_near(lo, hi)
            if len(near):
                w[test[segments_cross_walls(p0s, p1s, fp.walls[near])]] = 0.0
    flags = constraints.straight_flags
    if flags is not None and 0 <= step_index < len(flags) and flags[step_index]:
        # dead weights stay 0.0 * factor = 0.0; w * 1.0 == w
        alphas = acute_angles_to_room_walls(fp, rooms_in_cells(fp, new_xy, new_cells), new_poses[:, 2])
        w *= np.where(np.isnan(alphas), 1.0, folded_normal_density(alphas, constraints.sigma_alpha))
    for epoch_a in constraints.closures_at(step_index + 1):
        anchor = anchors[epoch_a]
        d = np.hypot(new_xy[:, 0] - anchor[:, 0], new_xy[:, 1] - anchor[:, 1])
        w *= folded_normal_density(d, constraints.sigma_closure)
    return w


_BOX_PER_PARTICLE = 16  # dense KLD bin box budget: cells per particle,
_BOX_SLACK = 1 << 16    # plus this many


def _theta_bins(theta: np.ndarray, cfg: KldConfig) -> np.ndarray:
    """Heading bin per pose, binned modulo 2*pi."""
    bt = np.floor(remainder(theta, TAU) / cfg.bin_theta).astype(np.int64)
    np.clip(bt, 0, cfg.n_theta - 1, out=bt)
    return bt


def _bins(poses: np.ndarray, cfg: KldConfig, budget: int) -> tuple[np.ndarray, int]:
    """Histogram bin per pose, numbered from 0, and the count of numbers;
    x and y bins anchored at the origin, theta binned modulo 2*pi.  A bin
    box (row major from the cloud's lowest x and y bins) of at most budget
    cells numbers the bins inside it, wherever it lies: whole floats that
    differ by at most budget subtract exactly.  Otherwise, and for NaN
    positions, the distinct (x, y, theta) rows are numbered in order."""
    bx = np.floor(poses[:, 0] / cfg.bin_x)
    by = np.floor(poses[:, 1] / cfg.bin_y)
    x0, x1, y0, y1 = bx.min(), bx.max(), by.min(), by.max()
    ny = y1 - y0 + 1.0
    size = (x1 - x0 + 1.0) * ny * cfg.n_theta
    if size <= budget:  # NaN and inf compare false
        bins = ((bx - x0) * ny + (by - y0)) * cfg.n_theta + _theta_bins(poses[:, 2], cfg)
        return bins.astype(np.intp), int(size)
    # rows compare field by field as floats, so -0.0 and +0.0 are one bin
    rows, bin_of = np.unique(np.column_stack([bx, by, _theta_bins(poses[:, 2], cfg)]),
                             axis=0, return_inverse=True)
    return bin_of.reshape(-1), len(rows)


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
    can skip the answer.  About half the draws end at the start; one
    exact whole-vector comparison advances the draws with cum <= u by
    one entry (cum[-1] = 1 > u keeps them inside the array), which ends
    most of the rest.  Up to _GUIDE_STEPS more steps, then the binary
    search, end the few still short (a bucket crowded with tiny weights).
    """
    idx = guide[_buckets(u, len(cum))]
    idx += cum[idx] <= u
    todo = np.flatnonzero(cum[idx] <= u)
    for _ in range(_GUIDE_STEPS):
        if len(todo):
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

    Only bin equality matters, so bins are numbered within the cloud's
    own box of x, y and theta bins, and a dense mask over the box marks
    the bins drawn so far.  That takes no sort.  A box of more than
    16 n + 65536 cells for n particles numbers its distinct bins by
    np.unique instead (see _bins).
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
    bin_of, size = _bins(poses, cfg, _BOX_PER_PARTICLE * len(poses) + _BOX_SLACK)
    seen = np.zeros(size, dtype=bool)
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
                out[e] = np.take(self.epochs[e].poses.T[:2], cur[where], axis=1).T
            cur = self.epochs[e].parents[cur]
            if (last - e + 1) % _DEDUP_LEVELS == 0:
                cur, inv = _distinct(cur, len(self.epochs[e - 1].poses))
                where = inv[where]
        out[low] = np.take(self.epochs[low].poses.T[:2], cur[where], axis=1).T
        return out

    def _survivors(self, low: int = 0) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """From epoch low on, per-epoch sorted indices of particles with a
        final-epoch descendant (every final particle counts), and above
        low each one's parent as an index into the previous epoch's
        survivors."""
        last = len(self.epochs) - 1
        keep: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(self.epochs)
        up = list(keep)
        keep[last] = np.arange(len(self.epochs[last].poses), dtype=np.int64)
        for e in range(last, low, -1):
            keep[e - 1], up[e] = _distinct(self.epochs[e].parents[keep[e]],
                                           len(self.epochs[e - 1].poses))
        return keep, up

    def compact(self, window: int | None = None):
        """Drop particles with no surviving descendants and remap parent
        indices, in the newest window epochs below the final one, or in
        all of them.  Older epochs keep their particles, so the oldest
        compacted epoch's parents still index them.  Survivors keep
        their order, so windowed compactions followed by a full one
        leave the same tree as one full compaction.  The final epoch is
        left untouched, so any external arrays aligned with it stay
        valid."""
        if len(self.epochs) < 2:
            return
        low = 0 if window is None else max(0, len(self.epochs) - 1 - window)
        keep, up = self._survivors(low)
        for e in range(low, len(self.epochs)):
            cloud, idx = self.epochs[e], keep[e]
            parents = up[e] if e > low else cloud.parents[idx]
            if len(idx) == len(cloud.poses):
                cloud.parents = parents
            else:
                self.epochs[e] = EpochCloud(np.take(cloud.poses.T, idx, axis=1).T, cloud.weights[idx], parents)


@dataclass
class SmoothResult:
    mean_poses: np.ndarray  # (T+1, 3) smoothed weighted mean
    map_poses: np.ndarray   # (T+1, 3) highest-weight surviving lineage
    mass: list              # per-epoch smoothing weights, each sums to 1


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
    t1 = len(tree)
    mass: list[np.ndarray] = [np.empty(0)] * t1
    mass[t1 - 1] = tree[t1 - 1].weights.copy()
    for e in range(t1 - 1, 0, -1):
        mass[e - 1] = np.bincount(tree[e].parents, weights=mass[e],
                                  minlength=len(tree[e - 1].weights))
    mean_poses = np.empty((t1, 3))
    for e in range(t1):
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
    return SmoothResult(mean_poses, map_poses, mass)


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
        accepted = batch[points_in_rooms(fp, batch, np.full(len(batch), start_room))]
        pts.append(accepted)
        got += len(accepted)
    xy = np.concatenate(pts)[:n]
    poses = np.empty((n, 3))
    poses[:, :2] = xy
    poses[:, 2] = rng.random(n) * TAU - math.pi
    return poses


@dataclass
class FilterResult:
    poses: np.ndarray      # (T+1, 3) smoothed weighted-mean poses
    map_poses: np.ndarray  # (T+1, 3) highest-weight surviving lineage
    times: np.ndarray      # (T+1,)
    rooms: list            # per-epoch room id or None
    counts: np.ndarray     # particles per epoch as generated
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
    constraint set.  Raises FilterLostError when every weight hits zero,
    or when the seeded or a propagated cloud holds a non-finite pose
    (a NaN pose would pass the wall test).
    Loop-closure distances use each draw's own ancestor at the anchor
    epoch, from the ancestor tree.  Every COMPACT_EVERY epochs the tree
    drops the recent particles that left no descendants; the returned
    tree is fully compacted, and room_labels labels its epochs at once.
    """
    n0 = kld.n_min
    poses0 = seed_particles(fp, n0, rng, start_room=start_room, start_pose=start_pose)
    if not np.isfinite(poses0).all():
        raise FilterLostError(0, label, "non-finite pose")
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
        selected = np.take(prev.poses.T, draws, axis=1).T
        # a stride near the float range may overflow: the check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            new_poses = propagate(selected, step, noise, rng)
        if not np.isfinite(new_poses).all():
            raise FilterLostError(epoch, label, "non-finite pose")
        prev_cells, cells = np.take(cells.T, draws, axis=1).T, fp.cells(new_poses[:, :2])
        w = _reweight_batch(fp, selected[:, :2], prev_cells, new_poses, cells, i, constraints, anchors)
        total = w.sum()
        if not total > 0:
            raise FilterLostError(epoch, label)
        tree.append(new_poses, w / total, draws)
        counts.append(len(new_poses))
        if COMPACT_EVERY and epoch % COMPACT_EVERY == 0:
            # an epoch is compacted in three rounds, by when its lineages
            # have mostly coalesced; so each round walks back 3 * COMPACT_EVERY
            tree.compact(window=3 * COMPACT_EVERY)
    # every epoch then holds just the final cloud's ancestors, whatever
    # the rounds before, so the smoother sums over the same arrays
    tree.compact()
    smooth = prune_smooth(tree)
    return FilterResult(
        poses=smooth.mean_poses,
        map_poses=smooth.map_poses,
        times=step_epoch_times(steps),
        rooms=room_labels(fp, tree, smooth),
        counts=np.asarray(counts, dtype=np.int64),
        tree=tree,
    )


def room_labels(fp: Floorplan, tree: AncestorTree, smooth: SmoothResult) -> list:
    """Room id or None per epoch: the smoothed mean pose's room, unless
    the cloud's modal room by smoothing mass disagrees; then the map
    lineage's room.  One lookup serves every epoch's positive-mass
    particles (zero mass would add only +0.0) and both smoothed poses,
    and one bincount every epoch's votes, offset by len(fp.rooms) + 1
    per epoch.  It adds each bin's weights in input order and argmax
    keeps the first maximum (lowest id), as one vote per epoch would."""
    t1, r1 = len(tree), len(fp.rooms) + 1
    w = np.concatenate(smooth.mass)
    keep = np.flatnonzero(w)
    epoch = np.repeat(np.arange(t1), [len(m) for m in smooth.mass])[keep]
    xy = np.concatenate([c.poses[:, :2] for c in tree.epochs])[keep]
    found = containing_rooms(fp, np.concatenate([xy, smooth.mean_poses[:, :2], smooth.map_poses[:, :2]]))
    votes, mean_rooms, map_rooms = np.split(found, [len(keep), len(keep) + t1])
    mass = np.bincount(epoch * r1 + votes + 1, weights=w[keep], minlength=t1 * r1)
    modes = mass.reshape(t1, r1).argmax(axis=1) - 1
    return [None if r < 0 else int(r) for r in np.where(modes == mean_rooms, mean_rooms, map_rooms)]
