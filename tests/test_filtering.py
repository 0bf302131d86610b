import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey import filtering
from floorsurvey.filtering import (
    AncestorTree,
    ConstraintSet,
    FilterLostError,
    KldConfig,
    folded_normal_density,
    kld_required_particles,
    kld_resample,
    pf1_kld_config,
    pf2_kld_config,
    propagate,
    prune_smooth,
    room_labels,
    run_filter,
    seed_particles,
)
from floorsurvey.filtering import _reweight_batch
from floorsurvey.geometry import Floorplan, Pose2D, Room, containing_rooms
from floorsurvey.loopclosure import StepLoopClosure
from floorsurvey.sensors import StepEvent, StepNoiseModel
from floorsurvey.simulate import office_floorplan

import oracles
from conftest import box


# ----------------------------------------------------------- KLD formula

def test_kld_required_particles_reference_counts():
    # the two counts that size both filter passes
    assert kld_required_particles(12, 0.0109238) == 504
    assert kld_required_particles(360, 0.0109238) == 16433


def test_kld_required_particles_edges():
    assert kld_required_particles(1, 0.0109238) == 0
    assert kld_required_particles(0, 0.0109238) == 0
    with pytest.raises(ValueError):
        kld_required_particles(5, 0.0)


@given(st.integers(2, 500))
def test_kld_required_particles_monotone(k):
    eps = 0.0109238
    assert kld_required_particles(k + 1, eps) >= kld_required_particles(k, eps)


def test_kld_configs():
    c1, c2 = pf1_kld_config(), pf2_kld_config()
    assert (c1.bin_x, c1.bin_y, c1.n_min) == (2.0, 2.0, 504)
    assert math.isclose(c1.bin_theta, math.radians(30.0))
    assert (c2.bin_x, c2.bin_y, c2.n_min) == (0.5, 0.5, 16433)
    assert math.isclose(c2.bin_theta, math.radians(1.0))
    assert c2.n_max == 164330


@pytest.mark.parametrize("field", ["bin_x", "bin_y", "bin_theta", "epsilon"])
@pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
def test_kld_config_rejects_bad_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        KldConfig(**{field: value})


@pytest.mark.parametrize("kw", [{"n_min": 0}, {"n_min": -3}, {"cap_factor": 0}])
def test_kld_config_rejects_counts_below_one(kw):
    with pytest.raises(ValueError, match="at least 1"):
        KldConfig(**kw)


def test_kld_config_smallest_counts_draw():
    cfg = KldConfig(n_min=1, cap_factor=1)
    draws = kld_resample(np.zeros((3, 3)), np.ones(3), cfg, np.random.default_rng(0))
    assert len(draws) == 1


# ------------------------------------------------------------- densities

def test_folded_normal_density_normalises():
    sigma = 0.7
    xs = np.linspace(0, 8 * sigma, 20001)
    area = np.trapezoid(folded_normal_density(xs, sigma), xs)
    assert math.isclose(area, 1.0, abs_tol=1e-6)


def test_folded_normal_density_peak():
    for sigma in (0.1, 1.0, 3.0):
        peak = folded_normal_density(0.0, sigma)
        assert math.isclose(peak, math.sqrt(2.0) / (sigma * math.sqrt(math.pi)))
    # symmetric in its argument: |x| is what matters
    assert folded_normal_density(-0.4, 1.0) == folded_normal_density(0.4, 1.0)


def test_folded_normal_density_rejects_bad_sigma():
    with pytest.raises(ValueError):
        folded_normal_density(0.1, 0.0)


# -------------------------------------------------------------- propagate

def test_propagate_zero_noise_exact():
    noise = StepNoiseModel(sigma_dtheta=0.0, length_lambda=0.0)
    rng = np.random.default_rng(0)
    poses = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, math.pi / 2]])
    step = StepEvent(1.0, 2.0, math.pi / 2)
    out = propagate(poses, step, noise, rng)
    assert np.allclose(out[0], [1.0, 4.0, math.pi / 2], atol=1e-12)
    assert np.allclose(out[1], [-2.0, 0.0, -math.pi], atol=1e-12)


def test_propagate_noise_statistics():
    noise = StepNoiseModel()
    rng = np.random.default_rng(42)
    n = 200_000
    poses = np.zeros((n, 3))
    step = StepEvent(1.0, 0.75, 0.0)
    out = propagate(poses, step, noise, rng)
    # heading noise: N(0, 0.5 deg); stride noise: N(0, 0.375 m)
    se_t = noise.sigma_dtheta / math.sqrt(n)
    assert abs(out[:, 2].mean()) < 4 * se_t
    assert abs(out[:, 2].std() - noise.sigma_dtheta) < 4 * se_t
    lengths = out[:, 0] * np.cos(out[:, 2]) + out[:, 1] * np.sin(out[:, 2])
    se_l = 0.375 / math.sqrt(n)
    assert abs(lengths.mean() - 0.75) < 5 * se_l
    assert abs(lengths.std() - 0.375) < 5 * se_l


def test_propagate_consumes_stream_even_with_zero_sigmas():
    # keeps seeded runs aligned across noise configurations
    step = StepEvent(1.0, 0.75, 0.0)
    rng_a = np.random.default_rng(7)
    propagate(np.zeros((5, 3)), step, StepNoiseModel(0.0, 0.0), rng_a)
    rng_b = np.random.default_rng(7)
    propagate(np.zeros((5, 3)), step, StepNoiseModel(), rng_b)
    assert rng_a.normal() == rng_b.normal()


# --------------------------------------------------------------- reweight

def _reweight(fp, prev_xy, new_poses, step_index, c, anchors):
    return _reweight_batch(fp, prev_xy, fp.cells(prev_xy), new_poses, fp.cells(new_poses[:, :2]),
                           step_index, c, anchors)


def _reweight_one(fp, prev_xy, new_pose, step_index, c, anchors=None):
    anchors = {a: np.array([xy], dtype=float) for a, xy in (anchors or {}).items()}
    return _reweight(fp, np.array([prev_xy], dtype=float), np.array([new_pose], dtype=float),
                     step_index, c, anchors)[0]


def test_reweight_wall_crossing_zeroes(two_room_plan):
    c = ConstraintSet()
    assert _reweight_one(two_room_plan, (4.0, 2.0), (6.0, 2.0, 0.0), 0, c) == 0.0
    assert _reweight_one(two_room_plan, (4.0, 5.0), (6.0, 5.0, 0.0), 0, c) == 1.0


def test_reweight_straight_factor(square_plan):
    flags = np.array([True])
    c = ConstraintSet(straight_flags=flags)
    heading = math.radians(4.0)
    w = _reweight_one(square_plan, (5.0, 5.0), (5.5, 5.0, heading), 0, c)
    assert math.isclose(w, folded_normal_density(heading, c.sigma_alpha))
    # outside every room there is no wall to compare against
    w_out = _reweight_one(square_plan, (50.0, 50.0), (50.5, 50.0, heading), 0, c)
    assert w_out == 1.0


def test_reweight_closure_factor_uses_own_anchor(square_plan):
    c = ConstraintSet(closures=[StepLoopClosure(2, 3)])
    # epoch 3 means step index 2; the anchor is the particle's position at epoch 2
    w = _reweight_one(square_plan, (4.5, 5.0), (5.0, 5.0, 0.0), 2, c, {2: (4.0, 5.0)})
    assert math.isclose(w, folded_normal_density(1.0, c.sigma_closure))


def _slanted_plan():
    """A box room beside a room with a slanted east wall: their edge
    angles mod pi are {0, pi/2} and {0, atan2(10, 2), pi/2}, so the angle
    table holds a column with one angle for both rooms and two whose
    rooms differ.  Points east of the slant lie in no room."""
    walls = [[0, 0, 10, 0], [10, 0, 12, 10], [12, 10, 0, 10], [0, 10, 0, 0], [5, 0, 5, 4], [5, 6, 5, 10]]
    rooms = [Room(0, "west", box(0, 0, 5, 10)), Room(1, "east", [(5, 0), (10, 0), (12, 10), (5, 10)])]
    return Floorplan(np.array(walls, dtype=float), rooms)


def test_reweight_batch_matches_scalar(two_room_plan):
    rng = np.random.default_rng(11)
    n = 300
    slanted = _slanted_plan()
    assert [len(set(row)) for row in slanted._edge_angles.T] == [1, 2, 2]
    walls_only = Floorplan(two_room_plan.walls, [])
    assert walls_only._edge_angles.shape == (0, 1)
    # (plan, box that holds every point or None, whether some end lies
    # in no room): a slanted cloud inside the rooms, whose fold reads
    # every id, and one that reaches past the slant
    clouds = [(two_room_plan, None, True), (office_floorplan(), None, True),
              (slanted, ((1.0, 1.0), (8.0, 9.0)), False), (slanted, None, True), (walls_only, None, True)]
    for fp, inside, outside in clouds:
        x0, y0, x1, y1 = fp.bounds
        lo, hi = inside or ((x0 + 0.5, y0 + 0.5), (x1 - 0.5, y1 - 0.5))
        prev = rng.uniform(lo, hi, size=(n, 2))
        # independent end points, then stride-sized moves
        ends = rng.uniform(lo, hi, size=(n, 2))
        moves = prev + rng.uniform(-1.5, 1.5, size=(n, 2))
        ends = np.concatenate([ends, np.clip(moves, lo, hi) if inside else moves])
        prev = np.concatenate([prev, prev])
        new = np.column_stack([ends, rng.uniform(-math.pi, math.pi, 2 * n)])
        flags = np.array([False, True, True])
        # two closures ending at epoch 2, each with per-particle anchors
        anchors = {a: rng.uniform(lo, hi, size=(2 * n, 2)) for a in (0, 1)}
        closures = [StepLoopClosure(0, 2), StepLoopClosure(1, 2)]
        c = ConstraintSet(straight_flags=flags, closures=closures)
        for step_index in (0, 1):
            got = _reweight(fp, prev, new, step_index, c, anchors)
            want = np.array([oracles.reweight(fp, prev[i], new[i], step_index, c,
                                              {a: xy[i] for a, xy in anchors.items()})
                             for i in range(2 * n)])
            assert got.tobytes() == want.tobytes()
        assert (containing_rooms(fp, new[:, :2]) < 0).any() == outside
        if fp is walls_only:
            # no particle gets a straight factor
            plain = _reweight(fp, prev, new, 1, ConstraintSet(closures=closures), anchors)
            assert got.tobytes() == plain.tobytes()


# --------------------------------------------------------------- resample

def test_kld_resample_weight_proportional():
    rng = np.random.default_rng(0)
    poses = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 1.0]])
    weights = np.array([0.7, 0.3])
    cfg = KldConfig(n_min=100_000, cap_factor=1)
    draws = kld_resample(poses, weights, cfg, rng)
    n = len(draws)
    f0 = np.count_nonzero(draws == 0) / n
    sigma = math.sqrt(0.7 * 0.3 / n)
    assert abs(f0 - 0.7) < 3 * sigma


def test_kld_resample_never_draws_zero_weight():
    rng = np.random.default_rng(1)
    poses = np.random.default_rng(2).uniform(0, 50, size=(50, 3))
    weights = np.ones(50)
    weights[::2] = 0.0
    cfg = KldConfig(n_min=504)
    draws = kld_resample(poses, weights, cfg, rng)
    assert np.all(weights[draws] > 0)


def test_kld_resample_counts_bounded_and_adaptive():
    rng = np.random.default_rng(3)
    cfg = KldConfig(bin_x=0.5, bin_y=0.5, bin_theta=math.radians(10), n_min=504)
    # concentrated cloud: floor applies
    tight = np.zeros((2000, 3))
    w = np.ones(2000)
    assert len(kld_resample(tight, w, cfg, rng)) == 504
    # dispersed cloud: more bins, more draws, never past the cap
    wide = np.random.default_rng(4).uniform(0, 100, size=(2000, 3))
    n = len(kld_resample(wide, w, cfg, rng))
    assert 504 < n <= cfg.n_max


def test_kld_resample_rejects_zero_total():
    with pytest.raises(ValueError):
        kld_resample(np.zeros((3, 3)), np.zeros(3), KldConfig(), np.random.default_rng(0))


def test_kld_resample_deterministic():
    poses = np.random.default_rng(5).uniform(0, 20, size=(800, 3))
    w = np.random.default_rng(6).random(800)
    a = kld_resample(poses, w, KldConfig(), np.random.default_rng(9))
    b = kld_resample(poses, w, KldConfig(), np.random.default_rng(9))
    assert np.array_equal(a, b)


def _same_as_oracle(poses, weights, cfg, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = kld_resample(poses, weights, cfg, rng)
    ref = oracles.kld_resample(poses, weights, cfg, ref_rng)
    assert draws.dtype == ref.dtype
    assert np.array_equal(draws, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return draws


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
       spread=st.sampled_from([0.1, 3.0, 40.0]), zeros=st.floats(0.0, 0.9),
       fine=st.booleans())
def test_kld_resample_matches_oracle(seed, n, spread, zeros, fine):
    gen = np.random.default_rng(seed)
    poses = gen.normal(0.0, spread, size=(n, 3))
    poses[:, 2] = np.remainder(poses[:, 2], 2 * math.pi) - math.pi
    weights = gen.exponential(size=n) ** 3
    weights[gen.random(n) < zeros] = 0.0
    weights[gen.integers(n)] += 1e-3
    cfg = pf2_kld_config() if fine else pf1_kld_config()
    _same_as_oracle(poses, weights, cfg, seed + 1)


def test_kld_resample_edge_clouds_match_oracle():
    gen = np.random.default_rng(11)
    poses = gen.uniform(0, 30, size=(400, 3))
    cfg = KldConfig(n_min=504)
    # zero-weight plateaus, also at both ends
    plateaus = np.ones(400)
    for lo, hi in ((0, 37), (90, 200), (250, 251), (390, 400)):
        plateaus[lo:hi] = 0.0
    draws = _same_as_oracle(poses, plateaus, cfg, 1)
    assert np.all(plateaus[draws] > 0)
    # one particle holds all the weight, at the start, middle and end
    for at in (0, 123, 399):
        single = np.zeros(400)
        single[at] = 2.5
        assert np.all(_same_as_oracle(poses, single, cfg, at) == at)
    # one particle in all
    assert np.array_equal(_same_as_oracle(poses[:1], np.ones(1), cfg, 2), np.zeros(504))
    # a dispersed cloud on fine bins stops at the cap
    wide = gen.uniform(0, 2000, size=(20000, 3))
    fine = KldConfig(bin_x=0.5, bin_y=0.5, bin_theta=math.radians(1.0), n_min=504)
    assert len(_same_as_oracle(wide, np.ones(20000), fine, 3)) == fine.n_max


def test_bin_ids_match_oracle():
    gen = np.random.default_rng(4)
    poses = gen.normal(0.0, 30.0, size=(5000, 3))
    poses[:10, 2] = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 1e-300, -1e-300, 50.0, -50.0]
    for cfg in (pf1_kld_config(), pf2_kld_config()):
        assert np.array_equal(filtering._bin_ids(poses, cfg), oracles.bin_ids(poses, cfg))


def _box_budget(n: int) -> int:
    return filtering._BOX_PER_PARTICLE * n + filtering._BOX_SLACK


@pytest.mark.parametrize("over", [0, 1])
def test_kld_resample_box_at_and_over_budget_match_oracle(over):
    # one heading bin and one y bin: the box is the x-bin count, which
    # the first two particles set to the budget, or one cell over it
    n = 600
    cfg = KldConfig(bin_x=1.0, bin_y=10.0, bin_theta=2 * math.pi, epsilon=0.3, n_min=100)
    assert cfg.n_theta == 1
    gen = np.random.default_rng(31)
    width = _box_budget(n) + over
    poses = np.column_stack([gen.uniform(0.0, width, n), gen.uniform(0.0, 10.0, n),
                             gen.uniform(-math.pi, math.pi, n)])
    poses[:2, 0] = [0.5, width - 0.5]
    box = filtering._box_bins(poses, cfg, _box_budget(n))
    assert (box is None) == bool(over)
    if box is not None:
        assert box[1] == _box_budget(n)
    draws = _same_as_oracle(poses, gen.random(n), cfg, 7)
    assert 100 < len(draws) < cfg.n_max  # the bin count sets the draws


def test_kld_resample_box_holds_every_heading_bin():
    # 1 degree heading bins: the box spans 360 of them per x, y bin
    n = 2000
    cfg = pf2_kld_config()
    gen = np.random.default_rng(8)
    poses = np.column_stack([gen.uniform(-3.0, 3.0, n), gen.uniform(10.0, 12.0, n),
                             gen.uniform(-math.pi, math.pi, n)])
    bins, size = filtering._box_bins(poses, cfg, _box_budget(n))
    assert size == 12 * 4 * 360
    assert bins.min() >= 0 and bins.max() < size
    # equal bins exactly where the library's keys are equal
    keys = filtering._bin_ids(poses, cfg)
    assert np.array_equal(np.unique(bins, return_inverse=True)[1],
                          np.unique(keys, return_inverse=True)[1])
    _same_as_oracle(poses, gen.random(n), cfg, 9)


def test_kld_resample_kilometre_cloud_sorts_its_bins():
    n = 3000
    cfg = pf2_kld_config()
    gen = np.random.default_rng(17)
    poses = np.column_stack([gen.uniform(-1500.0, 1500.0, (n, 2)), gen.uniform(-4.0, 4.0, n)])
    assert filtering._box_bins(poses, cfg, _box_budget(n)) is None
    _same_as_oracle(poses, gen.random(n), cfg, 5)


@pytest.mark.parametrize("xbins, ybins, dense", [
    ((-(1 << 20), -(1 << 20) + 3), (5, 9), True),          # inside, at the low edge
    (((1 << 20) - 4, (1 << 20) - 1), (-3, 0), True),       # inside, at the high edge
    ((-(1 << 20) - 1, -(1 << 20) + 2), (5, 9), False),     # straddles -2**20 in x
    (((1 << 20) - 2, 1 << 20), (5, 9), False),             # straddles 2**20 in x
    ((0, 3), ((1 << 20) - 2, (1 << 20) + 1), False),       # straddles 2**20 in y
    ((0, 3), (-(1 << 20) - 2, -(1 << 20) + 1), False),     # straddles -2**20 in y
])
def test_kld_resample_clouds_at_bin_range_edges_match_oracle(xbins, ybins, dense):
    n = 800
    cfg = KldConfig(bin_x=0.5, bin_y=0.5, bin_theta=math.radians(10.0), n_min=200)
    gen = np.random.default_rng(21)
    bx = gen.integers(xbins[0], xbins[1] + 1, n)
    by = gen.integers(ybins[0], ybins[1] + 1, n)
    bx[:2], by[:2] = xbins, ybins
    poses = np.column_stack([(bx + gen.uniform(0.1, 0.9, n)) * cfg.bin_x,
                             (by + gen.uniform(0.1, 0.9, n)) * cfg.bin_y,
                             gen.uniform(-math.pi, math.pi, n)])
    assert np.array_equal(np.floor(poses[:, 0] / cfg.bin_x), bx)
    assert (filtering._box_bins(poses, cfg, _box_budget(n)) is not None) == dense
    _same_as_oracle(poses, gen.random(n), cfg, 3)


def test_kld_resample_keeps_the_sorted_keys_aliasing():
    # _bin_ids packs y bin 2**20 onto the next x bin's y bin -2**20; the
    # sorted path keeps that, so the two cells below count as one bin
    cfg = KldConfig(bin_x=1.0, bin_y=1.0, bin_theta=2 * math.pi, n_min=20, epsilon=0.1)
    poses = np.array([[0.5, (1 << 20) + 0.5, 0.0], [1.5, -(1 << 20) + 0.5, 0.0]])
    keys = filtering._bin_ids(poses, cfg)
    assert keys[0] == keys[1]
    assert filtering._box_bins(poses, cfg, _box_budget(2)) is None
    assert len(_same_as_oracle(poses, np.ones(2), cfg, 0)) == 20


def test_guide_draws_equal_searchsorted_at_cumulative_values():
    w = np.array([0.0, 0.1, 0.0, 0.0, 0.2, 1e-17, 0.3, 0.0, 0.4, 0.0])
    cum = np.cumsum(w / w.sum())
    cum[-1] = 1.0
    guide = filtering._guide_table(cum)
    below_one = np.nextafter(1.0, 0.0)
    u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                        [0.0, below_one, np.nextafter(below_one, 0.0)]])
    u = u[u < 1.0]  # uniforms lie in [0, 1)
    assert np.array_equal(filtering._guide_draws(cum, guide, u),
                          np.searchsorted(cum, u, side="right"))
    # a bucket crowded with tiny weights runs past the vector step
    tiny = np.cumsum(np.r_[np.full(500, 1e-12), 1.0])
    tiny /= tiny[-1]
    u = np.r_[np.linspace(0.0, 5e-10, 101), below_one]
    assert np.array_equal(filtering._guide_draws(tiny, filtering._guide_table(tiny), u),
                          np.searchsorted(tiny, u, side="right"))


class _TopUniforms:
    """A generator stand-in whose uniforms all equal nextafter(1, 0),
    the largest value Generator.random returns."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


def test_kld_resample_never_draws_trailing_zero_weights_at_top_uniform():
    # the normalised cumulative sum often ends just below 1; the interval
    # above it must go to the last positive weight, not a zero-weight tail
    gen = np.random.default_rng(23)
    cfg = KldConfig(n_min=50, cap_factor=1)
    below_one = 0
    for _ in range(200):
        weights = gen.random(50)
        weights[-3:] = 0.0
        poses = gen.uniform(0, 10, size=(50, 3))
        below_one += np.cumsum(weights / weights.sum())[46] < 1.0
        for resample in (kld_resample, oracles.kld_resample):
            assert np.all(resample(poses, weights, cfg, _TopUniforms()) == 46)
    assert below_one > 20


# ------------------------------------------------------- pruning smoother

def _random_tree(rng, max_epochs=10, max_particles=10, min_epochs=2):
    t = AncestorTree()
    n0 = int(rng.integers(1, max_particles + 1))
    w0 = rng.random(n0) + 0.05
    t.append(rng.normal(size=(n0, 3)), w0 / w0.sum(), np.full(n0, -1))
    epochs = int(rng.integers(min_epochs, max_epochs + 1))
    for _ in range(epochs - 1):
        prev_n = len(t[len(t) - 1].poses)
        n = int(rng.integers(1, max_particles + 1))
        w = rng.random(n) + 0.05
        parents = rng.integers(0, prev_n, size=n)
        t.append(rng.normal(size=(n, 3)), w / w.sum(), parents)
    return t


def _smooth_oracle(tree):
    """Exhaustive surviving-ancestor averaging, one lineage per final
    particle, weighted by final-epoch weights."""
    t1 = len(tree)
    last = tree[t1 - 1]
    acc_xy = np.zeros((t1, 2))
    acc_cs = np.zeros((t1, 2))
    best_score, best_path = -np.inf, None
    for f in range(len(last.poses)):
        wf = last.weights[f]
        idx = f
        path = []
        score = 0.0
        for e in range(t1 - 1, -1, -1):
            path.append(idx)
            pose = tree[e].poses[idx]
            acc_xy[e] += wf * pose[:2]
            acc_cs[e] += wf * np.array([math.cos(pose[2]), math.sin(pose[2])])
            score += math.log(tree[e].weights[idx])
            idx = int(tree[e].parents[idx])
        if score > best_score:
            best_score, best_path = score, list(reversed(path))
    total = last.weights.sum()
    mean = np.empty((t1, 3))
    mean[:, :2] = acc_xy / total
    mean[:, 2] = np.arctan2(acc_cs[:, 1], acc_cs[:, 0])
    map_poses = np.array([tree[e].poses[best_path[e]] for e in range(t1)])
    return mean, map_poses


def test_prune_smooth_matches_oracle_100_trees():
    rng = np.random.default_rng(77)
    for _ in range(100):
        tree = _random_tree(rng)
        got = prune_smooth(tree)
        mean, map_poses = _smooth_oracle(tree)
        assert np.allclose(got.mean_poses[:, :2], mean[:, :2], atol=1e-9)
        # headings compared on the circle
        d = np.angle(np.exp(1j * (got.mean_poses[:, 2] - mean[:, 2])))
        assert np.max(np.abs(d)) < 1e-9
        assert np.allclose(got.map_poses, map_poses, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_prune_smooth_oracle_property(seed):
    tree = _random_tree(np.random.default_rng(seed))
    got = prune_smooth(tree)
    mean, map_poses = _smooth_oracle(tree)
    assert np.allclose(got.mean_poses[:, :2], mean[:, :2], atol=1e-9)
    assert np.allclose(got.map_poses, map_poses, atol=1e-12)


def test_prune_smooth_invariant_under_compaction():
    rng = np.random.default_rng(123)
    tree = _random_tree(rng, max_epochs=8)
    before = prune_smooth(tree)
    tree.compact()
    after = prune_smooth(tree)
    assert np.allclose(before.mean_poses, after.mean_poses, atol=1e-12)
    assert np.allclose(before.map_poses, after.map_poses, atol=1e-12)


def test_prune_smooth_means_ignore_cloud_layout():
    # BLAS rounds a dot over a contiguous column differently from one
    # over a strided column; the smoother must read both layouts alike
    rng = np.random.default_rng(31)
    for _ in range(20):
        cols = _random_tree(rng, max_epochs=6, max_particles=400)
        rows = AncestorTree()
        for cloud in cols.epochs:
            cloud.poses = np.ascontiguousarray(cloud.poses.T).T
            rows.append(np.ascontiguousarray(cloud.poses), cloud.weights, cloud.parents)
        assert all(c.poses.T.flags.c_contiguous for c in cols.epochs)
        a, b = prune_smooth(cols), prune_smooth(rows)
        assert a.mean_poses.tobytes() == b.mean_poses.tobytes()
        assert a.map_poses.tobytes() == b.map_poses.tobytes()


def test_prune_smooth_masses_sum_to_one():
    tree = _random_tree(np.random.default_rng(5))
    out = prune_smooth(tree)
    for m in out.mass:
        assert math.isclose(m.sum(), 1.0, rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_prune_smooth_masses_match_add_at_oracle(seed):
    tree = _random_tree(np.random.default_rng(seed))
    got = prune_smooth(tree).mass
    want = oracles.smoothing_mass(tree)
    assert [m.tobytes() for m in got] == [m.tobytes() for m in want]


def test_prune_smooth_rejects_empty():
    with pytest.raises(ValueError):
        prune_smooth(AncestorTree())


def test_surviving_counts_every_final_particle():
    t = AncestorTree()
    t.append(np.zeros((3, 3)), np.full(3, 1 / 3), np.full(3, -1))
    t.append(np.zeros((2, 3)), np.full(2, 0.5), np.array([1, 1]))
    keep = t._survivors()[0]
    assert np.array_equal(keep[0], [1])
    assert np.array_equal(keep[1], [0, 1])


# -------------------------------------------------------- ancestor lookup

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 400), st.integers(0, 10_000))
def test_distinct_equals_unique_with_inverse(n, size, seed):
    idx = np.random.default_rng(seed).integers(0, n, size=size)
    values, inverse = filtering._distinct(idx, n)
    want_values, want_inverse = np.unique(idx, return_inverse=True)
    assert values.dtype == want_values.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(values, want_values)
    assert np.array_equal(inverse, want_inverse)


def test_surviving_matches_per_level_unique_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        tree = _random_tree(rng, max_epochs=55, max_particles=25, min_epochs=40)
        for _ in range(2):  # before and after compaction
            got, want = tree._survivors()[0], oracles.surviving(tree)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            tree.compact()


def test_ancestor_positions_match_parent_chain_oracle():
    rng = np.random.default_rng(31)
    dropped = 0
    for _ in range(30):
        # deep enough that the walk deduplicates several times
        tree = _random_tree(rng, max_epochs=55, max_particles=25, min_epochs=40)
        last = len(tree) - 1
        size_before = sum(len(c.poses) for c in tree.epochs)
        # repeated indices, as resampling draws produce
        idx = rng.integers(0, len(tree[last].poses), size=int(rng.integers(1, 50)))
        # every epoch at once in shuffled order, then a repeated,
        # unsorted handful that includes the final epoch
        queries = [rng.permutation(last + 1).tolist(),
                   [*rng.integers(0, last + 1, size=5).tolist(), last, 0, last]]
        want = oracles.ancestor_positions(tree, idx, range(last + 1))
        for compacted in (False, True):
            if compacted:
                tree.compact()
                dropped += size_before - sum(len(c.poses) for c in tree.epochs)
                assert all(np.array_equal(got, want[a]) for a, got in
                           oracles.ancestor_positions(tree, idx, range(last + 1)).items())
            for epochs in queries:
                got = tree.ancestor_positions(idx, epochs)
                assert sorted(got) == sorted(set(epochs))
                for a in epochs:
                    assert np.array_equal(got[a], want[a])
    assert dropped > 0


def _assert_same_tree(got, want):
    assert len(got) == len(want)
    for a, b in zip(got.epochs, want.epochs):
        assert np.array_equal(a.poses, b.poses)
        assert np.array_equal(a.weights, b.weights)
        assert a.parents.dtype == b.parents.dtype and np.array_equal(a.parents, b.parents)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_windowed_compactions_then_full_equal_one_full_compaction(seed):
    # the tree grows as in run_filter, with windowed compactions at
    # random epochs; a copy that is never compacted is the reference
    rng = np.random.default_rng(seed)
    plain = _random_tree(rng, max_epochs=40, max_particles=12, min_epochs=2)
    tree = AncestorTree()
    for e, cloud in enumerate(plain.epochs):
        tree.append(cloud.poses, cloud.weights, cloud.parents)
        if rng.random() < 0.3:
            tree.compact(window=int(rng.integers(0, 12)))
            prefix = AncestorTree()
            prefix.epochs = plain.epochs[:e + 1]
            idx = rng.integers(0, len(cloud.poses), size=int(rng.integers(1, 20)))
            want = oracles.ancestor_positions(prefix, idx, range(e + 1))
            got = tree.ancestor_positions(idx, range(e + 1))
            assert all(np.array_equal(got[a], want[a]) for a in range(e + 1))
    tree.compact()
    once = AncestorTree()
    once.epochs = [filtering.EpochCloud(c.poses, c.weights, c.parents) for c in plain.epochs]
    once.compact()
    _assert_same_tree(tree, once)
    # every particle left has a final-epoch descendant
    assert all(len(k) == len(c.poses) for k, c in zip(tree._survivors()[0], tree.epochs))


# ------------------------------------------------------------- run_filter

def test_seed_particles_pose_hint(square_plan):
    rng = np.random.default_rng(0)
    poses = seed_particles(square_plan, 5000, rng, start_pose=Pose2D(5.0, 5.0, 1.0))
    assert abs(poses[:, 0].mean() - 5.0) < 0.05
    assert abs(poses[:, 0].std() - 0.3) < 0.05


def test_seed_particles_room_hint(two_room_plan):
    rng = np.random.default_rng(0)
    poses = seed_particles(two_room_plan, 2000, rng, start_room=1)
    assert poses[:, 0].min() >= 5.0
    assert poses[:, 0].max() <= 10.0
    assert poses[:, 2].min() >= -math.pi and poses[:, 2].max() < math.pi


def test_seed_particles_room_hint_matches_per_polygon_rejection():
    # an L-shaped room takes about two thirds of its box's draws; the pair
    # kernel must accept the same draws, so the poses and the generator's
    # state after seeding match the per-polygon rejection's
    lshape = np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float)
    fp = Floorplan(np.zeros((0, 4)), [Room(0, "box", box(5, 0, 6, 1)), Room(1, "L", lshape)])
    for seed, n in ((0, 1), (1, 100), (2, 5000)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = seed_particles(fp, n, rng, start_room=1)
        assert got.tobytes() == oracles.seed_in_room(fp, n, ref, 1).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
    assert not (got[:, 0] > 2.0)[got[:, 1] > 2.0].any()  # none in the missing quadrant


def _straight_steps(n, length=0.75):
    return [StepEvent(0.5 * (i + 1), length, 0.0) for i in range(n)]


def test_run_filter_shapes_and_determinism(square_plan):
    steps = _straight_steps(6)
    kld = KldConfig(n_min=300)
    noise = StepNoiseModel()
    a, b = (run_filter(steps, square_plan, kld, noise, ConstraintSet(),
                       np.random.default_rng(3), start_pose=Pose2D(2.0, 5.0, 0.0))
            for _ in range(2))
    assert a.poses.shape == (7, 3)
    assert len(a.times) == 7 and len(a.rooms) == 7
    assert np.array_equal(a.poses, b.poses)
    assert np.array_equal(a.counts, b.counts)
    assert a.counts.min() >= 300
    assert all(r == 0 for r in a.rooms)
    # each cloud is the (n, 3) view of a (3, n) block, not a row-major copy
    assert a.tree[-1].poses.T.flags.c_contiguous


def test_run_filter_raises_when_lost(square_plan):
    # a 20 m stride from mid-room must cross the boundary for everyone
    steps = [StepEvent(1.0, 20.0, 0.0)]
    noise = StepNoiseModel(sigma_dtheta=1e-9, length_lambda=1e-9)
    with pytest.raises(FilterLostError) as info:
        run_filter(steps, square_plan, KldConfig(n_min=200), noise,
                   ConstraintSet(), np.random.default_rng(0),
                   start_pose=Pose2D(5.0, 5.0, 0.0), label="pf1")
    assert info.value.epoch == 1
    assert "pf1" in str(info.value)


def test_run_filter_raises_on_non_finite_poses(monkeypatch):
    # no wall encloses the room, so the strides leave it unchecked; the
    # second overflows x, and an infinite or NaN pose would pass the wall test
    fp = Floorplan(np.array([[100.0, 100.0, 101.0, 100.0]]), [Room(0, "sq", box(0, 0, 10, 10))])
    steps = [StepEvent(1.0, 1.7e308, 0.0), StepEvent(2.0, 1.7e308, 0.0), StepEvent(3.0, 1.0, 0.0)]
    noise = StepNoiseModel(sigma_dtheta=1e-9, length_lambda=1e-9)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FilterLostError) as info:
        run_filter(steps, fp, KldConfig(n_min=200), noise, ConstraintSet(),
                   np.random.default_rng(0), start_pose=Pose2D(5.0, 5.0, 0.0), label="pf2")
    assert info.value.epoch == 2
    assert str(info.value) == "pf2: non-finite pose at epoch 2"
    # the seeded cloud is checked too
    monkeypatch.setattr(filtering, "seed_particles", lambda fp, n, *a, **kw: np.full((n, 3), np.nan))
    with pytest.raises(FilterLostError, match="non-finite pose at epoch 0"):
        run_filter(steps, fp, KldConfig(n_min=200), noise, ConstraintSet(),
                   np.random.default_rng(0), start_room=0)


def test_run_filter_walls_confine_cloud(square_plan):
    # long walk east: the far wall stops the surviving mass inside
    steps = _straight_steps(30)
    res = run_filter(steps, square_plan, KldConfig(n_min=400), StepNoiseModel(),
                     ConstraintSet(), np.random.default_rng(1),
                     start_pose=Pose2D(1.0, 5.0, 0.0))
    assert res.positions[:, 0].max() <= 10.0 + 1e-9
    assert res.positions[:, 0].min() >= 0.0 - 1e-9


def _bent_plan():
    """An L-shaped room (0) and a pentagon (1) split by a wall with a
    2 m doorway at y in [4, 6]."""
    rooms = [Room(0, "L", [(0, 0), (5, 0), (5, 10), (2, 10), (2, 7), (0, 7)]),
             Room(1, "pentagon", [(5, 0), (10, 0), (10, 10), (7.5, 12), (5, 10)])]
    outline = [(0, 0), (10, 0), (10, 10), (7.5, 12), (5, 10), (2, 10), (2, 7), (0, 7)]
    walls = [(*a, *b) for a, b in zip(outline, outline[1:] + outline[:1])] + [(5, 0, 5, 4), (5, 6, 5, 10)]
    return Floorplan(np.array(walls, dtype=float), rooms)


def test_run_filter_room_labels_match_per_epoch_oracle(two_room_plan):
    # east through the doorway: near the crossing the mean pose and the
    # cloud's modal room can disagree, and the map lineage decides; at
    # seed 12 a vote by particle count instead of mass flips epoch 5
    steps = _straight_steps(10)
    for fp in (two_room_plan, _bent_plan()):
        arbitrated = 0
        for seed in (2, 4, 12):
            res = run_filter(steps, fp, KldConfig(n_min=300), StepNoiseModel(),
                             ConstraintSet(), np.random.default_rng(seed),
                             start_pose=Pose2D(1.5, 5.0, 0.0))
            rooms, by_map = oracles.room_labels(fp, res.tree)
            assert res.rooms == rooms
            assert rooms[0] == 0 and rooms[-1] == 1
            arbitrated += len(by_map)
        assert arbitrated > 0


def test_room_labels_exact_mass_tie_goes_to_the_lowest_room(two_room_plan):
    # equal mass in rooms 0 and 1 at both epochs (room 0's as two halves
    # at epoch 1): the lowest id wins the tie, so the mean pose's room 0
    # (x = 5, on the shared edge) stands.  Had room 1 won, the map
    # lineage, particle 0 of each epoch, would give room 1
    tree = AncestorTree()
    tree.append(np.array([[8.0, 5.0, 0.0], [2.0, 5.0, 0.0]]), np.array([0.5, 0.5]), np.array([-1, -1]))
    tree.append(np.array([[7.5, 5.0, 0.0], [2.0, 5.0, 0.0], [3.0, 5.0, 0.0], [4.0, 5.0, 0.0]]),
                np.array([0.5, 0.25, 0.25, 0.0]), np.array([0, 1, 1, 1]))
    smooth = prune_smooth(tree)
    assert list(smooth.mean_poses[:, 0]) == [5.0, 5.0]
    assert containing_rooms(two_room_plan, smooth.map_poses[:, :2]).tolist() == [1, 1]
    assert room_labels(two_room_plan, tree, smooth) == [0, 0]
    assert oracles.room_labels(two_room_plan, tree) == ([0, 0], [])


def test_constraint_set_takes_no_positional_plan(square_plan):
    with pytest.raises(TypeError):
        ConstraintSet(square_plan)


def test_run_filter_closure_anchors_survive_compaction(square_plan, monkeypatch):
    # out east and back west, so closures tie the return leg to the outbound one
    steps = [StepEvent(0.5 * (i + 1), 0.75, math.pi if i == 5 else 0.0) for i in range(11)]
    closures = [StepLoopClosure(a, b) for a, b in
                [(0, 11), (1, 10), (2, 9), (4, 7), (6, 7), (10, 11)]]

    def run(closures):
        c = ConstraintSet(closures=closures)
        return run_filter(steps, square_plan, KldConfig(n_min=300), StepNoiseModel(), c,
                          np.random.default_rng(5), start_pose=Pose2D(2.0, 5.0, 0.0))

    ref = run(closures)
    assert not np.array_equal(ref.poses, run([]).poses)
    for every in (0, 2, 16, filtering.COMPACT_EVERY):
        monkeypatch.setattr(filtering, "COMPACT_EVERY", every)
        got = run(closures)
        # the run ends on a full compaction, so the smoother sums over the
        # same arrays whatever the rounds before
        assert np.array_equal(got.poses, ref.poses)
        assert np.array_equal(got.map_poses, ref.map_poses)
        assert np.array_equal(got.counts, ref.counts)
        assert got.rooms == ref.rooms
        _assert_same_tree(got.tree, ref.tree)


@pytest.mark.parametrize("every", [0, 2, 16, 64])
def test_run_filter_long_span_closures_match_parent_chain_oracle(square_plan, monkeypatch, every):
    # five legs across the room and back: closures span up to 32 epochs,
    # and two pairs share one epoch_b
    steps = [StepEvent(0.5 * (i + 1), 0.75, math.pi if i % 8 == 7 else 0.0) for i in range(40)]
    closures = [StepLoopClosure(a, b) for a, b in
                [(0, 16), (0, 32), (16, 32), (2, 30), (8, 24), (8, 40), (24, 40), (4, 36)]]
    constraints = ConstraintSet(closures=closures)
    assert len(constraints.closures_at(32)) == 2 and len(constraints.closures_at(40)) == 2
    monkeypatch.setattr(filtering, "COMPACT_EVERY", every)

    def run():
        return run_filter(steps, square_plan, KldConfig(n_min=200), StepNoiseModel(),
                          constraints, np.random.default_rng(9),
                          start_pose=Pose2D(2.0, 5.0, 0.0))

    got = run()
    with monkeypatch.context() as never:
        # the run ends on a full compaction, so the rounds before leave no trace
        never.setattr(filtering, "COMPACT_EVERY", 0)
        _assert_same_tree(got.tree, run().tree)
    monkeypatch.setattr(AncestorTree, "ancestor_positions", oracles.ancestor_positions)
    want = run()
    assert np.array_equal(got.poses, want.poses)
    assert np.array_equal(got.map_poses, want.map_poses)
    assert np.array_equal(got.counts, want.counts)
    assert got.rooms == want.rooms


def test_run_filter_holds_a_bounded_tree(square_plan, monkeypatch):
    # a memory guard that times nothing: just before every compaction,
    # the tree holds at most 30 times as many particles as its largest
    # epoch.  Compacting every 16 epochs, this 200-step walk peaks at
    # 23.5 times; every 64 epochs, at 54 times
    held = 30
    compact = AncestorTree.compact
    ratios = []

    def counted(tree, *args, **kwargs):
        sizes = [len(c.poses) for c in tree.epochs]
        ratios.append(sum(sizes) / max(sizes))
        compact(tree, *args, **kwargs)

    monkeypatch.setattr(AncestorTree, "compact", counted)
    steps = [StepEvent(0.5 * (i + 1), 0.75, math.pi if i % 8 == 7 else 0.0) for i in range(200)]
    res = run_filter(steps, square_plan, KldConfig(n_min=100), StepNoiseModel(), ConstraintSet(),
                     np.random.default_rng(2), start_pose=Pose2D(2.0, 5.0, 0.0))
    assert len(ratios) == 200 // filtering.COMPACT_EVERY + 1
    assert max(ratios) <= held
    # the tree returned is fully compacted
    assert all(len(k) == len(c.poses) for k, c in zip(res.tree._survivors()[0], res.tree.epochs))
