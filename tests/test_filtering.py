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
    run_filter,
    seed_particles,
)
from floorsurvey.filtering import _reweight_batch
from floorsurvey.geometry import Pose2D
from floorsurvey.loopclosure import StepLoopClosure
from floorsurvey.sensors import StepEvent, StepNoiseModel
from floorsurvey.simulate import office_floorplan

import oracles


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

def _reweight(prev_xy, new_poses, step_index, c, anchors):
    fp = c.floorplan
    return _reweight_batch(prev_xy, fp.cells(prev_xy), new_poses, fp.cells(new_poses[:, :2]),
                           step_index, c, anchors)


def _reweight_one(prev_xy, new_pose, step_index, c, anchors=None):
    anchors = {a: np.array([xy], dtype=float) for a, xy in (anchors or {}).items()}
    return _reweight(np.array([prev_xy], dtype=float), np.array([new_pose], dtype=float),
                     step_index, c, anchors)[0]


def test_reweight_wall_crossing_zeroes(two_room_plan):
    c = ConstraintSet(two_room_plan)
    assert _reweight_one((4.0, 2.0), (6.0, 2.0, 0.0), 0, c) == 0.0
    assert _reweight_one((4.0, 5.0), (6.0, 5.0, 0.0), 0, c) == 1.0


def test_reweight_straight_factor(square_plan):
    flags = np.array([True])
    c = ConstraintSet(square_plan, straight_flags=flags)
    heading = math.radians(4.0)
    w = _reweight_one((5.0, 5.0), (5.5, 5.0, heading), 0, c)
    assert math.isclose(w, folded_normal_density(heading, c.sigma_alpha))
    # outside every room there is no wall to compare against
    w_out = _reweight_one((50.0, 50.0), (50.5, 50.0, heading), 0, c)
    assert w_out == 1.0


def test_reweight_closure_factor_uses_own_anchor(square_plan):
    c = ConstraintSet(square_plan, closures=[StepLoopClosure(2, 3)])
    # epoch 3 means step index 2; the anchor is the particle's position at epoch 2
    w = _reweight_one((4.5, 5.0), (5.0, 5.0, 0.0), 2, c, {2: (4.0, 5.0)})
    assert math.isclose(w, folded_normal_density(1.0, c.sigma_closure))


def test_reweight_batch_matches_scalar(two_room_plan):
    rng = np.random.default_rng(11)
    n = 300
    for fp in (two_room_plan, office_floorplan()):
        x0, y0, x1, y1 = fp.bounds
        lo, hi = (x0 + 0.5, y0 + 0.5), (x1 - 0.5, y1 - 0.5)
        prev = rng.uniform(lo, hi, size=(n, 2))
        # independent end points, then stride-sized moves
        ends = np.concatenate([rng.uniform(lo, hi, size=(n, 2)),
                               prev + rng.uniform(-1.5, 1.5, size=(n, 2))])
        prev = np.concatenate([prev, prev])
        new = np.column_stack([ends, rng.uniform(-math.pi, math.pi, 2 * n)])
        flags = np.array([False, True, True])
        # two closures ending at epoch 2, each with per-particle anchors
        anchors = {a: rng.uniform(lo, hi, size=(2 * n, 2)) for a in (0, 1)}
        c = ConstraintSet(fp, straight_flags=flags,
                          closures=[StepLoopClosure(0, 2), StepLoopClosure(1, 2)])
        for step_index in (0, 1):
            got = _reweight(prev, new, step_index, c, anchors)
            want = np.array([oracles.reweight(prev[i], new[i], step_index, c,
                                              {a: xy[i] for a, xy in anchors.items()})
                             for i in range(2 * n)])
            assert np.allclose(got, want, atol=1e-12)


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
    # a bucket crowded with tiny weights runs past the vector steps
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
    assert np.array_equal(before.survivor_counts, after.survivor_counts)


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


def test_prune_smooth_rejects_empty():
    with pytest.raises(ValueError):
        prune_smooth(AncestorTree())


def test_surviving_counts_every_final_particle():
    t = AncestorTree()
    t.append(np.zeros((3, 3)), np.full(3, 1 / 3), np.full(3, -1))
    t.append(np.zeros((2, 3)), np.full(2, 0.5), np.array([1, 1]))
    keep = t.surviving()
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
            got, want = tree.surviving(), oracles.surviving(tree)
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


def _straight_steps(n, length=0.75):
    return [StepEvent(0.5 * (i + 1), length, 0.0) for i in range(n)]


def test_run_filter_shapes_and_determinism(square_plan):
    steps = _straight_steps(6)
    kld = KldConfig(n_min=300)
    noise = StepNoiseModel()
    a, b = (run_filter(steps, square_plan, kld, noise, ConstraintSet(square_plan),
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
                   ConstraintSet(square_plan), np.random.default_rng(0),
                   start_pose=Pose2D(5.0, 5.0, 0.0), label="pf1")
    assert info.value.epoch == 1
    assert "pf1" in str(info.value)


def test_run_filter_walls_confine_cloud(square_plan):
    # long walk east: the far wall stops the surviving mass inside
    steps = _straight_steps(30)
    res = run_filter(steps, square_plan, KldConfig(n_min=400), StepNoiseModel(),
                     ConstraintSet(square_plan), np.random.default_rng(1),
                     start_pose=Pose2D(1.0, 5.0, 0.0))
    assert res.positions[:, 0].max() <= 10.0 + 1e-9
    assert res.positions[:, 0].min() >= 0.0 - 1e-9


def test_run_filter_closure_anchors_survive_compaction(square_plan, monkeypatch):
    # out east and back west, so closures tie the return leg to the outbound one
    steps = [StepEvent(0.5 * (i + 1), 0.75, math.pi if i == 5 else 0.0) for i in range(11)]
    closures = [StepLoopClosure(a, b) for a, b in
                [(0, 11), (1, 10), (2, 9), (4, 7), (6, 7), (10, 11)]]

    def run(closures):
        c = ConstraintSet(square_plan, closures=closures)
        return run_filter(steps, square_plan, KldConfig(n_min=300), StepNoiseModel(), c,
                          np.random.default_rng(5), start_pose=Pose2D(2.0, 5.0, 0.0))

    ref = run(closures)
    assert not np.array_equal(ref.poses, run([]).poses)
    for every in (0, 2):
        monkeypatch.setattr(filtering, "COMPACT_EVERY", every)
        got = run(closures)
        # the smoother's mean sums over arrays that compaction shortens, so
        # only its rounding may differ; every other output is exact
        assert np.allclose(got.poses, ref.poses, rtol=0.0, atol=1e-12)
        assert np.array_equal(got.map_poses, ref.map_poses)
        assert np.array_equal(got.counts, ref.counts)
        assert np.array_equal(got.survivor_counts, ref.survivor_counts)
        assert got.rooms == ref.rooms


@pytest.mark.parametrize("every", [0, 2, filtering.COMPACT_EVERY])
def test_run_filter_long_span_closures_match_parent_chain_oracle(square_plan, monkeypatch, every):
    # five legs across the room and back: closures span up to 32 epochs,
    # and two pairs share one epoch_b
    steps = [StepEvent(0.5 * (i + 1), 0.75, math.pi if i % 8 == 7 else 0.0) for i in range(40)]
    closures = [StepLoopClosure(a, b) for a, b in
                [(0, 16), (0, 32), (16, 32), (2, 30), (8, 24), (8, 40), (24, 40), (4, 36)]]
    constraints = ConstraintSet(square_plan, closures=closures)
    assert len(constraints.closures_at(32)) == 2 and len(constraints.closures_at(40)) == 2
    monkeypatch.setattr(filtering, "COMPACT_EVERY", every)

    def run():
        return run_filter(steps, square_plan, KldConfig(n_min=200), StepNoiseModel(),
                          constraints, np.random.default_rng(9),
                          start_pose=Pose2D(2.0, 5.0, 0.0))

    got = run()
    monkeypatch.setattr(AncestorTree, "ancestor_positions", oracles.ancestor_positions)
    want = run()
    assert np.array_equal(got.poses, want.poses)
    assert np.array_equal(got.map_poses, want.map_poses)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.survivor_counts, want.survivor_counts)
    assert got.rooms == want.rooms
