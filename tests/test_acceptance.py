"""Acceptance suite: eleven end-to-end checks of the package's headline
behaviours, one verdict line each.

Every test prints an `[acceptance NN/11] PASS|FAIL ...` line to the
real terminal (capture is disabled for that line only), so a logged
pytest run shows all verdicts at a glance.  Two checks are expected to
fail and are left red on purpose; README.md carries the analysis:

* check 01: the particle-count bound reproduces the 504 and 16433
  sizing constants exactly but not the 300 figure for two occupied
  bins; no single closed form yields all three.
* check 07: labeling every epoch of the fifteen-room walk with the
  true room, on all five seeds, is statistically out of reach under
  the deliberately wide stride-noise model.  Measured accuracy sits
  at ~99% with every miss within half a stride of a room boundary.

The heavyweight scenario runs are module-scoped fixtures shared
between checks, so the whole file stays inside the per-check time
budgets it asserts.
"""

import filecmp
import itertools
import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from floorsurvey.cli import main as cli_main
from floorsurvey.filtering import (
    AncestorTree,
    ConstraintSet,
    kld_required_particles,
    pf2_kld_config,
    prune_smooth,
    run_filter,
)
from floorsurvey.loopclosure import (
    MspParams,
    SegmentPair,
    ValidationParams,
    detect_loop_closures,
    find_msps,
    obe_dtw,
)
from floorsurvey.pipeline import build_signal_maps, evaluate_trajectory, run_survey
from floorsurvey.sensors import StepNoiseModel
from floorsurvey.signalmap import compare_maps, fit_signal_maps, position_one_shot
from floorsurvey.simulate import (
    corridor_scenario,
    detour_scenario,
    floor_loop_scenario,
    grid_survey,
    multi_room_scenario,
    office_floorplan,
    rss_at,
    simulate_scenario,
)

pytestmark = pytest.mark.acceptance

EPSILON = 0.0109238


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {num:02d}/11] {'PASS' if ok else 'FAIL'}  {detail}",
              flush=True)
    assert ok, detail


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def corridor_run():
    """Corridor walk, 3 deg/min gyro bias, seed 4: one full two-pass
    survey shared by the trajectory, map and positioning checks."""
    fp = office_floorplan()
    sc = corridor_scenario()
    log, truth = simulate_scenario(sc, fp, seed=4)
    t0 = time.perf_counter()
    res = run_survey(log, fp, seed=4, mode="full")
    build_seconds = time.perf_counter() - t0
    return {"fp": fp, "sc": sc, "log": log, "truth": truth, "res": res,
            "build_seconds": build_seconds}


@pytest.fixture(scope="module")
def corridor_maps(corridor_run):
    """Path-derived GP maps vs maps fit to a dense reference grid of the
    same simulated field, plus the within-2-m cell mask."""
    fp, sc, res = corridor_run["fp"], corridor_run["sc"], corridor_run["res"]
    t0 = time.perf_counter()
    path_maps = build_signal_maps(res.points, fp.bounds)
    pts, _, wifi = grid_survey(sc, fp, spacing=1.0, seed=404)
    ref_maps = fit_signal_maps(fp.bounds, pts, wifi)
    path = res.final.positions
    any_map = next(iter(path_maps.values()))
    near_cell = cdist(any_map.centers, path).min(axis=1) <= 2.0
    seconds = time.perf_counter() - t0
    return {"path_maps": path_maps, "ref_maps": ref_maps, "grid_pts": pts,
            "near_cell": near_cell, "seconds": seconds}


# ------------------------------------------------------------------ checks

def test_c01_kld_particle_counts(capsys):
    targets = {2: 300, 12: 504, 360: 16433}
    got = {k: kld_required_particles(k, EPSILON) for k in targets}
    ok = all(abs(got[k] - t) <= 0.01 * t for k, t in targets.items())
    detail = "; ".join(f"k={k}: {got[k]} (target {t} +-1%)" for k, t in targets.items())
    _verdict(capsys, 1, ok, detail)


def _dtw_oracle(q, r):
    """Minimum over every admissible warp: any start column, reference
    advances by 0, 1 or 2 per query sample."""
    n, m = len(q), len(r)
    best = math.inf
    for j0 in range(m):
        for moves in itertools.product((0, 1, 2), repeat=n - 1):
            j = j0
            total = abs(q[0] - r[j])
            ok = True
            for i, d in enumerate(moves, start=1):
                j += d
                if j >= m:
                    ok = False
                    break
                total += abs(q[i] - r[j])
            if ok and total < best:
                best = total
    return best / n


def test_c02_dtw_matches_enumeration(capsys):
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        q = rng.normal(size=int(rng.integers(1, 8)))
        r = rng.normal(size=int(rng.integers(1, 11)))
        score, _ = obe_dtw(q, r)
        worst = max(worst, abs(score - _dtw_oracle(q, r)))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-12 and seconds < 10.0
    _verdict(capsys, 2, ok,
             f"200 random pairs, max |diff| {worst:.2e}, {seconds:.2f} s (< 10 s)")


def _random_tree(rng, max_epochs=10, max_particles=10):
    t = AncestorTree()
    n0 = int(rng.integers(1, max_particles + 1))
    w0 = rng.random(n0) + 0.05
    t.append(rng.normal(size=(n0, 3)), w0 / w0.sum(), np.full(n0, -1))
    for _ in range(int(rng.integers(2, max_epochs + 1)) - 1):
        prev_n = len(t[len(t) - 1].poses)
        n = int(rng.integers(1, max_particles + 1))
        w = rng.random(n) + 0.05
        t.append(rng.normal(size=(n, 3)), w / w.sum(), rng.integers(0, prev_n, size=n))
    return t


def _smooth_oracle(tree):
    """Exhaustive surviving-ancestor averaging: walk every final
    particle's lineage, weight by its final weight."""
    t1 = len(tree)
    last = tree[t1 - 1]
    acc_xy = np.zeros((t1, 2))
    best_score, best_path = -np.inf, None
    for f in range(len(last.poses)):
        wf = last.weights[f]
        idx = f
        path = []
        score = 0.0
        for e in range(t1 - 1, -1, -1):
            path.append(idx)
            acc_xy[e] += wf * tree[e].poses[idx][:2]
            score += math.log(tree[e].weights[idx])
            idx = int(tree[e].parents[idx])
        if score > best_score:
            best_score, best_path = score, list(reversed(path))
    mean_xy = acc_xy / last.weights.sum()
    map_poses = np.array([tree[e].poses[best_path[e]] for e in range(t1)])
    return mean_xy, map_poses


def test_c03_prune_smooth_matches_enumeration(capsys):
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        tree = _random_tree(rng)
        got = prune_smooth(tree)
        mean_xy, map_poses = _smooth_oracle(tree)
        worst = max(worst, float(np.max(np.abs(got.mean_poses[:, :2] - mean_xy))),
                    float(np.max(np.abs(got.map_poses - map_poses))))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-9 and seconds < 5.0
    _verdict(capsys, 3, ok,
             f"100 random trees, max |diff| {worst:.2e} (tol 1e-9), {seconds:.2f} s (< 5 s)")


def test_c04_msp_figure_case(capsys):
    x = np.array([0.0, 4.0, 8.0, 12.0, 16.0, 12.0, 8.0, 4.0, 0.0])
    pairs = find_msps(np.column_stack([x, np.zeros(9)]), MspParams(min_separation=1))
    ok = pairs == [SegmentPair(0, 3, 8, 5)]
    _verdict(capsys, 4, ok, f"nine-step out-and-back pairs 0..3 with 8..5: got {pairs}")


def test_c05_loop_closure_precision(capsys):
    fp = office_floorplan()
    walks = [("corridor", corridor_scenario()), ("loop", floor_loop_scenario()),
             ("detour", detour_scenario())]
    t0 = time.perf_counter()
    per_walk = []
    pre_tp = pre_n = post_tp = post_n = 0
    for name, sc in walks:
        log, truth = simulate_scenario(sc, fp, seed=11)
        res = run_survey(log, fp, seed=11, mode="pf1")
        cand = detect_loop_closures(res.pf1, log.mags, MspParams(), ValidationParams(),
                                    validate=False)
        kept = detect_loop_closures(res.pf1, log.mags, MspParams(), ValidationParams())

        def tp(closures):
            # true positive: the walker really was within the
            # validator's 3 m distance bound at the paired epochs
            d = [np.hypot(*(truth.positions[c.epoch_a] - truth.positions[c.epoch_b]))
                 for c in closures]
            return sum(v <= 3.0 for v in d)

        ctp, ktp = tp(cand.closures), tp(kept.closures)
        pre_tp += ctp
        pre_n += len(cand.closures)
        post_tp += ktp
        post_n += len(kept.closures)
        ratio = ktp / len(kept.closures) if kept.closures else 0.0
        per_walk.append((name, ratio))
    seconds = time.perf_counter() - t0
    pre = pre_tp / pre_n
    post = post_tp / post_n
    ok = (all(r > 0.7 for _, r in per_walk) and post > pre and seconds < 120.0)
    walks_txt = ", ".join(f"{n} {r:.3f}" for n, r in per_walk)
    _verdict(capsys, 5, ok,
             f"validated precision {walks_txt} (each > 0.7); "
             f"pooled {pre:.3f} -> {post:.3f} (strict); {seconds:.1f} s (< 120 s)")


def test_c06_corridor_accuracy_with_bias(capsys, corridor_run):
    truth, res = corridor_run["truth"], corridor_run["res"]
    full = evaluate_trajectory(res.final.positions, res.final.rooms, truth)
    base = evaluate_trajectory(res.pf1.positions, res.pf1.rooms, truth)
    seconds = corridor_run["build_seconds"]
    ok = full.p90_error <= 1.5 and full.p90_error < base.p90_error and seconds < 180.0
    _verdict(capsys, 6, ok,
             f"p90 {full.p90_error:.2f} m (<= 1.5 m) vs first-pass "
             f"{base.p90_error:.2f} m; survey {seconds:.0f} s (< 180 s)")


def test_c07_room_accuracy_five_seeds(capsys):
    fp = office_floorplan()
    sc = multi_room_scenario()
    t0 = time.perf_counter()
    full_mism, base_mism, epochs = [], [], 0
    for seed in (1, 2, 3, 4, 5):
        log, truth = simulate_scenario(sc, fp, seed=seed)
        res = run_survey(log, fp, seed=seed, mode="full")
        for out, fres in ((full_mism, res.final), (base_mism, res.pf1)):
            out.append(evaluate_trajectory(fres.positions, fres.rooms, truth, fp).room_mismatches)
        epochs += len(truth)
    seconds = time.perf_counter() - t0
    full_ok = all(m == 0 for m in full_mism)
    base_ok = sum(m > 0 for m in base_mism) >= 3
    ok = full_ok and base_ok and seconds < 600.0
    acc = 1.0 - sum(full_mism) / epochs
    _verdict(capsys, 7, ok,
             f"full-pass room mismatches per seed {full_mism} (target all 0; "
             f"accuracy {acc:.4f}); first-pass mismatches {base_mism} "
             f"(< 100% on >= 3/5); {seconds:.0f} s (< 600 s)")


def test_c08_map_agreement_near_path(capsys, corridor_maps):
    path_maps = corridor_maps["path_maps"]
    ref_maps = corridor_maps["ref_maps"]
    mask = corridor_maps["near_cell"]
    medians = {}
    for ap in sorted(ref_maps):
        _, med = compare_maps(path_maps[ap], ref_maps[ap], mask)
        medians[ap] = med
    seconds = corridor_maps["seconds"]
    ok = all(m >= 0.7 for m in medians.values()) and seconds < 60.0
    meds = ", ".join(f"{ap} {m:.2f}" for ap, m in medians.items())
    _verdict(capsys, 8, ok,
             f"median interval overlap within 2 m of path: {meds} "
             f"(each >= 0.7); {seconds:.0f} s (< 60 s)")


def test_c09_positioning_better_near_path(capsys, corridor_run, corridor_maps):
    sc, res = corridor_run["sc"], corridor_run["res"]
    pts = corridor_maps["grid_pts"]
    maps = [corridor_maps["path_maps"][ap.ap_id] for ap in sc.aps]
    rng = np.random.default_rng(99)
    obs = {ap.ap_id: rss_at(ap, pts) + rng.normal(0.0, sc.shadow_sigma, len(pts))
           for ap in sc.aps}
    err = np.empty(len(pts))
    for i, p in enumerate(pts):
        x, y, _ = position_one_shot(maps, {aid: float(v[i]) for aid, v in obs.items()})
        err[i] = math.hypot(x - p[0], y - p[1])
    dist = cdist(pts, res.final.positions).min(axis=1)
    near, far = np.sort(err[dist <= 2.0]), np.sort(err[dist > 2.0])
    thresholds = np.unique(np.concatenate([near, far]))
    f_near = np.searchsorted(near, thresholds, side="right") / len(near)
    f_far = np.searchsorted(far, thresholds, side="right") / len(far)
    ok = bool(np.all(f_near >= f_far - 1e-12) and np.any(f_near > f_far))
    _verdict(capsys, 9, ok,
             f"error CDF dominance over {len(near)} near / {len(far)} far points; "
             f"medians {np.median(near):.2f} m vs {np.median(far):.2f} m")


def test_c10_runtime_on_long_walk(capsys):
    fp = office_floorplan()
    sc = corridor_scenario(repeats=16)
    log, truth = simulate_scenario(sc, fp, seed=6)
    assert len(log.steps) >= 950
    t0 = time.perf_counter()
    first = run_survey(log, fp, seed=6, mode="pf1")
    pf1_s = time.perf_counter() - t0
    closures = detect_loop_closures(first.pf1, log.mags, MspParams(), ValidationParams())
    constraints = ConstraintSet(
        floorplan=fp,
        straight_flags=first.straight_flags,
        closures=closures.closures,
    )
    t0 = time.perf_counter()
    run_filter(log.steps, fp, pf2_kld_config(), StepNoiseModel(), constraints,
               rng=np.random.default_rng(6), start_pose=log.start_pose, label="pf2")
    pf2_s = time.perf_counter() - t0
    ok = pf1_s <= 30.0 and pf2_s <= 150.0
    _verdict(capsys, 10, ok,
             f"{len(log.steps)}-step walk: first pass {pf1_s:.1f} s (<= 30 s), "
             f"second pass {pf2_s:.1f} s (<= 150 s)")


def test_c11_survey_byte_identical(capsys, tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--walk", "corridor", "--out", str(sim),
                     "--seed", "9"]) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["survey", "--log", str(sim / "log.txt"),
                         "--out", str(out), "--seed", "9"]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same = (names == sorted(p.name for p in outs[1].iterdir()) and
            all(filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False) for n in names))
    _verdict(capsys, 11, same,
             f"two same-seed survey runs, {len(names)} files byte-identical")
