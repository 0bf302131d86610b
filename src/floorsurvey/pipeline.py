"""End-to-end survey pipeline.

Wires the two filter passes together: a wall-constrained first pass
produces a rough trajectory, loop closures are mined from its magnetic
signature, and the second pass re-runs the filter with wall, straight
walk and closure constraints.  The smoothed second pass is annotated
with per-epoch signal summaries ready for map building.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .filtering import (
    ConstraintSet,
    FilterResult,
    KldConfig,
    pf1_kld_config,
    pf2_kld_config,
    run_filter,
)
from .geometry import Floorplan, containing_rooms
from .loopclosure import LoopClosureResult, MspParams, ValidationParams, detect_loop_closures
from .sensors import PdrTrajectory, StepNoiseModel, SurveyLog
# fit_signal_map stays importable here: perfbench's traced mode swaps it by name
from .signalmap import GpParams, SignalMap, fit_signal_map, fit_signal_maps  # noqa: F401
from .straightline import StraightLineParams, detect_straight_steps

MAG_SOURCE = "mag"


@dataclass
class PipelineConfig:
    noise: StepNoiseModel = field(default_factory=StepNoiseModel)
    pf1: KldConfig = field(default_factory=pf1_kld_config)
    pf2: KldConfig = field(default_factory=pf2_kld_config)
    straight: StraightLineParams = field(default_factory=StraightLineParams)
    msp: MspParams = field(default_factory=MspParams)
    validation: ValidationParams = field(default_factory=ValidationParams)
    gp: GpParams = field(default_factory=GpParams)
    sigma_alpha: float = ConstraintSet.sigma_alpha
    sigma_closure: float = ConstraintSet.sigma_closure

    def __post_init__(self):
        # each is the scale of a folded normal density, which divides by it
        if not (0.0 < self.sigma_alpha < math.inf and 0.0 < self.sigma_closure < math.inf):
            raise ValueError(f"sigma_alpha and sigma_closure must be positive and finite, "
                             f"got {self.sigma_alpha} and {self.sigma_closure}")


def apply_overrides(config: PipelineConfig, overrides: dict[str, str]) -> PipelineConfig:
    """New config with dotted-key string overrides applied.

    Keys are either top-level scalars ("sigma_closure=0.8") or one level
    deep ("msp.radius=2.5"); values are coerced to the field's current
    type, int or float.  Unknown keys and sections, other field types and
    values the config classes reject raise ValueError.
    """
    changes: dict[str, dict] = {"": {}}  # per section; "" holds the config's own
    for key, text in overrides.items():
        head, dot, name = key.partition(".")
        if not dot:
            head, name = "", key
        owner = getattr(config, head, None) if head else config
        if not dataclasses.is_dataclass(owner):
            raise ValueError(f"unknown config section {head!r}")
        if name not in {f.name for f in dataclasses.fields(owner)}:
            raise ValueError(f"unknown config key {key!r}")
        cur = getattr(owner, name)
        if not isinstance(cur, (int, float)):
            raise ValueError(f"field of type {type(cur).__name__} cannot be overridden")
        changes.setdefault(head, {})[name] = int(text) if isinstance(cur, int) else float(text)
    top = changes.pop("")
    for head, sub in changes.items():
        top[head] = dataclasses.replace(getattr(config, head), **sub)
    return dataclasses.replace(config, **top)


@dataclass
class SurveyPoint:
    """One annotated epoch of the final trajectory."""

    epoch: int
    t: float
    x: float
    y: float
    theta: float
    room: int | None
    mag: float | None            # mean field magnitude over the epoch window
    wifi: dict[str, float]       # per-source mean RSS over the epoch window


def build_survey_points(result: FilterResult, log: SurveyLog) -> list[SurveyPoint]:
    """Attach windowed signal summaries to each smoothed epoch.

    A sample at time t belongs to the first epoch whose time is >= t;
    samples after the last epoch fold into it.
    """
    times = result.times
    n = len(times)

    def epochs_of(samples) -> list[int]:
        ts = np.array([s.t for s in samples], dtype=float)
        return np.minimum(np.searchsorted(times, ts, side="left"), n - 1).tolist()

    # each epoch's samples stay in log order, so np.mean sums them alike
    mag_acc = [[] for _ in range(n)]
    for e, m in zip(epochs_of(log.mags), log.mags):
        mag_acc[e].append(m.magnitude)
    wifi_acc: list[dict[str, list[float]]] = [dict() for _ in range(n)]
    for e, ob in zip(epochs_of(log.wifi), log.wifi):
        wifi_acc[e].setdefault(ob.ap_id, []).append(ob.rssi)
    points = []
    for e in range(n):
        x, y, theta = result.poses[e]
        mag = float(np.mean(mag_acc[e])) if mag_acc[e] else None
        wifi = {ap: float(np.mean(v)) for ap, v in sorted(wifi_acc[e].items())}
        points.append(SurveyPoint(e, float(times[e]), float(x), float(y), float(theta),
                                  result.rooms[e], mag, wifi))
    return points


@dataclass
class SurveyResult:
    pf1: FilterResult
    pf2: FilterResult | None
    straight_flags: np.ndarray
    closures: LoopClosureResult | None
    points: list[SurveyPoint]

    @property
    def final(self) -> FilterResult:
        return self.pf2 if self.pf2 is not None else self.pf1


def run_survey(log: SurveyLog, fp: Floorplan, config: PipelineConfig | None = None,
               seed: int = 0, mode: str = "full") -> SurveyResult:
    """Full two-pass survey, or first pass only with mode="pf1".

    One seeded generator drives both passes in a fixed order, so equal
    seeds give byte-identical results.
    """
    if mode not in ("full", "pf1"):
        raise ValueError(f"unknown mode {mode!r}")
    config = config or PipelineConfig()
    if not log.steps:
        raise ValueError("survey log contains no steps")
    if not log.has_start:
        raise ValueError("survey log contains no start hint")
    rng = np.random.default_rng(seed)
    flags = detect_straight_steps(log.steps, config.straight)
    pf1 = run_filter(log.steps, fp, config.pf1, config.noise, ConstraintSet(), rng,
                     start_room=log.start_room, start_pose=log.start_pose, label="pf1")
    if mode == "pf1":
        return SurveyResult(pf1, None, flags, None, build_survey_points(pf1, log))
    closures = detect_loop_closures(pf1, log.mags, config.msp, config.validation)
    c2 = ConstraintSet(straight_flags=flags, closures=closures.closures,
                       sigma_alpha=config.sigma_alpha, sigma_closure=config.sigma_closure)
    pf2 = run_filter(log.steps, fp, config.pf2, config.noise, c2, rng,
                     start_room=log.start_room, start_pose=log.start_pose, label="pf2")
    return SurveyResult(pf1, pf2, flags, closures, build_survey_points(pf2, log))


def build_signal_maps(points: list[SurveyPoint],
                      bounds: tuple[float, float, float, float],
                      gp: GpParams | None = None) -> dict[str, SignalMap]:
    """GP maps from annotated survey points: one magnetic map under the
    key "mag" plus one RSS map per WiFi source seen, in sorted order.
    Sources observed at exactly the same positions (same array, same
    bytes) share one GP factorisation."""
    sources = [MAG_SOURCE] + sorted({ap for p in points for ap in p.wifi})
    groups: dict[tuple, tuple[np.ndarray, dict[str, np.ndarray]]] = {}
    for src in sources:
        if src == MAG_SOURCE:
            obs = [((p.x, p.y), p.mag) for p in points if p.mag is not None]
        else:
            obs = [((p.x, p.y), p.wifi[src]) for p in points if src in p.wifi]
        pos = np.array([xy for xy, _ in obs]).reshape(-1, 2)
        val = np.array([v for _, v in obs])
        groups.setdefault((pos.shape, pos.tobytes()), (pos, {}))[1][src] = val
    maps: dict[str, SignalMap] = {}
    for pos, values in groups.values():
        maps.update(fit_signal_maps(bounds, pos, values, gp))
    return {src: maps[src] for src in sources}


@dataclass
class EvalReport:
    n_epochs: int
    mean_error: float
    median_error: float
    p90_error: float
    max_error: float
    final_error: float
    room_accuracy: float | None
    room_mismatches: int | None


def evaluate_trajectory(positions: np.ndarray, rooms, truth: PdrTrajectory,
                        fp: Floorplan | None = None) -> EvalReport:
    """Per-epoch position error statistics of (T, 2) estimated positions
    against a truth walk, plus room-assignment accuracy when a floorplan
    is supplied.  rooms holds the estimated room id per epoch, None or -1
    where none; it is read only with a floorplan."""
    est = np.asarray(positions, dtype=float)
    ref = truth.positions
    if len(est) != len(ref):
        raise ValueError(f"epoch count mismatch: {len(est)} vs {len(ref)}")
    err = np.hypot(est[:, 0] - ref[:, 0], est[:, 1] - ref[:, 1])
    acc = mism = None
    if fp is not None:
        est_rooms = np.array([-1 if r is None else r for r in rooms], dtype=int)
        mism = int(np.count_nonzero(est_rooms != containing_rooms(fp, ref)))
        acc = 1.0 - mism / len(ref)
    return EvalReport(
        n_epochs=len(err),
        mean_error=float(np.mean(err)),
        median_error=float(np.median(err)),
        p90_error=float(np.percentile(err, 90)),
        max_error=float(np.max(err)),
        final_error=float(err[-1]),
        room_accuracy=acc,
        room_mismatches=mism,
    )
