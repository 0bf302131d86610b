"""Survey log model: step events, magnetometer and WiFi records, dead reckoning.

A survey walk is logged as a stream of step events (step length plus
heading change), raw magnetometer samples and WiFi scans, with one start
hint (either a room id or an explicit pose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose2D, bounded_coords, expect, finite_floats, records


class LogError(ValueError):
    """Raised for unparseable or inconsistent survey-log input."""


# largest magnetometer component read from a log, in uT: twice the widest
# phone magnetometer range (about +-4,900 uT) and 150 times the Earth's
# field, so that a sample's squared magnitude cannot overflow
MAX_FIELD = 1e4

RSS_RANGE = (-120.0, 0.0)  # dBm: a log's WiFi readings, and the simulator's clamp

# widest span of a log's record times, in s: 28 hours, past any survey
# walk; closure mining resamples a matched window at 10 samples per second
MAX_LOG_SPAN = 1e5


@dataclass(frozen=True)
class StepEvent:
    """One detected step: completion time, stride length, heading change."""

    t: float
    length: float
    dtheta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t, self.length, self.dtheta))):
            raise ValueError(f"step ({self.t}, {self.length}, {self.dtheta}) is not finite")
        if self.length <= 0:
            raise ValueError(f"step length must be positive, got {self.length}")


@dataclass(frozen=True)
class MagSample:
    t: float
    b: tuple[float, float, float]

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.b[0] ** 2 + self.b[1] ** 2 + self.b[2] ** 2)


@dataclass(frozen=True)
class WifiObservation:
    t: float
    ap_id: str
    rssi: float

    def __post_init__(self):
        lo, hi = RSS_RANGE
        if not lo <= self.rssi <= hi:
            raise ValueError(f"rssi {self.rssi} outside [{lo:g}, {hi:g}] dBm")


@dataclass
class StepNoiseModel:
    """Per-step error model: heading noise plus stride noise scaling with length."""

    sigma_dtheta: float = math.radians(0.5)
    length_lambda: float = 0.5

    def __post_init__(self):
        # a NaN scale would give NaN poses, which no wall test rejects
        for name in ("sigma_dtheta", "length_lambda"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def sigma_length(self, length: float) -> float:
        return self.length_lambda * length


@dataclass
class SurveyLog:
    steps: list[StepEvent] = field(default_factory=list)
    mags: list[MagSample] = field(default_factory=list)
    wifi: list[WifiObservation] = field(default_factory=list)
    start_room: int | None = None
    start_pose: Pose2D | None = None

    @property
    def has_start(self) -> bool:
        return self.start_room is not None or self.start_pose is not None


@dataclass
class PdrTrajectory:
    """Dead-reckoned pose sequence; one pose per step plus the start pose."""

    poses: np.ndarray  # (n+1, 3) of x, y, theta
    times: np.ndarray  # (n+1,)

    @property
    def positions(self) -> np.ndarray:
        return self.poses[:, :2]

    def __len__(self):
        return len(self.poses)


def parse_survey_log(text: str) -> SurveyLog:
    """Parse the line-oriented survey-log format.

    step,<t>,<length_m>,<dtheta_rad>
    mag,<t>,<bx>,<by>,<bz>
    wifi,<t>,<ap_id>,<rssi_dbm>
    start,<room_id>            or  start,<x>,<y>,<theta_rad>

    Records follow the grammar of records(); numbers must be finite, the
    start's x and y at most MAX_COORD in magnitude (bounded_coords), mag
    components at most MAX_FIELD uT in magnitude, step timestamps
    non-decreasing, and all record times within MAX_LOG_SPAN of each
    other.  Errors carry the 1-based line number.
    """
    log = SurveyLog()
    last_step_t = None
    first_t, last_t = math.inf, -math.inf  # earliest and latest record time so far
    for line, parts in records(text, LogError):
        with line:
            tag = parts[0]
            if tag == "step":
                t, length, dtheta = finite_floats(expect(parts, "step,<t>,<length>,<dtheta>")[1:])
                if last_step_t is not None and t < last_step_t:
                    raise ValueError(f"step timestamps must be non-decreasing ({t} after {last_step_t})")
                last_step_t = t
                log.steps.append(StepEvent(t, length, dtheta))
            elif tag == "mag":
                t, bx, by, bz = finite_floats(expect(parts, "mag,<t>,<bx>,<by>,<bz>")[1:])
                if max(abs(bx), abs(by), abs(bz)) > MAX_FIELD:
                    raise ValueError(f"mag component above {MAX_FIELD:g} uT in magnitude")
                log.mags.append(MagSample(t, (bx, by, bz)))
            elif tag == "wifi":
                t, rssi = finite_floats(expect(parts, "wifi,<t>,<ap_id>,<rssi>")[1::2])
                log.wifi.append(WifiObservation(t, parts[2], rssi))
            elif tag == "start":
                if log.has_start:
                    raise ValueError("duplicate start hint")
                if len(parts) == 2:
                    log.start_room = int(parts[1])
                elif len(parts) == 4:
                    log.start_pose = Pose2D(*bounded_coords(parts[1:3]), *finite_floats(parts[3:]))
                else:
                    raise ValueError("expected start,<room_id> or start,<x>,<y>,<theta>")
            else:
                raise ValueError(f"unknown record tag {tag!r}")
            if tag != "start":  # every other record is timed
                first_t, last_t = min(first_t, t), max(last_t, t)
                if last_t - first_t > MAX_LOG_SPAN:
                    raise ValueError(f"time {t:g} s spreads the log's records over more than "
                                     f"{MAX_LOG_SPAN:g} s")
    return log


def load_survey_log(path) -> SurveyLog:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_survey_log(fh.read())


def step_epoch_times(steps: list[StepEvent]) -> np.ndarray:
    """Times for trajectory epochs 0..n given n steps.

    Epoch i >= 1 takes the completion time of step i-1; epoch 0 is one
    nominal step period before the first step (clamped at zero when the
    log starts at t=0).
    """
    if not steps:
        return np.zeros(1)
    times = np.empty(len(steps) + 1)
    times[1:] = [s.t for s in steps]
    t0 = steps[0].t - (steps[1].t - steps[0].t if len(steps) >= 2 else 0.5)
    times[0] = min(max(t0, 0.0), steps[0].t)
    return times


def interpolate_positions(traj: PdrTrajectory, ts: np.ndarray) -> np.ndarray:
    """Linear position interpolation along a trajectory at times ts;
    (N, 2) output.  Raises ValueError when any time is outside the
    trajectory's time range."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < traj.times[0] or ts.max() > traj.times[-1]):
        raise ValueError("query times outside trajectory time range")
    return np.stack(
        [np.interp(ts, traj.times, traj.poses[:, 0]),
         np.interp(ts, traj.times, traj.poses[:, 1])],
        axis=1,
    )
