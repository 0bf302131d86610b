"""Ground-truth walk and sensor simulation for exercising the pipeline.

Walks follow waypoint scripts at a constant stride; logged steps are the
truth plus sampled noise and gyro bias drift.  The magnetic field is a
uniform background plus exponentially decaying point anomalies, and WiFi
RSS follows log-distance path loss with Gaussian shadowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import (Floorplan, Pose2D, Room, containing_room, containing_rooms, expect,
                       finite_floats, records, wrap_angle)
from .sensors import (
    MagSample,
    PdrTrajectory,
    StepEvent,
    SurveyLog,
    WifiObservation,
    interpolate_positions,
    step_epoch_times,
)


@dataclass
class WalkScript:
    """Waypoint walk at constant speed and stride.

    Per leg the walker turns to face the target once, then strides
    straight; leg step counts round to the nearest whole stride and the
    next leg re-aims from wherever the previous one ended.
    """

    waypoints: list
    speed: float = 1.25        # m/s
    step_length: float = 0.75  # m
    start_theta: float | None = None


def generate_walk(script: WalkScript) -> tuple[PdrTrajectory, list[StepEvent]]:
    """Exact step sequence and truth trajectory for a walk script."""
    wps = [np.asarray(w, dtype=float) for w in script.waypoints]
    if len(wps) < 2:
        raise ValueError("a walk script needs at least two waypoints")
    L = script.step_length
    dt = L / script.speed
    pos = wps[0].copy()
    first_leg = wps[1] - wps[0]
    heading_prev = script.start_theta
    if heading_prev is None:
        heading_prev = math.atan2(first_leg[1], first_leg[0])
    poses = [(pos[0], pos[1], heading_prev)]
    steps: list[StepEvent] = []
    t = 0.0
    for target in wps[1:]:
        d = target - pos
        dist = float(np.hypot(d[0], d[1]))
        if dist < L / 2:
            continue
        heading = math.atan2(d[1], d[0])
        n = max(1, round(dist / L))
        for _ in range(n):
            t += dt
            dtheta = wrap_angle(heading - heading_prev)
            heading_prev = heading
            steps.append(StepEvent(t, L, dtheta))
            pos = pos + L * np.array([math.cos(heading), math.sin(heading)])
            poses.append((pos[0], pos[1], heading))
    arr = np.array(poses, dtype=float)
    arr[:, 2] = wrap_angle(arr[:, 2])
    return PdrTrajectory(arr, step_epoch_times(steps)), steps


def corrupt_steps(steps: list[StepEvent], theta_sigma: float = math.radians(0.5),
                  len_sigma: float = 0.04, bias_deg_per_min: float = 0.0,
                  rng: np.random.Generator | None = None) -> list[StepEvent]:
    """Logged steps: truth plus Gaussian stride/heading noise plus a
    linear gyro bias drift (degrees per minute of walk time).  Strides
    are clamped to at least 5 cm.

    Stride jitter here is the physical kind (a few cm); the much wider
    filter-side stride model is a robustness margin, not a generative
    truth, so the two are deliberately separate.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(steps)
    if n == 0:
        return []
    e_theta = rng.normal(0.0, theta_sigma, n)
    e_len = rng.normal(0.0, len_sigma, n)
    times = np.array([s.t for s in steps])
    dts = np.diff(times, prepend=times[0] - (times[1] - times[0] if n > 1 else 0.5))
    bias = math.radians(bias_deg_per_min) / 60.0 * dts
    out = []
    for i, s in enumerate(steps):
        out.append(StepEvent(s.t, max(0.05, s.length + e_len[i]),
                             s.dtheta + e_theta[i] + bias[i]))
    return out


@dataclass
class MagFieldModel:
    """Background magnitude plus point anomalies decaying exponentially
    with distance; anomalies is a (K, 4) array of x, y, strength, decay."""

    background: float = 50.0
    anomalies: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))

    def field_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.full(len(pts), self.background)
        for x, y, strength, decay in np.atleast_2d(self.anomalies):
            dist = np.hypot(pts[:, 0] - x, pts[:, 1] - y)
            out = out + strength * np.exp(-dist / decay)
        return out


def sample_magnetics(truth: PdrTrajectory, fieldmodel: MagFieldModel,
                     rate: float = 50.0, sigma: float = 0.3,
                     rng: np.random.Generator | None = None) -> list[MagSample]:
    """Magnetometer magnitudes sampled uniformly along the truth walk."""
    if rng is None:
        rng = np.random.default_rng(0)
    t0, t1 = float(truth.times[0]), float(truth.times[-1])
    count = int(math.floor((t1 - t0) * rate)) + 1
    times = t0 + np.arange(count) / rate
    pts = interpolate_positions(truth, times)
    vals = fieldmodel.field_at(pts) + rng.normal(0.0, sigma, count)
    return [MagSample(float(t), (float(v), 0.0, 0.0)) for t, v in zip(times, vals)]


@dataclass(frozen=True)
class AccessPoint:
    ap_id: str
    x: float
    y: float
    p0: float = -40.0   # dBm at 1 m
    n: float = 2.5      # path-loss exponent


def rss_at(ap: AccessPoint, pts: np.ndarray) -> np.ndarray:
    """Noise-free log-distance RSS at the given points, clamped to [-120, 0]."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.hypot(pts[:, 0] - ap.x, pts[:, 1] - ap.y)
    d = np.maximum(d, 0.1)
    return np.clip(ap.p0 - 10.0 * ap.n * np.log10(d), -120.0, 0.0)


def simulate_wifi(truth: PdrTrajectory, aps: list[AccessPoint],
                  scan_period: float = 1.0, shadow_sigma: float = 2.0,
                  rng: np.random.Generator | None = None) -> list[WifiObservation]:
    """Periodic scans along the truth walk; one observation per AP per
    scan with independent Gaussian shadowing."""
    if rng is None:
        rng = np.random.default_rng(0)
    t0, t1 = float(truth.times[0]), float(truth.times[-1])
    count = int(math.floor((t1 - t0) / scan_period)) + 1
    times = t0 + np.arange(count) * scan_period
    pts = interpolate_positions(truth, times)
    obs = []
    for ap in aps:
        base = rss_at(ap, pts)
        noisy = np.clip(base + rng.normal(0.0, shadow_sigma, count), -120.0, 0.0)
        obs.extend(WifiObservation(float(t), ap.ap_id, float(v)) for t, v in zip(times, noisy))
    obs.sort(key=lambda o: (o.t, o.ap_id))
    return obs


def _wall_run(y: float, x0: float, x1: float, gaps: list[tuple[float, float]]) -> list[tuple]:
    """Horizontal wall from x0 to x1 broken by the given gap intervals."""
    walls = []
    edges = sorted(g for g in gaps if g[0] > x0 or g[1] < x1)
    cur = x0
    for glo, ghi in edges:
        if glo > cur:
            walls.append((cur, y, glo, y))
        cur = max(cur, ghi)
    if cur < x1:
        walls.append((cur, y, x1, y))
    return walls


_OFFICE_SIZE = (50.0, 30.0)  # metres; office_floorplan() spans (0, 0) to this corner


def office_floorplan(door: float = 2.0) -> Floorplan:
    """Built-in 50 x 30 m office: two corridors, 16 rooms with doorways.

    Bottom band: rooms 0-7 under a horizontal corridor (room 16);
    top band: rooms 8-11 left and 12-15 right of a vertical dead-end
    corridor (room 17).  Every room opens onto the horizontal corridor.
    The corridor is three strides wide so a walk along its centre line
    crosses each doorway exactly mid-stride.
    """
    W, H = _OFFICE_SIZE
    y0, y1 = 13.5, 15.75
    walls: list[tuple] = [
        (0, 0, W, 0), (W, 0, W, H), (W, H, 0, H), (0, H, 0, 0),
    ]
    rooms: list[Room] = []
    bx = np.linspace(0.0, W, 9)
    bottom_centers = (bx[:-1] + bx[1:]) / 2.0
    for k in range(8):
        x0, x1 = bx[k], bx[k + 1]
        rooms.append(Room(k, f"room-{k}", [(x0, 0), (x1, 0), (x1, y0), (x0, y0)]))
        if k > 0:
            walls.append((x0, 0, x0, y0))
    tlx = np.linspace(0.0, 23.0, 5)
    trx = np.linspace(27.0, W, 5)
    tl_centers = (tlx[:-1] + tlx[1:]) / 2.0
    tr_centers = (trx[:-1] + trx[1:]) / 2.0
    for k in range(4):
        x0, x1 = tlx[k], tlx[k + 1]
        rooms.append(Room(8 + k, f"room-{8 + k}", [(x0, y1), (x1, y1), (x1, H), (x0, H)]))
        if k > 0:
            walls.append((x0, y1, x0, H))
    for k in range(4):
        x0, x1 = trx[k], trx[k + 1]
        rooms.append(Room(12 + k, f"room-{12 + k}", [(x0, y1), (x1, y1), (x1, H), (x0, H)]))
        if k > 0:
            walls.append((x0, y1, x0, H))
    rooms.append(Room(16, "corridor-h", [(0, y0), (W, y0), (W, y1), (0, y1)]))
    rooms.append(Room(17, "corridor-v", [(23.0, y1), (27.0, y1), (27.0, H), (23.0, H)]))
    half = door / 2.0
    walls += _wall_run(y0, 0.0, W, [(c - half, c + half) for c in bottom_centers])
    top_gaps = [(c - half, c + half) for c in np.concatenate([tl_centers, tr_centers])]
    top_gaps.append((23.0, 27.0))  # vertical corridor mouth
    walls += _wall_run(y1, 0.0, W, top_gaps)
    walls.append((23.0, y1, 23.0, H))
    walls.append((27.0, y1, 27.0, H))
    return Floorplan(np.array(walls, dtype=float), rooms)


CORRIDOR_Y = 14.625  # transit line chosen so step endpoints straddle doorways


def corridor_walk(repeats: int = 2) -> list[tuple[float, float]]:
    """Out-and-back runs along the horizontal corridor (45 m legs)."""
    ends = [(2.0, CORRIDOR_Y), (47.0, CORRIDOR_Y)]
    return [ends[i % 2] for i in range(repeats + 1)]


def floor_loop_walk() -> list[tuple[float, float]]:
    """Covers both corridors: west end, up the dead-end spur, east end, back."""
    y = CORRIDOR_Y
    return [
        (2.0, y), (24.5, y), (24.5, 28.5), (24.5, y),
        (47.0, y), (2.0, y),
    ]


def detour_walk() -> list[tuple[float, float]]:
    """Floor loop plus two laps around an unmapped obstacle in room 4."""
    y = CORRIDOR_Y
    cx = 28.125  # room-4 door centre
    lap = [(26.625, 8.5), (26.625, 5.5), (29.625, 5.5), (29.625, 8.5)]
    return (
        [(2.0, y), (24.5, y), (24.5, 28.5), (24.5, y), (47.0, y), (cx, y), (cx, 8.5)]
        + lap + lap + [(26.625, 8.5), (cx, 8.5), (cx, y), (2.0, y)]
    )


def multi_room_walk() -> list[tuple[float, float]]:
    """Visits 15 of the 16 rooms with an out-and-back dip into each.

    Rooms are visited in corridor order so the cloud is re-anchored by a
    door funnel every few metres.  Dips are 11 strides: the 10 steps
    after the entry turn form a straight run, locking heading inside the
    room as well.
    """
    y = CORRIDOR_Y
    bottom = [3.125 + 6.25 * k for k in range(8)]
    top = [41.375, 35.625, 29.875, 20.125, 14.375, 8.625, 2.875]
    wps: list[tuple[float, float]] = [(2.0, y)]
    for c in bottom:
        wps += [(c, y), (c, 6.375), (c, y)]
    for c in top:
        wps += [(c, y), (c, 22.875), (c, y)]
    wps.append((2.0, y))
    return wps


def default_aps() -> list[AccessPoint]:
    spots = [(5.0, 5.0), (45.0, 5.0), (25.0, 15.0), (5.0, 25.0), (45.0, 25.0), (25.0, 28.0)]
    return [AccessPoint(f"ap{i}", x, y) for i, (x, y) in enumerate(spots)]


def random_anomalies(bounds: tuple[float, float, float, float], count: int = 110,
                     rng: np.random.Generator | None = None,
                     strength: tuple[float, float] = (10.0, 25.0),
                     decay: tuple[float, float] = (1.0, 2.2)) -> np.ndarray:
    """Random magnetic anomalies over a bounding box."""
    if rng is None:
        rng = np.random.default_rng(7)
    x0, y0, x1, y1 = bounds
    out = np.empty((count, 4))
    out[:, 0] = rng.random(count) * (x1 - x0) + x0
    out[:, 1] = rng.random(count) * (y1 - y0) + y0
    sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    out[:, 2] = sign * (rng.random(count) * (strength[1] - strength[0]) + strength[0])
    out[:, 3] = rng.random(count) * (decay[1] - decay[0]) + decay[0]
    return out


@dataclass
class Scenario:
    """Everything needed to synthesise one survey walk."""

    waypoints: list
    aps: list = field(default_factory=default_aps)
    anomalies: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    speed: float = 1.25
    step_length: float = 0.75
    theta_sigma: float = math.radians(0.5)
    len_sigma: float = 0.04
    background: float = 50.0
    mag_sigma: float = 0.3
    mag_rate: float = 50.0
    shadow_sigma: float = 2.0
    scan_period: float = 1.0
    bias_deg_per_min: float = 0.0
    start_hint: str = "pose"  # "pose" or "room"


_SCALARS = [f.name for f in fields(Scenario) if f.type == "float"]
_POSITIVE = ("speed", "step_length", "mag_rate", "scan_period")  # divisors; sigmas may be 0


def parse_scenario(text: str) -> Scenario:
    """Parse the line-oriented scenario format.

    Required records: waypoint,x,y (two or more).  Optional records:
    ap,x,y,p0,n (ids assigned ap0, ap1, ... in order),
    anomaly,x,y,strength,decay, starthint,pose|room, and <name>,<value>
    for the settings speed, step_length, theta_sigma, len_sigma,
    background, mag_sigma, mag_rate, shadow_sigma, scan_period and
    bias_deg_per_min.  speed, step_length, mag_rate, scan_period and
    each anomaly's decay must be positive; sigmas may not be negative.
    """
    waypoints = []
    aps = []
    anomalies = []
    scalars = {}
    start_hint = "pose"
    for line, parts in records(text):
        with line:
            tag = parts[0]
            if tag == "waypoint":
                waypoints.append(tuple(finite_floats(expect(parts, "waypoint,x,y")[1:])))
            elif tag == "ap":
                x, y, p0, n = finite_floats(expect(parts, "ap,x,y,p0,n")[1:])
                aps.append(AccessPoint(f"ap{len(aps)}", x, y, p0, n))
            elif tag == "anomaly":
                anomalies.append(finite_floats(expect(parts, "anomaly,x,y,strength,decay")[1:]))
                if anomalies[-1][3] <= 0:
                    raise ValueError(f"anomaly decay must be positive, got {anomalies[-1][3]}")
            elif tag == "starthint":
                start_hint = expect(parts, "starthint,pose|room")[1]
                if start_hint not in ("pose", "room"):
                    raise ValueError("starthint must be pose or room")
            elif tag in _SCALARS:
                value = finite_floats(expect(parts, f"{tag},<value>")[1:])[0]
                if tag in _POSITIVE and value <= 0:
                    raise ValueError(f"{tag} must be positive, got {value}")
                if tag.endswith("_sigma") and value < 0:
                    raise ValueError(f"{tag} must be non-negative, got {value}")
                scalars[tag] = value
            else:
                raise ValueError(f"unknown record tag {tag!r}")
    if len(waypoints) < 2:
        raise ValueError("scenario needs at least two waypoint records")
    return Scenario(
        waypoints=waypoints,
        aps=aps or default_aps(),
        anomalies=np.array(anomalies, dtype=float).reshape(-1, 4),
        start_hint=start_hint,
        **scalars,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def simulate_scenario(sc: Scenario, fp: Floorplan,
                      seed: int = 0) -> tuple[SurveyLog, PdrTrajectory]:
    """Run a scenario: returns the noisy survey log and the truth walk.

    Draw order (step noise, then magnetics, then WiFi) is fixed so a
    seed fully determines the output.
    """
    rng = np.random.default_rng(seed)
    truth, steps = generate_walk(WalkScript(sc.waypoints, sc.speed, sc.step_length))
    noisy = corrupt_steps(steps, sc.theta_sigma, sc.len_sigma, sc.bias_deg_per_min, rng)
    fieldmodel = MagFieldModel(sc.background, sc.anomalies)
    mags = sample_magnetics(truth, fieldmodel, sc.mag_rate, sc.mag_sigma, rng)
    wifi = simulate_wifi(truth, sc.aps, sc.scan_period, sc.shadow_sigma, rng)
    log = SurveyLog(steps=noisy, mags=mags, wifi=wifi)
    if sc.start_hint == "room":
        log.start_room = containing_room(fp, truth.poses[0, :2])
    else:
        log.start_pose = Pose2D(*truth.poses[0])
    return log, truth


def grid_survey(sc: Scenario, fp: Floorplan, spacing: float = 1.0,
                seed: int = 0) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Exhaustive reference survey of a scenario's signal fields.

    Samples every grid node inside the floorplan with one noisy reading
    per source, as a surveyor with a trolley and infinite patience
    would.  Returns (positions, mag readings, {ap_id: rssi}).
    """
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = fp.bounds
    xs = np.arange(x0 + spacing / 2.0, x1, spacing)
    ys = np.arange(y0 + spacing / 2.0, y1, spacing)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = containing_rooms(fp, pts) >= 0
    pts = pts[inside]
    field = MagFieldModel(sc.background, sc.anomalies)
    mag = field.field_at(pts) + rng.normal(0.0, sc.mag_sigma, len(pts))
    wifi: dict[str, np.ndarray] = {}
    for ap in sc.aps:
        wifi[ap.ap_id] = rss_at(ap, pts) + rng.normal(0.0, sc.shadow_sigma, len(pts))
    return pts, mag, wifi


def _office_scenario(waypoints: list[tuple[float, float]], bias_deg_per_min: float,
                     field_seed: int, count: int = 110) -> Scenario:
    """A walk over office_floorplan() through a random anomaly field."""
    return Scenario(
        waypoints=waypoints,
        anomalies=random_anomalies((0.0, 0.0, *_OFFICE_SIZE), count, np.random.default_rng(field_seed)),
        bias_deg_per_min=bias_deg_per_min,
    )


def corridor_scenario(bias_deg_per_min: float = 3.0, repeats: int = 2,
                      field_seed: int = 7) -> Scenario:
    return _office_scenario(corridor_walk(repeats), bias_deg_per_min, field_seed)


def floor_loop_scenario(bias_deg_per_min: float = 2.0, field_seed: int = 8) -> Scenario:
    # sparser field than the other walks: leaves near-featureless
    # stretches that exercise the closure validation rules
    return _office_scenario(floor_loop_walk(), bias_deg_per_min, field_seed, count=60)


def detour_scenario(bias_deg_per_min: float = 2.0, field_seed: int = 9) -> Scenario:
    return _office_scenario(detour_walk(), bias_deg_per_min, field_seed)


def multi_room_scenario(bias_deg_per_min: float = 2.0, field_seed: int = 10) -> Scenario:
    return _office_scenario(multi_room_walk(), bias_deg_per_min, field_seed)
