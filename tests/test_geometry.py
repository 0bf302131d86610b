import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey.geometry import (
    _MAX_CELLS,
    _MIXED,
    Floorplan,
    FloorplanError,
    Pose2D,
    Room,
    acute_angles_to_room_walls,
    containing_room,
    containing_rooms,
    parse_floorplan,
    points_in_polygon,
    segments_cross_walls,
    wrap_angle,
)
from floorsurvey.simulate import office_floorplan

import oracles
from conftest import box


def test_wrap_angle_known_values():
    # range is [-pi, pi)
    assert wrap_angle(0.0) == 0.0
    assert math.isclose(wrap_angle(3 * math.pi), -math.pi)
    assert math.isclose(wrap_angle(-3 * math.pi), -math.pi)
    assert math.isclose(wrap_angle(math.pi + 0.1), -math.pi + 0.1)


@given(st.floats(-50, 50), st.integers(-8, 8))
def test_wrap_angle_periodic(theta, k):
    a = wrap_angle(theta)
    b = wrap_angle(theta + 2 * math.pi * k)
    assert -math.pi - 1e-12 <= a < math.pi + 1e-12
    assert math.isclose(a, b, abs_tol=1e-9)


def test_wrap_angle_vectorised():
    out = wrap_angle(np.array([0.0, 3 * math.pi, -0.5]))
    assert np.allclose(out, [0.0, -math.pi, -0.5])


def test_pose2d_fields():
    p = Pose2D(1.0, 2.0, 0.5)
    assert (p.x, p.y, p.theta) == (1.0, 2.0, 0.5)


@pytest.mark.parametrize("fields", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                    (0.0, 0.0, math.nan), (0.0, 0.0, -math.inf),
                                    tuple(np.array([1.0, np.nan, 0.0]))])
def test_pose2d_rejects_non_finite_fields(fields):
    with pytest.raises(ValueError, match="not finite"):
        Pose2D(*fields)


# ---------------------------------------------------------------- floorplan

def test_floorplan_requires_contiguous_ids():
    with pytest.raises(FloorplanError):
        Floorplan(np.zeros((0, 4)), [Room(1, "a", box(0, 0, 1, 1))])


def test_floorplan_rejects_self_intersecting_polygon():
    bowtie = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], dtype=float)
    with pytest.raises(FloorplanError):
        Floorplan(np.zeros((0, 4)), [Room(0, "bow", bowtie)])


def _random_polygon(rng, on_grid: bool) -> np.ndarray:
    """3-7 vertices: on a 4 x 4 integer grid, so that repeated vertices,
    collinear and touching edges are common; or floats, as a star-shaped
    polygon (simple) with two vertices swapped half of the time."""
    n = int(rng.integers(3, 8))
    if on_grid:
        return rng.integers(0, 4, size=(n, 2)).astype(float)
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    vs = rng.uniform(0.5, 3.0, n)[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    if rng.random() < 0.5:
        i, j = rng.choice(n, size=2, replace=False)
        vs[[i, j]] = vs[[j, i]]
    return vs + rng.uniform(-5.0, 5.0, 2)


@pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "float"])
def test_floorplan_validation_matches_polygon_oracle(on_grid):
    rng = np.random.default_rng(17)
    verdicts = []
    for _ in range(500):
        polys = [_random_polygon(rng, on_grid) for _ in range(int(rng.integers(1, 4)))]
        rooms = [Room(i, f"r{i}", vs) for i, vs in enumerate(polys)]
        bad = [i for i, vs in enumerate(polys) if not oracles.polygon_is_simple(vs)]
        if bad:
            with pytest.raises(FloorplanError, match=f"^room {bad[0]} polygon is self-intersecting$"):
                Floorplan(np.zeros((0, 4)), rooms)
        else:
            Floorplan(np.zeros((0, 4)), rooms)
        verdicts.append(bad[:1])
    # both verdicts, and a bad room other than the first, are exercised
    assert verdicts.count([]) > 25 and verdicts.count([1]) + verdicts.count([2]) > 25


def test_floorplan_bounds(two_room_plan):
    assert two_room_plan.bounds == (0.0, 0.0, 10.0, 10.0)


def test_parse_floorplan_roundtrip_small():
    text = """
# comment
wall,0,0,10,0
wall,0,0,0,10
room,0,main,0,0,10,0,10,10,0,10
"""
    fp = parse_floorplan(text)
    assert len(fp.walls) == 2
    assert len(fp.rooms) == 1
    assert fp.rooms[0].name == "main"


def test_floorplan_rejects_non_finite_coordinates():
    with pytest.raises(FloorplanError, match="wall"):
        Floorplan(np.array([[0.0, 0.0, np.nan, 1.0]]), [])
    with pytest.raises(FloorplanError, match="room 0"):
        Floorplan(np.zeros((0, 4)), [Room(0, "a", [(0, 0), (1, 0), (np.inf, 1)])])


def test_parse_floorplan_error_carries_line_number():
    with pytest.raises(FloorplanError, match="line 2"):
        parse_floorplan("wall,0,0,1,0\nwall,oops,0,1,0\n")
    with pytest.raises(FloorplanError, match="unknown record"):
        parse_floorplan("door,0,0,1,1\n")
    with pytest.raises(FloorplanError, match="duplicate room ids"):
        parse_floorplan(
            "room,0,a,0,0,1,0,1,1\nroom,0,b,2,2,3,2,3,3\n"
        )
    with pytest.raises(FloorplanError, match="line 2: non-finite"):
        parse_floorplan("wall,0,0,1,0\nwall,0,nan,1,0\n")
    with pytest.raises(FloorplanError, match="line 3: non-finite"):
        parse_floorplan("wall,0,0,1,0\n\nwall,0,0,inf,0\n")
    with pytest.raises(FloorplanError, match="line 1: non-finite"):
        parse_floorplan("room,0,a,0,0,1,0,-inf,1\n")


# ------------------------------------------------------- segment crossing

def _cross_oracle(p0, p1, q0, q1):
    """Proper or touching segment intersection, by orientation tests."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    def on_seg(a, b, c):
        return (min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
                and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12)

    d1, d2 = orient(q0, q1, p0), orient(q0, q1, p1)
    d3, d4 = orient(p0, p1, q0), orient(p0, p1, q1)
    if d1 != d2 and d3 != d4:
        return True
    if d1 == 0 and on_seg(q0, q1, p0):
        return True
    if d2 == 0 and on_seg(q0, q1, p1):
        return True
    if d3 == 0 and on_seg(p0, p1, q0):
        return True
    if d4 == 0 and on_seg(p0, p1, q1):
        return True
    return False


def test_segments_cross_walls_matches_oracle():
    rng = np.random.default_rng(5)
    walls = rng.uniform(0, 10, size=(6, 4))
    p0s = rng.uniform(0, 10, size=(300, 2))
    p1s = rng.uniform(0, 10, size=(300, 2))
    got = segments_cross_walls(p0s, p1s, walls)
    for i in range(len(p0s)):
        want = any(
            _cross_oracle(p0s[i], p1s[i], w[:2], w[2:]) for w in walls
        )
        assert got[i] == want, i


def test_segment_crosses_wall_door_gap(two_room_plan):
    # through the doorway: no crossing; through the dividing wall: crossing
    p0s = np.array([(4, 5), (4, 2), (1, 1)], dtype=float)
    p1s = np.array([(6, 5), (6, 2), (4, 9)], dtype=float)
    assert list(segments_cross_walls(p0s, p1s, two_room_plan.walls)) == [False, True, False]
    assert [oracles.segment_crosses_wall(two_room_plan, a, b) for a, b in zip(p0s, p1s)] \
        == [False, True, False]


# --------------------------------------------------------- point in room

def _pip_oracle(vs, x, y):
    """Ray casting with boundary counted inside."""
    n = len(vs)
    for k in range(n):
        a, b = vs[k], vs[(k + 1) % n]
        cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
        if abs(cross) < 1e-12 and min(a[0], b[0]) - 1e-12 <= x <= max(a[0], b[0]) + 1e-12 \
                and min(a[1], b[1]) - 1e-12 <= y <= max(a[1], b[1]) + 1e-12:
            return True
    inside = False
    for k in range(n):
        a, b = vs[k], vs[(k + 1) % n]
        if (a[1] > y) != (b[1] > y):
            xi = a[0] + (y - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x < xi:
                inside = not inside
    return inside


def test_points_in_polygon_matches_oracle():
    lshape = np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 5, size=(400, 2))
    got = points_in_polygon(lshape, pts)
    want = np.array([_pip_oracle(lshape, *p) for p in pts])
    assert np.array_equal(got, want)


def test_containing_room_basics(two_room_plan):
    assert containing_room(two_room_plan, (2, 5)) == 0
    assert containing_room(two_room_plan, (8, 5)) == 1
    assert containing_room(two_room_plan, (20, 20)) is None
    assert containing_room(two_room_plan, (5, 5)) == 0  # shared edge: lowest id
    assert containing_room(two_room_plan, (math.nan, 5)) is None


def test_containing_rooms_vector_matches_scalar(two_room_plan):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 12, size=(200, 2))
    got = containing_rooms(two_room_plan, pts)
    for i, p in enumerate(pts):
        scalar = oracles.containing_room(two_room_plan, p)
        assert got[i] == (-1 if scalar is None else scalar)


# ------------------------------------------------------------ wall angles

def test_acute_angle_square_room(square_plan):
    # heading parallel to a wall -> 0; 30 deg off -> 30 deg; nearly
    # perpendicular -> distance to the other wall family
    heads = np.radians([0.0, 30.0, 80.0])
    out = acute_angles_to_room_walls(square_plan, np.full((3, 2), 5.0), heads)
    assert math.isclose(out[0], 0.0, abs_tol=1e-12)
    assert math.isclose(out[1], math.radians(30), abs_tol=1e-9)
    assert math.isclose(out[2], math.radians(10), abs_tol=1e-9)


def test_acute_angle_outside_rooms(square_plan):
    assert oracles.acute_angle_to_best_wall(square_plan, (50, 50), 0.3) is None
    out = acute_angles_to_room_walls(square_plan, np.array([[50.0, 50.0]]), np.array([0.3]))
    assert np.isnan(out[0])


def test_acute_angles_vector_matches_scalar(square_plan):
    # the second plan's rooms have 5, 5 and 3 edges, so the angle table
    # is padded for the triangle
    diagonal = _diagonal_plan()
    triangle = Room(2, "tri", [(8.5, 0.5), (11.0, 0.5), (9.0, 4.0)])
    mixed = Floorplan(diagonal.walls, diagonal.rooms + [triangle])
    rng = np.random.default_rng(1)
    for fp, lo, hi, n in ((square_plan, 1, 9, 50), (mixed, (0.0, 0.0), (11.5, 5.5), 400)):
        pts = rng.uniform(lo, hi, size=(n, 2))
        heads = rng.uniform(-math.pi, math.pi, n)
        out = acute_angles_to_room_walls(fp, pts, heads)
        for i in range(n):
            want = oracles.acute_angle_to_best_wall(fp, pts[i], heads[i])
            if want is None:
                assert np.isnan(out[i])
            else:
                assert math.isclose(out[i], want, abs_tol=1e-9)
    assert set(containing_rooms(mixed, pts)) == {-1, 0, 1, 2}


# ------------------------------------------------------------ grid index

def _diagonal_plan():
    """Two rooms split by a bent diagonal wall; no bound is a multiple
    of the 0.5 m grid cell."""
    x0, y0, x1, y1 = 0.37, 0.21, 7.93, 5.11
    walls = [[x0, y0, x1, y0], [x1, y0, x1, y1], [x1, y1, x0, y1], [x0, y1, x0, y0],
             [3.3, y0, 4.1, 2.9], [4.1, 2.9, 3.05, 4.12]]
    rooms = [Room(0, "west", [(x0, y0), (3.3, y0), (4.1, 2.9), (2.2, y1), (x0, y1)]),
             Room(1, "east", [(3.3, y0), (x1, y0), (x1, y1), (2.2, y1), (4.1, 2.9)])]
    return Floorplan(np.array(walls), rooms)


GRID_PLANS = {"office": office_floorplan(), "diagonal": _diagonal_plan()}


def _plan_points(fp):
    """Random points, points on grid lines, on room edges and vertices,
    far outside the bounds, and NaN points."""
    x0, y0, x1, y1 = fp.bounds
    grid_x = st.integers(-3, int((x1 - x0) / 0.5) + 3).map(lambda k: x0 + 0.5 * k)
    grid_y = st.integers(-3, int((y1 - y0) / 0.5) + 3).map(lambda k: y0 + 0.5 * k)
    xs = st.one_of(st.floats(x0 - 2, x1 + 2), grid_x)
    ys = st.one_of(st.floats(y0 - 2, y1 + 2), grid_y)
    edges = [(r.vertices[i], r.vertices[(i + 1) % len(r.vertices)])
             for r in fp.rooms for i in range(len(r.vertices))]
    on_edge = st.tuples(st.sampled_from(edges), st.floats(0, 1)).map(
        lambda et: tuple(et[0][0] + et[1] * (et[0][1] - et[0][0])))
    vertices = st.sampled_from([tuple(v) for r in fp.rooms for v in r.vertices])
    far = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    nan = st.sampled_from([(math.nan, y0 + 1.0), (x0 + 1.0, math.nan), (math.nan, math.nan)])
    return st.one_of(st.tuples(xs, ys), on_edge, vertices, far, nan)


def _plan_moves(fp):
    """Stride-sized and random moves, zero-length moves, moves ending on
    a wall endpoint, and moves along a wall's line."""
    x0, y0, x1, y1 = fp.bounds
    pts = st.tuples(st.floats(x0 - 1, x1 + 1), st.floats(y0 - 1, y1 + 1))
    step = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    ends = [tuple(w[:2]) for w in fp.walls] + [tuple(w[2:]) for w in fp.walls]
    walls = [tuple(w) for w in fp.walls]

    def along(wt):
        (cx, cy, dx, dy), t0, t1 = wt
        return ((cx + t0 * (dx - cx), cy + t0 * (dy - cy)),
                (cx + t1 * (dx - cx), cy + t1 * (dy - cy)))

    return st.one_of(
        st.tuples(pts, step).map(lambda ps: (ps[0], (ps[0][0] + ps[1][0], ps[0][1] + ps[1][1]))),
        st.tuples(pts, pts),
        pts.map(lambda p: (p, p)),
        st.tuples(pts, st.sampled_from(ends)),
        st.tuples(st.sampled_from(walls), st.floats(-1, 2), st.floats(-1, 2)).map(along),
    )


@pytest.mark.parametrize("name", sorted(GRID_PLANS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_containing_rooms_grid_matches_scalar(name, data):
    fp = GRID_PLANS[name]
    pts = np.array(data.draw(st.lists(_plan_points(fp), min_size=1, max_size=60)), dtype=float)
    got = containing_rooms(fp, pts)
    for i, p in enumerate(pts):
        scalar = oracles.containing_room(fp, p)
        assert got[i] == (-1 if scalar is None else scalar), p


@pytest.mark.parametrize("name", sorted(GRID_PLANS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wall_free_moves_never_cross(name, data):
    fp = GRID_PLANS[name]
    moves = data.draw(st.lists(_plan_moves(fp), min_size=1, max_size=60))
    p0s = np.array([m[0] for m in moves], dtype=float)
    p1s = np.array([m[1] for m in moves], dtype=float)
    clear = fp.clear_of_walls(p0s, p1s)
    batch = segments_cross_walls(p0s, p1s, fp.walls)
    for i in range(len(moves)):
        scalar = oracles.segment_crosses_wall(fp, p0s[i], p1s[i])
        assert batch[i] == scalar, moves[i]
        assert not (clear[i] and scalar), moves[i]


def test_grid_decides_most_cells_and_clears_stride_moves():
    fp = GRID_PLANS["office"]
    grid = fp._grid()
    assert np.mean(grid.rooms != _MIXED) > 0.5
    # a stride along the corridor centre line is clear of every wall
    assert fp.clear_of_walls(np.array([[10.0, 14.6]]), np.array([[10.7, 14.7]]))[0]
    assert not fp.clear_of_walls(np.array([[10.0, 13.0]]), np.array([[10.0, 14.0]]))[0]


def test_grid_cell_count_is_capped():
    fp = Floorplan(np.array([[0.0, 0.0, 1e6, 3e5]]), [Room(0, "big", box(0, 0, 1e6, 3e5))])
    grid = fp._grid()
    assert grid.nx * grid.ny <= _MAX_CELLS
    assert list(containing_rooms(fp, np.array([[5e5, 1e5], [2e6, 1.0]]))) == [0, -1]


def test_segments_cross_walls_needs_meeting_boxes():
    # four nearly collinear points; the boxes are 2 cm apart, yet the
    # orientation signs alone, under rounding, report a proper crossing
    p0 = np.array([[10.809303888981816, 1.5412649594296233]])
    p1 = np.array([[13.072530414367915, 7.971741297313715]])
    wall = np.array([[13.07972405019737, 7.9921804820200615, 13.863359933808114, 10.218715011618734]])
    assert not segments_cross_walls(p0, p1, wall)[0]
    assert not oracles.segment_crosses_wall(Floorplan(wall, []), p0[0], p1[0])
