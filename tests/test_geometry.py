import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorsurvey.geometry import (
    _MAX_CELLS,
    _MIXED,
    _rooms_by_polygon,
    Floorplan,
    FloorplanError,
    Pose2D,
    Room,
    acute_angles_to_room_walls,
    containing_room,
    containing_rooms,
    parse_floorplan,
    points_in_polygon,
    remainder,
    rooms_in_cells,
    segment_wall_crossings,
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


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _remainder_edges(b: float) -> list[float]:
    """Zeros, +-b and +-2b with their neighbours, subnormals, tiny and
    huge values, NaN and infinities."""
    near = [0.0, b, 2.0 * b]
    edges = [x for v in near for x in (v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf))]
    edges += [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, np.inf]
    return edges + [-v for v in edges] + [np.nan]


_FIXED_DIVISORS = [math.pi, 2.0 * math.pi]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_remainder_equals_np_remainder_bit_for_bit(data):
    b = data.draw(st.sampled_from(_FIXED_DIVISORS) | st.floats(5e-324, 1e300))
    value = st.sampled_from(_remainder_edges(b)) | st.floats(-2.5 * b, 2.5 * b) | st.floats()
    a = np.array(data.draw(st.lists(value, max_size=40)), dtype=float)
    with np.errstate(invalid="ignore"):
        # the whole array, which may go to np.remainder whole, then each
        # element alone and the elements in [-2b, 2b), which take the kernel
        assert np.array_equal(_bits(remainder(a, b)), _bits(np.remainder(a, b)))
        for x in a:
            got = remainder(x, b)
            assert got.shape == () and _bits(got) == _bits(np.remainder(x, b))
        inside = a[(a >= -2.0 * b) & (a < 2.0 * b)]
        assert np.array_equal(_bits(remainder(inside, b)), _bits(np.remainder(inside, b)))


@pytest.mark.parametrize("b", _FIXED_DIVISORS + [0.37, 5e-324, 1e300])
def test_remainder_edges_bit_for_bit(b):
    edges = np.array(_remainder_edges(b))
    with np.errstate(invalid="ignore"):
        for x in edges:
            assert _bits(remainder(x, b)) == _bits(np.remainder(x, b))
        inside = edges[(edges >= -2.0 * b) & (edges < 2.0 * b)]
        assert np.array_equal(_bits(remainder(inside, b)), _bits(np.remainder(inside, b)))
    assert _bits(remainder(-0.0, b)) == _bits(0.0)  # np.remainder's sign of zero


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_wrap_angle_scalar_is_float_with_old_bytes(theta):
    # reference: np.remainder by the % operator
    old = float((np.float64(theta) + math.pi) % (2.0 * math.pi) - math.pi)
    got = wrap_angle(theta)
    assert type(got) is float and _bits(got) == _bits(old)
    assert _bits(Pose2D(0.0, 0.0, theta).theta) == _bits(old)


@pytest.mark.parametrize("b", _FIXED_DIVISORS)
def test_remainder_and_wrap_angle_on_cloud_sized_arrays(b):
    # headings of a filter cloud walking along an axis: near 0 or +-pi
    # the signs mix at random, which the small Hypothesis lists never pin
    rng = np.random.default_rng(22)
    centres = [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]
    clouds = [rng.normal(c, 0.05, 30_000) for c in centres]
    # in the kernel's range: +-b, -2b and -0.0 mixed in; outside it
    # (np.remainder whole): 2b, NaN and +-inf
    specials = [[b, -b, -2.0 * b, -0.0], [2.0 * b], [math.nan], [math.inf, -math.inf]]
    for extra in specials:
        cloud = clouds[0].copy()
        cloud[rng.choice(len(cloud), 4 * len(extra), replace=False)] = np.repeat(extra, 4)
        clouds.append(cloud)
    with np.errstate(invalid="ignore"):
        for a in clouds:
            assert np.array_equal(_bits(remainder(a, b)), _bits(np.remainder(a, b)))
            if b == 2.0 * math.pi:
                want = np.remainder(a + math.pi, b) - math.pi
                assert np.array_equal(_bits(wrap_angle(a)), _bits(want))
        for x in [0.0, -0.0, b, -b, 2.0 * b, -2.0 * b, math.nan, math.inf, -math.inf, 0.03, -0.03]:
            got = remainder(np.float64(x), b)
            assert got.shape == () and _bits(got) == _bits(np.remainder(x, b))


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


def test_floorplan_rejects_a_room_wider_than_the_largest_float():
    # finite vertices whose max - min overflows in x, in y, or in the second
    # room; the room at +-8e307 has a finite extent, but the orientation
    # products of the self-intersection test would overflow
    wide = [(-1e308, -1), (1e308, -1), (1e308, 1), (-1e308, 1)]
    tall = [(y, x) for x, y in wide]
    unit = [(0, 0), (1, 0), (1, 1), (0, 1)]
    half = [(-8e307, -1), (8e307, -1), (8e307, 1), (-8e307, 1)]
    for rooms, bad in (([wide], 0), ([tall], 0), ([unit, wide], 1), ([half], 0)):
        with pytest.raises(FloorplanError, match=f"^room {bad} has a vertex that is not finite "
                                                 r"or above 1e\+150 in magnitude$"):
            Floorplan(np.zeros((0, 4)), [Room(i, "r", vs) for i, vs in enumerate(rooms)])
    with pytest.raises(FloorplanError, match="^wall coordinates must be finite and at most"):
        Floorplan(np.array([[0.0, 0.0, 2e150, 1.0]]), [])


def test_parse_floorplan_bounds_coordinates_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloorplanError, match=r"^line 2: coordinate above 1e\+150"):
            parse_floorplan("wall,0,0,1,0\nroom,0,r,-8e307,-1,8e307,-1,8e307,1,-8e307,1\n")
        with pytest.raises(FloorplanError, match=r"^line 1: coordinate above 1e\+150"):
            parse_floorplan("wall,0,0,-1.5e150,0\n")
        # a plan at 1e149 loads, and its bow-tie is still found
        fp = parse_floorplan("wall,-1e149,0,1e149,0\nroom,0,r,-1e149,-1,1e149,-1,1e149,1,-1e149,1\n")
        assert fp.bounds == (-1e149, -1.0, 1e149, 1.0)
        with pytest.raises(FloorplanError, match="room 0 polygon is self-intersecting"):
            parse_floorplan("room,0,r,-1e149,-1,1e149,1,1e149,-1,-1e149,1\n")


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


def _moves_and_walls(data):
    """Up to 30 moves against up to 6 walls, with coordinates mostly on
    a 1 m lattice: boxes that touch only at an edge or a corner,
    collinear overlaps and shared endpoints, plus zero-length moves,
    moves along a wall's line and NaN ends."""
    coord = st.one_of(st.integers(0, 4).map(float), st.floats(-1, 5))
    point = st.tuples(coord, coord)
    walls = data.draw(st.lists(st.tuples(point, point), max_size=6))
    ends = st.one_of(point, st.sampled_from([e for w in walls for e in w] or [(0.0, 0.0)]),
                     st.sampled_from([(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)]))
    t = st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5])

    def along(wt):
        ((cx, cy), (dx, dy)), t0, t1 = wt
        return ((cx + t0 * (dx - cx), cy + t0 * (dy - cy)),
                (cx + t1 * (dx - cx), cy + t1 * (dy - cy)))

    moves = [st.tuples(ends, ends), ends.map(lambda p: (p, p))]
    if walls:
        moves.append(st.tuples(st.sampled_from(walls), t, t).map(along))
    drawn = data.draw(st.lists(st.one_of(moves), max_size=30))
    p0s = np.array([m[0] for m in drawn], dtype=float).reshape(-1, 2)
    p1s = np.array([m[1] for m in drawn], dtype=float).reshape(-1, 2)
    return p0s, p1s, np.array(walls, dtype=float).reshape(-1, 4)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_box_screen_matches_pairwise_kernel_and_oracle(data):
    p0s, p1s, walls = _moves_and_walls(data)
    got = segments_cross_walls(p0s, p1s, walls)
    assert got.shape == (len(p0s),) and got.dtype == bool
    assert np.array_equal(got, segment_wall_crossings(p0s, p1s, walls).any(axis=1))
    fp = Floorplan(walls, [])
    assert [oracles.segment_crosses_wall(fp, a, b) for a, b in zip(p0s, p1s)] == list(got)


def test_box_screen_empty_shapes():
    walls = np.array([[0.0, 0.0, 2.0, 2.0], [3.0, 0.0, 3.0, 2.0]])
    p0s = np.array([[0.0, 2.0], [5.0, 5.0]])
    p1s = np.array([[2.0, 0.0], [6.0, 5.0]])
    assert list(segments_cross_walls(p0s, p1s, walls)) == [True, False]
    assert segments_cross_walls(np.zeros((0, 2)), np.zeros((0, 2)), walls).shape == (0,)
    assert list(segments_cross_walls(p0s, p1s, np.zeros((0, 4)))) == [False, False]
    # no segment's box meets a wall's box
    assert list(segments_cross_walls(p0s + 10.0, p1s + 10.0, walls)) == [False, False]


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
    out = acute_angles_to_room_walls(square_plan, np.zeros(3, dtype=int), heads)
    assert math.isclose(out[0], 0.0, abs_tol=1e-12)
    assert math.isclose(out[1], math.radians(30), abs_tol=1e-9)
    assert math.isclose(out[2], math.radians(10), abs_tol=1e-9)


def test_acute_angle_outside_rooms(square_plan):
    assert oracles.acute_angle_to_best_wall(square_plan, (50, 50), 0.3) is None
    rooms = containing_rooms(square_plan, np.array([[50.0, 50.0]]))
    out = acute_angles_to_room_walls(square_plan, rooms, np.array([0.3]))
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
        out = acute_angles_to_room_walls(fp, containing_rooms(fp, pts), heads)
        for i in range(n):
            want = oracles.acute_angle_to_best_wall(fp, pts[i], heads[i])
            if want is None:
                assert np.isnan(out[i])
            else:
                assert math.isclose(out[i], want, abs_tol=1e-9)
    assert set(containing_rooms(mixed, pts)) == {-1, 0, 1, 2}


def _angle_plan():
    """Rooms whose edge directions repeat mod pi, or nearly do: a
    triangle; an L-shape; a box whose bottom edge runs from y = 0.0 to
    y = -0.0, so that arctan2 sees -0.0 there and pi on the top edge; and
    a staircase whose two treads differ in slope by one ulp."""
    ulp = np.nextafter(1.0, 2.0) - 1.0
    rooms = [
        Room(0, "tri", [(0.0, 0.0), (3.0, 0.0), (1.0, 2.5)]),
        Room(1, "ell", [(4.0, 0.0), (8.0, 0.0), (8.0, 2.0), (6.0, 2.0), (6.0, 4.0), (4.0, 4.0)]),
        Room(2, "box", [(9.0, 0.0), (12.0, -0.0), (12.0, 3.0), (9.0, 3.0)]),
        Room(3, "stair", [(13.0, 0.0), (16.0, 0.0), (16.0, 1.0), (19.0, 1.0 + 3.0 * ulp),
                          (19.0, 3.0), (13.0, 3.0)]),
    ]
    return Floorplan(np.zeros((0, 4)), rooms)


def _edge_angles_mod_pi(vs):
    return [math.atan2(y1 - y0, x1 - x0) % math.pi
            for (x0, y0), (x1, y1) in zip(vs, np.roll(vs, -1, axis=0))]


@settings(max_examples=100, deadline=None)
@given(room=st.integers(0, 3),
       heading=st.one_of(st.floats(-4 * math.pi, 4 * math.pi),
                         st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                                          np.nextafter(0.0, 1.0), 2.220446049250313e-16])))
def test_acute_angles_over_distinct_angles_match_every_edge(room, heading):
    fp = _angle_plan()
    vs = fp.rooms[room].vertices
    inside = np.array([vs[:, 0].min() + 0.5, vs[:, 1].min() + 0.5])
    assert containing_rooms(fp, inside[None, :])[0] == room
    got = acute_angles_to_room_walls(fp, np.array([room]), np.array([heading]))[0]
    assert got == oracles.acute_angle_to_best_wall(fp, inside, heading)


_HEADINGS = st.one_of(st.floats(-4 * math.pi, 4 * math.pi),
                      st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_acute_angles_match_row_minimum_oracle(data):
    # tables 1 to 4 angles wide; a simple polygon has at least two
    # distinct edge angles, so width 1 is drawn on a bare table
    width = data.draw(st.integers(1, 4))
    angle = st.one_of(st.floats(0.0, math.pi, exclude_max=True), st.sampled_from([0.0, math.pi / 2]))
    table = data.draw(st.lists(st.lists(angle, min_size=width, max_size=width), min_size=1, max_size=4))
    fp = SimpleNamespace(_edge_angles=np.array(table))
    rooms = np.array(data.draw(st.lists(st.integers(-1, len(table) - 1), max_size=40)) + [-1])
    headings = np.array(data.draw(st.lists(_HEADINGS, min_size=len(rooms), max_size=len(rooms))))
    got = acute_angles_to_room_walls(fp, rooms, headings)
    assert got.tobytes() == oracles.acute_angles_to_room_walls(fp, rooms, headings).tobytes()
    # with every id a room, nothing is gathered or scattered
    ok = rooms >= 0
    got = acute_angles_to_room_walls(fp, rooms[ok], headings[ok])
    assert got.tobytes() == oracles.acute_angles_to_room_walls(fp, rooms[ok], headings[ok]).tobytes()


@pytest.mark.parametrize("plan", ["office", "angle", "diagonal"])
def test_acute_angles_match_row_minimum_oracle_on_plans(plan):
    fp = {"office": office_floorplan, "angle": _angle_plan, "diagonal": _diagonal_plan}[plan]()
    # tables 2, 3 and 4 angles wide
    assert fp._edge_angles.shape[1] == {"office": 2, "angle": 3, "diagonal": 4}[plan]
    rng = np.random.default_rng(8)
    x0, y0, x1, y1 = fp.bounds
    pts = rng.uniform((x0 - 1, y0 - 1), (x1 + 1, y1 + 1), size=(2000, 2))
    rooms = containing_rooms(fp, pts)
    assert -1 in rooms
    headings = rng.uniform(-math.pi, math.pi, len(pts))
    got = acute_angles_to_room_walls(fp, rooms, headings)
    assert got.tobytes() == oracles.acute_angles_to_room_walls(fp, rooms, headings).tobytes()


def test_angle_table_holds_each_rooms_distinct_angles():
    fp = _angle_plan()
    distinct = [set(_edge_angles_mod_pi(r.vertices)) for r in fp.rooms]
    # the stair's treads stay apart, the box's bottom and top merge
    assert [len(d) for d in distinct] == [3, 2, 2, 3]
    assert fp._edge_angles.shape == (4, 3)
    for row, want in zip(fp._edge_angles, distinct):
        assert set(row) == want


# ------------------------------------------------------------ grid index

def _diagonal_plan():
    """Two rooms split by a bent diagonal wall; no bound is a multiple
    of the 0.125 m grid cell."""
    x0, y0, x1, y1 = 0.37, 0.21, 7.93, 5.11
    walls = [[x0, y0, x1, y0], [x1, y0, x1, y1], [x1, y1, x0, y1], [x0, y1, x0, y0],
             [3.3, y0, 4.1, 2.9], [4.1, 2.9, 3.05, 4.12]]
    rooms = [Room(0, "west", [(x0, y0), (3.3, y0), (4.1, 2.9), (2.2, y1), (x0, y1)]),
             Room(1, "east", [(3.3, y0), (x1, y0), (x1, y1), (2.2, y1), (4.1, 2.9)])]
    return Floorplan(np.array(walls), rooms)


def _random_plan(seed):
    """One to three random simple rooms, with their edges as walls."""
    rng = np.random.default_rng(seed)
    polys = []
    while len(polys) < 1 + seed % 3:
        vs = _random_polygon(rng, on_grid=False)
        if oracles.polygon_is_simple(vs):
            polys.append(vs)
    walls = np.concatenate([np.hstack([vs, np.roll(vs, -1, axis=0)]) for vs in polys])
    return Floorplan(walls, [Room(i, f"r{i}", vs) for i, vs in enumerate(polys)])


def _offset_plan():
    """Three boxes with edges off the 0.125 m cell lines.  Where a low
    edge lies in the upper half of a cell, or a high edge in the lower
    half, the first or last row or column of cell centres in the room's
    box is a free cell."""
    rooms = [box(0.0, 0.0, 3.2, 2.05), box(3.2, 0.0, 5.55, 2.05), box(0.15, 2.2, 5.55, 4.3)]
    walls = np.concatenate([np.hstack([vs, np.roll(vs, -1, axis=0)]) for vs in rooms])
    return Floorplan(walls, [Room(i, f"r{i}", vs) for i, vs in enumerate(rooms)])


GRID_PLANS = {"office": office_floorplan(), "diagonal": _diagonal_plan(), "offset": _offset_plan(),
              **{f"random{seed}": _random_plan(seed) for seed in range(4)}}


def _plan_points(fp):
    """Random points, points on cell edges, on room edges and vertices,
    far outside the bounds, huge and infinite points, and NaN points."""
    x0, y0, x1, y1 = fp.bounds
    cell = fp._grid().cell
    grid_x = st.integers(-3, int((x1 - x0) / cell) + 3).map(lambda k: x0 + cell * k)
    grid_y = st.integers(-3, int((y1 - y0) / cell) + 3).map(lambda k: y0 + cell * k)
    huge = st.sampled_from([1e300, -1e300, math.inf, -math.inf])
    xs = st.one_of(st.floats(x0 - 2, x1 + 2), grid_x, huge)
    ys = st.one_of(st.floats(y0 - 2, y1 + 2), grid_y, huge)
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # infinite points
@pytest.mark.parametrize("name", sorted(GRID_PLANS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_containing_rooms_grid_matches_scalar(name, data):
    fp = GRID_PLANS[name]
    pts = np.array(data.draw(st.lists(_plan_points(fp), min_size=1, max_size=60)), dtype=float)
    got = rooms_in_cells(fp, pts, fp.cells(pts))
    assert np.array_equal(got, containing_rooms(fp, pts))
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
    clear = fp.clear_between_cells(fp.cells(p0s), fp.cells(p1s))
    batch = segments_cross_walls(p0s, p1s, fp.walls)
    for i in range(len(moves)):
        scalar = oracles.segment_crosses_wall(fp, p0s[i], p1s[i])
        assert batch[i] == scalar, moves[i]
        assert not (clear[i] and scalar), moves[i]


def test_grid_decides_most_cells_and_clears_stride_moves():
    fp = GRID_PLANS["office"]
    grid = fp._grid()
    inner = grid.rooms.reshape(grid.ny + 2, grid.width)[1:-1, 1:-1]
    assert np.mean(inner != _MIXED) > 0.5

    def clear(p0, p1):
        return fp.clear_between_cells(fp.cells([p0]), fp.cells([p1]))[0]

    # a stride along the corridor centre line is clear of every wall
    assert clear((10.0, 14.6), (10.7, 14.7))
    # a stride through an office doorway (the wall ends at x = 10.375)
    # is clear; one through the wall at x = 12 is not
    assert not segments_cross_walls([(10.0, 13.0)], [(10.0, 14.0)], fp.walls)[0]
    assert clear((10.0, 13.0), (10.0, 14.0))
    assert segments_cross_walls([(12.0, 13.0)], [(12.0, 14.0)], fp.walls)[0]
    assert not clear((12.0, 13.0), (12.0, 14.0))
    # nor is a move with a NaN or off-grid end, even one that meets no wall
    for p0 in ((math.nan, 14.6), (10.0, math.nan), (1e300, 14.6), (-math.inf, 14.6)):
        assert not clear(p0, (10.7, 14.7))
    assert not segments_cross_walls([(-5.0, -5.0)], [(-4.0, -5.0)], fp.walls)[0]
    assert not clear((-5.0, -5.0), (-4.0, -5.0))


def _point_pairs(data):
    """A plan and two (N, 2) arrays of its _plan_points, every other
    second point one stride from the first."""
    fp = data.draw(st.sampled_from(list(GRID_PLANS.values())))
    pairs = data.draw(st.lists(st.tuples(_plan_points(fp), _plan_points(fp)), min_size=1, max_size=40))
    p0s = np.array([a for a, _ in pairs], dtype=float)
    p1s = np.array([b for _, b in pairs], dtype=float)
    strides = data.draw(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                                 min_size=len(pairs), max_size=len(pairs)))
    p1s[1::2] = p0s[1::2] + np.array(strides, dtype=float).reshape(-1, 2)[1::2]
    return fp, p0s, p1s


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cells_of_coordinate_extremes_are_extremes_of_cells(data):
    # what lets the filter carry a particle's cell to its children
    fp, p0s, p1s = _point_pairs(data)
    finite = np.isfinite(p0s).all(axis=1) & np.isfinite(p1s).all(axis=1)
    p0s, p1s = p0s[finite], p1s[finite]
    c0, c1 = fp.cells(p0s), fp.cells(p1s)
    assert np.array_equal(np.minimum(c0, c1), fp.cells(np.minimum(p0s, p1s)))
    assert np.array_equal(np.maximum(c0, c1), fp.cells(np.maximum(p0s, p1s)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # infinite points
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cell_screen_clears_no_crossing_and_no_move_off_the_grid(data):
    fp, p0s, p1s = _point_pairs(data)
    clear = fp.clear_between_cells(fp.cells(p0s), fp.cells(p1s))
    crossing = segments_cross_walls(p0s, p1s, fp.walls)
    assert not (clear & crossing).any()
    # a cleared move has both ends finite and within a cell of the bounds
    x0, y0, x1, y1 = fp.bounds
    cell = fp._grid().cell
    for p in (p0s[clear], p1s[clear]):
        assert np.all((p >= (x0 - cell, y0 - cell)) & (p <= (x1 + cell, y1 + cell))), p


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # infinite points
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cells_and_screen_ignore_input_layout(data):
    fp, p0s, p1s = _point_pairs(data)
    c0, c1 = fp.cells(p0s), fp.cells(p1s)
    # cells come as the (N, 2) view of a (2, N) block
    assert c0.T.flags.c_contiguous
    assert np.array_equal(fp.cells(np.ascontiguousarray(p0s.T).T), c0)
    assert np.array_equal(fp.cells(np.ascontiguousarray(p1s.T).T), c1)
    clear = fp.clear_between_cells(c0, c1)
    rows0, rows1 = np.ascontiguousarray(c0), np.ascontiguousarray(c1)
    assert np.array_equal(fp.clear_between_cells(rows0, rows1), clear)
    assert np.array_equal(fp.clear_between_cells(rows0, c1), clear)


@pytest.mark.parametrize("fp", [*GRID_PLANS.values(), *map(_random_plan, range(4, 16))])
def test_grid_room_table_matches_whole_grid_pass(fp):
    assert np.array_equal(fp._grid().rooms, oracles.grid_rooms(fp))


def test_grid_cell_count_is_capped():
    fp = Floorplan(np.array([[0.0, 0.0, 1e6, 3e5]]), [Room(0, "big", box(0, 0, 1e6, 3e5))])
    grid = fp._grid()
    assert grid.nx * grid.ny <= _MAX_CELLS
    assert list(containing_rooms(fp, np.array([[5e5, 1e5], [2e6, 1.0]]))) == [0, -1]


def test_room_lookup_with_room_skip_matches_scalar():
    fp = office_floorplan()
    rng = np.random.default_rng(5)
    # a cloud at room 1's doorway (x = 9.375 on the corridor's lower
    # wall), with some NaN coordinates: its points' box meets only the
    # boxes of rooms 1 and 16, so the exact loop skips the other 16
    door = rng.normal((9.375, 13.5), 0.3, size=(3000, 2))
    door[::97, 0] = math.nan
    door[::89, 1] = math.nan
    mixed = door[fp._grid().rooms_at(fp.cells(door)) == _MIXED]
    lo, hi = np.nanmin(mixed, axis=0), np.nanmax(mixed, axis=0)
    met = [r for r, (blo, bhi) in enumerate(fp._room_box) if (blo <= hi).all() and (lo <= bhi).all()]
    assert met == [1, 16]
    # shared edges and a shared vertex: the lowest room id wins
    shared = np.array([[7.0, 13.5], [6.25, 5.0], [25.0, 15.75], [23.0, 20.0], [6.25, 13.5]])
    ring = np.array([[-3.0, 5.0], [60.0, 14.0], [25.0, 40.0], [1e300, 14.6], [-1e300, -1e300]])
    empty = np.zeros((0, 2))
    nan = np.full((4, 2), math.nan)
    for pts in (door, shared, ring, empty, nan, np.concatenate([door, shared, ring, nan])):
        want = [oracles.containing_room(fp, p) for p in pts]
        want = np.array([-1 if r is None else r for r in want], dtype=int)
        assert np.array_equal(containing_rooms(fp, pts), want)
        assert np.array_equal(rooms_in_cells(fp, pts, fp.cells(pts)), want)
        assert np.array_equal(_rooms_by_polygon(fp, pts), want)
    assert list(containing_rooms(fp, shared)) == [1, 0, 16, 11, 0]


def test_segments_cross_walls_needs_meeting_boxes():
    # four nearly collinear points; the boxes are 2 cm apart, yet the
    # orientation signs alone, under rounding, report a proper crossing
    p0 = np.array([[10.809303888981816, 1.5412649594296233]])
    p1 = np.array([[13.072530414367915, 7.971741297313715]])
    wall = np.array([[13.07972405019737, 7.9921804820200615, 13.863359933808114, 10.218715011618734]])
    assert not segments_cross_walls(p0, p1, wall)[0]
    assert not oracles.segment_crosses_wall(Floorplan(wall, []), p0[0], p1[0])
