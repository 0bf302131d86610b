"""Floorplan model and the planar geometry predicates built on it.

A floorplan is a set of wall segments plus a set of named room polygons.
Walls block movement; rooms answer occupancy queries.  The two are kept
independent on purpose: walls need not close off a room (doorways are
plain gaps in the wall set), and room polygons may share edges.

Each floorplan holds a uniform grid index over its bounds (0.125 m
cells, coarser when that would exceed _MAX_CELLS cells), padded with one
ring of cells; its room table and its wall table are built on first use.
The index answers most room and wall queries by a cell lookup and leaves
the rest to the exact kernels, with the same answers.  A point's cell is
floor((p - origin) / cell) + 1 in floats, then clamped with fmax and fmin
to the ring; fmax maps NaN to 0, so every NaN and off-grid point lands in
the ring with no mask.  The map from p to its cell is monotone in each
coordinate of p; a box "comes near" a cell when the cell range of the box
grown by a pad (1e-9 of the plan's largest coordinate, at least 1e-9 m)
contains it.

- Exact room test: a point outside every edge's grown box gets the
  answer of real arithmetic.  It lies on no edge's box, and any crossing
  abscissa of the even-odd test lies farther from it than float rounding
  (a few ulps, far below the pad).  So a point outside a room's grown
  box is outside the room.  So the exact kernel takes (point, room)
  pairs, one per room whose grown box holds the point, and tests each
  pair against its own room's edges only: a point near a wall meets one
  or two rooms, where a test against every room's edges costs them all.
  Per (pair, edge) it takes the even-odd crossing (Haines 1994) and the
  orientation; a zero orientation inside the edge's box is on the
  boundary, which counts as inside.
- Room lookup: an inner cell that no room edge's box comes near is
  decided.  By monotonicity, every point looked up in it lies outside
  each edge's grown box on the same side as the cell centre, so the
  segment between them meets no edge and both get the same answer of
  real arithmetic.  The index stores the centre's exact answer; ring
  cells and the other inner cells are undecided and take the exact kernel.
- Walls: a move whose cell rectangle (the cells of its bounding box)
  contains no cell that a wall's box comes near has a bounding box
  disjoint from every wall's, by the same monotonicity.
  segments_cross_walls reports a crossing only for boxes that meet, so
  the move crosses nothing.  The ring counts as near a wall, so a move
  with a NaN or off-grid end is never cleared and takes the exact test.

Monotonicity also lets a move's cell rectangle come from the cells of
its two ends: for finite points, the cell of min(p0, p1) is the
coordinate-wise minimum of their cells, and likewise for the maximum.
So the particle filter computes each particle's cell once, when the
particle is made, and reuses it for its children's moves.  A NaN end
has cell 0 in that coordinate, which keeps the ring in the rectangle.
Cells are computed on a (2, N) block, and returned as its (N, 2) view.

segments_cross_walls screens before the exact test (broad phase, then
narrow phase; Ericson 2004, ch. 7).  It compares each segment's box
with each wall's box, then runs segment_wall_crossings only on the
pairs whose boxes meet.  That gives the same booleans: the kernel's
proper crossing requires meeting boxes, and each of its touch cases
puts a finite end of one segment inside the other segment's box, so
that end lies in both boxes.  The screen's boxes come from fmin and
fmax, which skip a NaN coordinate, so a finite end lies in its own
segment's box even when the other end is NaN.  Every touch case also
needs an orientation of exactly 0 (o1 == 0 and so on), so when no pair
has one, touch is False throughout and the kernel returns the proper
crossings without evaluating it: the same booleans.

remainder(a, b) gives np.remainder(a, b) for b > 0, with the same bytes,
at a fraction of its cost.  np.remainder takes the exact fmod(a, b),
adds b once, rounded, when that is negative, and turns a zero into
+0.0.  For a in (-2b, 2b), fmod(a, b) is a - b where a >= b, a + b where
a < -b, and a elsewhere, and each of those operations is exact by
Sterbenz's lemma (x - y is exact when y / 2 <= x <= 2y; here |a| and b
lie within a factor of two of each other).  So one exact conditional
subtract or add gives fmod's value, the same rounded + b follows on a
negative result, and a final + 0.0 turns -0.0 into +0.0.  Each step
adds mask * b (+0.0 where the mask is False: at most a zero's sign
changes), as a masked ufunc took 272 us a call against 58 us on 30,000
headings near 0 or +-pi, whose masks flip at random (numpy 2.4, x86 VM).
At a = -2b, fmod gives -0.0 and np.remainder +0.0; the kernel's -b + b
is +0.0 too.  An array with any element outside [-2b, 2b) (NaN and inf
too) goes to np.remainder whole.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

TAU = 2.0 * math.pi

_CELL = 0.125         # grid index cell size, metres
_MAX_CELLS = 1 << 18  # larger plans get coarser cells
_MIXED = -2           # grid index room mark: some room edge comes near


def finite_floats(fields) -> list[float]:
    """Parse text fields as floats; ValueError unless all are finite."""
    values = list(map(float, fields))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite number in {','.join(fields)}")
    return values


class _Line:
    """Guard for one record: a ValueError or IndexError raised in its
    body leaves as error("line N: ...")."""

    def __init__(self, error: type[Exception]):
        self.error, self.number = error, 0

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, IndexError)):
            raise self.error(f"line {self.number}: {exc}") from None


def records(text: str, error: type[Exception] = ValueError):
    """Yield (line, fields) for each record of a text input (the grammar
    is in fileio's docstring); parse the fields under `with line:`."""
    line = _Line(error)
    for number, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if raw and not raw.startswith("#"):
            line.number = number
            yield line, [p.strip() for p in raw.split(",")]


def expect(fields: list[str], usage: str) -> list[str]:
    """fields, if as many as in the usage string ("wall,x0,y0,x1,y1")."""
    if len(fields) != usage.count(",") + 1:
        raise ValueError(f"expected {usage}")
    return fields


def remainder(a, b: float) -> np.ndarray:
    """np.remainder(a, b) for a float b > 0, with the same bytes (module
    docstring): a new array, 0-d for a scalar a."""
    a = np.asarray(a, dtype=float)
    lo, hi = a.min(initial=0.0), a.max(initial=0.0)
    if not (-2.0 * b <= lo and hi < 2.0 * b):  # also NaN
        return np.remainder(a, b)
    r = a.copy()
    if hi >= b:
        r -= (a >= b) * b  # exact
    if lo < -b:
        r += (a < -b) * b  # exact
    if lo < 0.0:
        r += (r < 0.0) * b  # rounded, as np.remainder does
    r += 0.0
    return r


def wrap_angle(theta):
    """Map an angle (scalar or array, radians) into [-pi, pi)."""
    wrapped = remainder(np.asarray(theta, dtype=float) + math.pi, TAU) - math.pi
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class Pose2D:
    """Planar pose; heading is normalised to [-pi, pi) on construction.
    Every field must be finite."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.theta))):
            raise ValueError(f"pose ({self.x}, {self.y}, {self.theta}) is not finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


class FloorplanError(ValueError):
    """Raised for unparseable or inconsistent floorplan input."""


# Largest wall or room coordinate magnitude: the wall and polygon tests
# multiply two coordinate differences and subtract two such products,
# which stays finite for coordinates below about 4.7e153
MAX_COORD = 1e150


def _beyond_bound(values: np.ndarray) -> bool:
    """True if any value is NaN, infinite or above MAX_COORD in magnitude."""
    return not (np.abs(values) <= MAX_COORD).all()


@dataclass(frozen=True)
class Room:
    room_id: int
    name: str
    vertices: np.ndarray  # (V, 2), simple polygon, not repeated at the end

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))


class Floorplan:
    """Wall segments plus room polygons, with precomputed bounds and a
    grid index over the bounds, padded with one ring of cells.  Its two
    tables, rooms per cell and cells near a wall, are built on first use;
    the module docstring says why lookups in them are exact.

    walls: (W, 4) array of x0, y0, x1, y1 rows.
    rooms: list of Room, ids unique and contiguous from 0.
    """

    def __init__(self, walls, rooms: list[Room]):
        self.walls = np.asarray(walls, dtype=float).reshape(-1, 4)
        self.rooms = sorted(rooms, key=lambda r: r.room_id)
        ids = [r.room_id for r in self.rooms]
        if ids != list(range(len(ids))):
            raise FloorplanError(f"room ids must be unique and contiguous from 0, got {ids}")
        if _beyond_bound(self.walls):
            raise FloorplanError(f"wall coordinates must be finite and at most {MAX_COORD:g}"
                                 " in magnitude")
        for room in self.rooms:
            if len(room.vertices) < 3:
                raise FloorplanError(f"room {room.room_id} has fewer than 3 vertices")
            if _beyond_bound(room.vertices):
                raise FloorplanError(f"room {room.room_id} has a vertex that is not finite or"
                                     f" above {MAX_COORD:g} in magnitude")
        edges = [np.hstack([r.vertices, np.roll(r.vertices, -1, axis=0)]) for r in self.rooms]
        self._edges = np.concatenate(edges) if edges else np.zeros((0, 4))
        # room r's edges: _edge_count[r] rows of _edges from _first_edge[r]
        counts = self._edge_count = np.array([len(r.vertices) for r in self.rooms], dtype=int)
        self._first_edge = np.cumsum(counts) - counts
        x0, y0, x1, y1 = self._edges.T
        self._edge_terms = np.column_stack([x0, y0, y1, x1 - x0, y1 - y0])
        # (R, V, 4) table of each room's edges, padded to the longest room
        # with copies of the room's first edge
        k = np.arange(counts.max(initial=1))
        padded = self._edges[self._first_edge[:, None] + np.where(k < counts[:, None], k, 0)]
        degenerate = (padded[..., :2] == padded[..., 2:]).all(axis=-1).any(axis=1)
        n = counts[:, None, None]
        gap = (k[None, :] - k[:, None]) % n
        real = k < counts[:, None]
        pairs = real[:, :, None] & real[:, None, :] & (gap > 1) & (gap < n - 1)
        crossing = (segment_wall_crossings(padded[..., :2], padded[..., 2:], padded) & pairs).any(axis=(1, 2))
        bad = np.flatnonzero(degenerate | crossing)
        if len(bad):
            fault = "has a degenerate edge" if degenerate[bad[0]] else "polygon is self-intersecting"
            raise FloorplanError(f"room {bad[0]} {fault}")
        d = padded[..., 2:] - padded[..., :2]
        # (R, U) table of each room's distinct edge angles mod pi, padded
        # with the room's first one; a minimum over it is the minimum
        # over every edge
        distinct = [np.unique(a) for a in remainder(np.arctan2(d[..., 1], d[..., 0]), math.pi)]
        width = max(map(len, distinct), default=1)
        self._edge_angles = np.array([np.r_[u, np.full(width - len(u), u[0])] for u in distinct]
                                     ).reshape(len(distinct), width)
        xs = np.concatenate([self.walls[:, 0], self.walls[:, 2]]
                            + [r.vertices[:, 0] for r in self.rooms])
        ys = np.concatenate([self.walls[:, 1], self.walls[:, 3]]
                            + [r.vertices[:, 1] for r in self.rooms])
        if xs.size == 0:
            self.bounds = (0.0, 0.0, 0.0, 0.0)
        else:
            self.bounds = (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
        # far above the rounding of any coordinate (module docstring)
        self._pad = 1e-9 * max(1.0, *map(abs, self.bounds))
        # (R, 2, 2): each room's box grown by the pad, as rows lo and hi
        self._room_box = np.array([(r.vertices.min(axis=0) - self._pad, r.vertices.max(axis=0) + self._pad)
                                   for r in self.rooms]).reshape(-1, 2, 2)
        self._wall_bbox = _boxes(self.walls)  # prefilters crossing tests
        # the grid index: _cell-metre cells over the bounds, one ring around
        x0, y0, x1, y1 = self.bounds
        self._origin = np.array([x0, y0])
        w, h = x1 - x0, y1 - y0
        if not (math.isfinite(w) and math.isfinite(h)):
            w = h = 0.0  # extent overflows: one cell, which the pad marks
        cell = _CELL
        while max(1, math.ceil(w / cell)) * max(1, math.ceil(h / cell)) > _MAX_CELLS:
            cell *= 2.0
        self._cell = cell
        self._width = max(1, math.ceil(w / cell)) + 2
        self._rows = max(1, math.ceil(h / cell)) + 2
        self._ring = np.array([self._width - 1.0, self._rows - 1.0])  # last column and row

    def __repr__(self):
        return f"Floorplan(walls={len(self.walls)}, rooms={len(self.rooms)}, bounds={self.bounds})"

    def walls_near(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Indices of walls whose bbox meets the axis-aligned box [lo, hi]."""
        bb = self._wall_bbox
        hit = (bb[:, 0] <= hi[0]) & (bb[:, 2] >= lo[0]) & (bb[:, 1] <= hi[1]) & (bb[:, 3] >= lo[1])
        return np.nonzero(hit)[0]

    def cells(self, xy) -> np.ndarray:
        """(N, 2) grid index cells (column, row) of an (N, 2) array of
        points; NaN and off-grid points get cells of the outer ring.
        Computed on a (2, N) block and returned as its (N, 2) view."""
        xy = np.asarray(xy, dtype=float)
        c = np.subtract(xy.T, self._origin[:, None], out=np.empty((2, len(xy))))
        c /= self._cell
        np.floor(c, out=c)
        c += 1.0
        np.fmax(c, 0.0, out=c)
        np.fmin(c, self._ring[:, None], out=c)
        return c.astype(np.intp).T

    def clear_between_cells(self, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
        """Bool per move between points with cells c0 and c1 (rows of
        cells()): True where the cell rectangle holds no cell near a
        wall, so the move cannot touch one; False where the grid index
        cannot tell.  Four gathers from the summed-area table."""
        (lo_col, lo_row), (hi_col, hi_row) = np.minimum(c0.T, c1.T), np.maximum(c0.T, c1.T)
        hi_col += 1
        hi_row += 1
        w = self._width + 1
        lo_row *= w
        hi_row *= w
        s = self._wall_sat
        walls = s[hi_row + hi_col] - s[lo_row + hi_col] - s[hi_row + lo_col] + s[lo_row + lo_col]
        return walls == 0

    def _near(self, boxes: np.ndarray) -> np.ndarray:
        """Flat mask of the ring and of the cells that some box, grown by
        the pad, comes near; boxes are rows of x0, y0, x1, y1."""
        near = np.ones((self._rows, self._width), dtype=bool)
        near[1:-1, 1:-1] = False
        lo = self.cells(boxes[:, :2] - self._pad)
        hi = self.cells(boxes[:, 2:] + self._pad)
        for (i0, j0), (i1, j1) in zip(lo, hi):
            near[j0:j1 + 1, i0:i1 + 1] = True
        return near.ravel()

    @functools.cached_property
    def _room_table(self) -> np.ndarray:
        """The grid index's room per cell, flat, row by row: for an inner
        cell that no room edge comes near, the lowest id of a room holding
        its centre (-1 for none); _MIXED for the other cells and the ring."""
        rooms = np.full(self._rows * self._width, _MIXED, dtype=int)
        rooms[~self._near(_boxes(self._edges))] = -1
        # cell centres by column and by row; they increase, so the
        # centres in a room's grown box form one block of the grid
        xs = self._origin[0] + (np.arange(self._width) - 0.5) * self._cell
        ys = self._origin[1] + (np.arange(self._rows) - 0.5) * self._cell
        table = rooms.reshape(self._rows, self._width)
        for room, ((lo, hi), first, n) in enumerate(zip(self._room_box, self._first_edge, self._edge_count)):
            cols = np.flatnonzero((xs >= lo[0]) & (xs <= hi[0]))
            rows = np.flatnonzero((ys >= lo[1]) & (ys <= hi[1]))
            if not (len(cols) and len(rows)):
                continue
            block = table[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
            # points_in_rooms' even-odd floats on a block of centres, one
            # crossing abscissa per row and edge; free centres lie on no edge
            x, y, inside = xs[cols], ys[rows, None], np.zeros(block.shape, dtype=bool)
            for x0, y0, y1, dx, dy in self._edge_terms[first:first + n]:
                with np.errstate(divide="ignore", invalid="ignore"):
                    xc = x0 + (y - y0) * dx / dy
                inside ^= ((y0 > y) != (y1 > y)) & (x < xc)
            block[inside & (block == -1)] = room
        return rooms

    @functools.cached_property
    def _wall_sat(self) -> np.ndarray:
        """Summed-area table (Crow 1984) of the cells that some wall comes
        near, where the ring counts as near; flat, row by row, with a
        leading zero row and column."""
        sat = np.zeros((self._rows + 1, self._width + 1), dtype=np.intp)
        sat[1:, 1:] = self._near(self._wall_bbox).reshape(self._rows, self._width).cumsum(axis=0).cumsum(axis=1)
        return sat.ravel()


def _boxes(seg: np.ndarray) -> np.ndarray:
    """(N, 4) bounding boxes, rows x0, y0, x1, y1, of (N, 4) segments."""
    return np.hstack([np.minimum(seg[:, :2], seg[:, 2:]), np.maximum(seg[:, :2], seg[:, 2:])])


def bounded_coords(fields: list[str]) -> list[float]:
    """Parse text fields as coordinates; ValueError unless all are
    finite and at most MAX_COORD in magnitude."""
    values = finite_floats(fields)
    if _beyond_bound(np.array(values)):
        raise ValueError(f"coordinate above {MAX_COORD:g} in magnitude in {','.join(fields)}")
    return values


def parse_floorplan(text: str) -> Floorplan:
    """Parse the line-oriented floorplan format.

    wall,x0,y0,x1,y1
    room,<id>,<name>,x0,y0,x1,y1,...   (polygon vertices, >= 3)

    Records follow the grammar of records(); errors carry the line number.
    Coordinates must be finite and at most MAX_COORD in magnitude.
    """
    walls = []
    rooms = []
    for line, parts in records(text, FloorplanError):
        with line:
            if parts[0] == "wall":
                walls.append(bounded_coords(expect(parts, "wall,x0,y0,x1,y1")[1:]))
            elif parts[0] == "room":
                if len(parts) < 9 or (len(parts) - 3) % 2 != 0:
                    raise ValueError("expected room,<id>,<name>,x0,y0,... with >= 3 vertices")
                room_id = int(parts[1])
                coords = np.array(bounded_coords(parts[3:]), dtype=float).reshape(-1, 2)
                rooms.append(Room(room_id, parts[2], coords))
            else:
                raise ValueError(f"unknown record tag {parts[0]!r}")
    seen = [r.room_id for r in rooms]
    if len(set(seen)) != len(seen):
        raise FloorplanError(f"duplicate room ids: {sorted(i for i in set(seen) if seen.count(i) > 1)}")
    return Floorplan(np.array(walls, dtype=float).reshape(-1, 4), rooms)


def load_floorplan(path) -> Floorplan:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_floorplan(fh.read())


def segments_cross_walls(p0s: np.ndarray, p1s: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """Crossing test of N motion segments against W walls: a length-N
    bool array, True where the segment meets any of the walls.

    segment_wall_crossings(...).any(axis=1), run only on the pairs whose
    boxes meet (module docstring)."""
    p0s = np.asarray(p0s, dtype=float).reshape(-1, 2)
    p1s = np.asarray(p1s, dtype=float).reshape(-1, 2)
    walls = np.asarray(walls, dtype=float).reshape(-1, 4)
    lo, hi = np.fmin(p0s, p1s), np.fmax(p0s, p1s)
    wlo, whi = np.fmin(walls[:, :2], walls[:, 2:]), np.fmax(walls[:, :2], walls[:, 2:])
    meet = (lo[:, 0, None] <= whi[:, 0]) & (wlo[:, 0] <= hi[:, 0, None])
    meet &= lo[:, 1, None] <= whi[:, 1]
    meet &= wlo[:, 1] <= hi[:, 1, None]
    i, j = np.nonzero(meet)
    out = np.zeros(len(p0s), dtype=bool)
    out[i[segment_wall_crossings(p0s[i, None], p1s[i, None], walls[j, None]).ravel()]] = True
    return out


def segment_wall_crossings(p0s: np.ndarray, p1s: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """(N, W) bool matrix, True where segment p0s[i] -> p1s[i] meets
    walls[j] (rows x0, y0, x1, y1).  Leading batch dimensions pair up:
    (R, N, 2) segments against (R, W, 4) walls give (R, N, W).

    Deliberately conservative: touching a wall endpoint or running
    collinearly along a wall count as crossing.  A pair whose bounding
    boxes do not meet never crosses.  The touch cases run only when some
    orientation is exactly 0 (module docstring).
    """
    ax, ay = p0s[..., 0:1], p0s[..., 1:2]
    bx, by = p1s[..., 0:1], p1s[..., 1:2]
    cx, cy = walls[..., None, :, 0], walls[..., None, :, 1]
    dx, dy = walls[..., None, :, 2], walls[..., None, :, 3]

    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)

    # segments whose boxes do not meet cannot cross; without this test,
    # rounding in nearly collinear configurations can report a crossing
    meet = (np.minimum(ax, bx) <= np.maximum(cx, dx)) & (np.minimum(cx, dx) <= np.maximum(ax, bx)) \
        & (np.minimum(ay, by) <= np.maximum(cy, dy)) & (np.minimum(cy, dy) <= np.maximum(ay, by))
    zero = (o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0)
    proper = meet & ((o1 > 0) != (o2 > 0)) & ((o3 > 0) != (o4 > 0)) & ~zero
    if not zero.any():
        return proper  # each touch case below needs a zero orientation

    def within(px, py, ux, uy, vx, vy):  # p in the box of segment u-v
        return (np.minimum(ux, vx) <= px) & (px <= np.maximum(ux, vx)) \
            & (np.minimum(uy, vy) <= py) & (py <= np.maximum(uy, vy))

    touch = ((o1 == 0) & within(cx, cy, ax, ay, bx, by)) | ((o2 == 0) & within(dx, dy, ax, ay, bx, by)) \
        | ((o3 == 0) & within(ax, ay, cx, cy, dx, dy)) | ((o4 == 0) & within(bx, by, cx, cy, dx, dy))
    return proper | touch


def containing_room(fp: Floorplan, p) -> int | None:
    """containing_rooms for the one point p: its room id, or None."""
    room = int(containing_rooms(fp, np.asarray(p, dtype=float)[None, :2])[0])
    return None if room < 0 else room


def containing_rooms(fp: Floorplan, pts: np.ndarray) -> np.ndarray:
    """Room id containing each point of an (N, 2) array; -1 where none.

    Boundary points belong to every room they touch; the lowest room id
    wins the tie."""
    pts = np.asarray(pts, dtype=float)
    return rooms_in_cells(fp, pts, fp.cells(pts))


def rooms_in_cells(fp: Floorplan, pts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """containing_rooms for points whose grid cells (fp.cells(pts)) are
    known.  The grid index answers points in cells that no room edge
    comes near; the others run the exact polygon loop."""
    out = fp._room_table[cells[:, 1] * fp._width + cells[:, 0]]
    slow = np.flatnonzero(out == _MIXED)
    if len(slow):
        out[slow] = _rooms_by_polygon(fp, pts[slow])
    return out


def _rooms_by_polygon(fp: Floorplan, pts: np.ndarray) -> np.ndarray:
    """Lowest id of a room holding each point, -1 where none (and for
    NaN), from the exact test of the (point, room) pairs whose grown room
    box holds the point.  np.nonzero gives the pairs point by point in
    room order, so a point's first hit is its lowest room."""
    lo, hi = fp._room_box[:, 0, :, None], fp._room_box[:, 1, :, None]
    x, y = np.ascontiguousarray(pts.T)
    p, r = np.nonzero(((x >= lo[:, 0]) & (x <= hi[:, 0]) & (y >= lo[:, 1]) & (y <= hi[:, 1])).T)
    hit = points_in_rooms(fp, pts[p], r)
    p, r = p[hit], r[hit]
    first = np.diff(p, prepend=-1) > 0
    out = np.full(len(pts), -1, dtype=int)
    out[p[first]] = r[first]
    return out


def points_in_rooms(fp: Floorplan, pts: np.ndarray, rooms: np.ndarray) -> np.ndarray:
    """Bool per (point, room) pair: True where pts[i] lies in room
    rooms[i], inside by the even-odd rule or on the boundary.  A pair
    meets only its own room's edges, each with the floats of the scalar
    test: x0 + (y - y0) * (x1 - x0) / (y1 - y0) for the crossing, and
    (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) for the orientation,
    from each edge's row x0, y0, y1, x1 - x0, y1 - y0 of _edge_terms."""
    n = fp._edge_count[rooms]
    start = np.cumsum(n) - n
    edge = np.arange(n.sum()) + np.repeat(fp._first_edge[rooms] - start, n)  # per (pair, edge)
    x, y = np.repeat(pts[:, 0], n), np.repeat(pts[:, 1], n)
    x0, y0, y1, dx, dy = fp._edge_terms[edge].T
    t = y - y0
    with np.errstate(divide="ignore", invalid="ignore"):
        odd = ((y0 > y) != (y1 > y)) & (x < x0 + t * dx / dy)
    inside = np.logical_xor.reduceat(odd, start)
    on = dx * t - dy * (x - x0) == 0
    if on.any():  # a zero orientation inside the edge's box: on the boundary
        box, q = _boxes(fp._edges[edge[on]]), np.column_stack([x[on], y[on]])
        on[on] = ((box[:, :2] <= q) & (q <= box[:, 2:])).all(axis=1)
        inside |= np.logical_or.reduceat(on, start)
    return inside


def acute_angles_to_room_walls(fp: Floorplan, rooms: np.ndarray, headings: np.ndarray) -> np.ndarray:
    """Acute angle in [0, pi/2] between each heading and the most
    parallel wall of its room (ids as containing_rooms gives them); NaN
    where the room id is -1.  Nothing is gathered where every id is a
    room, nor from a table column that holds one angle for every room."""
    rooms = np.asarray(rooms)
    headings = np.asarray(headings, dtype=float)
    table = fp._edge_angles
    ok = rooms >= 0
    whole = ok.all()
    h, r = (headings, rooms) if whole else (headings[ok], rooms[ok])
    best = None
    for angles, shared in zip(table.T, (table == table[:1]).all(axis=0)):
        d = h - (angles[:1] if shared else angles[r])
        d += math.pi / 2.0
        d = remainder(d, math.pi)
        d -= math.pi / 2.0
        np.abs(d, out=d)
        best = d if best is None else np.minimum(best, d, out=best)
    if whole:
        return best
    out = np.full(len(rooms), np.nan)
    out[ok] = best
    return out
