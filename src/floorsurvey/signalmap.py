"""Gaussian-process signal maps over a regular grid, map comparison by
90 % interval overlap, and one-shot fingerprint positioning on maps
that share one grid, screened through one cached block per list."""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrsm
from scipy.spatial.distance import cdist

Z90 = 1.6449  # two-sided 90 % normal quantile


@dataclass(frozen=True)
class GpParams:
    length_scale: float = 3.0   # m
    sigma_f: float = 6.0        # signal std, dB
    sigma_n: float = 4.0        # observation noise std, dB
    mean: float = -90.0         # prior mean, dBm
    cell: float = 0.5           # grid pitch, m

    def __post_init__(self):
        # a zero cell or length scale divides by zero in the fit
        if not (0.0 < self.length_scale < math.inf and 0.0 < self.cell < math.inf):
            raise ValueError(f"length_scale and cell must be positive and finite, "
                             f"got {self.length_scale} and {self.cell}")
        if not (0.0 <= self.sigma_f < math.inf and 0.0 <= self.sigma_n < math.inf):
            raise ValueError(f"sigma_f and sigma_n must be finite and non-negative, "
                             f"got {self.sigma_f} and {self.sigma_n}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")


@dataclass(frozen=True, eq=False)
class SignalMap:
    """Posterior mean and predictive std on a row-major grid.

    Cells are indexed iy * nx + ix; centres sit at half-cell offsets
    from the origin.  sigma includes the observation noise floor.
    mu and sigma are read-only copies of the arrays given, so a map
    never changes and positioning may cache what it derives from it;
    a map compares equal only to itself.
    """

    ap_id: str
    x0: float
    y0: float
    cell: float
    nx: int
    ny: int
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("mu", "sigma"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (self.nx * self.ny,):
                raise ValueError(f"{name} has shape {arr.shape}, grid has {self.nx} x {self.ny} cells")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def centers(self) -> np.ndarray:
        return _grid_centers(self.x0, self.y0, self.cell, self.nx, self.ny)

    def cell_index(self, x: float, y: float) -> int:
        ix = int((x - self.x0) // self.cell)
        iy = int((y - self.y0) // self.cell)
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ValueError(f"point ({x}, {y}) outside map extent")
        return iy * self.nx + ix

    def congruent(self, other: "SignalMap") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and math.isclose(self.x0, other.x0) and math.isclose(self.y0, other.y0)
                and math.isclose(self.cell, other.cell))


def _grid_centers(x0: float, y0: float, cell: float, nx: int, ny: int) -> np.ndarray:
    gx = x0 + (np.arange(nx) + 0.5) * cell
    gy = y0 + (np.arange(ny) + 0.5) * cell
    xx, yy = np.meshgrid(gx, gy)
    return np.column_stack([xx.ravel(), yy.ravel()])


def grid_shape(bounds: tuple[float, float, float, float], cell: float) -> tuple[int, int]:
    x0, y0, x1, y1 = bounds
    nx = max(1, int(math.ceil((x1 - x0) / cell - 1e-9)))
    ny = max(1, int(math.ceil((y1 - y0) / cell - 1e-9)))
    return nx, ny


def sq_exp_kernel(a: np.ndarray, b: np.ndarray, length_scale: float,
                  sigma_f: float, out: np.ndarray | None = None) -> np.ndarray:
    # sigma_f^2 exp(-d2 / (2 l^2)) built in place, to the byte: d2 / -c rounds as -d2 / c;
    # out, when given, is a C-contiguous (len(a), len(b)) float array
    k = cdist(np.atleast_2d(a), np.atleast_2d(b), "sqeuclidean", out=out)
    np.exp(np.divide(k, -(2.0 * length_scale ** 2), out=k), out=k)
    k *= sigma_f ** 2
    return k


_SOLVE_BLOCK = 128  # rows per diagonal block of the blocked forward substitution
_CHUNK = 2048       # most query points per chunk
_WORK = 2 ** 20     # floats per n x chunk buffer, unless one group needs more
_GROUP = 64         # queries per group: chunks and BLAS products take whole groups
_TILE = 512         # query columns per tile of the transposed cross-kernel read
_buffers = threading.local()


def _buffer(name: str, size: int) -> np.ndarray:
    """The first size floats of this thread's buffer under name, grown
    on demand and kept across fits, so that a refit makes no large
    fresh allocation: with a fresh workspace and cross-kernel per fit,
    a path-map refit after a survey could take about 2,000 minor page
    faults.  Each buffer keeps the largest fit's size, n * chunk floats
    (see _chunk): at most 8 * _WORK bytes, or 8 * 64 * n bytes when
    n > _WORK / 64 training points; callers copy out all they return."""
    buf = getattr(_buffers, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size)
        setattr(_buffers, name, buf)
    return buf[:size]


def _chunk(n: int, m: int) -> int:
    """Query points per chunk for n training and m query points: the
    most that keep n * chunk within _WORK floats, but at least 64, at
    most _CHUNK and no more than m needs, in whole groups of _GROUP.
    gp_predict pads the last chunk with zero queries to whole groups,
    so every BLAS product sees a multiple of 64 queries, and a query's
    mean and std keep their bytes at any chunk width: OpenBLAS picks its
    kernels by the product's shape, and an unpadded last chunk of 629
    queries moved some of its last stds by up to 4.4e-15."""
    return _GROUP * min(-(-m // _GROUP), _CHUNK // _GROUP, max(1, _WORK // (n * _GROUP)))


def gp_predict(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray,
               params: GpParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact GP posterior mean and predictive std (noise included) at the
    query points, for the targets of one source, shape (n,), or of S
    sources at the same positions, shape (n, S); mu is (m,) or (m, S).
    The variance is k(x*, x*) - v'v, v = L^-1 k* (Rasmussen & Williams
    2006, Algorithm 2.1), from a blocked forward substitution (Golub &
    Van Loan 2013, sec. 3.1.4): block row k of v solves
    L_kk v_k = k*_k - L[k, :k] v[:k], so every flop outside the small
    diagonal solves is a matrix product.  With no training data the
    prior is returned."""
    query = np.atleast_2d(np.asarray(query, dtype=float))
    m = len(query)
    train_y = np.asarray(train_y, dtype=float)
    ys = train_y[:, None] if train_y.ndim == 1 else train_y
    mu = np.full((ys.shape[1], m), params.mean)  # one contiguous row per source
    sigma = np.full(m, math.sqrt(params.sigma_f ** 2 + params.sigma_n ** 2))
    if len(train_x) > 0:
        train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
        K = sq_exp_kernel(train_x, train_x, params.length_scale, params.sigma_f)
        K[np.diag_indices(len(train_x))] += params.sigma_n ** 2 + 1e-10
        # K is symmetric to the byte, so its Fortran-ordered transpose is K
        # itself and LAPACK factors it in place; nothing reads K after this
        chol = cho_factor(K.T, lower=True, overwrite_a=True)
        # one row per source; a single (m, n) @ (n, S) product would round
        # differently from the one-source matrix-vector product
        alphas = np.ascontiguousarray(cho_solve(chol, ys - params.mean).T)
        L, n = chol[0], len(train_x)
        blocks = [(s, min(n, s + _SOLVE_BLOCK)) for s in range(0, n, _SOLVE_BLOCK)]
        chunk = _chunk(n, m)
        work, cross = _buffer("work", n * chunk), _buffer("cross", n * chunk)
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            w = -(-(hi - lo) // _GROUP) * _GROUP  # whole groups; rows hi - lo on are padding
            ks = cross[:n * w].reshape(w, n)
            sq_exp_kernel(query[lo:hi], train_x, params.length_scale, params.sigma_f,
                          out=ks[:hi - lo])
            ks[hi - lo:] = 0.0
            for row, alpha in zip(mu, alphas):
                row[lo:hi] = params.mean + (ks @ alpha)[:hi - lo]
            v = work[:n * w].reshape(n, w)  # row-major: block rows are contiguous
            for s, e in blocks:
                v_k = v[s:e]
                np.matmul(L[s:e, :s], v[:s], out=v_k)
                # k*_k is ks.T[s:e], whose columns lie n floats apart: read
                # it in tiles of columns, so each tile's rows stay in cache
                for c in range(0, w, _TILE):
                    tile = v_k[:, c:c + _TILE]
                    np.subtract(ks.T[s:e, c:c + _TILE], tile, out=tile)
                # v_k' L_kk' = b_k' is solved in place, as v_k' is column-major;
                # numpy skips the assignment of an array to itself
                v_k.T[...] = dtrsm(1.0, L[s:e, s:e], v_k.T, side=1, lower=1, trans_a=1,
                                   overwrite_b=1)
            var_f = params.sigma_f ** 2 - np.einsum("ij,ij->j", v, v)[:hi - lo]
            sigma[lo:hi] = np.sqrt(np.maximum(var_f, 0.0) + params.sigma_n ** 2)
    return (mu[0] if train_y.ndim == 1 else mu.T), sigma


def fit_signal_maps(bounds: tuple[float, float, float, float], positions: np.ndarray,
                    values_by_source: dict[str, np.ndarray],
                    params: GpParams | None = None) -> dict[str, SignalMap]:
    """Train one map per source from observations at shared positions:
    values_by_source holds each source's values, one per row of
    positions.  K, its Cholesky factor and the forward substitutions
    depend only on the positions, so they are done once for all sources."""
    params = params or GpParams()
    x0, y0 = bounds[0], bounds[1]
    nx, ny = grid_shape(bounds, params.cell)
    ys = np.column_stack([np.asarray(v, dtype=float) for v in values_by_source.values()])
    mu, sigma = gp_predict(positions, ys, _grid_centers(x0, y0, params.cell, nx, ny), params)
    return {ap_id: SignalMap(ap_id, x0, y0, params.cell, nx, ny, col, sigma)
            for ap_id, col in zip(values_by_source, mu.T)}


def fit_signal_map(ap_id: str, bounds: tuple[float, float, float, float],
                   positions: np.ndarray, values: np.ndarray,
                   params: GpParams | None = None) -> SignalMap:
    """Train a map for one signal source from scattered observations."""
    return fit_signal_maps(bounds, positions, {ap_id: values}, params)[ap_id]


def interval_overlap(map_a: SignalMap, map_b: SignalMap) -> np.ndarray:
    """Per-cell intersection-over-union of the central 90 % intervals
    mu +/- 1.6449 sigma of two congruent maps."""
    if not map_a.congruent(map_b):
        raise ValueError("maps are not on the same grid")
    lo_a, hi_a = map_a.mu - Z90 * map_a.sigma, map_a.mu + Z90 * map_a.sigma
    lo_b, hi_b = map_b.mu - Z90 * map_b.sigma, map_b.mu + Z90 * map_b.sigma
    inter = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    union = np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b)
    out = np.zeros(len(inter))
    ok = union > 0
    out[ok] = np.maximum(inter[ok], 0.0) / union[ok]
    out[~ok] = 1.0  # both intervals degenerate and identical
    return out


def compare_maps(map_a: SignalMap, map_b: SignalMap,
                 mask: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Overlap scores plus their median, optionally over a cell mask."""
    scores = interval_overlap(map_a, map_b)
    sel = scores if mask is None else scores[np.asarray(mask, dtype=bool)]
    if len(sel) == 0:
        raise ValueError("no cells selected for comparison")
    return scores, float(np.median(sel))


_U = 2.0 ** -24    # unit roundoff of float32
_BIG = 2.0 ** 100  # largest screened G' and map terms: float32 reaches 2^128
_LINE = 16         # float32s per 64-byte cache line


def _aligned_rows(rows: int, cols: int) -> np.ndarray:
    """Uninitialised float32 (rows, cols) whose rows start on 64-byte
    lines: a product over rows 16-48 bytes past a line took 1.5 times as long."""
    ld = -(-cols // _LINE) * _LINE
    buf = np.empty(rows * ld + _LINE - 1, dtype=np.float32)
    start = -buf.ctypes.data % (4 * _LINE) // 4
    return buf[start:start + rows * ld].reshape(rows, ld)[:, :cols]


def _gamma(k: int) -> float:
    """Higham's bound k u / (1 - k u) on the relative error of k roundings."""
    return k * _U / (1.0 - k * _U)


class _Block:
    """One block per list: the k maps of one list, on one grid, in list
    order.  It holds their source ids, their log-likelihood terms as a
    float32 screen matrix, and a float64 table of each cell's c, mu and
    v2 to rescore the cells the screen keeps.

    With c = -log(2 pi sigma^2) / 2 and v2 = 2 sigma^2, the exact score
    of a cell from these floats, for the M maps a scan heard, is a
    quadratic in each reading r.  Each map is expanded around its own
    reference r0 = min(mu) / 2 + max(mu) / 2, so that with x = r - r0
    and y = mu - r0 (x - y = r - mu exactly):
        s = sum_m c - (r - mu)^2 / v2 = sum_m a + x b + x^2 e,
        a = c - y^2 / v2,  b = 2 y / v2,  e = -1 / v2.
    So q = [h, x, x^2] @ W, with W the 3k x cells float32 matrix of a, b
    and e and h = 1 for a heard map (h = x = 0 for the rest), screens
    every cell in one float32 product.  Let u = 2^-24, the unit roundoff
    of float32, gamma_n = n u / (1 - n u), and G = sum over heard maps of
    P + B |x| + E x^2, where P, B and E are the maxima over cells of
    |c| + y^2 / v2, |b| and |e|; as (r - mu)^2 <= y^2 + 2 |x y| + x^2,
    each term's size |c| + (r - mu)^2 / v2 is at most P + B |x| + E x^2.
    Then, by Higham 2002, Accuracy and Stability of Numerical
    Algorithms, ch. 3:
    - the float64 score of the dense expression (as rescored) sits
      within gamma_{M+5} G of s: four roundings per term, then M - 1 in
      the running sum, each of at most 2^-53 < u;
    - q sits within gamma_{3k+7} G of s: x and y carry one float64
      rounding each, from r - r0 and mu - r0; a carries six (y twice,
      y^2, / v2, c minus it, and float32), b three and e two; x in
      float32 carries two and x^2 four; each product adds one, so no
      term carries more than seven, and the product sums 3k terms in
      some order, with fused multiply-adds or without.
    So the best cell by the dense score has q >= max q - 2 (gamma_{M+5}
    + gamma_{3k+7}) G, and rescoring every cell within that margin of
    max q, in index order, finds it and its lowest-index ties.  The
    margin used is 4 gamma_{4k+16} G', where G' adds 1 to P, B, E and
    x^2, formed from the float64 x.  The excess covers the rounding of
    G', x and the threshold, and the absolute error of results below
    the normal range.  The threshold is then rounded up to float32:
    a float32 q is at least a float64 t exactly when it is at least the
    least float32 not below t, so the compare keeps the same cells.  The
    bound needs finite terms and no overflow.  The float32 products and
    partial sums stay below 2 G', and in float64 (r - mu)^2 is at most
    2 (x^2 + P v2).  So a map whose P + 1, B + 1, E + 1 or largest v2
    exceeds 2^100 gets infinite bounds and zero rows in W.  When G' <=
    2^100, every heard map fits: its v2 and 1 / v2 are at most 2^100,
    so v2 is positive, and its c, mu, r and (r - mu)^2 are finite.  So
    the kept cells are rescored in Python floats, which then meet no
    zero divisor and no NaN, with the same IEEE operations as the dense
    numpy expression.  A scan whose G' exceeds 2^100, or is NaN, has
    every cell scored by that dense expression, with np.argmax's rule
    for NaN.
    """

    def __init__(self, maps: tuple[SignalMap, ...]):
        self.ap_ids = tuple(m.ap_id for m in maps)
        var = [m.sigma ** 2 for m in maps]
        c = np.column_stack([-0.5 * np.log(2.0 * math.pi * v) for v in var])
        v2 = np.column_stack([2.0 * v for v in var])
        mu = np.column_stack([m.mu for m in maps])
        self.table = np.stack((c, mu, v2), axis=2)  # (cells, k, 3)
        with np.errstate(all="ignore"):
            self.r0 = (0.5 * mu.min(axis=0) + 0.5 * mu.max(axis=0)).tolist()
            y = mu - self.r0
            y2 = y * y / v2
            terms = (c - y2, 2.0 * y / v2, -1.0 / v2)
            bounds = np.stack([np.abs(c) + y2, np.abs(terms[1]), np.abs(terms[2])]).max(axis=1) + 1.0
        # NaN compares false: a map with a NaN term does not fit either
        fits = (bounds.max(axis=0) <= _BIG) & (v2.max(axis=0) <= _BIG)
        self.bounds = [tuple(b) if ok else (math.inf,) * 3
                       for b, ok in zip(bounds.T.tolist(), fits.tolist())]
        keep = np.tile(fits, 3)[:, None]
        self.w = _aligned_rows(3 * len(maps), len(mu))
        self.w[...] = np.where(keep, np.hstack(terms).T, 0.0)
        self.margin = 4.0 * _gamma(4 * len(maps) + 16)

    def best_cell(self, cols: list[int], r: list[float]) -> tuple[int, float]:
        """Lowest-index best cell, and its score, for readings r of the
        maps in columns cols, rising (a map's column is its list index)."""
        k = len(self.bounds)
        hxx = [0.0] * (3 * k)  # [h, x, x^2]
        g = 0.0  # G'; inf or NaN when a heard map does not fit
        for col, reading in zip(cols, r):
            p, b, e = self.bounds[col]
            x = reading - self.r0[col]
            g += p + b * abs(x) + e * (x * x + 1.0)
            hxx[col], hxx[k + col], hxx[2 * k + col] = 1.0, x, x * x
        if not g <= _BIG:
            return self._dense(cols, r)
        q = np.array(hxx, dtype=np.float32) @ self.w
        t = float(q.max()) - self.margin * g
        t32 = np.float32(t)
        if float(t32) < t:
            t32 = np.nextafter(t32, np.float32(np.inf))
        cells = (q >= t32).nonzero()[0]
        # the dense expression's operations, summed in map order from
        # +0.0; cells rise, so the first maximum is the lowest-index one
        best, top = 0, -math.inf
        for cell, row in zip(cells.tolist(), self.table.take(cells, 0).tolist()):
            s = 0.0
            for col, reading in zip(cols, r):
                c, mu, v2 = row[col]
                d = reading - mu
                s += c - d * d / v2
            if s > top:
                best, top = cell, s
        return best, top

    def _dense(self, cols: list[int], r: list[float]) -> tuple[int, float]:
        """best_cell by the dense float64 score of every cell, for a scan
        the screen cannot bound: a term may then divide by zero or be NaN."""
        at = self.table if len(cols) == len(self.bounds) else self.table[:, cols]
        terms = at[..., 0] - (np.array(r) - at[..., 1]) ** 2 / at[..., 2]
        # each cell's terms summed in map order; adding 0.0 turns a -0.0
        # total into the +0.0 that a sum begun at +0.0 gives
        score = np.add.accumulate(terms, axis=1)[:, -1]
        i = int(np.argmax(score))
        return i, float(score[i]) + 0.0


@functools.lru_cache(maxsize=4)
def _block(maps: tuple[SignalMap, ...]) -> _Block:
    """The block of one list of maps, all on the grid of the first,
    keyed by the identity of its maps (a SignalMap hashes by identity
    and never changes).  The cache keeps the last four lists, and their
    maps, alive."""
    if not all(m.congruent(maps[0]) for m in maps):
        raise ValueError("maps are not on the same grid")
    return _Block(maps)


def position_one_shot(maps: list[SignalMap],
                      observation: dict[str, float]) -> tuple[float, float, float]:
    """Most likely cell centre for a single scan.

    Every map must lie on the grid of the first.  Scores every cell by
    the summed Gaussian log-likelihood of the observed values under each
    per-source map, summed in the order of maps; ties go to the lowest
    cell index.  Sources the maps lack are ignored.  Returns (x, y, best
    log-likelihood), the centre on the first heard map's grid.  The
    terms that depend only on the maps are cached as one block per list
    of map objects (see _Block), so repeated calls with the same maps
    are cheap.
    """
    used = [i for i, m in enumerate(maps) if m.ap_id in observation]
    if not used:
        raise ValueError("observation shares no sources with the maps")
    block = _block(tuple(maps))
    r = [float(observation[block.ap_ids[i]]) for i in used]
    for i, x in zip(used, r):
        if not math.isfinite(x):
            raise ValueError(f"reading {x} for source {block.ap_ids[i]!r} is not finite")
    best, ll = block.best_cell(used, r)
    first = maps[used[0]]
    cx = first.x0 + (best % first.nx + 0.5) * first.cell
    cy = first.y0 + (best // first.nx + 0.5) * first.cell
    return cx, cy, ll


def bucket_fractions(errors: np.ndarray,
                     edges: tuple[float, float] = (1.0, 2.0)) -> tuple[float, float, float]:
    """Fractions of errors in [0, e0), [e0, e1) and [e1, inf)."""
    e = np.asarray(errors, dtype=float)
    n = len(e)
    if n == 0:
        raise ValueError("no errors given")
    a = float(np.count_nonzero(e < edges[0])) / n
    b = float(np.count_nonzero((e >= edges[0]) & (e < edges[1]))) / n
    return a, b, 1.0 - a - b
