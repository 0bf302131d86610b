"""Gaussian-process signal maps over a regular grid, map comparison by
90 % interval overlap, and one-shot fingerprint positioning."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

Z90 = 1.6449  # two-sided 90 % normal quantile


@dataclass(frozen=True)
class GpParams:
    length_scale: float = 3.0   # m
    sigma_f: float = 6.0        # signal std, dB
    sigma_n: float = 4.0        # observation noise std, dB
    mean: float = -90.0         # prior mean, dBm
    cell: float = 0.5           # grid pitch, m


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
                  sigma_f: float) -> np.ndarray:
    d2 = cdist(np.atleast_2d(a), np.atleast_2d(b), "sqeuclidean")
    return sigma_f ** 2 * np.exp(-d2 / (2.0 * length_scale ** 2))


def gp_predict(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray,
               params: GpParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact GP posterior mean and predictive std (noise included) at the
    query points, for the targets of one source, shape (n,), or of S
    sources observed at the same positions, shape (n, S); mu has shape
    (m,) or (m, S).  With no training data the prior is returned."""
    query = np.atleast_2d(np.asarray(query, dtype=float))
    m = len(query)
    train_y = np.asarray(train_y, dtype=float)
    ys = train_y[:, None] if train_y.ndim == 1 else train_y
    mu = np.full((ys.shape[1], m), params.mean)  # one contiguous row per source
    sigma = np.full(m, math.sqrt(params.sigma_f ** 2 + params.sigma_n ** 2))
    if len(train_x) > 0:
        train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
        n = len(train_x)
        K = sq_exp_kernel(train_x, train_x, params.length_scale, params.sigma_f)
        K[np.diag_indices(n)] += params.sigma_n ** 2 + 1e-10
        chol = cho_factor(K, lower=True)
        # one row per source; a single (m, n) @ (n, S) product would round
        # differently from the one-source matrix-vector product
        alphas = np.ascontiguousarray(cho_solve(chol, ys - params.mean).T)
        # chunk the query side to bound the n x chunk solve workspace
        for lo in range(0, m, 2048):
            hi = min(m, lo + 2048)
            ks = sq_exp_kernel(query[lo:hi], train_x, params.length_scale, params.sigma_f)
            for row, alpha in zip(mu, alphas):
                row[lo:hi] = params.mean + ks @ alpha
            v = cho_solve(chol, ks.T)
            var_f = params.sigma_f ** 2 - np.einsum("ij,ji->i", ks, v)
            sigma[lo:hi] = np.sqrt(np.maximum(var_f, 0.0) + params.sigma_n ** 2)
    return (mu[0] if train_y.ndim == 1 else mu.T), sigma


def fit_signal_maps(bounds: tuple[float, float, float, float], positions: np.ndarray,
                    values_by_source: dict[str, np.ndarray],
                    params: GpParams | None = None) -> dict[str, SignalMap]:
    """Train one map per source from observations at shared positions:
    values_by_source holds each source's values, one per row of
    positions.  K, its Cholesky factor and the variance solve depend
    only on the positions, so they are built once for all sources."""
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


_U = 2.0 ** -53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's bound k u / (1 - k u) on the relative error of k roundings."""
    return k * _U / (1.0 - k * _U)


class _Block:
    """The k maps of one grid shape from one list, in list order, with
    the terms of their log-likelihoods cached column by column.

    With c = -log(2 pi sigma^2) / 2 and v2 = 2 sigma^2, the exact score
    of a cell from these floats, for the M maps a scan heard, is a
    quadratic in each reading r:
        s = sum_m c - (r - mu)^2 / v2 = sum_m a + r b + r^2 e,
        a = c - mu^2 / v2,  b = 2 mu / v2,  e = -1 / v2.
    So q = [h, r, r^2] @ W, with W the 3k x cells matrix of a, b and e
    and h = 1 for a heard map (h = r = 0 for the rest), screens every
    cell in one product.  Let u = 2^-53, gamma_n = n u / (1 - n u), and
    G = sum over heard maps of P + B |r| + E r^2, where P, B and E are
    the maxima over cells of |c| + mu^2 / v2, |b| and |e|.  Then, by
    Higham 2002, Accuracy and Stability of Numerical Algorithms, ch. 3:
    - the float score of the dense expression (as in best_cell) sits
      within gamma_{M+5} G of s: four roundings per term, then M - 1 in
      the running sum;
    - q sits within gamma_{3k+6} G of s: a, b, e and r^2 carry one to
      three roundings, then the product sums 3k terms in some order,
      with fused multiply-adds or without.
    So the best cell by the dense score has q >= max q - 2 (gamma_{M+5}
    + gamma_{3k+6}) G, and rescoring every cell within that margin of
    max q, in index order, finds it and its lowest-index ties.  The
    margin used is 4 gamma_{4k+16} G', where G' adds 1 to P, B, E and
    r^2: the excess covers the rounding of G' and of the threshold, and
    the absolute error of results below the normal range.  The bound
    needs finite terms and no overflow ((r - mu)^2 is at most v2 G), so
    when a heard map has a term that is not finite, or G' (1 + max v2)
    exceeds 2^1000, every cell is rescored.
    """

    def __init__(self, maps: list[SignalMap]):
        var = [m.sigma ** 2 for m in maps]
        self.c = np.column_stack([-0.5 * np.log(2.0 * math.pi * v) for v in var])
        self.v2 = np.column_stack([2.0 * v for v in var])
        self.mu = np.column_stack([m.mu for m in maps])
        with np.errstate(all="ignore"):
            mu2 = self.mu * self.mu / self.v2
            terms = (self.c - mu2, 2.0 * self.mu / self.v2, -1.0 / self.v2)
            self.finite = np.isfinite(np.stack((self.c, *terms))).all(axis=(0, 1))
            peaks = [np.abs(self.c) + mu2, np.abs(terms[1]), np.abs(terms[2])]
        keep = np.tile(self.finite, 3)
        self.w = np.ascontiguousarray(np.where(keep[:, None], np.hstack(terms).T, 0.0))
        self.scale = np.where(keep, np.concatenate([p.max(axis=0) for p in peaks]) + 1.0, 0.0)
        self.v2_max = float(np.max(self.v2[:, self.finite], initial=0.0))

    def best_cell(self, cols: list[int], r: np.ndarray) -> tuple[int, float]:
        """Lowest-index best cell, and its score, for readings r of the
        maps in columns cols (in list order)."""
        k = len(self.w) // 3
        h = np.zeros(k)
        rk = np.zeros(k)
        h[cols] = 1.0
        rk[cols] = r
        q = np.concatenate([h, rk, rk * rk]) @ self.w
        g = float(self.scale @ np.concatenate([h, np.abs(rk), rk * rk + h]))
        if self.finite[cols].all() and g * (1.0 + self.v2_max) <= 2.0 ** 1000:
            cells = np.flatnonzero(q >= q.max() - 4.0 * _gamma(4 * k + 16) * g)
        else:
            cells = np.arange(len(q))
        at = (cells[:, None], cols)
        terms = self.c[at] - (r - self.mu[at]) ** 2 / self.v2[at]
        score = np.zeros(len(cells))
        for t in terms.T:
            score += t
        i = int(np.argmax(score))
        return int(cells[i]), float(score[i])


@dataclass(frozen=True)
class _Screen:
    ap_ids: tuple[str, ...]
    congruent: np.ndarray           # (M, M) bool: maps[i].congruent(maps[j])
    placed: tuple[tuple[_Block, int], ...]  # each map's block and column


@functools.lru_cache(maxsize=4)
def _screen(maps: tuple[SignalMap, ...]) -> _Screen:
    """Blocks for one list of maps, keyed by the identity of its maps
    (a SignalMap hashes by identity and never changes).  The cache keeps
    the last four lists, and their maps, alive."""
    by_shape: dict[tuple[int, int], list[SignalMap]] = {}
    where = []
    for m in maps:
        members = by_shape.setdefault((m.nx, m.ny), [])
        where.append(((m.nx, m.ny), len(members)))
        members.append(m)
    blocks = {shape: _Block(ms) for shape, ms in by_shape.items()}
    placed = tuple((blocks[shape], col) for shape, col in where)
    congruent = np.array([[a.congruent(b) for b in maps] for a in maps])
    return _Screen(tuple(m.ap_id for m in maps), congruent, placed)


def position_one_shot(maps: list[SignalMap],
                      observation: dict[str, float]) -> tuple[float, float, float]:
    """Most likely cell centre for a single scan.

    Scores every cell by the summed Gaussian log-likelihood of the
    observed values under each per-source map, summed in the order of
    maps; ties go to the lowest cell index.  Sources the maps lack are
    ignored.  Returns (x, y, best log-likelihood).  The terms that
    depend only on the maps are cached per list of map objects (see
    _Block), so repeated calls with the same maps are cheap.
    """
    maps = tuple(maps)
    screen = _screen(maps)
    used = [i for i, ap in enumerate(screen.ap_ids) if ap in observation]
    if not used:
        raise ValueError("observation shares no sources with the maps")
    if not screen.congruent[used[0], used].all():
        raise ValueError("maps are not on the same grid")
    r = np.array([float(observation[screen.ap_ids[i]]) for i in used])
    if not np.isfinite(r).all():
        j = int(np.argmin(np.isfinite(r)))
        raise ValueError(f"reading {r[j]} for source {screen.ap_ids[used[j]]!r} is not finite")
    block = screen.placed[used[0]][0]
    best, ll = block.best_cell([screen.placed[i][1] for i in used], r)
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
