"""Gaussian-process signal maps over a regular grid, map comparison by
90 % interval overlap, and one-shot fingerprint positioning."""

from __future__ import annotations

import dataclasses
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


@dataclass
class SignalMap:
    """Posterior mean and predictive std on a row-major grid.

    Cells are indexed iy * nx + ix; centres sit at half-cell offsets
    from the origin.  sigma includes the observation noise floor.
    """

    ap_id: str
    x0: float
    y0: float
    cell: float
    nx: int
    ny: int
    mu: np.ndarray
    sigma: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        ix = np.arange(self.nx)
        iy = np.arange(self.ny)
        gx = self.x0 + (ix + 0.5) * self.cell
        gy = self.y0 + (iy + 0.5) * self.cell
        xx, yy = np.meshgrid(gx, gy)
        return np.column_stack([xx.ravel(), yy.ravel()])

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
    nx, ny = grid_shape(bounds, params.cell)
    grid = SignalMap("", bounds[0], bounds[1], params.cell, nx, ny, np.empty(0), np.empty(0))
    ys = np.column_stack([np.asarray(v, dtype=float) for v in values_by_source.values()])
    mu, sigma = gp_predict(positions, ys, grid.centers, params)
    return {ap_id: dataclasses.replace(grid, ap_id=ap_id, mu=col, sigma=sigma.copy())
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


def position_one_shot(maps: list[SignalMap],
                      observation: dict[str, float]) -> tuple[float, float, float]:
    """Most likely cell centre for a single scan.

    Scores every cell by the summed Gaussian log-likelihood of the
    observed values under each per-source map; ties go to the lowest
    cell index.  Returns (x, y, best log-likelihood).
    """
    used = [m for m in maps if m.ap_id in observation]
    if not used:
        raise ValueError("observation shares no sources with the maps")
    first = used[0]
    score = np.zeros(first.nx * first.ny)
    for m in used:
        if not m.congruent(first):
            raise ValueError("maps are not on the same grid")
        r = observation[m.ap_id]
        var = m.sigma ** 2
        score += -0.5 * np.log(2.0 * math.pi * var) - (r - m.mu) ** 2 / (2.0 * var)
    best = int(np.argmax(score))
    cx = first.x0 + (best % first.nx + 0.5) * first.cell
    cy = first.y0 + (best // first.nx + 0.5) * first.cell
    return cx, cy, float(score[best])


def error_cdf(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF support points: sorted errors and P(error <= x)."""
    e = np.sort(np.asarray(errors, dtype=float))
    if len(e) == 0:
        raise ValueError("no errors given")
    return e, np.arange(1, len(e) + 1) / len(e)


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
