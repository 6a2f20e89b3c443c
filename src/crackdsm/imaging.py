"""Sampling grids, indicator maps, and the direct-sampling indicator functions.

The four indicators share one kernel: far-field rows against the steering
vectors e^{-ik theta_n . x}, optionally compensated by e^{-ik d . x}.  On the
tensor-product grid each phase splits into x and y factors, so a map is one
product By diag(u) Ax^T.  Maps have max 1 (zero maps are flagged, not divided).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputMismatchError

_ZERO_MAP_EPS = 1e-300


@dataclass(frozen=True)
class ImagingGrid:
    """Rectangular sampling region, points enumerated row-major (y rows, x fast)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            raise DomainError("grid bounds must be finite and satisfy min < max")
        if self.nx < 2 or self.ny < 2:
            raise DomainError("grid needs nx, ny >= 2")

    @property
    def shape(self):
        return (self.ny, self.nx)

    def x_coords(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def y_coords(self):
        return np.linspace(self.y_min, self.y_max, self.ny)

    def points(self):
        """(ny*nx, 2) array, row-major with x varying fastest."""
        xx, yy = np.meshgrid(self.x_coords(), self.y_coords())
        return np.column_stack([xx.ravel(), yy.ravel()])

    def spacing(self):
        return ((self.x_max - self.x_min) / (self.nx - 1),
                (self.y_max - self.y_min) / (self.ny - 1))


@dataclass
class IndicatorMap:
    """Normalized real-valued map over an ImagingGrid, values in [0, 1]."""

    grid: ImagingGrid
    values: np.ndarray
    zero_map: bool = False

    @classmethod
    def from_raw(cls, grid, raw):
        raw = np.asarray(raw, dtype=float).reshape(grid.shape)
        peak = raw.max()
        if peak < _ZERO_MAP_EPS:
            return cls(grid, np.zeros(grid.shape), zero_map=True)
        return cls(grid, raw / peak)

    def argmax_point(self):
        iy, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return np.array([self.grid.x_coords()[ix], self.grid.y_coords()[iy]])


@dataclass(frozen=True)
class Peak:
    position: tuple
    value: float


@dataclass
class PeakReport:
    """Local maxima sorted by value, plus optional per-crack hit metrics."""

    peaks: list
    crack_matches: list = field(default_factory=list)  # (center, dist, value)


def observation_angles(n_obs):
    """Angles 2*pi*n/N for n = 1..N."""
    return 2.0 * np.pi * np.arange(1, n_obs + 1) / n_obs


def observation_directions(n_obs):
    ang = observation_angles(n_obs)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def steering_vector(k, n_obs, x):
    """Test-function samples e^{-ik theta_n . x}, unit modulus each."""
    if n_obs < 1:
        raise DomainError("need at least one observation direction")
    x = np.asarray(x, dtype=float)
    return np.exp(-1j * k * observation_directions(n_obs) @ x)


def correlate(data, steer):
    """Discrete inner product sum_n data_n * conj(steer_n)."""
    data = np.asarray(data)
    steer = np.asarray(steer)
    if data.shape != steer.shape:
        raise InputMismatchError(f"length mismatch {data.shape} vs {steer.shape}")
    return complex(np.sum(data * np.conj(steer)))


def _steered_sum(ks, rows, comp, grid):
    """(ny, nx) map of sum_t sum_n rows[t, n] e^{i ks[t] (theta_n - comp[t]) . x}.

    ks and comp hold one entry per row or one for all; comp (0, 0) means no
    compensation.
    """
    rows = np.asarray(rows)
    theta = observation_directions(rows.shape[1])
    wave = np.reshape(ks, (-1, 1, 1)) * (theta - np.reshape(comp, (-1, 1, 2)))  # (T, N, 2)
    ax = np.exp(1j * np.outer(grid.x_coords(), wave[..., 0]))    # (nx, T*N)
    by = np.exp(1j * np.outer(grid.y_coords(), wave[..., 1]))    # (ny, T*N)
    return by @ (ax * rows.ravel()).T


def _check_indices(tensor, f_index, l_index=None):
    F, L, N = tensor.values.shape
    if not 0 <= f_index < F:
        raise InputMismatchError(f"frequency index {f_index} out of range (F={F})")
    if l_index is not None and not 0 <= l_index < L:
        raise InputMismatchError(f"incident index {l_index} out of range (L={L})")


def _single(row, k, grid):
    norm = np.linalg.norm(row) * math.sqrt(row.size)
    if norm < _ZERO_MAP_EPS:
        return IndicatorMap(grid, np.zeros(grid.shape), zero_map=True)
    raw = np.abs(_steered_sum(k, [row], (0.0, 0.0), grid)) / norm
    return IndicatorMap.from_raw(grid, raw)


def indicator_single(tensor, f_index, l_index, grid):
    """Classical single-direction indicator: normalized steering correlation."""
    _check_indices(tensor, f_index, l_index)
    return _single(tensor.values[f_index, l_index],
                   tensor.config.wavenumbers[f_index], grid)


def indicator_if(tensor, f_index, grid):
    """Pointwise maximum of the per-direction indicators, renormalized."""
    _check_indices(tensor, f_index)
    k = tensor.config.wavenumbers[f_index]
    peak = np.zeros(grid.shape)
    for row in tensor.values[f_index]:
        np.maximum(peak, _single(row, k, grid).values, out=peak)
    return IndicatorMap.from_raw(grid, peak)


def indicator_aif(tensor, f_index, grid):
    """Phase-compensated sum over incident directions (improving factor)."""
    _check_indices(tensor, f_index)
    total = _steered_sum(tensor.config.wavenumbers[f_index], tensor.values[f_index],
                         tensor.config.incident_directions(), grid)
    return IndicatorMap.from_raw(grid, np.abs(total))


def indicator_mif(tensor, grid):
    """Multi-frequency indicator; needs F >= 2 and a single incident direction."""
    F, L, _ = tensor.values.shape
    if F < 2:
        raise InputMismatchError("mif (multi-frequency indicator) needs F >= 2")
    if L != 1:
        raise InputMismatchError("multi-frequency indicator expects a single incident direction")
    total = _steered_sum(tensor.config.wavenumbers, tensor.values[:, 0],
                         tensor.config.incident_directions(), grid)
    return IndicatorMap.from_raw(grid, np.abs(total))


def find_local_maxima(imap, min_separation, floor=0.0, scene=None):
    """Strict grid-local maxima above floor, greedily pruned by separation.

    Ties break toward the lexicographically smaller grid index.  When a scene
    is given, the report carries each crack's nearest-peak distance and value.
    """
    if min_separation <= 0.0:
        raise DomainError("min_separation must be positive")
    v = imap.values
    ny, nx = v.shape
    padded = np.full((ny + 2, nx + 2), -np.inf)
    padded[1:-1, 1:-1] = v
    strict = np.ones((ny, nx), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            strict &= v > padded[1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx]
    iy, ix = np.nonzero(strict & (v >= floor))
    xs, ys = imap.grid.x_coords(), imap.grid.y_coords()
    cand = sorted(zip(iy.tolist(), ix.tolist()), key=lambda p: (-v[p[0], p[1]], p[0], p[1]))
    kept = []
    for gy, gx in cand:
        p = np.array([xs[gx], ys[gy]])
        if all(np.linalg.norm(p - np.asarray(q.position)) >= min_separation for q in kept):
            kept.append(Peak((float(p[0]), float(p[1])), float(v[gy, gx])))
    report = PeakReport(peaks=kept)
    if scene is not None:
        for crack in scene.cracks:
            c = np.asarray(crack.center)
            if kept:
                dists = [np.linalg.norm(c - np.asarray(q.position)) for q in kept]
                j = int(np.argmin(dists))
                report.crack_matches.append((crack.center, float(dists[j]), kept[j].value))
            else:
                report.crack_matches.append((crack.center, math.inf, 0.0))
    return report


def map_distance(a, b):
    """(max, root-mean-square) of pointwise differences; grids must match."""
    if a.grid != b.grid:
        raise InputMismatchError("maps live on different grids")
    diff = np.abs(a.values - b.values)
    return float(diff.max()), float(np.sqrt(np.mean(diff**2)))
