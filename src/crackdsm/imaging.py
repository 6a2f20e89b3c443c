"""Acquisition settings, far-field tensors, sampling grids, indicator maps, and
the direct-sampling indicator functions.  Numpy only: the commands that image
and read maps never load scipy.

The four indicators share one kernel, `_steered_sums`: far-field rows
correlated with the steering vectors e^{-ik theta_n . x}, optionally
compensated by e^{-ik d . x}.  On the tensor-product grid each phase splits
into x and y factors, so a map is one product By diag(u) Ax^T.  The `if` map
takes its exponentials once and makes one By diag(u_l) Ax^T product per
incident direction l.  Each grid axis is uniform, so `_axis_tables` takes
about 2 sqrt(n) exponentials per column, a coarse and a fine table, and
`_axis_phases` builds the n phases of a column from them with one complex
product.
Maps have max 1 (zero maps are flagged, not divided).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputMismatchError

_ZERO_MAP_EPS = 1e-300
# Most points per grid axis.  At 4096 the (ny, nx) complex map is 256 MiB, and
# `_steered_sum`'s (nx, T*N) phases at the predictors' largest P = 10271
# (asymptotic._MAX_KR, T = 1) are 673 MB, as are its (ny, T*N) ones.
_MAX_AXIS = 4096

# Most wavenumbers F, incident directions L and observation directions N.  At
# all three bounds the far-field tensor of F L N complex values is 1 GiB; an
# aif map's `_steered_sum` phases are (nx, L N) and (ny, L N), 16 MiB per grid
# point of an axis at L = N = 1024, and the full solver's far-field phases are
# (N, sum of m_p), 16 MiB per 1024 coarse unknowns.
_MAX_COUNT = {"wavenumbers": 64, "incident directions": 1024, "observation directions": 1024}


def check_count(what, count):
    """Refuse more than `_MAX_COUNT` of `what`, before anything of that size is made."""
    if count > _MAX_COUNT[what]:
        raise DomainError(f"at most {_MAX_COUNT[what]} {what}, got {count}")


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
        if not (2 <= self.nx <= _MAX_AXIS and 2 <= self.ny <= _MAX_AXIS):
            raise DomainError(f"grid needs 2 <= nx, ny <= {_MAX_AXIS}, got {self.nx}, {self.ny}")

    @property
    def shape(self):
        return (self.ny, self.nx)

    def x_coords(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def y_coords(self):
        return np.linspace(self.y_min, self.y_max, self.ny)


@dataclass
class IndicatorMap:
    """Normalized real-valued map over an ImagingGrid, values in [0, 1]."""

    grid: ImagingGrid
    values: np.ndarray
    zero_map: bool = False

    @classmethod
    def from_raw(cls, grid, raw):
        """Max-normalised map; raw values that are not finite are refused."""
        raw = np.asarray(raw, dtype=float).reshape(grid.shape)
        if not np.all(np.isfinite(raw)):
            raise DomainError("indicator map is not finite; the input overflows")
        peak = raw.max()
        if peak < _ZERO_MAP_EPS:
            return cls(grid, np.zeros(grid.shape), zero_map=True)
        return cls(grid, raw / peak)


@dataclass(frozen=True)
class Peak:
    position: tuple
    value: float


@dataclass
class PeakReport:
    """Local maxima sorted by value, plus optional per-crack hit metrics."""

    peaks: list
    crack_matches: list = field(default_factory=list)  # (center, dist, value)


def unit_vectors(angles):
    """The directions (cos a, sin a) of the given angles a, shape (len(angles), 2)."""
    a = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(a), np.sin(a)])


def observation_directions(n_obs):
    """Unit vectors at the angles 2*pi*n/N for n = 1..N, shape (N, 2)."""
    return unit_vectors(2.0 * np.pi * np.arange(1, n_obs + 1) / n_obs)


@dataclass(frozen=True)
class AcquisitionConfig:
    """Wavenumbers, observation count, and incident-direction angles."""

    wavenumbers: tuple
    n_obs: int
    incident_angles: tuple

    def __post_init__(self):
        check_count("wavenumbers", len(self.wavenumbers))
        check_count("incident directions", len(self.incident_angles))
        check_count("observation directions", self.n_obs)
        ks = tuple(float(k) for k in self.wavenumbers)
        angs = tuple(float(a) for a in self.incident_angles)
        if len(ks) < 1 or not all(0 < k < math.inf for k in ks):
            raise DomainError("wavenumbers must be finite and positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError("wavenumbers must be strictly increasing")
        if self.n_obs < 8:
            raise DomainError("need at least 8 observation directions")
        if len(angs) < 1:
            raise DomainError("need at least one incident direction")
        if not all(math.isfinite(a) for a in angs):
            raise DomainError("incident angles must be finite")
        object.__setattr__(self, "wavenumbers", ks)
        object.__setattr__(self, "incident_angles", angs)

    @property
    def n_freq(self):
        return len(self.wavenumbers)

    @property
    def n_incident(self):
        return len(self.incident_angles)

    def incident_directions(self):
        return unit_vectors(self.incident_angles)


@dataclass
class FarFieldTensor:
    """Complex far-field values indexed [frequency, incident, observation]."""

    values: np.ndarray
    config: AcquisitionConfig

    def __post_init__(self):
        expected = (self.config.n_freq, self.config.n_incident, self.config.n_obs)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != expected:
            raise InputMismatchError(
                f"tensor shape {self.values.shape} does not match config {expected}")
        if not np.all(np.isfinite(self.values.view(float))):
            raise InputMismatchError("tensor entries must be finite")


def _axis_tables(coords, w):
    """The coarse and fine tables whose products are e^{i w x_j} on the
    uniform axis x_j = coords[j]: the module's only exponentials.

    With j = a b + c and b = ceil(sqrt(n)), e^{i w x_j} = e^{i w x_{ab}} e^{i w c h}:
    a (ceil(n/b), W) coarse table and a (b, W) fine one, about 2 sqrt(n)
    exponentials per column instead of n.
    """
    n = len(coords)
    b = math.isqrt(n - 1) + 1
    h = (coords[-1] - coords[0]) / (n - 1)
    coarse = np.exp(1j * np.outer(coords[::b], w))
    fine = np.exp(1j * np.outer(h * np.arange(b), w))
    return coarse, fine


def _axis_phases(tables, n, u=1.0):
    """(n, W) phases u e^{i w x_j} from `_axis_tables`: u folded into the
    coarse table, then one complex product with the fine one."""
    coarse, fine = tables
    return ((u * coarse)[:, None, :] * fine).reshape(-1, coarse.shape[1])[:n]


def _steered_sums(ks, groups, comp, grid):
    """Yield, for each group of rows, the (ny, nx) map
    sum_t sum_n rows[t, n] e^{i ks[t] (theta_n - comp[t]) . x}.

    The groups share ks and comp, so the tables are taken once for all of
    them: By once, then one By diag(u) Ax^T product per group.  ks and comp
    hold one entry per row of a group or one for all; comp (0, 0) means no
    compensation.
    """
    theta = observation_directions(groups.shape[-1])
    wave = np.reshape(ks, (-1, 1, 1)) * (theta - np.reshape(comp, (-1, 1, 2)))  # (T, N, 2)
    x_tables = _axis_tables(grid.x_coords(), wave[..., 0].ravel())
    by = _axis_phases(_axis_tables(grid.y_coords(), wave[..., 1].ravel()), grid.ny)  # (ny, T*N)
    for rows in groups:
        ax = _axis_phases(x_tables, grid.nx, rows.ravel())                          # (nx, T*N)
        yield by @ ax.T


def _steered_sum(ks, rows, comp, grid):
    """The map of `_steered_sums` for one group of rows."""
    return next(_steered_sums(ks, np.asarray(rows)[None], comp, grid))


def _check_indices(tensor, f_index, l_index=None):
    F, L, N = tensor.values.shape
    if not 0 <= f_index < F:
        raise InputMismatchError(f"frequency index {f_index} out of range (F={F})")
    if l_index is not None and not 0 <= l_index < L:
        raise InputMismatchError(f"incident index {l_index} out of range (L={L})")


def indicator_single(tensor, f_index, l_index, grid):
    """Classical single-direction indicator: normalized steering correlation."""
    _check_indices(tensor, f_index, l_index)
    raw = _steered_sum(tensor.config.wavenumbers[f_index], [tensor.values[f_index, l_index]],
                       (0.0, 0.0), grid)
    return IndicatorMap.from_raw(grid, np.abs(raw))


def indicator_if(tensor, f_index, grid):
    """Pointwise maximum of the per-direction indicators, renormalized.

    The steering exponentials are taken once for the map, not once per
    incident direction; each direction l adds one By diag(u_l) Ax^T product,
    normalized as in `indicator_single`.
    """
    _check_indices(tensor, f_index)
    peak = np.zeros(grid.shape)
    for raw in _steered_sums(tensor.config.wavenumbers[f_index],
                             tensor.values[f_index][:, None, :], (0.0, 0.0), grid):
        np.maximum(peak, IndicatorMap.from_raw(grid, np.abs(raw)).values, out=peak)
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


def _distances(p, taken):
    """sqrt(dx dx + dy dy) from p to each row of taken: numpy ufuncs, each step
    IEEE-rounded and none a BLAS call, so every CPU gives the same bits."""
    diff = p - taken
    return np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])


def find_local_maxima(imap, min_separation, floor=0.0, scene=None):
    """Strict grid-local maxima above floor, greedily pruned by separation.

    Ties break toward the lexicographically smaller grid index.  When a scene
    is given, the report carries each crack's nearest-peak distance and value.
    """
    if not min_separation > 0.0:
        raise DomainError("min_separation must be positive")
    if math.isnan(floor):
        raise DomainError("floor must be a number, got nan")
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
    order = np.lexsort((ix, iy, -v[iy, ix]))
    iy, ix = iy[order], ix[order]
    cand = np.column_stack([imap.grid.x_coords()[ix], imap.grid.y_coords()[iy]])
    taken = np.empty_like(cand)
    kept = []
    for p, gy, gx in zip(cand, iy, ix):
        if np.all(_distances(p, taken[:len(kept)]) >= min_separation):
            taken[len(kept)] = p
            kept.append(Peak((float(p[0]), float(p[1])), float(v[gy, gx])))
    report = PeakReport(peaks=kept)
    if scene is not None:
        for crack in scene.cracks:
            if kept:
                dist = _distances(np.asarray(crack.center), taken[:len(kept)])
                j = int(np.argmin(dist))
                report.crack_matches.append((crack.center, float(dist[j]), kept[j].value))
            else:
                report.crack_matches.append((crack.center, math.inf, 0.0))
    return report


def map_distance(a, b):
    """(max, root-mean-square) of pointwise differences; grids must match."""
    if a.grid != b.grid:
        raise InputMismatchError("maps live on different grids")
    diff = np.abs(a.values - b.values)
    return float(diff.max()), float(np.sqrt(np.mean(diff**2)))
