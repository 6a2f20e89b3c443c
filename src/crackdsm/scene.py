"""Straight-crack geometry and validity checks against a wavenumber.

The three-crack benchmark scene is data, ``scenes/three_cracks.txt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SceneError

# Hard limits: imaging theory assumes well-separated cracks (k|c-c'| > 3/4)
# in the small-crack regime.  The benchmark scene reaches k*l = 2*pi*0.05/0.3
# at its shortest wavelength, so the crack-size ceiling must stay above that.
SEPARATION_HARD = 0.75
KL_HARD = 2.0
# Largest k * (|cx| + |cy| + half-length) accepted.  A phase k x of that size
# is rounded by up to 1e7 * 2^-53 ~ 1.1e-9, so e^{ikx} keeps 8 digits; at
# 1e200 the phases carry none.
KX_HARD = 1e7


@dataclass(frozen=True)
class Crack:
    """Line segment scatterer: center, half-length, rotation angle (radians)."""

    center: tuple
    half_length: float
    rotation: float

    def __post_init__(self):
        cx, cy = self.center
        if not (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(self.rotation)):
            raise SceneError("crack center/rotation must be finite")
        if not (self.half_length > 0.0 and math.isfinite(self.half_length)):
            raise SceneError(f"half_length must be positive, got {self.half_length}")
        object.__setattr__(self, "center", (float(cx), float(cy)))


@dataclass(frozen=True)
class Scene:
    """Ordered collection of cracks with pairwise distinct centers."""

    cracks: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "cracks", tuple(self.cracks))
        centers = [c.center for c in self.cracks]
        if len(set(centers)) != len(centers):
            raise SceneError("crack centers must be pairwise distinct")


def crack_tangent(crack):
    """Unit tangent [cos phi, sin phi]."""
    return np.array([math.cos(crack.rotation), math.sin(crack.rotation)])


def _segments_meet(a, b, c, d):
    """Whether the segments ab and cd share a point, by the orientation test:
    each straddles the other's line, or, when all four ends lie on one line,
    their extents overlap on both axes."""
    def orient(p, q, r):
        return np.sign((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))

    o = (orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b))
    if not any(o):
        return all(max(min(a[i], b[i]), min(c[i], d[i])) <= min(max(a[i], b[i]), max(c[i], d[i]))
                   for i in (0, 1))
    return o[0] * o[1] <= 0 and o[2] * o[3] <= 0


def check_scaled_scene(scene, k):
    """Raise DomainError unless k is a finite positive wavenumber, and
    SceneError unless every crack has k (|cx| + |cy| + h) <= KX_HARD."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"wavenumber must be finite and positive, got {k}")
    for m, crack in enumerate(scene.cracks):
        (cx, cy), half = crack.center, crack.half_length
        reach = k * (abs(cx) + abs(cy) + half)
        if not reach <= KX_HARD:
            raise SceneError(f"crack {m} lies too far out: k (|cx| + |cy| + h) = "
                             f"{reach:.6g} is above {KX_HARD:g}, where its phases "
                             "lose their digits or overflow")


def validate_scene(scene, k):
    """The messages of the violations of separation (k*dist > 3/4), crack
    size (k*l < 2) and crossing (segments that cross or touch), each
    "[error] <check> for crack(s) <i>[/<j>]: ...".

    Raises instead when k is not finite or a crack lies beyond KX_HARD."""
    check_scaled_scene(scene, k)
    out = []
    centers = [np.asarray(c.center) for c in scene.cracks]
    # centres and endpoints scaled by k, which check_scaled_scene bounds: no
    # distance or cross product overflows
    kc = [k * c for c in centers]
    tips = [crack.half_length * crack_tangent(crack) for crack in scene.cracks]
    ends = [(k * (c - t), k * (c + t)) for c, t in zip(centers, tips)]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            kd = math.hypot(*(kc[i] - kc[j]))
            if kd <= SEPARATION_HARD:
                out.append(f"[error] separation for crack(s) {i}/{j}: "
                           f"value {kd:.6g} vs threshold {SEPARATION_HARD:.6g}")
            if _segments_meet(*ends[i], *ends[j]):
                out.append(f"[error] crossing for crack(s) {i}/{j}: the segments cross or touch")
    for m, crack in enumerate(scene.cracks):
        kl = k * crack.half_length
        if kl >= KL_HARD:
            out.append(f"[error] crack-size for crack(s) {m}: "
                       f"value {kl:.6g} vs threshold {KL_HARD:.6g}")
    return out


def require_valid(scene, k):
    """Raise SceneError when any hard violation is present."""
    bad = validate_scene(scene, k)
    if bad:
        raise SceneError("; ".join(bad))
