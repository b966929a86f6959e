"""Arithmetic of Boidol's group and classification of coadjoint orbits.

The group is the 4-dimensional exponential solvable Lie group with brackets
[T,X] = -X, [T,Y] = Y, [X,Y] = Z, realized globally on R^4 in coordinates
(t, x, y, z).  Linear functionals on the Lie algebra are stored in the dual
basis (T*, X*, Y*, Z*).  Coadjoint orbits fall into four strata:

* ``Gen(rho, lam)``      -- generic 2-d orbits with Z*-coordinate lam != 0,
* ``TwoDim(omega, sigma)`` -- 2-d orbits vanishing on Z, omega != 0,
* ``OneDim(axis, sigma)`` -- the four half-line orbits on the X*/Y* axes,
* ``Character(tau)``     -- the fixed points tau T*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "GroupElement",
    "DualVector",
    "Gen",
    "TwoDim",
    "OneDim",
    "Character",
    "OrbitLabel",
    "IDENTITY",
    "group_mul",
    "group_inv",
    "automorphism_gamma",
    "orbit_point",
    "classify_dual_vector",
    "in_centre",
]

ZERO_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """A point (t, x, y, z) of the group in global coordinates."""

    t: float
    x: float
    y: float
    z: float

    def __iter__(self):
        return iter((self.t, self.x, self.y, self.z))


@dataclass(frozen=True)
class DualVector:
    """A linear functional cT*T* + cX*X* + cY*Y* + cZ*Z* on the Lie algebra."""

    cT: float
    cX: float
    cY: float
    cZ: float

    def __iter__(self):
        return iter((self.cT, self.cX, self.cY, self.cZ))


@dataclass(frozen=True)
class Gen:
    """Generic orbit label: Z*-coordinate lam != 0, invariant rho."""

    rho: float
    lam: float

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("Gen label requires lam != 0")


@dataclass(frozen=True)
class TwoDim:
    """Two-dimensional orbit vanishing on Z, through (0, omega, sigma, 0)."""

    omega: float
    sigma: int  # +1 or -1

    def __post_init__(self):
        if self.omega == 0:
            raise ValueError("TwoDim label requires omega != 0")
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")


@dataclass(frozen=True)
class OneDim:
    """Half-line orbit on the X* axis (axis='X') or Y* axis (axis='Y')."""

    axis: str  # 'X' or 'Y'
    sigma: int

    def __post_init__(self):
        if self.axis not in ("X", "Y"):
            raise ValueError("axis must be 'X' or 'Y'")
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")


@dataclass(frozen=True)
class Character:
    """The one-point orbit tau T*."""

    tau: float


OrbitLabel = Union[Gen, TwoDim, OneDim, Character]

IDENTITY = GroupElement(0.0, 0.0, 0.0, 0.0)


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Product g*h in global coordinates."""
    t, x, y, z = g
    tp, xp, yp, zp = h
    et = math.exp(tp)
    emt = math.exp(-tp)
    return GroupElement(
        t + tp,
        et * x + xp,
        emt * y + yp,
        z + zp + 0.5 * (et * x * yp - emt * xp * y),
    )


def group_inv(g: GroupElement) -> GroupElement:
    """Inverse of g; group_mul(g, group_inv(g)) is the identity."""
    t, x, y, z = g
    return GroupElement(-t, -math.exp(-t) * x, -math.exp(t) * y, -z)


def automorphism_gamma(g: GroupElement) -> GroupElement:
    """The involutive automorphism (t, x, y, z) -> (t, -x, -y, z)."""
    return GroupElement(g.t, -g.x, -g.y, g.z)


def in_centre(g: GroupElement) -> bool:
    """True iff g lies in the centre {(0,0,0,z)}, up to `ZERO_TOL`."""
    return abs(g.t) <= ZERO_TOL and abs(g.x) <= ZERO_TOL and abs(g.y) <= ZERO_TOL


def orbit_point(label: OrbitLabel, params: tuple[float, float] = (0.0, 0.0)) -> DualVector:
    """A point of the orbit `label` at the given parametrization coordinates.

    For ``Gen`` the params are the free coordinates (x, y); for ``TwoDim`` and
    ``OneDim`` they are the flow/transversal coordinates (t, u); ``Character``
    ignores them.
    """
    a, b = params
    if isinstance(label, Gen):
        x, y = a, b
        return DualVector((label.rho * label.lam + x * y) / label.lam, x, y, label.lam)
    if isinstance(label, TwoDim):
        t, u = a, b
        return DualVector(u, label.omega * math.exp(t), label.sigma * math.exp(-t), 0.0)
    if isinstance(label, OneDim):
        t, u = a, b
        if label.axis == "X":
            return DualVector(u, label.sigma * math.exp(t), 0.0, 0.0)
        return DualVector(u, 0.0, label.sigma * math.exp(-t), 0.0)
    if isinstance(label, Character):
        return DualVector(label.tau, 0.0, 0.0, 0.0)
    raise TypeError(f"not an orbit label: {label!r}")


def classify_dual_vector(l: DualVector, tol: float = ZERO_TOL) -> OrbitLabel:
    """Stratified orbit label of the functional `l`.

    Strata are decided by exact vanishing of coordinates; `tol` is the
    absolute zero-tolerance used on floating-point inputs.
    """
    cT, cX, cY, cZ = l
    if abs(cZ) > tol:
        return Gen(cT - cX * cY / cZ, cZ)
    x_nonzero = abs(cX) > tol
    y_nonzero = abs(cY) > tol
    if x_nonzero and y_nonzero:
        return TwoDim(cX * abs(cY), 1 if cY > 0 else -1)
    if x_nonzero:
        return OneDim("X", 1 if cX > 0 else -1)
    if y_nonzero:
        return OneDim("Y", 1 if cY > 0 else -1)
    return Character(cT)
