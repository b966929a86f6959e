"""Limit sets of degenerating orbit sequences and witness distances.

A sequence of generic orbits with Z*-coordinate tending to zero accumulates
either on a two-point set of ``TwoDim`` orbits (when the products rho_k*lam_k
have a nonzero limit) or on the whole union of the half-line orbits and the
characters (when the products tend to zero).  This module classifies finite
truncations of such sequences and measures how fast explicit witness points
on the moving orbits approach a target functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import NotProperlyConverging, TargetNotInLimitSet
from .group import (
    Character,
    DualVector,
    Gen,
    OneDim,
    OrbitLabel,
    TwoDim,
    classify_dual_vector,
    orbit_point,
)

__all__ = [
    "OrbitSequence",
    "SinglePoint",
    "TwoPoints",
    "Gamma1UnionGamma0",
    "Gamma1PairUnionGamma0",
    "Gamma1WithGamma0",
    "AtInfinity",
    "LimitSet",
    "limit_set_gamma3",
    "limit_set_gamma2",
    "closure_gamma1",
    "witness_distance",
]

DEFAULT_TOL = 1e-6
DEFAULT_KMAX = 10_000
# Bounds of the damped Newton refinement in `witness_distance`.
_NEWTON_ITERATIONS = 50
_HALVINGS = 60


@dataclass(frozen=True)
class OrbitSequence:
    """A truncated orbit sequence.

    ``kind='Gamma3'``: ``generator(k) -> (rho_k, lam_k)`` with lam_k != 0.
    ``kind='Gamma2'``: ``generator(k) -> (eps*rho_k, sigma)`` with rho_k > 0.
    """

    kind: str
    generator: Callable[[int], tuple[float, float]]
    k_max: int = DEFAULT_KMAX

    def __post_init__(self):
        if self.kind not in ("Gamma3", "Gamma2"):
            raise ValueError("kind must be 'Gamma3' or 'Gamma2'")
        if self.k_max < 1:
            raise ValueError("k_max must be positive")


@dataclass(frozen=True)
class SinglePoint:
    point: OrbitLabel


@dataclass(frozen=True)
class TwoPoints:
    first: TwoDim
    second: TwoDim


@dataclass(frozen=True)
class Gamma1UnionGamma0:
    """The limit set is all four half-line orbits together with all characters."""


@dataclass(frozen=True)
class Gamma1PairUnionGamma0:
    first: OneDim
    second: OneDim


@dataclass(frozen=True)
class Gamma1WithGamma0:
    """Closure of a single half-line orbit: the orbit plus all characters."""

    orbit: OneDim


@dataclass(frozen=True)
class AtInfinity:
    """The sequence leaves every compact subset of the orbit space."""


LimitSet = Union[
    SinglePoint, TwoPoints, Gamma1UnionGamma0, Gamma1PairUnionGamma0,
    Gamma1WithGamma0, AtInfinity,
]


def _tail_samples(k_max: int) -> list[int]:
    ks = sorted({max(1, k_max // 8), max(1, k_max // 4), max(1, k_max // 2), k_max})
    return ks


def _tail_limit(values: list[float], tol: float) -> tuple[bool, float]:
    """Estimate the limit of a scalar sequence sampled at geometric indices.

    Works by checking that successive differences shrink geometrically and
    applying Aitken extrapolation, which is exact for c*k^(-p) tails under
    index doubling.  Returns (converges, limit_estimate).
    """
    def aitken(a, b, c):
        d1, d2 = b - a, c - b
        if abs(d2 - d1) < 1e-300:
            return None
        r = d2 / d1 if d1 != 0 else 0.0
        return c + d2 * r / (1.0 - r) if r != 1.0 else None

    x = values
    if len(x) < 3:
        return True, x[-1]
    d1 = x[-2] - x[-3]
    d2 = x[-1] - x[-2]
    if abs(d2) <= tol and abs(d1) <= tol:
        return True, x[-1]
    if abs(d2) >= 0.95 * abs(d1):
        return False, x[-1]
    a2 = aitken(x[-3], x[-2], x[-1])
    if a2 is None:
        return abs(d2) <= tol, x[-1]
    if len(x) >= 4:
        a1 = aitken(x[-4], x[-3], x[-2])
        err = abs(a2 - a1) if a1 is not None else abs(d2)
    else:
        err = abs(d2) * abs(d2 / d1) / (1.0 - abs(d2 / d1))
    scale = max(1.0, abs(a2))
    return err <= 10 * tol * scale, a2


def limit_set_gamma3(seq: OrbitSequence) -> LimitSet:
    """Limit set of a truncated sequence of generic orbits.

    Raises NotProperlyConverging when the diagnostic scalars (lam_k,
    omega_k = rho_k*lam_k, rho_k) fail to stabilize over the horizon, to
    `DEFAULT_TOL`.
    """
    if seq.kind != "Gamma3":
        raise ValueError("limit_set_gamma3 requires a Gamma3 sequence")
    tol = DEFAULT_TOL
    ks = _tail_samples(seq.k_max)
    rhos, lams = zip(*(seq.generator(k) for k in ks))
    if any(lam == 0 for lam in lams):
        raise NotProperlyConverging("lam_k must stay nonzero")
    omegas = [r * l for r, l in zip(rhos, lams)]

    lam_conv, lam_lim = _tail_limit(list(lams), tol)
    rho_conv, rho_lim = _tail_limit(list(rhos), tol)
    om_conv, om_lim = _tail_limit(list(omegas), tol)

    rho_grows = abs(rhos[-1]) > 2.0 * abs(rhos[0]) and abs(rhos[-1]) > 1.0 / tol ** 0.5
    lam_away = min(abs(lam) for lam in lams) > tol and lam_conv and abs(lam_lim) > tol

    if lam_conv and abs(lam_lim) > tol:
        if rho_conv:
            return SinglePoint(Gen(rho_lim, lam_lim))
        if rho_grows or not rho_conv and lam_away:
            return AtInfinity()
        raise NotProperlyConverging("rho_k neither stabilizes nor diverges")
    if lam_conv and abs(lam_lim) <= tol:
        if not om_conv:
            raise NotProperlyConverging("omega_k = rho_k*lam_k does not stabilize")
        if abs(om_lim) > tol:
            return TwoPoints(TwoDim(om_lim, -1), TwoDim(-om_lim, +1))
        return Gamma1UnionGamma0()
    raise NotProperlyConverging("lam_k does not stabilize")


def limit_set_gamma2(seq: OrbitSequence) -> LimitSet:
    """Limit set of a degenerating sequence of TwoDim orbits.

    The generator yields (eps*rho_k, sigma) with rho_k > 0; the sequence
    converges properly iff rho_k -> 0, and its limit set is then the pair of
    half-line orbits with signs (eps, sigma) together with all characters.
    rho_k -> 0 is decided to `DEFAULT_TOL`.
    """
    if seq.kind != "Gamma2":
        raise ValueError("limit_set_gamma2 requires a Gamma2 sequence")
    ks = _tail_samples(seq.k_max)
    vals = [seq.generator(k) for k in ks]
    mus = [v[0] for v in vals]
    sigmas = {int(v[1]) for v in vals}
    if len(sigmas) != 1:
        raise NotProperlyConverging("sigma must be constant along the sequence")
    sigma = sigmas.pop()
    eps_signs = {1 if m > 0 else -1 for m in mus}
    if len(eps_signs) != 1:
        raise NotProperlyConverging("eps must be constant along the sequence")
    eps = eps_signs.pop()
    conv, lim = _tail_limit([abs(m) for m in mus], DEFAULT_TOL)
    if not conv or abs(lim) > DEFAULT_TOL:
        raise NotProperlyConverging("rho_k does not tend to 0")
    return Gamma1PairUnionGamma0(OneDim("X", eps), OneDim("Y", sigma))


def closure_gamma1(axis: str, sigma: int) -> Gamma1WithGamma0:
    """Closure of a half-line orbit: the orbit together with all characters."""
    return Gamma1WithGamma0(OneDim(axis, sigma))


def _orbit_distance_sq(rho_k: float, lam_k: float, target: DualVector):
    """f(x, y), the squared distance from `target` to the point (x, y) of the
    orbit Gen(rho_k, lam_k), and the Newton step of f at (x, y).

    With e = T*-residual, u = x/lam_k, v = y/lam_k and w = e/lam_k, half the
    gradient is (e*v + x - tX, e*u + y - tY) and half the Hessian is
    [[v^2 + 1, u*v + w], [u*v + w, u^2 + 1]].  The step -H^{-1} grad f is
    written with the u^2*v and u*v^2 products already cancelled, which keeps
    it accurate when lam_k is small and u, v are large.
    """
    tT, tX, tY, tZ = target
    om_k = rho_k * lam_k
    dZ2 = (lam_k - tZ) ** 2

    def f(x, y):
        e = (om_k + x * y) / lam_k - tT
        return e * e + (x - tX) ** 2 + (y - tY) ** 2 + dZ2

    def newton_step(x, y):
        e = (om_k + x * y) / lam_k - tT
        u, v, w = x / lam_k, y / lam_k, e / lam_k
        rx, ry = x - tX, y - tY
        s = u * rx - v * ry
        det = 1.0 + u * u + v * v - w * (2.0 * u * v + w)
        if not det > 0.0:  # H is not positive definite: take no step
            return 0.0, 0.0
        return (-(u * s + rx + e * (v - w * u) - w * ry) / det,
                -(ry - v * s + e * (u - w * v) - w * rx) / det)

    return f, newton_step


def _witness_guess(rho_k: float, lam_k: float, target: DualVector,
                   label: OrbitLabel) -> tuple[float, float]:
    """Closed-form near-optimal witness coordinates (x, y) on the moving orbit."""
    om_k = rho_k * lam_k
    p_needed = target.cT * lam_k - om_k  # xy solving the T*-coordinate match
    if isinstance(label, Gen):
        return target.cX, target.cY
    if isinstance(label, (TwoDim, OneDim)):
        if abs(target.cX) >= abs(target.cY):
            x0 = target.cX if target.cX != 0 else math.copysign(1.0, target.cX + 0.5)
            return x0, p_needed / x0
        y0 = target.cY
        return p_needed / y0, y0
    # Character target: vanish both coordinates at rate sqrt(|p_needed|)
    a = abs(p_needed)
    s = math.copysign(1.0, p_needed) if p_needed != 0 else 0.0
    return -math.sqrt(a), -s * math.sqrt(a)


def _labels_close(a: OrbitLabel, b: OrbitLabel, tol: float) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, TwoDim):
        return a.sigma == b.sigma and math.isclose(a.omega, b.omega, rel_tol=1e-6, abs_tol=tol)
    if isinstance(a, Gen):
        return (math.isclose(a.rho, b.rho, rel_tol=1e-6, abs_tol=tol)
                and math.isclose(a.lam, b.lam, rel_tol=1e-6, abs_tol=tol))
    if isinstance(a, OneDim):
        return a.axis == b.axis and a.sigma == b.sigma
    return math.isclose(a.tau, b.tau, rel_tol=1e-6, abs_tol=tol)


def witness_distance(seq: OrbitSequence, target: DualVector, k: int) -> float:
    """Euclidean distance from the k-th orbit of the sequence to `target`.

    The target must lie on an orbit of the sequence's limit set, its label
    and the limit set compared to `DEFAULT_TOL`; otherwise
    TargetNotInLimitSet is raised.  The distance is computed from a
    closed-form witness followed by a damped Newton descent over the orbit's
    free coordinates (x, y): a step is taken only when it lowers the squared
    distance, halving it up to `_HALVINGS` times, and the descent stops when
    no halving lowers it, so the result never exceeds the witness's distance.
    """
    if seq.kind != "Gamma3":
        raise ValueError("witness_distance requires a Gamma3 sequence")
    tol = DEFAULT_TOL
    label = classify_dual_vector(target, tol=tol)
    limits = limit_set_gamma3(seq)
    if isinstance(limits, SinglePoint):
        ok = _labels_close(label, limits.point, tol)
    elif isinstance(limits, TwoPoints):
        ok = _labels_close(label, limits.first, tol) or _labels_close(label, limits.second, tol)
    elif isinstance(limits, Gamma1UnionGamma0):
        ok = isinstance(label, (OneDim, Character))
    else:
        ok = False
    # Distance zero is always legitimate for a point of the moving orbit itself.
    rho_k, lam_k = seq.generator(k)
    if not ok and isinstance(label, Gen) and _labels_close(label, Gen(rho_k, lam_k), tol):
        ok = True
    if not ok:
        raise TargetNotInLimitSet(f"{label} is not in the limit set {limits}")

    f, newton_step = _orbit_distance_sq(rho_k, lam_k, target)
    x, y = _witness_guess(rho_k, lam_k, target, label)
    best = f(x, y)
    for _ in range(_NEWTON_ITERATIONS):
        dx, dy = newton_step(x, y)
        for _ in range(_HALVINGS):
            fx = f(x + dx, y + dy)
            if fx < best:
                break
            dx, dy = 0.5 * dx, 0.5 * dy
        else:
            break
        x, y, best = x + dx, y + dy, fx
    return math.sqrt(max(best, 0.0))
