"""Operator fields over the spectrum and the quantitative limit checks.

An operator field assigns to every sampled point of the dual (a generic
point (rho, lam), a two-parameter point (mu, nu) in either the line or the
half-line model, or a character point tau) a kernel operator or a scalar.
The module builds the explicit approximations of a degenerating generic
representation out of the field's values on the limit set (the rescaled
half-line compressions for a nonzero flow invariant, and the three-zone
splitting when the invariant itself degenerates), the extension map that
turns a scalar field on the character line into operators at the half-line
points, the compact-defect condition at those points, and an aggregate
condition checker for membership in the limit C*-algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoidolError,
    MissingLimitPoint,
    NyquistViolation,
    PlanInfeasible,
    ZoneOverlap,
)
from .grids import GridSpec, QuadratureSpec
from .group import OneDim, TwoDim
from .kernels import (
    character_value,
    kernel_pi_ell,
    kernel_pi_rho_lambda,
    kernel_tau,
    vk_adjoint,
)
from .operators import (
    KernelOperator,
    compact_defect,
    cutoff_M,
    op_norm,
)
from .testfun import BumpFactor, TestFunction, bump_fourier, l1_norm_F1

__all__ = [
    "FieldGrids",
    "SpectrumSample",
    "default_sample",
    "ell_params",
    "OperatorField",
    "fourier_field",
    "zero_field",
    "product_field",
    "PowerSeq",
    "SequencePlan",
    "default_plan",
    "validate_plan",
    "sigma_k_omega",
    "s_k_zero",
    "sigma_k_zero",
    "deviation_rows",
    "zone_deviation_rows",
    "check_tail_cutoff",
    "check_small_zone",
    "check_rate_envelope",
    "check_dek_muk",
    "sigma0_apply",
    "compact_condition_check",
    "DstarConfig",
    "dstar_report",
    "tends_to_zero",
    "tamper_zero_two_dim_limits",
    "tamper_identity_at_half_line",
    "tamper_spike_on_characters",
]


# ---------------------------------------------------------------------------
# grids and spectrum samples


@dataclass(frozen=True)
class FieldGrids:
    """The discretizations shared by all field evaluations.

    lin carries the L^2(R) models (generic points and the (mu, nu) line
    model); pair is L^2(R, du/|u|) in log coordinates, the domain of V_k.
    `plus`, its plus half, is the one half-line grid: the minus half-line
    model at (mu, nu) has the kernel of the plus one at (mu, nu) on the same
    log nodes (`kernel_tau`), so a minus-half value is read as the plus grid
    at the mirrored parameters (-mu, -nu) of its plus-half partner, and a
    cutoff u <= -r on the minus half as u >= r on the plus grid.
    """

    lin: GridSpec
    pair: GridSpec

    @staticmethod
    def default(L: float = 12.0, n_lin: int = 512, V: float = 6.0,
                n_half: int = 384, scale: int = 1) -> "FieldGrids":
        return FieldGrids(GridSpec.linear(L * scale, n_lin * scale),
                          GridSpec.log_pair(V * scale, n_half * scale))

    @property
    def plus(self) -> GridSpec:
        return self.pair.parts[0]


@dataclass(frozen=True)
class SpectrumSample:
    """A finite, documented stand-in for the dual of the group."""

    gamma3: tuple
    gamma2: tuple
    gamma1: tuple
    gamma0: np.ndarray

    def __post_init__(self):
        for lab in self.gamma2:
            if not isinstance(lab, TwoDim):
                raise ValueError("gamma2 entries must be TwoDim labels")
        for lab in self.gamma1:
            if not isinstance(lab, OneDim):
                raise ValueError("gamma1 entries must be OneDim labels")


def default_sample(scale: int = 1) -> SpectrumSample:
    """The documented finite spectrum sample.

    The characters are sampled on [-16, 16] at 256 * scale + 1 points: the
    density follows the grid scale so that the extension-map kernels stay
    below the Nyquist limit of the line window.
    """
    gamma3 = tuple((rho, lam) for rho in (0.0, 0.5, 1.0, 2.0)
                   for lam in (0.5, 1.0, 2.0))
    gamma2 = tuple(TwoDim(om, sg) for om in (0.7, 1.3, -0.7) for sg in (1, -1))
    gamma1 = (OneDim("X", 1), OneDim("X", -1), OneDim("Y", 1), OneDim("Y", -1))
    gamma0 = np.linspace(-16.0, 16.0, 256 * scale + 1)
    return SpectrumSample(gamma3, gamma2, gamma1, gamma0)


def ell_params(label) -> tuple[float, float]:
    """The (mu, nu) representative of a TwoDim or OneDim label."""
    if isinstance(label, TwoDim):
        return (label.omega, float(label.sigma))
    if isinstance(label, OneDim):
        if label.axis == "X":
            return (float(label.sigma), 0.0)
        return (0.0, float(label.sigma))
    raise ValueError(f"no line-model parameters for {label!r}")


# ---------------------------------------------------------------------------
# operator fields


class OperatorField:
    """A lazily evaluated map from spectrum points to operators.

    Evaluation keys are tuples: ("pi", rho, lam, grid) and
    ("ell", mu, nu, grid) on linear grids, ("tau", mu, nu, grid) on log
    half-line grids, and ("char", tau) giving a complex scalar.  Every
    operator value is a `KernelOperator`: on the Fourier field a generic
    value is dense (n^2 complex entries) and an "ell" or "tau" value one
    near-convolution kernel, O(n): on the default grid 4 MiB against 12-16
    KiB.

    One retention rule: a field keeps its characters, complex scalars, and
    no operator, which its provider builds again on each read.  Only a
    `scope()` keeps operators.  A field is not thread-safe: it is read from
    one thread, as every command does.  A build that raises caches nothing.

    `flip_invariant` says that the field's values are invariant under the
    flip automorphism gamma(t, x, y, z) = (t, -x, -y, z): the value at
    (-mu, -nu) has the entries of the value at (mu, nu), bit for bit.
    `fourier_field` sets it when f o gamma == f, `scope()` and `adjoint()`
    keep it, and every other field leaves it false.  The conditions then
    measure one point of each mirrored pair (`_mirrored_once`).
    """

    def __init__(self, provider, provenance: str = "Synthetic", label: str = "field",
                 flip_invariant: bool = False):
        self._provider = provider
        self._cache: dict = {}
        self._keeps_operators = False  # set by `scope()` only
        self.provenance = provenance
        self.label = label
        self.flip_invariant = flip_invariant

    def at(self, key):
        if key[0] != "char" and not self._keeps_operators:
            return self._provider(key)
        cache = self._cache
        if key not in cache:
            cache[key] = self._provider(key)
        return cache[key]

    def pi(self, rho: float, lam: float, grid: GridSpec) -> KernelOperator:
        return self.at(("pi", float(rho), float(lam), grid))

    def ell(self, mu: float, nu: float, grid: GridSpec) -> KernelOperator:
        return self.at(("ell", float(mu), float(nu), grid))

    def tau(self, mu: float, nu: float, grid: GridSpec) -> KernelOperator:
        return self.at(("tau", float(mu), float(nu), grid))

    def char(self, tau: float) -> complex:
        return self.at(("char", float(tau)))

    def adjoint(self) -> "OperatorField":
        """The pointwise adjoint field.

        Each read takes the adjoint of the base's value
        (`KernelOperator.adjoint`, which reads a dense matrix as its adjoint
        without a copy and maps every other term, O(n)), or conjugates it at
        a character.  The adjoint of a scope's operator is taken from the
        operator the scope keeps, so it builds and copies nothing.
        """
        base = self

        def provider(key):
            val = base.at(key)
            return np.conj(val) if key[0] == "char" else val.adjoint()

        return OperatorField(provider, self.provenance, f"({self.label})*",
                             self.flip_invariant)

    def scope(self) -> "OperatorField":
        """A field that reads through this one and keeps every value it
        reads, operators included, for one reader: each key is built at
        most once while the scope lives, and its operators are freed with
        the scope.  A character is read through this field, which keeps it
        for every later reader.
        """
        out = OperatorField(self.at, self.provenance, self.label, self.flip_invariant)
        out._keeps_operators = True
        return out

    def tampered(self, transform, label: str = "tampered") -> "OperatorField":
        base = self

        def provider(key):
            return transform(key, base.at(key))

        return OperatorField(provider, "Synthetic", label)


def fourier_field(f: TestFunction) -> OperatorField:
    """The field of all representation images of one test function."""

    def provider(key):
        kind = key[0]
        if kind == "pi":
            _, rho, lam, grid = key
            return kernel_pi_rho_lambda(f, rho, lam, grid)
        if kind == "ell":
            _, mu, nu, grid = key
            return kernel_pi_ell(f, mu, nu, grid)
        if kind == "tau":
            _, mu, nu, grid = key
            return kernel_tau(f, mu, nu, grid)
        if kind == "char":
            return character_value(f, key[1])
        raise MissingLimitPoint(f"unknown evaluation key {key!r}")

    return OperatorField(provider, "FourierOf", "fourier", f.reflected() == f)


def zero_field() -> OperatorField:
    def provider(key):
        if key[0] == "char":
            return 0.0 + 0.0j
        grid = key[3]
        return KernelOperator.zero(grid)

    return OperatorField(provider, "Synthetic", "zero")


def product_field(a: OperatorField, b: OperatorField) -> OperatorField:
    """The pointwise product field phi(gamma) = a(gamma) o b(gamma)."""

    def provider(key):
        va, vb = a.at(key), b.at(key)
        if key[0] == "char":
            return va * vb
        return va @ vb

    return OperatorField(provider, "Synthetic", f"{a.label}.{b.label}")


def _mirrored_once(field: OperatorField, points, measure) -> list:
    """measure(*p) for each point p of `points`, in their order.

    A point is a tuple of floats that its negation carries to its image
    under the flip automorphism: (mu, nu) to (-mu, -nu), and the sign of the
    half-line it stands for (+1 plus, -1 minus), where there is one, to the
    other.  On a `flip_invariant` field the values at a point and at its
    mirror have the same entries, so a point whose mirror came earlier takes
    the mirror's number and nothing is built or measured for it.  On any
    other field every point is measured.
    """
    done = {}
    for p in points:
        mirror = tuple(-c for c in p)
        done[p] = (done[mirror] if field.flip_invariant and mirror in done
                   else measure(*p))
    return [done[p] for p in points]


# ---------------------------------------------------------------------------
# sequence plans


@dataclass(frozen=True)
class PowerSeq:
    """The closed-form sequence k -> coeff * k^exponent."""

    coeff: float
    exponent: float

    def __call__(self, k) -> float:
        return self.coeff * float(k) ** self.exponent

    def describe(self) -> dict:
        return {"coeff": self.coeff, "exponent": self.exponent}


def _describe_seq(seq) -> dict:
    if hasattr(seq, "describe"):
        return seq.describe()
    return {"repr": repr(seq)}


@dataclass(frozen=True)
class SequencePlan:
    """A degenerating parameter sequence with its auxiliary scale sequences.

    regime "OmegaNonzero": rho_k * lam_k has a nonzero limit omega and only
    R_k is needed.  regime "OmegaZero": the flow invariant itself tends to
    zero and the half-line is split into three zones by R_k, S_k, T_k.
    """

    regime: str
    eps: int
    rho: object
    lam: object
    Rk: object
    Sk: object = None
    Tk: object = None
    omega: float = 0.0
    k_max: int = 4096

    def omega_k(self, k) -> float:
        return self.rho(k) * self.lam(k)

    def w_k(self, k) -> float:
        """The unsigned invariant rho_k * |lam_k| (eps * omega_k)."""
        return self.rho(k) * abs(self.lam(k))

    def zones(self, k) -> tuple[float, float, float]:
        """The edges (r, s, t) of the three zones (r, s], (s, t] and (t, inf)
        of the plus half-line, which the minus half reads on the plus grid
        too (`s_k_zero`): r = R_k |lam_k|, s = |w_k| S_k and t = |w_k| T_k."""
        r = self.Rk(k) * abs(self.lam(k))
        aw = abs(self.w_k(k))
        s, t = aw * self.Sk(k), aw * self.Tk(k)
        if not (r < s < t):
            raise ZoneOverlap(f"zone edges out of order at k={k}: {r:.3g}, {s:.3g}, {t:.3g}")
        return r, s, t

    def describe(self) -> dict:
        out = {"regime": self.regime, "eps": self.eps, "omega": self.omega,
               "rho": _describe_seq(self.rho), "lambda": _describe_seq(self.lam)}
        return out


def _trend_samples(seq, k_max: int) -> list[float]:
    ks, k = [], 4
    while k <= k_max:
        ks.append(k)
        k *= 4
    return [float(seq(k)) for k in ks]


def _goes_to_zero(vals) -> bool:
    return abs(vals[-1]) < 0.2 * abs(vals[0]) or abs(vals[-1]) < 1e-12


def _goes_to_inf(vals) -> bool:
    return vals[-1] > 5.0 * vals[0] and vals[-1] > 1.0


def validate_plan(plan: SequencePlan) -> None:
    """Numerically re-verify the scale-sequence hypotheses on the horizon."""
    km = plan.k_max
    if plan.regime not in ("OmegaNonzero", "OmegaZero"):
        raise PlanInfeasible(f"unknown regime {plan.regime!r}")
    if plan.eps not in (1, -1):
        raise PlanInfeasible("eps must be +1 or -1")
    lam_tail = _trend_samples(plan.lam, km)
    if not _goes_to_zero(lam_tail):
        raise PlanInfeasible("lambda_k does not tend to 0")
    if not _goes_to_inf(_trend_samples(plan.Rk, km)):
        raise PlanInfeasible("R_k does not tend to infinity")
    if plan.regime == "OmegaNonzero":
        if abs(plan.omega) <= 0:
            raise PlanInfeasible("OmegaNonzero plan needs a nonzero omega")
        if not _goes_to_zero(_trend_samples(lambda k: plan.Rk(k) * abs(plan.lam(k)), km)):
            raise PlanInfeasible("R_k |lambda_k| does not tend to 0")
        if not _goes_to_inf(_trend_samples(lambda k: plan.Rk(k) ** 2 * abs(plan.lam(k)), km)):
            raise PlanInfeasible("R_k^2 |lambda_k| does not tend to infinity")
        return
    if plan.Sk is None or plan.Tk is None:
        raise PlanInfeasible("OmegaZero plan needs S_k and T_k")
    if not _goes_to_zero(_trend_samples(lambda k: plan.Rk(k) ** 2 * abs(plan.lam(k)), km)):
        raise PlanInfeasible("R_k^2 lambda_k does not tend to 0")
    if not _goes_to_zero(_trend_samples(
            lambda k: abs(plan.omega_k(k)) / (plan.Rk(k) ** 2 * abs(plan.lam(k))), km)):
        raise PlanInfeasible("omega_k / (R_k^2 lambda_k) does not tend to 0")
    if not _goes_to_inf(_trend_samples(plan.Sk, km)):
        raise PlanInfeasible("S_k does not tend to infinity")
    if not _goes_to_inf(_trend_samples(plan.Tk, km)):
        raise PlanInfeasible("T_k does not tend to infinity")
    if not _goes_to_zero(_trend_samples(lambda k: plan.Sk(k) / plan.Tk(k), km)):
        raise PlanInfeasible("S_k / T_k does not tend to 0")
    if not _goes_to_zero(_trend_samples(lambda k: abs(plan.w_k(k)) * plan.Tk(k), km)):
        raise PlanInfeasible("omega_k T_k does not tend to 0")
    k = 4
    while k <= km:
        if plan.Rk(k) > abs(plan.rho(k)) * plan.Sk(k) * (1 + 1e-12):
            raise PlanInfeasible(f"R_k > |rho_k| S_k at k={k}")
        plan.zones(k)
        k *= 2


def default_plan(regime: str, rho_seq, lambda_seq) -> SequencePlan:
    """Build the standard scale sequences for a parameter sequence, with the
    hypotheses checked up to k = 4^16."""
    k_max = 4 ** 16
    eps = 1 if lambda_seq(4) > 0 else -1
    om_far = rho_seq(k_max) * lambda_seq(k_max)
    om_mid = rho_seq(k_max // 2) * lambda_seq(k_max // 2)
    if regime == "OmegaNonzero":
        if abs(om_far - om_mid) > 1e-3 * max(1.0, abs(om_far)) or om_far == 0:
            raise PlanInfeasible("rho_k lambda_k does not settle at a nonzero omega")
        plan = SequencePlan(
            regime, eps, rho_seq, lambda_seq,
            Rk=lambda k: abs(lambda_seq(k)) ** (-2.0 / 3.0),
            omega=om_far, k_max=k_max)
        validate_plan(plan)
        return plan
    if regime != "OmegaZero":
        raise PlanInfeasible(f"unknown regime {regime!r}")
    if rho_seq(4) == 0:
        raise PlanInfeasible("OmegaZero plan needs rho_k != 0")
    bounded = abs(rho_seq(k_max)) <= 10.0 * max(1.0, abs(rho_seq(4)))
    if bounded:
        def Rk(k):
            return abs(lambda_seq(k)) ** (-1.0 / 3.0)
    else:
        def Rk(k):
            wk = abs(rho_seq(k) * lambda_seq(k))
            mk = min(wk ** -0.5 if wk > 0 else float(k), float(k))
            return math.sqrt(abs(rho_seq(k)) * mk)

    def Sk(k):
        return Rk(k) / abs(rho_seq(k)) + float(k) ** 0.25

    def Tk(k):
        wk = abs(rho_seq(k) * lambda_seq(k))
        return Sk(k) + math.sqrt(Sk(k) / wk)

    plan = SequencePlan(regime, eps, rho_seq, lambda_seq,
                        Rk=Rk, Sk=Sk, Tk=Tk, omega=0.0, k_max=k_max)
    validate_plan(plan)
    return plan


# ---------------------------------------------------------------------------
# the limit approximations


def _vk_halves(rho_k: float, lam_k: float,
               grids: FieldGrids) -> tuple[KernelOperator, KernelOperator]:
    """V_k's two sign halves (V+, V-), V_k = [V+ | V-], as their nonzero
    blocks.

    V+ maps a window of the plus half-line grid's cells into a window of
    the s > 0 linear cells, and V- maps the same window, read as the minus
    half's cells (`FieldGrids`), into the mirrored s < 0 window (see
    `vk_operator`).  V+ is the adjoint of `vk_adjoint`, which holds
    `vk_operator`'s own array, and V- is V+ with its rows reversed, a view:
    no copy of V_k is made.  Each row that reads V_k builds its own halves,
    and nothing keeps them after it.
    """
    plus = vk_adjoint(rho_k, lam_k, grids.lin, grids.pair).adjoint()
    rows, n = plus.codomain, grids.lin.n
    minus = KernelOperator(plus.domain,
                           grids.lin.window(n - rows.start - rows.n, n - rows.start),
                           plus.entries[::-1])
    return plus, minus


def _conjugated_to_line(pair, halves: tuple, grids: FieldGrids) -> KernelOperator:
    """V_k (b_plus + b_minus) V_k*, b_plus acting on the plus half-line model
    and b_minus on the minus one (both on the plus grid, `FieldGrids`),
    (b_plus, b_minus) = pair, as its thin factors, one sign half of V_k at a
    time (`halves`, from `_vk_halves`).

    The block of the two is diagonal in the sign of u, and V_k maps each sign
    of u to the same sign of s, so the result has two diagonal blocks and
    zeros elsewhere: V+ b_plus V+* on the s > 0 rows and columns V+ reaches,
    and V- b_minus V-* on the mirrored s < 0 ones.  Each is kept as the
    factors C = V b (`compose` of V_k's nonzero block of that sign with b's
    block on the log cells the half reaches, at most r x m = 256 x 228 on
    the default grid) and V itself, read as V* through products
    (`KernelOperator.product`).  b's other cells, which V_k never reaches,
    enter no product, of b only that block is made dense, and no n x n
    array is allocated.
    """
    plus, minus = (KernelOperator.product(v @ b.restricted(v.domain, v.domain), v.adjoint(),
                                          grids.lin, grids.lin)
                   for v, b in zip(halves, pair))
    return plus + minus


def _two_points(plan: SequencePlan, w: float) -> tuple:
    """The two limit points at invariant w as (mu, nu, half): (eps w, -eps)
    for the plus half-line and its flip mirror (-eps w, eps) for the minus
    one, each read on the plus grid (`FieldGrids`)."""
    eps = float(plan.eps)
    return ((eps * w, -eps, 1), (-eps * w, eps, -1))


def _beyond_cutoff(plan: SequencePlan, k: int, grids: FieldGrids) -> np.ndarray:
    """The cutoff to u >= R_k |lam_k| on the plus grid, which is also the
    minus half's cutoff to u <= -R_k |lam_k|, read on the plus grid."""
    r = plan.Rk(k) * abs(plan.lam(k))
    return cutoff_M(lambda u: u >= r, grids.plus)


def _two_point_pair(field: OperatorField, plan: SequencePlan, k: int, w: float,
                    grids: FieldGrids) -> tuple:
    """The half-line pair at invariant w (`_two_points`), both values cut
    by one mask (`_beyond_cutoff`)."""
    keep = _beyond_cutoff(plan, k, grids)
    return tuple(field.tau(mu, nu, grids.plus).masked(keep)
                 for mu, nu, _ in _two_points(plan, w))


def sigma_k_omega(field_on_L: OperatorField, k: int, plan: SequencePlan,
                  grids: FieldGrids) -> KernelOperator:
    """The rescaled two-point compression approximating a generic point.

    The field is evaluated at the two limit points of the sequence, each
    masked to the nodes beyond R_k |lam_k| on its half-line
    (`_two_point_pair` at |omega|), and the pair is conjugated back to the
    line by the rescaling unitary, one sign half of V_k at a time
    (`_conjugated_to_line`), which reads each limit value only on the
    block of log cells V_k reaches.
    """
    if plan.regime != "OmegaNonzero":
        raise ValueError("sigma_k_omega needs an OmegaNonzero plan")
    return _conjugated_to_line(
        _two_point_pair(field_on_L, plan, k, abs(plan.omega), grids),
        _vk_halves(plan.rho(k), plan.lam(k), grids), grids)


def s_k_zero(field_on_L: OperatorField, k: int, plan: SequencePlan,
             half: int, grids: FieldGrids) -> KernelOperator:
    """The three-zone approximation on one half-line model, on the plus grid.

    Zone one keeps the running two-parameter point, zone two the fully
    degenerate point, zone three the point displaced along the other axis.
    The minus half (`half` -1) reads the plus half's zones at the mirrored
    parameters (`FieldGrids`): its zone u in [-S, -R) is u in (R, S] there.
    The result is the sum of the three operators each masked to its zone,
    so each zone's columns are its operator's, and the columns outside the
    zones (|u| <= R_k |lam_k|) are exact zeros.  On the field's
    near-convolution values the sum is the three kernels, O(n), and only
    the blocks its readers compose are ever dense.  The zones (r, s], (s, t]
    and (t, inf) share no node, and `SequencePlan.zones` raises ZoneOverlap
    when their edges are out of order.
    """
    if plan.regime != "OmegaZero":
        raise ValueError("s_k_zero needs an OmegaZero plan")
    if half not in (1, -1):
        raise ValueError("half must be +1 or -1")
    wk, eps = plan.w_k(k), float(plan.eps)
    r, s, t = plan.zones(k)
    grid = grids.plus
    # zone three keeps the unit-displacement realization of the half-line
    # point: it is the one the rescaled generic operators actually approach
    pieces = [
        (field_on_L.tau(half * wk, 0.0, grid), lambda u: (u > r) & (u <= s)),
        (field_on_L.tau(0.0, 0.0, grid), lambda u: (u > s) & (u <= t)),
        (field_on_L.tau(0.0, -half * eps, grid), lambda u: u > t),
    ]
    one, two, three = (op.masked(cutoff_M(zone, grid)) for op, zone in pieces)
    return one + two + three


def sigma_k_zero(field_on_L: OperatorField, k: int, plan: SequencePlan,
                 grids: FieldGrids) -> KernelOperator:
    """Both three-zone halves conjugated back to the line, each by its own
    sign half of V_k (`_conjugated_to_line`), as thin factors.  Only each
    half's block on V_k's log window is made dense."""
    return _conjugated_to_line(
        (s_k_zero(field_on_L, k, plan, 1, grids), s_k_zero(field_on_L, k, plan, -1, grids)),
        _vk_halves(plan.rho(k), plan.lam(k), grids), grids)


# ---------------------------------------------------------------------------
# quantitative degeneration checks


def _plan_row(plan: SequencePlan, k: int) -> dict:
    return {"k": k, "rho_k": plan.rho(k), "lambda_k": plan.lam(k),
            "R_k": plan.Rk(k)}


def deviation_rows(field: OperatorField, plan: SequencePlan, ks,
                   grids: FieldGrids) -> list[dict]:
    """The deviations ||A_k - sigma_k|| of the generic operators, one row per k.

    A_k is the field's generic operator at (rho_k, lam_k) and sigma_k the
    limit approximation of the plan's regime: `sigma_k_omega` for
    "OmegaNonzero", `sigma_k_zero` for "OmegaZero".  Each row is the plan
    row of k with `value` the deviation and `bound` None.  A_k - sigma_k is
    A_k's entries minus sigma_k's thin factors, so `op_norm` takes it by
    products and no n x n array besides A_k exists.  sigma_k builds V_k's
    halves, and the row frees them with A_k when it ends.
    """
    # looked up here, not bound once, so a replaced module attribute is called
    sigma = sigma_k_omega if plan.regime == "OmegaNonzero" else sigma_k_zero

    def deviation(k):
        A = field.pi(plan.rho(k), plan.lam(k), grids.lin)
        return op_norm(A - sigma(field, k, plan, grids))

    return [{**_plan_row(plan, k), "value": deviation(k), "bound": None}
            for k in ks]


def zone_deviation_rows(field: OperatorField, plan: SequencePlan, ks,
                        grids: FieldGrids) -> list[dict]:
    """The half-line deviations from the three-zone approximation, per k.

    `dev_plus` is ||tau(w_k, -eps) - s_k(+1)|| on the positive half-line
    model and `dev_minus` ||tau(-w_k, eps) - s_k(-1)|| on the negative one,
    read on the plus grid at the mirrored parameters (`FieldGrids`), with
    s_k from `s_k_zero`; `value` is the larger of the two and `bound`
    None.  On the field's near-convolution values each difference is a
    difference of kernels, and `op_norm` reads it through FFTs, subtracting
    the column factors of kernels with one symbol: no n_half x n_half array
    is formed.  The minus half is the flip mirror of the plus half, so on a
    `flip_invariant` field `dev_minus` is `dev_plus` and its values are
    not built (`_mirrored_once`).
    """
    eps = float(plan.eps)
    rows = []
    for k in ks:
        wk = plan.w_k(k)

        def deviation(mu, nu, half):
            return op_norm(field.tau(mu, nu, grids.plus)
                           - s_k_zero(field, k, plan, half, grids))

        dev_p, dev_m = _mirrored_once(field, ((wk, -eps, 1), (-wk, eps, -1)), deviation)
        rows.append({**_plan_row(plan, k), "dev_plus": dev_p, "dev_minus": dev_m,
                     "value": max(dev_p, dev_m), "bound": None})
    return rows


def _generic_times_vk(A: KernelOperator, halves: tuple,
                      grids: FieldGrids) -> KernelOperator:
    """A V_k = [A V+ | A V-] on the window of the log pair that V_k's halves
    reach, as factors: each half is A's block of columns on the linear
    cells that half reaches (a view) times its nonzero block (`halves`, from
    `_vk_halves`), on that half's columns of the window.  V_k's zero
    columns would only append zero columns, which add nothing to a norm."""
    cells = halves[0].domain
    window = grids.pair.window(cells.start, cells.start + cells.n)
    plus, minus = (KernelOperator.product(
        A.restricted(v.codomain), v, window, grids.lin,
        cols=slice(i * cells.n, (i + 1) * cells.n)) for i, v in enumerate(halves))
    return plus + minus


def _compressed_norm_rows(field: OperatorField, plan: SequencePlan, ks,
                          grids: FieldGrids, region) -> list[dict]:
    """Rows of ||A_k V_k M||, A_k V_k (`_generic_times_vk`) masked to the
    nodes u of the log pair where `region(k, u)` holds, each with `bound`
    None.

    The mask is the column mask of A_k V_k's terms, so neither A_k V_k nor
    a masked copy of it or of V_k's block is formed, and `op_norm` takes
    the norm by products.  A row whose mask leaves V_k no column that meets
    A_k's nonzero columns reads exactly 0.0.  The generic operators are
    read from the field, so a `scope()` that has them builds none.
    """
    rows = []
    for k in ks:
        AV = _generic_times_vk(field.pi(plan.rho(k), plan.lam(k), grids.lin),
                               _vk_halves(plan.rho(k), plan.lam(k), grids), grids)
        M = cutoff_M(lambda u: region(k, u), AV.domain)
        rows.append({**_plan_row(plan, k), "value": op_norm(AV.masked(M)),
                     "bound": None})
    return rows


def check_tail_cutoff(field: OperatorField, plan: SequencePlan, ks,
                      grids: FieldGrids) -> list[dict]:
    """Norm of the generic operator beyond the rescaled tail cutoff |s| >= R_k."""
    return _compressed_norm_rows(field, plan, ks, grids,
                                 lambda k, u: np.abs(u) >= plan.Rk(k))


def check_small_zone(field: OperatorField, plan: SequencePlan, ks,
                     grids: FieldGrids) -> list[dict]:
    """Norm of the generic operator compressed to |s| <= R_k |lam_k|, each
    row with `bound` None: the report reads these rows beside the rate
    envelope of an "OmegaNonzero" plan, and no verdict reads their size."""
    return _compressed_norm_rows(
        field, plan, ks, grids, lambda k, u: np.abs(u) <= plan.Rk(k) * abs(plan.lam(k)))


def _half_deviation(A: KernelOperator, v: KernelOperator,
                    b: KernelOperator) -> KernelOperator:
    """A V - V b for one sign half V of V_k, given as its nonzero block, and
    b on that half's whole half-line model, as factors.

    A V is A's block of columns on the linear cells V reaches (a view) times
    V, on the log cells V reaches; V b is V times b's rows on those cells
    (that m x n_half block made dense), on the linear cells V reaches.
    """
    return (KernelOperator.product(A.restricted(v.codomain), v, b.domain, A.codomain)
            - KernelOperator.product(v, b.restricted(codomain=v.domain),
                                     b.domain, A.codomain))


def check_rate_envelope(field: OperatorField, plan: SequencePlan, ks,
                        grids: FieldGrids) -> dict:
    """Half-line deviations against the rate envelope, with a fitted constant.

    Part (a), `dev_a`, compares the generic operator on the positive
    half-line with the rescaled running two-parameter point there:
    ||A_k V+ - V+ tau(eps w_k, -eps) M||, with V+ the plus half of V_k and M
    the cutoff to u >= R_k |lam_k| (`_beyond_cutoff`).  Part (b), `dev_b`,
    mirrors it on the minus half, with V- and tau(-eps w_k, eps) under the
    same M, read on the plus grid (`FieldGrids`): the points are
    `_two_points` at w_k.  Each part is an operator from its own half-line
    model, so no product meets the other half's zero columns.  The part (b)
    of a `flip_invariant` field is its part (a), and is not measured
    (`_mirrored_once`).  The envelope |omega_k| / (R_k^2 |lam_k|) + 1/R_k
    majorizes both parts up to a constant fitted on the first two indices
    (`_rate_fit`).  The generic operators and the two half-line limit
    operators are read from the field, so a `scope()` that has them builds
    none.
    """
    if plan.regime != "OmegaNonzero":
        raise ValueError("check_rate_envelope needs an OmegaNonzero plan")
    rows = []
    for k in ks:
        rho_k, lam_k, wk = plan.rho(k), plan.lam(k), plan.w_k(k)
        A = field.pi(rho_k, lam_k, grids.lin)
        halves, keep = _vk_halves(rho_k, lam_k, grids), _beyond_cutoff(plan, k, grids)

        def deviation(mu, nu, half):  # one norm per sign half
            b = field.tau(mu, nu, grids.plus).masked(keep)
            return op_norm(_half_deviation(A, halves[0 if half > 0 else 1], b))

        dev_a, dev_b = _mirrored_once(field, _two_points(plan, wk), deviation)
        row = _plan_row(plan, k)
        row["envelope_unit"] = abs(wk) / (plan.Rk(k) ** 2 * abs(lam_k)) + 1.0 / plan.Rk(k)
        row["dev_a"], row["dev_b"] = dev_a, dev_b
        rows.append(row)
    return _rate_fit(rows)


# A verdict's statuses, best first; a composite verdict takes its worst part's.
_STATUSES = ("pass", "fail", "error")


def _verdict(*parts) -> dict:
    """The one verdict rule: the worst status of `parts`, each a bool (pass
    or fail), a verdict (its `status`) or a status ("error"), and "pass"
    with no parts; `passed` is status == "pass"."""
    status = max((p["status"] if isinstance(p, dict) else p if isinstance(p, str)
                  else "pass" if p else "fail" for p in parts),
                 key=_STATUSES.index, default="pass")
    return {"status": status, "passed": status == "pass"}


def _rate_fit(rows: list[dict]) -> dict:
    """The rate envelope's verdict on its rows (`check_rate_envelope`): C
    fitted on the first two, each row's `bound` set to 1.5 C times its
    envelope, passed when every later row is within its bound."""
    C = max(max(r["dev_a"], r["dev_b"]) / r["envelope_unit"] for r in rows[:2])
    for r in rows:
        r["bound"] = 1.5 * C * r["envelope_unit"]
    return {"rows": rows, "C": C,
            **_verdict(*(max(r["dev_a"], r["dev_b"]) <= r["bound"] for r in rows[2:]))}


def check_dek_muk(f: TestFunction, rho: float, lam: float,
                  grid: GridSpec) -> tuple[float, float]:
    """Deviation from the zero-frequency point against the moment bound."""
    measured = op_norm(kernel_pi_rho_lambda(f, rho, lam, grid)
                       - kernel_pi_rho_lambda(f, 0.0, lam, grid))
    return measured, abs(rho) * l1_norm_F1(f)


def tends_to_zero(values, ratio: float = 0.1, wiggle: float = 1.1) -> bool:
    """Decision rule for 'this sequence converges to zero'.

    Passes iff the last value is below ratio times the first (or absolutely
    negligible, at most 1e-10) and the sequence is eventually monotone up to
    the wiggle factor (monotone from its maximum onward, each step allowed
    1e-10 beyond it).
    """
    atol = 1e-10
    vals = [float(v) for v in values]
    if not vals:
        return False
    if vals[-1] > max(ratio * vals[0], atol):
        return False
    m = int(np.argmax(vals))
    return all(vals[i + 1] <= wiggle * vals[i] + atol
               for i in range(m, len(vals) - 1))


# ---------------------------------------------------------------------------
# the report's fixed thresholds

# 1: every far norm stays below this share of the reference norm
_FAR_FACTOR = 0.02
# 2a, 3a: the last step of a continuity ladder over these deltas stays
# within this share of the first
_LADDER_DELTAS = (0.4, 0.2, 0.1, 0.05)
_LADDER_RATIO = 0.35
# 3a: no step between neighbouring characters exceeds this share of max |psi|
_CHAR_JUMP = 0.15
# 2b, 3b, 3d: the compact defect beyond the rank budget stays below this
# (times the norm scale in 2b and 3b)
_COMPACT_TOL = 1e-3


def _rank_budget(grids: FieldGrids) -> int:
    """The rank budget of the compactness conditions: n/8 of the line grid."""
    return grids.lin.n // 8


# ---------------------------------------------------------------------------
# the extension map and the compact condition


# The extension map's product window q(x, y) = phi(x) phi(y) / Z, phi the
# unit bump on both axes and Z making the plane integral one; only its
# normalized Fourier transform enters the kernels.
_WINDOW = BumpFactor(0.0, 1.0)
_WINDOW_QUAD = QuadratureSpec(64)


def _qhat(alpha, beta):
    z = (bump_fourier(_WINDOW, 0.0, _WINDOW_QUAD)
         * bump_fourier(_WINDOW, 0.0, _WINDOW_QUAD))
    return (bump_fourier(_WINDOW, alpha, _WINDOW_QUAD)
            * bump_fourier(_WINDOW, beta, _WINDOW_QUAD)) / z


def _line_transform(psi: np.ndarray, taus: np.ndarray, grid: GridSpec) -> np.ndarray:
    """f at the 2n - 1 kernel shifts u_i - t_j = h (i - j) of the grid, f the
    inverse transform of the scalar field psi sampled at taus."""
    psi = np.asarray(psi, dtype=complex)
    taus = np.asarray(taus, dtype=float)
    if psi.shape != taus.shape:
        raise ValueError("psi and taus must have matching shapes")
    dtau = taus[1] - taus[0]
    if math.pi / dtau < 2.0 * grid.half_width:
        raise NyquistViolation(
            f"character sample spacing {dtau:.3g} cannot represent "
            f"shifts up to {2 * grid.half_width:.3g}")
    d = grid.weights[0] * np.arange(-(grid.n - 1), grid.n)
    return (dtau / (2.0 * math.pi)) * (np.exp(1j * np.outer(d, taus)) @ psi)


def sigma0_apply(psi: np.ndarray, taus: np.ndarray, target: tuple, grid: GridSpec, *,
                 f_d: np.ndarray = None) -> KernelOperator:
    """Extend a scalar field on the character line to a two-parameter point;
    the target is (mu, nu), as `ell_params` gives it for an orbit label.

    The kernel is f(u - t) qhat(mu e^t, nu e^(-t)) with f the inverse
    transform of the sampled scalar field and qhat the normalized transform
    of the fixed product window; the window factor tends to one in the
    non-degenerate direction, so the operator reproduces the convolution
    behaviour of the line model there.  f at the kernel shifts depends on
    psi, taus and the grid only, not on the target: a caller extending one
    field to several targets passes it as `f_d` (`_line_transform`), and
    it is computed here otherwise.
    """
    if f_d is None:
        f_d = _line_transform(psi, taus, grid)
    mu, nu = target
    t = grid.nodes
    qcol = _qhat(mu * np.exp(t), nu * np.exp(-t))
    # entry (i, j) is f_d[n - 1 + i - j] qcol[j], the Toeplitz of f_d reversed
    return KernelOperator.near_convolution(grid, ((1.0, f_d[::-1], qcol),),
                                         f"sigma0({mu},{nu})")


def compact_condition_check(field: OperatorField, taus: np.ndarray,
                            grids: FieldGrids) -> dict:
    """Compact-defect of field minus extension at the four half-line points;
    the extension's line transform is computed once for all four.

    X-1 and Y-1 are the flip mirrors of X+1 and Y+1, and the extension's
    window factor is even, so on a `flip_invariant` field their rows take
    the defects of X+1 and Y+1 and build nothing (`_mirrored_once`).
    """
    budget = _rank_budget(grids)
    psi = np.array([field.char(tau) for tau in taus])
    f_d = _line_transform(psi, taus, grids.lin)
    labels = (OneDim("X", 1), OneDim("X", -1), OneDim("Y", 1), OneDim("Y", -1))
    points = [ell_params(label) for label in labels]

    def defect(mu, nu):
        return compact_defect(field.ell(mu, nu, grids.lin)
                              - sigma0_apply(psi, taus, (mu, nu), grids.lin, f_d=f_d),
                              budget)

    rows = [{"axis": label.axis, "sigma": label.sigma, "mu": mu, "nu": nu,
             "defect": d, **_verdict(d < _COMPACT_TOL)}
            for label, (mu, nu), d in zip(labels, points,
                                          _mirrored_once(field, points, defect))]
    return {"rank_budget": budget, "tol": _COMPACT_TOL, "rows": rows, **_verdict(*rows)}


# ---------------------------------------------------------------------------
# tamperings (for falsification tests of the condition checker)


def tamper_zero_two_dim_limits(field: OperatorField, omega: float) -> OperatorField:
    """Zero out the half-line evaluations at the two-point limit set."""

    def transform(key, val):
        if key[0] == "tau" and abs(abs(key[1]) - abs(omega)) < 1e-9 \
                and abs(key[2]) == 1.0:
            return KernelOperator.zero(val.domain, val.codomain, val.label)
        return val

    return field.tampered(transform, "zeroed-two-dim-limits")


def tamper_identity_at_half_line(field: OperatorField) -> OperatorField:
    """Replace one half-line point of the line model by the identity."""

    def transform(key, val):
        if key[0] == "ell" and (key[1], key[2]) == (1.0, 0.0):
            return KernelOperator.identity(val.domain)
        return val

    return field.tampered(transform, "identity-at-half-line")


def tamper_spike_on_characters(field: OperatorField, at: float = 1.0) -> OperatorField:
    """Add a point discontinuity, half of |psi(0)|, to the scalar field on
    the character line."""

    def transform(key, val):
        if key[0] == "char" and abs(key[1] - at) < 1e-9:
            return val + 0.5 * abs(field.char(0.0))
        return val

    return field.tampered(transform, "spike-on-characters")


# ---------------------------------------------------------------------------
# the aggregate condition report


@dataclass(frozen=True)
class DstarConfig:
    grids: FieldGrids
    sample: SpectrumSample
    plans_omega: tuple = ()
    plans_zero: tuple = ()
    ks: tuple = (4, 8, 16, 32, 64)
    ks_tau: tuple = (4, 16, 64, 256, 1024, 4096, 4 ** 7, 4 ** 8, 4 ** 9, 4 ** 10)
    decay_ratio: float = 0.1
    slow_decay_ratio: float = 0.75
    wiggle: float = 1.1
    check_adjoint: bool = True


def _ladder(at, base: float) -> dict:
    """The continuity ladder ||at(base + d) - at(base)|| over the fixed
    deltas; it passes when its last step is within the ladder ratio of its
    first."""
    ref = at(base)
    values = [float(op_norm(at(base + d) - ref)) for d in _LADDER_DELTAS]
    return {"values": values, **_verdict(values[-1] <= max(_LADDER_RATIO * values[0], 1e-10))}


def _cond_vanishing(field, cfg) -> dict:
    g = cfg.grids
    ref = op_norm(field.pi(0.0, 1.0, g.lin))
    far = {
        "pi(48,1)": op_norm(field.pi(48.0, 1.0, g.lin)),
        "pi(64,1)": op_norm(field.pi(64.0, 1.0, g.lin)),
        "pi(0,3)": op_norm(field.pi(0.0, 3.0, g.lin)),
        "ell(16,1)": op_norm(field.ell(16.0, 1.0, g.lin)),
        "ell(1,16)": op_norm(field.ell(1.0, 16.0, g.lin)),
        "char(15)": abs(field.char(15.0)),
        "char(-15)": abs(field.char(-15.0)),
    }
    scale = max(ref, max(abs(field.char(t)) for t in (0.0, 1.0)), 1e-30)
    return {"reference": ref, "far_norms": far,
            **_verdict(*(v < _FAR_FACTOR * scale for v in far.values()))}


def _cond_continuity_gamma3(field, cfg) -> dict:
    g = cfg.grids
    out = {f"({rho0},{lam0})": _ladder(lambda rho: field.pi(rho, lam0, g.lin), rho0)
           for rho0, lam0 in ((0.0, 1.0), (1.0, 0.5))}
    return {"ladders": out, **_verdict(*out.values())}


def _cond_compact_gamma3(field, cfg) -> dict:
    g = cfg.grids
    budget = _rank_budget(g)
    rows = {}
    for rho, lam in ((0.0, 1.0), (2.0, 0.5), (1.0, 1.0)):
        A = field.pi(rho, lam, g.lin)
        scale = max(op_norm(A), 1e-30)
        d = compact_defect(A, budget)
        rows[f"pi({rho},{lam})"] = {"defect": d, "scale": scale,
                                    **_verdict(d < _COMPACT_TOL * scale)}
    return {"rank_budget": budget, "rows": rows, **_verdict(*rows.values())}


def _limit_scale(field: OperatorField, plan: SequencePlan, grids: FieldGrids) -> float:
    """The larger norm of the field's values at the two limit points of an
    "OmegaNonzero" plan (`_two_points` at |omega|), tau(eps |omega|, -eps)
    on the plus half-line model and its flip mirror tau(-eps |omega|, eps)
    on the minus one, both read on the plus grid (one norm on a
    `flip_invariant` field, `_mirrored_once`)."""
    return max(_mirrored_once(
        field, _two_points(plan, abs(plan.omega)),
        lambda mu, nu, half: op_norm(field.tau(mu, nu, grids.plus))))


def _two_point_table(plan: SequencePlan, rows: list[dict], limit_scale: float,
                     pi_first: float, cfg: DstarConfig) -> dict:
    """2c's table of one plan from its deviation rows, its `_limit_scale`
    and the norm of its first generic operator, `pi_first`.

    Besides the decay of the deviations, the norms must be consistent with
    norm convergence along the sequence: the field's values at the two limit
    points cannot vanish while the generic norms do not, so the limit scale
    is required to carry a definite fraction of the initial generic norm.
    """
    scale_ok = limit_scale >= 0.2 * pi_first
    return {"plan": plan.describe(), "rows": rows,
            "limit_scale": limit_scale,
            "pi_first": pi_first,
            "limit_scale_passed": bool(scale_ok),
            **_verdict(scale_ok, tends_to_zero([r["value"] for r in rows],
                                               cfg.decay_ratio, cfg.wiggle))}


def _cond_sigma_omega(field, cfg) -> dict:
    """Deviation from the two-point compression along each generic plan
    (`_two_point_table`)."""
    g = cfg.grids
    tables = []
    for plan in cfg.plans_omega:
        limit_scale = _limit_scale(field, plan, g)
        rows = deviation_rows(field, plan, cfg.ks, g)
        pi_first = op_norm(field.pi(rows[0]["rho_k"], rows[0]["lambda_k"], g.lin))
        tables.append(_two_point_table(plan, rows, limit_scale, pi_first, cfg))
    return {"tables": tables, **_verdict(*tables)}


def _converge_omega_table(field: OperatorField, plan: SequencePlan,
                          cfg: DstarConfig) -> dict:
    """2c's table of one plan with the tail, small-zone and rate-envelope
    rows beside it, computed one k at a time.

    Each k runs on its own `field.scope()` through its four rows
    (`deviation_rows`, `check_tail_cutoff`, `check_small_zone`,
    `check_rate_envelope`), each of which builds V_k's halves and frees
    them when it ends.  The scope is dropped before the next k, so at most
    one generic operator and one V_k are alive.  The first k's scope
    also gives `pi_first` and the `_limit_scale`; the verdicts are taken
    once from the collected rows, 2c's by `_two_point_table` and the rate
    fit by `_rate_fit`.  So every row and verdict is that of 2c and of the
    checks run on the whole of `cfg.ks`.
    """
    g = cfg.grids
    rows, tail, small, rate = [], [], [], []
    for k in cfg.ks:
        scope = field.scope()
        rows += deviation_rows(scope, plan, (k,), g)
        if len(rows) == 1:
            pi_first = op_norm(scope.pi(plan.rho(k), plan.lam(k), g.lin))
            limit_scale = _limit_scale(scope, plan, g)
        tail += check_tail_cutoff(scope, plan, (k,), g)
        small += check_small_zone(scope, plan, (k,), g)
        rate += check_rate_envelope(scope, plan, (k,), g)["rows"]
        del scope  # this k's operators go before the next k's
    table = _two_point_table(plan, rows, limit_scale, pi_first, cfg)
    fit = _rate_fit(rate)
    return {**table, "tail_rows": tail, "small_zone_rows": small,
            "rate_rows": fit["rows"], "rate_C": fit["C"], "rate_passed": fit["passed"],
            **_verdict(table, fit)}


def _cond_sigma_zero(field, cfg) -> dict:
    """Deviation from the three-zone construction along each degenerate plan.

    The error of this construction scales like a square root of the running
    invariant, so on the affordable index range it only shrinks by a modest
    factor; the check demands steady decrease at the slow ratio, while the
    fast quantitative decay is verified on the half-line models themselves
    (condition 3c), where far larger indices are cheap.
    """
    tables = []
    for plan in cfg.plans_zero:
        rows = deviation_rows(field, plan, cfg.ks, cfg.grids)
        tables.append({"plan": plan.describe(), "rows": rows,
                       **_verdict(tends_to_zero([r["value"] for r in rows],
                                                cfg.slow_decay_ratio, cfg.wiggle))})
    return {"tables": tables, **_verdict(*tables)}


def _cond_continuity_low(field, cfg) -> dict:
    g = cfg.grids
    ladders = {f"two-dim({om0})": _ladder(lambda om: field.ell(om, 1.0, g.lin), om0)
               for om0 in (0.7, 1.3)}
    taus = cfg.sample.gamma0
    psi = np.array([field.char(t) for t in taus])
    steps = np.abs(np.diff(psi))
    scale = max(float(np.max(np.abs(psi))), 1e-30)
    char_ok = bool(np.max(steps) <= _CHAR_JUMP * scale)
    return {"ladders": ladders,
            "char_max_step": float(np.max(steps)), "char_scale": scale,
            "char_passed": char_ok, **_verdict(char_ok, *ladders.values())}


def _cond_compact_gamma2(field, cfg) -> dict:
    """The compact defect of each sampled two-dimensional point against the
    norm at the first one.  On a `flip_invariant` field a point whose
    mirror (-mu, -nu) was sampled earlier takes its defect
    (`_mirrored_once`): ell(-0.7, -1) and ell(-0.7, 1) on the default
    sample."""
    g = cfg.grids
    budget = _rank_budget(g)
    scale = None

    def defect(mu, nu):
        nonlocal scale
        A = field.ell(mu, nu, g.lin)
        if scale is None:  # the norm at the first sampled point
            scale = max(op_norm(A), 1e-30)
        return compact_defect(A, budget)

    points = [ell_params(lab) for lab in cfg.sample.gamma2]
    rows = {f"ell({mu},{nu})": {"defect": d, **_verdict(d < _COMPACT_TOL * scale)}
            for (mu, nu), d in zip(points, _mirrored_once(field, points, defect))}
    return {"rank_budget": budget, "rows": rows, **_verdict(*rows.values())}


def _cond_two_dim_degeneration(field, cfg) -> dict:
    """Half-line degeneration toward the three zones, each half on its own."""
    tables = []
    for plan in cfg.plans_zero:
        rows = zone_deviation_rows(field, plan, cfg.ks_tau, cfg.grids)
        tables.append({"plan": plan.describe(), "rows": rows, **_verdict(*(
            tends_to_zero([r[half] for r in rows], cfg.decay_ratio, cfg.wiggle)
            for half in ("dev_plus", "dev_minus")))})
    return {"tables": tables, **_verdict(*tables)}


def _cond_compact_condition(field, cfg) -> dict:
    return compact_condition_check(field, cfg.sample.gamma0, cfg.grids)


# Conditions whose every number is the same for the adjoint field: they read
# only operator norms of values and of differences of values, singular
# values, and |psi|, and sigma(A*) = sigma(A), |conj(psi)| = |psi|.
_ADJOINT_INVARIANT_CHECKS = (
    ("1_vanishing_at_infinity", _cond_vanishing),
    ("2a_continuity_generic", _cond_continuity_gamma3),
    ("2b_compact_generic", _cond_compact_gamma3),
    ("3a_continuity_lower", _cond_continuity_low),
    ("3b_compact_two_dim", _cond_compact_gamma2),
)
# Conditions that compare the field with an operator built from its values
# (the limit constructions, with cutoffs on one side, and the extension
# map); these constructions do not commute with the adjoint.
_ADJOINT_SENSITIVE_CHECKS = (
    ("2c_two_point_limit", _cond_sigma_omega),
    ("2d_three_zone_limit", _cond_sigma_zero),
    ("3c_two_dim_degeneration", _cond_two_dim_degeneration),
    ("3d_compact_condition", _cond_compact_condition),
)


def _condition(fn, field: OperatorField, cfg: DstarConfig) -> dict:
    """One condition's result; a package error (`BoidolError`) or a failed
    LAPACK call (`LinAlgError`) is recorded under its `error` key, with
    status "error", and any other exception is a bug, and propagates."""
    try:
        return fn(field, cfg)
    except (BoidolError, np.linalg.LinAlgError) as exc:  # aggregated
        return {**_verdict("error"), "error": f"{type(exc).__name__}: {exc}"}


def dstar_report(field: OperatorField, cfg: DstarConfig, *, _checks=None) -> dict:
    """Aggregate pass/fail report for the limit C*-algebra conditions.

    Conditions: (1) vanishing at infinity; (2a) norm continuity on the
    generic stratum; (2b) compactness there; (2c) convergence to the
    rescaled two-point compression; (2d) convergence to the three-zone
    construction; (3a) continuity on the lower strata; (3b) compactness on
    the two-dimensional stratum; (3c) half-line degeneration of the
    two-dimensional points; (3d) the compact condition.  The conditions are
    listed by name.  A package error or a failed LAPACK call in a condition
    is recorded as its `error`, with status "error" (`_condition`), and the
    other conditions still run.  Every verdict, of a row, a table, a
    condition or the report, is `_verdict` of its parts: its status is the
    worst of theirs.

    (4) repeats the suite for the adjoint field, as the nine verdicts (their
    `passed`) and the worst of them.  Only 2c, 2d, 3c and 3d are recomputed
    on the adjoint: 1, 2a, 2b, 3a and 3b read only norms, singular values
    and |psi|, which the adjoint leaves unchanged, so their verdicts are
    taken from the primal pass.

    Each of 2c, 2d, 3c and 3d runs on its own `field.scope()`, which keeps
    the operators the condition reads again, and its adjoint runs straight
    after it on the scope's `adjoint()`, which reads the adjoint of the
    scope's operators without a copy and so builds nothing.  The scope is
    dropped before the next condition, so the operators held at once are
    those of one condition, never of all four; the half-line values that 2d
    and 3c both read (5 on the default config) are built twice.  Conditions 1,
    2a, 2b, 3a and 3b run on `field` itself, which keeps no operator: each
    value they read again (pi(0, 1) in 1, 2a and 2b; ell(0.7, 1) and
    ell(1.3, 1) in 3a and 3b) is built again.  The characters, which 3d
    and 3a both read, stay in the field, so after the report the field
    holds only characters.

    Every half-line value, of either half, is read on the plus grid, the
    minus half at the mirrored parameters (`FieldGrids`).  On a
    `flip_invariant` field, such as the Fourier field of the default test
    function, 2c's limit scale, 3b, 3c and 3d measure one point of each
    flip-mirrored pair and report its number for the mirror too
    (`_mirrored_once`): 3c builds no value of the minus half, 3d takes 2
    of its 4 compact defects and 3b 4 of its 6.  The two points' values
    have the same entries, so every row, key and number is the one
    measuring both gives.

    Each adjoint run is a nested call restricted to its condition:
    `_checks` is that restriction, run on the given field itself with no
    scope and no adjoint pass.  The nested call keeps the adjoint pass a
    `dstar_report` call of its own, which the benchmark tracer times.
    """
    conditions, adjoint = {}, {}
    if _checks is not None:
        for name, fn in _checks:
            conditions[name] = _condition(fn, field, cfg)
    else:
        for name, fn in _ADJOINT_SENSITIVE_CHECKS:
            scope = field.scope()
            conditions[name] = _condition(fn, scope, cfg)
            if cfg.check_adjoint:
                adjoint[name] = dstar_report(scope.adjoint(), cfg, _checks=(
                    (name, fn),))["conditions"][name]
            del scope  # its operators go before the next condition's
        for name, fn in _ADJOINT_INVARIANT_CHECKS:
            conditions[name] = _condition(fn, field, cfg)
    conditions = dict(sorted(conditions.items()))
    if cfg.check_adjoint and _checks is None:
        parts = {k: adjoint.get(k, v) for k, v in conditions.items()}
        conditions["4_adjoint"] = {**_verdict(*parts.values()),
                                   "conditions": {k: v["passed"] for k, v in parts.items()}}
    return {"field": field.label, "provenance": field.provenance,
            "conditions": conditions, **_verdict(*conditions.values())}
