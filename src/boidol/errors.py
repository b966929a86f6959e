"""Exception types shared across the package."""


class BoidolError(Exception):
    """Base class for all package-specific errors."""


class NotProperlyConverging(BoidolError):
    """The diagnostic scalars of an orbit sequence do not stabilize."""


class TargetNotInLimitSet(BoidolError):
    """A witness distance was requested for a target outside the limit set."""


class QuadratureUnderresolved(BoidolError):
    """A quadrature rule is too coarse for the requested integrand."""


class WindowTooSmall(BoidolError):
    """A truncation window misses a non-negligible part of the mass."""


class AsymmetricGrid(BoidolError):
    """An operation requiring a symmetric grid received an asymmetric one."""


class MissingLimitPoint(BoidolError):
    """An operator field lacks a required evaluation point."""


class ZoneOverlap(BoidolError):
    """Derived cutoff zones are not disjoint (plan violation)."""


class PlanInfeasible(BoidolError):
    """A sequence plan violates one of its defining limit conditions."""


class NonFiniteOperator(BoidolError):
    """An operator handed to a norm or singular-value routine holds a NaN or inf."""


class NyquistViolation(BoidolError):
    """A sampled scalar field is too coarse for inverse Fourier synthesis."""
