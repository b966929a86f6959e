"""Numerical operator fields over the unitary dual of Boidol's group.

The package realizes the group C*-algebra concretely: exact group and
coadjoint-orbit arithmetic, discretized representation kernels, rescaling
unitaries along degenerating parameter sequences, quantitative operator-norm
convergence checks, and an aggregate membership report for the limit algebra
of operator fields.
"""

from .errors import (
    AsymmetricGrid,
    BoidolError,
    MissingLimitPoint,
    NonFiniteOperator,
    NotProperlyConverging,
    NyquistViolation,
    PlanInfeasible,
    QuadratureUnderresolved,
    TargetNotInLimitSet,
    WindowTooSmall,
    ZoneOverlap,
)
from .grids import GridSpec, QuadratureSpec
from .group import (
    Character,
    DualVector,
    Gen,
    GroupElement,
    OneDim,
    TwoDim,
    automorphism_gamma,
    classify_dual_vector,
    group_inv,
    group_mul,
    orbit_point,
)
from .orbits import (
    AtInfinity,
    Gamma1PairUnionGamma0,
    Gamma1UnionGamma0,
    Gamma1WithGamma0,
    OrbitSequence,
    SinglePoint,
    TwoPoints,
    closure_gamma1,
    limit_set_gamma2,
    limit_set_gamma3,
    witness_distance,
)
from .testfun import (
    BumpFactor,
    SeparableTerm,
    TestFunction,
    default_test_function,
    l1_norm_F1,
)
from .operators import (
    IntervalSpec,
    KernelOperator,
    compact_defect,
    cutoff_M,
    flip_S,
    load_operator,
    op_norm,
    save_operator,
)
from .kernels import (
    character_value,
    kernel_pi_ell,
    kernel_pi_rho_lambda,
    kernel_tau,
    vk_adjoint,
    vk_operator,
)
from .fields import (
    DstarConfig,
    FieldGrids,
    OperatorField,
    PowerSeq,
    SequencePlan,
    SpectrumSample,
    check_dek_muk,
    check_rate_envelope,
    check_small_zone,
    check_tail_cutoff,
    compact_condition_check,
    default_plan,
    default_sample,
    deviation_rows,
    dstar_report,
    ell_params,
    fourier_field,
    product_field,
    s_k_zero,
    sigma0_apply,
    sigma_k_omega,
    sigma_k_zero,
    tamper_identity_at_half_line,
    tamper_spike_on_characters,
    tamper_zero_two_dim_limits,
    tends_to_zero,
    validate_plan,
    zero_field,
    zone_deviation_rows,
)

__version__ = "0.1.0"
