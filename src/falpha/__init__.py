"""Numerical calculus on fractal subsets of the real line.

Mass functions and integral staircases of fractional order, dimension
estimation, staircase-weighted integration and differentiation, closed
forms on the middle-thirds set, and two worked physics models.
"""

from falpha._backend import BACKEND as kernel_backend
from falpha.calculus import (
    FOnF,
    IntegralResult,
    DerivativeResult,
    check_f_continuity,
    derivative,
    integrate,
    sup_inf_on,
    upper_lower_sums,
)
from falpha.cantor import (
    ALPHA,
    GAMMA_ALPHA1,
    cantor_staircase_exact,
    g_series,
    power_rule_derivative,
    power_rule_integral,
    staircase_power_bounds,
)
from falpha.dimension import (
    DimensionReport,
    box_dimension,
    gamma_dimension,
    similarity_order,
)
from falpha.mass import (
    MassEstimate,
    StaircaseEvaluator,
    coarse_mass,
    mass,
    sigma_alpha,
    staircase,
    verify_scaling_translation,
)
from falpha.physics import (
    DiffusionParams,
    FrictionParams,
    diffusion_density,
    diffusion_residual,
    diffusion_variance,
    friction_velocity,
    time_of_flight,
)
from falpha.sets import (
    Affine,
    FinitePoints,
    FullInterval,
    GapIFS,
    HarmonicCluster,
    Interval,
    Scale,
    SetSpec,
    Subdivision,
    TernaryCantor,
    Translate,
    gaps,
    intersects,
    is_point_of_change,
    net,
    spec_from_json,
    spec_to_json,
)

__version__ = "0.1.0"
