"""Interval calculus with the generalized Hukuhara difference.

Compact-interval arithmetic, interval vectors, interval-valued functions
with gH-derivatives, sampled subdifferential regions, and grid-based
interval optimization with a scalarized descent heuristic.
"""

from .errors import (
    CandidateNotSubgradient,
    DimensionMismatch,
    EmptySubdifferentialEncountered,
    GhcalcError,
    InvalidInterval,
    LengthMismatch,
    MalformedNormIvf,
    MaxNotAttained,
    NonConvexObjective,
    NonDegenerateRealNode,
    NonFiniteDerivative,
    OutOfDomain,
    OverlappingPieces,
    ParseError,
    PiecewiseCoverageError,
    ZeroInDenominator,
)
from .expr import Expr, parse_expr
from .interval import (
    ZERO,
    Dominance,
    Interval,
    compare,
    dominates,
    gh_diff,
    strictly_dominates,
)
from .iop import (
    DescentResult,
    EfficiencyReport,
    Iop,
    efficient_on_grid,
    optimality_nprec_condition,
    optimality_zero_condition,
    scalarized_descent,
)
from .ivector import (
    IVector,
    Star,
    WMapConfig,
    dot,
    gh_distance,
    vec_leq,
    vec_norm,
    vec_op,
    w_map,
)
from .ivf import (
    Grid,
    Ivf,
    directional_gh_derivative,
    gh_derivative_1d,
    gh_gradient,
    is_convex_sampled,
    is_gh_continuous_at,
    lipschitz_estimate,
    partial_gh_derivative,
)
from .subgrad import (
    LinearIvf,
    SubdiffRegion1D,
    SubgradientCandidate,
    chain_rule_transport,
    check_singleton_at_differentiable,
    directional_max_check,
    is_subgradient,
    is_subgradient_strict_variant,
    lipschitz_from_subgradients_check,
    norm_ball_membership_check,
    operator_norm,
    subdiff_scan_1d,
    sum_rule,
    union_boundedness_probe,
)

__version__ = "0.1.0"
