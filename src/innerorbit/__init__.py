"""innerorbit: constructive orbit machinery for inner functions on the polydisk.

Automorphism algebra in normal form, composition operators on the ball of
bounded holomorphic functions, inner-function diagnostics, Schur-projected
generating families pinned at distinguished-boundary points, and a staged
engine that builds a finite product whose orbit under a
boundary-concentrating automorphism sequence approximates prescribed
targets on compact probes.
"""

__version__ = "0.1.0"

from .automorphisms import (
    ExplicitSequence,
    GeneratedSequence,
    MobiusFactor,
    PolydiskAutomorphism,
    SubsequenceSelection,
    auto_compose,
    auto_eval,
    auto_inverse,
    mobius_compose,
    mobius_eval,
    mobius_inverse,
    normalize_angle,
    select_subsequence,
)
from .engine import (
    EngineConfig,
    StageRecord,
    UniversalityRun,
    build_factor,
    choose_stage_index,
    project_to_family,
    run_universality,
    verify_orbit,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySelection,
    EvaluationOutsideDomain,
    InnerOrbitError,
    InterferenceBudgetExceeded,
    NoBoundaryConvergence,
    ParseError,
    PinNotUnimodular,
    PoleHit,
    ProjectionFailed,
    RadiusOnZeroModulus,
    RootFindFailure,
    SchurParameterOutOfDisk,
    SequenceExhausted,
    UnsupportedTargetShape,
    ValidityError,
)
from .geometry import (
    COMetric,
    CompactProbe,
    CPoint,
    PointAxes,
    TorusPoint,
    default_points_per_dim,
    metric_distance,
    probe_sup,
)
from .holo import (
    BlaschkeFactor,
    Composed,
    CompositionOperator,
    Constant,
    Coordinate,
    HoloFunction,
    Power,
    Product,
    apply_operator,
    evaluate,
    flatten,
    is_blaschke_type,
    product_of,
    pullback,
    taylor_coeffs,
)
from .inner_tools import (
    GeneratingElement,
    GoodInnerReport,
    RadialReport,
    good_inner_integral,
    good_inner_integral_detail,
    good_inner_trend,
    jensen_oracle,
    make_corrector,
    make_generating_element,
    radial_modulus_report,
    schur_parameters,
    schur_project,
    schur_project_adaptive,
)
from .dsl import parse_function_dsl, serialize_automorphism, serialize_function

__all__ = [name for name in dir() if not name.startswith("_")]
