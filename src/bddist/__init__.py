"""Distance-based estimation and inference for boundary discontinuity designs.

Per-boundary-point treatment effect estimates from one-sided local
polynomial fits on the signed distance score, pointwise confidence
intervals, simulated uniform confidence bands, bandwidth selection rules,
exact bias oracles, and a Monte Carlo coverage harness.
"""

from .bandwidth import (
    BandwidthRule,
    Fixed,
    KinkAdaptive,
    MsePilot,
    RuleOfThumb,
    candidate_bandwidths,
    data_diameter,
    kink_adaptive_bandwidth,
    mse_pilot_bandwidth,
    mse_pilot_objectives,
    resolve_bandwidths,
    rot_bandwidth,
    rot_bandwidth_from_scale,
    rot_scale,
    univariate_rescale,
)
from .covariance import (
    CovarianceSurface,
    build_surface,
    regularize_correlation,
)
from .data import Sample
from .errors import (
    BandwidthSelectionError,
    BddistError,
    DataParseError,
    DataSchemaError,
    DegenerateVarianceError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidInputError,
    InvalidLevelError,
    InvalidPairingError,
    NoMassError,
    QuadratureError,
    SingularGramError,
    SingularSystemError,
)
from .geometry import (
    AssignmentRule,
    BoundaryPolyline,
    EvalGrid,
    PolygonRule,
    QuadrantRule,
    detect_kinks,
    distance,
    load_boundary,
    make_grid,
    signed_distances,
)
from .inference import (
    BandResult,
    BoundaryLengthWarning,
    Estimate,
    estimate,
    normal_quantile,
    pointwise_ci,
    uniform_band,
    uniform_quantile,
)
from .kernels import (
    DEFAULT_KERNEL,
    FAMILIES,
    kernel_eval,
    kh_weight,
)
from .locpoly import (
    GramMatrix,
    PointFit,
    SideFit,
    fit_grid,
    fit_point,
    scaled_basis,
)
from .oracle import (
    ArcScene,
    admissible_arcs,
    bias_functionals,
    corner_example_theta,
    fixed_h_bias,
    induced_theta,
    population_tau,
)
from .simulation import (
    DgpSpec,
    McPointRow,
    McReport,
    beta_variates,
    default_dgp,
    draw_sample,
    gamma_variates,
    run_monte_carlo,
)

__version__ = "0.1.0"
