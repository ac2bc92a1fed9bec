"""Stein / Ornstein-Uhlenbeck machinery for multivariate CLT discrepancies.

The library is organized bottom-up:

- ``rng``        counter-based reproducible random streams
- ``gaussian``   standard Normal density, Hermite derivatives, quantiles
- ``convex``     convex bodies, dilation/erosion, Gaussian measures, families
- ``semigroup``  the OU semigroup, generator and backward-equation checks
- ``stein``      inverse-generator solutions and their derivatives
- ``sources``    summand laws, moments, empirical discrepancies
- ``bounds``     theoretical right-hand sides, recursion certificate, scans
- ``cli``        seeded experiment drivers emitting CSV/JSON
"""

from .rng import RngStream
from .gaussian import (
    QuantileResult,
    abs_d3_integral,
    abs_hermite_moment,
    chi_cdf,
    d3_phi,
    hermite_he,
    hermite_kernel,
    norm_cdf,
    norm_pdf,
    phi,
    quantile_a,
    sample_std_normal,
)
from .convex import (
    Ball,
    Box,
    ConvexSet,
    DilatedSet,
    Ellipsoid,
    ErodedSet,
    HalfSpace,
    SetFamily,
    default_family,
    default_translates,
    family_from_config,
    family_to_config,
    gaussian_measure,
    gaussian_measure_estimate,
    load_family,
    save_family,
    shell_measure,
    shifted_measure_batch,
)
from .quadrature import QuadratureSpec, DEFAULT_QUAD
from .semigroup import (
    IndicatorFunction,
    SmoothFunction,
    TestFunction,
    backward_residual,
    gaussian_mean,
    generator_apply,
    has_analytic_smoothing,
    hermite_product_function,
    ou_decay,
    ou_noise,
    semigroup_apply,
    semigroup_derivative,
    semigroup_jet,
)
from .stein import (
    KernelBoundReport,
    SteinSolution,
    double_integral_kernel_report,
    laplacian_drift,
    psi,
    psi_d1,
    psi_d2,
    psi_d3,
    smoothed_target,
    smoothing_weight,
    stein_residual,
    weight1_integral_total,
    weight3_integral,
    weight_bound,
)
from .sources import (
    Estimate,
    MomentSummary,
    NonIIDSource,
    SourceDistribution,
    SteinDiscrepancyResult,
    delta_hat,
    exponential_source,
    gaussian_source,
    make_source,
    moment_summary,
    noniid_catalog,
    normalizer_matrix,
    rademacher_source,
    sample_sum,
    stein_discrepancy_hat,
    uniform_source,
)
from .bounds import (
    BoundReport,
    ConstantsConfig,
    DimScanReport,
    RecursionCertificate,
    SlopeFit,
    SmoothingParams,
    berry_esseen_bound,
    bound_report,
    certified_constant,
    dim_scan,
    gamma3_bound,
    gamma_star_hat,
    loglog_slope,
    noniid_bound,
    omega_star_hat,
    omega_star_ratio,
    optimal_t,
    recursion_bound,
    recursion_certify,
    recursion_step_bound,
    scaling_trend_ok,
    smoothed_discrepancy_bound,
    smoothing_bound,
)

__version__ = "0.8.0"
