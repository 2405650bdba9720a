"""Identification rate-similarity curves and triangle-rule similarity query
schemes for Gaussian sources.  All rates are in bits (log base 2)."""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityViolation,
    DimensionMismatch,
    DomainError,
    IdqError,
    NonConvergence,
    NumericalUnderflow,
    TauOutOfRange,
    TooManyCodewords,
    UnsupportedModel,
)
from .idrate import (
    Curve,
    RateSimilarityPoint,
    id_curve_multivariate,
    id_point_multivariate,
    id_rate_iid,
    lc_delta_rate,
    similarity_limit,
    water_filling_point,
)
from .linalg import EigenPair, SymMatrix, jacobi_eigh, klt_forward, klt_inverse, toeplitz_covariance
from .simulator import (
    Codebook,
    QueryOutcome,
    Signature,
    assign_signature,
    component_scheme_pr_maybe,
    estimate_pr_maybe,
    query_decide,
    train_codebook,
)
from .sources import (
    Bernoulli,
    GaussMarkov,
    IidGaussian,
    MultivariateGaussian,
    Pmf,
    SpectralGrid,
    autocovariance,
    bernoulli_pmf,
    discretize_gaussian,
    discretize_mv_gaussian,
    psd_gauss_markov,
    sample_block,
    spectral_grid,
)
from .tcdelta import (
    Channel,
    DistortionMatrix,
    TcSolution,
    component_tc_curve,
    distortion_matrix,
    solve_tc_point,
    sweep_points,
    tc_curve,
    tc_sweep,
)
