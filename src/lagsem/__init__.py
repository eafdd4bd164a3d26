"""Laguerre semigroup kernels, critical-scale geometry, Gaussian bound
fitting, Hardy/BMO machinery, and a verification harness."""

__version__ = "0.1.0"

from .special import (
    MultiOrder,
    ive,
    laguerre_function,
    laguerre_function_table,
)
from .grids import Grid, GridFunction, QuadAxis, gauss_legendre_axis
from .heat import (
    delta_kernel,
    delta_kernel_1d,
    kernel_1d_closed,
    kernel_1d_raw,
    kernel_nd,
    kernel_spectral,
)
from .critical import (
    Ball,
    Covering,
    build_covering,
    check_slow_variation,
    rho,
    rho_axis,
)
from .bounds import (
    BoundFamily,
    BoundFitReport,
    fit_gaussian_bound,
    minimal_decay_constant,
    standard_bound_suite,
)
from .operators import (
    SpectralCoefficients,
    analyze,
    eigenvalue_array,
    maximal_function,
    riesz_heat_composite_kernel,
    riesz_kernel,
    riesz_multiplier,
    riesz_spectral,
    semigroup_apply,
    square_function,
    synthesize,
    verify_cz_smoothness,
)
from .hardy import (
    Atom,
    BmoReport,
    NormReport,
    bmo_norm,
    check_atom,
    duality_pairing,
    hardy_norm_maximal,
    minimizing_polynomial,
    moment_degree,
    random_atom,
)
from .config import ConfigError, SuiteConfig
from .reports import CheckResult, SuiteReport
from .suites import SUITE_NAMES, run_suite

__all__ = [
    "__version__",
    "MultiOrder",
    "ive",
    "laguerre_function",
    "laguerre_function_table",
    "Grid",
    "GridFunction",
    "QuadAxis",
    "gauss_legendre_axis",
    "delta_kernel",
    "delta_kernel_1d",
    "kernel_1d_closed",
    "kernel_1d_raw",
    "kernel_nd",
    "kernel_spectral",
    "Ball",
    "Covering",
    "build_covering",
    "check_slow_variation",
    "rho",
    "rho_axis",
    "BoundFamily",
    "BoundFitReport",
    "fit_gaussian_bound",
    "minimal_decay_constant",
    "standard_bound_suite",
    "SpectralCoefficients",
    "analyze",
    "eigenvalue_array",
    "maximal_function",
    "riesz_heat_composite_kernel",
    "riesz_kernel",
    "riesz_multiplier",
    "riesz_spectral",
    "semigroup_apply",
    "square_function",
    "synthesize",
    "verify_cz_smoothness",
    "Atom",
    "BmoReport",
    "NormReport",
    "bmo_norm",
    "check_atom",
    "duality_pairing",
    "hardy_norm_maximal",
    "minimizing_polynomial",
    "moment_degree",
    "random_atom",
    "ConfigError",
    "SuiteConfig",
    "CheckResult",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
]
