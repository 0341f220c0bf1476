"""Stochastic Galerkin assembly and balanced truncation with an energy output."""

from .arnoldi import reduce_arnoldi
from .bt_quadratic import (
    BalancedFactorization,
    GramianRecord,
    ReducedModel,
    balance,
    gramian_cache,
    h2_error,
    truncate,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DefinitenessError,
    NumericalError,
    RankError,
    SpectralOverlapError,
    StabilityError,
)
from .galerkin import (
    GalerkinSystem,
    ParametricSecondOrderSystem,
    QuadraticOutputSystem,
    assemble,
    to_first_order,
)
from .msd import MsdConfig, build_msd, default_config
from .passivity import check_passivity, shifted_dissipation_certificate
from .polychaos import PcBasis, basis_size, multi_indices
from .simulate import default_input, integrate, verify_error_bound

__version__ = "0.1.0"

__all__ = [
    "reduce_arnoldi",
    "BalancedFactorization",
    "GramianRecord",
    "ReducedModel",
    "balance",
    "gramian_cache",
    "h2_error",
    "truncate",
    "ConfigError",
    "ConvergenceError",
    "DefinitenessError",
    "NumericalError",
    "RankError",
    "SpectralOverlapError",
    "StabilityError",
    "GalerkinSystem",
    "ParametricSecondOrderSystem",
    "QuadraticOutputSystem",
    "assemble",
    "to_first_order",
    "MsdConfig",
    "build_msd",
    "default_config",
    "check_passivity",
    "shifted_dissipation_certificate",
    "PcBasis",
    "basis_size",
    "multi_indices",
    "default_input",
    "integrate",
    "verify_error_bound",
]
