"""Exception types raised by the numerical routines and the config readers."""


class NumericalError(RuntimeError):
    """Base class for failures of the matrix-equation and reduction routines."""


class StabilityError(NumericalError):
    """A coefficient matrix is not asymptotically stable where stability is required."""


class ConvergenceError(NumericalError):
    """An iteration did not converge, or a computed solution failed its residual verification."""


class SpectralOverlapError(NumericalError):
    """Sylvester operands, or the coefficient of a Lyapunov equation (the Sylvester
    equation with F = A), have (numerically) overlapping mirrored spectra."""


class DefinitenessError(NumericalError):
    """A matrix violates a required definiteness assumption."""


class RankError(ValueError):
    """Requested reduced dimension exceeds the numerical rank available."""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment or model configuration."""
