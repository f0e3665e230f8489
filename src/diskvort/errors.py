"""Exception types shared across the package."""


class UnsupportedOrderError(ValueError):
    """Bessel order or argument outside the supported range."""


class ZeroScanError(RuntimeError):
    """Sign-change scan for a Bessel zero exhausted its search window."""


class ResolutionError(ValueError):
    """Collocation grid too coarse for the requested spectral resolution."""


class CFLError(RuntimeError):
    """Time step too large for the current velocity field."""


class NonFiniteFieldError(FloatingPointError):
    """A field or a run diagnostic holds NaN or an infinity."""


class AscentError(RuntimeError):
    """A rearrangement ascent step decreased the energy."""


class ConfigError(ValueError):
    """Experiment configuration failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
