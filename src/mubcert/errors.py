"""Exception types raised across the package."""


class MubCertError(Exception):
    """Base class for all package-specific errors."""


# -- linear algebra ----------------------------------------------------------

class NotHermitian(MubCertError):
    """Matrix fails the Hermiticity check at the requested tolerance."""


class NotPSD(MubCertError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NoConvergence(MubCertError):
    """Iterative eigensolver/SVD failed to converge."""


class DimensionMismatch(MubCertError):
    """Operands do not share a common dimension."""


# -- measurements ------------------------------------------------------------

class NotProjective(MubCertError):
    """Measurement effects are not rank-1 projectors."""


class NotMub(MubCertError):
    """Measurement pair is not mutually unbiased."""


# -- counts / estimation -----------------------------------------------------

class EmptyCell(MubCertError):
    """An input setting has no recorded detections."""


class CountsFormatError(MubCertError):
    """Counts document is malformed (bad header, indices, or duplicates)."""


# -- certification bounds ----------------------------------------------------

class BoundInapplicableInWindow(MubCertError):
    """Bound not applicable at the given success probability."""


class OutOfRange(BoundInapplicableInWindow):
    """Success probability outside the domain of the bound."""


class BelowThreshold(BoundInapplicableInWindow):
    """Success probability below the applicability threshold of the bound."""


class DenominatorNonpositive(MubCertError):
    """Incompatibility bound undefined: denominator is not positive."""


# -- interferometer simulation ----------------------------------------------

class ConfigError(MubCertError):
    """Interferometer configuration failed validation."""
