"""Exception types shared across the package."""


class HoldLabError(Exception):
    """Base class for package-specific failures."""


class InvalidOrderError(HoldLabError, ValueError):
    """Model order outside the supported range."""


class NotCriticallyDampedError(HoldLabError, ValueError):
    """Drift matrix is not nilpotent after the repeated-eigenvalue shift."""


class NotPositiveSemidefiniteError(HoldLabError, ValueError):
    """Covariance could not be factored even after diagonal flooring."""


class PoleError(HoldLabError, ZeroDivisionError):
    """Transfer function evaluated exactly at its pole."""

