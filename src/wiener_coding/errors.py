"""Semantic exception hierarchy for the package."""

__all__ = ["WienerCodingError", "ParameterError", "UnsupportedConfigurationError",
           "InfeasibleError", "SearchError", "HorizonError"]


class WienerCodingError(Exception):
    """Base error for this package."""


class ParameterError(WienerCodingError, ValueError):
    """Inputs violate a contract (domain, type, or consistency)."""


class UnsupportedConfigurationError(ParameterError):
    """Configuration is valid but not supported by this operation."""


class InfeasibleError(WienerCodingError):
    """Optimization problem has an empty feasible set."""


class SearchError(WienerCodingError):
    """A root/bracket search failed to converge."""


class HorizonError(WienerCodingError):
    """Simulation horizon too short or exceeded."""
