"""Exception types shared across the solver."""

from __future__ import annotations

__all__ = ["MeltfrontError", "ConfigError", "KernelOverflowError", "ConvergenceError", "BracketError"]


class MeltfrontError(Exception):
    """Base class for all solver errors.

    ``existence`` is the certificate of the problem whose solve failed, or
    None when the error came before one was issued.
    """

    existence = None


class ConfigError(MeltfrontError):
    """Invalid problem description or run configuration."""


class KernelOverflowError(MeltfrontError):
    """A kernel exponent exceeded the overflow guard."""

    def __init__(self, message: str, node: int | None = None, exponent: float | None = None):
        super().__init__(message)
        self.node = node
        self.exponent = exponent


class ConvergenceError(MeltfrontError):
    """An iteration (inner profile or outer front coefficient) failed to converge."""

    def __init__(self, message: str, lam: float | None = None):
        super().__init__(message)
        self.lam = lam


class BracketError(MeltfrontError):
    """No usable sign change for a scalar root."""
