"""Error vocabulary shared by all onephase modules.

Every raised condition in the package is one of these, so callers (and the
CLI) can map failures onto exit codes without string matching.
"""

from __future__ import annotations


class OnePhaseError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OnePhaseError):
    """Malformed arguments: bad parameter ranges, shapes, or schemas."""


class DomainError(OnePhaseError):
    """A point or region lies outside the operation's mathematical domain
    (e.g. a chart target outside the model strip, a window that misses the
    positive phase)."""


class NoSaddleError(DomainError):
    """The solution family has no interior saddle point."""


class ConvergenceError(OnePhaseError):
    """An iteration failed to meet its tolerance.  Carries the last iterate
    so callers can inspect or restart."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class TopologyError(OnePhaseError):
    """A classifier's component-count hypothesis failed (unexpected phase
    topology for the requested case analysis)."""
