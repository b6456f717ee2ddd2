"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  The subclasses mirror the
major subsystems: IR construction/validation, analyses, register
allocation, and simulation.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "IRError",
    "IRValidationError",
    "ParseError",
    "AnalysisError",
    "AllocationError",
    "AllocationVerifyError",
    "SimulationError",
    "TargetError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Raised for malformed IR construction (bad operands, bad blocks)."""


class IRValidationError(IRError):
    """Raised by the IR validator when a function violates an invariant."""


class ParseError(IRError):
    """Raised by the textual IR parser on malformed input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AnalysisError(ReproError):
    """Raised when an analysis is run on IR it cannot handle."""


class AllocationError(ReproError):
    """Raised when register allocation cannot make progress."""


class AllocationVerifyError(AllocationError):
    """Raised by the post-allocation verifier on an invalid assignment."""


class SimulationError(ReproError):
    """Raised by the interpreters on a runtime fault (bad branch, etc.)."""


class TargetError(ReproError):
    """Raised for inconsistent target machine descriptions."""


class ServiceError(ReproError):
    """Raised by the allocation service on bad requests or overload."""

