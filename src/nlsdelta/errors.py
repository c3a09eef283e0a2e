"""Exception hierarchy and process exit codes shared across the package."""

from __future__ import annotations

__all__ = [
    "NlsDeltaError",
    "AdmissibilityError",
    "NumericsError",
    "BlowupError",
    "InconclusiveError",
    "EXIT_OK",
    "EXIT_ADMISSIBILITY",
    "EXIT_NUMERICS",
    "EXIT_INCONCLUSIVE",
    "exit_code_for",
]

EXIT_OK = 0
EXIT_ADMISSIBILITY = 2
EXIT_NUMERICS = 3
EXIT_INCONCLUSIVE = 4


class NlsDeltaError(Exception):
    """Base class for all package-specific failures."""


class AdmissibilityError(NlsDeltaError):
    """Requested parameters violate an existence or domain condition.

    The message always reports the violated condition and, where a
    threshold is involved, its computed value.
    """


class NumericsError(NlsDeltaError):
    """A numerical procedure failed (lost bracket, residual too large, blow-up)."""


class BlowupError(NumericsError):
    """A time integration left its amplitude bound or went non-finite.

    ``last_good_time`` is the time of the last state that passed the check.
    """

    def __init__(self, last_good_time: float) -> None:
        super().__init__(last_good_time)
        self.last_good_time = last_good_time

    def __str__(self) -> str:
        return f"blow-up detected; last good time t={self.last_good_time!r}"


class InconclusiveError(NlsDeltaError):
    """A diagnostic could not separate cases at the working resolution.

    Raised e.g. when an eigenvalue falls inside the zero-classification
    band so that a negative-index count would be a guess.
    """


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit-code convention."""
    if isinstance(exc, AdmissibilityError):
        return EXIT_ADMISSIBILITY
    if isinstance(exc, InconclusiveError):
        return EXIT_INCONCLUSIVE
    if isinstance(exc, NumericsError):
        return EXIT_NUMERICS
    return 1
