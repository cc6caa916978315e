"""Exception hierarchy for the sovchain package.

Every failure mode that user code may want to catch gets its own class, all
rooted at :class:`SovChainError` so that ``except SovChainError`` is a safe
catch-all for library failures without masking programming errors.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SovChainError",
    "DegenerateNodes",
    "NotFullDegree",
    "IndexOutOfRange",
    "NotApplicable",
    "ConditioningFailure",
    "DegenerateSpectrum",
    "RecursionBlowup",
    "ZeroState",
    "ExceptionalAlpha",
    "NonAdmissible",
    "PoleAtXi",
    "RankDeficient",
    "NoEpsilonFits",
    "NotEntire",
    "CoincidentRoots",
    "BothChoicesZero",
    "ConfigError",
    "LadderCollision",
    "GenerationExhausted",
]


class SovChainError(Exception):
    """Base class for all errors raised by this package."""


# A batch of eigenvalues keeps one entry per row: None, or the first error
# that row met.  Kept out of __all__ so the bench tracer leaves it alone.


def record(errors: list, failed, make) -> None:
    """Give every row flagged in ``failed`` that has no error yet the error
    ``make(row)``: a row keeps the first error it meets."""
    for row in np.flatnonzero(failed):
        if errors[row] is None:
            errors[row] = make(row)


class DegenerateNodes(SovChainError):
    """Interpolation nodes collide after reduction to the exponential variable."""


class NotFullDegree(SovChainError):
    """A trigonometric polynomial does not factor into the expected number of sinh factors."""


class IndexOutOfRange(SovChainError):
    """A site or shift index lies outside the valid range for the chain."""


class NotApplicable(SovChainError):
    """The requested check has no meaning for the given parameter regime."""


class ConditioningFailure(SovChainError):
    """A linear solve or interpolation is too ill conditioned to trust."""


class DegenerateSpectrum(SovChainError):
    """Brute-force eigenvalues cannot be matched bijectively between probe points."""


class RecursionBlowup(SovChainError):
    """A three-term recursion divides by a vanishing coefficient."""


class ZeroState(SovChainError):
    """A constructed eigenstate has numerically zero norm."""


class ExceptionalAlpha(SovChainError):
    """The inhomogeneous-equation linear system is singular for this twist parameter."""


class NonAdmissible(SovChainError):
    """A solution violates the admissibility constraints required for state construction."""


class PoleAtXi(SovChainError):
    """Evaluation requested at a point where the expression has a pole."""


class RankDeficient(SovChainError):
    """The homogeneous linear system has nullspace dimension different from one."""


class NoEpsilonFits(SovChainError):
    """Neither sign choice is consistent with the Wronskian and the sum rule."""


class NotEntire(SovChainError):
    """A ratio that must be polynomial has a nonvanishing numerator at a zero of the denominator."""


class CoincidentRoots(SovChainError):
    """Two reconstructed roots coincide within tolerance."""


class BothChoicesZero(SovChainError):
    """Both sign choices give a numerically zero eigenstate."""


class ConfigError(SovChainError):
    """Invalid model or run configuration."""


class LadderCollision(ConfigError):
    """Two sites' shifted-inhomogeneity ladders come closer than delta_min."""


class GenerationExhausted(SovChainError):
    """Random model generation failed to meet the genericity margin within the attempt budget."""
