"""Spectrum construction for twisted antiperiodic XXZ chains with arbitrary
site spins, by separation of variables.

The package builds the chain operators, the separated basis, and three
equivalent characterizations of the transfer-matrix spectrum (a per-site
discrete system, an inhomogeneous second-order functional equation, and the
homogeneous half-angle functional equation), and cross-validates all of them
against brute-force diagonalization at small sizes.
"""

from .errors import (
    BothChoicesZero,
    CoincidentRoots,
    ConditioningFailure,
    ConfigError,
    DegenerateNodes,
    DegenerateSpectrum,
    ExceptionalAlpha,
    GenerationExhausted,
    IndexOutOfRange,
    LadderCollision,
    NoEpsilonFits,
    NonAdmissible,
    NotApplicable,
    NotEntire,
    NotFullDegree,
    PoleAtXi,
    RankDeficient,
    RecursionBlowup,
    SovChainError,
    ZeroState,
)

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

__version__ = "0.1.0"
