"""Spectrum construction for twisted antiperiodic XXZ chains with arbitrary
site spins, by separation of variables.

The package builds the chain operators, the separated basis, and three
equivalent characterizations of the transfer-matrix spectrum (a per-site
discrete system, an inhomogeneous second-order functional equation, and the
homogeneous half-angle functional equation), and cross-validates all of them
against brute-force diagonalization at small sizes.
"""

# The package exports its error classes.
from .errors import *  # noqa: F403
from .errors import __all__

__version__ = "0.1.0"
