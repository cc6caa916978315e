"""Shared fixtures: the small reference chains the end-to-end gate runs on.

Every chain uses the same generic anisotropy and a unimodular twist, with
inhomogeneities drawn once per shape from a fixed seed so the whole suite
is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from sovchain import tq_hom
from sovchain.cli import generate_model
from sovchain.sovbasis import build_basis
from sovchain.spectrum import brute_force_spectrum

ETA = 0.31 + 0.07j
DELTA_MIN = 0.05
GENERIC_TWIST = np.exp(0.3j)

# shape name -> (twice the spin at each site, generation seed)
CHAIN_SHAPES = {
    "one-spin-half": ((1,), 101),
    "two-spin-half": ((1, 1), 102),
    "spin-half-plus-spin-one": ((1, 2), 103),
    "three-spin-half": ((1, 1, 1), 104),
    "two-spin-one": ((2, 2), 105),
}


@pytest.fixture(scope="session")
def chains():
    built = {}
    for name, (two_s, seed) in CHAIN_SHAPES.items():
        built[name] = generate_model(
            seed,
            len(two_s),
            list(two_s),
            DELTA_MIN,
            eta=ETA,
            kappa=GENERIC_TWIST,
        )
    return built


@pytest.fixture(scope="session")
def chain_spectra(chains):
    return {name: brute_force_spectrum(model) for name, model in chains.items()}


@pytest.fixture(scope="session")
def chain_bases(chains):
    return {name: build_basis(model) for name, model in chains.items()}


@pytest.fixture
def rank_deficient_hom_row(monkeypatch):
    """Call with a row index: that row's tq-hom closure gets its first row
    twice, so its nullspace is two-dimensional and that row alone records
    a RankDeficient."""
    def patch(row):
        closure = tq_hom._closure

        def duplicated(*args, **kwargs):
            mat, nodes, spread = closure(*args, **kwargs)
            mat[row, 1] = mat[row, 0]
            return mat, nodes, spread

        monkeypatch.setattr(tq_hom, "_closure", duplicated)

    return patch
