"""Benchmark workloads: chain shapes, and run configurations drawn from a seed.

A workload is a cycle of chain shapes run with fixed pipelines and a fixed
number of twists.  Configuration ``index`` of a workload is a pure function
of (workload, seed, index), so the same seed always gives the same inputs,
and within one seed no two indices give the same model.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

PIPELINES = ("sov", "tq-inhom", "tq-hom")


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple      # cycle of two_s tuples; config i uses shapes[i % len]
    twists: int        # number of kappa values per config
    pipelines: object  # "all" or a list of pipeline names

    @property
    def cycle(self) -> int:
        return len(self.shapes)


WORKLOADS = {
    w.name: w
    for w in (
        # Reference size: operator builds (oracle, probe residuals, basis)
        # dominate, so monodromy and per-(model, lambda) reuse show here.
        Workload(
            name="spin-half-64",
            shapes=((1,) * 6,),
            twists=2,
            pipelines="all",
        ),
        # Small dims, n_s 5-6: T-Q solve/verify and the trigpoly Vandermonde
        # dominate and carry the accuracy signal; operator work is minor.
        Workload(
            name="high-spin",
            shapes=((1, 4), (2, 3), (3, 3), (1, 2, 2)),
            twists=2,
            pipelines="all",
        ),
        # One dense oracle per twisted model, little Q work: isolates the
        # oracle and bypasses tq and trigpoly changes.
        Workload(
            name="twist-sweep",
            shapes=((1,) * 5,),
            twists=8,
            pipelines=["tq-hom"],
        ),
    )
}

# Shapes no timed workload covers.  All-integer-spin chains crash tq-inhom
# with PoleAtXi today, so they are run untimed, one pipeline at a time.
CENSUS = Workload(
    name="census",
    shapes=((2, 2), (2, 2, 2), (3, 3, 3)),
    twists=2,
    pipelines="all",
)


def make_config(workload: Workload, seed: int, index: int) -> dict:
    """Configuration document for run ``index`` of ``workload`` at ``seed``.

    The inhomogeneities are drawn by the program from ``model.seed``, which
    is unique per (seed, index); the twists are unimodular, with angles
    drawn here.  Output paths are left to the caller.
    """
    if seed < 0 or not 0 <= index < 2**32:
        raise ValueError("seed must be >= 0 and index in [0, 2**32)")
    salt = zlib.crc32(workload.name.encode())
    rng = np.random.default_rng([salt, seed, index])
    # An evenly spaced sweep of twist angles with a random phase.
    phase = rng.uniform(0.0, 2.0 * math.pi)
    angles = [
        phase + 2.0 * math.pi * k / workload.twists
        for k in range(workload.twists)
    ]
    pipelines = workload.pipelines
    return {
        "model": {
            "two_s": list(workload.shapes[index % workload.cycle]),
            "xi": "random",
            "seed": seed * 2**32 + index,
            "kappa": [[math.cos(a), math.sin(a)] for a in angles],
        },
        "pipelines": pipelines if isinstance(pipelines, str)
        else list(pipelines),
    }


def hilbert_dim(doc: dict) -> int:
    return math.prod(v + 1 for v in doc["model"]["two_s"])


def census_configs(seed: int):
    """(shape, pipeline, doc) for every census shape and single pipeline."""
    out = []
    for index, shape in enumerate(CENSUS.shapes):
        base = make_config(CENSUS, seed, index)
        for pipeline in PIPELINES:
            doc = dict(base, pipelines=[pipeline])
            out.append((tuple(shape), pipeline, doc))
    return out
