"""Host speed probe: a fixed kernel timed between samples of the program.

On a shared host one CPU alternates between fast and slow states for
seconds at a time, and a whole 30 s run can fall in either.  Timing this
fixed kernel right before and after each sample, on the same CPU, measures
the state the sample ran in; dividing by the kernel's time on a quiet host
(PROBE_REF_S) turns a sample's wall time into seconds at reference speed.
The kernel mixes the program's two kinds of work: small dense complex
matrix products, and interpreter-bound numpy scalar calls.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

# Probe time on a quiet host: the fast state of a 2-core Xeon VM, Python
# 3.11.7, numpy 2.4.6, one BLAS thread.
PROBE_REF_S = 0.0175

_A = np.random.default_rng(0).uniform(-1, 1, (64, 64, 2)) @ [1, 1j]


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = perf_counter()
    b = _A
    for _ in range(150):
        b = _A @ b
        b = b / np.abs(b).max()
    z = 0j
    for i in range(16000):
        z += complex(np.sinh(0.001 * i + 0.3j))
    return perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU, so the
    probe sees the same CPU state as the program."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def at_reference(wall: float, before: float, after: float) -> float:
    """Wall time scaled to reference speed by the probes around it."""
    return wall * PROBE_REF_S / (0.5 * (before + after))
