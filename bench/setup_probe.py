"""Locate and import the sovchain sources of this checkout; time set-up.

Run as a script, it times one benchmark set-up in a fresh interpreter,
import of sovchain plus generation of the first config cycle, and prints
the seconds as its last line:

    python3 bench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no sovchain sources to benchmark."""


def load_cli():
    """Import sovchain.cli from this checkout's src/ and return the module."""
    if not (SRC / "sovchain" / "__init__.py").is_file():
        raise ProgramMissing(f"no sovchain package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sovchain.cli

    if SRC not in Path(sovchain.cli.__file__).resolve().parents:
        raise ProgramMissing(
            f"imported sovchain from {sovchain.cli.__file__}, not {SRC}"
        )
    return sovchain.cli


def main(argv) -> int:
    t0 = time.perf_counter()
    load_cli()
    from workloads import WORKLOADS, make_config

    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    [make_config(workload, seed, i) for i in range(workload.cycle)]
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
