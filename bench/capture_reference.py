"""Capture reference eigenvalues for the reference seed into reference.json.

    python3 bench/capture_reference.py [commit-label]

For the first CONFIGS[workload] configs of each workload at the reference
seed, stores every eigenvalue's values at the base points (t_at_xi, rounded
to 13 significant digits).  Runs with that seed then check their reports
against it.  Capture again only when the workloads change, from a commit
whose numbers are trusted.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS before numpy loads
from setup_probe import load_cli
from workloads import WORKLOADS, make_config

# At least as many configs as one 30 s run of today's code gets through.
CONFIGS = {"spin-half-64": 8, "high-spin": 96, "twist-sweep": 24}


def main(argv) -> int:
    cli = load_cli()
    out = {"seed": run.REFERENCE_SEED,
           "captured_from": argv[0] if argv else "unlabelled",
           "workloads": {}}
    for name, count in CONFIGS.items():
        configs = []
        for index in range(count):
            doc = make_config(WORKLOADS[name], run.REFERENCE_SEED, index)
            report = cli.run_pipelines(cli.RunConfig.from_dict(doc))
            configs.append([
                [[float(f"{v:.13g}") for v in pair] for pair in e["t_at_xi"]]
                for e in report["eigenvalues"]
            ])
            print(f"{name} {index}: {len(configs[-1])} eigenvalues",
                  file=sys.stderr)
        out["workloads"][name] = configs
    run.REFERENCE.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
