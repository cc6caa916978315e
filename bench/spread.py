"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload high-spin --seeds 10 [--first-seed 1]

Runs bench/run.py once per seed, one at a time, keeping each run's output
in .bench_out/spread-<workload>-<seed>.log, and prints for each
end-to-end metric its median, its quartile spread ((Q3 - Q1) / median, with
statistics.quantiles) and that spread as a share of the metric's bound in
BENCHMARK.json.  A steady benchmark keeps every spread but setup_s below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from summary import median, quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True,
        )
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spread-{args.workload}-{seed}.log").write_text(
            proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 5)
                  for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{values}", flush=True)
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        print(f"{metric['name']:12s} median {median(values):.6g} "
              f"{metric['unit']:5s} spread {spread:.4f} bound "
              f"{metric['bound']} ({spread / metric['bound']:.2f} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
