"""sovchain benchmark: whole `sovchain run` calls on generated chains.

    python3 bench/run.py --workload spin-half-64 --seed 0 --seconds 30 --trace 0

Run from anywhere; it benchmarks the sources in ``src/`` next to this
directory.  The load is closed-loop: one process, one run at a time, BLAS
pinned to one thread.  Each run writes its config, calls
``sovchain.cli.main(["run", config])`` in-process and checks the report.

With ``--trace 0`` it runs whole shape cycles for ``--seconds`` and prints
the end-to-end metrics; their times are scaled to reference host speed by
the probe in speed.py, with the times as measured printed beside them.  With ``--trace 1`` it does fixed work instead, so
that counts repeat exactly: cycles alternate between traced and untraced,
the per-layer metrics come from the traced ones, and an untimed census of
the shapes no workload covers follows.  The last stdout line is one JSON
object with the metrics BENCHMARK.json declares.  See README.md.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from outcome import carried, check_report, tol_ratio  # noqa: E402
from setup_probe import ProgramMissing, load_cli  # noqa: E402
from speed import at_reference, pin_to_one_cpu, probe  # noqa: E402
from summary import (  # noqa: E402
    SpanTable, layer_metrics, median, monodromy_stats, stage_times,
    timing_summary, vandermonde_cond_max,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, census_configs, hilbert_dim, make_config  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
TRACE_CYCLES = 2  # traced cycles; as many untraced ones interleave


@dataclass
class Run:
    index: int
    wall: float
    outcome: str          # PASS, FAIL, or the crash text
    eigen: int = 0        # eigenvalues carried through every pipeline
    problems: list = field(default_factory=list)
    tol_ratio: float = 0.0
    unmapped: list = field(default_factory=list)
    report_bytes: int = 0

    @property
    def failed(self) -> bool:
        """Crashed or wrote a wrong report: the operation failed."""
        return self.outcome not in ("PASS", "FAIL") or bool(self.problems)


def run_one(cli, workload, seed, index, workdir, reference) -> Run:
    doc = make_config(workload, seed, index)
    stem = workdir / f"run{index}"
    report_path = stem.with_suffix(".report.json")
    config_path = stem.with_suffix(".json")
    config_path.write_text(json.dumps(dict(doc, output={
        "report": report_path.name, "bethe_csv": stem.name + ".roots.csv",
    })))
    out, err = io.StringIO(), io.StringIO()
    rc = None
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(["run", str(config_path)])
        except Exception:  # a program bug: record it, keep benchmarking
            traceback.print_exc()
    wall = perf_counter() - t0
    try:
        if rc not in (0, 1) or not report_path.exists():
            text = err.getvalue().strip().splitlines()
            return Run(index, wall, f"crash: {text[-1] if text else rc}")
        report = json.loads(report_path.read_text())
        ref = None
        if reference is not None and index < len(reference):
            ref = reference[index]
        run = Run(index, wall, "PASS" if rc == 0 else "FAIL",
                  eigen=carried(report, report["pipelines"]),
                  problems=check_report(report, doc, hilbert_dim(doc), rc,
                                        ref),
                  report_bytes=report_path.stat().st_size)
        run.tol_ratio, run.unmapped = tol_ratio(report)
        return run
    finally:
        for path in workdir.glob(stem.name + ".*"):
            path.unlink()


def load_reference(workload: str, seed: int):
    """Reference t_at_xi per config index, for the reference seed only."""
    if seed != REFERENCE_SEED:
        return None
    doc = json.loads(REFERENCE.read_text())
    return [
        np.array([[complex(re, im) for re, im in ev] for ev in cfg])
        for cfg in doc["workloads"].get(workload, [])
    ]


def measure_setup(workload: str, seed: int) -> tuple:
    """Set-up seconds from SETUP_REPEATS fresh interpreters, one at a time,
    as measured and at reference speed."""
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        ref.append(at_reference(raw[-1], before, probe()))
    return raw, ref


def outcome_metrics(runs) -> dict:
    unmapped = sorted({k for r in runs for k in r.unmapped})
    if unmapped:
        print(f"residual keys with no known tolerance: {unmapped}")
    return {
        "fail_frac": sum(r.failed or r.outcome == "FAIL" for r in runs)
        / len(runs),
        "tol_ratio.max": max(r.tol_ratio for r in runs),
    }


def timed(cli, workload, seed, seconds, workdir, reference) -> tuple:
    """Whole shape cycles until ``seconds`` have passed; end-to-end metrics."""
    runs, raw, ref = [], [], []
    index = 0
    before = probe()
    t_start = perf_counter()
    while not runs or perf_counter() - t_start < seconds:
        cycle = []
        for _ in range(workload.cycle):
            cycle.append(run_one(cli, workload, seed, index, workdir,
                                 reference))
            index += 1
        after = probe()
        runs.extend(cycle)
        raw.append(sum(r.wall for r in cycle) / len(cycle))
        ref.append(at_reference(raw[-1], before, after))
        before = after
    run_s = timing_summary(ref)
    metrics = {
        "run_s.p50": run_s["p50"],
        "eig_per_s": sum(r.eigen for r in runs) / (sum(ref) * workload.cycle),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    tail = (f"p{run_s['tail'][0]:g} {run_s['tail'][1]:.4f} s"
            if "tail" in run_s else "no percentile has 10 samples beyond it")
    print(f"run_s: n={run_s['n']} samples, each the mean run time of one "
          f"{workload.cycle}-shape cycle at reference speed; {tail}")
    print(f"as measured: run_s.p50 {median(raw):.6g} s, eig_per_s "
          f"{sum(r.eigen for r in runs) / sum(r.wall for r in runs):.6g} "
          f"1/s; host speed factor {sum(raw) / sum(ref):.4f}")
    return runs, metrics


def traced(cli, workload, seed, workdir, reference, trace_path) -> tuple:
    """Fixed work, traced and untraced cycles interleaved; per-layer metrics."""
    from sovchain.qalgebra import monodromy
    from sovchain.trigpoly import TrigPoly

    from_values = TrigPoly.__dict__["from_values"].__func__
    tracer = Tracer(capture=("qalgebra.monodromy",
                             "trigpoly.TrigPoly.from_values"))
    runs, traced_walls, plain_walls = [], [], []
    report_bytes = 0
    index = 0
    for c in range(2 * TRACE_CYCLES):
        on = c % 2 == 0
        if on:
            tracer.install()
        try:
            for _ in range(workload.cycle):
                tracer.run_id = index
                run = run_one(cli, workload, seed, index, workdir, reference)
                runs.append(run)
                (traced_walls if on else plain_walls).append(run.wall)
                if on:
                    report_bytes += run.report_bytes
                index += 1
        finally:
            tracer.uninstall()
    tracer.save(str(trace_path))
    arrays = tracer.arrays()
    spans = SpanTable(tracer.names, arrays["name_id"], arrays["parent"],
                      arrays["start"], arrays["end"])
    wall = sum(traced_walls)
    metrics = layer_metrics(
        spans,
        monodromy_stats(tracer.captured["qalgebra.monodromy"], monodromy),
        vandermonde_cond_max(tracer.captured["trigpoly.TrigPoly.from_values"],
                             from_values),
    )
    metrics["cli.report.bytes"] = report_bytes
    metrics["trace.overhead_s"] = median(traced_walls) - median(plain_walls)

    print(f"traced runs: {len(traced_walls)}, {wall:.3f} s; untraced runs: "
          f"{len(plain_walls)}, {sum(plain_walls):.3f} s; "
          f"{len(arrays['start'])} spans written to {trace_path.name}")
    print("stage times over the traced runs (they sum to the traced wall):")
    stages = stage_times(spans, wall)
    for stage, sec in sorted(stages.items(), key=lambda kv: -kv[1]):
        if sec == 0.0:
            continue
        print(f"  {stage:28s} {sec:9.4f} s  {100 * sec / wall:5.1f} %")
    print(f"  {'total':28s} {sum(stages.values()):9.4f} s")
    print("self time per span name (top 20):")
    rows = sorted(spans.by_name(), key=lambda r: -r[3])
    for name, calls, incl, own in rows[:20]:
        print(f"  {name:46s} {calls:8d} calls {incl:9.4f} s incl "
              f"{own:9.4f} s self")
    return runs, metrics


def census(cli, seed) -> dict:
    """Outcome of each census shape and single pipeline: PASS, FAIL or the
    crash class.  Untimed and untraced."""
    counts = {"census.crash": 0, "census.fail": 0}
    print("census (untimed; one pipeline per run):")
    for shape, pipeline, doc in census_configs(seed):
        try:
            report = cli.run_pipelines(cli.RunConfig.from_dict(doc))
        except Exception as exc:  # a crash is an outcome to record
            counts["census.crash"] += 1
            print(f"  {str(shape):10s} {pipeline:9s} {type(exc).__name__}: "
                  f"{exc}")
            continue
        if report["summary"]["pass"]:
            print(f"  {str(shape):10s} {pipeline:9s} PASS")
        else:
            counts["census.fail"] += 1
            worst, _ = tol_ratio(report)
            print(f"  {str(shape):10s} {pipeline:9s} FAIL "
                  f"(tol_ratio {worst:.3g}: "
                  f"{report['summary']['failures'][0]})")
    return counts


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    try:
        units = declared_metrics(bool(args.trace))
        cli = load_cli()
        if not args.trace:
            pin_to_one_cpu()
            setup_raw, setup = measure_setup(workload.name, args.seed)
    except (ProgramMissing, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    reference = load_reference(workload.name, args.seed)

    workdir = OUT_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.npz"
            runs, metrics = traced(cli, workload, args.seed, workdir,
                                   reference, trace_path)
            metrics.update(outcome_metrics(runs))
            metrics.update(census(cli, args.seed))
        else:
            runs, metrics = timed(cli, workload, args.seed, args.seconds,
                                  workdir, reference)
            metrics["setup_s"] = median(setup)
            print(f"setup_s: n={len(setup)} fresh interpreters; as measured "
                  f"{median(setup_raw):.6g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in runs if r.failed]
    for r in failed:
        print(f"run {r.index}: {r.outcome} {'; '.join(r.problems)}")
    shown = dict(units)
    if not args.trace:  # printed for the reader; not bounded metrics
        metrics.update(outcome_metrics(runs))
        shown.update({"fail_frac": "ratio", "tol_ratio.max": "ratio"})
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {shown.get(name, '')}")
    metrics = {name: metrics[name] for name in metrics if name in units}
    if set(metrics) != set(units):
        print(f"bench: computed metrics {sorted(set(metrics) ^ set(units))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not any(r.problems for r in runs),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
