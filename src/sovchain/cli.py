"""Batch harness: configuration, model generation, pipelines, reporting.

A run loads a JSON configuration, builds (or generates) the chain model,
computes the brute-force spectrum, pushes the whole spectrum through each
selected characterization in one batched pass (one row per eigenvalue),
and writes a JSON report whose numbers carry full double precision.  A
library error (``SovChainError``) met by one eigenvalue's row in a
pipeline, or raised by the separated-basis build, is recorded in the
report as ``{"class", "message"}`` under that pipeline's key and fails the
run without aborting it; the other rows go on.  With ``SOVCHAIN_LOG=INFO``
each stage (model, oracle, basis, ladder and every pipeline batch) logs
one line with its wall time, its rows and its failed rows; the report
itself holds no times.  Exit status 0 means every checked quantity stayed
under its tolerance, 1 means some check failed, 2 means the configuration
or invocation was unusable.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import (
    ConfigError, GenerationExhausted, LadderCollision, SovChainError, merge,
)
from .qalgebra import (ChainModel, monodromy_entries, transfer_from_entries,
                       twist_gauge)
from . import sovbasis as sb
from . import spectrum as sp
from . import tq_hom as thm
from . import tq_inhom as ti

__all__ = ["RunConfig", "generate_model", "run_pipelines", "main"]

log = logging.getLogger("sovchain")

PIPELINES = ("sov", "tq-inhom", "tq-hom")

DEFAULT_TOLERANCES = {
    "grid": 1e-8,
    "determinant": 1e-8,
    "matching": 1e-8,
    "bethe": 1e-7,
    "identity": 1e-8,
}

DEFAULT_ETA = 0.31 + 0.07j
DEFAULT_DELTA_MIN = 0.05
# The untwisted chain, as the config spells it; never mutated.
DEFAULT_KAPPA = [[1.0, 0.0]]
# Each redraw costs a solve, so a hopeless chain stops here, not in days.
MAX_ALPHA_RETRIES = 100

# Where each pipeline's results go in an eigenvalue's report entry (sov
# writes its fields into the entry itself).
REPORT_KEYS = {"sov": "sov", "tq-inhom": "inhom", "tq-hom": "hom"}

# Each checked quantity, in report order: (pipeline, field, tolerance).
CHECKS = {
    "eigenstate_residual": ("sov", "eigenstate_residual", "matching"),
    "biorthogonality": ("sov", "biorthogonality", "matching"),
    "inhom_grid_residual": ("tq-inhom", "grid_residual", "grid"),
    "inhom_bethe": ("tq-inhom", "bethe_max", "bethe"),
    "inhom_round_trip": ("tq-inhom", "round_trip", "matching"),
    "hom_grid_residual": ("tq-hom", "grid_residual", "grid"),
    "hom_wronskian": ("tq-hom", "wronskian_residual", "grid"),
    "hom_sum_rule": ("tq-hom", "sum_rule_residual", "bethe"),
    "hom_bethe": ("tq-hom", "bethe_max", "bethe"),
    "hom_proportionality": ("tq-hom", "proportionality_max", "bethe"),
    "hom_round_trip": ("tq-hom", "round_trip", "matching"),
}

# Fixed probe points for eigenstate residuals, kept off the rung lattice
# of any generated model.
PROBE_POINTS = (0.23 + 0.11j, -0.4 + 0.6j)


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether a JSON value is a finite number of the given kinds that a
    float can hold.  JSON true and false arrive as bool, a subclass of int,
    and are not numbers here; nor are the NaN and Infinity that
    ``json.load`` accepts, nor an integer beyond the float range."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _parse_complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_number(v) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair")


def _emit_complex(z):
    """[re, im] for a complex scalar, and that pair on a new last axis for
    an array, as nested lists of Python floats: the (re, im) memory of the
    complex values, read as floats."""
    z = np.asarray(z, dtype=complex)
    return np.ascontiguousarray(z).view(float).reshape(z.shape + (2,)).tolist()


@dataclass
class RunConfig:
    two_s: tuple
    xi: tuple | None            # None means generate from xi_seed
    xi_seed: int
    delta_min: float
    eta: complex
    kappa_list: tuple
    alpha: complex
    max_alpha_retries: int
    tolerances: dict
    pipelines: tuple
    report_path: str | None
    bethe_csv_path: str | None

    @classmethod
    def from_dict(cls, doc, base_dir: str = ".") -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("configuration root must be an object")
        model = doc.get("model")
        if not isinstance(model, dict):
            raise ConfigError("missing 'model' section")
        two_s = model.get("two_s")
        if (not isinstance(two_s, list) or not two_s
                or not all(_is_number(v, int) and v >= 1 for v in two_s)):
            raise ConfigError("model.two_s must be a nonempty list: every "
                              "2s value must be a positive integer")
        xi_field = model.get("xi", "random")
        if xi_field == "random":
            xi = None
        elif isinstance(xi_field, list):
            if len(xi_field) != len(two_s):
                raise ConfigError(
                    f"model.xi lists {len(xi_field)} sites, "
                    f"two_s lists {len(two_s)}"
                )
            xi = tuple(
                _parse_complex(v, f"model.xi[{i}]")
                for i, v in enumerate(xi_field)
            )
        else:
            raise ConfigError("model.xi must be 'random' or a list")
        xi_seed = model.get("seed", 0)
        if not _is_number(xi_seed, int):
            raise ConfigError("model.seed must be an integer")
        delta_min = model.get("delta_min", DEFAULT_DELTA_MIN)
        if not _is_number(delta_min) or delta_min <= 0:
            raise ConfigError("model.delta_min must be a positive number")
        eta = _parse_complex(model.get("eta", _emit_complex(DEFAULT_ETA)),
                             "model.eta")
        kappa_field = model.get("kappa", DEFAULT_KAPPA)
        if not isinstance(kappa_field, list) or not kappa_field:
            raise ConfigError("model.kappa must be a nonempty list")
        if (len(kappa_field) == 2
                and all(_is_number(v) for v in kappa_field)):
            # A bare [re, im] pair means a single twist, not two real ones.
            kappa_field = [kappa_field]
        kappa_list = tuple(
            _parse_complex(v, f"model.kappa[{i}]")
            for i, v in enumerate(kappa_field)
        )
        if any(k == 0 for k in kappa_list):
            raise ConfigError("model.kappa entries must be nonzero")
        alpha = _parse_complex(model.get("alpha", 0.0), "model.alpha")
        retries = model.get("max_alpha_retries", 3)
        if (not _is_number(retries, int)
                or not 0 <= retries <= MAX_ALPHA_RETRIES):
            raise ConfigError("model.max_alpha_retries must be an integer "
                              f"from 0 to {MAX_ALPHA_RETRIES}")

        tol_field = doc.get("tolerances", {})
        if not isinstance(tol_field, dict):
            raise ConfigError("'tolerances' must be an object")
        tolerances = dict(DEFAULT_TOLERANCES)
        for key, value in tol_field.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance '{key}'")
            if not _is_number(value) or value <= 0:
                raise ConfigError(f"tolerances.{key} must be positive")
            tolerances[key] = float(value)

        pipe_field = doc.get("pipelines", "all")
        if pipe_field == "all":
            pipelines = PIPELINES
        elif (isinstance(pipe_field, list)
                and all(p in PIPELINES for p in pipe_field) and pipe_field):
            pipelines = tuple(dict.fromkeys(pipe_field))
        else:
            raise ConfigError(
                f"pipelines must be 'all' or a subset of {list(PIPELINES)}"
            )

        output = doc.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("'output' must be an object")

        def _path(key):
            value = output.get(key)
            if value is None:
                return None
            if not isinstance(value, str):
                raise ConfigError(f"output.{key} must be a string path")
            if os.path.isabs(value):
                return value
            return os.path.join(base_dir, value)

        return cls(
            two_s=tuple(two_s), xi=xi, xi_seed=xi_seed,
            delta_min=float(delta_min), eta=eta, kappa_list=kappa_list,
            alpha=alpha, max_alpha_retries=retries, tolerances=tolerances,
            pipelines=pipelines, report_path=_path("report"),
            bethe_csv_path=_path("bethe_csv"),
        )

    def build_model(self, kappa: complex) -> ChainModel:
        if self.xi is None:
            return generate_model(
                self.xi_seed, len(self.two_s), self.two_s, self.delta_min,
                eta=self.eta, kappa=kappa,
            )
        return ChainModel(
            two_s=self.two_s, xi=self.xi, eta=self.eta, kappa=kappa,
            delta_min=self.delta_min,
        )


def generate_model(
    seed: int, n_sites: int, two_s, delta_min: float,
    eta: complex = DEFAULT_ETA, kappa: complex = 1.0,
) -> ChainModel:
    """Draw inhomogeneities until the genericity margin holds.

    Real parts are uniform in [0, 2], imaginary parts in [-0.3, 0.3];
    rejection sampling is deterministic per seed and gives up after 10^4
    draws.  Only a ladder collision, the one check that depends on the
    draw, is retried; a spin, eta or twist error is raised at once.
    """
    two_s = tuple(int(v) for v in two_s)
    if len(two_s) != n_sites:
        raise ConfigError(
            f"got {len(two_s)} spin values for {n_sites} sites"
        )
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        xi = tuple(rng.uniform(0.0, 2.0, n_sites)
                   + 1j * rng.uniform(-0.3, 0.3, n_sites))
        try:
            return ChainModel(
                two_s=two_s, xi=xi, eta=eta, kappa=kappa, delta_min=delta_min,
            )
        except LadderCollision:
            continue
    raise GenerationExhausted(
        f"no admissible inhomogeneities after 10^4 draws "
        f"(delta_min={delta_min})"
    )


# ----------------------------------------------------------------------
# pipeline orchestration

def _error_entry(exc: SovChainError) -> dict:
    return {"class": type(exc).__name__, "message": str(exc)}


def _describe(exc: SovChainError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _first_errors(first, *rest):
    """Each row's first error over several lists of per-row errors."""
    errors = list(first)
    for more in rest:
        merge(errors, more)
    return errors


def _log_stage(name: str, start: float, rows: int, errors=()) -> None:
    """One INFO line; its failed rows are counted only if it is logged."""
    if log.isEnabledFor(logging.INFO):
        log.info("stage %s: %.6f s, %d rows, %d failed", name,
                 perf_counter() - start, rows,
                 len(errors) - errors.count(None))


def run_pipelines(config: RunConfig) -> dict:
    """Execute the selected characterizations and assemble the report.

    Every stage runs once over the whole spectrum; the report lists the
    eigenvalues in order, each with its pipelines in order.
    """
    tol = config.tolerances
    failures = []  # (eigenvalue, line); -1 for the run
    maxima = {}

    def record(key, values, bound, rows=(-1,)):
        """Decide one check over its column, values[i] belonging to
        eigenvalue rows[i]: a value not under its bound (NaN too) fails,
        and the maximum shows it."""
        values = np.array(values, dtype=float, ndmin=1, copy=None)
        if not values.size:
            return
        maxima[key] = top = float(values.max(initial=0.0))
        if not top <= bound:  # bounds are positive: a passing max passes all
            failures.extend(
                (rows[i], f"{key}: {values[i]:.3e} exceeds {bound:.1e}")
                for i in np.flatnonzero(~(values <= bound)))

    start = perf_counter()
    model = config.build_model(config.kappa_list[0])
    _log_stage("model", start, model.hilbert_dim)
    start = perf_counter()
    spec, others = sp.brute_force_spectrum(model, twists=config.kappa_list[1:])
    eigs = spec.rows
    base = eigs.base_values

    # Twisting the boundary must not move the spectrum.
    if len(others):
        record("kappa_isospectrality", np.abs(others - base).max(),
               tol["matching"])
    _log_stage("oracle", start, len(base))

    basis = basis_error = None
    if "sov" in config.pipelines:
        start = perf_counter()
        probes = list(zip(PROBE_POINTS, transfer_from_entries(
            model, *monodromy_entries(model, PROBE_POINTS, "BC"),
            model.kappa)))
        right_norms = np.linalg.norm(spec.right, axis=0)
        try:
            basis = sb.build_basis(model)
        except SovChainError as exc:
            basis_error = _error_entry(exc)
            failures.append((-1, f"separated basis: {_describe(exc)}"))
        else:
            record("identity_resolution", sb.identity_resolution(basis),
                   tol["identity"])
        _log_stage("basis", start, model.hilbert_dim,
                   (basis_error,) * model.hilbert_dim)

    start = perf_counter()
    discrete = sp.discrete_residual(model, eigs)
    ladder_qs, ladder_errors = eigs.ladder
    _log_stage("ladder", start, len(base), ladder_errors)

    # Each step runs one batch over every eigenvalue and returns its report
    # fields as columns (one JSON-ready entry per row) and the row errors.
    def sov_step():
        left, right, errors = sp.eigenstates(model, basis, ladder_qs)
        worst = 0.0
        for lam, t_mat in probes:
            worst = np.maximum(worst, sp.eigen_residual(
                model, eigs, (right, left), lam, "both", t_mat))
        cross = np.abs(left @ spec.right) / (
            np.linalg.norm(left, axis=1)[:, None] * right_norms)
        np.fill_diagonal(cross, -np.inf)
        return {
            "eigenstate_residual": worst.tolist(),
            "biorthogonality": cross.max(axis=1).tolist(),
        }, _first_errors(ladder_errors, errors)

    def inhom_step():
        sol, retries, errors = ti.solve_q_inhom(
            model, eigs, ti.draw_zeta0(model, np.random.default_rng(42)),
            config.alpha, config.max_alpha_retries)
        rebuilt, bethe, pole_errors = ti.t_from_q_inhom(model, sol)
        return {
            "alpha": _emit_complex(sol.alpha),
            "retries": retries.tolist(),
            "roots": _emit_complex(sol.roots),
            "grid_residual":
                ti.inhom_grid_residual(model, eigs, sol).tolist(),
            "bethe_max": bethe.max(axis=1).tolist(),
            "round_trip": np.abs(rebuilt - base).max(axis=1).tolist(),
        }, _first_errors(errors, pole_errors)

    def hom_step():
        sol, errors = thm.solve_q_hom(
            model, eigs, thm.draw_zeta0_hom(model, np.random.default_rng(42)))
        bethe, bethe_errors = thm.bethe_residuals_hom(model, sol)
        angles, _ = thm.q_vector_proportionality(model, sol)
        rebuilt, _, pair_errors = thm.t_from_q_pair(model, sol)
        return {
            "roots": _emit_complex(sol.roots),
            "epsilon": sol.epsilon.tolist(),
            "winding": sol.winding.tolist(),
            "grid_residual": thm.hom_grid_residual(model, eigs, sol).tolist(),
            "wronskian_residual": sol.wronskian_residual.tolist(),
            "sum_rule_residual": sol.sum_rule_residual.tolist(),
            "bethe_max": bethe.max(axis=1).tolist(),
            "proportionality_max": angles.max(axis=1).tolist(),
            "round_trip": np.abs(rebuilt - base).max(axis=1).tolist(),
        }, _first_errors(errors, bethe_errors, pair_errors)

    steps = {}
    # A failed row carries garbage through the rest of its batch; only its
    # error reaches the report.
    with np.errstate(all="ignore"):
        for name, step in (("sov", sov_step), ("tq-inhom", inhom_step),
                           ("tq-hom", hom_step)):
            if name not in config.pipelines or name == "sov" and basis_error:
                continue
            start = perf_counter()
            steps[name] = step()
            _log_stage(name, start, len(base), steps[name][1])

    record("discrete_residual", discrete, tol["determinant"],
           range(len(discrete)))
    records = [{"index": idx, "t_at_xi": values, "discrete_residual": dres}
               for idx, (values, dres)
               in enumerate(zip(_emit_complex(base), discrete.tolist()))]
    for entry in records if basis_error else ():
        entry["sov"] = basis_error
    # Each pipeline fills its part of every entry: its fields, or the error
    # that fails this eigenvalue and pipeline (not the run).
    for name, (columns, errors) in steps.items():
        key, ok = REPORT_KEYS[name], []
        for idx, (entry, exc, row) in enumerate(
                zip(records, errors, zip(*columns.values()))):
            if exc is not None:
                entry[key] = _error_entry(exc)
                failures.append(
                    (idx, f"eigenvalue {idx} {name}: {_describe(exc)}"))
                continue
            ok.append(idx)
            if key == "sov":
                entry.update(zip(columns, row))
            else:
                entry[key] = dict(zip(columns, row))
        for check, (pipeline, field, bound) in CHECKS.items():
            if pipeline == name:
                record(check, np.take(columns[field], ok), tol[bound], ok)

    # Run-level lines first, then by eigenvalue; within one, in the order
    # recorded: discrete residual, then each pipeline's checks in turn.
    failures = [line for _, line in sorted(failures, key=lambda f: f[0])]

    report = {
        "model": {
            "two_s": list(model.two_s),
            "xi": _emit_complex(model.xi),
            "eta": _emit_complex(model.eta),
            "kappa": _emit_complex(config.kappa_list),
            "alpha": _emit_complex(config.alpha),
            "delta_min": model.delta_min,
            "hilbert_dim": model.hilbert_dim,
        },
        "pipelines": list(config.pipelines),
        "tolerances": dict(config.tolerances),
        "eigenvalues": records,
        "summary": {
            "count": len(records),
            "hilbert_dim": model.hilbert_dim,
            "max_residuals": maxima,
            "failures": failures,
            "pass": not failures,
        },
    }
    return report


def _write_bethe_csv(path: str, report: dict) -> None:
    """One row per root, written as one string: the bytes csv's default
    dialect writes (CRLF line ends; no field needs quoting)."""
    lines = ["eigenvalue,characterization,root,re,im\r\n"]
    for entry in report["eigenvalues"]:
        for key in ("inhom", "hom"):
            lines.extend(
                f"{entry['index']},{key},{j},{re!r},{im!r}\r\n"
                for j, (re, im) in enumerate(
                    entry.get(key, {}).get("roots", [])))
    with open(path, "w", newline="") as handle:
        handle.write("".join(lines))


# ----------------------------------------------------------------------
# entry points

def _check_output(name: str, target: str) -> None:
    """Refuse an output path in a missing directory or naming one, early."""
    folder = os.path.dirname(target) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"{name}: directory {folder!r} does not exist")
    if os.path.isdir(target):
        raise ConfigError(f"{name}: {target!r} is a directory")


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    config = RunConfig.from_dict(doc, base_dir=os.path.dirname(path) or ".")
    if config.report_path is None:
        config.report_path = os.path.splitext(path)[0] + ".report.json"
    for key, target in (("report", config.report_path),
                        ("bethe_csv", config.bethe_csv_path)):
        if target:
            _check_output(f"output.{key}", target)
    csv = config.bethe_csv_path
    if csv and os.path.realpath(csv) == os.path.realpath(config.report_path):
        raise ConfigError(f"output.bethe_csv names the report file {csv!r}")
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    report = run_pipelines(config)
    path = config.report_path
    # One compact string from the C encoder, written once.
    with open(path, "w") as handle:
        # run_pipelines builds the report afresh: it holds no cycle.
        handle.write(json.dumps(report, check_circular=False) + "\n")
    if config.bethe_csv_path and any(
        p in config.pipelines for p in ("tq-inhom", "tq-hom")
    ):
        _write_bethe_csv(config.bethe_csv_path, report)
    summary = report["summary"]
    status = "PASS" if summary["pass"] else "FAIL"
    lines = [f"{status}: {summary['count']} eigenvalues, report {path}"]
    lines += [f"  {name}: {value:.3e}"
              for name, value in sorted(summary["max_residuals"].items())]
    lines += [f"  FAILED {line}" for line in summary["failures"]]
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # Reader gone: as the Python docs advise, send the rest to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if summary["pass"] else 1


def _cmd_generate(args) -> int:
    doc = {
        "model": {
            "two_s": list(args.spins),
            "xi": "random",
            "seed": args.seed,
            "delta_min": args.delta_min,
            "eta": _emit_complex(complex(args.eta_re, args.eta_im)),
            "kappa": _emit_complex(args.kappa) or DEFAULT_KAPPA,
        },
        "pipelines": "all",
    }
    config = RunConfig.from_dict(doc)  # the rules ``check`` applies, first
    _check_output("--out", args.out)
    model = generate_model(args.seed, args.sites, config.two_s,
                           config.delta_min, eta=config.eta)
    doc["model"]["xi"] = _emit_complex(model.xi)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    config = _load_config(args.config)
    twist_gauge(config.build_model(config.kappa_list[0]), config.kappa_list)
    print("config ok")
    return 0


@functools.cache  # once per process, on the first ``main`` call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sovchain",
        description="spectrum cross-validation for twisted spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute pipelines from a config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("generate", help="generate a model config")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--sites", type=int, required=True)
    p_gen.add_argument("--spins", type=int, nargs="+", required=True,
                       help="twice the spin of each site")
    p_gen.add_argument("--delta-min", type=float, default=DEFAULT_DELTA_MIN)
    p_gen.add_argument("--eta-re", type=float, default=DEFAULT_ETA.real)
    p_gen.add_argument("--eta-im", type=float, default=DEFAULT_ETA.imag)
    p_gen.add_argument("--kappa", type=float, nargs="*", default=(),
                       help="real twist values (complex go in the config)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_check = sub.add_parser("check", help="validate a config only")
    p_check.add_argument("config")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("SOVCHAIN_LOG", "WARNING").upper()
    # getLevelName maps a known name to its number, anything else to a str.
    if not isinstance(logging.getLevelName(level), int):
        print(f"usage error: SOVCHAIN_LOG={level!r} is not a logging level",
              file=sys.stderr)
        return 2
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GenerationExhausted as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 2
    except SovChainError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
