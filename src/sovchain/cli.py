"""Batch harness: configuration, model generation, pipelines, reporting.

A run loads a JSON configuration, builds (or generates) the chain model,
computes the brute-force spectrum, pushes every eigenvalue through the
selected characterizations, and writes a JSON report whose numbers carry
full double precision.  A library error (``SovChainError``) raised for one
eigenvalue and pipeline, or by the separated-basis build, is recorded in
the report as ``{"class", "message"}`` under that pipeline's key and fails
the run without aborting it.  Exit status 0 means every checked quantity
stayed under its tolerance, 1 means some check failed, 2 means the
configuration or invocation was unusable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GenerationExhausted, SovChainError
from .qalgebra import ChainModel, transfer_antiperiodic
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

# Fixed probe points for eigenstate residuals, kept off the rung lattice
# of any generated model.
PROBE_POINTS = (0.23 + 0.11j, -0.4 + 0.6j)


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair")


def _emit_complex(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


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
                or not all(isinstance(v, int) and v >= 1 for v in two_s)):
            raise ConfigError("model.two_s must be a list of positive ints")
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
        if not isinstance(xi_seed, int):
            raise ConfigError("model.seed must be an integer")
        delta_min = model.get("delta_min", 0.05)
        if not isinstance(delta_min, (int, float)) or delta_min <= 0:
            raise ConfigError("model.delta_min must be a positive number")
        eta = _parse_complex(model.get("eta", [0.31, 0.07]), "model.eta")
        kappa_field = model.get("kappa", [[1.0, 0.0]])
        if not isinstance(kappa_field, list) or not kappa_field:
            raise ConfigError("model.kappa must be a nonempty list")
        if (len(kappa_field) == 2
                and all(isinstance(v, (int, float)) for v in kappa_field)):
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
        if not isinstance(retries, int) or retries < 0:
            raise ConfigError("model.max_alpha_retries must be >= 0")

        tolerances = dict(DEFAULT_TOLERANCES)
        for key, value in doc.get("tolerances", {}).items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance '{key}'")
            if not isinstance(value, (int, float)) or value <= 0:
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
                eta=self.eta, kappa=kappa, alpha=self.alpha,
            )
        return ChainModel(
            two_s=self.two_s, xi=self.xi, eta=self.eta, kappa=kappa,
            alpha=self.alpha, delta_min=self.delta_min,
        )


def generate_model(
    seed: int, n_sites: int, two_s, delta_min: float,
    eta: complex = DEFAULT_ETA, kappa: complex = 1.0, alpha: complex = 0.0,
) -> ChainModel:
    """Draw inhomogeneities until the genericity margin holds.

    Real parts are uniform in [0, 2], imaginary parts in [-0.3, 0.3];
    rejection sampling is deterministic per seed and gives up after 10^4
    draws.
    """
    two_s = tuple(int(v) for v in two_s)
    if len(two_s) != n_sites:
        raise ConfigError(
            f"got {len(two_s)} spin values for {n_sites} sites"
        )
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        xi = tuple(
            complex(re, im)
            for re, im in zip(
                rng.uniform(0.0, 2.0, n_sites),
                rng.uniform(-0.3, 0.3, n_sites),
            )
        )
        try:
            return ChainModel(
                two_s=two_s, xi=xi, eta=eta, kappa=kappa, alpha=alpha,
                delta_min=delta_min,
            )
        except ConfigError:
            continue
    raise GenerationExhausted(
        f"no admissible inhomogeneities after 10^4 draws "
        f"(delta_min={delta_min})"
    )


# ----------------------------------------------------------------------
# pipeline orchestration

def _max_abs_diff(first, second):
    return float(np.max(np.abs(
        np.asarray(first, dtype=complex) - np.asarray(second, dtype=complex)
    )))


def _error_entry(exc: SovChainError) -> dict:
    return {"class": type(exc).__name__, "message": str(exc)}


def _describe(exc: SovChainError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_pipelines(config: RunConfig) -> dict:
    """Execute the selected characterizations and assemble the report."""
    tol = config.tolerances
    failures = []
    maxima = {}

    def record(key, value, bound):
        maxima[key] = max(maxima.get(key, 0.0), float(value))
        if value > bound:
            failures.append(
                f"{key}: {value:.3e} exceeds {bound:.1e}"
            )

    kappa0 = config.kappa_list[0]
    model = config.build_model(kappa0)
    log.info("model built: %d sites, dimension %d",
             model.n_sites, model.hilbert_dim)
    spec = sp.brute_force_spectrum(model)
    base_matrix = [list(f.base_values) for f in spec.functions]

    # Twisting the boundary must not move the spectrum.
    iso = 0.0
    for kappa in config.kappa_list[1:]:
        other = config.build_model(kappa)
        other_spec = sp.brute_force_spectrum(other)
        iso = max(iso, _max_abs_diff(
            base_matrix, [list(f.base_values) for f in other_spec.functions]
        ))
    if len(config.kappa_list) > 1:
        record("kappa_isospectrality", iso, tol["matching"])

    basis = basis_error = None
    if "sov" in config.pipelines:
        probes = [(lam, transfer_antiperiodic(model, lam))
                  for lam in PROBE_POINTS]
        right_norms = np.linalg.norm(spec.right, axis=0)
        try:
            basis = sb.build_basis(model)
        except SovChainError as exc:
            basis_error = _error_entry(exc)
            failures.append(f"separated basis: {_describe(exc)}")
        else:
            record("identity_resolution", sb.identity_resolution(basis),
                   tol["identity"])

    zeta0_inhom = ti.draw_zeta0(model, np.random.default_rng(42))
    zeta0_hom = thm.draw_zeta0_hom(model, np.random.default_rng(42))

    # Each step returns (report fields, [(check, value, tolerance), ...]).
    def sov_step(idx, f):
        left, right = sp.build_eigenstates(model, f, basis)
        worst = 0.0
        for lam, t_mat in probes:
            worst = max(
                worst,
                sp.eigen_residual(model, f, right, lam, side="right",
                                  t_mat=t_mat),
                sp.eigen_residual(model, f, left, lam, side="left",
                                  t_mat=t_mat),
            )
        worst = float(worst)
        cross = np.abs(left @ spec.right) / (
            np.linalg.norm(left) * right_norms)
        cross = float(np.max(np.delete(cross, idx)))
        return {"eigenstate_residual": worst, "biorthogonality": cross}, [
            ("eigenstate_residual", worst, tol["matching"]),
            ("biorthogonality", cross, tol["matching"]),
        ]

    def inhom_step(idx, f):
        sol, retries = ti.solve_q_inhom_with_retries(
            model, f, zeta0=zeta0_inhom, alpha=config.alpha,
            max_retries=config.max_alpha_retries,
        )
        grid = ti.inhom_grid_residual(model, f, sol)
        rebuilt, residuals = ti.t_from_q_inhom(model, sol)
        round_trip = _max_abs_diff(rebuilt.base_values, f.base_values)
        return {"inhom": {
            "alpha": _emit_complex(sol.alpha),
            "retries": retries,
            "roots": [_emit_complex(r) for r in sol.roots],
            "grid_residual": float(grid),
            "bethe_max": float(np.max(residuals)),
            "round_trip": round_trip,
        }}, [
            ("inhom_grid_residual", grid, tol["grid"]),
            ("inhom_bethe", float(np.max(residuals)), tol["bethe"]),
            ("inhom_round_trip", round_trip, tol["matching"]),
        ]

    def hom_step(idx, f):
        sol = thm.solve_q_hom(model, f, zeta0=zeta0_hom)
        grid = thm.hom_grid_residual(model, f, sol)
        wron = sol.wronskian_residual
        bethe = thm.bethe_residuals_hom(model, sol)
        angles, _ = thm.q_vector_proportionality(model, sol)
        rebuilt, _ = thm.t_from_q_pair(model, sol)
        round_trip = _max_abs_diff(rebuilt.base_values, f.base_values)
        return {"hom": {
            "roots": [_emit_complex(r) for r in sol.roots],
            "epsilon": sol.epsilon,
            "winding": sol.winding,
            "grid_residual": float(grid),
            "wronskian_residual": float(wron),
            "sum_rule_residual": float(sol.sum_rule_residual),
            "bethe_max": float(np.max(bethe)),
            "proportionality_max": float(np.max(angles)),
            "round_trip": round_trip,
        }}, [
            ("hom_grid_residual", grid, tol["grid"]),
            ("hom_wronskian", wron, tol["grid"]),
            ("hom_sum_rule", sol.sum_rule_residual, tol["bethe"]),
            ("hom_bethe", float(np.max(bethe)), tol["bethe"]),
            ("hom_proportionality", float(np.max(angles)), tol["bethe"]),
            ("hom_round_trip", round_trip, tol["matching"]),
        ]

    steps = [
        (name, key, step)
        for name, key, step in (
            ("sov", "sov", sov_step),
            ("tq-inhom", "inhom", inhom_step),
            ("tq-hom", "hom", hom_step),
        )
        if name in config.pipelines
    ]

    records = []
    for idx, f in enumerate(spec.functions):
        log.debug("eigenvalue %d of %d", idx + 1, len(spec.functions))
        entry = {
            "index": idx,
            "t_at_xi": [_emit_complex(v) for v in f.base_values],
        }
        dres = float(sp.discrete_residual(model, f))
        entry["discrete_residual"] = dres
        record("discrete_residual", dres, tol["determinant"])

        # A library error fails this eigenvalue and pipeline, not the run.
        for name, key, step in steps:
            if key == "sov" and basis_error is not None:
                entry[key] = basis_error
                continue
            try:
                fields, checks = step(idx, f)
            except SovChainError as exc:
                entry[key] = _error_entry(exc)
                failures.append(f"eigenvalue {idx} {name}: {_describe(exc)}")
                continue
            entry.update(fields)
            for check in checks:
                record(*check)

        records.append(entry)

    count_ok = len(records) == model.hilbert_dim
    if not count_ok:
        failures.append(
            f"found {len(records)} eigenvalues for dimension "
            f"{model.hilbert_dim}"
        )

    report = {
        "model": {
            "two_s": list(model.two_s),
            "xi": [_emit_complex(v) for v in model.xi],
            "eta": _emit_complex(model.eta),
            "kappa": [_emit_complex(k) for k in config.kappa_list],
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
            "pass": count_ok and not failures,
        },
    }
    return report


def _write_bethe_csv(path: str, report: dict) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["eigenvalue", "characterization", "root", "re", "im"]
        )
        for entry in report["eigenvalues"]:
            for key in ("inhom", "hom"):
                for j, (re, im) in enumerate(
                    entry.get(key, {}).get("roots", [])
                ):
                    writer.writerow(
                        [entry["index"], key, j, repr(re), repr(im)]
                    )


# ----------------------------------------------------------------------
# entry points

def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc, base_dir=os.path.dirname(path) or ".")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    report = run_pipelines(config)
    path = config.report_path
    if path is None:
        root, _ = os.path.splitext(args.config)
        path = root + ".report.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    if config.bethe_csv_path and any(
        p in config.pipelines for p in ("tq-inhom", "tq-hom")
    ):
        _write_bethe_csv(config.bethe_csv_path, report)
    summary = report["summary"]
    status = "PASS" if summary["pass"] else "FAIL"
    print(f"{status}: {summary['count']} eigenvalues, report {path}")
    for name, value in sorted(summary["max_residuals"].items()):
        print(f"  {name}: {value:.3e}")
    for line in summary["failures"]:
        print(f"  FAILED {line}")
    return 0 if summary["pass"] else 1


def _cmd_generate(args) -> int:
    model = generate_model(
        args.seed, args.sites, args.spins, args.delta_min,
        eta=complex(args.eta_re, args.eta_im),
    )
    doc = {
        "model": {
            "two_s": list(model.two_s),
            "xi": [_emit_complex(v) for v in model.xi],
            "seed": args.seed,
            "delta_min": args.delta_min,
            "eta": _emit_complex(model.eta),
            "kappa": [_emit_complex(complex(k)) for k in args.kappa] or
                     [[1.0, 0.0]],
        },
        "pipelines": "all",
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    config = _load_config(args.config)
    config.build_model(config.kappa_list[0])
    print("config ok")
    return 0


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
    p_gen.add_argument("--delta-min", type=float, default=0.05)
    p_gen.add_argument("--eta-re", type=float, default=DEFAULT_ETA.real)
    p_gen.add_argument("--eta-im", type=float, default=DEFAULT_ETA.imag)
    p_gen.add_argument("--kappa", type=float, nargs="*", default=[],
                       help="real twist values (complex go in the config)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_check = sub.add_parser("check", help="validate a config only")
    p_check.add_argument("config")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("SOVCHAIN_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
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
