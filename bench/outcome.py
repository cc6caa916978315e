"""Checks on the report each run writes, and the accuracy figures read from it."""

from __future__ import annotations

import numpy as np

# Which configured tolerance bounds each entry of summary.max_residuals;
# mirrors the record(...) calls in sovchain.cli.run_pipelines.
RESIDUAL_TOLERANCE = {
    "kappa_isospectrality": "matching",
    "identity_resolution": "identity",
    "discrete_residual": "determinant",
    "eigenstate_residual": "matching",
    "biorthogonality": "matching",
    "inhom_grid_residual": "grid",
    "inhom_bethe": "bethe",
    "inhom_round_trip": "matching",
    "hom_grid_residual": "grid",
    "hom_wronskian": "grid",
    "hom_sum_rule": "bethe",
    "hom_bethe": "bethe",
    "hom_proportionality": "bethe",
    "hom_round_trip": "matching",
}

# Report key each pipeline fills in per eigenvalue.
PIPELINE_KEY = {
    "sov": "eigenstate_residual",
    "tq-inhom": "inhom",
    "tq-hom": "hom",
}

REFERENCE_REL_TOL = 1e-9


def tol_ratio(report: dict):
    """(worst residual / tolerance, residual keys with no known tolerance)."""
    tolerances = report["tolerances"]
    worst = 0.0
    unmapped = []
    for key, value in report["summary"]["max_residuals"].items():
        tol_key = RESIDUAL_TOLERANCE.get(key)
        if tol_key is None or tol_key not in tolerances:
            unmapped.append(key)
            continue
        worst = max(worst, float(value) / float(tolerances[tol_key]))
    return worst, unmapped


def carried(report: dict, pipelines) -> int:
    """Eigenvalues whose entry holds a result from every selected pipeline."""
    keys = [PIPELINE_KEY[p] for p in pipelines]
    return sum(
        all(k in entry for k in keys) for entry in report["eigenvalues"]
    )


def t_at_xi(report: dict) -> np.ndarray:
    """Eigenvalue values at the base points, shape (count, n_sites)."""
    return np.array(
        [[complex(re, im) for re, im in e["t_at_xi"]]
         for e in report["eigenvalues"]],
        dtype=complex,
    ).reshape(len(report["eigenvalues"]), -1)


def match_reference(got: np.ndarray, ref: np.ndarray,
                    rel: float = REFERENCE_REL_TOL):
    """Problem text, or None when every reference eigenvalue has its own
    match in ``got`` within ``rel`` times the spectrum's largest value.

    Eigenvalues are compared as a set, so a change of order is not an error.
    """
    if got.shape != ref.shape:
        return f"shape {got.shape} differs from reference {ref.shape}"
    scale = max(float(np.max(np.abs(ref))), np.finfo(float).tiny)
    dist = np.max(np.abs(got[:, None, :] - ref[None, :, :]), axis=2) / scale
    nearest = np.argmin(dist, axis=0)
    worst = float(np.max(dist[nearest, np.arange(ref.shape[0])]))
    if len(set(nearest.tolist())) != ref.shape[0]:
        return "two reference eigenvalues match the same computed one"
    if worst > rel:
        return f"t_at_xi off the reference by {worst:.2e} relative"
    return None


def check_report(report: dict, doc: dict, dim: int, rc: int,
                 reference=None) -> list:
    """Problems with one run's report; an empty list means it is correct."""
    problems = []
    summary = report["summary"]
    count = len(report["eigenvalues"])
    if count != dim or summary["count"] != dim \
            or summary["hilbert_dim"] != dim:
        problems.append(f"{count} eigenvalues for dimension {dim}")
    if report["model"]["two_s"] != doc["model"]["two_s"]:
        problems.append("report model differs from the config")
    if bool(summary["pass"]) != (rc == 0):
        problems.append(f"exit code {rc} disagrees with pass={summary['pass']}")
    if reference is not None and not problems:
        problem = match_reference(t_at_xi(report), reference)
        if problem:
            problems.append(problem)
    return problems
