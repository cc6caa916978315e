"""Statistics and per-layer metrics computed from recorded samples and spans."""

from __future__ import annotations

import inspect
import statistics

import numpy as np

from tracing import self_times

# Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(n: int):
    """Highest percentile in TAIL_PERCENTILES with at least ten of ``n``
    samples beyond it, or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= 10.0:
            return p
    return None


def timing_summary(values) -> dict:
    """Median, sample count and, when ten samples lie beyond it, the tail."""
    out = {"n": len(values), "p50": median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail"] = (p, float(np.percentile(values, p)))
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ----------------------------------------------------------------------
# spans


class SpanTable:
    """Recorded spans as arrays, with each span's parent name resolved."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id)
        self.parent = np.asarray(parent)
        self.dur = np.asarray(end) - np.asarray(start)
        self.self_time = self_times(start, end, parent)
        no_parent = len(self.names)
        self.parent_name_id = np.where(
            self.parent >= 0, self.name_id[np.maximum(self.parent, 0)],
            no_parent,
        )

    def _mask(self, names, parent=None):
        ids = [self.names.index(n) for n in names if n in self.names]
        mask = np.isin(self.name_id, ids)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            mask &= self.parent_name_id == pid
        return mask

    def calls(self, *names, parent=None) -> int:
        return int(np.count_nonzero(self._mask(names, parent)))

    def seconds(self, *names, parent=None) -> float:
        return float(np.sum(self.dur[self._mask(names, parent)]))

    def by_name(self):
        """(name, calls, inclusive s, self s) for every span name."""
        rows = []
        for nid, name in enumerate(self.names):
            mask = self.name_id == nid
            if mask.any():
                rows.append((name, int(mask.sum()),
                             float(self.dur[mask].sum()),
                             float(self.self_time[mask].sum())))
        return rows


RUN = "cli.run_pipelines"
INHOM_VERIFY = ("tq_inhom.inhom_grid_residual", "tq_inhom.t_from_q_inhom")
HOM_VERIFY = (
    "tq_hom.hom_grid_residual", "tq_hom.verify_wronskian_identity",
    "tq_hom.sum_rule_check", "tq_hom.bethe_residuals_hom",
    "tq_hom.q_vector_proportionality", "tq_hom.t_from_q_pair",
)

# Stages of one run: the calls run_pipelines makes directly, by span name.
STAGES = {
    "model": ("cli.RunConfig.build_model",),
    "oracle": ("spectrum.brute_force_spectrum",),
    "sov_basis": ("sovbasis.build_basis", "sovbasis.identity_resolution"),
    "ladder_check": ("spectrum.discrete_residual",),
    "eigenstates": ("spectrum.build_eigenstates",),
    "probe_residual": ("spectrum.eigen_residual",),
    "tq_inhom.solve": ("tq_inhom.draw_zeta0",
                       "tq_inhom.solve_q_inhom_with_retries"),
    "tq_inhom.verify": INHOM_VERIFY,
    "tq_hom.solve": ("tq_hom.draw_zeta0_hom", "tq_hom.solve_q_hom"),
    "tq_hom.verify": HOM_VERIFY,
}


def stage_times(spans: SpanTable, wall: float) -> dict:
    """Seconds per stage; together with the glue entries they sum to wall.

    ``run_pipelines.self`` is work run_pipelines does inline (such as the
    biorthogonality products), ``cli.overhead`` is config load and report
    write, and ``bench.glue`` is the benchmark's own time around cli.main.
    """
    out = {}
    known = set()
    for stage, names in STAGES.items():
        out[stage] = spans.seconds(*names, parent=RUN)
        known.update(names)
    rid = spans.names.index(RUN) if RUN in spans.names else -2
    for nid, name in enumerate(spans.names):
        if name not in known:
            mask = (spans.name_id == nid) & (spans.parent_name_id == rid)
            if mask.any():
                out["other:" + name] = float(spans.dur[mask].sum())
    main = spans.seconds("cli.main")
    run = spans.seconds(RUN)
    out["run_pipelines.self"] = run - sum(out.values())
    out["cli.overhead"] = main - run
    out["bench.glue"] = wall - main
    return out


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def monodromy_stats(calls, monodromy) -> dict:
    """Call count, distinct (model, lambda) points and computed GFLOP.

    Each site after the first costs eight dim x dim complex matrix products
    at 8 real flops per complex multiply-add: 64 (N - 1) dim^3 flops.
    """
    keys = set()
    flops = 0
    for args, kwargs in calls:
        a = _bound(monodromy, args, kwargs)
        model = a["model"]
        keys.add((model, complex(a["lam"])))
        flops += 64 * (model.n_sites - 1) * model.hilbert_dim ** 3
    return {"calls": len(calls), "distinct": len(keys),
            "gflop": flops / 1e9}


def vandermonde_cond_max(calls, from_values) -> float:
    """Largest condition number of the monomial Vandermonde matrices that
    TrigPoly.from_values solved, recomputed from the nodes passed in."""
    worst = 0.0
    for args, kwargs in calls:
        a = _bound(from_values, args, kwargs)
        nodes = np.asarray(a["nodes"], dtype=complex)
        z = np.exp(2.0 * a["angle_scale"] * nodes)
        vand = z[:, None] ** np.arange(z.size)[None, :]
        worst = max(worst, float(np.linalg.cond(vand)))
    return worst


def layer_metrics(spans: SpanTable, mono: dict, cond_max: float) -> dict:
    """Per-layer metrics (values only) from the spans of the traced runs."""
    retries = (spans.calls("tq_inhom.solve_q_inhom",
                           parent="tq_inhom.solve_q_inhom_with_retries")
               - spans.calls("tq_inhom.solve_q_inhom_with_retries"))
    return {
        "qalgebra.monodromy.calls": mono["calls"],
        "qalgebra.monodromy.distinct": mono["distinct"],
        "qalgebra.monodromy.useful_ratio":
            mono["distinct"] / mono["calls"] if mono["calls"] else 0.0,
        "qalgebra.monodromy.s": spans.seconds("qalgebra.monodromy"),
        "qalgebra.monodromy.gflop": mono["gflop"],
        "spectrum.oracle.s": spans.seconds("spectrum.brute_force_spectrum"),
        "spectrum.oracle.calls": spans.calls("spectrum.brute_force_spectrum"),
        "spectrum.probe_residual.s":
            spans.seconds("spectrum.eigen_residual", parent=RUN),
        "spectrum.probe_residual.calls":
            spans.calls("spectrum.eigen_residual", parent=RUN),
        "spectrum.eigenstates.s": spans.seconds("spectrum.build_eigenstates"),
        "sovbasis.build.s": spans.seconds("sovbasis.build_basis"),
        "sovbasis.identity.s": spans.seconds("sovbasis.identity_resolution"),
        "spectrum.eigfun.calls":
            spans.calls("spectrum.EigenvalueFunction.__call__"),
        "spectrum.eigfun.s":
            spans.seconds("spectrum.EigenvalueFunction.__call__"),
        "spectrum.ladder_nullspace.calls":
            spans.calls("spectrum.ladder_nullspace"),
        "spectrum.ladder_check.s": spans.seconds("spectrum.discrete_residual"),
        "tq_inhom.solve.s":
            spans.seconds("tq_inhom.solve_q_inhom_with_retries"),
        "tq_inhom.verify.s": spans.seconds(*INHOM_VERIFY, parent=RUN),
        "tq_inhom.alpha_retries": retries,
        "tq_hom.solve.s": spans.seconds("tq_hom.solve_q_hom", parent=RUN),
        "tq_hom.verify.s": spans.seconds(*HOM_VERIFY, parent=RUN),
        "trigpoly.from_values.calls":
            spans.calls("trigpoly.TrigPoly.from_values"),
        "trigpoly.from_values.s":
            spans.seconds("trigpoly.TrigPoly.from_values"),
        "trigpoly.from_values.cond_max": cond_max,
        "trigpoly.roots.calls": spans.calls("trigpoly.TrigPoly.roots"),
        "trigpoly.roots.s": spans.seconds("trigpoly.TrigPoly.roots"),
        "cli.overhead.s": spans.seconds("cli.main") - spans.seconds(RUN),
    }

