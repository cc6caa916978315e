"""Tests for the benchmark's own arithmetic, tracing and config generation.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from outcome import (
    RESIDUAL_TOLERANCE, carried, check_report, match_reference, tol_ratio,
)
from speed import PROBE_REF_S, at_reference, probe
from summary import (
    SpanTable, median, quartile_spread, stage_times, tail_percentile,
    timing_summary,
)
from tracing import Tracer, self_times
from workloads import CENSUS, WORKLOADS, census_configs, hilbert_dim, make_config

import sovchain.cli as cli
import sovchain.qalgebra as qa
import sovchain.sovbasis as sb
from sovchain.spectrum import EigenvalueFunction
from sovchain.trigpoly import TrigPoly


# ----------------------------------------------------------------------
# percentiles and sample counts


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (39, None), (40, 75), (100, 90), (199, 90),
    (200, 95), (1000, 99), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_timing_summary_reports_count_median_and_tail():
    small = timing_summary([3.0, 1.0, 2.0, 10.0])
    assert small == {"n": 4, "p50": 2.5}
    values = list(range(1, 101))
    big = timing_summary(values)
    assert big["n"] == 100 and big["p50"] == 50.5
    p, value = big["tail"]
    assert p == 90
    assert sum(v > value for v in values) >= 10
    assert value == pytest.approx(np.percentile(values, 90))


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles(n=4), exclusive method: 2.75, 5.5, 8.25
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert median(values) == 5.5


def test_at_reference_scales_by_the_mean_of_the_probes_around():
    assert at_reference(2.0, PROBE_REF_S, PROBE_REF_S) == pytest.approx(2.0)
    slow = 1.5 * PROBE_REF_S
    assert at_reference(3.0, slow, slow) == pytest.approx(2.0)
    assert at_reference(3.0, PROBE_REF_S, 2 * PROBE_REF_S) == \
        pytest.approx(2.0)
    assert probe() > 0.0


# ----------------------------------------------------------------------
# spans and self time


def _nested():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    names = ["root", "a", "g", "b"]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    return names, start, end, parent


def test_self_time_subtracts_direct_children_only():
    _, start, end, parent = _nested()
    own = self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == pytest.approx(end[0] - start[0])


def test_span_table_resolves_parents_and_sums():
    names, start, end, parent = _nested()
    spans = SpanTable(names, [0, 1, 2, 3], parent, start, end)
    assert spans.calls("a", "b", parent="root") == 2
    assert spans.calls("g", parent="root") == 0
    assert spans.seconds("a", "g") == 4.0
    rows = {r[0]: r[1:] for r in spans.by_name()}
    assert rows["root"] == (1, 10.0, 3.0)


def test_stage_times_account_for_wall():
    names = ["cli.main", "cli.run_pipelines",
             "spectrum.brute_force_spectrum", "spectrum.lonely"]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [9.0, 8.0, 5.0, 7.0]
    parent = [-1, 0, 1, 1]
    spans = SpanTable(names, [0, 1, 2, 3], parent, start, end)
    stages = stage_times(spans, wall=9.5)
    assert stages["oracle"] == 3.0
    assert stages["other:spectrum.lonely"] == 1.0
    assert stages["run_pipelines.self"] == 3.0
    assert stages["cli.overhead"] == 2.0
    assert stages["bench.glue"] == 0.5
    assert sum(stages.values()) == pytest.approx(9.5)


def _small_model():
    return cli.generate_model(3, 2, (1, 1), 0.05, kappa=np.exp(0.3j))


def test_tracer_wraps_every_binding_site_and_restores():
    before = (qa.monodromy, sb.monodromy, EigenvalueFunction.__call__,
              TrigPoly.__dict__["from_values"])
    tracer = Tracer(capture=("qalgebra.monodromy",))
    tracer.install()
    try:
        assert sb.monodromy is qa.monodromy is not before[0]
        tracer.run_id = 7
        model = _small_model()
        qa.transfer_antiperiodic(model, 0.1 + 0.2j)
        sb.build_basis(model)
        EigenvalueFunction(model, (1.0, 2.0))(0.3)
        TrigPoly.from_values([0.1, 0.5], [1.0, 2.0], m=0)
    finally:
        tracer.uninstall()
    after = (qa.monodromy, sb.monodromy, EigenvalueFunction.__call__,
             TrigPoly.__dict__["from_values"])
    assert all(x is y for x, y in zip(before, after))

    names = [tracer.names[i] for i in tracer.name_id]
    arrays = tracer.arrays()
    assert set(arrays["run"].tolist()) == {7}
    # transfer -> monodromy -> lax: parents point at the enclosing call
    first = names.index("qalgebra.transfer_antiperiodic")
    mono = names.index("qalgebra.monodromy")
    assert arrays["parent"][first] == -1
    assert arrays["parent"][mono] == first
    assert names[arrays["parent"][names.index("qalgebra.lax")]] == \
        "qalgebra.monodromy"
    # the basis build reaches monodromy through sovbasis's own binding
    assert names.count("qalgebra.monodromy") > 1
    assert len(tracer.captured["qalgebra.monodromy"]) == \
        names.count("qalgebra.monodromy")
    assert "spectrum.EigenvalueFunction.__call__" in names
    assert "trigpoly.TrigPoly.from_values" in names
    assert np.all(arrays["end"] >= arrays["start"])


def test_tracer_records_span_when_call_raises():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(Exception):
            qa.xi_shifted(_small_model(), 9, 0)
    finally:
        tracer.uninstall()
    arrays = tracer.arrays()
    assert tracer.names[arrays["name_id"][-1]] == "qalgebra.xi_shifted"
    assert arrays["end"][-1] >= arrays["start"][-1] > 0.0
    assert not tracer._stack


# ----------------------------------------------------------------------
# residual -> tolerance map behind tol_ratio.max


def test_every_residual_the_cli_records_has_a_tolerance(tmp_path):
    doc = make_config(WORKLOADS["high-spin"], 0, 0)
    doc["model"]["two_s"] = [1, 1]
    report = cli.run_pipelines(cli.RunConfig.from_dict(doc))
    keys = set(report["summary"]["max_residuals"])
    assert keys <= set(RESIDUAL_TOLERANCE)
    assert set(RESIDUAL_TOLERANCE.values()) <= set(cli.DEFAULT_TOLERANCES)
    worst, unmapped = tol_ratio(report)
    assert unmapped == []
    expected = max(
        v / report["tolerances"][RESIDUAL_TOLERANCE[k]]
        for k, v in report["summary"]["max_residuals"].items()
    )
    assert worst == expected
    assert carried(report, report["pipelines"]) == 4


def test_tol_ratio_uses_the_mapped_tolerance_and_lists_unknown_keys():
    report = {
        "tolerances": {"grid": 1e-8, "bethe": 1e-7, "matching": 1e-8},
        "summary": {"max_residuals": {
            "hom_bethe": 2e-6,          # bethe: ratio 20
            "hom_wronskian": 5e-8,      # grid: ratio 5
            "new_check": 1.0,
        }},
    }
    worst, unmapped = tol_ratio(report)
    assert worst == pytest.approx(20.0)
    assert unmapped == ["new_check"]


# ----------------------------------------------------------------------
# output check


def _report(values, rc_pass=True, dim=None):
    entries = [{"index": i, "t_at_xi": [[v.real, v.imag] for v in row],
                "hom": {}} for i, row in enumerate(values)]
    dim = len(entries) if dim is None else dim
    return {
        "model": {"two_s": [1, 1]},
        "pipelines": ["tq-hom"],
        "eigenvalues": entries,
        "summary": {"count": len(entries), "hilbert_dim": dim,
                    "pass": rc_pass},
    }


def test_reference_match_ignores_order_and_catches_drift():
    ref = np.array([[1 + 1j, 2.0], [-3.0, 0.5j], [0.1, 4 - 2j], [2, 2]])
    assert match_reference(ref[::-1].copy(), ref) is None
    assert match_reference(ref * (1 + 1e-11), ref) is None
    drifted = ref.copy()
    drifted[2, 1] += 4.5 * 1e-8
    assert "off the reference" in match_reference(drifted, ref)
    merged = ref.copy()
    merged[1] = merged[0]
    assert match_reference(merged, ref) is not None
    assert "shape" in match_reference(ref[:3], ref)


def test_check_report_flags_count_exit_code_and_reference():
    doc = {"model": {"two_s": [1, 1]}}
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6j], [7.0, 8.0]])
    assert check_report(_report(values), doc, 4, 0, values) == []
    assert check_report(_report(values[:3], dim=4), doc, 4, 0)
    assert check_report(_report(values, rc_pass=False), doc, 4, 0)
    assert check_report(_report(values), doc, 4, 0, values + 1.0)


# ----------------------------------------------------------------------
# config generation


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_are_deterministic_and_pairwise_distinct(name):
    workload = WORKLOADS[name]
    first = [make_config(workload, 5, i) for i in range(64)]
    again = [make_config(workload, 5, i) for i in range(64)]
    assert first == again
    models = {json.dumps(d["model"], sort_keys=True) for d in first}
    assert len(models) == len(first)
    other_seed = {json.dumps(make_config(workload, 6, i)["model"],
                             sort_keys=True) for i in range(64)}
    assert not models & other_seed
    for i, doc in enumerate(first):
        assert tuple(doc["model"]["two_s"]) == \
            workload.shapes[i % workload.cycle]
        assert len(doc["model"]["kappa"]) == workload.twists
        assert all(abs(complex(*k)) == pytest.approx(1.0)
                   for k in doc["model"]["kappa"])
        cli.RunConfig.from_dict(doc)


def test_census_covers_each_shape_with_each_pipeline():
    rows = census_configs(0)
    assert [(s, p) for s, p, _ in rows] == [
        (shape, p) for shape in CENSUS.shapes
        for p in ("sov", "tq-inhom", "tq-hom")
    ]
    assert {hilbert_dim(d) for _, _, d in rows} == {9, 27, 64}
    assert all(d["pipelines"] == [p] for _, p, d in rows)
