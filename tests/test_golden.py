"""Refactor gate: full run reports on two reference configurations.

``tests/data/golden_reports.json`` holds the complete ``run_pipelines``
report for each configuration in ``CONFIGS``.  A refactor must reproduce
every string, bool, int and recorded error exactly and every float to
rtol 1e-12 (or atol 1e-14 near zero).  A change that moves the numerics on
purpose re-captures the file with ``python tests/test_golden.py`` and says
so in its change notes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from sovchain.cli import RunConfig, run_pipelines

DATA = Path(__file__).parent / "data" / "golden_reports.json"
RTOL = 1e-12
ATOL = 1e-14

# (1,2,1) passes every pipeline; (2,2) records a PoleAtXi under tq-inhom.
CONFIGS = {
    name: {
        "model": {"two_s": list(two_s), "xi": "random", "seed": 11,
                  "kappa": [[1.0, 0.0], [0.6, 0.8]]},
        "pipelines": "all",
    }
    for name, two_s in (("1-2-1", (1, 2, 1)), ("2-2", (2, 2)))
}


def _report(name: str) -> dict:
    return run_pipelines(RunConfig.from_dict(CONFIGS[name]))


def _mismatches(got, want, path="report"):
    """Paths at which got differs from want beyond the gate."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k],
                                                     f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, golden):
    got = json.loads(json.dumps(_report(name)))
    assert _mismatches(got, golden[name]) == []


def test_golden_two_spin_one_records_pole_at_xi(golden):
    errors = [entry["inhom"] for entry in golden["2-2"]["eigenvalues"]
              if "class" in entry["inhom"]]
    assert errors and all(e["class"] == "PoleAtXi" for e in errors)


def test_mismatch_walker_applies_the_bounds():
    want = {"a": [1.0, "x", True, 3], "e": {"class": "PoleAtXi"}}
    assert _mismatches(json.loads(json.dumps(want)), want) == []
    assert _mismatches({"a": [1.0 + 1e-13, "x", True, 3],
                        "e": {"class": "PoleAtXi"}}, want) == []
    assert _mismatches({"a": [1.0 + 1e-11, "x", True, 3],
                        "e": {"class": "PoleAtXi"}}, want)
    assert _mismatches({"a": [1.0, "x", 1, 3],
                        "e": {"class": "PoleAtXi"}}, want)
    assert _mismatches({"a": [1.0, "x", True, 3.0],
                        "e": {"class": "NotEntire"}}, want)
    assert _mismatches({"a": [0.0], "e": {}}, {"a": [5e-15], "e": {}}) == []


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({n: _report(n) for n in sorted(CONFIGS)},
                               indent=1) + "\n")
    print(f"wrote {DATA}")
