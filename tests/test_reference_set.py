"""Reference-set gate: the verdict, failure lines and residual maxima of
every configuration of the reference set.

The set is the first 12 configurations of each benchmark workload at seeds
0 and 3 (``bench.workloads.make_config``), and every census shape
(``SHAPES``, the one list of them) at seeds 0-2 with twists 1 and
0.6+0.8i, all pipelines.  ``tests/data/reference_set.json`` holds each
configuration's document and, from its ``run_pipelines`` report,
``pass``, ``max_residuals`` and every failure line split into [row, key,
value] (``failure_keys``).  A rerun must reproduce the verdict, the keys
and the rows exactly and every value under ``test_golden.py``'s rule:
rtol 1e-12, and a value below 1e-14 within a factor of 10.  A census
configuration of a ``GATED`` shape must also PASS.  A change that moves
numbers on purpose re-captures the file with ``python
tests/test_reference_set.py``, which also prints the census table; the
file's diff is then the census before and after.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from sovchain.cli import CHECKS, REPORT_KEYS, RunConfig, run_pipelines
from test_golden import _mismatches

DATA = Path(__file__).parent / "data" / "reference_set.json"
BENCH_SEEDS = (0, 3)
BENCH_CONFIGS = 12
SEEDS = (0, 1, 2)
# The census: the accuracy census of the ROADMAP state block, the golden
# shapes and the gated shapes.  New shapes go at the end, so that the
# entries already in the file keep their text.
SHAPES = [(1, 1, 1), (1, 2), (2, 3), (1, 2, 2), (2,), (2, 2), (4,), (1, 4),
          (1,) * 6, (3, 3), (2, 1, 3), (2, 2, 2), (2, 4), (1,) * 8,
          (2, 2, 2, 2), (3, 3, 3), (1, 2, 1), (1, 3, 2), (1,) * 7,
          (3,), (5,), (1, 1), (1, 3), (1, 1, 2), (1, 1, 3), (1,) * 4,
          (1,) * 5]
# The gated census: every shape that PASSes every pipeline at seeds 0-2.
# (1,4), (1,)*6, (3,3), (2,1,3), (2,2,2) and (2,4) each fail at some seed;
# they wait for ROADMAP item 4.  The integer-spin shapes' base points are
# inner rungs, where some tq-inhom Q has a root: the zero eigenvalue's on
# (2,) and (2,2), eigenvalues 1 and 3 on (4,).
GATED = [(2,), (3,), (4,), (5,), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3),
         (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1,) * 4,
         (1,) * 5]


def census_name(two_s, seed) -> str:
    return f"census/{'-'.join(map(str, two_s))}/seed{seed}"


def census_doc(two_s, seed) -> dict:
    return {"model": {"two_s": list(two_s), "xi": "random", "seed": seed,
                      "kappa": [[1.0, 0.0], [0.6, 0.8]]},
            "pipelines": "all"}


def reference_configs() -> dict:
    """The reference set's configuration documents, by name."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from bench.workloads import WORKLOADS, make_config

    docs = {f"{name}/seed{seed}/{index:02d}": make_config(work, seed, index)
            for name, work in WORKLOADS.items() for seed in BENCH_SEEDS
            for index in range(BENCH_CONFIGS)}
    for two_s in SHAPES:
        for seed in SEEDS:
            docs[census_name(two_s, seed)] = census_doc(two_s, seed)
    return docs


def failure_keys(report: dict) -> list:
    """Each failure line of a report as [row, key, value], in its order.

    Row -1 marks the run's own lines.  A failed check has its name as key
    and the full-precision value its line rounds; a recorded error has
    "<pipeline>:<class>" and None.  Raises if the lines rebuilt from the
    keys are not the report's.
    """
    tol, summary = report["tolerances"], report["summary"]
    top, keys, lines = summary["max_residuals"], [], []

    def check(row, name, value, bound):
        if not value <= tol[bound]:
            keys.append([row, name, value])
            lines.append(f"{name}: {value:.3e} exceeds {tol[bound]:.1e}")

    def error(row, pipeline, entry, prefix):
        keys.append([row, f"{pipeline}:{entry['class']}", None])
        lines.append(f"{prefix}: {entry['class']}: {entry['message']}")

    if "kappa_isospectrality" in top:
        check(-1, "kappa_isospectrality", top["kappa_isospectrality"],
              "matching")
    entries, pipelines = report["eigenvalues"], report["pipelines"]
    basis_failed = "sov" in pipelines and "identity_resolution" not in top
    if basis_failed:
        error(-1, "sov", entries[0]["sov"], "separated basis")
    elif "sov" in pipelines:
        check(-1, "identity_resolution", top["identity_resolution"],
              "identity")
    for row, entry in enumerate(entries):
        check(row, "discrete_residual", entry["discrete_residual"],
              "determinant")
        for pipeline, key in REPORT_KEYS.items():
            if pipeline not in pipelines or key == "sov" and basis_failed:
                continue
            part = entry.get(key, entry) if key == "sov" else entry[key]
            if "class" in part:
                error(row, pipeline, part, f"eigenvalue {row} {pipeline}")
                continue
            for name, (owner, field, bound) in CHECKS.items():
                if owner == pipeline:
                    check(row, name, part[field], bound)
    if lines != summary["failures"] or summary["pass"] != (not lines):
        raise AssertionError("failure keys do not rebuild the report's lines")
    return keys


def summarize(doc: dict) -> dict:
    """What the gate keeps of one configuration's report.

    Each document runs once per session: the gated-census tests of
    ``test_cli.py`` read the same summaries.
    """
    return json.loads(_summary(json.dumps(doc, sort_keys=True)))


@functools.lru_cache(maxsize=None)
def _summary(text: str) -> str:
    doc = json.loads(text)
    report = json.loads(json.dumps(run_pipelines(RunConfig.from_dict(doc))))
    summary = report["summary"]
    return json.dumps({"pass": summary["pass"],
                       "max_residuals": summary["max_residuals"],
                       "failures": failure_keys(report)})


def _dumps(data: dict) -> str:
    """The file's text: one line per field and one per failure, so that a
    diff shows each number that moved."""
    blocks = []
    for name, entry in data.items():
        fields = [f" {json.dumps(k)}: {json.dumps(v)}"
                  for k, v in entry.items() if k != "failures"]
        rows = "".join(f"\n  {json.dumps(f)}," for f in entry["failures"])
        fields.append(f' "failures": [{rows.rstrip(",")}\n ]' if rows
                      else ' "failures": []')
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def census_table(data: dict) -> str:
    """The failure-line count of each census shape at each seed, PASS for
    none, as the ROADMAP state block's table."""
    rows = ["| Shape | n_s | " + " | ".join(f"Seed {s}" for s in SEEDS) + " |",
            "|---|---|" + "---|" * len(SEEDS)]
    for two_s in SHAPES:
        entries = [data[census_name(two_s, seed)] for seed in SEEDS]
        cells = [f"{len(e['failures']):,}" if e["failures"] else "PASS"
                 for e in entries]
        shape = ",".join(map(str, two_s)) + "," * (len(two_s) == 1)
        rows.append(f"| ({shape}) | {sum(two_s)} | {' | '.join(cells)} |")
    return "\n".join(rows)


REFERENCE = json.loads(DATA.read_text()) if DATA.exists() else {}
GATED_NAMES = {census_name(two_s, seed) for two_s in GATED for seed in SEEDS}


def test_the_file_holds_the_reference_configs():
    # A shape added to SHAPES without a re-capture would go ungated.
    assert {name: entry["config"] for name, entry in REFERENCE.items()} == (
        reference_configs())


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_config_matches(name):
    want = dict(REFERENCE[name])
    got = summarize(want.pop("config"))
    assert _mismatches(got, want) == []
    if name in GATED_NAMES:
        assert got["pass"] is True and got["failures"] == []


def test_failure_keys_rebuild_the_lines():
    report = {
        "tolerances": {"matching": 1e-9, "determinant": 1e-9, "bethe": 1e-7,
                       "grid": 1e-8, "identity": 1e-9},
        "pipelines": ["tq-hom"],
        "eigenvalues": [
            {"discrete_residual": 2e-9,
             "hom": {"class": "NotEntire", "message": "pole"}},
            {"discrete_residual": 0.0,
             "hom": {"grid_residual": 0.0, "wronskian_residual": 0.0,
                     "sum_rule_residual": 0.0, "bethe_max": 1.5e-7,
                     "proportionality_max": 0.0, "round_trip": 0.0}},
        ],
        "summary": {"max_residuals": {"kappa_isospectrality": 1e-8},
                    "pass": False, "failures": [
                        "kappa_isospectrality: 1.000e-08 exceeds 1.0e-09",
                        "discrete_residual: 2.000e-09 exceeds 1.0e-09",
                        "eigenvalue 0 tq-hom: NotEntire: pole",
                        "hom_bethe: 1.500e-07 exceeds 1.0e-07"]},
    }
    assert failure_keys(report) == [
        [-1, "kappa_isospectrality", 1e-8], [0, "discrete_residual", 2e-9],
        [0, "tq-hom:NotEntire", None], [1, "hom_bethe", 1.5e-7]]
    report["summary"]["failures"].pop()
    with pytest.raises(AssertionError):
        failure_keys(report)
    basis = dict(report, pipelines=["sov"], eigenvalues=[
        {"discrete_residual": 0.0, "sov": {"class": "ConditioningFailure",
                                           "message": "collapsed"}}])
    basis["summary"] = {"max_residuals": {}, "pass": False, "failures": [
        "separated basis: ConditioningFailure: collapsed"]}
    assert failure_keys(basis) == [[-1, "sov:ConditioningFailure", None]]


if __name__ == "__main__":
    data = {name: {"config": doc, **summarize(doc)}
            for name, doc in reference_configs().items()}
    text = _dumps(data)
    assert json.loads(text) == data
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(text)
    print(f"wrote {DATA}: {len(data)} configurations, "
          f"{sum(not e['pass'] for e in data.values())} FAIL")
    print(census_table(json.loads(DATA.read_text())))
