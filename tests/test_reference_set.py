"""Reference-set gate, the one regression gate: the verdict, failure
lines and residual maxima of every configuration of the reference set,
and the full report of the golden ones.

The set is the first 12 configurations of each benchmark workload at seeds
0 and 3 (``bench.workloads.make_config``), every census shape (``SHAPES``,
the one list of them) at seeds 0-2 with twists 1 and 0.6+0.8i, and the
four golden configurations (``GOLDEN``) at seed 11, all pipelines.
``tests/data/reference_set.json`` holds each configuration's document
and, from its ``run_pipelines`` report, ``pass``, ``max_residuals`` and
every failure line split into [row, key, value] (``failure_keys``); a
golden entry also holds the whole report.  A rerun must reproduce every
string, bool, int, key and recorded error exactly and every float to rtol
1e-12 (or atol 1e-14 near zero); a float whose stored value is below
1e-14, such as a residual at rounding level, must stay within a factor of
10 of it, or both must be 0 (``_mismatches``).  A census configuration of
a ``GATED`` shape must also PASS.  A change that moves numbers on purpose
re-captures the file with ``python tests/test_reference_set.py``, which
pins BLAS to one thread, also prints the census table, and says so in its
change notes; the file's diff is then the census before and after.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from pathlib import Path

import pytest

from sovchain.cli import CHECKS, REPORT_KEYS, RunConfig, run_pipelines
from sovchain.qalgebra import distance_to_ipi_lattice

DATA = Path(__file__).parent / "data" / "reference_set.json"
RTOL = 1e-12
ATOL = 1e-14
TINY_FACTOR = 10.0
BENCH_SEEDS = (0, 3)
BENCH_CONFIGS = 12
SEEDS = (0, 1, 2)
TWISTS = ((1.0, 0.0), (0.6, 0.8))
# The census: the accuracy census of the ROADMAP state block, the golden
# shapes (1,2,1) and (1,3,2) and the gated shapes.  New shapes go at the
# end, so that the entries already in the file keep their text.
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
# The golden configurations, each with its twists, at seed 11.  (1,2,1)
# passes every pipeline; (2,2) has its base points on inner rungs, so both
# T-Q round trips sample t at an offset copy of them, and its zero
# eigenvalue has a tq-inhom root on a base point; (1,4) is the smallest
# high-spin shape, a 5-rung spin-2 ladder.  (1,3,2) has model twist
# 0.6+0.8i, so the oracle's gauged products differ from the untwisted ones,
# and its two 12-state flip sectors take ``_parity_halves``' XY route.
GOLDEN = [((1, 2, 1), TWISTS), ((2, 2), TWISTS), ((1, 4), TWISTS),
          ((1, 3, 2), TWISTS[::-1])]
GOLDEN_SEED = 11


def golden_name(two_s) -> str:
    return f"golden/{'-'.join(map(str, two_s))}"


def census_name(two_s, seed) -> str:
    return f"census/{'-'.join(map(str, two_s))}/seed{seed}"


def census_doc(two_s, seed, kappa=TWISTS) -> dict:
    return {"model": {"two_s": list(two_s), "xi": "random", "seed": seed,
                      "kappa": [list(k) for k in kappa]},
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
    for two_s, kappa in GOLDEN:
        docs[golden_name(two_s)] = census_doc(two_s, GOLDEN_SEED, kappa)
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


def summarize(doc: dict, full: bool = False) -> dict:
    """What the gate keeps of one configuration's report, and with full
    the report itself.

    Each document runs once per session: the gated-census tests of
    ``test_cli.py`` read the same summaries.
    """
    return json.loads(_summary(json.dumps(doc, sort_keys=True), full))


@functools.lru_cache(maxsize=None)
def _summary(text: str, full: bool) -> str:
    doc = json.loads(text)
    report = json.loads(json.dumps(run_pipelines(RunConfig.from_dict(doc))))
    summary = report["summary"]
    kept = {"pass": summary["pass"], "max_residuals": summary["max_residuals"],
            "failures": failure_keys(report)}
    return json.dumps({**kept, "report": report} if full else kept)


def _mismatches(got, want, path="entry"):
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
        if abs(want) < ATOL:
            # Within ATOL of a tiny value anything would pass.
            low, high = sorted((abs(got), abs(want)))
            if high <= TINY_FACTOR * low:
                return []
        elif math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def _field(key: str, value, pad: str = " ") -> str:
    """One field of the file: a failure list or an eigenvalue list one
    item per line, a report one field per line, anything else one line."""
    if key in ("failures", "eigenvalues") and value:
        rows = ",".join(f"\n{pad} {json.dumps(row)}" for row in value)
        return f"{pad}{json.dumps(key)}: [{rows}\n{pad}]"
    if key == "report":
        fields = ",\n".join(_field(k, v, pad + " ") for k, v in value.items())
        return f"{pad}{json.dumps(key)}: {{\n{fields}\n{pad}}}"
    return f"{pad}{json.dumps(key)}: {json.dumps(value)}"


def _dumps(data: dict) -> str:
    """The file's text: one line per field, per failure and per golden
    eigenvalue, so that a diff shows each number or root that moved."""
    blocks = [f"{json.dumps(name)}: {{\n"
              + ",\n".join(_field(k, v) for k, v in entry.items()) + "\n}"
              for name, entry in data.items()]
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
FULL_NAMES = {golden_name(two_s) for two_s, _ in GOLDEN}


def test_the_file_holds_the_reference_configs():
    # A shape added to SHAPES without a re-capture would go ungated.
    assert {name: entry["config"] for name, entry in REFERENCE.items()} == (
        reference_configs())


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_config_matches(name):
    want = dict(REFERENCE[name])
    got = summarize(want.pop("config"), name in FULL_NAMES)
    assert _mismatches(got, want, name) == []
    if name in GATED_NAMES:
        assert got["pass"] is True and got["failures"] == []


def test_golden_two_spin_one_records_pole_at_xi():
    # The zero eigenvalue's tq-inhom Q has a root on base point 1, where a
    # division by Q at the base points would meet a pole.  The stored
    # report records that root, and every pipeline passes.
    report = REFERENCE[golden_name((2, 2))]["report"]
    xi = complex(*report["model"]["xi"][0])
    roots = [complex(*r) for r in report["eigenvalues"][4]["inhom"]["roots"]]
    assert min(distance_to_ipi_lattice(r - xi) for r in roots) < 1e-8
    assert report["summary"]["failures"] == []
    assert report["summary"]["pass"] is True


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
    tiny = {"a": [5e-15, 0.0], "e": {}}
    assert _mismatches({"a": [4e-14, 0.0], "e": {}}, tiny) == []
    assert _mismatches({"a": [-6e-16, 0.0], "e": {}}, tiny) == []
    assert _mismatches({"a": [6e-14, 0.0], "e": {}}, tiny)
    assert _mismatches({"a": [4e-16, 0.0], "e": {}}, tiny)
    assert _mismatches({"a": [0.0, 0.0], "e": {}}, tiny)
    assert _mismatches({"a": [5e-15, 1e-300], "e": {}}, tiny)


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
    # The file depends on the BLAS thread count at the last bit, so the
    # capture runs on one thread: numpy reads the count when it loads, so
    # the script starts again with it set.
    PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    if any(os.environ.get(key) != value for key, value in PINNED.items()):
        os.environ.update(PINNED)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    data = {name: {"config": doc, **summarize(doc, name in FULL_NAMES)}
            for name, doc in reference_configs().items()}
    text = _dumps(data)
    assert json.loads(text) == data
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(text)
    print(f"wrote {DATA}: {len(data)} configurations, "
          f"{sum(not e['pass'] for e in data.values())} FAIL")
    print(census_table(json.loads(DATA.read_text())))
