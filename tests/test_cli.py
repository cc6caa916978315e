import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from sovchain.cli import (
    DEFAULT_TOLERANCES,
    RunConfig,
    generate_model,
    main,
    run_pipelines,
)
import sovchain
from sovchain import (
    cli, errors, qalgebra, sovbasis, spectrum, tq_hom, tq_inhom,
)
from sovchain.errors import (
    ConditioningFailure,
    ConfigError,
    DegenerateNodes,
    DegenerateSpectrum,
    GenerationExhausted,
)
from sovchain.qalgebra import distance_to_ipi_lattice

SINH_ETA = 0.31421767077936635556 + 0.073330601551639318257j


def write_config(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return str(path)


def base_doc(two_s, seed=11):
    return {
        "model": {
            "two_s": list(two_s),
            "xi": "random",
            "seed": seed,
            "delta_min": 0.05,
            "eta": [0.31, 0.07],
            "kappa": [[1.0, 0.0]],
        },
        "pipelines": "all",
    }


class TestGenerateModel:
    def test_deterministic_per_seed(self):
        first = generate_model(9, 3, (1, 1, 2), 0.05)
        second = generate_model(9, 3, (1, 1, 2), 0.05)
        assert first.xi == second.xi

    def test_draw_window_and_margin(self):
        m = generate_model(4, 2, (1, 2), 0.08)
        for v in m.xi:
            assert 0.0 <= v.real <= 2.0
            assert -0.3 <= v.imag <= 0.3
        span = m.two_s[0] + m.two_s[1]
        worst = min(
            distance_to_ipi_lattice(
                m.xi[0] - m.xi[1] + (t - span / 2.0) * m.eta
            )
            for t in range(span + 1)
        )
        assert worst >= 0.08

    def test_impossible_margin_exhausts(self):
        with pytest.raises(GenerationExhausted):
            generate_model(0, 2, (1, 1), 10.0)

    def test_site_count_mismatch(self):
        with pytest.raises(ConfigError):
            generate_model(0, 3, (1, 1), 0.05)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="non-negative"):
            generate_model(-1, 2, (1, 1), 0.05)


class TestConfigParsing:
    def test_minimal_document(self):
        config = RunConfig.from_dict(base_doc((1, 1)))
        assert config.two_s == (1, 1)
        assert config.xi is None
        assert config.pipelines == ("sov", "tq-inhom", "tq-hom")
        assert config.tolerances == DEFAULT_TOLERANCES

    def test_explicit_xi_and_subset_pipelines(self):
        doc = base_doc((1,))
        doc["model"]["xi"] = [[0.4, 0.1]]
        doc["pipelines"] = ["tq-hom"]
        config = RunConfig.from_dict(doc)
        assert config.xi == (0.4 + 0.1j,)
        assert config.pipelines == ("tq-hom",)

    def test_bare_pair_is_one_complex_twist(self):
        doc = base_doc((1,))
        doc["model"]["kappa"] = [0.9, 0.3]
        config = RunConfig.from_dict(doc)
        assert config.kappa_list == (0.9 + 0.3j,)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.__delitem__("model"), "model"),
        (lambda d: [d], "configuration root must be an object"),
        (lambda d: d["model"].update(xi="grid"), "'random' or a list"),
        (lambda d: d["model"].update(kappa=[]), "nonempty list"),
        (lambda d: d.update(output=[]), "'output' must be an object"),
        (lambda d: d.update(output={"report": 3}),
         "output.report must be a string path"),
        (lambda d: d["model"].update(two_s=[0, 1]), "two_s"),
        (lambda d: d["model"].update(xi=[[0.1, 0.0]]), "xi"),
        (lambda d: d["model"].update(kappa=[[0.0, 0.0]]), "kappa"),
        (lambda d: d.update(tolerances={"bogus": 1e-8}), "tolerance"),
        (lambda d: d.update(pipelines=["nope"]), "pipelines"),
        (lambda d: d["model"].update(delta_min=-1), "delta_min"),
        (lambda d: d["model"].update(two_s=[True, 1]), "model.two_s"),
        (lambda d: d["model"].update(seed=True), "model.seed"),
        (lambda d: d["model"].update(delta_min=True), "model.delta_min"),
        (lambda d: d["model"].update(eta=[True, False]), "model.eta"),
        (lambda d: d["model"].update(kappa=[True, False]), "model.kappa"),
        (lambda d: d["model"].update(alpha=True), "model.alpha"),
        (lambda d: d["model"].update(max_alpha_retries=False),
         "model.max_alpha_retries"),
        (lambda d: d.update(tolerances={"grid": True}), "tolerances.grid"),
        # json.load accepts NaN and Infinity; neither is a number here.
        pytest.param(lambda d: d.update(tolerances=dict.fromkeys(
            DEFAULT_TOLERANCES, float("nan"))), "must be positive",
            id="nan-tolerances"),
        pytest.param(lambda d: d["model"].update(eta=[float("nan"), 0]),
                     "model.eta", id="nan-eta"),
        pytest.param(lambda d: d["model"].update(kappa=[float("inf"), 0]),
                     "model.kappa", id="inf-kappa"),
        pytest.param(lambda d: d["model"].update(delta_min=float("nan")),
                     "model.delta_min", id="nan-delta_min"),
        pytest.param(lambda d: d["model"].update(xi=[-float("inf"), 0.5]),
                     "model.xi", id="inf-xi"),
        # An integer beyond the float range is not a number here either.
        pytest.param(lambda d: d["model"].update(delta_min=10**400),
                     "model.delta_min", id="huge-delta_min"),
        pytest.param(lambda d: d["model"].update(eta=[10**400, 0]),
                     "model.eta", id="huge-eta"),
        pytest.param(lambda d: d.update(tolerances={"grid": 10**400}),
                     "tolerances.grid", id="huge-tolerances.grid"),
        pytest.param(lambda d: d["model"].update(kappa=[[10**400, 0]]),
                     "model.kappa", id="huge-kappa"),
        pytest.param(lambda d: d["model"].update(xi=[[0.4, 0.1],
                                                     [0.9, -10**400]]),
                     "model.xi", id="huge-xi"),
    ])
    def test_rejects_malformed(self, mutate, message):
        # A mutation edits the document in place or returns its replacement.
        doc = base_doc((1, 1))
        doc = mutate(doc) or doc
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(doc)


class TestRunCommand:
    def test_single_site_full_run(self, tmp_path):
        doc = base_doc((1,), seed=3)
        doc["output"] = {"report": "out.json"}
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", cfg]) == 0
        report = json.load(open(tmp_path / "out.json"))
        assert report["summary"]["pass"] is True
        assert report["summary"]["count"] == 2
        values = sorted(
            (complex(*entry["t_at_xi"][0])
             for entry in report["eigenvalues"]),
            key=lambda z: z.real,
        )
        assert abs(values[0] + SINH_ETA) < 1e-10
        assert abs(values[1] - SINH_ETA) < 1e-10

    def test_report_round_trips(self, tmp_path):
        doc = base_doc((1,), seed=3)
        doc["output"] = {"report": "out.json"}
        cfg = write_config(tmp_path / "cfg.json", doc)
        main(["run", cfg])
        text = open(tmp_path / "out.json").read()
        report = json.loads(text)
        assert json.loads(json.dumps(report)) == report

    def test_deterministic_reports(self, tmp_path):
        doc = base_doc((1, 1), seed=5)
        doc["output"] = {"report": "a.json"}
        cfg = write_config(tmp_path / "a.cfg", doc)
        main(["run", cfg])
        doc["output"] = {"report": "b.json"}
        cfg = write_config(tmp_path / "b.cfg", doc)
        main(["run", cfg])
        assert (tmp_path / "a.json").read_text() \
            == (tmp_path / "b.json").read_text()

    def test_kappa_list_checks_isospectrality(self, tmp_path):
        doc = base_doc((1, 1), seed=5)
        doc["model"]["kappa"] = [
            [1.0, 0.0],
            [float(np.cos(0.3)), float(np.sin(0.3))],
        ]
        doc["pipelines"] = ["sov"]
        doc["output"] = {"report": "out.json"}
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", cfg]) == 0
        report = json.load(open(tmp_path / "out.json"))
        assert report["summary"]["max_residuals"][
            "kappa_isospectrality"] < 1e-9

    def test_bethe_csv_emitted(self, tmp_path):
        doc = base_doc((1,), seed=3)
        doc["output"] = {"report": "out.json", "bethe_csv": "roots.csv"}
        cfg = write_config(tmp_path / "cfg.json", doc)
        main(["run", cfg])
        lines = (tmp_path / "roots.csv").read_text().strip().splitlines()
        assert lines[0] == "eigenvalue,characterization,root,re,im"
        # 2 eigenvalues, one root each from both characterizations
        assert len(lines) == 1 + 2 * 2

    def test_bethe_csv_bytes_are_the_csv_writers(self, tmp_path):
        report = run_pipelines(RunConfig.from_dict(base_doc((1, 1))))
        # A recorded error carries no roots, so it writes no row.
        report["eigenvalues"][1]["hom"] = {"class": "NotFullDegree",
                                           "message": "a, b"}
        report["eigenvalues"][2]["inhom"]["roots"].append([-0.0, 1e-300])
        got = tmp_path / "got.csv"
        cli._write_bethe_csv(str(got), report)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["eigenvalue", "characterization", "root", "re",
                             "im"])
            for entry in report["eigenvalues"]:
                for key in ("inhom", "hom"):
                    for j, (re, im) in enumerate(
                            entry[key].get("roots", [])):
                        writer.writerow(
                            [entry["index"], key, j, repr(re), repr(im)])
        assert got.read_bytes() == want.read_bytes()
        assert b",hom," in got.read_bytes()
        assert b"\r\n1,hom," not in got.read_bytes()

    def test_failing_tolerance_exits_one(self, tmp_path, capsys):
        doc = base_doc((1,), seed=3)
        doc["tolerances"] = {"grid": 1e-18}
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL")

    def test_colliding_xi_exits_two(self, tmp_path, capsys):
        doc = base_doc((1, 1))
        doc["model"]["xi"] = [[0.3, 0.0], [0.61, 0.07]]
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "sites 1 and 2" in err

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json",
                           {"model": {"two_s": [1, 1], "seed": -1}})
        assert main([command, cfg]) == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("kappa", [1e200, 1e-300])
    def test_twist_without_a_gauge_exits_two(self, tmp_path, capsys,
                                             command, kappa):
        # On (1, 2) the gauge kappa^-|h| underflows to 0 or overflows.
        doc = base_doc((1, 2))
        doc["model"]["kappa"] = [[1.0, 0.0], [kappa, 0.0]]
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main([command, cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: twist kappa={complex(kappa):.6g}: some "
            "kappa^-k, k <= 3, is 0 or not finite"]
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("key", ["report", "bethe_csv"])
    def test_output_in_missing_directory_exits_two(
            self, tmp_path, capsys, monkeypatch, command, key):
        doc = base_doc((1,), seed=3)
        doc["output"] = {key: "nodir/out"}
        cfg = write_config(tmp_path / "cfg.json", doc)
        monkeypatch.setattr(cli, "run_pipelines", pytest.fail)
        assert main([command, cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: output.{key}: directory")
        assert "nodir" in err[0]
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("key, absolute", [
        pytest.param("report", False, id="report"),
        pytest.param("bethe_csv", False, id="bethe_csv"),
        pytest.param("report", True, id="report-absolute"),
    ])
    def test_output_naming_a_directory_exits_two(
            self, tmp_path, capsys, monkeypatch, key, absolute):
        # A relative path joins the config's folder; an absolute one is
        # kept as given.
        target = str(tmp_path) if absolute else "."
        doc = base_doc((1,), seed=3)
        doc["output"] = {key: target}
        cfg = write_config(tmp_path / "cfg.json", doc)
        monkeypatch.setattr(cli, "run_pipelines", pytest.fail)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: output.{key}: "
                       f"{os.path.join(str(tmp_path), target)!r} "
                       "is a directory"]
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("output", [
        {"report": "out.txt", "bethe_csv": "out.txt"},
        {"bethe_csv": "cfg.report.json"},
    ], ids=["both-named", "default-report"])
    def test_outputs_naming_one_file_exit_two(
            self, tmp_path, capsys, monkeypatch, output):
        doc = base_doc((1,), seed=3)
        doc["output"] = output
        cfg = write_config(tmp_path / "cfg.json", doc)
        monkeypatch.setattr(cli, "run_pipelines", pytest.fail)
        assert main(["run", cfg]) == 2
        target = os.path.join(str(tmp_path), output["bethe_csv"])
        assert capsys.readouterr().err.splitlines() == [
            f"config error: output.bethe_csv names the report file {target!r}"]
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_alpha_retries_stop_at_one_hundred(self):
        doc = base_doc((1,))
        doc["model"]["max_alpha_retries"] = 100
        assert RunConfig.from_dict(doc).max_alpha_retries == 100
        doc["model"]["max_alpha_retries"] = 101
        with pytest.raises(ConfigError, match="from 0 to 100"):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_non_object_tolerances_exit_two(self, tmp_path, capsys, command):
        doc = base_doc((1,), seed=3)
        doc["tolerances"] = [1e-8]
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main([command, cfg]) == 2
        assert "'tolerances' must be an object" in capsys.readouterr().err

    def test_literal_nan_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": {"two_s": [1, 1], "eta": [NaN, 0]}}')
        assert main(["check", str(cfg)]) == 2
        assert "model.eta" in capsys.readouterr().err

    def test_unknown_log_level_exits_two(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", base_doc((1,), seed=3))
        monkeypatch.setenv("SOVCHAIN_LOG", "verbose")
        assert main(["check", cfg]) == 2
        assert "SOVCHAIN_LOG='VERBOSE'" in capsys.readouterr().err
        monkeypatch.setenv("SOVCHAIN_LOG", "warning")
        assert main(["check", cfg]) == 0


class TestOtherCommands:
    def test_generate_then_check_and_run(self, tmp_path):
        out = tmp_path / "model.json"
        code = main([
            "generate", "--seed", "7", "--sites", "2",
            "--spins", "1", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.load(open(out))
        assert doc["model"]["two_s"] == [1, 1]
        assert len(doc["model"]["xi"]) == 2
        assert main(["check", str(out)]) == 0
        again = tmp_path / "again.json"
        main([
            "generate", "--seed", "7", "--sites", "2",
            "--spins", "1", "1", "--out", str(again),
        ])
        assert out.read_text() == again.read_text()

    def test_generate_impossible_margin_exits_two(self, tmp_path):
        code = main([
            "generate", "--seed", "1", "--sites", "2", "--spins", "1", "1",
            "--delta-min", "10", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("out, message", [
        ("nodir/x.json", "directory {folder!r} does not exist"),
        (".", "{out!r} is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_generate_out_path_error_exits_two(self, tmp_path, capsys,
                                               monkeypatch, out, message):
        # The check ``run`` applies to its outputs, before any draw.
        monkeypatch.setattr(cli, "generate_model", pytest.fail)
        out, folder = str(tmp_path / out), str(tmp_path / "nodir")
        code = main(["generate", "--seed", "1", "--sites", "1",
                     "--spins", "1", "--out", out])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: --out: " + message.format(
            folder=folder, out=out)]
        assert os.listdir(tmp_path) == []

    def test_generate_negative_seed_exits_two(self, tmp_path, capsys):
        code = main([
            "generate", "--seed", "-1", "--sites", "1", "--spins", "1",
            "--out", str(tmp_path / "g.json"),
        ])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--kappa", "0"], "model.kappa entries must be nonzero"),
        (["--delta-min", "-1"], "model.delta_min must be a positive number"),
        (["--eta-re", "nan"], "model.eta: expected a number or [re, im] pair"),
        (["--eta-re", "0", "--eta-im", "0"], "too close to the i*pi"),
        (["--spins", "0", "1"], "every 2s value must be a positive integer"),
    ], ids=["kappa-0", "delta-min", "eta-nan", "eta-0", "spin-0"])
    def test_generate_writes_no_config_check_rejects(self, tmp_path, capsys,
                                                     monkeypatch, flags,
                                                     message):
        # Each error is raised at once, not after 10^4 draws, by the rules
        # ``check`` applies; nothing is written.
        draws = []
        monkeypatch.setattr(cli, "ChainModel", lambda **kw: (
            draws.append(kw), qalgebra.ChainModel(**kw))[1])
        out = tmp_path / "bad.json"
        code = main(["generate", "--seed", "7", "--sites", "2",
                     "--spins", "1", "2", *flags, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert len(draws) <= 1

    def test_run_level_error_exits_one_without_report(self, tmp_path, capsys,
                                                      monkeypatch):
        # A library error raised before any report exists (here the
        # oracle's) ends the run: exit 1, the error on stderr, no report.
        def degenerate(*args, **kwargs):
            raise DegenerateSpectrum("no sampled point separated the "
                                     "transfer eigenvalues")

        monkeypatch.setattr(spectrum, "brute_force_spectrum", degenerate)
        cfg = write_config(tmp_path / "c.json", base_doc((1, 1)))
        assert main(["run", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("pipeline failure: no sampled point")
        assert captured.out == ""
        assert not (tmp_path / "c.report.json").exists()

    def test_check_bad_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 2

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # The parser is built on the first call and reused; no call sees
        # what an earlier one parsed, and a usage error leaves it usable.
        cli._build_parser.cache_clear()
        cfg = write_config(tmp_path / "c.json", base_doc((1, 1), seed=3))
        assert main(["run", cfg]) == 0
        assert main(["check", cfg]) == 0
        out = tmp_path / "g.json"
        generate = ["generate", "--seed", "3", "--sites", "2", "--spins",
                    "1", "1", "--out", str(out)]
        assert main(generate + ["--kappa", "0.5"]) == 0
        assert json.load(open(out))["model"]["kappa"] == [[0.5, 0.0]]
        assert main(generate) == 0
        assert json.load(open(out))["model"]["kappa"] == [[1.0, 0.0]]
        with pytest.raises(SystemExit) as usage:
            main(["run"])
        assert usage.value.code == 2
        assert "usage: sovchain run" in capsys.readouterr().err
        assert main(["check", cfg]) == 0
        assert cli._build_parser.cache_info().misses == 1


class TestPipelineSelection:
    def test_subset_skips_sections(self, tmp_path):
        doc = base_doc((1,), seed=3)
        doc["pipelines"] = ["tq-inhom"]
        config = RunConfig.from_dict(doc)
        report = run_pipelines(config)
        entry = report["eigenvalues"][0]
        assert "inhom" in entry
        assert "hom" not in entry
        assert "eigenstate_residual" not in entry
        assert report["summary"]["pass"] is True


@pytest.mark.parametrize("matching, status", [(1e-8, 0), (1e-30, 1)],
                         ids=["pass", "fail"])
def test_run_keeps_its_exit_status_when_the_reader_leaves(
        tmp_path, matching, status):
    # The reader closes the pipe before the run prints its summary, as
    # `sovchain run cfg.json | true` does: the report is still written and
    # the exit status is the run's own, with no traceback.
    doc = base_doc([2, 3], seed=0)
    doc["tolerances"] = {"matching": matching}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sovchain.cli", "run", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == status
    assert "Traceback" not in err and "BrokenPipe" not in err, err
    report = json.loads((tmp_path / "cfg.report.json").read_text())
    assert report["summary"]["pass"] is (status == 0)


def test_each_operator_built_at_most_once_per_basis_half(monkeypatch):
    # Every point evaluated through monodromy_entries, at each of its
    # bindings: qalgebra (where monodromy reaches it), spectrum and cli.
    built = Counter()
    original = qalgebra.monodromy_entries

    def counting(model, lam, blocks="ABCD"):
        built.update((model, complex(z)) for z in np.ravel(lam))
        return original(model, lam, blocks)

    for module in (qalgebra, spectrum, cli):
        monkeypatch.setattr(module, "monodromy_entries", counting)
    doc = base_doc([1, 2, 1])
    doc["model"]["kappa"] = [[1.0, 0.0], [0.6, 0.8]]
    report = run_pipelines(RunConfig.from_dict(doc))
    assert report["summary"]["count"] == 12
    assert built and max(built.values()) <= 2


def test_ladder_and_eigenvalue_calls_per_eigenvalue(monkeypatch):
    # The ladder recursion (spectrum._ladder) and EigenvalueFunction.__call__
    # each run on the whole spectrum at once: every call covers all 12 rows,
    # and the calls do not repeat per eigenvalue.
    ladders = []
    evals = []
    ladder = spectrum._ladder
    call = spectrum.EigenvalueFunction.__call__

    def counting_ladder(model, rung_values):
        ladders.append(np.shape(rung_values)[:-1])
        return ladder(model, rung_values)

    def counting_call(self, lam):
        evals.append(np.shape(self.base_values)[:-1])
        return call(self, lam)

    monkeypatch.setattr(spectrum, "_ladder", counting_ladder)
    monkeypatch.setattr(spectrum.EigenvalueFunction, "__call__", counting_call)
    doc = base_doc([1, 2, 1])
    doc["model"]["kappa"] = [[1.0, 0.0], [0.6, 0.8]]
    report = run_pipelines(RunConfig.from_dict(doc))
    assert report["summary"]["count"] == 12
    assert ladders == [(12,)]
    assert set(evals) == {(12,)} and len(evals) < 40


def test_library_error_is_recorded_per_eigenvalue(tmp_path, capsys,
                                                  rank_deficient_hom_row):
    # Two spin-1 sites, with eigenvalue 4's tq-hom closure made rank
    # deficient.
    rank_deficient_hom_row(4)
    doc = base_doc([2, 2])
    doc["output"] = {"report": "r.json", "bethe_csv": "roots.csv"}
    assert main(["run", write_config(tmp_path / "c.json", doc)]) == 1
    assert "RankDeficient" in capsys.readouterr().out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["summary"]["count"] == 9
    assert report["summary"]["pass"] is False
    failed = [e for e in report["eigenvalues"] if "class" in e["hom"]]
    assert len(failed) == 1
    assert failed[0]["hom"]["class"] == "RankDeficient"
    assert failed[0]["hom"]["message"]
    assert f"eigenvalue {failed[0]['index']} tq-hom: RankDeficient" in (
        report["summary"]["failures"][0]
    )
    assert all("roots" in e["inhom"] for e in report["eigenvalues"])
    assert (tmp_path / "roots.csv").exists()


# The gated census: every shape that PASSes every pipeline at seeds 0-2
# with twists 1 and 0.6+0.8i.  (1,4), (1,)*6, (3,3), (2,1,3), (2,2,2) and
# (2,4) each fail at some seed; they wait for ROADMAP item 4.
GATED_SHAPES = [(2,), (3,), (4,), (5,), (1, 1), (1, 2), (1, 3), (2, 2),
                (2, 3), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1),
                (1, 2, 2), (1,) * 4, (1,) * 5]
INTEGER_SPIN = [s for s in GATED_SHAPES if not any(v % 2 for v in s)]
HALF_INTEGER_SPIN = [s for s in GATED_SHAPES if s not in INTEGER_SPIN]


def passes_every_pipeline(two_s, seed):
    doc = {"model": {"two_s": list(two_s), "xi": "random", "seed": seed,
                     "kappa": [[1.0, 0.0], [0.6, 0.8]]}, "pipelines": "all"}
    summary = run_pipelines(RunConfig.from_dict(doc))["summary"]
    assert summary["failures"] == []
    assert summary["pass"] is True


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("two_s", INTEGER_SPIN,
                         ids=lambda s: "".join(map(str, s)))
def test_integer_spin_chains_pass_every_pipeline(two_s, seed):
    # Their base points are inner rungs, where some tq-inhom Q has a root:
    # the zero eigenvalue's on (2,) and (2,2), eigenvalues 1 and 3 on (4,).
    passes_every_pipeline(two_s, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("two_s", HALF_INTEGER_SPIN,
                         ids=lambda s: "".join(map(str, s)))
def test_chains_with_a_half_integer_spin_pass_every_pipeline(two_s, seed):
    passes_every_pipeline(two_s, seed)


# The normal regimes: eta = 0.31i with real xi_n = 0.1 + 0.5 (n - 1), or
# eta = 0.31 with xi_n = i (0.1 + 0.5 (n - 1)).  There Re t(xi_1) is about
# 0, so a sort on it orders rounding noise; each twist's rows must still
# belong to the model's eigenvectors, row for row.
NORMAL_REGIMES = {"imaginary-eta": ([0.0, 0.31], lambda x: [x, 0.0]),
                  "real-eta": ([0.31, 0.0], lambda x: [0.0, x])}


@pytest.mark.parametrize("regime", NORMAL_REGIMES)
@pytest.mark.parametrize("two_s", [(1, 1), (1, 2), (1, 1, 1), (1,) * 4,
                                   (2, 2)], ids=lambda s: "".join(map(str, s)))
def test_normal_regimes_pass_every_pipeline(two_s, regime):
    # Twists 1 and 0.6+0.8i in either order: every pipeline passes, and
    # each row holds the same eigenvalue in both orders, since the
    # oracle's sort takes Re t(xi_1), rounding noise here, as 0.
    eta, place = NORMAL_REGIMES[regime]
    values = []
    for kappa in ([[1.0, 0.0], [0.6, 0.8]], [[0.6, 0.8], [1.0, 0.0]]):
        doc = {"model": {"two_s": list(two_s), "eta": eta, "xi": [
            place(0.1 + 0.5 * n) for n in range(len(two_s))],
            "kappa": kappa}, "pipelines": "all"}
        report = run_pipelines(RunConfig.from_dict(doc))
        assert report["summary"]["failures"] == []
        assert report["summary"]["max_residuals"][
            "kappa_isospectrality"] <= 1e-14
        values.append(np.array([e["t_at_xi"] for e in report["eigenvalues"]]))
    assert np.max(np.abs(values[0] - values[1])) <= (
        1e-12 * np.max(np.abs(values[0])))


def test_stage_lines_show_microseconds(caplog):
    caplog.set_level("INFO", logger="sovchain")
    run_pipelines(RunConfig.from_dict(base_doc([1])))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("stage ")]
    assert [line.split(":")[0] for line in lines] == [
        f"stage {name}" for name in ("model", "oracle", "basis", "ladder",
                                     "sov", "tq-inhom", "tq-hom")]
    for line in lines:
        assert re.fullmatch(r"stage [a-z-]+: \d+\.\d{6} s, 2 rows, 0 failed",
                            line), line


def test_no_offset_clearing_the_inner_rungs_fails_the_tq_rows(monkeypatch):
    # (2,2)'s base points are inner rungs.  With no offset copy to try,
    # both T-Q pipelines fail every row where they rebuild t from Q, and
    # the separated basis goes on.
    monkeypatch.setattr(tq_inhom, "_SAMPLE_OFFSETS", ())
    report = run_pipelines(RunConfig.from_dict(base_doc([2, 2], seed=0)))
    want = {"class": "SovChainError",
            "message": "no offset clears the inner rungs"}
    assert len(report["eigenvalues"]) == 9
    for entry in report["eigenvalues"]:
        assert entry["inhom"] == entry["hom"] == want
        assert "sov" not in entry and "eigenstate_residual" in entry


def _flag_row_one(flags):
    flags = flags.copy()
    flags[1] = True
    return flags


def _vanish_at_site_one(site):
    site = site.copy()
    site[1] = 0
    return site


def _flip_sign_of_row_one(fit):
    eps_w, residual, errors = fit
    eps_w = eps_w.copy()
    eps_w[1] = -eps_w[1]
    return eps_w, residual, errors


# Per case: the patched function, what its output becomes, the report key
# and the error class and message of row 1 (formatted with its epsilon).
FORCED_ROW_ERRORS = {
    "inhom-top-rung": (tq_inhom, "_inadmissible", _flag_row_one, "inhom",
                       "NonAdmissible", "a top-rung value of Q vanished"),
    "hom-site": (tq_hom, "_vanishing_site", _vanish_at_site_one, "hom",
                 "NonAdmissible", "site 1: Q vanishes at the top rung and "
                 "at its half-period translate"),
    "hom-sign": (tq_hom, "verify_wronskian_identity", _flip_sign_of_row_one,
                 "hom", "NoEpsilonFits", "root-sum sign and Wronskian sign "
                 "disagree: {eps} vs {flipped}"),
}


@pytest.mark.parametrize("case", FORCED_ROW_ERRORS)
def test_a_forced_error_fails_its_row_alone(monkeypatch, case):
    module, name, force, key, cls, message = FORCED_ROW_ERRORS[case]
    doc = base_doc([1, 2], seed=0)
    clean = run_pipelines(RunConfig.from_dict(doc))["eigenvalues"]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: force(original(*args)))
    entries = run_pipelines(RunConfig.from_dict(doc))["eigenvalues"]
    eps = clean[1]["hom"]["epsilon"]
    assert entries[1][key] == {"class": cls, "message": message.format(
        eps=eps, flipped=-eps)}
    assert entries[:1] + entries[2:] == clean[:1] + clean[2:]


def test_package_exports_the_error_classes():
    assert sovchain.__all__ == errors.__all__
    assert all(issubclass(getattr(sovchain, name), errors.SovChainError)
               for name in sovchain.__all__)


def test_basis_error_is_recorded(monkeypatch, caplog):
    def broken(model):
        raise ConditioningFailure("basis state too small")

    monkeypatch.setattr(sovbasis, "build_basis", broken)
    caplog.set_level("INFO", logger="sovchain")
    report = run_pipelines(RunConfig.from_dict(base_doc([1, 1])))
    # The failed build fails every row of the basis stage.
    assert [r.getMessage().endswith("4 rows, 4 failed") for r in caplog.records
            if r.getMessage().startswith("stage basis:")] == [True]
    assert report["summary"]["pass"] is False
    assert report["summary"]["failures"] == [
        "separated basis: ConditioningFailure: basis state too small"
    ]
    for entry in report["eigenvalues"]:
        assert entry["sov"] == {
            "class": "ConditioningFailure",
            "message": "basis state too small",
        }
        assert "roots" in entry["inhom"] and "roots" in entry["hom"]


def _expected_failures(report):
    """summary.failures rebuilt from the report: the run-level lines, then
    per eigenvalue its discrete residual and its pipelines in order, each
    pipeline's error or its checks in CHECKS order."""
    tol = report["tolerances"]

    def lines(key, value, bound):
        return ([] if value <= tol[bound]
                else [f"{key}: {value:.3e} exceeds {tol[bound]:.1e}"])

    maxima = report["summary"]["max_residuals"]
    out = (lines("kappa_isospectrality", maxima["kappa_isospectrality"],
                 "matching")
           + lines("identity_resolution", maxima["identity_resolution"],
                   "identity"))
    for entry in report["eigenvalues"]:
        out += lines("discrete_residual", entry["discrete_residual"],
                     "determinant")
        for name in report["pipelines"]:
            part = entry.get(cli.REPORT_KEYS[name], entry)
            if "class" in part:
                out.append(f"eigenvalue {entry['index']} {name}: "
                           f"{part['class']}: {part['message']}")
                continue
            for check, (pipeline, field, bound) in cli.CHECKS.items():
                if pipeline == name:
                    out += lines(check, part[field], bound)
    return out


def test_failures_come_by_run_eigenvalue_pipeline_and_check():
    doc = {"model": {"two_s": [1, 2], "seed": 0,
                     "kappa": [[1.0, 0.0], [0.6, 0.8]]},
           "tolerances": dict.fromkeys(DEFAULT_TOLERANCES, 1e-300)}
    report = run_pipelines(RunConfig.from_dict(doc))
    failures = report["summary"]["failures"]
    assert len(failures) == 74
    assert failures == _expected_failures(report)


def test_a_nan_residual_fails_the_run(monkeypatch):
    real = tq_hom.hom_grid_residual

    def nan_first_row(model, eigfun, q):
        out = real(model, eigfun, q)
        out[0] = np.nan
        return out

    monkeypatch.setattr(tq_hom, "hom_grid_residual", nan_first_row)
    doc = {"model": {"two_s": [1, 2], "seed": 0}}
    report = run_pipelines(RunConfig.from_dict(doc))
    summary = report["summary"]
    assert summary["pass"] is False
    assert summary["failures"] == ["hom_grid_residual: nan exceeds 1.0e-08"]
    assert np.isnan(summary["max_residuals"]["hom_grid_residual"])
    assert np.isnan(report["eigenvalues"][0]["hom"]["grid_residual"])


@pytest.mark.parametrize("pipeline, angle_scale",
                         [("tq-inhom", 1.0), ("tq-hom", 0.5)])
def test_degenerate_nodes_fail_every_row_of_one_pipeline(
        monkeypatch, pipeline, angle_scale):
    # The interpolation nodes are shared by every row of a pipeline, so a
    # collision among them fails the whole batch and no other pipeline.
    real = tq_inhom.interpolate

    def collide(nodes, values, m, scale=1.0):
        if scale == angle_scale:
            raise DegenerateNodes("nodes 0 and 1 coincide")
        return real(nodes, values, m, scale)

    monkeypatch.setattr(tq_inhom, "interpolate", collide)
    report = run_pipelines(RunConfig.from_dict(base_doc([1, 2])))
    key = cli.REPORT_KEYS[pipeline]
    other = "hom" if key == "inhom" else "inhom"
    error = {"class": "DegenerateNodes", "message": "nodes 0 and 1 coincide"}
    assert all(e[key] == error for e in report["eigenvalues"])
    assert all("roots" in e[other] for e in report["eigenvalues"])
    assert report["summary"]["failures"] == [
        f"eigenvalue {i} {pipeline}: DegenerateNodes: nodes 0 and 1 coincide"
        for i in range(6)]
    assert report["summary"]["pass"] is False


# ----------------------------------------------------------------------
# the no-failure fast paths keep the bookkeeping's meaning


def _never(row):
    raise AssertionError(f"make called for row {row}")


@pytest.mark.parametrize("mask", [
    [False, False, False], np.zeros(3, dtype=bool), np.zeros((3, 1), bool),
], ids=["list", "array", "2-d"])
def test_record_on_an_all_false_mask_never_calls_make(mask):
    rows = [None, ValueError("kept"), None]
    errors.record(rows, mask, _never)
    assert rows[0] is None and rows[2] is None
    assert str(rows[1]) == "kept"


@pytest.mark.parametrize("mask", [[False, True, True],
                                  np.array([False, True, True])],
                         ids=["list", "array"])
def test_record_gives_only_rows_without_an_error_a_new_one(mask):
    made = []
    rows = [None, ValueError("kept"), None]
    errors.record(rows, mask, lambda k: made.append(k) or KeyError(k))
    assert made == [2]
    assert [type(e) for e in rows] == [type(None), ValueError, KeyError]


def test_first_errors_keeps_each_rows_first_error():
    first, second = ValueError("a"), KeyError("b")
    none = [None] * 3
    assert cli._first_errors(none, none, none) == none
    assert cli._first_errors(none, none) is not none  # a fresh list
    # One list with errors: its entries, whichever argument it is.
    assert cli._first_errors(none, [None, first, None]) == [None, first, None]
    assert cli._first_errors((None, first, None), none) == [None, first, None]
    # Two: the earlier list wins a row both fail.
    assert cli._first_errors([first, None, None], [second, second, None]) == [
        first, second, None]


def _emit_by_stack(z):
    """The former ``_emit_complex``: real and imaginary parts stacked."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


@pytest.mark.parametrize("value", [
    0.3 - 0.0j, -0.0 + 2j, np.complex128(complex(np.nan, -np.inf)), 2.5, [],
    [1 + 2j, -0.0 - 0.0j, 3], np.arange(12).reshape(3, 4) * (0.1 - 0.7j),
    (np.arange(12).reshape(3, 4) * (0.1 - 0.7j))[::2, ::-3],
], ids=["scalar", "signed-zero", "nan-inf", "real", "empty", "1-d", "2-d",
        "strided"])
def test_emit_complex_equals_the_stack_route(value):
    got, want = cli._emit_complex(value), _emit_by_stack(value)
    assert json.dumps(got) == json.dumps(want)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_max_residuals_are_every_columns_maximum():
    doc = {"model": {"two_s": [1, 2], "seed": 0,
                     "kappa": [[1.0, 0.0], [0.6, 0.8]]}}
    report = run_pipelines(RunConfig.from_dict(doc))
    assert report["summary"]["pass"] is True
    maxima = report["summary"]["max_residuals"]
    entries = report["eigenvalues"]
    want = {"discrete_residual": max(e["discrete_residual"] for e in entries)}
    for check, (pipeline, field, _) in cli.CHECKS.items():
        key = cli.REPORT_KEYS[pipeline]
        want[check] = max(e.get(key, e)[field] for e in entries)
    assert {k: maxima[k] for k in want} == want
    assert set(maxima) == set(want) | {"kappa_isospectrality",
                                       "identity_resolution"}
