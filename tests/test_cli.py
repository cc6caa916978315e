import json
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
from sovchain import qalgebra, sovbasis
from sovchain.errors import ConfigError, GenerationExhausted
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
        (lambda d: d.pop("model"), "model"),
        (lambda d: d["model"].update(two_s=[0, 1]), "two_s"),
        (lambda d: d["model"].update(xi=[[0.1, 0.0]]), "xi"),
        (lambda d: d["model"].update(kappa=[[0.0, 0.0]]), "kappa"),
        (lambda d: d.update(tolerances={"bogus": 1e-8}), "tolerance"),
        (lambda d: d.update(pipelines=["nope"]), "pipelines"),
        (lambda d: d["model"].update(delta_min=-1), "delta_min"),
    ])
    def test_rejects_malformed(self, mutate, message):
        doc = base_doc((1, 1))
        mutate(doc)
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

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json")]) == 2


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

    def test_check_bad_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 2


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


def test_each_operator_built_at_most_once_per_basis_half(monkeypatch):
    # monodromy is bound by name in qalgebra and in sovbasis; count both.
    built = Counter()
    original = qalgebra.monodromy

    def counting(model, lam):
        built[(model, complex(lam))] += 1
        return original(model, lam)

    monkeypatch.setattr(qalgebra, "monodromy", counting)
    monkeypatch.setattr(sovbasis, "monodromy", counting)
    doc = base_doc([1, 2, 1])
    doc["model"]["kappa"] = [[1.0, 0.0], [0.6, 0.8]]
    report = run_pipelines(RunConfig.from_dict(doc))
    assert report["summary"]["count"] == 12
    assert built and max(built.values()) <= 2
