"""Config validation, orchestration, emission, and determinism."""

import json

import numpy as np
import pytest
import yaml

from bwrobust.cli import (build_scenario, emit_plot_data, main,
                          run_scenario, schema_path, validate_config)
from bwrobust.errors import ValidationError

MAXMIN_RAW = {
    "model": "alpha_maxmin",
    "benchmark": {"kind": "truncated_exponential", "mean": 1.0,
                  "support_max": 100.0},
    "insurer_survival": "same_as_benchmark",
    "generator": "piecewise_quadratic(q_alpha, 1.0)",
    "alpha": 0.95,
    "theta": 0.5,
    "kappa": 0.9,
    "epsilon": 0.5,
    "sweep": [{"parameter": "generator.k", "values": [1.0, 2.0, 4.0]}],
    "numerics": {"tol": 1e-8, "grid": 10_000},
    "output": {"directory": "out", "format": "csv"},
}

GUARANTEED_RAW = {
    "model": "guaranteed_var",
    "benchmark": {"kind": "truncated_exponential", "mean": 1.0,
                  "support_max": 100.0},
    "insurer_survival": "same_as_benchmark",
    "generator": "xlogx_shift(1.0)",
    "distortion": "tvar",
    "alpha": 0.95,
    "theta": 0.5,
    "epsilon": 0.005,
    "A": 1.406,
    "sweep": [{"parameter": "A", "values": [1.406, 1.401]}],
    "output": {"directory": "out", "format": "csv"},
}


class TestValidateConfig:
    def test_accepts_layered_example(self):
        config = validate_config(MAXMIN_RAW)
        assert config.model == "alpha_maxmin"
        assert config.kappa == 0.9

    def test_rejects_out_of_range_alpha(self):
        bad = dict(MAXMIN_RAW, alpha=1.2)
        with pytest.raises(ValidationError) as err:
            validate_config(bad)
        assert any("alpha" in item for item in err.value.items)

    def test_rejects_missing_guarantee_level(self):
        bad = dict(GUARANTEED_RAW)
        del bad["A"]
        bad["sweep"] = []
        with pytest.raises(ValidationError) as err:
            validate_config(bad)
        assert any(item.startswith("A:") for item in err.value.items)

    def test_collects_multiple_problems(self):
        bad = dict(MAXMIN_RAW, alpha=2.0, theta=-1.0)
        with pytest.raises(ValidationError) as err:
            validate_config(bad)
        assert len(err.value.items) >= 2

    def test_scenario_construction_resolves_q_alpha(self, texp):
        config = validate_config(MAXMIN_RAW)
        scenario = build_scenario(config, {"generator.k": 2.0})
        assert scenario.generator.kinks[0] == pytest.approx(
            texp.quantile(0.95))


@pytest.fixture(scope="module")
def maxmin_report():
    config = validate_config(MAXMIN_RAW)
    return run_scenario(config)


@pytest.fixture(scope="module")
def emitted(maxmin_report, tmp_path_factory):
    report, curves = maxmin_report
    out = tmp_path_factory.mktemp("emit")
    files = emit_plot_data(report, curves, out)
    return report, out, files


class TestRunScenario:
    def test_layered_records(self, maxmin_report):
        report, curves = maxmin_report
        assert [r["label"] for r in report["records"]] == \
            ["generator.k=1", "generator.k=2", "generator.k=4"]
        d1s = {round(r["d1"], 9) for r in report["records"]}
        assert len(d1s) == 1
        ceilings = [r["v_upper"] for r in report["records"]]
        assert ceilings[0] > ceilings[1] > ceilings[2]
        for record in report["records"]:
            xs, ys = curves[record["label"]]["indemnity"]
            expected = np.clip(np.minimum(xs, record["v_upper"]) - record["d1"],
                               0.0, None)
            assert np.max(np.abs(ys - expected)) <= 1e-8

    def test_collapsed_ball_single_point(self):
        raw = dict(MAXMIN_RAW, epsilon=1e-10, sweep=[])
        config = validate_config(raw)
        report, curves = run_scenario(config)
        assert len(report["records"]) == 1
        rec = report["records"][0]
        assert rec["label"] == "base"
        q = 2.99573227355399
        assert rec["v_upper"] == pytest.approx(q, abs=1e-2)
        assert rec["v_lower"] == pytest.approx(q, abs=1e-2)


class TestEmission:
    def test_one_csv_per_panel(self, emitted):
        _, out, _ = emitted
        names = sorted(p.name for p in out.iterdir())
        assert "indemnity_generator.k=1.csv" in names
        assert "net_price_generator.k=2.csv" in names
        assert "summary.json" in names

    def test_schema_validates(self, emitted):
        import jsonschema

        report, out, _ = emitted
        summary = json.loads((out / "summary.json").read_text())
        schema = json.loads(schema_path().read_text())
        jsonschema.validate(summary, schema)

    def test_determinism_byte_identical(self, tmp_path):
        config = validate_config(MAXMIN_RAW)
        blobs = []
        for sub in ("a", "b"):
            report, curves = run_scenario(config)
            out = tmp_path / sub
            emit_plot_data(report, curves, out)
            blobs.append({p.name: p.read_bytes()
                          for p in out.iterdir() if p.suffix == ".csv"})
        assert blobs[0] == blobs[1]

    def test_empty_sweep_summary_only(self, tmp_path):
        raw = dict(MAXMIN_RAW, sweep=[{"parameter": "generator.k", "values": []}])
        config = validate_config(raw)
        report, curves = run_scenario(config)
        files = emit_plot_data(report, curves, tmp_path)
        assert [f.name for f in files] == ["summary.json"]

    def test_header_and_format(self, emitted):
        _, out, _ = emitted
        lines = (out / "indemnity_generator.k=1.csv").read_text().splitlines()
        assert lines[0] == "x,indemnity"
        # 12 significant digits, no excess precision noise
        assert all(len(cell.split(".")[-1]) <= 13
                   for cell in lines[1].split(","))


class TestMainEntry:
    def test_validate_command(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(MAXMIN_RAW))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "3 sweep point" in out

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(dict(MAXMIN_RAW, alpha=7)))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "alpha" in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # an unsatisfiable guarantee raises through the solver
        raw = dict(GUARANTEED_RAW, A=1.30, sweep=[])
        path = tmp_path / "infeasible.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_solve_command_writes_files(self, tmp_path):
        raw = dict(MAXMIN_RAW, sweep=[], output={"directory": "ignored"})
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "results"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "indemnity_base.csv").exists()
