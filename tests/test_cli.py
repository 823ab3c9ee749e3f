import json
import math
import warnings

import numpy as np
import pytest

from iupm import (
    DilutionLevelData,
    MultiDilutionAssay,
    closed_form_full_udsa,
    to_summary_json,
    wells_to_csv,
)
from iupm.cli import main
from iupm.simulate import SimLevel, SimScenario, _rng_for, _simulate_until_regular
from helpers import load_subjects, subject_assay


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_subject(tmp_path, name="C1"):
    assay = subject_assay(load_subjects()[name])
    path = tmp_path / f"{name.lower()}.json"
    path.write_text(to_summary_json(assay))
    return path


class TestFit:
    def test_subject_c1_point_estimate(self, tmp_path, capsys):
        path = write_subject(tmp_path, "C1")
        code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--no-udsa")
        assert code == 0
        report = json.loads(out)
        est = report["estimate"]
        assert round(est["iupm"], 2) == 0.05
        assert round(est["ci"][0], 2) == 0.02
        assert round(est["ci"][1], 2) == 0.12

    def test_full_sequencing_matches_closed_form(self, tmp_path, capsys):
        lv = DilutionLevelData(u=1.0, M=12, M_N=7, m=5, Y=(3, 2))
        path = tmp_path / "full.json"
        path.write_text(to_summary_json(MultiDilutionAssay((lv,), 2)))
        code, out, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0
        est = json.loads(out)["estimate"]
        expected = closed_form_full_udsa(12, (3, 2))
        np.testing.assert_allclose(est["tau"], expected, atol=1e-8)
        assert est["iupm"] == pytest.approx(float(expected.sum()), abs=1e-8)

    def test_imperfect_with_perfect_rates_matches_plain_fit(self, tmp_path, capsys):
        scn = SimScenario(
            truth=1.0,
            n_dvl=3,
            levels=(SimLevel(1.0, 16, 1.0),),
            model="imperfect",
            rates=__import__("iupm").ErrorRates(1, 1, 1, 1),
            reps=1,
            seed=2,
        )
        draw, _ = _simulate_until_regular(scn, _rng_for(2, 0))
        wells_path = tmp_path / "wells.csv"
        wells_path.write_text(wells_to_csv(draw.well_assays))
        code, out, _ = run_cli(
            capsys,
            "fit", "--input", str(wells_path), "--imperfect",
            "--sens-qvoa", "1", "--spec-qvoa", "1", "--sens-udsa", "1", "--spec-udsa", "1",
        )
        assert code == 0
        imperfect = json.loads(out)["estimate"]
        code, out, _ = run_cli(capsys, "fit", "--input", str(wells_path))
        assert code == 0
        plain = json.loads(out)["estimate"]
        assert imperfect["iupm"] == pytest.approx(plain["iupm"], abs=1e-6)

    def test_bias_correct_reports_both(self, tmp_path, capsys):
        path = write_subject(tmp_path, "C3")
        code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--bias-correct")
        assert code == 0
        report = json.loads(out)
        assert report["bias_corrected"]["iupm"] < report["estimate"]["iupm"]

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "levels": [{"u": 1.0, "M": 12, "MN": 10, "m": 4, "Y": [4]}]}))
        code, _, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert "m > M_P" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{ not json")
        code, _, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2

    def test_missing_rate_flags_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wells.csv"
        path.write_text("well,u,w_star,r,z_1\n0,1.0,1,1,1\n1,1.0,0,0,\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(path), "--imperfect")
        assert code == 2
        assert "sens-qvoa" in err

    def test_stdin_requires_explicit_format(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
        code, _, err = run_cli(capsys, "fit", "--input", "-")
        assert code == 2
        assert "format" in err

    def test_table_output_uses_six_significant_digits(self, tmp_path, capsys):
        path = write_subject(tmp_path, "C1")
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(path), "--output-format", "table"
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("estimate.iupm"))
        assert line.split()[-1] == "0.0451947"[:9]

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    @pytest.mark.parametrize("subject", ["C1", "boundary"])
    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys, alpha, subject):
        if subject == "boundary":
            lv = DilutionLevelData(u=1.0, M=6, M_N=0, m=3, Y=(3,))
            path = tmp_path / "boundary.json"
            path.write_text(to_summary_json(MultiDilutionAssay((lv,), 1)))
        else:
            path = write_subject(tmp_path, subject)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--alpha" in err

    def test_boolean_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": 1, "levels": [{"u": 1.0, "M": 12, "MN": 6, "m": True, "Y": [1]}]}))
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "m must be an integer" in err

    def test_output_file(self, tmp_path, capsys):
        path = write_subject(tmp_path, "C1")
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["command"] == "fit"


_LARGE_U_T = [
    # u T passes the float range of e^x at the first level: the second level
    # puts each lineage near log 2 / 0.001 per million, so 0.5 T is about 1040.
    {"n": 3, "levels": [{"u": 0.5, "M": 1, "MN": 0, "m": 0, "Y": [0, 0, 0]},
                        {"u": 0.001, "M": 2, "MN": 0, "m": 2, "Y": [1, 1, 1]}]},
    # The same with one lineage past the range on its own (u tau_3 about 600).
    {"n": 3, "levels": [{"u": 0.5, "M": 1, "MN": 0, "m": 0, "Y": [0, 0, 0]},
                        {"u": 0.001, "M": 4, "MN": 0, "m": 3, "Y": [1, 1, 2]}]},
]


@pytest.mark.parametrize("bias_correct", [False, True])
@pytest.mark.parametrize("doc", _LARGE_U_T)
def test_large_u_t_gives_finite_fit_without_warnings(tmp_path, capsys, doc, bias_correct):
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    args = ["fit", "--input", str(path)] + (["--bias-correct"] if bias_correct else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    report = json.loads(out)
    fits = [report["estimate"]] + ([report["bias_corrected"]] if bias_correct else [])
    for fit in fits:
        assert math.isfinite(fit["iupm"]) and math.isfinite(fit["se"]) and fit["se"] > 0
    if doc["levels"][1]["M"] == 2:
        # The first level adds log(1 - e^{-0.5 T}), which is 0 in double
        # precision, so each lineage sits at the fully sequenced closed form.
        np.testing.assert_allclose(report["estimate"]["tau"], [math.log(2.0) / 0.001] * 3, rtol=1e-6)
        if bias_correct:
            # (e^lam - 1) / (2 M) per well at lam = log 2 and M = 2, per million.
            np.testing.assert_allclose(report["bias_corrected"]["bias"], [250.0] * 3, rtol=1e-6)


class TestLrt:
    def test_single_level_exits_2(self, tmp_path, capsys):
        lv = DilutionLevelData(u=1.0, M=10, M_N=4, m=3, Y=(2, 2))
        path = tmp_path / "one.json"
        path.write_text(to_summary_json(MultiDilutionAssay((lv,), 2)))
        code, _, err = run_cli(capsys, "lrt", "--input", str(path))
        assert code == 2
        assert "identifiable" in err

    def test_boundary_assay_exits_2(self, tmp_path, capsys):
        levels = (
            DilutionLevelData(u=1.0, M=6, M_N=0, m=3, Y=(3,)),
            DilutionLevelData(u=2.0, M=6, M_N=0, m=6, Y=(6,)),
        )
        path = tmp_path / "boundary.json"
        path.write_text(to_summary_json(MultiDilutionAssay(levels, 1)))
        code, out, err = run_cli(capsys, "lrt", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "all-positive-single-dvl" in err

    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys):
        path = write_subject(tmp_path, "C1")
        code, _, err = run_cli(capsys, "lrt", "--input", str(path), "--alpha", "1.5")
        assert code == 2
        assert err.count("\n") == 1 and "--alpha" in err

    def test_reports_statistic_and_fits(self, tmp_path, capsys):
        scn = SimScenario(
            truth=1.0,
            n_dvl=4,
            levels=(SimLevel(1.0, 14, 0.5), SimLevel(2.0, 20, 1.0)),
            reps=1,
            seed=44,
        )
        draw, _ = _simulate_until_regular(scn, _rng_for(44, 0))
        path = tmp_path / "two.json"
        path.write_text(to_summary_json(draw.assay))
        code, out, _ = run_cli(capsys, "lrt", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["statistic"] >= 0.0
        assert 0.0 <= report["p_value"] <= 1.0
        assert report["negbin"]["gamma"] >= 0.0
        if report["statistic"] == 0.0:
            assert report["p_value"] == 1.0


class TestSimulate:
    def write_scenario(self, tmp_path, **overrides):
        doc = {
            "T": 1.0,
            "n_dvl": 4,
            "allocation": "constant",
            "levels": [{"u": 1.0, "M": 10, "q": 1.0}],
            "model": "poisson",
            "reps": 5,
            "seed": 42,
        }
        doc.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return path

    def test_runs_and_is_deterministic(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(capsys, "simulate", "--input", str(path), "--output", str(out1))[0] == 0
        assert (
            run_cli(
                capsys, "simulate", "--input", str(path), "--output", str(out2), "--threads", "3"
            )[0]
            == 0
        )
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_results(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        _, base, _ = run_cli(capsys, "simulate", "--input", str(path))
        _, other, _ = run_cli(capsys, "simulate", "--input", str(path), "--seed", "77")
        assert base != other

    def test_single_replicate_estimates_file(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, reps=1, estimators=["mle-with-udsa"])
        est = tmp_path / "reps.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--input", str(path), "--estimates", str(est), "--output",
            str(tmp_path / "m.csv"),
        )
        assert code == 0
        lines = est.read_text().splitlines()
        assert len(lines) == 2  # header plus the single replicate

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"T": 1.0}))
        code, _, _ = run_cli(capsys, "simulate", "--input", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--input", "/nonexistent/path.json")
        assert code == 2
