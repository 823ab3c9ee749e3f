import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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

SRC = Path(__file__).resolve().parents[1] / "src"
ALL_POSITIVE_MESSAGE = "error: cannot fit an overdispersed model to an all-positive-single-dvl assay\n"
# Eight wells, one lineage.  With sens_qvoa = spec_qvoa = sens_udsa = 1 and
# spec_udsa = 0.8, the sequenced QVOA-positive well 1 with z* = 0 has
# probability zero at every rate vector.
IMPOSSIBLE_WELLS = (
    "well,u,w_star,r,z_1\n"
    "0,1.0,1,1,1\n1,1.0,1,1,0\n2,1.0,0,0,\n3,1.0,1,0,\n"
    "4,1.0,0,0,\n5,1.0,1,1,1\n6,1.0,0,0,\n7,1.0,1,0,\n"
)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_subject(tmp_path, name="C1"):
    assay = subject_assay(load_subjects()[name])
    path = tmp_path / f"{name.lower()}.json"
    path.write_text(to_summary_json(assay))
    return path


def write_all_positive_single_lineage(tmp_path):
    levels = (
        DilutionLevelData(u=1.0, M=6, M_N=0, m=3, Y=(3,)),
        DilutionLevelData(u=2.0, M=6, M_N=0, m=6, Y=(6,)),
    )
    path = tmp_path / "boundary.json"
    path.write_text(to_summary_json(MultiDilutionAssay(levels, 1)))
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

    def test_imperfect_fit_on_impossible_data_exits_2(self, tmp_path, capsys):
        path = tmp_path / "impossible.csv"
        path.write_text(IMPOSSIBLE_WELLS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "fit", "--input", str(path), "--imperfect",
                "--sens-qvoa", "1", "--spec-qvoa", "1", "--sens-udsa", "1", "--spec-udsa", "0.8",
            )
        assert code == 2
        assert out == ""
        assert err == "error: level 0: well '1' on line 3 has probability zero under the supplied error rates\n"

    @pytest.mark.parametrize(
        "bad_row, args, message",
        [
            (
                "9,0.5,1,1,0",
                ("--imperfect", "--sens-qvoa", "1", "--spec-qvoa", "1", "--sens-udsa", "1", "--spec-udsa", "0.8"),
                "level 1: well '9' on line 11 has probability zero under the supplied error rates",
            ),
            ("9,0.5,0,1,1", (), "well '9' on line 11: sequencing is only applied to QVOA-positive wells"),
        ],
        ids=["probability-zero", "sequenced-negative"],
    )
    def test_per_well_errors_name_the_csv_row(self, tmp_path, capsys, bad_row, args, message):
        # The offending row is the fifth of the second level, so its index
        # within the level (4) is neither its id nor its line.
        path = tmp_path / "two_levels.csv"
        path.write_text(
            "well,u,w_star,r,z_1\n"
            "0,2.0,1,1,1\n1,2.0,0,0,\n2,2.0,1,0,\n3,2.0,0,0,\n4,2.0,1,1,1\n"
            f"5,0.5,1,1,1\n6,0.5,0,0,\n7,0.5,1,0,\n8,0.5,0,0,\n{bad_row}\n10,0.5,1,1,1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit", "--input", str(path), *args)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_duplicate_well_id_exits_2(self, tmp_path, capsys):
        # ids restart at the second level, so line 5 repeats well 0 of line 2
        path = tmp_path / "two_levels.csv"
        path.write_text(
            "well,u,w_star,r,z_1\n"
            "0,2.0,1,1,1\n1,2.0,0,0,\n2,2.0,1,0,\n"
            " 0 ,0.5,0,0,\n1,0.5,1,1,1\n"
        )
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: line 5: well id '0' repeats the id on line 2\n"

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n": 1, "levels": [{"u": 1.0, "M": 12, "MN": 6, "m": 2, "Y": [2], "q": "x"}]}, "q must lie"),
            ({"n": 0, "levels": [5]}, "level 0: must be an object"),
        ],
        ids=["string-q", "level-not-object"],
    )
    def test_malformed_level_exits_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_sequenced_level_with_zero_q_exits_2(self, tmp_path, capsys):
        path = tmp_path / "q0.json"
        doc = {"n": 3, "levels": [{"u": 1.0, "M": 5, "MN": 1, "m": 3, "Y": [1, 3, 3], "q": 0.0}]}
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "q = 0 but m = 3" in err

    def test_negbin_on_boundary_assay_exits_2(self, tmp_path, capsys):
        path = write_all_positive_single_lineage(tmp_path)
        code, out, err = run_cli(capsys, "fit", "--negbin", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == ALL_POSITIVE_MESSAGE

    def test_unconverged_negbin_fit_exits_3(self, tmp_path, capsys):
        # The negbin fit runs off towards infinite rates on this assay.
        doc = {"n": 2, "levels": [{"u": 2.0, "M": 12, "MN": 7, "m": 3, "Y": [1, 3]},
                                  {"u": 0.5, "M": 3, "MN": 2, "m": 1, "Y": [1, 1], "q": 0.5}]}
        path = tmp_path / "runaway.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "fit", "--negbin", "--input", str(path))
        assert code == 3
        assert json.loads(out)["estimate"]["converged"] is False

    def test_directory_input_exits_2(self, tmp_path, capsys):
        folder = tmp_path / "assay.json"
        folder.mkdir()
        code, out, err = run_cli(capsys, "fit", "--input", str(folder))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

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


# One level at u = 1000 with every positive well sequenced (drawn with per-well
# rate 1/3 per lineage), so the MLE is the closed form -log(1 - Y/M) / u.  A
# start at the per-well rather than the per-million rate once sent the fit to
# theta near -709.
_LARGE_U = [
    {"n": 3, "levels": [{"u": 1000, "M": 20000, "MN": 7370, "m": 12630, "Y": [5756, 5558, 5675], "q": 1.0}]},
    {"n": 3, "levels": [{"u": 1000, "M": 20000, "MN": 7423, "m": 12577, "Y": [5594, 5603, 5691], "q": 1.0}]},
]


@pytest.mark.parametrize("doc", _LARGE_U)
def test_large_u_fits_the_closed_form_without_warnings(tmp_path, capsys, doc):
    path = tmp_path / "large_u.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
    assert code == 0, err
    level = doc["levels"][0]
    expected = closed_form_full_udsa(level["M"], level["Y"]) / level["u"]
    np.testing.assert_allclose(json.loads(out)["estimate"]["tau"], expected, rtol=0.0, atol=1e-12)


class TestLrt:
    def test_single_level_exits_2(self, tmp_path, capsys):
        lv = DilutionLevelData(u=1.0, M=10, M_N=4, m=3, Y=(2, 2))
        path = tmp_path / "one.json"
        path.write_text(to_summary_json(MultiDilutionAssay((lv,), 2)))
        code, _, err = run_cli(capsys, "lrt", "--input", str(path))
        assert code == 2
        assert "identifiable" in err

    def test_boundary_assay_exits_2(self, tmp_path, capsys):
        path = write_all_positive_single_lineage(tmp_path)
        code, out, err = run_cli(capsys, "lrt", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == ALL_POSITIVE_MESSAGE

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


    def test_unconverged_negbin_fit_reports_no_statistic(self, tmp_path, capsys):
        # The negbin fit runs off towards infinite rates on this assay.
        doc = {"n": 2, "levels": [{"u": 2.0, "M": 12, "MN": 7, "m": 3, "Y": [1, 3]},
                                  {"u": 0.5, "M": 3, "MN": 2, "m": 1, "Y": [1, 1], "q": 0.5}]}
        path = tmp_path / "runaway.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "lrt", "--input", str(path))
        assert code == 3
        report = json.loads(out)
        assert report["statistic"] is None and report["p_value"] is None
        assert report["negbin"]["log_lik"] > report["poisson"]["log_lik"]


def test_python_m_runs_the_cli(tmp_path, capsys):
    doc = {"n": 2, "levels": [{"u": 1.0, "M": 24, "MN": 10, "m": 7, "Y": [4, 5]}]}
    path = tmp_path / "level.json"
    path.write_text(json.dumps(doc))
    argv = ["fit", "--input", str(path), "--bias-correct"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "iupm", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.encode()


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
        assert run_cli(capsys, "simulate", "--input", str(path), "--output", str(out2))[0] == 0
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

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, seed):
        path = self.write_scenario(tmp_path)
        code, out, err = run_cli(capsys, "simulate", "--input", str(path), "--seed", seed)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "seed" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"comparator": "nope"}, "unknown estimators"),
            ({"estimators": ["imperfect-mle"]}, "per-well data"),
            ({"allocation": "non-constant", "n_dvl": 3}, "even number of lineages"),
            ({"model": "negbin", "gamma": 1.0}, "two dilution levels"),
            (
                {
                    "model": "imperfect",
                    "rates": {"sens_qvoa": True, "spec_qvoa": 0.9, "sens_udsa": 0.9, "spec_udsa": 0.9},
                },
                "sens_qvoa must be a number",
            ),
            (
                {
                    "model": "imperfect",
                    "rates": {"sens_qvoa": 0.5, "spec_qvoa": 0.5, "sens_udsa": 0.9, "spec_udsa": 0.9},
                },
                "QVOA sensitivity + specificity must exceed 1",
            ),
        ],
        ids=[
            "unknown-comparator", "imperfect-on-poisson", "odd-non-constant", "single-level-negbin",
            "boolean-rate", "unidentifiable-rates",
        ],
    )
    def test_unusable_scenario_exits_2(self, tmp_path, capsys, monkeypatch, overrides, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr("iupm.simulate._simulate_until_regular", no_draws)
        path = self.write_scenario(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_negbin_replicate_without_lineages_is_excluded(self, tmp_path, capsys):
        # Most replicates at seed 1 detect no lineage or no positive well;
        # fit_negbin rejects each, and it is dropped from nb-mle instead of
        # ending the study.
        path = self.write_scenario(
            tmp_path, T=0.05, n_dvl=2, model="negbin", gamma=2.0, reps=30, seed=1,
            levels=[{"u": 1.0, "M": 6, "q": 0.5}, {"u": 2.0, "M": 6, "q": 0.5}],
        )
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert code == 0, err
        rows = {line.split(",")[1]: line.split(",") for line in out.splitlines()[1:]}
        assert 0 < int(rows["nb-mle"][3]) < 30

    def test_imperfect_replicate_without_lineages_is_excluded(self, tmp_path, capsys):
        # Some replicates at seed 1 detect no lineage (n = 0); each is dropped
        # from imperfect-mle instead of ending the study.
        path = self.write_scenario(
            tmp_path, T=0.05, n_dvl=2, model="imperfect", reps=20, seed=1,
            levels=[{"u": 1.0, "M": 6, "q": 1.0}],
            rates={"sens_qvoa": 0.9, "spec_qvoa": 0.9, "sens_udsa": 0.9, "spec_udsa": 0.9},
        )
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert code == 0, err
        rows = {line.split(",")[1]: line.split(",") for line in out.splitlines()[1:]}
        assert 0 < int(rows["imperfect-mle"][3]) < 20
