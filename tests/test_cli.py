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
    ErrorRates,
    LevelPass,
    MultiDilutionAssay,
    closed_form_full_udsa,
    covariance,
    fisher_information_multi,
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

RATES = {"sens_qvoa": 0.9, "spec_qvoa": 0.9, "sens_udsa": 0.9, "spec_udsa": 0.9}
RATE_FLAGS = ["--sens-qvoa", "0.9", "--spec-qvoa", "0.9", "--sens-udsa", "0.9", "--spec-udsa", "0.9"]


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

    @pytest.mark.parametrize("fmt", ["summary-json", "wells-csv"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, fmt):
        # Excel's "CSV UTF-8" and some JSON writers start the file with U+FEFF
        if fmt == "summary-json":
            text = write_subject(tmp_path).read_text()
        else:
            text = "well,u,w_star,r,z_a,z_b\n0,1.0,1,1,1,0\n1,1.0,1,1,0,1\n2,1.0,0,0,,\n3,1.0,1,0,,\n4,1.0,0,0,,\n"
        reports = []
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            path = tmp_path / f"{name}.{fmt.split('-')[1]}"
            path.write_bytes(data)
            code, out, err = run_cli(capsys, "fit", "--input", str(path))
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[1] == reports[0]

    @pytest.mark.parametrize(
        "bad_row, args, message",
        [
            (
                "9,0.5,1,1,0",
                ("--imperfect", "--sens-qvoa", "1", "--spec-qvoa", "1", "--sens-udsa", "1", "--spec-udsa", "0.8"),
                "level 1: well '9' on line 11 has probability zero under the supplied error rates",
            ),
            ("9,0.5,0,1,1", (), "well '9' on line 11: sequencing is only applied to QVOA-positive wells"),
            ("9,0.5,2,0,", (), "well '9' on line 11: w_star and r must be 0/1 indicators"),
            (f"9,0.5,{10**20},0,", (), "well '9' on line 11: w_star and r must be 0/1 indicators"),
        ],
        ids=["probability-zero", "sequenced-negative", "w-star-not-indicator", "w-star-past-int64"],
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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--negbin", "--bias-correct"], "--bias-correct applies to the Poisson fit, not --negbin"),
            (["--imperfect", *RATE_FLAGS, "--bias-correct"], "--bias-correct applies to the Poisson fit, not --imperfect"),
            (["--imperfect", *RATE_FLAGS, "--no-udsa"],
             "--no-udsa does not apply to the --imperfect fit, which needs the sequencing data"),
            (["--sens-qvoa", "0.9"], "error rates (--sens-qvoa) apply only to the --imperfect fit"),
            (["--negbin", "--spec-qvoa", "0.9", "--spec-udsa", "0.9"],
             "error rates (--spec-qvoa, --spec-udsa) apply only to the --imperfect fit"),
            (RATE_FLAGS, "error rates (--sens-qvoa, --spec-qvoa, --sens-udsa, --spec-udsa) apply only to the --imperfect fit"),
            (["--negbin", "--alpha", "0.2"], "--alpha does not apply to the --negbin fit, whose report has no interval"),
            (["--negbin", "--alpha", "0.05"], "--alpha does not apply to the --negbin fit, whose report has no interval"),
        ],
        ids=["negbin-bias-correct", "imperfect-bias-correct", "imperfect-no-udsa", "one-rate", "negbin-rates", "all-rates",
             "negbin-alpha", "negbin-default-alpha"],
    )
    def test_option_the_fit_would_ignore_exits_2(self, tmp_path, capsys, flags, message):
        # each of these inputs fits: only the flags are refused
        scn = SimScenario(
            truth=1.0, n_dvl=3, levels=(SimLevel(0.5, 16, 1.0), SimLevel(1.0, 16, 1.0)),
            model="imperfect", rates=ErrorRates(1, 1, 1, 1), reps=1, seed=2,
        )
        draw, _ = _simulate_until_regular(scn, _rng_for(2, 0))
        path = tmp_path / "wells.csv"
        path.write_text(wells_to_csv(draw.well_assays))
        code, out, err = run_cli(capsys, "fit", "--input", str(path), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize(
        "name, text",
        [
            ("long.json", '{"n": 1%s, "levels": []}' % ("0" * 5000)),
            ("long.csv", "well,u,w_star,r,z_1\n0,1.0,1%s,1,1\n" % ("0" * 5000)),
        ],
        ids=["summary-json", "wells-csv"],
    )
    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "digits is too long" in err and "set_int_max_str_digits" not in err

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
            ({"n": 0, "levels": [5]}, "levels[0] must be an object"),
            ({"n": 1, "levels": [{"u": 1.0, "M": 12, "MN": 6, "m": 2, "Y": 1}]}, "levels[0].Y must be a list of counts"),
            ({"n": 0, "levels": [{"u": True, "M": 12, "MN": 6, "m": 0}]}, "u must be a positive finite number"),
            ({"n": 0, "levels": [{"u": 1.0, "M": 12, "MN": 6, "m": 0, "q": True}]}, "q must lie"),
            # an integer literal past the float range
            ({"n": 0, "levels": [{"u": 10**400, "M": 10, "MN": 5, "m": 0}]}, "levels[0].u must be a positive finite number"),
            # past the bound, the expected information would need arrays of many GiB
            ({"n": 1, "levels": [{"u": 1e-16, "M": 10**16, "MN": 5 * 10**15, "m": 1, "Y": [1]}]},
             "levels[0].M must be an integer <= 1000000000"),
        ],
        ids=["string-q", "level-not-object", "scalar-Y", "boolean-u", "boolean-q", "huge-integer-u", "huge-M"],
    )
    def test_malformed_level_exits_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # spelled q, the key sets the sequenced fraction that the SE depends on
        level = {"u": 1, "M": 12, "MN": 4, "m": 4, "Y": [3, 2], "q": 0.8}
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"n": 2, "levels": [level]}))
        code, out, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0 and round(json.loads(out)["estimate"]["se"], 5) == 0.36292
        level["Q"] = level.pop("q")
        path.write_text(json.dumps({"n": 2, "levels": [level]}))
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert (code, out, err) == (2, "", "error: levels[0]: unknown key 'Q'\n")

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


# Each of these has an expected information of 0 or inf in floats (u^2 under-
# or overflows), which the covariance refuses as for any other fit.
_DEGENERATE_INFORMATION = [
    ([], {"n": 0, "levels": [{"u": 1e-300, "M": 10, "MN": 5, "m": 0}]}),
    ([], {"n": 0, "levels": [{"u": 1e-300, "M": 10, "MN": 5, "m": 0},
                             {"u": 2e-300, "M": 8, "MN": 2, "m": 0}]}),
    (["--no-udsa"], {"n": 2, "levels": [{"u": 1e-300, "M": 10, "MN": 5, "m": 3, "Y": [2, 1]}]}),
    ([], {"n": 0, "levels": [{"u": 1e300, "M": 10, "MN": 5, "m": 0}]}),
    # (e^x - 1)^2 underflows to 0 at every level
    ([], {"n": 2, "levels": [{"u": 1e-300, "M": 10, "MN": 5, "m": 3, "Y": [2, 1]},
                             {"u": 2e-300, "M": 8, "MN": 2, "m": 4, "Y": [3, 2]}]}),
    # the information is a finite float but its inverse is not
    ([], {"n": 0, "levels": [{"u": 1e-160, "M": 10, "MN": 5, "m": 0}]}),
    (["--bias-correct"], {"n": 0, "levels": [{"u": 1e-160, "M": 10, "MN": 5, "m": 0}]}),
    ([], {"n": 2, "levels": [{"u": 1e-160, "M": 10, "MN": 5, "m": 3, "Y": [2, 1]}]}),
    (["--bias-correct"], {"n": 2, "levels": [{"u": 1e-160, "M": 10, "MN": 5, "m": 3, "Y": [2, 1]}]}),
    # the BFGS start has a gradient near the float limit
    ([], {"n": 0, "levels": [{"u": 1e-300, "M": 10, "MN": 5, "m": 0},
                             {"u": 1.0, "M": 8, "MN": 2, "m": 0}]}),
]


@pytest.mark.parametrize("flags, doc", _DEGENERATE_INFORMATION)
def test_degenerate_information_exits_3_with_one_line(tmp_path, capsys, flags, doc):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "fit", "--input", str(path), *flags)
    size = 1 if "--no-udsa" in flags else max(doc["n"], 1)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: information matrix of size {size} is singular")


@pytest.mark.parametrize("k", [1e150, 3.0, 1e-150])
def test_bias_term_scales_with_the_dilutions(tmp_path, capsys, k):
    # rates and their bias scale as 1/u: scaling every u by k leaves k * bias
    # where it is at k = 1, though k^3 passes the float range
    def bias(factor):
        path = tmp_path / f"u_{factor}.json"
        path.write_text(json.dumps({"n": 0, "levels": [{"u": factor, "M": 10, "MN": 5, "m": 0},
                                                       {"u": 2 * factor, "M": 8, "MN": 2, "m": 0}]}))
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--bias-correct")
        assert code == 0 and err == ""
        return json.loads(out)["bias_corrected"]["bias"][0]

    unit = bias(1.0)
    assert unit > 0.0
    assert k * bias(k) == pytest.approx(unit, rel=3e-14, abs=0.0)


def test_vanishing_level_leaves_the_information_of_the_others(tmp_path, capsys):
    # at u = 1e-300 the first level adds u^2 F / t_i ~ 1e-300 to the
    # information, which rounds away against the second level's alone
    path = tmp_path / "tiny_u.json"
    path.write_text(json.dumps({"n": 2, "levels": [
        {"u": 1e-300, "M": 10, "MN": 5, "m": 3, "Y": [2, 1]},
        {"u": 1.0, "M": 8, "MN": 2, "m": 4, "Y": [3, 2]}]}))
    code, out, _ = run_cli(capsys, "fit", "--input", str(path))
    assert code == 0
    estimate = json.loads(out)["estimate"]
    tau = np.array(estimate["tau"])
    assert estimate["se"] == math.sqrt(covariance(fisher_information_multi(LevelPass(tau, [(1.0, 8, 4 / 6)]))).sum())
    # the bias term scales each level's sums by (u / s)^3 with s = 1: the
    # first level's sums overflow, and (u / s)^3 = 0 times them is NaN
    code, out, err = run_cli(capsys, "fit", "--input", str(path), "--bias-correct")
    assert code == 3
    assert out == ""
    assert err == "error: the derivative of the information matrix leaves the float range\n"


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

    def test_alpha_is_not_an_option(self, tmp_path, capsys):
        # nothing that lrt reports depends on a confidence level
        path = write_subject(tmp_path, "C1")
        with pytest.raises(SystemExit) as exc:
            main(["lrt", "--input", str(path), "--alpha", "0.2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == "iupm: error: unrecognized arguments: --alpha 0.2\n"

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit"], "iupm fit: error: the following arguments are required: --input/-i"),
        (["fit", "--input", "a.json", "--output-format", "xml"], "iupm fit: error: argument --output-format: invalid choice"),
        (["lrt", "--input", "a.json", "--alpha", "0.2"], "iupm: error: unrecognized arguments: --alpha 0.2"),
    ],
    ids=["no-input", "xml-output", "lrt-alpha"],
)
def test_usage_error_is_one_line(capsys, argv, message):
    # argparse would print the usage block first
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(message)


def test_help_prints_the_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: iupm fit [-h] --input INPUT")


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

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"T": 1.0, "reps": 1%s}' % ("0" * 5000))
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "digits is too long" in err and "set_int_max_str_digits" not in err

    def test_plain_scenario_file_stem_must_be_a_valid_name(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path).rename(tmp_path / "a,b.json")
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "named after its file" in err and "'a,b'" in err

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
            ({"n_dvl": 2.5}, "n_dvl must be an integer"),
            ({"levels": [{"u": 1.0, "M": 4.5, "q": 1.0}]}, "levels[0].M must be an integer"),
            ({"reps": 2.5}, "reps must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"rep": 10}, "unknown key 'rep'"),
            ({"levels": [{"u": 1.0, "M": 10, "q": 1.0, "m": 3}]}, "levels[0]: unknown key 'm'"),
            (
                {
                    "model": "imperfect",
                    "rates": {"sens_qvoa": 0.9, "spec_qvoa": 0.9, "sens_udsa": 0.9, "spec_udsa": 0.9, "sens": 1},
                },
                "rates: unknown key 'sens'",
            ),
            ({"name": "x"}, "unknown key 'name'"),
            ({"levels": [{"u": True, "M": 10, "q": 1.0}]}, "levels[0].u must be a number"),
            ({"levels": [{"u": 1.0, "M": 10, "q": False}]}, "levels[0].q must be a number"),
            ({"model": "imperfect", "rates": [1, 2]}, "rates must be an object with sens_qvoa"),
            ({"levels": {"u": 1}}, "levels must be a non-empty list of {u, M, q} objects"),
            ({"gammas": [0.0, 1.0]}, "two dilution levels"),
            ({"gammas": [-1.0]}, "gammas[0] must be a non-negative finite number"),
            (
                {"gammas": [0.0], "comparator": "mle-with-udsa", "levels": [{"u": 1.0, "M": 6, "q": 1.0}] * 2},
                "takes no estimators or comparator",
            ),
            (
                {"model": "negbin", "gammas": [10**400], "levels": [{"u": 1.0, "M": 6, "q": 1.0}] * 2},
                "gammas[0] must be a non-negative finite number",
            ),
            ({"gamma": 3.0}, "a nonzero gamma applies only to the negbin model, not 'poisson'"),
            ({"rates": RATES}, "error rates apply only to the imperfect model, not 'poisson'"),
            (
                {"model": "negbin", "gamma": 1.0, "rates": RATES, "levels": [{"u": 1.0, "M": 6, "q": 1.0}] * 2},
                "error rates apply only to the imperfect model, not 'negbin'",
            ),
            (
                {"model": "imperfect", "rates": RATES, "gammas": [0.0, 1.0], "levels": [{"u": 1.0, "M": 6, "q": 1.0}] * 2},
                "a power scenario draws from the negbin model at each of its gammas: it takes neither",
            ),
            (
                {"model": "negbin", "gamma": 2.0, "gammas": [1.0], "levels": [{"u": 1.0, "M": 6, "q": 1.0}] * 2},
                "a power scenario draws from the negbin model at each of its gammas: it takes neither",
            ),
        ],
        ids=[
            "unknown-comparator", "imperfect-on-poisson", "odd-non-constant", "single-level-negbin",
            "boolean-rate", "unidentifiable-rates", "fractional-n_dvl", "fractional-M", "fractional-reps",
            "fractional-seed", "unknown-key", "unknown-level-key", "unknown-rate-key", "name-outside-a-study",
            "boolean-u", "boolean-q", "rates-list", "levels-object", "single-level-power", "negative-gamma",
            "power-with-comparator", "huge-integer-gamma", "gamma-on-poisson", "rates-on-poisson",
            "rates-on-negbin", "imperfect-power", "power-with-gamma",
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

    @pytest.mark.parametrize(
        "overrides",
        [{"levels": [{"u": 1.0, "M": 10**15, "q": 1.0}]}, {"n_dvl": 10**15}, {"reps": 10**15}],
        ids=["M", "n_dvl", "reps"],
    )
    def test_draw_arrays_that_cannot_be_allocated_exit_2(self, tmp_path, capsys, overrides):
        # numpy refuses an array of 10^15 entries or more before it allocates any of it
        path = self.write_scenario(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")

    def write_study(self, tmp_path, *scenarios, **extra):
        base = json.loads(self.write_scenario(tmp_path).read_text())
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"scenarios": [{**base, **sc} for sc in scenarios], **extra}))
        return path

    def test_study_output_is_its_scenarios_run_alone(self, tmp_path, capsys):
        first, second = {"name": "first"}, {"name": "second", "n_dvl": 2, "seed": 7, "comparator": "mle-with-udsa"}
        code, out, err = run_cli(capsys, "simulate", "--input", str(self.write_study(tmp_path, first, second)))
        assert code == 0, err
        alone = []
        for sc in (first, second):
            path = self.write_scenario(tmp_path, **{k: v for k, v in sc.items() if k != "name"})
            alone.append(run_cli(capsys, "simulate", "--input", str(path.rename(tmp_path / f"{sc['name']}.json")))[1])
        assert out == alone[0] + alone[1].split("\n", 1)[1]

    def test_seed_overrides_every_scenario(self, tmp_path, capsys):
        path = self.write_study(tmp_path, {"name": "a", "seed": 1}, {"name": "b", "seed": 2})
        overridden = run_cli(capsys, "simulate", "--input", str(path), "--seed", "5")
        path = self.write_study(tmp_path, {"name": "a", "seed": 5}, {"name": "b", "seed": 5})
        assert overridden[0] == 0 and overridden == run_cli(capsys, "simulate", "--input", str(path))

    def test_power_study_writes_one_row_per_gamma(self, tmp_path, capsys):
        levels = [{"u": 0.5, "M": 6, "q": 0.0}, {"u": 1.0, "M": 6, "q": 1.0}]
        path = self.write_study(
            tmp_path, {"name": "a", "levels": levels, "gammas": [0.0, 2.0]}, {"name": "b", "levels": levels, "gammas": [1.0]}
        )
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "scenario,gamma,power,reps"
        assert [line.split(",")[:2] for line in lines[1:]] == [["a", "0.0"], ["a", "2.0"], ["b", "1.0"]]

    @pytest.mark.parametrize(
        "scenarios, extra, args, message",
        [
            ([{"name": "a"}, {"name": "b"}], {}, ["--estimates", "reps.csv"], "--estimates needs a document with one"),
            ([{"name": "a"}, {"name": "a"}], {}, [], "scenario name 'a' is used twice"),
            (
                [{"name": "a"}, {"name": "b", "gammas": [0.0], "levels": [{"u": 1.0, "M": 6, "q": 1.0}] * 2}],
                {}, [], "power scenarios (gammas) and metrics scenarios cannot share one file",
            ),
            ([{"name": "a"}], {"seed": 1}, [], "study: unknown key 'seed'"),
            ([{"name": "a", "rep": 10}], {}, [], "bad scenario 0: unknown key 'rep'"),
            ([{"name": "a"}, {"name": "b,c"}], {}, [], "bad scenario 1: name must be a non-empty string"),
        ],
        ids=["estimates-with-two", "duplicate-names", "power-and-metrics", "unknown-study-key",
             "unknown-scenario-key", "comma-in-name"],
    )
    def test_unusable_study_exits_2(self, tmp_path, capsys, monkeypatch, scenarios, extra, args, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr("iupm.simulate._simulate_until_regular", no_draws)
        monkeypatch.chdir(tmp_path)
        path = self.write_study(tmp_path, *scenarios, **extra)
        code, out, err = run_cli(capsys, "simulate", "--input", str(path), *args)
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
