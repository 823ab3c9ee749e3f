"""The Poisson MLE of an assay is fitted once and reused by every consumer:
the bias correction, the overdispersed fit, the LRT, the study harness and
the command line."""

import json

import numpy as np
import pytest

import iupm.inference
from iupm import (
    DilutionLevelData,
    IdentifiabilityError,
    MultiDilutionAssay,
    SimLevel,
    SimScenario,
    bias_correct,
    fit_bc_mle,
    fit_mle,
    fit_negbin,
    lrt_overdispersion,
    run_study,
    to_summary_json,
)
from iupm.cli import main
from iupm.simulate import _rng_for, _simulate_until_regular

_MULTI = (SimLevel(0.5, 12, 0.0), SimLevel(1.0, 24, 0.5), SimLevel(2.0, 36, 1.0))


@pytest.fixture
def fit_calls(monkeypatch):
    """Counts fit_mle calls made through every module that imports it."""
    calls = []
    original = iupm.inference.fit_mle

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in ("simulate", "negbin", "bias", "cli"):
        monkeypatch.setattr(f"iupm.{module}.fit_mle", counted)
    return calls


def sequenced_assay(seed=44, rep=0):
    scn = SimScenario(truth=1.0, n_dvl=4, levels=_MULTI, reps=1, seed=seed)
    draw, _ = _simulate_until_regular(scn, _rng_for(seed, rep))
    return draw.assay


def boundary_assay():
    levels = (
        DilutionLevelData(u=1.0, M=6, M_N=0, m=3, Y=(3,)),
        DilutionLevelData(u=2.0, M=6, M_N=0, m=6, Y=(6,)),
    )
    return MultiDilutionAssay(levels, 1)


def assert_same_fit(a, b):
    assert type(a) is type(b)
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other, equal_nan=True), name
        elif isinstance(value, float) and np.isnan(value):
            assert np.isnan(other), name
        else:
            assert value == other, name


class TestCallCounts:
    def test_poisson_study_fits_each_assay_once(self, fit_calls):
        reps = 6
        run_study(SimScenario(truth=1.0, n_dvl=6, levels=_MULTI, reps=reps, seed=5))
        assert len(fit_calls) == 2 * reps
        assert sum(assay.n == 0 for assay in fit_calls) == reps

    def test_negbin_study_fits_the_assay_once(self, fit_calls):
        reps = 4
        run_study(SimScenario(truth=1.0, n_dvl=6, levels=_MULTI, model="negbin", gamma=2.0, reps=reps, seed=6))
        assert len(fit_calls) == reps

    def test_lrt_fits_once(self, fit_calls):
        lrt_overdispersion(sequenced_assay())
        assert len(fit_calls) == 1

    @pytest.mark.parametrize("argv", [["fit", "--bias-correct"], ["lrt"]])
    def test_cli_fits_once(self, tmp_path, capsys, fit_calls, argv):
        path = tmp_path / "assay.json"
        path.write_text(to_summary_json(sequenced_assay()))
        assert main(argv[:1] + ["--input", str(path)] + argv[1:]) == 0
        json.loads(capsys.readouterr().out)
        assert len(fit_calls) == 1


class TestReuseIsExact:
    @pytest.mark.parametrize("kind", ["sequenced", "stripped", "boundary"])
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_bias_correct_matches_fit_bc_mle(self, kind, alpha):
        assay = boundary_assay() if kind == "boundary" else sequenced_assay()
        if kind == "stripped":
            assay = assay.strip_udsa()
        reused = bias_correct(fit_mle(assay, alpha=alpha), assay)
        assert_same_fit(reused, fit_bc_mle(assay, alpha=alpha))
        assert reused.alpha == alpha
        if kind != "boundary":
            assert reused.bias is not None

    @pytest.mark.parametrize("rep", [0, 1, 2])
    def test_negbin_from_a_given_fit_matches_its_own(self, rep):
        assay = sequenced_assay(seed=45, rep=rep)
        assert_same_fit(fit_negbin(assay, pois=fit_mle(assay)), fit_negbin(assay))

    def test_negbin_rejects_a_given_boundary_fit(self):
        assay = boundary_assay()
        with pytest.raises(IdentifiabilityError, match="all-positive-single-dvl"):
            fit_negbin(assay, pois=fit_mle(assay))
