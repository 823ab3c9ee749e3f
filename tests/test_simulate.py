import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iupm import (
    AssayDataError,
    ErrorRates,
    MultiDilutionAssay,
    SimLevel,
    SimScenario,
    WellAssay,
    allocate_rates,
    classify_extreme,
    restrict_to_detected,
    scenario_to_json,
    simulate_level,
    study_from_json,
    summarize_well_assay,
    validate,
)
from iupm.imperfect import _Level
from iupm.negbin import LrtResult
from iupm.poisson import ExtremeOutcome
from iupm.simulate import (
    BC_MLE_WITHOUT_UDSA,
    BC_MLE_WITH_UDSA,
    IMPERFECT_MLE,
    MLE_WITHOUT_UDSA,
    MLE_WITH_UDSA,
    NB_MLE,
    PERFECT_ASSUMED_MLE,
    SimDraw,
    _apply_estimators,
    _rng_for,
    _simulate_until_regular,
    metrics_csv,
    replicates_csv,
    run_study,
)
from helpers import (
    ReferenceTables,
    as_arrays,
    reference_draw,
    reference_factors,
    reference_simulate_level,
)


def small_scenario(**overrides):
    base = dict(
        truth=1.0,
        n_dvl=4,
        levels=(SimLevel(1.0, 10, 1.0),),
        reps=30,
        seed=1234,
    )
    base.update(overrides)
    return SimScenario(**base)


class TestAllocateRates:
    def test_constant_split(self):
        np.testing.assert_allclose(allocate_rates(1.0, 6, "constant"), np.full(6, 1 / 6))

    def test_non_constant_split(self):
        expected = [1 / 12] * 3 + [1 / 4] * 3
        np.testing.assert_allclose(allocate_rates(1.0, 6, "non-constant"), expected)

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.integers(min_value=1, max_value=30),
        st.sampled_from(["constant", "non-constant"]),
    )
    def test_always_sums_to_the_total(self, truth, n, allocation):
        if allocation == "non-constant" and n % 2:
            with pytest.raises(ValueError):
                allocate_rates(truth, n, allocation)
            return
        assert allocate_rates(truth, n, allocation).sum() == pytest.approx(truth, abs=1e-12)


class TestSimulateLevel:
    def test_full_sequencing_covers_all_positives(self):
        rng = _rng_for(5, 0)
        tau = allocate_rates(1.0, 4, "constant")
        level = summarize_well_assay(simulate_level(tau, 1.0, 20, 1.0, rng))
        assert level.m == level.M_P
        assert sum(level.Y) >= level.m

    def test_zero_rates_give_all_negative(self):
        rng = _rng_for(6, 0)
        level = summarize_well_assay(simulate_level(np.zeros(3), 1.0, 12, 1.0, rng))
        assert level.M_N == 12 and level.m == 0 and level.Y == (0, 0, 0)

    def test_positive_fraction_matches_the_model(self):
        rng = _rng_for(7, 0)
        tau = allocate_rates(1.0, 5, "constant")
        level = summarize_well_assay(simulate_level(tau, 1.0, 1000, 0.0, rng))
        p = 1.0 - math.exp(-1.0)
        sd = math.sqrt(1000 * p * (1 - p))
        assert abs(level.M_P - 1000 * p) <= 3.0 * sd

    def test_negbin_generation_dampens_positives(self):
        # overdispersion clusters infected cells, so fewer wells are positive
        rng = _rng_for(8, 0)
        tau = allocate_rates(1.0, 1, "constant")
        level = summarize_well_assay(simulate_level(tau, 1.0, 4000, 0.0, rng, model="negbin", gamma=4.0))
        p = 1.0 - (1.0 + 4.0) ** (-1.0 / 4.0)
        sd = math.sqrt(4000 * p * (1 - p))
        assert abs(level.M_P - 4000 * p) <= 4.0 * sd

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_generated_assays_validate(self, seed):
        scn = small_scenario(seed=seed % (2**31), levels=(SimLevel(0.5, 8, 0.5), SimLevel(1.0, 12, 1.0)))
        draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, 0))
        assert validate(draw.assay).ok
        assert classify_extreme(draw.assay) is not ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL

    def test_imperfect_generation_returns_wells(self):
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        rng = _rng_for(9, 0)
        wells = simulate_level(allocate_rates(1.0, 3, "constant"), 1.0, 15, 1.0, rng, model="imperfect", rates=rates)
        assert (wells.u, wells.M, wells.n) == (1.0, 15, 3)
        # q = 1: every observed-positive well is sequenced
        assert np.array_equal(wells.r, wells.w_star)

    def test_restrict_well_assay_keeps_or_drops_columns(self):
        wa = WellAssay(2.0, [1, 1, 0], [1, 0, 0], [[1, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert restrict_to_detected([wa]) == [WellAssay(2.0, [1, 1, 0], [1, 0, 0], [[1, 1], [0, 0], [0, 0]])]
        kept = WellAssay(2.0, [1, 1, 0], [1, 1, 0], [[1, 0], [0, 1], [0, 0]])
        assert restrict_to_detected([kept])[0] is kept


class TestMatchesRecordReference:
    """The array path draws, summarizes and restricts every replicate to the
    bits of the record-based path it replaced, and leaves the imperfect
    likelihood the same per-well factors."""

    @pytest.mark.parametrize("model", ["poisson", "negbin", "imperfect"])
    def test_draws(self, model):
        rates = ErrorRates(0.9, 0.85, 0.8, 0.95)
        for seed in range(70):
            q = (0.0, 0.5, 1.0)[seed % 3]
            levels = (SimLevel(0.5, 6 + seed % 11, q), SimLevel(2.0, 9, (0.0, 0.5, 1.0)[seed % 2 * 2]))
            scn = small_scenario(
                n_dvl=1 + seed % 5, levels=levels[: 1 + seed % 2], model=model, seed=seed,
                gamma=1.5 if model == "negbin" else 0.0, rates=rates if model == "imperfect" else None,
            )
            rng, ref_rng = _rng_for(seed, 0), _rng_for(seed, 0)
            draw, _ = _simulate_until_regular(scn, rng)
            assay, ref_wells = reference_draw(scn, ref_rng)
            assert draw.assay == assay, seed
            assert rng.random(4).tolist() == ref_rng.random(4).tolist(), seed  # same draws consumed
            if model != "imperfect":
                assert draw.well_assays is None
                continue
            assert draw.well_assays == tuple(as_arrays(ref) for ref in ref_wells), seed
            summaries = tuple(summarize_well_assay(wa, lv.q) for wa, lv in zip(draw.well_assays, scn.levels))
            assert summaries == assay.levels, seed
            for wa, ref in zip(draw.well_assays, ref_wells):
                level, tables = _Level(wa, rates), ReferenceTables(ref)
                for ours, theirs in zip(
                    (level.pz1, level.pz0, level.pw1, level.pw0, level.seq_idx),
                    (*reference_factors(tables, rates), tables.seq_idx),
                ):
                    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                    assert np.array_equal(ours, theirs), seed
                assert (level.n_unseq_pos, level.n_unseq_neg) == (tables.n_unseq_pos, tables.n_unseq_neg)
                assert type(level.n_unseq_pos) is int and type(level.n_unseq_neg) is int

    def test_simulate_level(self):
        tau = allocate_rates(1.0, 3, "constant")
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        for seed in range(60):
            model = ("poisson", "negbin", "imperfect")[seed % 3]
            q = (0.0, 0.5, 1.0)[seed // 3 % 3]
            kwargs = dict(model=model, gamma=2.0 if model == "negbin" else 0.0, rates=rates)
            wa = simulate_level(tau, 1.0, 12, q, _rng_for(seed, 0), **kwargs)
            summary, ref = reference_simulate_level(tau, 1.0, 12, q, _rng_for(seed, 0), **kwargs)
            assert wa == as_arrays(ref), seed
            assert summarize_well_assay(wa, q) == summary, seed

    def test_poisson_draw_drops_a_never_detected_lineage(self, monkeypatch):
        # lineage 0 has rate zero, so no well can detect it
        tau = np.array([0.0, 0.5, 0.5])
        for target in ("iupm.simulate.allocate_rates", "helpers.allocate_rates"):
            monkeypatch.setattr(target, lambda truth, n_dvl, allocation: tau)
        scn = small_scenario(n_dvl=3, levels=(SimLevel(0.5, 8, 0.5), SimLevel(2.0, 12, 1.0)))
        for seed in range(10):
            draw, _ = _simulate_until_regular(scn, _rng_for(seed, 0))
            assay, _ = reference_draw(scn, _rng_for(seed, 0))
            assert draw.assay.n < scn.n_dvl and draw.assay == assay, seed
            assert draw.well_assays is None


class TestRunStudy:
    def test_same_seed_reproduces_bitwise(self):
        scn = small_scenario()
        a = run_study(scn, estimators=[MLE_WITH_UDSA, MLE_WITHOUT_UDSA])
        b = run_study(scn, estimators=[MLE_WITH_UDSA, MLE_WITHOUT_UDSA])
        assert a == b

    def test_single_replicate_has_no_spread(self):
        scn = small_scenario(reps=1)
        res = run_study(scn, estimators=[MLE_WITH_UDSA])
        m = res[MLE_WITH_UDSA]
        assert m.ese is None
        assert math.isfinite(m.bias)
        assert m.n_used == 1

    def test_relative_efficiency_against_comparator(self):
        scn = small_scenario(reps=60, levels=(SimLevel(1.0, 16, 1.0),))
        res = run_study(
            scn,
            estimators=[MLE_WITH_UDSA, MLE_WITHOUT_UDSA],
            comparator=MLE_WITHOUT_UDSA,
        )
        assert res[MLE_WITHOUT_UDSA].re is None
        re = res[MLE_WITH_UDSA].re
        assert re is not None and re > 0
        expected = res[MLE_WITHOUT_UDSA].ese ** 2 / res[MLE_WITH_UDSA].ese ** 2
        assert re == pytest.approx(expected, rel=1e-12)

    def test_infinite_no_sequencing_replicates_are_excluded_not_redrawn(self):
        # large truth and few wells: all-positive outcomes are common; the
        # sequencing-based estimator keeps those replicates, the
        # count-only estimator drops them
        scn = SimScenario(
            truth=8.0,
            n_dvl=4,
            levels=(SimLevel(1.0, 6, 1.0),),
            reps=60,
            seed=97,
        )
        res = run_study(scn, estimators=[MLE_WITH_UDSA, MLE_WITHOUT_UDSA])
        assert res[MLE_WITHOUT_UDSA].n_used < scn.reps
        assert res[MLE_WITH_UDSA].n_used > res[MLE_WITHOUT_UDSA].n_used

    def test_divergent_draws_are_resimulated_and_counted(self):
        scn = SimScenario(
            truth=5.0,
            n_dvl=2,
            levels=(SimLevel(1.0, 4, 1.0),),
            reps=40,
            seed=13,
        )
        res = run_study(scn, estimators=[MLE_WITH_UDSA])
        assert res[MLE_WITH_UDSA].discarded > 0

    def test_nb_estimator_reports_point_estimates_only(self):
        scn = small_scenario(
            reps=10,
            levels=(SimLevel(1.0, 12, 0.5), SimLevel(2.0, 18, 1.0)),
            model="negbin",
            gamma=0.0,
        )
        res = run_study(scn, estimators=[NB_MLE])
        m = res[NB_MLE]
        assert m.ase is None and m.cp is None
        assert m.n_used > 0

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            run_study(small_scenario(), estimators=["nope"])

    def test_imperfect_estimator_needs_well_data(self):
        with pytest.raises(ValueError):
            run_study(small_scenario(), estimators=["imperfect-mle"])

    def test_impossible_imperfect_replicate_is_excluded(self):
        # under these rates the sequenced QVOA-positive well 1 with z* = 0
        # cannot occur; the fit rejects the data and the study drops it
        scn = small_scenario(model="imperfect", rates=ErrorRates(1.0, 1.0, 1.0, 0.8))
        wa = WellAssay(1.0, [1, 1, 0, 1], [1, 1, 0, 0], [[1], [0], [0], [0]])
        draw = SimDraw(assay=MultiDilutionAssay((summarize_well_assay(wa),), 1), well_assays=(wa,))
        assert _apply_estimators([IMPERFECT_MLE, PERFECT_ASSUMED_MLE], scn, draw)[IMPERFECT_MLE] is None

    def test_without_udsa_pair_matches_direct_fits(self):
        scn = small_scenario(reps=15, levels=(SimLevel(0.5, 14, 0.5), SimLevel(1.0, 20, 1.0)))
        res, reps = run_study(
            scn, estimators=[MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA], keep_replicates=True
        )
        from iupm import fit_bc_mle, fit_mle

        draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, 3))
        stripped = draw.assay.strip_udsa()
        assert reps[MLE_WITHOUT_UDSA][0, 3] == pytest.approx(fit_mle(stripped).iupm)
        assert reps[BC_MLE_WITHOUT_UDSA][0, 3] == pytest.approx(fit_bc_mle(stripped).iupm)


class TestLrtPowerStudy:
    def test_rejection_rate_rises_with_dispersion(self):
        from iupm import lrt_power_study

        scn = SimScenario(
            truth=1.0,
            n_dvl=12,
            levels=(SimLevel(0.5, 30, 0.0), SimLevel(1.0, 60, 0.5), SimLevel(2.0, 90, 1.0)),
            model="negbin",
            reps=100,
            seed=321,
        )
        rows = lrt_power_study(scn, [0.0, 4.0])
        assert rows[0]["gamma"] == 0.0 and rows[1]["gamma"] == 4.0
        assert rows[1]["power"] > rows[0]["power"]
        assert rows[0]["power"] <= 0.12  # near the nominal level under the null

    def test_drops_only_unfittable_replicates(self, monkeypatch):
        from iupm import IdentifiabilityError, SingularInformationError, lrt_power_study

        scn = small_scenario(reps=6, levels=(SimLevel(0.5, 12, 0.5), SimLevel(1.0, 12, 1.0)))
        seen = []

        def lrt(assay):
            seen.append(assay)
            if len(seen) % 3 == 1:
                raise IdentifiabilityError("boundary")
            if len(seen) % 3 == 2:
                raise SingularInformationError("singular")
            return LrtResult(statistic=0.0, p_value=1.0)

        monkeypatch.setattr("iupm.simulate.lrt_overdispersion", lrt)
        rows = lrt_power_study(scn, [1.0])
        assert len(seen) == 6
        assert rows == [{"gamma": 1.0, "power": 0.0, "reps": 2}]

    def test_other_errors_propagate(self, monkeypatch):
        from iupm import lrt_power_study

        def lrt(assay):
            raise ValueError("a bug, not a data problem")

        monkeypatch.setattr("iupm.simulate.lrt_overdispersion", lrt)
        scn = small_scenario(reps=2, levels=(SimLevel(0.5, 12, 0.5), SimLevel(1.0, 12, 1.0)))
        with pytest.raises(ValueError, match="a bug"):
            lrt_power_study(scn, [1.0])

    def test_single_level_scenario_rejected_before_any_draw(self, monkeypatch):
        from iupm import IdentifiabilityError, lrt_power_study

        def draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr("iupm.simulate._simulate_until_regular", draw)
        with pytest.raises(IdentifiabilityError, match="two dilution levels"):
            lrt_power_study(small_scenario(reps=5, model="negbin"), [0.0, 1.0])


class TestScenarioIO:
    def test_round_trip(self):
        scn = SimScenario(
            truth=0.5,
            n_dvl=6,
            levels=(SimLevel(0.5, 6, 0.0), SimLevel(1.0, 12, 0.5)),
            allocation="non-constant",
            model="negbin",
            gamma=0.2,
            reps=100,
            seed=9,
        )
        text = scenario_to_json(scn, estimators=[NB_MLE], comparator=None)
        _, parsed, estimators, comparator, _ = study_from_json(text)[0]
        assert parsed == scn
        assert estimators == [NB_MLE]
        assert comparator is None

    def test_imperfect_round_trip(self):
        scn = SimScenario(
            truth=1.0,
            n_dvl=6,
            levels=(SimLevel(1.0, 32, 1.0),),
            model="imperfect",
            rates=ErrorRates(0.9, 0.9, 0.9, 0.9),
            reps=10,
            seed=4,
        )
        parsed = study_from_json(scenario_to_json(scn))[0].scenario
        assert parsed == scn

    def test_bad_documents_rejected(self):
        with pytest.raises(AssayDataError):
            study_from_json("{")
        with pytest.raises(AssayDataError):
            study_from_json('{"T": 1.0}')
        with pytest.raises(AssayDataError):
            study_from_json(
                '{"T": 1.0, "n_dvl": 2, "levels": [{"u": 1, "M": 5, "q": 1.0}],'
                ' "estimators": ["bogus"]}'
            )
        for extra in ('"estimators": "mle-with-udsa"', '"estimators": [[]]', '"comparator": {}'):
            with pytest.raises(AssayDataError):
                study_from_json('{"T": 1.0, "n_dvl": 2, "levels": [{"u": 1, "M": 5, "q": 1.0}], ' + extra + "}")

    def test_csv_rendering_is_stable(self):
        scn = small_scenario(reps=5)
        metrics, reps = run_study(scn, estimators=[MLE_WITH_UDSA], keep_replicates=True)
        text1 = metrics_csv(metrics, "demo", scn.truth)
        text2 = metrics_csv(run_study(scn, estimators=[MLE_WITH_UDSA]), "demo", scn.truth)
        assert text1 == text2
        per_rep = replicates_csv(reps)
        assert per_rep.splitlines()[0] == "rep,estimator,estimate,se,lower,upper"
        assert len(per_rep.splitlines()) == 1 + metrics[MLE_WITH_UDSA].n_used

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            SimScenario(truth=0.0, n_dvl=2, levels=(SimLevel(1.0, 5, 1.0),))
        with pytest.raises(ValueError):
            allocate_rates(1.0, 3, "non-constant")
        with pytest.raises(ValueError):
            SimScenario(truth=1.0, n_dvl=2, levels=(), reps=1)
        with pytest.raises(ValueError):
            SimScenario(truth=1.0, n_dvl=2, levels=(SimLevel(1.0, 5, 1.0),), model="imperfect")
        with pytest.raises(ValueError):
            SimScenario(truth=1.0, n_dvl=3, levels=(SimLevel(1.0, 5, 1.0),), allocation="non-constant")
        with pytest.raises(ValueError):
            SimScenario(truth=math.inf, n_dvl=2, levels=(SimLevel(1.0, 5, 1.0),))
        for u, M, q in ((0.0, 5, 1.0), (math.nan, 5, 1.0), (1.0, 0, 1.0), (1.0, 5, 2.0)):
            with pytest.raises(ValueError):
                SimLevel(u, M, q)

    def test_divergent_scenario_is_bad_input(self):
        # One lineage at rate 50 per well fills every well: each draw is divergent.
        scn = SimScenario(truth=50.0, n_dvl=1, levels=(SimLevel(1.0, 3, 1.0),), reps=1)
        with pytest.raises(AssayDataError, match="5 divergent"):
            _simulate_until_regular(scn, _rng_for(0, 0), max_attempts=5)
