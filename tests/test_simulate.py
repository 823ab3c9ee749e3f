import hashlib
import math
import re

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
    _rng_for,
    _simulate_until_regular,
    lrt_power_study,
    metrics_csv,
    replicates_csv,
    run_study,
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

    @pytest.mark.parametrize("allocation", ["constant", "non-constant"])
    @pytest.mark.parametrize("n_dvl", [0, -2])
    def test_fewer_than_one_lineage_is_refused(self, n_dvl, allocation):
        with pytest.raises(ValueError, match=f"^n_dvl must be at least 1, got {n_dvl}$"):
            allocate_rates(1.0, n_dvl, allocation)

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


def _bad_level(u, M, q):
    return "^" + re.escape(f"a level needs u > 0 finite, an integer M >= 1 and q in [0, 1], "
                           f"got SimLevel(u={u!r}, M={M!r}, q={q!r})") + "$"


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
        validate(draw.assay)
        assert classify_extreme(draw.assay) is not ExtremeOutcome.ALL_POSITIVE_SINGLE_DVL

    def test_imperfect_generation_returns_wells(self):
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        rng = _rng_for(9, 0)
        wells = simulate_level(allocate_rates(1.0, 3, "constant"), 1.0, 15, 1.0, rng, model="imperfect", rates=rates)
        assert (wells.u, wells.M, wells.n) == (1.0, 15, 3)
        # q = 1: every observed-positive well is sequenced
        assert np.array_equal(wells.r, wells.w_star)

    @pytest.mark.parametrize(
        "level, kwargs, message",
        [
            ((1.0, 10, 0.5), {"model": "bogus"}, "^unknown model 'bogus'$"),
            ((1.0, 10, 0.5), {"model": "imperfect"}, "^the imperfect model needs error rates$"),
            ((1.0, 10, 0.5), {"model": "negbin", "gamma": -1.0}, "^gamma must be non-negative and finite$"),
            ((1.0, 10, 0.5), {"rates": ErrorRates(0.9, 0.9, 0.9, 0.9)},
             "^error rates apply only to the imperfect model, not 'poisson'$"),
            ((1.0, 10, 0.5), {"gamma": 3.0}, "^a nonzero gamma applies only to the negbin model, not 'poisson'$"),
            ((1.0, 10.5, 0.5), {}, _bad_level(1.0, 10.5, 0.5)),
            ((1.0, True, 0.5), {}, _bad_level(1.0, True, 0.5)),
            ((1.0, 10, 1.5), {}, _bad_level(1.0, 10, 1.5)),
            ((1.0, 10, -0.5), {}, _bad_level(1.0, 10, -0.5)),
        ],
        ids=["unknown-model", "imperfect-without-rates", "negative-gamma", "rates-poisson", "gamma-poisson",
             "fractional-M", "boolean-M", "q-above-one", "negative-q"],
    )
    def test_refuses_what_a_scenario_refuses(self, level, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimScenario(truth=1.0, n_dvl=2, levels=(SimLevel(*level),), **kwargs)
        with pytest.raises(ValueError, match=message):
            simulate_level(np.full(2, 0.5), *level, _rng_for(0, 0), **kwargs)

    def test_restrict_well_assay_keeps_or_drops_columns(self):
        wa = WellAssay(2.0, [1, 1, 0], [1, 0, 0], [[1, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert restrict_to_detected([wa]) == [WellAssay(2.0, [1, 1, 0], [1, 0, 0], [[1, 1], [0, 0], [0, 0]])]
        kept = WellAssay(2.0, [1, 1, 0], [1, 1, 0], [[1, 0], [0, 1], [0, 0]])
        assert restrict_to_detected([kept])[0] is kept


def _digest(*arrays):
    """The first 8 hex digits of a SHA-256 over integer readings and Philox
    uniforms, each fed with its shape as little-endian int64 or float64 bytes.
    The digests pin these integers for this numpy's Generator stream, which
    numpy does not promise to keep across versions (they were recorded with
    numpy 2.4.6)."""
    digest = hashlib.sha256()
    for a in map(np.asarray, arrays):
        digest.update(repr(a.shape).encode())
        digest.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return digest.hexdigest()[:8]


def _assert_digests(got, recorded):
    bad = [seed for seed, (g, r) in enumerate(zip(got, recorded.split(), strict=True)) if g != r]
    assert not bad, f"seeds {bad} draw other values than recorded"


def _counts(level):
    return [level.M, level.M_N, level.m, *level.Y]


class TestMatchesRecordReference:
    """Each seed's draw hashes to the digest that the record-layout reference
    simulator gave for it at 48c97e5: the integer outputs, then the next four
    uniforms, which show that the draw consumed as many numbers."""

    DRAWS = {
        "poisson": """
            285370d2 ea75ac5d 28fa6431 7a346ee3 94eeb3ad 4eab1ec9 88aad240 547901b1 c002d450 9c630f93
            a1876ec1 7eb9e34f 235c9a35 6c2af706 e45fe4dc 994d1dbd 348afd99 db7d0120 23e30f13 ba932f61
            c3d47f9d 7de376ec 151c7339 6ef68b0d 86a21638 0b1563ac 483ddd2b f323268f 6fb426a5 449c2c85
            0f4696e4 0b9c68a3 811cf0bf bd92b8df 694d9105 619e138c 55bfbfc4 8ce1bb0a 9eeac155 70caf181
            443b4a81 765e861b 7c1b72ae 6eb7fa8f e926ef1e 8b82d466 d885ef62 3233875c 4784012e 0109c9ea
            ba0c21fc 8bb92937 75ad9e30 00848c2c 4f74aef6 31880920 06229df9 ebc2d174 5f9fcafc 7682125c
            59ac82a5 69d4621b 3dc14af1 7500fb25 0229f13b 65d2d219 e6542875 8e2c8eae e730ab33 50dfb46c
        """,
        "negbin": """
            aa8f77bd bdce292d 04233dfc efc4c10d 82e2b323 78d9a5c9 698c84d3 a7f24c72 a12ec629 6427018d
            b99575aa f603e31c 04f22ec5 03286762 3d92b437 b377abde eaaa8e34 ce5cef94 4b1abe5d 951eae95
            a0082da3 fa6b3cd3 578815c6 dc4cfadd be0b7018 0996fa58 5b62667d 7b96f735 7c86ffa5 71f350aa
            f4bf5e92 efca48d1 bd37014e 3b46f6fd 79050be6 f9dc5a39 ff07e20e c5180cb9 6192cb92 c6c45adc
            8e7436cf fe17a056 41b4fba7 48702e6a d00a2509 1aa06abe 72d16a9a 557de015 4b5831ba e5197304
            fa00d7c2 a065eaf1 8094612b f5b7b920 de03b0ea 4333bf69 d35059aa 7633d364 7a54fb6a 6f1dca45
            4ba0ade5 31fb766b c549ec02 cce7ed12 e7477ac3 ec636349 12e90b6a 7bfc31dc b86d78c2 e48bfa3b
        """,
        "imperfect": """
            990004bb 4ea2d219 1c91faa8 b57a7631 3c787889 4d87c261 3c5c4c86 f4f3f618 6e45c7a8 a3af8c3e
            24b9ff81 8a616932 e5f31f06 8cb3c3ff eed86bec eb08e2d2 605574fc 7483a728 23e62de7 ced21556
            25876bb5 272ab2c4 40ac40a6 5ce485b0 eb7863b2 b43dda40 d60405c4 76596fdd 6d94b91b aa88b33d
            ea46bd5a 93bf19ea 186c565a d24ff5c7 e6ed6146 764d01aa 9238a7e0 31e531d2 4da2aa89 af340b44
            e77fc748 f862a250 103155ca 53794688 990b3b1c 5f1aa961 bd6150e7 2928c2a0 50ff2112 8e18a6d2
            629943f0 ea384888 11967204 a146bb42 c54d3d19 3bf4cae8 8064512f 23bacab2 9d20e2fc 6712dbe1
            dc70789b 43e20d99 111a11c6 0022ea3d e411d600 691d4baa e3dd9ddb c52d360a 28caad3f 2069ac07
        """,
    }
    LEVELS = """
        6ab43df1 ae05cf50 99ba5dd4 79c6775c 0dcb7c3a 305ae64e 5f138e47 9adda7b1 aa102258 5051fb54
        d5827b41 0fd3d464 134a4bba 86682879 576bf024 caaccf65 df0fed10 432c9e8f be3f73c9 2bcc5a2f
        548e5376 75eae7d2 adf9b649 c40ba831 6304be60 096c498f 40fad13a 2cb4cc7e 98ffdb5a 5fef61cf
        d8215a5c fa936ea0 8bf64da0 2c1fc3bc 0fefb86b 41458def 6ee0752f fd174037 29af48ae 83f81209
        45f9151a fe170ed7 6edfbff5 1a0ce7d5 09d1183c fdee9417 809fb38e 7343ec91 d5107c29 6f57223b
        b7e80da4 ef805e37 c12fada6 7d2c045f 13c5b5d1 3380a074 f62650e3 dbe05353 80924b22 b6165966
    """
    DROPPED_LINEAGE = "58873b6b e329e0bc 0ab257b2 f2444de4 c755add4 eb678a15 db52715e e86d2130 3466b5ea 38efa1bd"

    @pytest.mark.parametrize("model", ["poisson", "negbin", "imperfect"])
    def test_draws(self, model):
        rates = ErrorRates(0.9, 0.85, 0.8, 0.95)
        digests = []
        for seed in range(70):
            q = (0.0, 0.5, 1.0)[seed % 3]
            levels = (SimLevel(0.5, 6 + seed % 11, q), SimLevel(2.0, 9, (0.0, 0.5, 1.0)[seed % 2 * 2]))
            scn = small_scenario(
                n_dvl=1 + seed % 5, levels=levels[: 1 + seed % 2], model=model, seed=seed,
                gamma=1.5 if model == "negbin" else 0.0, rates=rates if model == "imperfect" else None,
            )
            rng = _rng_for(seed, 0)
            draw, _ = _simulate_until_regular(scn, rng)
            outputs = [*map(_counts, draw.assay.levels), rng.random(4)]
            if model != "imperfect":
                assert draw.well_assays is None
            else:
                outputs += [a for wa in draw.well_assays for a in (wa.w_star, wa.r, wa.z_star)]
                summaries = tuple(summarize_well_assay(wa, lv.q) for wa, lv in zip(draw.well_assays, scn.levels))
                assert summaries == draw.assay.levels, seed
            digests.append(_digest(*outputs))
        _assert_digests(digests, self.DRAWS[model])

    def test_simulate_level(self):
        tau = allocate_rates(1.0, 3, "constant")
        rates = ErrorRates(0.9, 0.9, 0.9, 0.9)
        digests = []
        for seed in range(60):
            model = ("poisson", "negbin", "imperfect")[seed % 3]
            q = (0.0, 0.5, 1.0)[seed // 3 % 3]
            kwargs = dict(
                model=model, gamma=2.0 if model == "negbin" else 0.0, rates=rates if model == "imperfect" else None
            )
            rng = _rng_for(seed, 0)
            wa = simulate_level(tau, 1.0, 12, q, rng, **kwargs)
            digests.append(_digest(wa.w_star, wa.r, wa.z_star, _counts(summarize_well_assay(wa, q)), rng.random(4)))
        _assert_digests(digests, self.LEVELS)

    def test_poisson_draw_drops_a_never_detected_lineage(self, monkeypatch):
        # lineage 0 has rate zero, so no well can detect it
        tau = np.array([0.0, 0.5, 0.5])
        monkeypatch.setattr("iupm.simulate.allocate_rates", lambda truth, n_dvl, allocation: tau)
        scn = small_scenario(n_dvl=3, levels=(SimLevel(0.5, 8, 0.5), SimLevel(2.0, 12, 1.0)))
        digests = []
        for seed in range(10):
            rng = _rng_for(seed, 0)
            draw, _ = _simulate_until_regular(scn, rng)
            assert draw.assay.n < scn.n_dvl and draw.well_assays is None, seed
            digests.append(_digest(*map(_counts, draw.assay.levels), rng.random(4)))
        _assert_digests(digests, self.DROPPED_LINEAGE)


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

    def test_impossible_imperfect_replicate_is_excluded(self, monkeypatch):
        # under these rates the sequenced QVOA-positive well 1 with z* = 0
        # cannot occur; the fit rejects the data and the study drops it
        scn = small_scenario(model="imperfect", rates=ErrorRates(1.0, 1.0, 1.0, 0.8), reps=1)
        wa = WellAssay(1.0, [1, 1, 0, 1], [1, 1, 0, 0], [[1], [0], [0], [0]])
        draw = SimDraw(assay=MultiDilutionAssay((summarize_well_assay(wa),), 1), well_assays=(wa,))
        monkeypatch.setattr("iupm.simulate._simulate_until_regular", lambda scenario, rng: (draw, 0))
        res, reps = run_study(scn, estimators=[IMPERFECT_MLE, PERFECT_ASSUMED_MLE], keep_replicates=True)
        assert res[IMPERFECT_MLE].n_used == 0 and np.isnan(reps[IMPERFECT_MLE]).all()

    def test_without_udsa_pair_matches_direct_fits(self):
        scn = small_scenario(reps=15, levels=(SimLevel(0.5, 14, 0.5), SimLevel(1.0, 20, 1.0)))
        res, reps = run_study(
            scn, estimators=[MLE_WITHOUT_UDSA, BC_MLE_WITHOUT_UDSA], keep_replicates=True
        )
        from iupm import bias_correct, fit_mle

        draw, _ = _simulate_until_regular(scn, _rng_for(scn.seed, 3))
        stripped = draw.assay.strip_udsa()
        assert reps[MLE_WITHOUT_UDSA][0, 3] == pytest.approx(fit_mle(stripped).iupm)
        assert reps[BC_MLE_WITHOUT_UDSA][0, 3] == pytest.approx(bias_correct(fit_mle(stripped)).iupm)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail on any replicate draw, for arguments refused before the first."""
    def draw(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr("iupm.simulate._simulate_until_regular", draw)


class TestLrtPowerStudy:
    def test_rejection_rate_rises_with_dispersion(self):
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
        from iupm import IdentifiabilityError, SingularInformationError

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
        def lrt(assay):
            raise ValueError("a bug, not a data problem")

        monkeypatch.setattr("iupm.simulate.lrt_overdispersion", lrt)
        scn = small_scenario(reps=2, levels=(SimLevel(0.5, 12, 0.5), SimLevel(1.0, 12, 1.0)))
        with pytest.raises(ValueError, match="a bug"):
            lrt_power_study(scn, [1.0])

    def test_single_level_scenario_rejected_before_any_draw(self, no_draws):
        from iupm import IdentifiabilityError

        with pytest.raises(IdentifiabilityError, match="two dilution levels"):
            lrt_power_study(small_scenario(reps=5, model="negbin"), [0.0, 1.0])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"model": "imperfect", "rates": ErrorRates(0.9, 0.9, 0.9, 0.9)}, "it takes neither the imperfect model"),
            ({"model": "negbin", "gamma": 2.0}, "nor a gamma"),
        ],
        ids=["imperfect-model", "own-gamma"],
    )
    def test_field_the_draws_would_ignore_is_refused_before_any_draw(self, no_draws, overrides, message):
        scn = small_scenario(reps=5, levels=(SimLevel(0.5, 12, 0.5), SimLevel(1.0, 12, 1.0)), **overrides)
        with pytest.raises(ValueError, match=message):
            lrt_power_study(scn, [0.0, 1.0])

    @pytest.mark.parametrize("alpha", [1.5, -1.0, 0.0, 1.0, math.nan])
    def test_alpha_outside_the_unit_interval_is_refused_before_any_draw(self, no_draws, alpha):
        scn = small_scenario(reps=5, levels=(SimLevel(0.5, 12, 0.5), SimLevel(1.0, 12, 1.0)))
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            lrt_power_study(scn, [0.0, 1.0], alpha=alpha)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_bad_gamma_is_refused_before_any_draw(self, no_draws, bad):
        # the good gamma comes first: its study must not run either
        scn = small_scenario(reps=5, levels=(SimLevel(0.5, 12, 0.5), SimLevel(1.0, 12, 1.0)))
        with pytest.raises(ValueError, match="^gamma must be non-negative and finite$"):
            lrt_power_study(scn, [0.0, bad])

    def test_rows_are_pinned(self):
        # Exact rows (the repr of each float).  Replicate 3 at gamma 0 and
        # replicates 1, 9, 10 and 13 at gamma 4 detect no lineage and are
        # excluded.  The negbin fit does not converge on 3 counted replicates
        # at gamma 0 and 6 at gamma 4; their statistics count, and alpha 0.5
        # rejects all nine.
        scn = SimScenario(truth=0.3, n_dvl=3, levels=(SimLevel(0.5, 6, 0.5), SimLevel(1.0, 8, 1.0)),
                          model="negbin", reps=16, seed=3)
        assert lrt_power_study(scn, [0.0, 4.0], alpha=0.5) == [
            {"gamma": 0.0, "power": 0.3333333333333333, "reps": 15},
            {"gamma": 4.0, "power": 0.5833333333333334, "reps": 12},
        ]


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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"gamma": 3.0}, "gamma applies only to the negbin model, not 'poisson'"),
            ({"model": "imperfect", "rates": ErrorRates(0.9, 0.9, 0.9, 0.9), "gamma": 3.0},
             "gamma applies only to the negbin model, not 'imperfect'"),
            ({"rates": ErrorRates(0.9, 0.9, 0.9, 0.9)}, "rates apply only to the imperfect model, not 'poisson'"),
            ({"model": "negbin", "gamma": 1.0, "rates": ErrorRates(1, 1, 1, 1)},
             "rates apply only to the imperfect model, not 'negbin'"),
        ],
        ids=["gamma-poisson", "gamma-imperfect", "rates-poisson", "rates-negbin"],
    )
    def test_field_the_model_would_ignore_is_refused(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_scenario(**overrides)

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

    def test_divergent_scenario_is_bad_input(self, monkeypatch):
        # One lineage at rate 50 per well fills every well: each draw is divergent.
        monkeypatch.setattr("iupm.simulate._MAX_ATTEMPTS", 5)
        scn = SimScenario(truth=50.0, n_dvl=1, levels=(SimLevel(1.0, 3, 1.0),), reps=1)
        with pytest.raises(AssayDataError, match="5 divergent"):
            _simulate_until_regular(scn, _rng_for(0, 0))
