import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iupm import (
    AssayDataError,
    DilutionLevelData,
    ErrorRates,
    MultiDilutionAssay,
    WellAssay,
    parse_assay,
    parse_summary_json,
    parse_wells_csv,
    restrict_to_detected,
    summarize_well_assay,
    summarize_wells,
    to_summary_json,
    validate,
    wells_to_csv,
)
from helpers import random_level, simulate_wells


def make_assay(levels, n):
    return MultiDilutionAssay(tuple(levels), n)


class TestValidate:
    def test_clean_assay_is_ok(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=3, Y=(2, 1, 1))
        assert validate(make_assay([lv], 3)).ok

    def test_m_exceeding_positives_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=10, m=4, Y=(4,))
        report = validate(make_assay([lv], 1))
        assert not report.ok
        assert any("m > M_P" in v for v in report.violations)

    def test_sequenced_wells_without_lineages_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=2, Y=(1, 0))
        report = validate(make_assay([lv], 2))
        assert any("sum(Y) < m" in v for v in report.violations)

    def test_duplicate_dilutions_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=0, Y=())
        report = validate(make_assay([lv, lv], 0))
        assert any("distinct" in v for v in report.violations)

    def test_undetected_lineage_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=2, Y=(2, 0))
        report = validate(make_assay([lv], 2))
        assert any("never detected" in v for v in report.violations)


class TestConstructors:
    def test_negative_counts_rejected(self):
        with pytest.raises(AssayDataError):
            DilutionLevelData(u=1.0, M=12, M_N=-1, m=0, Y=())
        with pytest.raises(AssayDataError):
            DilutionLevelData(u=0.0, M=12, M_N=1, m=0, Y=())
        with pytest.raises(AssayDataError):
            DilutionLevelData(u=1.0, M=12, M_N=1, m=0, Y=(-2,))

    def test_misaligned_lineage_columns_rejected(self):
        lv1 = DilutionLevelData(u=1.0, M=12, M_N=6, m=2, Y=(1, 1))
        lv2 = DilutionLevelData(u=0.5, M=12, M_N=6, m=2, Y=(2,))
        with pytest.raises(AssayDataError):
            MultiDilutionAssay((lv1, lv2), 2)

    def test_q_effective_derivation(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=3, Y=(3,))
        assert lv.q_effective == pytest.approx(0.5)
        all_negative = DilutionLevelData(u=1.0, M=12, M_N=12, m=0, Y=())
        assert all_negative.q_effective == 0.0
        explicit = DilutionLevelData(u=1.0, M=12, M_N=6, m=3, Y=(3,), q=0.75)
        assert explicit.q_effective == 0.75

    def test_strip_udsa(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=3, Y=(2, 1, 1))
        stripped = make_assay([lv], 3).strip_udsa()
        assert stripped.n == 0
        assert stripped.levels[0].m == 0
        assert stripped.levels[0].Y == ()

    def test_well_assay_invariants(self):
        with pytest.raises(AssayDataError, match="need shape"):
            WellAssay(1.0, [1], [1], np.zeros((0, 1)))
        with pytest.raises(AssayDataError, match="^well 0: an unsequenced well"):
            WellAssay(1.0, [0], [0], [[0, 1]])
        with pytest.raises(AssayDataError, match="^well 0: sequencing is only applied"):
            WellAssay(1.0, [0], [1], [[1]])

    def test_well_assay_names_the_first_offending_well(self):
        z = [[1, 0], [0, 0], [1, 1], [0, 0]]
        with pytest.raises(AssayDataError, match="^well 2: w_star and r must be 0/1 indicators$"):
            WellAssay(1.0, [1, 0, 2, 1], [1, 0, 1, 0], z)
        with pytest.raises(AssayDataError, match="^well 1: z_star entries must be 0/1 indicators$"):
            WellAssay(1.0, [1, 1, 1, 0], [1, 1, 1, 0], [[1, 0], [0, 3], [1, 1], [0, 0]])
        with pytest.raises(AssayDataError, match="^well 3: sequencing is only applied"):
            WellAssay(1.0, [1, 0, 1, 0], [1, 0, 1, 1], z)
        with pytest.raises(AssayDataError, match="^well 2: an unsequenced well"):
            WellAssay(1.0, [1, 1, 1, 0], [1, 0, 0, 0], z)
        with pytest.raises(AssayDataError, match="at least one well"):
            WellAssay(1.0, [], [], np.zeros((0, 2)))

    def test_well_assay_arrays(self):
        w, r, z = np.array([1, 1, 0]), np.array([1, 0, 0]), np.array([[1, 0], [0, 0], [0, 0]])
        wa = WellAssay(2.0, w.astype(bool), r, z)
        assert (wa.M, wa.n, wa.m_star) == (3, 2, 1)
        for a in (wa.w_star, wa.r, wa.z_star):
            assert a.dtype.kind == "i" and not a.flags.writeable
        z[0, 1] = 1  # the caller's array is copied, not shared
        assert wa.z_star[0].tolist() == [1, 0]
        assert wa == WellAssay(2.0, [1, 1, 0], [1, 0, 0], [[1, 0], [0, 0], [0, 0]])
        assert wa != WellAssay(2.0, [1, 1, 0], [1, 0, 0], [[1], [0], [0]])
        assert wa != WellAssay(2.0, [1, 1, 0], [1, 1, 0], [[1, 0], [0, 1], [0, 0]])
        assert wa != WellAssay(1.0, w, r, [[1, 0], [0, 0], [0, 0]])

    def test_error_rates_bounds(self):
        with pytest.raises(AssayDataError):
            ErrorRates(1.1, 0.9, 0.9, 0.9)
        for flag in (True, np.bool_(True), False):
            with pytest.raises(AssayDataError, match="must be a number"):
                ErrorRates(0.9, 0.9, flag, 0.9)
        rates = ErrorRates(0.4, 0.5, 0.9, 0.9)
        with pytest.raises(AssayDataError):
            rates.check_identifiable()


class TestSummarizeWells:
    def test_worked_example(self):
        W = (1, 1, 0)
        R = (1, 0, 0)
        Z = [(1, 0), (1, 1), (0, 0)]  # unsequenced rows do not count
        level = summarize_wells(1.0, W, Z, R)
        assert (level.M, level.M_N, level.m) == (3, 1, 1)
        assert level.Y == (1, 0)

    def test_sequenced_negative_well_rejected(self):
        with pytest.raises(AssayDataError, match="^well 2: sequencing is only applied to QVOA-positive wells$"):
            summarize_wells(1.0, (1, 1, 0), [(1, 0), (0, 0), (1, 0)], (1, 0, 1))

    def test_all_negative(self):
        level = summarize_wells(1.0, [0, 0, 0, 0], None, [0, 0, 0, 0], n_dvl=2)
        assert level.M_N == 4 and level.m == 0 and level.Y == (0, 0)

    def test_full_sequencing_counts_columns(self):
        Z = [(1, 0), (1, 1), (1, 0), (0, 1)]
        W = [1, 1, 1, 1]
        R = [1, 1, 1, 1]
        level = summarize_wells(1.0, W, Z, R)
        assert level.Y == (3, 2)

    def test_missing_row_for_sequenced_well_rejected(self):
        with pytest.raises(AssayDataError):
            summarize_wells(1.0, [1, 0], [None, None], [1, 0])
        with pytest.raises(AssayDataError, match="^well 1: sequenced"):
            summarize_wells(1.0, [0, 1], None, [0, 1], n_dvl=2)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_simulated_wells_summarize_to_valid_levels(self, seed):
        rng = np.random.default_rng(seed)
        level = random_level(rng)
        report = validate(restrict_to_detected([level]))
        assert report.ok, str(report)
        # construction guarantees of the perfect-assay convention
        assert sum(level.Y) >= level.m
        assert max(level.Y, default=0) <= level.m


class TestFileFormats:
    def test_summary_round_trip(self):
        rng = np.random.default_rng(81)
        assay = restrict_to_detected([random_level(rng, n=3, u=0.5), random_level(rng, n=3, u=2.0)])
        text = to_summary_json(assay)
        again = parse_summary_json(text)
        assert again == parse_summary_json(to_summary_json(again))
        assert again.n == assay.n

    def test_summary_parse_rejects_garbage(self):
        with pytest.raises(AssayDataError):
            parse_summary_json("not json at all")
        with pytest.raises(AssayDataError):
            parse_summary_json(json.dumps({"n": 0, "levels": []}))
        with pytest.raises(AssayDataError):
            parse_summary_json(json.dumps({"n": 1, "levels": [{"u": 1, "M": 5, "MN": -2, "m": 0, "Y": [0]}]}))
        for level in ({"u": 1, "M": 5, "MN": 2, "m": 0, "Y": None}, {"u": 1, "M": 1e400, "MN": 2, "m": 0}):
            with pytest.raises(AssayDataError):
                parse_summary_json(json.dumps({"n": 0, "levels": [level]}))

    def test_wells_round_trip(self):
        rng = np.random.default_rng(5)
        W, Z = simulate_wells(rng, 8, np.array([0.4, 0.2]))
        R = W * (rng.random(8) < 0.7)
        wa = WellAssay(1.0, W, R, Z * R[:, None])
        text = wells_to_csv([wa])
        again = parse_wells_csv(text)
        assert len(again) == 1
        assert again[0] == wa
        assert parse_wells_csv(wells_to_csv(again)) == again

    @settings(max_examples=60)
    @given(st.data())
    def test_wells_csv_round_trip_property(self, data):
        n = data.draw(st.integers(min_value=0, max_value=3))
        us = data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=3, unique=True))
        assays = []
        for u in us:
            M = data.draw(st.integers(min_value=1, max_value=6))
            w = np.array(data.draw(st.lists(st.integers(0, 1), min_size=M, max_size=M)))
            r = w * np.array(data.draw(st.lists(st.integers(0, 1), min_size=M, max_size=M)))
            z = np.array(data.draw(st.lists(st.integers(0, 1), min_size=M * n, max_size=M * n))).reshape(M, n)
            assays.append(WellAssay(u, w, r, z * r[:, None]))
        again = parse_wells_csv(wells_to_csv(assays))
        assert again == assays
        assert [wa.n for wa in again] == [n] * len(us)

    def test_wells_groups_by_dilution(self):
        text = (
            "well,u,w_star,r,z_a,z_b\n"
            "0,2.5,1,1,1,0\n"
            "1,2.5,0,0,,\n"
            "2,0.5,1,0,,\n"
        )
        assays = parse_wells_csv(text)
        assert [wa.u for wa in assays] == [2.5, 0.5]
        assert assays[0].m_star == 1

    def test_wells_blank_z_for_sequenced_rejected(self):
        text = "well,u,w_star,r,z_a\n0,1.0,1,1,\n"
        with pytest.raises(AssayDataError):
            parse_wells_csv(text)

    def test_wells_non_integer_z_rejected(self):
        text = "well,u,w_star,r,z_a\n0,1.0,1,1,x\n"
        with pytest.raises(AssayDataError, match="line 2"):
            parse_wells_csv(text)

    def test_wells_filled_z_for_unsequenced_rejected(self):
        text = "well,u,w_star,r,z_a\n0,1.0,1,0,1\n"
        with pytest.raises(AssayDataError):
            parse_wells_csv(text)

    def test_wells_duplicate_id_rejected(self):
        text = "well,u,w_star,r,z_a\nw1,1.0,1,1,1\nw2,1.0,0,0,\nw1 ,2.0,0,0,\n"
        with pytest.raises(AssayDataError, match="line 4: well id 'w1' repeats the id on line 2"):
            parse_wells_csv(text)

    def test_line_numbers_count_lines_not_rows(self):
        # a quoted id spans lines 2-3 and line 4 is blank
        text = 'well,u,w_star,r,z_a\n"w\n0",1.0,1,1,1\n\nw1,1.0,0,0,\nw1,1.0,0,0,\n'
        with pytest.raises(AssayDataError, match="line 6: well id 'w1' repeats the id on line 5"):
            parse_wells_csv(text)
        wa, = parse_wells_csv(text.replace("w1,1.0,0,0,\n", "w2,1.0,0,0,\n", 1))
        assert wa.labels == ("well 'w\\n0' on line 2", "well 'w2' on line 5", "well 'w1' on line 6")

    def test_parse_assay_dispatch(self):
        with pytest.raises(AssayDataError):
            parse_assay("{}", "unknown-format")

    def test_summarize_well_assay_matches_summarize_wells(self):
        rng = np.random.default_rng(17)
        W, Z = simulate_wells(rng, 10, np.array([0.3, 0.5]))
        R = W * (rng.random(10) < 0.5)
        wa = WellAssay(1.0, W, R, Z * R[:, None])
        assert summarize_well_assay(wa) == summarize_wells(1.0, W, Z, R, n_dvl=2)


class TestRestrictToDetected:
    def test_drops_all_zero_columns(self):
        lv1 = DilutionLevelData(u=1.0, M=12, M_N=6, m=2, Y=(2, 0, 1))
        lv2 = DilutionLevelData(u=0.5, M=12, M_N=8, m=1, Y=(1, 0, 0))
        assay = restrict_to_detected([lv1, lv2])
        assert assay.n == 2
        assert assay.levels[0].Y == (2, 1)
        assert assay.levels[1].Y == (1, 0)
        assert validate(assay).ok
