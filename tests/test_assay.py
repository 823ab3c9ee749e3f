import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iupm import (
    AssayDataError,
    DilutionLevelData,
    ErrorRates,
    MultiDilutionAssay,
    WellAssay,
    parse_summary_json,
    parse_wells_csv,
    restrict_to_detected,
    summarize_well_assay,
    to_summary_json,
    validate,
    wells_to_csv,
)
from iupm.assay import MAX_WELLS
from helpers import simulate_wells


def make_assay(levels, n):
    return MultiDilutionAssay(tuple(levels), n)


def simulated_well_assay(rng, M, lam, u=1.0):
    """Perfect-assay wells, each positive one sequenced with a random share."""
    W, Z = simulate_wells(rng, M, lam)
    R = W * (rng.random(M) < rng.choice([0.5, 0.75, 1.0]))
    return WellAssay(u, W, R, Z * R[:, None])


def detected_assay(wells):
    """The summaries of the levels' detected lineage columns, as the wells-csv path builds them."""
    wells = restrict_to_detected(wells)
    return make_assay(map(summarize_well_assay, wells), wells[0].n)


class TestValidate:
    def test_clean_assay_is_ok(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=3, Y=(2, 1, 1))
        assert validate(make_assay([lv], 3)) is None

    def test_m_exceeding_positives_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=10, m=4, Y=(4,))
        with pytest.raises(AssayDataError, match=r"^level 0: m > M_P \(4 > 2\)$"):
            validate(make_assay([lv], 1))

    def test_sequenced_wells_without_lineages_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=2, Y=(1, 0))
        # every violation is named, joined by "; "
        with pytest.raises(AssayDataError) as exc:
            validate(make_assay([lv], 2))
        assert str(exc.value) == (
            "level 0: sum(Y) < m (1 < 2); every sequenced positive well must carry at least one lineage; "
            "lineage 1: never detected (sum of Y across levels is 0)"
        )

    def test_duplicate_dilutions_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=0, Y=())
        with pytest.raises(AssayDataError, match="^dilution levels u must be distinct$"):
            validate(make_assay([lv, lv], 0))

    def test_undetected_lineage_reported(self):
        lv = DilutionLevelData(u=1.0, M=12, M_N=6, m=2, Y=(2, 0))
        with pytest.raises(AssayDataError, match=r"^lineage 1: never detected \(sum of Y across levels is 0\)$"):
            validate(make_assay([lv], 2))


class TestConstructors:
    def test_negative_counts_rejected(self):
        with pytest.raises(AssayDataError):
            DilutionLevelData(u=1.0, M=12, M_N=-1, m=0, Y=())
        with pytest.raises(AssayDataError):
            DilutionLevelData(u=0.0, M=12, M_N=1, m=0, Y=())
        with pytest.raises(AssayDataError):
            DilutionLevelData(u=1.0, M=12, M_N=1, m=0, Y=(-2,))

    def test_boolean_u_and_q_rejected(self):
        for flag in (True, False):
            with pytest.raises(AssayDataError, match="u must be a positive finite number"):
                DilutionLevelData(u=flag, M=12, M_N=1, m=0)
            with pytest.raises(AssayDataError, match="q must lie in"):
                DilutionLevelData(u=1.0, M=12, M_N=1, m=0, q=flag)
            with pytest.raises(AssayDataError, match="u must be a positive finite number"):
                WellAssay(flag, [1, 0], [0, 0], [[0], [0]])

    def test_integer_u_past_the_float_range_rejected(self):
        with pytest.raises(AssayDataError, match="^u must be a positive finite number, got 1000"):
            DilutionLevelData(u=10**400, M=12, M_N=1, m=0)
        with pytest.raises(AssayDataError, match="^u must be a positive finite number, got 1000"):
            WellAssay(10**400, [1, 0], [0, 0], [[0], [0]])

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
        # well 1 is positive but unsequenced, so none of its lineages are read
        wa = WellAssay(1.0, (1, 1, 0), (1, 0, 0), [(1, 0), (0, 0), (0, 0)])
        level = summarize_well_assay(wa, q=0.5)
        assert (level.u, level.M, level.M_N, level.m, level.q) == (1.0, 3, 1, 1, 0.5)
        assert level.Y == (1, 0)

    def test_sequenced_negative_well_rejected(self):
        # the readings are checked once, when the WellAssay is built
        with pytest.raises(AssayDataError, match="^well 2: sequencing is only applied to QVOA-positive wells$"):
            WellAssay(1.0, (1, 1, 0), (1, 0, 1), [(1, 0), (0, 0), (1, 0)])

    def test_all_negative(self):
        level = summarize_well_assay(WellAssay(1.0, [0, 0, 0, 0], [0, 0, 0, 0], np.zeros((4, 2))))
        assert level.M_N == 4 and level.m == 0 and level.Y == (0, 0) and level.q is None

    def test_full_sequencing_counts_columns(self):
        Z = [(1, 0), (1, 1), (1, 0), (0, 1)]
        level = summarize_well_assay(WellAssay(1.0, [1, 1, 1, 1], [1, 1, 1, 1], Z))
        assert (level.M_N, level.m, level.Y) == (0, 4, (3, 2))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_simulated_wells_summarize_to_valid_levels(self, seed):
        rng = np.random.default_rng(seed)
        n, M = int(rng.integers(1, 5)), int(rng.integers(6, 40))
        wa = simulated_well_assay(rng, M, rng.uniform(0.05, 0.6, n))
        validate(detected_assay([wa]))
        # construction guarantees of the perfect-assay convention
        level = summarize_well_assay(wa)
        assert sum(level.Y) >= level.m
        assert max(level.Y, default=0) <= level.m


class TestFileFormats:
    def test_summary_round_trip(self):
        rng = np.random.default_rng(81)
        assay = detected_assay([simulated_well_assay(rng, 20, rng.uniform(0.05, 0.6, 3), u=u) for u in (0.5, 2.0)])
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

    def test_summary_well_count_is_bounded(self):
        level = {"u": 1.0, "M": MAX_WELLS, "MN": 5, "m": 0}
        assert parse_summary_json(json.dumps({"n": 0, "levels": [level]})).levels[0].M == MAX_WELLS
        level["M"] += 1
        with pytest.raises(AssayDataError, match=r"^levels\[0\]\.M must be an integer <= 1000000000, got "):
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

    def test_wells_with_two_bad_rows_name_one_by_the_order_of_checks(self):
        head = "well,u,w_star,r,z_a\n"
        cases = [
            # a later repeated id is found while reading, before any level is checked
            ("a,1.0,2,0,\nb,1.0,0,0,\na,2.0,0,0,\n", "line 4: well id 'a' repeats the id on line 2"),
            # within a level, the w_star/r check comes before the z_star check
            ("a,1.0,1,1,2\nb,1.0,2,0,\n", "well 'b' on line 3: w_star and r must be 0/1 indicators"),
            # the level of u = 1.0 appears first, so it is checked first
            ("a,1.0,1,1,1\nb,2.0,2,0,\nc,1.0,2,0,\n", "well 'c' on line 4: w_star and r must be 0/1 indicators"),
        ]
        for rows, message in cases:
            with pytest.raises(AssayDataError, match=f"^{re.escape(message)}$"):
                parse_wells_csv(head + rows)

    def test_summarize_well_assay_matches_reference(self):
        rng = np.random.default_rng(17)
        for q in (None, 0.5):
            W, Z = simulate_wells(rng, 10, np.array([0.3, 0.5]))
            R = W * (rng.random(10) < 0.5)
            wa = WellAssay(1.0, W, R, Z * R[:, None])
            M_N, m, Y = 0, 0, [0, 0]
            for w, r, z in zip(W.tolist(), R.tolist(), Z.tolist()):
                M_N += w == 0
                if r == 1:
                    m += 1
                    Y = [y + zi for y, zi in zip(Y, z)]
            assert summarize_well_assay(wa, q) == DilutionLevelData(u=1.0, M=10, M_N=M_N, m=m, Y=tuple(Y), q=q)


class TestRestrictToDetected:
    def test_drops_all_zero_columns(self):
        lv1 = WellAssay(1.0, [1, 1, 1, 0], [1, 1, 0, 0], [[1, 0, 1], [1, 0, 0], [0, 0, 0], [0, 0, 0]], labels="abcd")
        lv2 = WellAssay(0.5, [1, 0, 0], [1, 0, 0], [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        wells = restrict_to_detected([lv1, lv2])
        assert wells == [
            WellAssay(1.0, [1, 1, 1, 0], [1, 1, 0, 0], [[1, 1], [1, 0], [0, 0], [0, 0]]),
            WellAssay(0.5, [1, 0, 0], [1, 0, 0], [[1, 0], [0, 0], [0, 0]]),
        ]
        assert wells[0].labels == ("a", "b", "c", "d")
        assay = detected_assay([lv1, lv2])
        assert assay.n == 2
        assert assay.levels[0].Y == (2, 1)
        assert assay.levels[1].Y == (1, 0)
        validate(assay)

    def test_levels_must_share_the_lineage_columns(self):
        with pytest.raises(AssayDataError, match="at least one dilution level"):
            restrict_to_detected([])
        with pytest.raises(AssayDataError, match="disagree on the number of lineage columns"):
            restrict_to_detected([WellAssay(1.0, [1], [1], [[1]]), WellAssay(2.0, [1], [1], [[1, 0]])])
