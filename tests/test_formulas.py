import json
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import secantlines.formulas as formulas
from secantlines.cli import _encode_json
from secantlines.formulas import (
    CaseLabel,
    DerivationMismatchError,
    NegativeDegreeError,
    classify,
    classify_case,
    defect,
    dim_IZ_theory,
    dim_sigma2_theory,
    dim_variety,
    expected_dim_IZ,
    expected_dim_sigma2,
    fills_ambient,
    hilbert_function_theory,
    is_defective,
)
from secantlines.partitions import Partition, derived, enumerate_partitions


class TestDimVariety:
    @pytest.mark.parametrize(
        "parts, want", [([1, 1], 4), ([2, 1], 7), ([2, 1, 1, 1], 11)]
    )
    def test_examples(self, parts, want):
        assert dim_variety(Partition(parts)) == want

    def test_point_count_form_agrees(self):
        for p in enumerate_partitions(15):
            q = derived(p)
            assert dim_variety(p) == comb(q.d + 2, 2) - q.D - 1


class TestExpectedDimSigma2:
    @pytest.mark.parametrize(
        "parts, want", [([1, 1], 5), ([2, 1, 1, 1], 20), ([9, 7, 2], 189)]
    )
    def test_examples(self, parts, want):
        assert expected_dim_sigma2(Partition(parts)) == want


class TestHilbertFunction:
    def test_examples(self):
        assert hilbert_function_theory(Partition([1, 1, 1]), 1) == 3
        assert hilbert_function_theory(Partition([2, 1]), 0) == 1

    @pytest.mark.parametrize("parts", [[2, 1], [3, 3], [4, 2, 1], [1, 1, 1, 1, 1]])
    def test_stabilizes_at_point_count(self, parts):
        p = Partition(parts)
        q = derived(p)
        for j in range(max(q.d - 2, 0), q.d + 4):
            assert hilbert_function_theory(p, j) == q.D

    def test_branches_agree_on_overlap(self):
        # the closed formula and the stabilized value coincide at j = d-2, d-1
        for p in enumerate_partitions(18):
            q = derived(p)
            for j in (q.d - 2, q.d - 1):
                if j < 0:
                    continue
                formula = comb(j + 2, 2) - sum(
                    comb(max(j - q.d + di, -1) + 2, 2) for di in p.parts
                )
                assert formula == q.D == hilbert_function_theory(p, j)

    def test_monotone_and_capped(self):
        for p in enumerate_partitions(12):
            q = derived(p)
            values = [hilbert_function_theory(p, j) for j in range(q.d + 2)]
            assert values == sorted(values)
            for j, h in enumerate(values):
                assert h <= min(comb(j + 2, 2), q.D)

    def test_negative_degree(self):
        with pytest.raises(NegativeDegreeError):
            hilbert_function_theory(Partition([2, 1]), -1)


class TestDefectivity:
    def test_unbalanced_positive_is_defective(self):
        assert is_defective(Partition([9, 7, 2]))
        assert is_defective(Partition([6, 1, 1, 1, 1, 1, 1]))

    @pytest.mark.parametrize("a", range(1, 7))
    def test_near_balanced_triples_never_defective(self, a):
        assert not is_defective(Partition([a, a, 1]))

    @pytest.mark.parametrize("d1", range(4, 9))
    def test_boundary_five_factor_family(self, d1):
        # tail (1,1,1,1) sits exactly on 2p - 3s = 0
        p = Partition([d1, 1, 1, 1, 1])
        q = derived(p)
        assert 2 * q.p - 3 * q.s == 0
        assert not is_defective(p)

    @pytest.mark.parametrize(
        "parts, want", [([9, 7, 2], 1), ([10, 7, 2], 1), ([3, 2, 1], 0)]
    )
    def test_defect_examples(self, parts, want):
        assert defect(Partition(parts)) == want

    def test_defect_positive_iff_defective(self):
        for p in enumerate_partitions(14):
            assert (defect(p) > 0) == is_defective(p)


class TestDimIZ:
    @pytest.mark.parametrize(
        "parts, want",
        [([2, 1, 1, 1], 3), ([6, 1, 1, 1, 1, 1, 1], 1), ([3, 2], 9)],
    )
    def test_examples(self, parts, want):
        assert dim_IZ_theory(Partition(parts)) == want

    @pytest.mark.parametrize("a", range(1, 7))
    def test_near_balanced_families(self, a):
        assert dim_IZ_theory(Partition([a, a, 1])) == a + 3
        assert dim_IZ_theory(Partition([a + 1, a, 1])) == a + 4

    def test_two_factor_closed_form(self):
        for d1 in range(1, 8):
            for d2 in range(1, d1 + 1):
                want = ((d1 - d2) ** 2 + 3 * (d1 + d2) + 2) // 2
                assert dim_IZ_theory(Partition([d1, d2])) == want
                assert expected_dim_IZ(Partition([d1, d2])) == want


class TestDimSigma2:
    @pytest.mark.parametrize(
        "parts, want",
        [([1, 1, 1], 9), ([5, 1, 1, 1, 1, 1], 60), ([2, 1], 9), ([9, 7, 2], 188)],
    )
    def test_examples(self, parts, want):
        assert dim_sigma2_theory(Partition(parts)) == want

    def test_seven_factor_example(self):
        # exp.dim = min{90, 79} = 79 and the defect is 1
        p = Partition([6, 1, 1, 1, 1, 1, 1])
        assert expected_dim_sigma2(p) == 79
        assert defect(p) == 1
        assert dim_sigma2_theory(p) == 78


class TestFillsAmbient:
    def test_examples(self):
        assert fills_ambient(Partition([2, 2, 2, 1]))
        assert fills_ambient(Partition([7, 2]))
        assert not fills_ambient(Partition([6, 1, 1, 1, 1, 1, 1]))

    def test_iff_dimension_reaches_ambient(self):
        for p in enumerate_partitions(11):
            q = derived(p)
            assert fills_ambient(p) == (dim_sigma2_theory(p) == q.N)


class TestCaseLabels:
    @pytest.mark.parametrize(
        "parts, label",
        [
            ([9, 7, 2], CaseLabel.R3_D3EQ2_D2GE7),
            ([5, 4, 3], CaseLabel.R3_D3EQ3_D2GE4),
            ([5, 3, 3], CaseLabel.R3_PAIR_33),
            ([9, 3, 3], CaseLabel.R3_PAIR_33),
            ([12, 2, 1], CaseLabel.R3_PAIR_A1),
            ([8, 6, 2], CaseLabel.R3_PAIR_62),
            ([9, 5, 4], CaseLabel.R3_D3GE4),
            ([7, 2], CaseLabel.R2),
            ([7, 1, 1, 1], CaseLabel.R4_TAIL_111),
            ([9, 4, 1, 1], CaseLabel.R4_TAIL_411),
            ([6, 5, 1, 1], CaseLabel.R4_D2GE5),
            ([4, 2, 2, 1], CaseLabel.R4_D3GE2),
            ([4, 1, 1, 1, 1], CaseLabel.R5_ALL_ONES_TAIL),
            ([6, 2, 1, 1, 1], CaseLabel.R5_D2GE2),
            ([3, 1, 1, 1, 1, 1], CaseLabel.R6PLUS),
        ],
    )
    def test_examples(self, parts, label):
        assert classify_case(Partition(parts)) is label

    def test_total_and_sign_consistent(self):
        for p in enumerate_partitions(14):
            q = derived(p)
            label = classify_case(p)
            assert label.defective_side == (2 * q.p - 3 * q.s > 0)

    def test_three_factor_nonpositive_tails(self):
        # sweeping 1 <= d3 <= d2 <= 14, the tails with 2p - 3s <= 0
        nonpositive = set()
        for d2 in range(1, 15):
            for d3 in range(1, d2 + 1):
                if 2 * d2 * d3 - 3 * (d2 + d3) <= 0:
                    nonpositive.add((d2, d3))
        expected = {(a, 1) for a in range(1, 15)} | {
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 2),
            (6, 2),
            (3, 3),
        }
        assert nonpositive == expected


def test_wide_sweep_consistency():
    # One pass over every partition with d <= 30, exercising the paired-form
    # checks inside dim_variety, defect, fills_ambient and classify_case
    # at full range.
    count = 0
    for p in enumerate_partitions(30):
        q = derived(p)
        assert dim_variety(p) == comb(q.d + 2, 2) - q.D - 1
        if is_defective(p):
            d1 = p.parts[0]
            assert defect(p) == min(comb(d1 - q.s + 2, 2), 2 * q.p - 3 * q.s)
        assert fills_ambient(p) == (dim_sigma2_theory(p) == q.N)
        classify_case(p)
        count += 1
    assert count > 25000


def _shifted(real):
    return lambda *args: real(*args) + 1


class TestDerivationChecks:
    # Each case replaces one ingredient of a quantity so that its two
    # derivations disagree; the check must raise, also under python -O. The
    # public functions read `classify`, so the ingredients are its helpers.
    @pytest.mark.parametrize(
        "target, broken, check, parts",
        [
            ("derived", lambda real: lambda p: replace(real(p), D=real(p).D + 1), dim_variety, [2, 1]),
            ("_dim_IZ", _shifted, dim_sigma2_theory, [9, 7, 2]),
            ("_defect", _shifted, dim_IZ_theory, [9, 7, 2]),
            ("_dim_sigma2", _shifted, fills_ambient, [2, 2, 2, 1]),
            ("_DEFECTIVE_SIDE", lambda real: frozenset(), classify_case, [9, 7, 2]),
        ],
        ids=["dim_variety", "dim_sigma2", "dim_IZ", "fills_ambient", "case_label"],
    )
    def test_disagreement_raises(self, monkeypatch, target, broken, check, parts):
        monkeypatch.setattr(formulas, target, broken(getattr(formulas, target)))
        with pytest.raises(DerivationMismatchError):
            check(Partition(parts))

    # classify computes each ingredient once, so each of its six checks is
    # broken through the helper that feeds it. [20,7,2] is defective with
    # exp_dim_IZ = 77 > 0, so the defect's branch form is 2p - 3s = 1, and a
    # C(d1 - s + 2, 2) of 0 in place of 78 sends its min form to 0.
    @pytest.mark.parametrize(
        "target, broken, check, parts",
        [
            ("derived", lambda real: lambda p: replace(real(p), D=real(p).D + 1), "dim_variety", [2, 1]),
            ("_unbalanced_dim_IZ", lambda real: lambda *args: 0, "defect", [20, 7, 2]),
            ("_defect", _shifted, "dim_IZ_theory", [9, 7, 2]),
            ("_dim_IZ", _shifted, "dim_sigma2_theory", [9, 7, 2]),
            ("_dim_sigma2", _shifted, "fills_ambient", [2, 2, 2, 1]),
            ("_DEFECTIVE_SIDE", lambda real: frozenset(), "classify_case", [9, 7, 2]),
        ],
        ids=["dim_X", "defect", "dim_IZ", "dim_sigma2", "fills_ambient", "case_label"],
    )
    def test_classify_disagreement_raises(self, monkeypatch, target, broken, check, parts):
        monkeypatch.setattr(formulas, target, broken(getattr(formulas, target)))
        with pytest.raises(DerivationMismatchError, match=rf"^{check}\["):
            classify(Partition(parts))

    def test_classify_runs_each_check_once(self, monkeypatch):
        # [9,7,2] is defective and in the unbalanced-positive regime, so all
        # six checks apply; each runs once, on one derived() result.
        checks, derivations = [], []
        real_check, real_derived = formulas._check_agreement, formulas.derived

        def counted_check(name, *args):
            checks.append(name)
            real_check(name, *args)

        def counted_derived(partition):
            derivations.append(partition)
            return real_derived(partition)

        monkeypatch.setattr(formulas, "_check_agreement", counted_check)
        monkeypatch.setattr(formulas, "derived", counted_derived)
        classify(Partition([9, 7, 2]))
        assert checks == [
            "dim_variety",
            "defect",
            "dim_IZ_theory",
            "dim_sigma2_theory",
            "fills_ambient",
            "classify_case",
        ]
        assert derivations == [Partition([9, 7, 2])]


class TestClassificationReport:
    def test_fields_equal_the_per_quantity_functions(self):
        # The one-pass classify against the public function of each field.
        for p in enumerate_partitions(20):
            report = classify(p)
            q = derived(p)
            assert (report.d, report.D, report.N, report.s, report.p) == (q.d, q.D, q.N, q.s, q.p)
            assert report.two_p_minus_three_s == 2 * q.p - 3 * q.s
            assert report.dim_X == dim_variety(p)
            assert report.exp_dim_sigma2 == expected_dim_sigma2(p)
            assert report.exp_dim_IZ == expected_dim_IZ(p)
            assert report.defective == is_defective(p)
            assert report.delta2 == defect(p)
            assert report.dim_sigma2 == dim_sigma2_theory(p)
            assert report.dim_IZ == dim_IZ_theory(p)
            assert report.fills_ambient == fills_ambient(p)
            assert report.case_label is classify_case(p)

    def test_invariants_hold_everywhere(self):
        for p in enumerate_partitions(12):
            report = classify(p)
            assert report.dim_sigma2 == report.exp_dim_sigma2 - report.delta2
            assert report.defective == (report.delta2 > 0)
            assert report.dim_IZ == report.exp_dim_IZ + report.delta2
            assert report.fills_ambient == (report.dim_sigma2 == report.N)

    def test_round_trip(self):
        report = classify(Partition([9, 7, 2]))
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["case_label"] == report.case_label.value

    def test_example_report(self):
        report = classify(Partition([2, 2, 2, 1]))
        assert report.fills_ambient and not report.defective
        assert report.dim_IZ == 0 and report.dim_sigma2 == report.N == 35


def assert_json_line_is_the_record(report):
    # The template against the JSON encoder on the record itself, so a key
    # added to to_dict but not to json_line fails here.
    line = report.json_line()
    assert line == _encode_json(report.to_dict()) + "\n"
    assert list(json.loads(line)) == list(report.to_dict())


class TestJsonLine:
    def test_equals_the_encoded_record_to_degree_20(self):
        seen = set()
        for p in enumerate_partitions(20):
            report = classify(p)
            assert_json_line_is_the_record(report)
            seen.add((report.defective, report.fills_ambient, report.case_label))
        assert {label for _, _, label in seen} == set(CaseLabel)
        assert {flag for flag, _, _ in seen} == {flag for _, flag, _ in seen} == {False, True}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 10**6), min_size=2, max_size=8))
    def test_equals_the_encoded_record_on_wide_parts(self, parts):
        assert_json_line_is_the_record(classify(Partition(parts)))
