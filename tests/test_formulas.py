import json
from dataclasses import FrozenInstanceError, fields, replace
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import secantlines.cli as cli
import secantlines.formulas as formulas
import secantlines.oracle as oracle
from secantlines.cli import _encode_json
from secantlines.formulas import (
    CaseLabel,
    DerivationMismatchError,
    NegativeDegreeError,
    classify,
    hilbert_function_theory,
)
from secantlines.partitions import Partition, derived, enumerate_partitions


class TestDimVariety:
    @pytest.mark.parametrize(
        "parts, want", [([1, 1], 4), ([2, 1], 7), ([2, 1, 1, 1], 11)]
    )
    def test_examples(self, parts, want):
        assert classify(Partition(parts)).dim_X == want

    def test_point_count_form_agrees(self):
        for p in enumerate_partitions(15):
            q = derived(p)
            assert classify(p).dim_X == comb(q.d + 2, 2) - q.D - 1


class TestExpectedDimSigma2:
    @pytest.mark.parametrize(
        "parts, want", [([1, 1], 5), ([2, 1, 1, 1], 20), ([9, 7, 2], 189)]
    )
    def test_examples(self, parts, want):
        assert classify(Partition(parts)).exp_dim_sigma2 == want


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
        assert classify(Partition([9, 7, 2])).defective
        assert classify(Partition([6, 1, 1, 1, 1, 1, 1])).defective

    @pytest.mark.parametrize("a", range(1, 7))
    def test_near_balanced_triples_never_defective(self, a):
        assert not classify(Partition([a, a, 1])).defective

    @pytest.mark.parametrize("d1", range(4, 9))
    def test_boundary_five_factor_family(self, d1):
        # tail (1,1,1,1) sits exactly on 2p - 3s = 0
        p = Partition([d1, 1, 1, 1, 1])
        q = derived(p)
        assert 2 * q.p - 3 * q.s == 0
        assert not classify(p).defective

    @pytest.mark.parametrize(
        "parts, want", [([9, 7, 2], 1), ([10, 7, 2], 1), ([3, 2, 1], 0)]
    )
    def test_defect_examples(self, parts, want):
        assert classify(Partition(parts)).delta2 == want

    def test_defect_positive_iff_defective(self):
        for p in enumerate_partitions(14):
            report = classify(p)
            assert (report.delta2 > 0) == report.defective


class TestDimIZ:
    @pytest.mark.parametrize(
        "parts, want",
        [([2, 1, 1, 1], 3), ([6, 1, 1, 1, 1, 1, 1], 1), ([3, 2], 9)],
    )
    def test_examples(self, parts, want):
        assert classify(Partition(parts)).dim_IZ == want

    @pytest.mark.parametrize("a", range(1, 7))
    def test_near_balanced_families(self, a):
        assert classify(Partition([a, a, 1])).dim_IZ == a + 3
        assert classify(Partition([a + 1, a, 1])).dim_IZ == a + 4

    def test_two_factor_closed_form(self):
        for d1 in range(1, 8):
            for d2 in range(1, d1 + 1):
                want = ((d1 - d2) ** 2 + 3 * (d1 + d2) + 2) // 2
                report = classify(Partition([d1, d2]))
                assert report.dim_IZ == report.exp_dim_IZ == want


class TestDimSigma2:
    @pytest.mark.parametrize(
        "parts, want",
        [([1, 1, 1], 9), ([5, 1, 1, 1, 1, 1], 60), ([2, 1], 9), ([9, 7, 2], 188)],
    )
    def test_examples(self, parts, want):
        assert classify(Partition(parts)).dim_sigma2 == want

    def test_seven_factor_example(self):
        # exp.dim = min{90, 79} = 79 and the defect is 1
        p = Partition([6, 1, 1, 1, 1, 1, 1])
        report = classify(p)
        assert report.exp_dim_sigma2 == 79
        assert report.delta2 == 1
        assert report.dim_sigma2 == 78


class TestFillsAmbient:
    def test_examples(self):
        assert classify(Partition([2, 2, 2, 1])).fills_ambient
        assert classify(Partition([7, 2])).fills_ambient
        assert not classify(Partition([6, 1, 1, 1, 1, 1, 1])).fills_ambient

    def test_iff_dimension_reaches_ambient(self):
        for p in enumerate_partitions(11):
            report = classify(p)
            assert report.fills_ambient == (report.dim_sigma2 == derived(p).N)


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
        assert classify(Partition(parts)).case_label is label

    def test_total_and_sign_consistent(self):
        # Every partition with d <= 30, the classify-sweep range, on both sides.
        sides = set()
        for p in enumerate_partitions(30):
            q = derived(p)
            side = 2 * q.p - 3 * q.s > 0
            assert classify(p).case_label.defective_side == side, p
            sides.add(side)
        assert sides == {False, True}

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
    # One pass over every partition with d <= 30, exercising classify's
    # paired-form checks (dim_X, delta2, fills_ambient, case_label) at full
    # range.
    count = 0
    for p in enumerate_partitions(30):
        q = derived(p)
        report = classify(p)
        assert report.dim_X == comb(q.d + 2, 2) - q.D - 1
        if report.defective:
            d1 = p.parts[0]
            assert report.delta2 == min(comb(d1 - q.s + 2, 2), 2 * q.p - 3 * q.s)
        assert report.fills_ambient == (report.dim_sigma2 == q.N)
        count += 1
    assert count > 25000


def _shifted(real):
    return lambda *args: real(*args) + 1


class TestDerivationChecks:
    # classify computes each ingredient once, so each of its six checks is
    # broken through the helper that feeds it. [20,7,2] is defective with
    # exp_dim_IZ = 77 > 0, so the defect's branch form is 2p - 3s = 1, and a
    # C(d1 - s + 2, 2) of 0 in place of 78 sends its min form to 0.
    @pytest.mark.parametrize(
        "target, broken, check, parts",
        [
            ("derived", lambda real: lambda p: replace(real(p), D=real(p).D + 1), "dim_X", [2, 1]),
            ("_unbalanced_dim_IZ", lambda real: lambda *args: 0, "delta2", [20, 7, 2]),
            ("_defect", _shifted, "dim_IZ", [9, 7, 2]),
            ("_dim_IZ", _shifted, "dim_sigma2", [9, 7, 2]),
            ("_dim_sigma2", _shifted, "fills_ambient", [2, 2, 2, 1]),
            ("_DEFECTIVE_SIDE", lambda real: frozenset(), "case_label", [9, 7, 2]),
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
        assert checks == ["dim_X", "delta2", "dim_IZ", "dim_sigma2", "fills_ambient", "case_label"]
        assert derivations == [Partition([9, 7, 2])]


class TestClassifyCalls:
    # Every caller reads its closed forms off one `classify` per partition.
    # `formulas.classify` is wrapped wherever a module binds it, so calls
    # made through the module and through an imported name both count.
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = formulas.classify

        def counted(partition):
            calls.append(partition)
            return real(partition)

        for module in (formulas, oracle, cli):
            if getattr(module, "classify", None) is real:
                monkeypatch.setattr(module, "classify", counted)
        return calls

    def test_verify_classifies_once(self, calls):
        # One report gives both the predictions and the ceilings.
        oracle.verify(Partition([25, 15]), trials=1)
        assert calls == [Partition([25, 15])]

    def test_descent_table_classifies_each_partition_once(self, calls):
        rows = cli.table_rows("lemma46")
        assert calls == [
            Partition(parts) for row in rows for parts in (row["case"], row["lambda_reduced"])
        ]


class TestClassificationReport:
    def test_invariants_hold_everywhere(self):
        for p in enumerate_partitions(12):
            report = classify(p)
            q = derived(p)
            assert (report.d, report.D, report.N, report.s, report.p) == (q.d, q.D, q.N, q.s, q.p)
            assert report.two_p_minus_three_s == 2 * q.p - 3 * q.s
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


def assert_equals_its_init_rebuild(value):
    # The same fields through the class's generated __init__.
    rebuilt = type(value)(**{f.name: getattr(value, f.name) for f in fields(value)})
    assert value == rebuilt and hash(value) == hash(rebuilt)
    assert repr(value) == repr(rebuilt)
    return rebuilt


class TestFastConstruction:
    # `classify` and `derived` fill each frozen instance with one dict update
    # and never call __init__; every record with d <= 30 must equal the one
    # the generated __init__ builds.
    def test_equals_the_generated_init_to_degree_30(self):
        count = 0
        for p in enumerate_partitions(30):
            report = classify(p)
            rebuilt = assert_equals_its_init_rebuild(report)
            assert report.json_line() == rebuilt.json_line()
            assert report.to_dict() == rebuilt.to_dict()
            assert_equals_its_init_rebuild(derived(p))
            count += 1
        assert count == 28598

    def test_sets_every_field_in_field_order(self):
        # A field added to the class but not to the dict update fails here.
        p = Partition([9, 7, 2])
        for value in (classify(p), derived(p)):
            assert list(vars(value)) == [f.name for f in fields(value)]

    def test_stays_frozen(self):
        p = Partition([9, 7, 2])
        for value in (classify(p), derived(p)):
            for f in fields(value):
                with pytest.raises(FrozenInstanceError):
                    setattr(value, f.name, None)
            assert replace(value) == value

    def test_derived_still_rejects_values_past_64_bits(self):
        with pytest.raises(OverflowError):
            derived(Partition([2**40, 2**40]))


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
