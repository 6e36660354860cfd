"""Acceptance suite: exact integer or exact set equality throughout, one
printed pass/fail line per criterion.

Run with: pytest tests/test_acceptance.py -v -s
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from secantlines.formulas import classify, hilbert_function_theory
from secantlines.gfpoly import derive_seed
from secantlines.oracle import (
    VERDICT_BELOW,
    VERDICT_MATCH,
    _hilbert_order,
    _trial,
    verify,
)
from secantlines.partitions import Partition, enumerate_partitions

PRIME = 1_000_003
TRIALS = 3
SEED = 20260808


def measured_dim_IZ(partition):
    return verify(partition, prime=PRIME, trials=TRIALS, base_seed=SEED).measured["dim_IZ"]


def announce(number, ok, detail):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


@lru_cache(maxsize=None)
def count_exact_parts(n, k):
    """Independent recursive partition counter (n into exactly k positive parts)."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    return count_exact_parts(n - 1, k - 1) + count_exact_parts(n - k, k)


def nonincreasing_tuples(length, max_part):
    if length == 0:
        yield ()
        return
    for head in range(1, max_part + 1):
        for rest in nonincreasing_tuples(length - 1, head):
            yield (head, *rest)


@pytest.fixture(scope="module")
def exhaustive_reports():
    """Criterion 1 corpus: oracle reports for every partition with d <= 10."""
    partitions = list(enumerate_partitions(10))
    return [
        verify(p, prime=PRIME, trials=TRIALS, base_seed=SEED) for p in partitions
    ]


Specialization = namedtuple("Specialization", "partition e reduced report_full report_reduced")


@pytest.fixture(scope="module")
def specializations():
    """Criterion 8 corpus: every (partition, e) with d <= 9 at which a
    line-splitting bound applies, with the verify reports of the partition
    and of its reduction partition.decrement(e), of total degree d - 1."""
    corpus = []
    for p in enumerate_partitions(9):
        q = classify(p)
        for e in range(1, p.r + 1):
            d_e = p.parts[e - 1]
            if d_e < 2:
                continue
            if d_e < q.d - d_e or (e == 1 and p.parts[0] >= q.s - 1):
                reduced = p.decrement(e)
                corpus.append(
                    Specialization(
                        p,
                        e,
                        reduced,
                        verify(p, prime=PRIME, trials=TRIALS, base_seed=derive_seed(SEED, 0)),
                        verify(reduced, prime=PRIME, trials=TRIALS, base_seed=derive_seed(SEED, 1)),
                    )
                )
    return corpus


def test_criterion_1_exhaustive_theory_vs_oracle(exhaustive_reports):
    ok = False
    try:
        expected_count = sum(
            count_exact_parts(d, k) for d in range(2, 11) for k in range(2, d + 1)
        )
        assert len(exhaustive_reports) == expected_count == 128
        for report in exhaustive_reports:
            assert report.verdict == VERDICT_MATCH, report.to_dict()
            assert report.measured == report.predicted
        ok = True
    finally:
        announce(1, ok, f"{len(exhaustive_reports)} partitions with d <= 10 all MATCH")


def test_criterion_2_hilbert_function_reproduction():
    ok = False
    checked_pairs = 0
    try:
        # both branches agree on the overlap degrees for every partition, d <= 30
        for p in enumerate_partitions(30):
            q = classify(p)
            for j in (q.d - 2, q.d - 1):
                if j < 0:
                    continue
                closed_form = comb(j + 2, 2) - sum(
                    comb(max(j - q.d + di, -1) + 2, 2) for di in p.parts
                )
                assert closed_form == q.D
                assert hilbert_function_theory(p, j) == q.D
                checked_pairs += 1
        # the oracle reproduces the formula at every degree for d <= 8
        for p in enumerate_partitions(8):
            point_seed = SEED + p.d
            slice_dims, _ = _trial(p, derive_seed(point_seed, 0), PRIME, *_hilbert_order(p))
            for j, dim in enumerate(slice_dims):
                assert comb(j + 2, 2) - dim == hilbert_function_theory(p, j)
        ok = True
    finally:
        announce(2, ok, f"{checked_pairs} overlap checks to d=30, oracle sweep to d=8")


def test_criterion_3_descent_table_reproduced():
    from secantlines.cli import table_rows

    ok = False
    try:
        rows = table_rows("lemma46")
        assert [tuple(r["case"]) for r in rows] == [
            (3, 2, 2),
            (4, 3, 2),
            (5, 4, 2),
            (6, 5, 2),
            (2, 1, 1, 1),
            (3, 2, 1, 1),
            (4, 3, 1, 1),
        ]
        assert [r["exp_dim_IZ"] for r in rows] == [4, 3, 2, 1, 3, 2, 1]
        assert [r["dim_IZ_reduced"] for r in rows] == [4, 3, 2, 1, 3, 2, 1]
        for row in rows:
            case = Partition(row["case"])
            reduced = Partition(row["lambda_reduced"])
            assert reduced == case.decrement(1)
            measured = measured_dim_IZ(case)
            measured_reduced = measured_dim_IZ(reduced)
            assert measured == row["exp_dim_IZ"] == classify(case).dim_IZ
            assert measured_reduced == row["dim_IZ_reduced"] == classify(reduced).dim_IZ
        ok = True
    finally:
        announce(3, ok, "7 table rows, every dimension oracle-confirmed")


def test_criterion_4_near_balanced_families():
    ok = False
    try:
        for a in range(1, 7):
            same = Partition([a, a, 1])
            step = Partition([a + 1, a, 1])
            assert classify(same).dim_IZ == a + 3
            assert classify(step).dim_IZ == a + 4
            assert measured_dim_IZ(same) == a + 3
            assert measured_dim_IZ(step) == a + 4
        ok = True
    finally:
        announce(4, ok, "a=1..6, both [a,a,1] and [a+1,a,1], oracle-confirmed")


def test_criterion_5_classification_lists():
    ok = False
    try:
        expected = {
            2: None,  # every two-factor tail
            3: {(a, 1) for a in range(1, 15)}
            | {(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3)},
            4: {(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1)},
            5: {(1, 1, 1, 1)},
            6: set(),
            7: set(),
        }
        for r in range(2, 8):
            nonpositive = set()
            all_tails = set()
            for tail in nonincreasing_tuples(r - 1, 14):
                all_tails.add(tail)
                s = sum(tail)
                p = sum(a * b for a, b in combinations(tail, 2))
                if 2 * p - 3 * s <= 0:
                    nonpositive.add(tail)
            if r == 2:
                assert nonpositive == all_tails
            else:
                assert nonpositive == expected[r], f"r={r}"
        ok = True
    finally:
        announce(5, ok, "tail sweep r=2..7, entries <= 14, exact set equality")


def test_criterion_6_fills_ambient():
    ok = False
    exceptional = []
    try:
        for p in enumerate_partitions(12):
            q = report = classify(p)
            fills = report.fills_ambient
            assert fills == (report.dim_sigma2 == q.N)
            if fills and 3 * q.s - 2 * q.p < 0:
                exceptional.append(p)
        assert exceptional == [Partition([2, 2, 2, 1])]
        ok = True
    finally:
        announce(6, ok, "d <= 12; the only 3s-2p < 0 filler is [2,2,2,1]")


def test_criterion_7_defect_forms_agree():
    ok = False
    defective_count = 0
    try:
        for p in enumerate_partitions(20):
            report = classify(p)
            delta2 = report.delta2
            if not report.defective:
                assert delta2 == 0
                continue
            defective_count += 1
            q = classify(p)
            d1 = p.parts[0]
            min_form = min(comb(d1 - q.s + 2, 2), 2 * q.p - 3 * q.s)
            branch_form = (
                2 * q.p - 3 * q.s
                if comb(q.d + 2, 2) - 2 * q.D > 0
                else comb(d1 - q.s + 2, 2)
            )
            assert min_form == branch_form == delta2
        assert defective_count > 0
        ok = True
    finally:
        announce(7, ok, f"{defective_count} defective partitions with d <= 20")


def test_criterion_8_specialization_inequalities(specializations):
    # Splitting a line off factor e bounds dim_IZ by dim_IZ_reduced when
    # 1 < d_e < d - d_e, and by dim_IZ_reduced + d1 - s + 1 when e = 1,
    # d1 > 1 and d1 >= s - 1.
    ok = False
    try:
        assert specializations, "no applicable (partition, e) pairs found"
        for p, e, _, report_full, report_reduced in specializations:
            q = classify(p)
            d_e = p.parts[e - 1]
            dim_IZ = report_full.measured["dim_IZ"]
            dim_IZ_reduced = report_reduced.measured["dim_IZ"]
            if d_e < q.d - d_e:
                assert dim_IZ <= dim_IZ_reduced, (p, e)
            if e == 1 and p.parts[0] >= q.s - 1:
                assert dim_IZ <= dim_IZ_reduced + p.parts[0] - q.s + 1, (p, e)
        ok = True
    finally:
        announce(
            8,
            ok,
            f"{len(specializations)} applicable (partition, e) pairs, d <= 9",
        )


def test_criterion_9_semicontinuity_guard(exhaustive_reports, specializations):
    ok = False
    trial_count = 0
    try:
        for report in exhaustive_reports:
            assert report.verdict in (VERDICT_MATCH, VERDICT_BELOW)
            for value in report.trial_dim_sigma2:
                assert value <= report.predicted["dim_sigma2"]
                trial_count += 1
        for spec in specializations:
            cap_full = classify(spec.partition).dim_sigma2
            cap_reduced = classify(spec.reduced).dim_sigma2
            for value in spec.report_full.trial_dim_sigma2:
                assert value <= cap_full
                trial_count += 1
            for value in spec.report_reduced.trial_dim_sigma2:
                assert value <= cap_reduced
                trial_count += 1
        ok = True
    finally:
        announce(9, ok, f"{trial_count} individual trials, none above theory")
