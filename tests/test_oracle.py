import json
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secantlines.formulas import (
    dim_IZ_theory,
    dim_sigma2_theory,
    hilbert_function_theory,
)
import secantlines.oracle as oracle
from secantlines.gfpoly import derive_seed, num_monomials
from secantlines.oracle import (
    CHECK_RESIDUAL,
    CHECK_RESIDUAL_PLUS_POINTS,
    NotApplicableError,
    SemicontinuityError,
    VERDICT_ABOVE,
    VERDICT_BELOW,
    VERDICT_MATCH,
    _blocked,
    _draw_cofactors,
    _echelon,
    _independent_rows,
    _mod,
    _pair_ranks,
    _rank,
    _reduce,
    _rref,
    _verdict,
    nullspace,
    oracle_dim_IF,
    oracle_dim_IZ,
    rank,
    secant_trials,
    specialization_check,
    tangent_slice,
    verify,
)
from secantlines.partitions import Partition, derived, enumerate_partitions

P = 1_000_003
SEED = 1234


def hilbert(partition, seed):
    """Measured Hilbert function j = 0..d at one random point."""
    dims = oracle_dim_IF(partition, seed, prime=P)
    return [num_monomials(j) - dim for j, dim in enumerate(dims)]


def sigma2(partition, trials, seed):
    return max(t.dim_sigma2 for t in secant_trials(partition, trials, seed, prime=P))


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3, dtype=np.int64), P) == 3

    def test_zero(self):
        assert rank(np.zeros((4, 5), dtype=np.int64), P) == 0

    def test_outer_product(self):
        u = np.array([1, 2, 3, 4], dtype=np.int64)
        v = np.array([5, 6, 7, 8, 9], dtype=np.int64)
        assert rank(np.outer(u, v), P) == 1

    def test_empty(self):
        assert rank(np.zeros((0, 6), dtype=np.int64), P) == 0

    def test_rank_depends_on_modulus(self):
        # determinant is 7: singular mod 7, invertible mod 5
        a = [[3, 1], [2, 3]]
        assert rank(a, 7) == 1
        assert rank(a, 5) == 2

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            rank(np.array([1, 2, 3]), P)


def low_rank(seed, n_rows, n_cols, r, modulus, zero_cols=0, staircase=False):
    """A random n_rows x n_cols matrix of rank at most r mod `modulus`, built
    one outer product at a time so int64 never overflows; its first
    `zero_cols` columns are zero.

    With `staircase`, row i combines only the first g_i of the r vectors, for
    a random non-decreasing g, so the independent rows are spread over the
    whole matrix; and the first half of the columns involves only the later
    vectors, so an elimination of the transpose meets them out of order."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, modulus, (n_rows, r))
    v = rng.integers(0, modulus, (r, n_cols))
    v[:, :zero_cols] = 0
    if staircase:
        v[: r // 2, : n_cols // 2] = 0
        u[np.arange(r) >= np.sort(rng.integers(0, r + 1, n_rows))[:, None]] = 0
    a = np.zeros((n_rows, n_cols), dtype=np.int64)
    for k in range(r):
        a = (a + np.outer(u[:, k], v[k]) % modulus) % modulus
    return a


PRIMES = st.sampled_from([7, P, 2**31 - 1])
LEAF = oracle.LEAF_ROWS
ROWS = st.integers(1, 4 * LEAF + 3)
# Row counts on both sides of the width at which the transpose of a matrix
# goes to the blocked kernel.
ROWS_BOTH_ROUTES = st.one_of(
    st.integers(1, 3 * LEAF), st.integers(oracle.BLAS_MIN_COLS + 1, oracle.BLAS_MIN_COLS + 40)
)


class TestBlockedElimination:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS,
        n_cols=st.integers(oracle.BLAS_MIN_COLS - 2, oracle.BLAS_MIN_COLS + 40),
        r=st.integers(0, 4 * LEAF + 3),
        modulus=PRIMES,
    )
    def test_rank_matches_column_loop(self, seed, n_rows, n_cols, r, modulus):
        a = low_rank(seed, n_rows, n_cols, min(r, n_rows, n_cols), modulus)
        assert rank(a, modulus) == len(_echelon(a % modulus, modulus))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS,
        n_cols=st.integers(1, 3 * LEAF),
        r=st.integers(0, 4 * LEAF + 3),
        zero_cols=st.integers(0, 4),
        modulus=st.sampled_from([7, P]),
    )
    def test_kernel_basis_spans_row_space(self, seed, n_rows, n_cols, r, zero_cols, modulus):
        a = low_rank(seed, n_rows, n_cols, min(r, n_rows, n_cols), modulus, zero_cols)
        want = len(_echelon(a.copy(), modulus))
        pivots, tail = _rref(a.astype(np.float64), modulus)
        assert pivots.size == want == _rank(a.astype(np.float64), modulus)
        assert tail.shape == (want, n_cols - want)
        assert ((tail >= 0) & (tail < modulus) & (tail == np.floor(tail))).all()
        # Every row of `a` lies in the span of the basis.
        assert not _reduce(pivots, tail, a.astype(np.float64), modulus).any()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS_BOTH_ROUTES,
        n_cols=st.integers(1, 3 * LEAF),
        r=st.integers(0, 3 * LEAF),
        modulus=PRIMES,
    )
    def test_independent_rows_count_every_prefix_rank(self, seed, n_rows, n_cols, r, modulus):
        a = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        independent = _independent_rows(a, modulus)
        assert independent.tolist() == sorted(set(independent.tolist()))
        for k in range(n_rows + 1):
            assert np.searchsorted(independent, k) == rank(a[:k], modulus)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=st.integers(1, 3 * LEAF),
        n_cols=st.sampled_from([8, oracle.BLAS_MIN_COLS, oracle.BLAS_MIN_COLS + 20]),
        r=st.integers(0, 3 * LEAF),
        modulus=PRIMES,
    )
    def test_pair_ranks_match_separate_ranks(self, seed, n_rows, n_cols, r, modulus):
        f = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        g = low_rank(seed + 1, n_rows + 3, n_cols, min(r, n_cols), modulus, staircase=True)
        g[:n_rows:2] = f[::2]  # so that the row spaces meet
        want = (rank(f, modulus), rank(g, modulus), rank(np.vstack([f, g]), modulus))
        assert _pair_ranks(iter([f, g]), modulus) == want

    @pytest.mark.parametrize("modulus", [7, P, 2**31 - 1])
    def test_mod_exact_at_the_float64_limit(self, modulus):
        top = 2**53 - 1
        multiple = top - top % modulus
        values = [0, 1, -1, top, -top, modulus, -modulus, multiple, -multiple,
                  multiple - 1, 1 - multiple, modulus - 1, 1 - modulus, 2**53 - modulus]
        got = _mod(np.array(values, dtype=np.float64), modulus)
        assert got.tolist() == [v % modulus for v in values]

    def test_route(self):
        width = oracle.BLAS_MIN_COLS
        assert not _blocked(width, P) and _blocked(width + 1, P)
        assert _blocked(9007, P) and not _blocked(9008, P)  # the 2**53 bound
        assert not _blocked(width + 1, 2**31 - 1)

    def test_guard_falls_back_at_largest_prime(self):
        # Float64 products of entries near 2**31 are inexact, so wide slices
        # at this prime must take the int64 route, joint rank included.
        prime = 2**31 - 1
        partition = Partition([9, 7])
        (trial,) = secant_trials(partition, 1, SEED, prime=prime)
        f, g = (
            tangent_slice(_draw_cofactors(partition, derive_seed(trial.seed, k), prime), 16)
            for k in (0, 1)
        )
        assert f.shape[1] == 153 > oracle.BLAS_MIN_COLS
        want = (rank(f, prime), rank(g, prime), rank(np.vstack([f, g]), prime))
        assert (trial.dim_IF, trial.dim_IG, trial.rank_joint) == want


class TestNullspace:
    def test_kernel_is_annihilated(self):
        modulus = 1009
        rng = np.random.default_rng(0)
        a = rng.integers(0, modulus, size=(4, 7)).astype(np.int64)
        basis = nullspace(a, modulus)
        assert basis.shape[0] == 7 - rank(a, modulus)
        assert not ((a @ basis.T) % modulus).any()

    def test_empty_matrix_kernel_is_everything(self):
        basis = nullspace(np.zeros((0, 4), dtype=np.int64), P)
        assert basis.shape == (4, 4)
        assert rank(basis, P) == 4


class TestTangentSlice:
    @pytest.mark.parametrize(
        "parts, j, shape",
        [
            ([1, 1], 2, (6, 6)),
            ([1, 1, 1], 1, (0, 3)),
            ([2, 1], 3, (9, 10)),
        ],
    )
    def test_shapes(self, parts, j, shape):
        assert tangent_slice(_draw_cofactors(Partition(parts), SEED, P), j).shape == shape


SMALL_PARTITIONS = [p.parts for p in enumerate_partitions(12)]


def slice_dims_one_degree_at_a_time(partition, seed, prime):
    """The Hilbert loop that one elimination replaced: rank the tangent slice
    of every degree j = 0..d separately, at the same point."""
    cofactors = _draw_cofactors(partition, seed, prime)
    return [rank(tangent_slice(cofactors, j), prime) for j in range(partition.d + 1)]


class TestSliceDimensions:
    @settings(max_examples=60, deadline=None)
    @given(
        # [14,10,6] has a 214-row degree-d slice, so its transpose takes the
        # blocked kernel at p = 7 and p = P; the others stay on `_echelon`.
        parts=st.one_of(st.sampled_from(SMALL_PARTITIONS), st.sampled_from([(9, 7), (14, 10, 6)])),
        seed=st.integers(0, 2**32),
        prime=PRIMES,
    )
    def test_one_elimination_gives_every_degree(self, parts, seed, prime):
        # p = 7 makes non-generic draws common, and the identity holds for
        # those too.
        partition = Partition(parts)
        want = slice_dims_one_degree_at_a_time(partition, seed, prime)
        assert oracle_dim_IF(partition, seed, prime=prime) == want

    @pytest.mark.parametrize(
        "parts, j, want",
        [([1, 1], 2, 5), ([2, 1], 3, 8), ([1, 1, 1], 3, 7)],
    )
    def test_examples(self, parts, j, want):
        assert oracle_dim_IF(Partition(parts), SEED, prime=P)[j] == want

    def test_hilbert_examples(self):
        assert hilbert(Partition([1, 1, 1]), SEED)[1] == 3
        assert hilbert(Partition([2, 1]), SEED)[0] == 1

    @pytest.mark.parametrize("parts", [[2, 1], [2, 2, 1], [3, 2]])
    def test_hilbert_stabilizes_at_point_count(self, parts):
        p = Partition(parts)
        q = derived(p)
        assert hilbert(p, SEED)[q.d] == q.D

    @pytest.mark.parametrize("parts", [[3, 2], [2, 2, 1], [1, 1, 1, 1]])
    def test_hilbert_matches_theory_all_degrees(self, parts):
        p = Partition(parts)
        assert hilbert(p, SEED) == [hilbert_function_theory(p, j) for j in range(p.d + 1)]

    @pytest.mark.parametrize("parts", [[3, 2], [2, 2, 1], [2, 1, 1, 1]])
    def test_hilbert_monotone_for_fixed_factors(self, parts):
        p = Partition(parts)
        q = derived(p)
        values = hilbert(p, SEED)
        assert values == sorted(values)
        for j, h in enumerate(values):
            assert h <= min(comb(j + 2, 2), q.D)


class TestSecantMeasurements:
    @pytest.mark.parametrize(
        "parts, want",
        [([1, 1, 1], 9), ([5, 1, 1, 1, 1, 1], 60), ([2, 1], 9)],
    )
    def test_sigma2_examples(self, parts, want):
        assert sigma2(Partition(parts), 3, SEED) == want

    @pytest.mark.parametrize(
        "parts, want",
        [
            ([2, 1, 1, 1], 3),
            ([3, 2, 1, 1], 2),
            ([4, 3, 3], 0),
            ([1, 1, 1], 4),
            ([2, 1], 6),
        ],
    )
    def test_intersection_examples(self, parts, want):
        assert oracle_dim_IZ(Partition(parts), 3, SEED, prime=P) == want

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            secant_trials(Partition([2, 1]), 0, SEED, prime=P)

    @pytest.mark.parametrize("parts", [[2, 1], [2, 2, 1], [3, 1, 1]])
    def test_grassmann_identity_via_orthogonal_complements(self, parts):
        # Independent route: dim(U cap V) = ncols - rank([ker(A); ker(B)]).
        partition = Partition(parts)
        a = tangent_slice(_draw_cofactors(partition, derive_seed(77, 0), P), partition.d)
        b = tangent_slice(_draw_cofactors(partition, derive_seed(77, 1), P), partition.d)
        rank_a, rank_b = rank(a, P), rank(b, P)
        rank_joint = rank(np.vstack([a, b]), P)
        complements = np.vstack([nullspace(a, P), nullspace(b, P)])
        dim_intersection = a.shape[1] - rank(complements, P)
        assert rank_joint == rank_a + rank_b - dim_intersection
        assert dim_intersection == dim_IZ_theory(partition)

    def test_trials_record_all_ranks(self):
        trials = secant_trials(Partition([2, 2, 1]), 3, SEED, prime=P)
        assert len(trials) == 3
        for t in trials:
            assert t.dim_sigma2 == t.rank_joint - 1
            assert t.dim_IZ == t.dim_IF + t.dim_IG - t.rank_joint

    @pytest.mark.parametrize(
        "parts, inflated, message",
        [
            ([2, 1], (1, 0, 0), "trial rank above generic"),
            ([2, 1], (0, 0, 1), "sigma2 above the parameter count"),
            ([9, 7], (0, 1, 0), "trial rank above generic"),
            ([9, 7], (0, 0, 1), "sigma2 above the parameter count"),
        ],
        ids=["slice", "stacked", "slice-blocked", "stacked-blocked"],
    )
    def test_rank_above_generic_raises(self, monkeypatch, parts, inflated, message):
        # A slice rank or a stacked rank reported one too high must be
        # refused, also under -O, on both elimination routes ([2,1] has 3
        # columns, [9,7] has 153).
        true_pair_ranks = oracle._pair_ranks

        def over_reporting(slices, modulus):
            ranks = true_pair_ranks(slices, modulus)
            return tuple(r + extra for r, extra in zip(ranks, inflated))

        monkeypatch.setattr(oracle, "_pair_ranks", over_reporting)
        with pytest.raises(SemicontinuityError, match=message):
            secant_trials(Partition(parts), 1, SEED, prime=P)


class TestSpecializationCheck:
    def test_both_bounds_when_near_balanced(self):
        report = specialization_check(Partition([3, 2, 1, 1]), 1, SEED, prime=P)
        assert report.reduced == Partition([2, 2, 1, 1])
        assert report.dim_IZ == 2 and report.dim_IZ_reduced == 2
        kinds = {c.kind: c for c in report.checks}
        assert set(kinds) == {CHECK_RESIDUAL, CHECK_RESIDUAL_PLUS_POINTS}
        assert kinds[CHECK_RESIDUAL_PLUS_POINTS].bound == 2  # d1 - s + 1 = 0
        assert report.passed

    def test_residual_only(self):
        report = specialization_check(Partition([2, 2, 2]), 3, SEED, prime=P)
        assert [c.kind for c in report.checks] == [CHECK_RESIDUAL]
        assert report.passed

    def test_unit_degree_not_applicable(self):
        with pytest.raises(NotApplicableError):
            specialization_check(Partition([2, 1, 1]), 2, SEED, prime=P)

    def test_balanced_pair_not_applicable_off_lead(self):
        # [2,2] at e=2 has d_e = s_e, so neither bound applies
        with pytest.raises(NotApplicableError):
            specialization_check(Partition([2, 2]), 2, SEED, prime=P)

    def test_balanced_pair_lead_factor_applies(self):
        report = specialization_check(Partition([2, 2]), 1, SEED, prime=P)
        assert [c.kind for c in report.checks] == [CHECK_RESIDUAL_PLUS_POINTS]
        assert report.passed

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            specialization_check(Partition([2, 2]), 5, SEED, prime=P)


class TestVerify:
    @pytest.mark.parametrize(
        "parts, dim_IZ",
        [([2, 2, 1, 1], 2), ([6, 5, 2], 1)],
    )
    def test_match_examples(self, parts, dim_IZ):
        report = verify(Partition(parts), prime=P, trials=3, base_seed=SEED)
        assert report.verdict == VERDICT_MATCH
        assert report.measured["dim_IZ"] == dim_IZ

    def test_star_configuration_matches(self):
        report = verify(Partition([1, 1, 1, 1, 1]), prime=P, trials=3, base_seed=SEED)
        assert report.verdict == VERDICT_MATCH

    def test_defective_case_matches(self):
        report = verify(Partition([9, 7, 2]), prime=P, trials=3, base_seed=SEED)
        assert report.verdict == VERDICT_MATCH
        assert report.predicted["dim_sigma2"] == 188
        assert report.measured["dim_sigma2"] == 188

    def test_report_metadata_and_round_trip(self):
        p = Partition([2, 2, 1])
        report = verify(p, prime=P, trials=2, base_seed=SEED)
        assert report.trials == 2
        assert len(report.seeds) == 2
        assert len(report.trial_dim_sigma2) == 2
        assert all(
            t <= report.predicted["dim_sigma2"] for t in report.trial_dim_sigma2
        )
        assert report.predicted["dim_sigma2"] == dim_sigma2_theory(p)
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["seeds"] == list(report.seeds)
        assert payload["measured"] == report.measured


class TestVerdict:
    BASE_MEASURED = {
        "dim_IF_d": 8,
        "hilbert": [1, 3, 3],
        "dim_sigma2": 9,
        "dim_IZ": 4,
    }

    def test_match(self):
        assert _verdict(self.BASE_MEASURED, dict(self.BASE_MEASURED)) == VERDICT_MATCH

    def test_below_when_rank_short(self):
        measured = dict(self.BASE_MEASURED, dim_sigma2=8)
        assert _verdict(measured, self.BASE_MEASURED) == VERDICT_BELOW

    def test_above_when_rank_exceeds(self):
        measured = dict(self.BASE_MEASURED, dim_sigma2=10)
        assert _verdict(measured, self.BASE_MEASURED) == VERDICT_ABOVE

    def test_above_when_hilbert_drops(self):
        measured = dict(self.BASE_MEASURED, hilbert=[1, 2, 3])
        assert _verdict(measured, self.BASE_MEASURED) == VERDICT_ABOVE

    def test_below_when_intersection_grows(self):
        measured = dict(self.BASE_MEASURED, dim_IZ=5)
        assert _verdict(measured, self.BASE_MEASURED) == VERDICT_BELOW

    def test_above_when_intersection_shrinks(self):
        measured = dict(self.BASE_MEASURED, dim_IZ=3)
        assert _verdict(measured, self.BASE_MEASURED) == VERDICT_ABOVE

    def test_intersection_shrinks_with_a_short_slice_rank_is_below(self):
        # Below the generic slice rank, 2m - rank_joint can fall under the
        # generic intersection: not the impossible side.
        measured = dict(self.BASE_MEASURED, dim_IF_d=7, dim_IZ=3)
        assert _verdict(measured, self.BASE_MEASURED) == VERDICT_BELOW

    def test_above_wins_over_below(self):
        measured = dict(self.BASE_MEASURED, dim_sigma2=10, dim_IZ=5)
        assert _verdict(measured, self.BASE_MEASURED) == VERDICT_ABOVE

    def test_unlucky_small_prime_draw_is_not_above(self):
        # At p = 2 the second trial of [2,1] has a slice of rank 3 of 8;
        # rank_f + rank_g - rank_joint is 1 there, below the generic 6.
        report = verify(Partition([2, 1]), prime=2, trials=3, base_seed=0)
        unlucky = secant_trials(Partition([2, 1]), 3, 0, prime=2)[1]
        assert (unlucky.dim_IF, unlucky.dim_IZ) == (3, 1)
        assert report.measured["dim_IZ"] == report.predicted["dim_IZ"] == 6
        assert report.verdict == VERDICT_MATCH

    def test_no_impossible_verdict_at_small_primes(self):
        # Semicontinuity makes ORACLE_ABOVE_THEORY a proof of an oracle
        # fault, so no draw, however unlucky, may produce it.
        above = [
            (partition.parts, prime)
            for prime in (2, 3, 5, 7, 11, 13)
            for partition in enumerate_partitions(8)
            if verify(partition, prime=prime).verdict == VERDICT_ABOVE
        ]
        assert above == []

    def test_replace_keeps_dataclass_frozen(self):
        report = verify(Partition([2, 1]), prime=P, trials=1, base_seed=SEED)
        doctored = replace(report, verdict=VERDICT_BELOW)
        assert doctored.verdict == VERDICT_BELOW and report.verdict == VERDICT_MATCH
