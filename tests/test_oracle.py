import json
from dataclasses import replace
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secantlines.formulas import (
    dim_IZ_theory,
    dim_sigma2_theory,
    hilbert_function_theory,
)
import secantlines.oracle as oracle
from secantlines.field import is_prime
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
    _eliminate,
    _mod,
    _pair_ranks,
    _rank,
    _reduce,
    _rref,
    _trial_ranks,
    _verdict,
    nullspace,
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
    dims = _trial_ranks(partition, seed, P)[0]
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


def column_loop_pivots(a, modulus):
    """Pivot columns of `a` mod `modulus` by textbook Gaussian elimination,
    one column at a time with row swaps: the reference the kernels are
    checked against. Its count is the rank; on the transpose it lists the
    rows independent of the rows above them."""
    a = np.array(a, dtype=np.int64) % modulus
    pivots, row = [], 0
    for col in range(a.shape[1]):
        if row == a.shape[0]:
            break
        hits = np.flatnonzero(a[row:, col])
        if hits.size == 0:
            continue
        a[[row, row + hits[0]]] = a[[row + hits[0], row]]
        a[row] = a[row] * pow(int(a[row, col]), modulus - 2, modulus) % modulus
        a[row + 1 :] = (a[row + 1 :] - np.outer(a[row + 1 :, col], a[row])) % modulus
        pivots.append(col)
        row += 1
    return pivots


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
WINDOW = oracle.LEAF_WINDOW
ROWS = st.integers(1, 4 * LEAF + 3)
# Column counts on both sides of the width at which a matrix goes to the
# blocked kernel.
COLS_BOTH_ROUTES = st.one_of(
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
        assert rank(a, modulus) == len(column_loop_pivots(a, modulus))

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
        want = len(column_loop_pivots(a, modulus))
        pivots, tail, independent = _rref(a.astype(np.float64), modulus)
        assert pivots.size == independent.size == want == _rank(a.astype(np.float64), modulus)
        assert tail.shape == (want, n_cols - want)
        # The tail holds balanced residues of the reduced row echelon form,
        # which `_eliminate` gives in [0, modulus).
        assert ((tail == np.rint(tail)) & (np.abs(tail) <= modulus / 2 + 1)).all()
        work = a % modulus
        rows, cols = _eliminate(work, modulus)
        free = np.delete(np.arange(n_cols), cols)
        reference = {c: [-int(v) % modulus for v in work[i, free]] for i, c in zip(rows, cols)}
        assert {int(c): [int(v) % modulus for v in t] for c, t in zip(pivots, tail)} == reference
        # Every row of `a` lies in the span of the basis.
        assert not _reduce(pivots, tail, a.astype(np.float64), modulus).any()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS,
        n_cols=st.integers(oracle.BLAS_MIN_COLS + 1, oracle.BLAS_MIN_COLS + 40),
        r=st.integers(0, 3 * LEAF),
        n_zero=st.integers(0, 6),
        n_repeated=st.integers(0, 6),
        modulus=st.sampled_from([7, P]),
    )
    def test_rref_row_profile_matches_column_loop(
        self, seed, n_rows, n_cols, r, n_zero, n_repeated, modulus
    ):
        # The kernel's leaves eliminate in row order without swaps, so the
        # rows it finds independent are those independent of the rows above
        # them: the pivot columns of the transpose, and every prefix count
        # is the rank of that prefix. Zero rows and copies of earlier rows
        # are never independent.
        a = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        rng = np.random.default_rng(seed)
        a[rng.integers(0, n_rows, n_zero)] = 0
        for row in rng.integers(0, n_rows, n_repeated):
            a[row] = a[rng.integers(0, row + 1)]
        assert _blocked(n_cols, modulus)
        independent = _rref(a.astype(np.float64), modulus)[2]
        assert independent.tolist() == column_loop_pivots(a.T, modulus)
        for k in range(n_rows + 1):
            assert np.searchsorted(independent, k) == rank(a[:k], modulus)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=st.integers(1, 3 * LEAF),
        lead=st.integers(0, 2 * WINDOW + 3),
        width=st.integers(oracle.BLAS_MIN_COLS + 1, oracle.BLAS_MIN_COLS + 2 * WINDOW),
        r=st.integers(0, 2 * LEAF),
        late_row=st.integers(0, 3 * LEAF),
        n_zero=st.integers(0, 4),
        n_copies=st.integers(0, 4),
        dependent_half=st.booleans(),
        modulus=st.sampled_from([7, P]),
    )
    def test_windowed_leaf_profile_matches_column_loop(
        self, seed, n_rows, lead, width, r, late_row, n_zero, n_copies, dependent_half, modulus
    ):
        # Leading zero columns, possibly more than a window's worth; a row
        # that is zero on the first window but, most of the time, independent
        # of the rows above it, so leaves find pivots out of row order; zero
        # rows and copies of rows further down; and, with dependent_half, a
        # bottom half in the span of the top half, so every leaf of the
        # residual is entirely dependent.
        n_cols = lead + width
        a = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, lead, staircase=True)
        rng = np.random.default_rng(seed)
        if late_row < n_rows:
            a[late_row, : lead + WINDOW] = 0
            a[late_row, lead + WINDOW :] = rng.integers(0, modulus, width - WINDOW)
        a[rng.integers(0, n_rows, n_zero)] = 0
        for row in rng.integers(0, n_rows, n_copies):
            a[row] = a[rng.integers(row, n_rows)]
        if dependent_half:
            half = n_rows // 2
            a[half:] = rng.integers(0, modulus, (n_rows - half, half)) @ a[:half] % modulus
        assert _blocked(n_cols, modulus)
        want = column_loop_pivots(a.T, modulus)
        pivots, tail, independent = _rref(a.astype(np.float64), modulus)
        assert independent.tolist() == want
        assert _rank(a.astype(np.float64), modulus) == len(want)
        assert not _reduce(pivots, tail, a.astype(np.float64), modulus).any()

    def test_largest_blocked_prime_matches_the_int64_route(self, monkeypatch):
        # At the largest prime the kernel takes for [9,7]'s 153 columns its
        # sums come closest to 2**52; the trials must equal those of the
        # int64 route.
        partition = Partition([9, 7])
        n_cols = num_monomials(partition.d)
        prime = isqrt(2**53 // n_cols) + 1
        assert not _blocked(n_cols, prime)
        while not (_blocked(n_cols, prime) and is_prime(prime)):
            prime -= 1
        blocked = secant_trials(partition, 2, SEED, prime=prime)
        monkeypatch.setattr(oracle, "_blocked", lambda n_cols, modulus: False)
        assert secant_trials(partition, 2, SEED, prime=prime) == blocked

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS,
        n_cols=COLS_BOTH_ROUTES,
        r=st.integers(0, 3 * LEAF),
        modulus=PRIMES,
    )
    def test_independent_rows_count_every_prefix_rank(self, seed, n_rows, n_cols, r, modulus):
        a = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        independent = np.array(_eliminate(a % modulus, modulus)[0], dtype=np.int64)
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
        independent, rank_joint = _pair_ranks(iter([f, g]), modulus)
        assert independent.tolist() == column_loop_pivots(f.T, modulus)
        assert (independent.size, rank_joint) == (rank(f, modulus), rank(np.vstack([f, g]), modulus))

    @pytest.mark.parametrize("modulus", [7, P, 2**31 - 1])
    def test_mod_exact_at_the_float64_limit(self, modulus):
        # `_mod` is proven exact up to 2**52, the bound `_blocked` keeps the
        # kernel under; at these primes it also holds up to 2**53 - 1.
        top = 2**53 - 1
        multiple = top - top % modulus
        values = [0, 1, -1, top, -top, modulus, -modulus, multiple, -multiple,
                  multiple - 1, 1 - multiple, modulus - 1, 1 - modulus, 2**53 - modulus,
                  2**52, -(2**52)]
        got = _mod(np.array(values, dtype=np.float64), modulus).tolist()
        for value, residue in zip(values, got):
            assert residue == int(residue)
            assert (value - int(residue)) % modulus == 0
            assert abs(residue) <= modulus / 2 + 1

    def test_route(self):
        width = oracle.BLAS_MIN_COLS
        assert not _blocked(width, P) and _blocked(width + 1, P)
        assert _blocked(9007, P) and not _blocked(9008, P)  # the 2**52 bound
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
        assert not _blocked(f.shape[1], prime)
        want = (rank(f, prime), rank(np.vstack([f, g]), prime))
        assert (trial.dim_IF, trial.rank_joint) == want


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
        # Slices of d >= 11 (78 columns up, and [9,7] and [14,10,6] at 153
        # and 496) take the blocked kernel at p = 7 and p = P; smaller ones
        # stay on `_eliminate`, and so does every slice at p = 2**31 - 1.
        parts=st.one_of(st.sampled_from(SMALL_PARTITIONS), st.sampled_from([(9, 7), (14, 10, 6)])),
        seed=st.integers(0, 2**32),
        prime=PRIMES,
    )
    def test_one_elimination_gives_every_degree(self, parts, seed, prime):
        # p = 7 makes non-generic draws common, and the identity holds for
        # those too.
        partition = Partition(parts)
        want = slice_dims_one_degree_at_a_time(partition, derive_seed(seed, 0), prime)
        assert _trial_ranks(partition, seed, prime)[0] == want

    @pytest.mark.parametrize(
        "parts, j, want",
        [([1, 1], 2, 5), ([2, 1], 3, 8), ([1, 1, 1], 3, 7)],
    )
    def test_examples(self, parts, j, want):
        assert _trial_ranks(Partition(parts), SEED, P)[0][j] == want

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
        partition = Partition([2, 2, 1])
        trials = secant_trials(partition, 3, SEED, prime=P)
        assert len(trials) == 3
        m = max(t.dim_IF for t in trials)
        for t in trials:
            assert t.dim_sigma2 == t.rank_joint - 1
            assert t.dim_IF == t.slice_dims[-1]
            assert t.dim_IZ == 2 * m - t.rank_joint
        report = verify(partition, prime=P, trials=3, base_seed=SEED)
        assert report.trial_dim_IZ == tuple(t.dim_IZ for t in trials)

    @pytest.mark.parametrize(
        "parts, prime, blocked",
        [([5, 3], P, False), ([9, 7], P, True), ([9, 7], 2**31 - 1, False)],
    )
    def test_trial_matches_separate_eliminations(self, parts, prime, blocked):
        # One elimination per trial gives F's slice dimensions for every j,
        # rank F and the stacked rank; each must equal its own elimination,
        # on both routes. Float64 products of entries near 2**31 are inexact,
        # so [9,7] (153 columns) must take the int64 route at that prime.
        partition = Partition(parts)
        for trial in secant_trials(partition, 2, SEED, prime=prime):
            f, g = (
                tangent_slice(
                    _draw_cofactors(partition, derive_seed(trial.seed, k), prime), partition.d
                )
                for k in (0, 1)
            )
            assert _blocked(f.shape[1], prime) == blocked
            assert trial.dim_IF == rank(f, prime)
            assert trial.rank_joint == rank(np.vstack([f, g]), prime)
            assert list(trial.slice_dims) == slice_dims_one_degree_at_a_time(
                partition, derive_seed(trial.seed, 0), prime
            )

    @pytest.mark.parametrize(
        "parts, inflated, message",
        [
            ([2, 1], (1, 0), "trial rank above generic"),
            ([2, 1], (0, 1), "sigma2 above the parameter count"),
            ([9, 7], (1, 0), "trial rank above generic"),
            ([9, 7], (0, 1), "sigma2 above the parameter count"),
        ],
        ids=["slice", "stacked", "slice-blocked", "stacked-blocked"],
    )
    def test_rank_above_generic_raises(self, monkeypatch, parts, inflated, message):
        # A slice rank or a stacked rank reported one too high must be
        # refused, also under -O, on both elimination routes ([2,1] has 3
        # columns, [9,7] has 153).
        true_trial_ranks = oracle._trial_ranks

        def over_reporting(partition, seed, prime):
            slice_dims, rank_joint = true_trial_ranks(partition, seed, prime)
            extra_slice, extra_joint = inflated
            return slice_dims[:-1] + [slice_dims[-1] + extra_slice], rank_joint + extra_joint

        monkeypatch.setattr(oracle, "_trial_ranks", over_reporting)
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
        # At p = 2 the second trial of [2,1] has a slice of rank 3 of 8. Its
        # dim_IZ is 2m - rank_joint with m = 8 from the first trial, so it
        # does not fall below the generic 6.
        report = verify(Partition([2, 1]), prime=2, trials=3, base_seed=0)
        trials = secant_trials(Partition([2, 1]), 3, 0, prime=2)
        unlucky = trials[1]
        assert (unlucky.dim_IF, unlucky.dim_IZ) == (3, 6)
        assert report.trial_dim_IZ == tuple(t.dim_IZ for t in trials) == (6, 6, 7)
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
