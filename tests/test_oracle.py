import itertools
import json
from dataclasses import replace
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secantlines.formulas import classify, hilbert_function_theory
import secantlines.oracle as oracle
from secantlines.field import is_prime
from secantlines.gfpoly import derive_seed, num_monomials
from secantlines.oracle import (
    SemicontinuityError,
    VERDICT_ABOVE,
    VERDICT_BELOW,
    VERDICT_MATCH,
    _blocked,
    _Diverged,
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
    tangent_slice,
    verify,
)
from secantlines.partitions import Partition, derived, enumerate_partitions

P = 1_000_003
SEED = 1234


def hilbert(partition, seed):
    """Measured Hilbert function j = 0..d at one random point."""
    dims = _trial_ranks(partition, [seed], P)[0][0]
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
# Column counts within one leaf window and across several; the prime, not
# the width, picks the route (the kernel at 7 and P, `_eliminate` at
# 2**31 - 1).
COLS_BOTH_ROUTES = st.one_of(st.integers(1, 3 * LEAF), st.integers(66, 106))


def largest_blocked_prime(n_cols):
    """The largest prime at which `_blocked` admits `n_cols` columns."""
    prime = isqrt(2**53 // max(n_cols, LEAF)) + 1
    assert not _blocked(n_cols, prime)
    while not (_blocked(n_cols, prime) and is_prime(prime)):
        prime -= 1
    return prime


def stack(*matrices):
    """Integer matrices of one shape as the kernel's float64 stack."""
    return np.stack(matrices).astype(np.float64)


class TestBlockedElimination:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS,
        n_cols=st.integers(1, 3 * WINDOW + 10),
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
        pivots, tail, independent = _rref(stack(a), modulus)
        assert pivots.size == independent.size == want == _rank(stack(a), modulus)
        assert tail.shape == (1, want, n_cols - want)
        (tail,) = tail
        # The tail holds balanced residues of the reduced row echelon form,
        # which `_eliminate` gives in [0, modulus).
        assert ((tail == np.rint(tail)) & (np.abs(tail) <= modulus / 2 + 1)).all()
        work = a % modulus
        rows, cols = _eliminate(work, modulus)
        free = np.delete(np.arange(n_cols), cols)
        reference = {c: [-int(v) % modulus for v in work[i, free]] for i, c in zip(rows, cols)}
        assert {int(c): [int(v) % modulus for v in t] for c, t in zip(pivots, tail)} == reference
        # Every row of `a` lies in the span of the basis.
        assert not _reduce(pivots, tail[None], stack(a), modulus).any()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS,
        n_cols=st.integers(1, 3 * WINDOW + 10),
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
        independent = _rref(stack(a), modulus)[2]
        assert independent.tolist() == column_loop_pivots(a.T, modulus)
        for k in range(n_rows + 1):
            assert np.searchsorted(independent, k) == rank(a[:k], modulus)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=st.integers(1, 3 * LEAF),
        lead=st.integers(0, 2 * WINDOW + 3),
        width=st.integers(WINDOW + 1, 4 * WINDOW),
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
        pivots, tail, independent = _rref(stack(a), modulus)
        assert independent.tolist() == want
        assert _rank(stack(a), modulus) == len(want)
        assert not _reduce(pivots, tail, stack(a), modulus).any()

    def test_largest_blocked_prime_matches_the_int64_route(self, monkeypatch):
        # At the largest prime the kernel takes for [9,7]'s 153 columns its
        # sums come closest to 2**52; the trials must equal those of the
        # int64 route.
        partition = Partition([9, 7])
        prime = largest_blocked_prime(num_monomials(partition.d))
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
        n_cols=st.sampled_from([8, 66, 86]),
        r=st.integers(0, 3 * LEAF),
        modulus=st.sampled_from([2, 7, P]),
    )
    def test_pair_ranks_match_separate_ranks(self, seed, n_rows, n_cols, r, modulus):
        # `_pair_ranks` is the kernel's, so it is checked at primes the
        # kernel admits; `test_guard_falls_back_at_largest_prime` covers the
        # int64 route of a trial.
        f = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        g = low_rank(seed + 1, n_rows + 3, n_cols, min(r, n_cols), modulus, staircase=True)
        g[:n_rows:2] = f[::2]  # so that the row spaces meet
        independent, rank_joint = _pair_ranks(iter([stack(f), stack(g)]), modulus)
        assert independent.tolist() == column_loop_pivots(f.T, modulus)
        assert (independent.size, rank_joint) == (rank(f, modulus), rank(np.vstack([f, g]), modulus))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=st.integers(1, 3 * LEAF),
        n_cols=st.integers(1, 3 * WINDOW),
        member_ranks=st.lists(st.integers(0, 3 * LEAF), min_size=2, max_size=4),
        equivalent=st.booleans(),
        modulus=st.sampled_from([2, 3, 7, P]),
    )
    def test_stack_matches_each_matrix_alone(
        self, seed, n_rows, n_cols, member_ranks, equivalent, modulus
    ):
        # A stack shares one elimination only while its matrices agree on
        # every decision. Independent members of other ranks, zero members
        # (rank 0) and small primes make it diverge, and then it must raise
        # `_Diverged`, never return a profile that is wrong for one of its
        # matrices. Members a @ U, for unit upper triangular U, reduce to
        # the reduced rows of a times U at every step, so they agree on
        # every decision and must share one elimination.
        rng = np.random.default_rng(seed)
        a = low_rank(seed, n_rows, n_cols, min(member_ranks[0], n_cols), modulus, staircase=True)
        members = [a]
        for b, r in enumerate(member_ranks[1:], 1):
            if equivalent:
                u = np.triu(rng.integers(0, modulus, (n_cols, n_cols)), 1)
                members.append(a @ (u + np.eye(n_cols, dtype=np.int64)) % modulus)
            else:
                r = min(r, n_cols)
                members.append(low_rank(seed + b, n_rows, n_cols, r, modulus, staircase=True))
        alone = [_rref(stack(m), modulus) for m in members]
        try:
            pivots, tail, independent = _rref(stack(*members), modulus)
        except _Diverged:
            assert not equivalent
        else:
            for b, (pivots_b, tail_b, independent_b) in enumerate(alone):
                assert pivots.tolist() == pivots_b.tolist()
                assert independent.tolist() == independent_b.tolist()
                assert not ((tail[b] - tail_b[0]) % modulus).any()
        try:
            shared_rank = _rank(stack(*members), modulus)
        except _Diverged:
            assert not equivalent
        else:
            assert all(shared_rank == result[0].size for result in alone)

    @pytest.mark.parametrize("modulus", [2, 3, 7, P])
    def test_disagreeing_stacks_diverge(self, modulus):
        # A zero member, a member whose first row alone is zero, and a row
        # that is zero on the first window in one member but not in the
        # other: the last pair would agree on every later decision and on
        # the rank, yet their pivot columns differ (35 against 0).
        a = low_rank(SEED, 2 * LEAF + 5, 40, 20, modulus)
        assert _rref(stack(a, a), modulus)[0].size == _rref(stack(a), modulus)[0].size > 0
        first_row_zero = a.copy()
        first_row_zero[0] = 0
        late, early = np.zeros((2, 1, 40), dtype=np.int64)
        late[0, WINDOW + 3] = early[0, WINDOW + 3] = early[0, 0] = 1
        pairs = [(a, np.zeros_like(a)), (np.zeros_like(a), a), (a, a, first_row_zero), (late, early)]
        for members in pairs:
            with pytest.raises(_Diverged):
                _rref(stack(*members), modulus)

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
        # Every width takes the kernel at P, the degree-10 slices' 66
        # columns included; widths below LEAF_ROWS are bounded as LEAF_ROWS
        # columns, since a leaf's window transform sums that many terms.
        assert _blocked(1, P) and _blocked(66, P) and _blocked(67, P)
        assert _blocked(9007, P) and not _blocked(9008, P)  # the 2**52 bound
        assert not _blocked(67, 2**31 - 1)
        prime = largest_blocked_prime(LEAF)
        assert largest_blocked_prime(1) == prime < 2**24
        assert all(_blocked(width, prime) for width in range(1, LEAF + 1))
        assert not _blocked(LEAF + 1, prime)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=st.integers(LEAF, 3 * LEAF + 3),
        n_cols=st.integers(1, LEAF - 1),
        r=st.integers(0, LEAF),
        zero_cols=st.integers(0, 2),
    )
    def test_narrow_kernel_at_largest_prime_matches_int64_profile(
        self, seed, n_rows, n_cols, r, zero_cols
    ):
        # Below LEAF_ROWS columns the leaf's sums still run over up to
        # LEAF_ROWS rows, so `_blocked` bounds them as LEAF_ROWS columns;
        # at the largest prime it then admits, the kernel stays exact.
        modulus = largest_blocked_prime(n_cols)
        a = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, zero_cols, staircase=True)
        pivots, tail, independent = _rref(stack(a), modulus)
        want_rows, want_cols = _eliminate(a % modulus, modulus)
        assert independent.tolist() == want_rows
        assert sorted(pivots.tolist()) == sorted(want_cols)
        assert _rank(stack(a), modulus) == len(want_rows)

    def test_guard_falls_back_at_largest_prime(self):
        # Float64 products of entries near 2**31 are inexact, so wide slices
        # at this prime must take the int64 route, joint rank included.
        prime = 2**31 - 1
        partition = Partition([9, 7])
        (trial,) = secant_trials(partition, 1, SEED, prime=prime)
        f, g = (
            tangent_slice(_draw_cofactors(partition, [derive_seed(trial.seed, k)], prime), 16)[0]
            for k in (0, 1)
        )
        assert f.shape[1] == 153
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
        (matrix,) = tangent_slice(_draw_cofactors(Partition(parts), [SEED], P), j)
        assert matrix.shape == shape


SMALL_PARTITIONS = [p.parts for p in enumerate_partitions(12)]


def slice_dims_one_degree_at_a_time(partition, seed, prime):
    """The Hilbert loop that one elimination replaced: rank the tangent slice
    of every degree j = 0..d separately, at the same point."""
    cofactors = _draw_cofactors(partition, [seed], prime)
    return [rank(tangent_slice(cofactors, j)[0], prime) for j in range(partition.d + 1)]


class TestSliceDimensions:
    @settings(max_examples=60, deadline=None)
    @given(
        # Every slice ([9,7] and [14,10,6] at 153 and 496 columns included)
        # takes the blocked kernel at p = 7 and p = P, and `_eliminate` at
        # p = 2**31 - 1.
        parts=st.one_of(st.sampled_from(SMALL_PARTITIONS), st.sampled_from([(9, 7), (14, 10, 6)])),
        seed=st.integers(0, 2**32),
        prime=PRIMES,
    )
    def test_one_elimination_gives_every_degree(self, parts, seed, prime):
        # p = 7 makes non-generic draws common, and the identity holds for
        # those too.
        partition = Partition(parts)
        want = slice_dims_one_degree_at_a_time(partition, derive_seed(seed, 0), prime)
        assert _trial_ranks(partition, [seed], prime)[0][0] == want

    @pytest.mark.parametrize(
        "parts, j, want",
        [([1, 1], 2, 5), ([2, 1], 3, 8), ([1, 1, 1], 3, 7)],
    )
    def test_examples(self, parts, j, want):
        assert _trial_ranks(Partition(parts), [SEED], P)[0][0][j] == want

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
        a, b = (
            tangent_slice(_draw_cofactors(partition, [derive_seed(77, k)], P), partition.d)[0]
            for k in (0, 1)
        )
        rank_a, rank_b = rank(a, P), rank(b, P)
        rank_joint = rank(np.vstack([a, b]), P)
        complements = np.vstack([nullspace(a, P), nullspace(b, P)])
        dim_intersection = a.shape[1] - rank(complements, P)
        assert rank_joint == rank_a + rank_b - dim_intersection
        assert dim_intersection == classify(partition).dim_IZ

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
        [([5, 3], P, True), ([9, 7], P, True), ([9, 7], 2**31 - 1, False)],
        # The first id dates from when [5,3]'s 45 columns took the int64
        # route at P; with no width floor it takes the kernel.
        ids=["parts0-1000003-False", "parts1-1000003-True", "parts2-2147483647-False"],
    )
    def test_trial_matches_separate_eliminations(self, parts, prime, blocked):
        # One elimination per trial, or per stack of trials, gives F's slice
        # dimensions for every j, rank F and the stacked rank; each must
        # equal its own elimination, on both routes. Float64 products of
        # entries near 2**31 are inexact, so [9,7] (153 columns) must take
        # the int64 route at that prime.
        partition = Partition(parts)
        for trial in secant_trials(partition, 2, SEED, prime=prime):
            f, g = (
                tangent_slice(
                    _draw_cofactors(partition, [derive_seed(trial.seed, k)], prime), partition.d
                )[0]
                for k in (0, 1)
            )
            assert _blocked(f.shape[1], prime) == blocked
            assert trial.dim_IF == rank(f, prime)
            assert trial.rank_joint == rank(np.vstack([f, g]), prime)
            assert list(trial.slice_dims) == slice_dims_one_degree_at_a_time(
                partition, derive_seed(trial.seed, 0), prime
            )

    @pytest.mark.parametrize("prime", [2, 3, 7, P])
    @pytest.mark.parametrize("parts", [[2, 1], [5, 3], [4, 3, 2, 1], [9, 7]])
    def test_trials_agree_whatever_the_batch_size(self, monkeypatch, parts, prime):
        # Each trial keeps its own seed stream, so the first trials of runs
        # of 1, 3 and 5 trials are the same trials, measured in stacks of
        # 1, 3 and 5, or one at a time when no stack fits BATCH_CELLS. At the
        # small primes every stack here diverges and re-runs one trial at a
        # time; at P each is one elimination.
        partition = Partition(parts)
        stack_sizes = []
        true_pair_ranks = oracle._pair_ranks

        def recording(slices, modulus):
            first = next(slices)
            stack_sizes.append(len(first))
            return true_pair_ranks(itertools.chain([first], slices), modulus)

        def measured(trials):
            stack_sizes.clear()
            got = secant_trials(partition, trials, SEED, prime=prime)
            return [(t.slice_dims, t.rank_joint) for t in got], list(stack_sizes)

        monkeypatch.setattr(oracle, "_pair_ranks", recording)
        runs = {trials: measured(trials) for trials in (1, 3, 5)}
        monkeypatch.setattr(oracle, "BATCH_CELLS", 0)
        alone, sizes_alone = measured(5)
        assert sizes_alone == [1] * 5
        for trials, (got, sizes) in runs.items():
            assert got == alone[:trials]
            assert sizes == ([trials] if prime == P or trials == 1 else [trials] + [1] * trials)

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

        def over_reporting(partition, seeds, prime):
            extra_slice, extra_joint = inflated
            return [
                (slice_dims[:-1] + [slice_dims[-1] + extra_slice], rank_joint + extra_joint)
                for slice_dims, rank_joint in true_trial_ranks(partition, seeds, prime)
            ]

        monkeypatch.setattr(oracle, "_trial_ranks", over_reporting)
        with pytest.raises(SemicontinuityError, match=message):
            secant_trials(Partition(parts), 1, SEED, prime=P)


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
        assert report.predicted["dim_sigma2"] == classify(p).dim_sigma2
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
