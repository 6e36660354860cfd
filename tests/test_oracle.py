import json
import tracemalloc
from dataclasses import replace
from itertools import count, groupby, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secantlines.formulas import DerivationMismatchError, classify, hilbert_function_theory
import secantlines.oracle as oracle
from secantlines.field import DEFAULT_SEED, is_prime
from secantlines.gfpoly import derive_seed, multiply, num_monomials, random_form
from secantlines.oracle import (
    SemicontinuityError,
    VERDICT_BELOW,
    VERDICT_MATCH,
    _Slice,
    _blocked,
    _ceilings,
    _draw_cofactors,
    _free_columns,
    _hilbert_order,
    _largest_prime,
    _mod,
    _monomial_trial,
    _rank,
    _reduce,
    _rref,
    _trial,
    check_prime,
    tangent_slice,
    verify,
)
from secantlines.partitions import Partition, enumerate_partitions

from reference import eliminate, exponents, monomial, monomial_multiples, nullspace, rank

P = 1_000_003
SEED = 1234


def hilbert(partition, seed):
    """Measured Hilbert function j = 0..d at one random point."""
    dims, _ = _trial(partition, seed, P, *_hilbert_order(partition))
    return [num_monomials(j) - dim for j, dim in enumerate(dims)]


def route(partition):
    """The trial `verify` runs for this partition: the monomial first point
    for r <= 3, two drawn points otherwise."""
    return _monomial_trial if partition.r <= 3 else _trial


def sigma2(partition, trials, seed):
    return verify(partition, prime=P, trials=trials, base_seed=seed).measured["dim_sigma2"]


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


# A small prime, the default one, and the largest prime the kernel admits
# for the matrix at hand, where its sums come closest to 2**52 (`at_width`).
LARGEST = "largest"
PRIMES = st.sampled_from([7, P, LARGEST])
LEAF = oracle.LEAF_ROWS
WINDOW = oracle.LEAF_WINDOW
ROWS = st.integers(1, 4 * LEAF + 3)
# Column counts within one leaf window and across several.
COLS = st.one_of(st.integers(1, 3 * LEAF), st.integers(66, 106))


def at_width(modulus, n_cols):
    """A drawn PRIMES value as a prime: LARGEST is the largest prime at which
    `_blocked` admits `n_cols` columns."""
    return _largest_prime(n_cols) if modulus == LARGEST else modulus


def floats(a):
    """An integer matrix as the kernel's float64 input."""
    return np.asarray(a, dtype=np.float64)


def assert_basis_matches_eliminate(a, modulus, pivots, tail):
    """The kernel's basis (pivots, tail) of the rows of `a` against the
    reference `eliminate`, and every row of `a` in its span."""
    # The tail holds balanced residues of the reduced row echelon form,
    # which the reference `eliminate` gives in [0, modulus).
    assert ((tail == np.rint(tail)) & (np.abs(tail) <= modulus / 2 + 1)).all()
    work = a % modulus
    rows, cols = eliminate(work, modulus)
    free = np.delete(np.arange(a.shape[1]), cols)
    reference = {c: [-int(v) % modulus for v in work[i, free]] for i, c in zip(rows, cols)}
    assert {int(c): [int(v) % modulus for v in t] for c, t in zip(pivots, tail)} == reference
    assert not _reduce(pivots, tail, floats(a), modulus).any()


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
        modulus = at_width(modulus, n_cols)
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
        pivots, tail, independent = _rref(floats(a), modulus)
        profile = _rank(floats(a), modulus)
        assert pivots.size == independent.size == want == profile.size
        # `_rank` returns the row rank profile that `_rref` and the int64
        # reference find.
        assert profile.tolist() == independent.tolist() == eliminate(a % modulus, modulus)[0]
        assert tail.shape == (want, n_cols - want)
        assert_basis_matches_eliminate(a, modulus, pivots, tail)

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
        independent = _rref(floats(a), modulus)[2]
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
        pivots, tail, independent = _rref(floats(a), modulus)
        assert independent.tolist() == want
        assert _rank(floats(a), modulus).tolist() == want
        assert not _reduce(pivots, tail, floats(a), modulus).any()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=st.integers(1, 2 * LEAF),
        lead=st.integers(0, WINDOW + 3),
        windows=st.integers(0, 1),
        width=st.integers(WINDOW + 1, 2 * WINDOW),
        r=st.integers(0, 2 * LEAF),
        modulus=PRIMES,
    )
    def test_wide_last_window_matches_column_loop(
        self, seed, n_rows, lead, windows, width, r, modulus
    ):
        # From a window start with LEAF_WINDOW + 1 to 2 LEAF_WINDOW columns
        # left, a leaf takes them all in one window with no identity block:
        # right after `lead` zero columns, or after one ordinary window.
        n_cols = lead + windows * WINDOW + width
        modulus = at_width(modulus, n_cols)
        a = low_rank(seed, n_rows, n_cols, min(r, n_rows, n_cols), modulus, lead, staircase=True)
        pivots, tail, independent = _rref(floats(a), modulus)
        assert independent.tolist() == column_loop_pivots(a.T, modulus)
        assert _rank(floats(a), modulus).tolist() == independent.tolist()
        assert_basis_matches_eliminate(a, modulus, pivots, tail)

    @pytest.mark.parametrize("n_cols", [LEAF, 3 * WINDOW + 5])
    @pytest.mark.parametrize("modulus", [2, 3, LARGEST])
    def test_int64_window_headroom(self, modulus, n_cols):
        # `_mod`'s int64 bound on a leaf window, where it is tightest: a leaf
        # of LEAF_ROWS rows with every entry p - 1 but a zero diagonal, so
        # its first window takes LEAF_ROWS pivots, at the largest prime
        # `_blocked` admits for the width (`_largest_prime(LEAF_ROWS)` on
        # LEAF_ROWS columns) and at p = 2 and 3. det(J - I) = -31 is a unit
        # mod each of them. An int32 block fails here.
        modulus = at_width(modulus, n_cols)
        a = np.full((LEAF, n_cols), modulus - 1, dtype=np.int64)
        np.fill_diagonal(a, 0)
        pivots, tail, independent = _rref(floats(a), modulus)
        assert independent.tolist() == list(range(LEAF))
        assert sorted(pivots.tolist()) == list(range(LEAF))
        assert_basis_matches_eliminate(a, modulus, pivots, tail)

    def test_largest_blocked_prime_matches_the_int64_route(self):
        # At the largest prime the kernel takes for [9,7]'s 153 columns its
        # sums come closest to 2**52; each trial must equal the int64
        # reference `eliminate` on F's slice, in Hilbert order, stacked over
        # G's: the stacked rank is its rank, and F's slice dimensions the
        # counts of its profile within each prefix of F's rows.
        partition = Partition([9, 7])
        prime = _largest_prime(num_monomials(partition.d))
        hilbert_rows, counts = _hilbert_order(partition)
        seeds = [derive_seed(SEED, t) for t in range(2)]
        for seed in seeds:
            slice_dims, rank_joint = _trial(partition, seed, prime, hilbert_rows, counts)
            f, g = (
                tangent_slice(_draw_cofactors(partition, derive_seed(seed, k), prime), 16, rows)
                for k, rows in ((0, hilbert_rows), (1, None))
            )
            independent = eliminate(np.vstack([f, g]).astype(np.int64), prime)[0]
            assert rank_joint == len(independent)
            assert slice_dims == np.searchsorted(independent, counts).tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rows=ROWS,
        n_cols=COLS,
        r=st.integers(0, 3 * LEAF),
        modulus=PRIMES,
    )
    def test_independent_rows_count_every_prefix_rank(self, seed, n_rows, n_cols, r, modulus):
        # The reference's profile against the column loop, and every prefix
        # count against the kernel's rank.
        modulus = at_width(modulus, n_cols)
        a = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        independent = np.array(eliminate(a % modulus, modulus)[0], dtype=np.int64)
        assert independent.tolist() == column_loop_pivots(a.T, modulus)
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
        # The kernel as `_trial` runs it: one profile of F stacked over G,
        # whose first halving falls on the boundary between them. F's
        # profile is its part within F's rows, and the stacked rank its
        # size; `test_largest_blocked_prime_matches_the_int64_route` checks
        # whole trials at the largest prime it admits.
        f = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        g = low_rank(seed + 1, n_rows, n_cols, min(r, n_cols), modulus, staircase=True)
        g[::2] = f[::2]  # so that the row spaces meet
        stacked = np.vstack([f, g])
        profile = _rank(floats(stacked), modulus)
        independent = profile[profile < n_rows]
        assert profile.tolist() == eliminate(stacked % modulus, modulus)[0]
        assert independent.tolist() == column_loop_pivots(f.T, modulus)
        assert (independent.size, profile.size) == (rank(f, modulus), rank(stacked, modulus))

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
        prime = _largest_prime(LEAF)
        assert _largest_prime(1) == prime < 2**24
        assert all(_blocked(width, prime) for width in range(1, LEAF + 1))
        assert not _blocked(LEAF + 1, prime)
        # Each is the largest: a prime the kernel admits, with no prime
        # between it and the first modulus rejected (`_blocked` is monotone
        # in the modulus).
        for width in (1, LEAF, 153, 861, 9007):
            largest = _largest_prime(width)
            assert is_prime(largest) and _blocked(width, largest)
            rejected = next(q for q in count(largest) if not _blocked(width, q))
            assert not any(map(is_prime, range(largest + 1, rejected + 1)))

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
        modulus = _largest_prime(n_cols)
        a = low_rank(seed, n_rows, n_cols, min(r, n_cols), modulus, zero_cols, staircase=True)
        pivots, tail, independent = _rref(floats(a), modulus)
        want_rows, want_cols = eliminate(a % modulus, modulus)
        assert independent.tolist() == want_rows
        assert sorted(pivots.tolist()) == sorted(want_cols)
        assert _rank(floats(a), modulus).tolist() == want_rows

    def test_prime_above_the_kernel_limit_is_rejected(self):
        # Float64 products of entries near 2**31 are inexact, so [9,7]'s 153
        # columns at that prime are an error naming the largest prime the
        # kernel admits there; at that prime [9,7] is certified.
        partition = Partition([9, 7])
        with pytest.raises(ValueError, match="admits primes up to 7672711 on its 153 columns"):
            verify(partition, prime=2**31 - 1, trials=1, base_seed=SEED)
        assert verify(partition, prime=7_672_711).certified

    def test_bad_prime_and_cap_are_refused_before_any_prediction(self, monkeypatch):
        # The Hilbert function prediction takes d + 1 calls, so a prime or a
        # cap that fails must fail first: at d = 10**6 the default prime is
        # past the kernel's bound.
        def unreachable(*args):
            raise AssertionError("a prediction was built")

        monkeypatch.setattr(oracle, "hilbert_function_theory", unreachable)
        partition = Partition([10**6, 1])
        with pytest.raises(ValueError, match="too large for degree 1000001"):
            verify(partition)
        with pytest.raises(ValueError, match="need at least one trial"):
            verify(partition, trials=0)

    @pytest.mark.parametrize(
        "d, largest",
        [
            (16, 7_672_711),
            (40, 3_234_383),
            (132, 1_005_373),
            (133, 997_897),
            (47_453_131, 3),
            (47_453_132, None),
        ],
    )
    def test_check_prime_names_the_largest_admitted_prime(self, d, largest):
        # Degrees 132 and 133 bracket the default prime: the kernel takes it
        # on 8,911 columns, not on 9,045. At p = 2 and p = 3 alike M * h = 4,
        # so past degree 47,453,131 it admits no prime, and says so rather
        # than search below 2.
        if largest:
            check_prime(d, largest)
        above = next(q for q in count((largest or 1) + 1) if is_prime(q))
        admitted = f"primes up to {largest}" if largest else "no prime"
        columns = num_monomials(d)
        with pytest.raises(ValueError, match=f"degree {d}: .* admits {admitted} on its {columns} columns"):
            check_prime(d, above)


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
        matrix = tangent_slice(_draw_cofactors(Partition(parts), SEED, P), j)
        assert matrix.shape == shape


class TestBlocks:
    # Slices are built, and reduced, a block of rows at a time; a block edge
    # can fall inside a cofactor's rows or between two cofactors.
    def test_row_ranges_concatenate_to_the_slice(self):
        for partition in enumerate_partitions(9):
            cofactors = _draw_cofactors(partition, SEED, P)
            d, hilbert_rows = partition.d, _hilbert_order(partition)[0]
            for j, rows in ((d, hilbert_rows), (d, None), (d - 1, None)):
                whole = tangent_slice(cofactors, j, rows)
                if rows is None:
                    rows = np.arange(len(whole))
                pieces = [
                    tangent_slice(cofactors, j, rows[start : start + 7])
                    for start in range(0, len(whole), 7)
                ]
                np.testing.assert_array_equal(np.vstack([whole[:0], *pieces]), whole)

    def test_chosen_rows_are_those_rows_of_the_slice(self):
        # Row k is block row rows[k], for the Hilbert order, any run of it
        # and any permutation, built directly and through a `_Slice` run.
        generator = np.random.default_rng(SEED)
        for partition in enumerate_partitions(9):
            cofactors = _draw_cofactors(partition, SEED, P)
            d, hilbert_rows = partition.d, _hilbert_order(partition)[0]
            whole = tangent_slice(cofactors, d)
            start, stop = sorted(generator.integers(0, len(whole) + 1, 2))
            for rows in (hilbert_rows, hilbert_rows[start:stop], generator.permutation(len(whole))):
                np.testing.assert_array_equal(tangent_slice(cofactors, d, rows), whole[rows])
                a, b = sorted(generator.integers(0, rows.size + 1, 2))
                lazy = _Slice(cofactors, d, rows)[a:b]
                assert lazy.shape == (b - a, whole.shape[1])
                np.testing.assert_array_equal(np.asarray(lazy), tangent_slice(cofactors, d, rows[a:b]))

    def test_selected_columns_are_the_slice_s_columns(self):
        # Any set of columns, in any order, of any run of rows, built
        # directly and lazily, is those columns of the whole slice.
        generator = np.random.default_rng(SEED)
        for partition in enumerate_partitions(9):
            cofactors = _draw_cofactors(partition, SEED, P)
            d, hilbert_rows = partition.d, _hilbert_order(partition)[0]
            whole = tangent_slice(cofactors, d, hilbert_rows)
            for size in (0, 1, whole.shape[1] // 2, whole.shape[1]):
                columns = generator.permutation(whole.shape[1])[:size]
                start, stop = sorted(generator.integers(0, len(whole) + 1, 2))
                want = whole[start:stop, columns]
                got = tangent_slice(cofactors, d, hilbert_rows[start:stop], columns)
                np.testing.assert_array_equal(got, want)
                lazy = _Slice(cofactors, d, hilbert_rows, columns)[start:stop]
                assert lazy.shape == want.shape
                np.testing.assert_array_equal(np.asarray(lazy), want)

    @pytest.mark.parametrize("share", [oracle.TAIL_SHARE, 1.0])
    def test_block_edges_lose_no_row(self, monkeypatch, share):
        # With 7-row blocks every slice of more than LEAF_ROWS rows is
        # eliminated in halves, a run of at most LEAF_ROWS rows is built whole
        # as a leaf, and `_reduce` builds and reduces blocks of 7 rows, or, at
        # a full tail share, of as many rows as each tail sets.
        trials = [
            (partition, derive_seed(SEED, t), *_hilbert_order(partition))
            for partition in enumerate_partitions(9)
            for t in range(2)
        ]
        want = [_trial(partition, seed, P, rows, counts) for partition, seed, rows, counts in trials]
        monkeypatch.setattr(oracle, "BLOCK_ROWS", 7)
        monkeypatch.setattr(oracle, "TAIL_SHARE", share)
        assert [_trial(partition, seed, P, rows, counts) for partition, seed, rows, counts in trials] == want

    def test_lazy_and_built_slices_give_the_same_arrays(self, monkeypatch):
        # F's slice read through a `_Slice` in 7-row blocks, and G's reduced
        # against its basis the same way, against both slices built whole.
        cases = []
        for partition in enumerate_partitions(9):
            d, (rows, _) = partition.d, _hilbert_order(partition)
            f, g = (_draw_cofactors(partition, derive_seed(SEED, k), P) for k in (0, 1))
            basis = _rref(tangent_slice(f, d, rows), P)
            want = _reduce(*basis[:2], tangent_slice(g, d), P)
            cases.append((d, rows, f, g, basis, want))
        monkeypatch.setattr(oracle, "BLOCK_ROWS", 7)
        for d, rows, f, g, basis, want in cases:
            lazy = _rref(_Slice(f, d, rows), P)
            for got, expected in zip(lazy, basis):
                np.testing.assert_array_equal(got, expected)
            block_rows = np.arange(rows.size)
            residual = _reduce(*basis[:2], _Slice(g, d, block_rows), P)
            np.testing.assert_array_equal(residual, want)
            # `_rank` reads a lazy slice, on selected columns, leaves included.
            columns = _free_columns(partition) if partition.r <= 3 else None
            built = tangent_slice(g, d, columns=columns)
            assert _rank(_Slice(g, d, block_rows, columns), P).size == rank(built, P)

    def widths_built_once(self, monkeypatch, partition, points):
        """Run `verify` and check that each trial builds each row of its one
        slice, `points` points' slices stacked, once, in runs of at most
        BLOCK_ROWS; return the set of widths built (None for every column).
        At d = 40 (861 columns) every block has BLOCK_ROWS rows, so a block
        row built twice, or a slice built whole, shows here."""
        n_rows = sum(num_monomials(di) for di in partition.parts)
        calls = []

        def recording(cofactors, j, rows=None, columns=None):
            # Holding each point's cofactors keeps their ids distinct.
            calls.append((cofactors, j, rows, columns))
            return tangent_slice(cofactors, j, rows, columns)

        monkeypatch.setattr(oracle, "tangent_slice", recording)
        report = verify(partition)
        groups = [list(group) for _, group in groupby(calls, key=lambda call: id(call[0]))]
        assert len(groups) == len(report.seeds)
        for trial in groups:
            assert {j for _, j, _, _ in trial} == {partition.d}
            built = np.concatenate([rows for _, _, rows, _ in trial])
            np.testing.assert_array_equal(np.sort(built), np.arange(points * n_rows))
            assert max(rows.size for _, _, rows, _ in trial) <= oracle.BLOCK_ROWS
        return {None if columns is None else columns.size for *_, columns in calls}

    def test_every_slice_row_is_built_once_a_block_at_a_time(self, monkeypatch):
        # With r <= 3 only G's slice is built, on the D columns F's misses.
        partition = Partition([25, 15])
        assert self.widths_built_once(monkeypatch, partition, 1) == {classify(partition).D}

    def test_both_drawn_points_build_each_row_once_a_block_at_a_time(self, monkeypatch):
        # With r >= 4 both points' slices are built, stacked in one slice of
        # 2n rows, on every column.
        assert self.widths_built_once(monkeypatch, Partition([10, 10, 10, 10]), 2) == {None}

    @staticmethod
    def traced_peak(partition, n_rows, n_cols):
        """The traced peak of a whole verify, as a share of one degree-d
        tangent slice of n_rows float64 rows of n_cols columns. tracemalloc
        counts numpy's arrays the same way on every run, where peak RSS
        moves with the allocator's layout."""
        slice_bytes = 8 * num_monomials(partition.d) * sum(num_monomials(di) for di in partition.parts)
        assert slice_bytes == 8 * n_rows * n_cols
        tracemalloc.start()
        try:
            assert verify(partition).certified
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / slice_bytes

    def test_verify_holds_at_most_two_and_a_quarter_slices(self):
        # [30,20,10]'s degree-60 slice: 793 rows of 1,891 columns (11.4 MiB).
        # It read 1.67 slices with two drawn points, 0.62 on the monomial one.
        assert self.traced_peak(Partition([30, 20, 10]), 793, 1891) <= 2.25

    def test_two_drawn_points_hold_at_most_two_and_a_quarter_slices(self):
        # [30,20,5,5]'s degree-60 slice: 769 rows of 1,891 columns (11.1 MiB);
        # it reads 1.70 slices.
        assert self.traced_peak(Partition([30, 20, 5, 5]), 769, 1891) <= 2.25

    @pytest.mark.slow
    def test_large_verify_holds_under_seven_tenths_of_a_slice(self):
        # [98,1,1]'s degree-100 slice: 4,956 rows of 5,151 columns
        # (194.8 MiB). It read 0.681 slices with two drawn points, 0.011 on
        # the monomial one.
        assert self.traced_peak(Partition([98, 1, 1]), 4956, 5151) <= 0.70

    @pytest.mark.slow
    def test_large_verify_with_two_drawn_points_holds_under_seven_tenths_of_a_slice(self):
        # [97,1,1,1]'s degree-100 slice: 4,860 rows of 5,151 columns
        # (191.0 MiB); it reads 0.699 slices (133.6 MiB), with both points'
        # cofactors held through the one stacked elimination.
        assert self.traced_peak(Partition([97, 1, 1, 1]), 4860, 5151) <= 0.70


SMALL_PARTITIONS = [p.parts for p in enumerate_partitions(12)]


def slice_dims_one_degree_at_a_time(partition, seed, prime):
    """The Hilbert loop that one elimination replaced: rank the tangent slice
    of every degree j = 0..d separately, at the same point."""
    cofactors = _draw_cofactors(partition, seed, prime)
    return [rank(tangent_slice(cofactors, j), prime) for j in range(partition.d + 1)]


class TestSliceDimensions:
    @settings(max_examples=60, deadline=None)
    @given(
        # Every slice, [9,7]'s and [14,10,6]'s 153 and 496 columns included,
        # at p = 7, p = P and the largest prime the kernel admits at degree d.
        parts=st.one_of(st.sampled_from(SMALL_PARTITIONS), st.sampled_from([(9, 7), (14, 10, 6)])),
        seed=st.integers(0, 2**32),
        prime=PRIMES,
    )
    def test_one_elimination_gives_every_degree(self, parts, seed, prime):
        # p = 7 makes non-generic draws common, and the identity holds for
        # those too.
        partition = Partition(parts)
        prime = at_width(prime, num_monomials(partition.d))
        want = slice_dims_one_degree_at_a_time(partition, derive_seed(seed, 0), prime)
        assert _trial(partition, seed, prime, *_hilbert_order(partition))[0] == want

    @pytest.mark.parametrize(
        "parts, j, want",
        [([1, 1], 2, 5), ([2, 1], 3, 8), ([1, 1, 1], 3, 7)],
    )
    def test_examples(self, parts, j, want):
        partition = Partition(parts)
        assert _trial(partition, SEED, P, *_hilbert_order(partition))[0][j] == want

    def test_hilbert_examples(self):
        assert hilbert(Partition([1, 1, 1]), SEED)[1] == 3
        assert hilbert(Partition([2, 1]), SEED)[0] == 1

    @pytest.mark.parametrize("parts", [[2, 1], [2, 2, 1], [3, 2]])
    def test_hilbert_stabilizes_at_point_count(self, parts):
        p = Partition(parts)
        q = classify(p)
        assert hilbert(p, SEED)[q.d] == q.D

    @pytest.mark.parametrize("parts", [[3, 2], [2, 2, 1], [1, 1, 1, 1]])
    def test_hilbert_matches_theory_all_degrees(self, parts):
        p = Partition(parts)
        assert hilbert(p, SEED) == [hilbert_function_theory(p, j) for j in range(p.d + 1)]

    @pytest.mark.parametrize("parts", [[3, 2], [2, 2, 1], [2, 1, 1, 1]])
    def test_hilbert_monotone_for_fixed_factors(self, parts):
        p = Partition(parts)
        q = classify(p)
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
        assert verify(Partition(parts), prime=P, trials=3, base_seed=SEED).measured["dim_IZ"] == want

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            verify(Partition([2, 1]), prime=P, trials=0, base_seed=SEED)

    @pytest.mark.parametrize("parts", [[2, 1], [2, 2, 1], [3, 1, 1]])
    def test_grassmann_identity_via_orthogonal_complements(self, parts):
        # Independent route: dim(U cap V) = ncols - rank([ker(A); ker(B)]).
        partition = Partition(parts)
        a, b = (
            tangent_slice(_draw_cofactors(partition, derive_seed(77, k), P), partition.d)
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
        report = verify(partition, prime=P, trials=3, base_seed=SEED)
        assert 1 <= len(report.seeds) <= 3
        assert list(report.seeds) == [derive_seed(SEED, k) for k in range(len(report.seeds))]
        trials = [route(partition)(partition, seed, P, *_hilbert_order(partition)) for seed in report.seeds]
        m = max(slice_dims[-1] for slice_dims, _ in trials)
        assert report.measured["dim_IF_d"] == m
        assert report.trial_dim_sigma2 == tuple(rank_joint - 1 for _, rank_joint in trials)
        assert report.trial_dim_IZ == tuple(2 * m - rank_joint for _, rank_joint in trials)

    @pytest.mark.parametrize(
        "parts, prime",
        [([5, 3], P), ([9, 7], P), ([9, 7], 7_672_711)],
        # The first id dates from when [5,3]'s 45 columns took the int64
        # route at P; every slice takes the kernel, [9,7]'s 153 columns up
        # to 7,672,711, the largest prime it admits there.
        ids=["parts0-1000003-False", "parts1-1000003-True", "parts2-7672711-True"],
    )
    def test_trial_matches_separate_eliminations(self, parts, prime):
        # One elimination per trial gives F's slice dimensions for every j,
        # rank F and the stacked rank; each must equal its own elimination.
        partition = Partition(parts)
        seeds = [derive_seed(SEED, k) for k in range(2)]
        for seed in seeds:
            slice_dims, rank_joint = _trial(partition, seed, prime, *_hilbert_order(partition))
            f, g = (
                tangent_slice(_draw_cofactors(partition, derive_seed(seed, k), prime), partition.d)
                for k in (0, 1)
            )
            assert _blocked(f.shape[1], prime)
            assert slice_dims[-1] == rank(f, prime)
            assert rank_joint == rank(np.vstack([f, g]), prime)
            assert slice_dims == slice_dims_one_degree_at_a_time(
                partition, derive_seed(seed, 0), prime
            )

    @pytest.mark.parametrize("prime", [2, 3, 7, P])
    @pytest.mark.parametrize("parts", [[2, 1], [5, 3], [4, 3, 2, 1], [9, 7]])
    def test_trials_agree_whatever_the_batch_size(self, parts, prime):
        # Trials stop at the first that reaches every ceiling, and that
        # changes no number of the record: at each cap N, `verify` must give
        # the measured values, predictions and verdict of all N trials, each
        # measured through the trial it runs (`route`), and list the seeds up
        # to the first certifying trial, or all N when none certifies. (The
        # name dates from when the N trials were eliminated as one stack.)
        partition = Partition(parts)
        report = classify(partition)
        predicted = {
            "dim_IF_d": report.dim_X + 1,
            "hilbert": [hilbert_function_theory(partition, j) for j in range(partition.d + 1)],
            "dim_sigma2": report.dim_sigma2,
            "dim_IZ": report.dim_IZ,
        }
        hilbert_rows, counts = _hilbert_order(partition)
        ceilings = _ceilings(partition, report, counts)
        seeds = [derive_seed(SEED, k) for k in range(5)]
        every = [route(partition)(partition, seed, prime, hilbert_rows, counts) for seed in seeds]
        for n in (1, 3, 5):
            trials = every[:n]
            slice_dims = [max(column) for column in zip(*(dims for dims, _ in trials))]
            m = slice_dims[-1]
            measured = {
                "dim_IF_d": m,
                "hilbert": [num_monomials(j) - dim for j, dim in enumerate(slice_dims)],
                "dim_sigma2": max(r for _, r in trials) - 1,
                "dim_IZ": min(2 * m - r for _, r in trials),
            }
            certifying = [k for k, (dims, r) in enumerate(trials) if [*dims, r] == ceilings]
            run = certifying[0] + 1 if certifying else n
            got = verify(partition, prime=prime, trials=n, base_seed=SEED)
            assert (got.measured, got.predicted) == (measured, predicted)
            assert got.verdict == (VERDICT_MATCH if measured == predicted else VERDICT_BELOW)
            assert got.trials == n
            assert got.seeds == tuple(seeds[:run])
            assert got.trial_dim_sigma2 == tuple(r - 1 for _, r in trials[:run])
            assert got.trial_dim_IZ == tuple(2 * m - r for _, r in trials[:run])
            assert got.certified == (measured == predicted)
            assert got.certified == ([*slice_dims, max(r for _, r in trials)] == ceilings)
            assert got.certified or not certifying

    @pytest.mark.parametrize(
        "parts, position, message",
        [
            ([2, 1], -2, "degree-3 slice rank 9 above its ceiling 8"),
            ([2, 1], -1, "stacked rank 11 above its ceiling 10"),
            ([9, 7], -2, "degree-16 slice rank 91 above its ceiling 90"),
            ([9, 7], -1, "stacked rank 154 above its ceiling 153"),
            ([2, 1], -3, "degree-2 slice rank 5 above its ceiling 4"),
            ([1, 1, 1, 1], -2, "degree-4 slice rank 10 above its ceiling 9"),
            ([1, 1, 1, 1], -1, "stacked rank 16 above its ceiling 15"),
            ([2, 1, 1, 1], -3, "degree-4 slice rank 7 above its ceiling 6"),
        ],
        ids=[
            "slice", "stacked", "slice-blocked", "stacked-blocked", "hilbert",
            "slice-drawn", "stacked-drawn", "hilbert-drawn",
        ],
    )
    def test_rank_above_generic_raises(self, monkeypatch, parts, position, message):
        # A slice rank of any degree or a stacked rank reported one above its
        # ceiling must be refused, also under -O, on both routes: r <= 3
        # takes the monomial first point, r >= 4 two drawn points. The first
        # ids date from when [2,1]'s 10 columns took the int64 route; both
        # take the kernel.
        shift_trial_ranks(monkeypatch, {position: 1})
        with pytest.raises(SemicontinuityError, match=message):
            verify(Partition(parts), prime=P, trials=1, base_seed=SEED)


def closed_form_counts(partition):
    """`_hilbert_order`'s row counts without its arrays: the rows of degree
    at most j from the cofactor of degree d - d_i are the monomial multiples
    of degree j - d + d_i, C(j - d + d_i + 2, 2) of them, for d_i >= d - j."""
    d = partition.d
    return [
        sum(comb(j - d + di + 2, 2) for di in partition.parts if di >= d - j)
        for j in range(d + 1)
    ]


def off_its_ceilings(partition, counts):
    """Whether some prediction for `partition` is not its ceiling: the slice
    ranks j < d against the Hilbert function, dim X + 1 against the degree-d
    slice rank and the point count D, and the stacked rank against
    dim sigma2 + 1 and, through 2m - rank_joint, dim_IZ."""
    report = classify(partition)
    *slices, top, joint = _ceilings(partition, report, counts)
    hilbert = [hilbert_function_theory(partition, j) for j in range(partition.d + 1)]
    return (
        [num_monomials(j) - h for j, h in enumerate(hilbert)] != [*slices, top]
        or top != report.dim_X + 1
        or hilbert[-1] != report.D
        or joint != report.dim_sigma2 + 1
        or 2 * top - joint != report.dim_IZ
    )


def shift_trial_ranks(monkeypatch, shifts):
    """Make every trial, on either route, report its ranks (its slices
    j = 0..d, then the stacked rank) moved by `shifts`, a map from position
    to amount."""

    def shifting(true_trial):
        def shifted(*args):
            slice_dims, rank_joint = true_trial(*args)
            ranks = [*slice_dims, rank_joint]
            for position, amount in shifts.items():
                ranks[position] += amount
            return ranks[:-1], ranks[-1]

        return shifted

    for name in ("_trial", "_monomial_trial"):
        monkeypatch.setattr(oracle, name, shifting(getattr(oracle, name)))


def partitions_off_their_ceilings(d_max):
    """Partitions with d <= d_max some prediction of which is not its
    ceiling, or whose `_hilbert_order` counts differ from their closed form."""
    off = []
    for partition in enumerate_partitions(d_max):
        counts = _hilbert_order(partition)[1]
        if counts.tolist() != closed_form_counts(partition) or off_its_ceilings(partition, counts):
            off.append(partition.parts)
    return off


# Parts up to 10**3; the second half is built with d1 >= s - 1, where the
# shared block and the defect live, which uniform parts rarely reach.
LARGE_PARTITIONS = st.one_of(
    st.lists(st.integers(1, 1000), min_size=2, max_size=6),
    st.lists(st.integers(1, 250), min_size=1, max_size=4).flatmap(
        lambda tail: st.integers(max(sum(tail) - 1, max(tail)), 1000).map(
            lambda d1: [d1, *tail]
        )
    ),
)


# The partitions whose two tangent slices share the block F'G' S_{d1-s}.
SHARED_BLOCK_PARTITIONS = [
    p.parts for p in enumerate_partitions(16) if p.parts[0] >= p.d - p.parts[0]
]


class TestCeilings:
    # Every prediction equals its a priori ceiling, so a trial that reaches
    # every ceiling proves the whole record.
    def test_ceiling_gap_is_2p_minus_3s(self):
        # `_ceilings`: (N + 1) - (2(dim X + 1) - C(d1 - s + 2, 2)) = 2p - 3s,
        # with d = d1 + s, D = d1 s + p and dim X + 1 = C(d + 2, 2) - D. Both
        # sides are polynomials of degree at most 2 in each of d1, s and p
        # (C(k + 2, 2) = num_monomials(k) for k >= -2), so agreeing on the
        # grid {0, 1, 2}^3 makes them equal everywhere.
        for d1, s, p in product(range(3), repeat=3):
            top = num_monomials(d1 + s)
            dim_X_plus_1 = top - (d1 * s + p)
            assert top - (2 * dim_X_plus_1 - num_monomials(d1 - s)) == 2 * p - 3 * s

    def test_predictions_sit_on_their_ceilings(self):
        assert partitions_off_their_ceilings(24) == []

    @settings(max_examples=30, deadline=None)
    @given(parts=LARGE_PARTITIONS)
    def test_predictions_sit_on_their_ceilings_for_large_parts(self, parts):
        # Closed forms only, no matrix: the identity under `_ceilings` and
        # the Hilbert counts hold for every d, not just where a sweep reaches.
        partition = Partition(parts)
        assert not off_its_ceilings(partition, closed_form_counts(partition))

    @pytest.mark.slow
    def test_predictions_sit_on_their_ceilings_to_degree_40(self):
        assert partitions_off_their_ceilings(40) == []

    @settings(max_examples=40, deadline=None)
    @given(parts=st.sampled_from(SHARED_BLOCK_PARTITIONS), seed=st.integers(0, 2**32))
    def test_shared_block_lies_in_both_tangent_slices(self, parts, seed):
        # The subtracted term of the stacked ceiling, on matrices: write
        # F = F1 F' and G = G1 G' with F1 and G1 the degree-d1 factors. The
        # rows of F'G' S_{d1-s} have rank C(d1 - s + 2, 2) and reduce to zero
        # against the basis of each point's degree-d slice.
        partition = Partition(parts)
        d1, s = parts[0], partition.d - parts[0]
        points = [derive_seed(seed, k) for k in (0, 1)]
        rests = []
        for point in points:
            _, *others = (random_form(P, di, derive_seed(point, i)) for i, di in enumerate(parts))
            rest = others[0]
            for factor in others[1:]:
                rest = multiply(rest, factor, P)
            rests.append(rest)
        block = monomial_multiples(multiply(*rests, P), partition.d)
        assert rank(block, P) == num_monomials(d1 - s)
        for point in points:
            pivots, tail, _ = _rref(tangent_slice(_draw_cofactors(partition, point, P), partition.d), P)
            assert not _reduce(pivots, tail, floats(block), P).any()


def monomial_cofactor_exponents(partition):
    """The exponents of x0, x1 and x2 of each cofactor F / x_i^d_i of the
    monomial point F = x0^d1 x1^d2 (x2^d3), for r <= 3."""
    exps = (*partition.parts, 0)[:3]
    return [tuple(0 if k == i else e for k, e in enumerate(exps)) for i in range(partition.r)]


class TestMonomialPoint:
    # For r <= 3 the first point is F = x0^d1 x1^d2 (x2^d3): its slice ranks
    # are counts, and the stacked rank is dim X + 1 plus G's rank on the D
    # columns F's slice misses.
    def test_counts_are_the_ranks_the_kernel_measures(self):
        for partition in enumerate_partitions(12, r_max=3):
            d, (rows, counts) = partition.d, _hilbert_order(partition)
            cofactors = [monomial(*e) for e in monomial_cofactor_exponents(partition)]
            measured = [_rref(tangent_slice(cofactors, j), P)[0].size for j in range(d + 1)]
            assert measured == [*counts[:-1].tolist(), classify(partition).dim_X + 1]
            f = tangent_slice(cofactors, d)
            np.testing.assert_array_equal(_free_columns(partition), np.flatnonzero(~f.any(axis=0)))
            # The stacked rank, against both slices stacked at full width.
            g = tangent_slice(_draw_cofactors(partition, derive_seed(SEED, 1), P), d)
            assert _monomial_trial(partition, SEED, P, rows, counts) == (measured, rank(np.vstack([f, g]), P))

    def test_free_columns_are_the_monomials_no_cofactor_divides(self):
        # Divisibility checked exponent by exponent on the written-out order.
        for partition in enumerate_partitions(24, r_max=3):
            cofactors = monomial_cofactor_exponents(partition)
            want = [
                k
                for k, term in enumerate(exponents(partition.d))
                if not any(all(t >= e for t, e in zip(term, cofactor)) for cofactor in cofactors)
            ]
            assert _free_columns(partition).tolist() == want, partition

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(st.integers(1, 1000), min_size=2, max_size=3))
    def test_counts_sit_on_their_ceilings_for_large_parts(self, parts):
        # Closed forms only, no matrix. Below degree d the count is the row
        # count. At degree d it is the number of monomials reached,
        # sum_i C(d_i + 2, 2) - (r - 1) by inclusion-exclusion, since the
        # multiples of two or three cofactors are multiples of F alone; the
        # other D columns are the ones G's slice is ranked on.
        partition = Partition(parts)
        counts, report = closed_form_counts(partition), classify(partition)
        reached = sum(num_monomials(di) for di in partition.parts) - (partition.r - 1)
        assert [*counts[:-1], reached] == _ceilings(partition, report, counts)[:-1]
        assert num_monomials(partition.d) - reached == report.D

    def test_stacked_rank_above_its_ceiling_raises(self, monkeypatch):
        # G's rank on the D columns, reported one too high (a row past the
        # last in its profile), is refused like any rank above its ceiling;
        # F is never drawn. [2,1]'s G slice is one leaf, so `_rank` is
        # called once.
        true_rank = oracle._rank
        monkeypatch.setattr(oracle, "_rank", lambda a, modulus: np.append(true_rank(a, modulus), a.shape[0]))
        monkeypatch.setattr(oracle, "_trial", None)
        with pytest.raises(SemicontinuityError, match="stacked rank 11 above its ceiling 10"):
            verify(Partition([2, 1]), prime=P, trials=1, base_seed=SEED)


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
        # The first trial reaches every ceiling, so it runs alone.
        assert len(report.seeds) == len(report.trial_dim_sigma2) == 1
        assert report.certified
        assert all(
            t <= report.predicted["dim_sigma2"] for t in report.trial_dim_sigma2
        )
        assert report.predicted["dim_sigma2"] == classify(p).dim_sigma2
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["seeds"] == list(report.seeds)
        assert payload["measured"] == report.measured
        assert list(payload)[-2:] == ["verdict", "certified"]

    def test_trials_is_a_cap_on_the_seeds_derived(self, monkeypatch):
        # Each trial's seed is derived as the trial starts, so a cap of a
        # million derives one seed when the first trial certifies.
        calls = []
        real = oracle.derive_seed

        def counted(seed, *tags):
            calls.append((seed, *tags))
            return real(seed, *tags)

        monkeypatch.setattr(oracle, "derive_seed", counted)
        report = verify(Partition([2, 1]), trials=10**6)
        assert [call for call in calls if call[0] == DEFAULT_SEED] == [(DEFAULT_SEED, 0)]
        assert report.seeds == (real(DEFAULT_SEED, 0),)
        assert report.trials == 10**6
        assert report.verdict == VERDICT_MATCH and report.certified

    @settings(max_examples=20, deadline=None)
    @given(parts=st.lists(st.integers(1, 12), min_size=2, max_size=6))
    def test_reports_ignore_the_order_of_the_parts(self, parts):
        # Every order of the parts gives the same classify report and line.
        # verify reads only the canonical parts, so one verify per distinct
        # canonical tuple the orders build covers every order.
        report = classify(Partition(parts))
        record = verify(Partition(parts), trials=1).to_dict()
        records = {}
        for order in permutations(parts):
            partition = Partition(order)
            got = classify(partition)
            assert got == report and got.json_line() == report.json_line()
            if partition.parts not in records:
                records[partition.parts] = verify(partition, trials=1).to_dict()
        assert list(records.values()) == [record]


class TestVerdict:
    # `verify` checks every prediction against its ceiling before any draw
    # and refuses every rank above its ceiling, so one comparison decides:
    # the measurements equal the predictions exactly when every rank
    # reaches its ceiling. Each case shifts the ranks of [2,1]'s one trial.
    def shifted(self, monkeypatch, shifts):
        shift_trial_ranks(monkeypatch, shifts)
        return verify(Partition([2, 1]), prime=P, trials=1, base_seed=SEED)

    def test_match(self, monkeypatch):
        report = self.shifted(monkeypatch, {})
        assert report.measured == report.predicted
        assert report.verdict == VERDICT_MATCH and report.certified

    def test_below_when_rank_short(self, monkeypatch):
        report = self.shifted(monkeypatch, {2: -1})
        assert report.measured["hilbert"][2] == report.predicted["hilbert"][2] + 1
        assert report.verdict == VERDICT_BELOW and not report.certified

    def test_above_when_rank_exceeds(self, monkeypatch):
        with pytest.raises(SemicontinuityError, match="degree-3 slice rank 9 above its ceiling 8"):
            self.shifted(monkeypatch, {-2: 1})

    def test_above_when_hilbert_drops(self, monkeypatch):
        # A Hilbert value below its prediction is a slice rank above its ceiling.
        with pytest.raises(SemicontinuityError, match="degree-1 slice rank 2 above its ceiling 1"):
            self.shifted(monkeypatch, {1: 1})

    def test_below_when_intersection_grows(self, monkeypatch):
        report = self.shifted(monkeypatch, {-1: -1})
        assert report.measured["dim_IZ"] == report.predicted["dim_IZ"] + 1
        assert report.verdict == VERDICT_BELOW and not report.certified

    def test_above_when_intersection_shrinks(self, monkeypatch):
        # With m generic, an intersection below its prediction is a stacked
        # rank above its ceiling.
        with pytest.raises(SemicontinuityError, match="stacked rank 11 above its ceiling 10"):
            self.shifted(monkeypatch, {-1: 1})

    def test_intersection_shrinks_with_a_short_slice_rank_is_below(self, monkeypatch):
        # Below the generic slice rank, 2m - rank_joint can fall under the
        # generic intersection: not the impossible side.
        report = self.shifted(monkeypatch, {-2: -1, -1: -1})
        assert report.measured["dim_IZ"] == report.predicted["dim_IZ"] - 1
        assert report.verdict == VERDICT_BELOW and not report.certified

    def test_above_wins_over_below(self, monkeypatch):
        with pytest.raises(SemicontinuityError, match="stacked rank 11 above its ceiling 10"):
            self.shifted(monkeypatch, {-2: -1, -1: 1})

    def count_draws(self, monkeypatch):
        draws = []
        true_draw = oracle._draw_cofactors

        def counting(*args):
            draws.append(args)
            return true_draw(*args)

        monkeypatch.setattr(oracle, "_draw_cofactors", counting)
        return draws

    def test_prediction_off_its_ceiling_raises_before_any_draw(self, monkeypatch):
        # A closed form one off, with its own checks passing, must be caught
        # against the ceilings before the oracle draws, also under -O.
        draws = self.count_draws(monkeypatch)
        true_classify = oracle.classify

        def one_off(partition):
            report = true_classify(partition)
            return replace(report, dim_sigma2=report.dim_sigma2 + 1)

        monkeypatch.setattr(oracle, "classify", one_off)
        with pytest.raises(DerivationMismatchError, match=r"^ceilings\[2,1\]: the two derivations give "):
            verify(Partition([2, 1]), prime=P)
        assert draws == []

    def test_ceiling_off_its_prediction_raises_before_any_draw(self, monkeypatch):
        # The shared-block term of `_ceilings` as C(d1 - s + 3, 2), on the
        # first defective partition, where that term decides the stacked
        # ceiling.
        draws = self.count_draws(monkeypatch)
        true_ceilings = oracle._ceilings

        def wider_shared_block(partition, report, counts):
            *ranks, _ = true_ceilings(partition, report, counts)
            shared = num_monomials(partition.parts[0] - report.s + 1)
            return [*ranks, min(report.N + 1, 2 * (report.dim_X + 1) - shared)]

        monkeypatch.setattr(oracle, "_ceilings", wider_shared_block)
        partition = next(p for p in enumerate_partitions(12) if classify(p).defective)
        with pytest.raises(DerivationMismatchError, match="ceilings"):
            verify(partition, prime=P)
        assert draws == []

    def test_unlucky_small_prime_draw_is_not_above(self, monkeypatch):
        # At p = 2 the second trial of [2,1] has a slice of rank 3 of 8. Its
        # dim_IZ is 2m - rank_joint with m = 8 from the first trial, so it
        # does not fall below the generic 6. The first trial reaches every
        # ceiling, so `verify` runs it alone; all three are read off
        # `_trial`. A monomial first point is never unlucky, so `verify` is
        # made to draw F here as it does for r >= 4.
        monkeypatch.setattr(oracle, "_monomial_trial", _trial)
        partition = Partition([2, 1])
        report = verify(partition, prime=2, trials=3, base_seed=0)
        trials = [_trial(partition, derive_seed(0, k), 2, *_hilbert_order(partition)) for k in range(3)]
        m = max(dims[-1] for dims, _ in trials)
        unlucky_dims, unlucky_joint = trials[1]
        assert (unlucky_dims[-1], 2 * m - unlucky_joint) == (3, 6)
        dim_IZ = tuple(2 * m - r for _, r in trials)
        assert dim_IZ == (6, 6, 7)
        assert report.trial_dim_IZ == dim_IZ[: len(report.seeds)]
        assert report.measured["dim_IZ"] == report.predicted["dim_IZ"] == 6
        assert report.verdict == VERDICT_MATCH

    def test_no_impossible_verdict_at_small_primes(self):
        # No draw, however unlucky, may produce a verdict other than these
        # two, and MATCH is always certified.
        records = [
            verify(partition, prime=prime)
            for prime in (2, 3, 5, 7, 11, 13)
            for partition in enumerate_partitions(8)
        ]
        assert {r.verdict for r in records} <= {VERDICT_MATCH, VERDICT_BELOW}
        assert all(r.certified == (r.verdict == VERDICT_MATCH) for r in records)

    def test_replace_keeps_dataclass_frozen(self):
        report = verify(Partition([2, 1]), prime=P, trials=1, base_seed=SEED)
        doctored = replace(report, verdict=VERDICT_BELOW)
        assert doctored.verdict == VERDICT_BELOW and report.verdict == VERDICT_MATCH
