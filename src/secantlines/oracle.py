"""Exact-rank measurements of every dimension the closed forms predict.

The oracle works over a prime field. Ranks of matrices specialized from a
generic construction can only drop, never rise, and each rank it measures has
an a priori ceiling on its generic value (`_ceilings`), which `verify`
checks each prediction equals before it runs the trials one at a time, at
most the number asked for, stopping at the first trial whose every rank
reaches its ceiling: that trial proves every generic value, at any prime,
and agreement with the closed form certifies both sides. Short of that, the
maximum rank seen over the trials is a lower bound for the generic rank.
Each trial measures, at two points F and G of X, F's whole Hilbert function
and the rank of F's and G's degree-d tangent slices stacked (by Terracini's
lemma, dim sigma2 plus one). With r >= 4 factors (`_trial`) it draws both
points and eliminates that stack, F's rows first, sorted so that every
smaller slice of F is a prefix: its row rank profile (`_rank`) gives the
Hilbert function within F's rows, and the stacked rank as its size. With
r <= 3 (`_monomial_trial`) F is the monomial point x0^d1 x1^d2 (x2^d3), a
special point whose ranks are counts, at most the generic ones like any
point's; F's slice is the span of the monomials it reaches, so the stacked
rank is their number plus the rank of G's slice on the other D columns, and
F is neither drawn nor eliminated. The dimension of the intersection of the two row
spaces is taken as 2m minus the stacked rank, with m the largest slice rank
seen: the stacked rank can only drop, so once m is generic that value can
only sit at or above the generic intersection, and its minimum over trials
is aggregated. No trial holds a whole slice: each is read through a
`_Slice`, which builds rows a block at a time (`_block_rows`) as the kernel
reads them, and every block is reduced against the basis of the rows above
it as it is built.

Every elimination is one call of `_rank`, which runs one exact kernel:
float64 products between blocks (`_rref`, `_reduce`), and int64 elimination
within each leaf window (`_leaf`). `check_prime` rejects a modulus that is
not prime, or at which its sums could leave the exact range (`_blocked`)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt
from typing import Sequence

import numpy as np

from .field import DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, is_prime
from .formulas import ClassificationReport, _check_agreement, classify, hilbert_function_theory
from .gfpoly import (
    cofactor_products,
    derive_seed,
    exponents,
    form_degree,
    num_monomials,
    product_index,
    random_form,
)
from .partitions import Partition

VERDICT_MATCH = "MATCH"
VERDICT_BELOW = "ORACLE_BELOW_THEORY"

# Rows per leaf of the blocked kernel `_rref`, and columns per window of a
# leaf (`_leaf`).
LEAF_ROWS = 32
LEAF_WINDOW = 32
# The fewest rows per block that `_reduce` reduces (and builds, from a
# `_Slice`), the longest `_Slice` run that `_rref` builds whole, and the
# share of a basis tail that a larger block may fill (`_block_rows`).
BLOCK_ROWS = 64
TAIL_SHARE = 0.25


class SemicontinuityError(RuntimeError):
    """A measured rank exceeded the ceiling on its generic value.

    No unlucky draw can cause this; it means the oracle itself is wrong.
    """


def _mod(x: np.ndarray, modulus: int) -> np.ndarray:
    """The balanced residue x - rint(x / p) * p of a float64 array of
    integers x, for p = `modulus`: exact for |x| <= 2**52, where it is an
    integer r congruent to x with |r| <= p/2 + 1, and r = 0 exactly when p
    divides x.

    Proof. fl(1/p) and the product x * fl(1/p) each carry a relative error of
    at most 2**-53, so the computed quotient y is within |x|/p * 2**-52 *
    (1 + 2**-54) of x/p, and q = rint(y) leaves |x - q p| <= p/2 + |x| *
    2**-52 * (1 + 2**-54) < p/2 + 1 + 2**-53. That bounds the integer
    x - q p by p/2 + 1, since p/2 + 1 is an integer or a half-integer. Then
    |q p| <= 2**52 + p/2 + 1 < 2**53, so q * p and x - q * p are computed
    exactly. If p divides x, y is within 1/2 of x/p (for p = 2 it equals
    x/p, as 1/2 is exact), so q = x/p and r = 0.

    The blocked kernel keeps every value it reduces in that range. With
    h = p // 2 + 1, the bound on a balanced residue, every entry it stores is
    an input entry in [0, p) or a balanced residue, so at most
    M = max(p - 1, h), and every product it forms has one factor of at most
    h and the other of at most M:
    - the `_reduce` product adds to an entry at most M one product of a row
      (at most M) by the basis tail (balanced) per pivot, at most n of them,
      n being the column count `_blocked` admitted: at most n M h + M; the
      merge in `_rref` is such a product, on the top basis's tail;
    - a leaf window (`_leaf`) is eliminated in int64 and reduced with `%`,
      not here. An entry starts at most M <= p and takes one product of a
      multiplier and a pivot row entry, both in [0, p), per pivot; fewer
      than LEAF_ROWS of them stay unreduced, as a pivot row is replaced by
      its reduced form at its turn and a live row that takes no pivot
      leaves fewer pivots than rows. So |entry| < p + LEAF_ROWS (p - 1)**2,
      below 2**63 for every prime `_blocked` admits, all below 2**24;
    - the window transform applies at most LEAF_ROWS balanced rows to
      entries at most M: at most LEAF_ROWS M h, however few columns the
      matrix has.
    Since h <= M, each float64 sum is at most max(n, LEAF_ROWS) M h + M. For p >= 3,
    h <= p - 1, so M = p - 1 and M h is about half of (p - 1)**2. Small
    primes need the max: at p = 2, h = 2 exceeds p - 1 = 1 (this is the one
    prime with p // 2 + 1 > p - 1), so M = 2. `_blocked` admits the kernel
    only where max(n, LEAF_ROWS) M h + M <= 2**52, and then every partial
    sum is an exact float64 integer as well.
    """
    q = x * (1.0 / modulus)
    np.rint(q, out=q)
    q *= modulus
    return np.subtract(x, q, out=q)


def _blocked(n_cols: int, modulus: int) -> bool:
    """Whether the blocked float64 kernel is exact on matrices with `n_cols`
    columns mod `modulus`: where max(n_cols, LEAF_ROWS) * M * h + M <= 2**52,
    with h = p // 2 + 1 and M = max(p - 1, h) (see `_mod` for why that
    suffices). That allows up to 9007 columns at modulus 1,000,003, and
    never moduli above about 16.8 million. The kernel is the only
    elimination, so `check_prime` rejects every other prime.
    """
    half = modulus // 2 + 1
    entry = max(modulus - 1, half)
    return max(n_cols, LEAF_ROWS) * entry * half + entry <= 2**52


def _largest_prime(n_cols: int) -> int:
    """The largest prime at which `_blocked` admits `n_cols` columns, if it
    admits 2. With k = max(n_cols, LEAF_ROWS), M * h >= (p**2 - 1) / 2
    exceeds 2**52 / k for every p from isqrt(2**53 // k) + 2 up, so the
    search walks down from there."""
    prime = isqrt(2**53 // max(n_cols, LEAF_ROWS)) + 2
    while not (_blocked(n_cols, prime) and is_prime(prime)):
        prime -= 1
    return prime


def check_prime(d: int, prime: int) -> None:
    """Raise ValueError unless `prime` is prime and the kernel is exact mod
    it on the degree-d tangent slices, the widest matrices a partition of d
    eliminates, naming the largest prime it admits there. It admits none
    from d = 47,453,132 on, where M * h = 4 at p = 2 already leaves the
    exact range."""
    if not is_prime(prime):
        raise ValueError(f"modulus {prime} is not prime")
    n_cols = num_monomials(d)
    if not _blocked(n_cols, prime):
        admitted = f"primes up to {_largest_prime(n_cols)}" if _blocked(n_cols, 2) else "no prime"
        raise ValueError(
            f"prime {prime} is too large for degree {d}: the exact float64 kernel "
            f"admits {admitted} on its {n_cols} columns"
        )


def _rref(a: np.ndarray | _Slice, modulus: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon basis of the row space of a float64 matrix with
    integer entries in [0, modulus) or balanced residues (see `_mod`), on
    which `_blocked` allows the kernel, and its row rank profile.

    Returns (pivots, tail, independent). Row i of the basis is the unit
    vector at column pivots[i] minus tail[i] spread over the non-pivot
    columns in increasing order; tail holds balanced residues, and the
    identity block on the pivot columns is never stored. independent lists,
    in increasing order, the rows that are independent of the rows above
    them.

    Eliminate the top half of the rows, recursively, reduce the bottom half
    against that basis with one product (`_reduce`), and go on with the
    residual, already on the non-pivot columns, down to a leaf of at most
    LEAF_ROWS rows (`_leaf`); each residual replaces, and so frees, the
    matrix it came from. Then, from the leaf up, each level's residual basis
    clears its pivot columns from the level's top basis with a second
    product, written straight into the merged tail. A residual row is
    non-zero modulo the top half's span exactly when its row is independent
    of the rows above it, so the profile is the top half's followed by the
    residual's, shifted by the half. A `_Slice` is built as it is read: a
    run of at most BLOCK_ROWS rows, or a leaf, whole, and a longer run's
    bottom half into its residual a block at a time.
    """
    if a.shape[0] <= BLOCK_ROWS:
        a = np.asarray(a)
    levels = []
    while a.shape[0] > LEAF_ROWS:
        half = a.shape[0] // 2
        # Held only by the list, so each top basis is freed once merged.
        levels.append((half, a.shape[1], *_rref(a[:half], modulus)))
        a = _reduce(*levels[-1][2:4], a[half:], modulus)
    pivots, tail, independent = _leaf(np.asarray(a), modulus)
    del a
    while levels:
        half, n_cols, top_pivots, top_tail, top_independent = levels.pop()
        independent = np.concatenate([top_independent, half + independent])
        if pivots.size == 0:
            pivots, tail = top_pivots, top_tail
            continue
        merged = np.empty((top_pivots.size + pivots.size, tail.shape[1]))
        _reduce(pivots, tail, top_tail, modulus, merged[: top_pivots.size])
        merged[top_pivots.size :] = tail
        pivots = np.concatenate([top_pivots, _complement(top_pivots, n_cols)[pivots]])
        tail = merged
    return pivots, tail, independent


def _leaf(a: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_rref` of a matrix of at most LEAF_ROWS rows, one window of
    LEAF_WINDOW columns at a time, each eliminated in int64.

    A row is live until it is found dependent, and pending while it is live
    and not a pivot row. Each window starts at the first column on which a
    pending row is non-zero; pending rows that are zero on every column from
    there on are dependent and leave. The live rows' window, with the
    identity appended, is eliminated in row order without swaps, as an
    int64 block; where at most 2 LEAF_WINDOW columns are left, the window
    takes them all and needs no identity. A pending row's turn reduces that
    row; if it is non-zero on the window, its first non-zero column there
    becomes a pivot, the row is scaled to 1 at it and reduced again, and the
    reduced multiplier column times the row is taken from every other live
    row, pivot rows of earlier windows included. No other entry is reduced
    before the window ends, so each takes at most one unreduced update per
    pivot (see `_mod` for the bound). The block is then reduced to balanced
    residues, and the transform accumulated on the identity updates the
    remaining columns with one float64 product and one reduction. The
    profile is sorted by row at the end.

    Why this is the row rank profile: by induction on windows, after each
    window the pivot rows are the rows independent of the rows above them
    on the columns seen so far, and each pending row is its own row minus a
    combination of pivot rows above it, zero on those columns. A pending row
    is never reduced against a pivot row below it: it is zero on the window
    from its turn on, so the later pivots' multipliers for it are zero. Nor
    would that change anything, because such a pivot row is independent, on
    the columns seen so far, of everything above it, so no combination that
    uses it lies in the span of the rows above the pending row. Hence a
    pending row lies in the span of the rows above it exactly when its
    reduced form lies in the span of the reduced pending rows above it: the
    pivot rows above it are independent on the columns seen so far, where
    every reduced pending row is zero. The next window's elimination, which
    clears from each pending row the window's pivots above it before its
    turn, decides that on the window's columns, and every pending row is
    zero on the columns before the window. The window's pivots also clear
    their columns from the pivot rows of earlier windows, which changes no
    column before the window, where they are zero, so the pivot rows end in
    reduced row echelon form.
    """
    n_rows, n_cols = a.shape
    work = a.copy()
    live = np.ones(n_rows, dtype=bool)
    is_pivot = np.zeros(n_rows, dtype=bool)
    rows: list[int] = []
    cols: list[int] = []
    start = 0
    while True:
        pending = np.flatnonzero(live & ~is_pivot)
        nonzero = work[pending, start:] != 0
        live[pending[~nonzero.any(axis=1)]] = False
        occupied = np.flatnonzero(nonzero.any(axis=0))
        if occupied.size == 0:
            break
        start += int(occupied[0])
        stop = n_cols if n_cols - start <= 2 * LEAF_WINDOW else start + LEAF_WINDOW
        width = stop - start
        members = np.flatnonzero(live)
        block = work[members, start:stop].astype(np.int64)
        if stop < n_cols:
            block = np.concatenate([block, np.eye(members.size, dtype=np.int64)], axis=1)
        for k in np.flatnonzero(~is_pivot[members]):
            row = block[k] % modulus
            hits = row[:width].nonzero()[0]
            if hits.size == 0:
                continue
            col = int(hits[0])
            row = row * pow(int(row[col]), -1, modulus) % modulus
            # Row k takes its own update too, and is then set to the pivot row.
            block -= np.multiply.outer(block[:, col] % modulus, row)
            block[k] = row
            is_pivot[members[k]] = True
            rows.append(members[k])
            cols.append(start + col)
        block = _mod((block % modulus).astype(np.float64), modulus)
        work[members, start:stop] = block[:, :width]
        if stop < n_cols:
            work[members, stop:] = _mod(block[:, width:] @ work[members, stop:], modulus)
        start = stop
    order = np.argsort(rows)
    independent = np.array(rows, dtype=np.int64)[order]
    pivots = np.array(cols, dtype=np.int64)[order]
    return pivots, -work[independent[:, None], _complement(pivots, n_cols)], independent


def _complement(pivots: np.ndarray, n_cols: int) -> np.ndarray:
    """The columns 0..n_cols-1 that are not pivots, in increasing order."""
    free = np.ones(n_cols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def _reduce(
    pivots: np.ndarray,
    tail: np.ndarray,
    rows: np.ndarray | _Slice,
    modulus: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """`rows` minus their combination of the basis (pivots, tail) that clears
    the pivot columns, as a matrix on the non-pivot columns, written into
    `out` (a new matrix by default) and returned. Its rank is the rank `rows`
    add to the basis.

    One product and one reduction mod p per block of `_block_rows(tail)`
    rows, formed in that block's rows of `out`: each column of the block is
    copied once, the pivot columns into the product's operand, the others
    into the sum. So no temporary is larger than a block, whatever the
    number of rows, and fewer fresh pages are touched: with whole slices
    and whole-matrix temporaries, `verify 25,15` took 9,927 minor page
    faults and `verify 40,30,10` 47,671, against 7,433 and 35,571 in
    blocks. A `_Slice` is built a block at a time as it is reduced.
    """
    free = _complement(pivots, rows.shape[1])
    if out is None:
        out = np.empty((rows.shape[0], free.size))
    step = _block_rows(tail)
    for start in range(0, rows.shape[0], step):
        block = np.asarray(rows[start : start + step])
        part = out[start : start + step]
        np.matmul(block[:, pivots], tail, out=part)
        part += block[:, free]
        part[...] = _mod(part, modulus)
    return out


def _block_rows(tail: np.ndarray) -> int:
    """Rows per block of a reduction against a basis with this tail:
    BLOCK_ROWS, or as many as fill a TAIL_SHARE of the tail's size at the
    basis's full width, whichever is more. Each block's product streams the
    whole tail, so a large tail is streamed fewer times, while a block's
    full-width temporaries stay within that share of what the tail holds.
    A tail has at most n**2 / 4 entries at width n, so below 1,024 columns
    (d <= 43) every block has BLOCK_ROWS rows."""
    return max(BLOCK_ROWS, int(tail.size * TAIL_SHARE) // max(sum(tail.shape), 1))


def _rank(a: np.ndarray | _Slice, modulus: int) -> np.ndarray:
    """`_rref`'s row rank profile `independent`, whose size is the rank,
    without back-substituting the basis of the whole: the top half's
    profile, then that of the bottom half reduced against the top half's
    basis, shifted by the half. Leaves go through `_leaf`."""
    if a.shape[0] <= LEAF_ROWS:
        return _leaf(np.asarray(a), modulus)[2]
    half = a.shape[0] // 2
    pivots, tail, independent = _rref(a[:half], modulus)
    residual = _reduce(pivots, tail, a[half:], modulus)
    del a, pivots, tail
    return np.concatenate([independent, half + _rank(residual, modulus)])


def tangent_slice(
    cofactors: Sequence[np.ndarray],
    j: int,
    rows: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Rows spanning the degree-j piece of the ideal generated by the
    all-but-one factor products of one factored form, as a float64 matrix.

    In block order the slice has one block of rows per cofactor, in turn:
    its monomial multiples of degree j, in graded-lex order of the monomial.
    Row k of the matrix is block row rows[k] (every block row, in block
    order, by default), so a reordered slice, or any run of its rows, is
    built in place, with work in proportion to the rows built. Given
    `columns`, it holds only those columns of the slice, in that order:
    every other monomial is written to one spare column, which the view
    returned leaves out. Cofactors of degree above j contribute no rows. At
    j = d the row span is the affine cone over the tangent space of the
    variety of split forms at that point.
    """
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    sizes = [num_monomials(j - e) if e <= j else 0 for e in map(form_degree, cofactors)]
    if rows is None:
        rows = np.arange(sum(sizes))
    width, place = num_monomials(j), None
    if columns is not None:
        place = np.full(width, columns.size)
        place[columns] = np.arange(columns.size)
        width = columns.size + 1
    out = np.zeros((rows.size, width))
    first = 0
    for cofactor, size in zip(cofactors, sizes):
        if (kept := np.flatnonzero((rows >= first) & (rows < first + size))).size:
            e = form_degree(cofactor)
            index = product_index(j - e, e, rows[kept] - first)
            out[kept[:, None], index if place is None else place[index]] = cofactor
        first += size
    return out if columns is None else out[:, :-1]


@dataclass(frozen=True, eq=False)
class _Slice:
    """The tangent slice rows that `tangent_slice(cofactors, j, rows,
    columns)` builds, built only when read with `np.asarray`. Slicing it
    with [a:b] slices `rows`, a view, and builds nothing."""

    cofactors: Sequence[np.ndarray]
    j: int
    rows: np.ndarray
    columns: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        width = num_monomials(self.j) if self.columns is None else self.columns.size
        return self.rows.size, width

    def __getitem__(self, key: slice) -> _Slice:
        return replace(self, rows=self.rows[key])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        built = tangent_slice(self.cofactors, self.j, self.rows, self.columns)
        return np.asarray(built, dtype=dtype)


def _draw_cofactors(partition: Partition, seed: int, prime: int) -> list[np.ndarray]:
    """Cofactor products of one random point: one factor per degree, each
    drawn from its own derived seed stream."""
    factors = [random_form(prime, di, derive_seed(seed, i)) for i, di in enumerate(partition.parts)]
    return cofactor_products(factors, prime)


def _hilbert_order(partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The block rows of the degree-d tangent slice (`tangent_slice`) in
    Hilbert order, in which, for every j = 0..d, the rows spanning x0^(d-j)
    times the degree-j slice come first, and the number of those rows for
    each j.

    Row m * G_i, for the cofactor G_i of degree e = d - d_i and a monomial m
    of degree d_i, lies in x0^(d-j) times the degree-j slice exactly when e
    plus the degree of m in x1, x2 is at most j. The rows are sorted stably
    by that key. Multiplying by x0^(d-j) is injective, so the rank of the
    first count[j] rows is the dimension of the degree-j slice, for every
    draw and every prime. Both depend on the cofactor degrees only.
    """
    d = partition.d
    keys = np.concatenate([d - exponents(di)[0] for di in partition.parts])
    order = np.argsort(keys, kind="stable")
    counts = np.searchsorted(keys[order], np.arange(d + 1), side="right")
    return order, counts


def _ceilings(
    partition: Partition, report: ClassificationReport, counts: np.ndarray
) -> list[int]:
    """A priori ceilings on the generic ranks a trial measures: F's slice
    ranks j = 0..d, then the rank of F's and G's degree-d slices stacked.

    A rank mod p is at most the rank over Q of the same integer matrix, which
    is at most the generic rank in characteristic 0, which is at most its
    ceiling. So a trial whose every rank equals its ceiling has measured
    every generic rank, at any prime, and a rank above its ceiling is a
    fault of the oracle.
    - j < d: the degree-j slice's row count, counts[j] (`_hilbert_order`),
      or its column count C(j+2, 2), whichever is smaller.
    - j = d: dim X + 1. The slice has sum_i C(d_i + 2, 2) = dim X + r rows,
      and the r - 1 relations F_i (F / F_i) = F_1 (F / F_1), i = 2..r, hold
      among them.
    - Stacked: at most N + 1 columns, and two tangent slices of rank at most
      dim X + 1 each. When d1 >= s, they share F'G' times the forms of
      degree d1 - s, with F = F1 F' and G = G1 G' (F' and G' of degree s):
      F'G' S_{d1-s} lies in F' S_{d1} and in G' S_{d1}. Multiplying by F'G'
      is injective, so the stacked rank is at most
      2(dim X + 1) - C(d1 - s + 2, 2).
      That falls below N + 1 exactly when 2p - 3s > 0, with p the sum of the
      pairwise products of d2, ..., dr. As D = d1 s + p, dim X = N - D and
      N + 1 = C(d1 + s + 2, 2), the gap is
      (N + 1) - (2(dim X + 1) - C(d1 - s + 2, 2))
      = 2D + C(d1 - s + 2, 2) - C(d1 + s + 2, 2) = 2p - 3s, an identity in
      (d1, s, p), since C(d1 - s + 2, 2) - C(d1 + s + 2, 2) = -s(2 d1 + 3).
    """
    d1, s = partition.parts[0], report.s
    shared = num_monomials(d1 - s) if d1 >= s else 0
    return [
        *(min(int(counts[j]), num_monomials(j)) for j in range(partition.d)),
        report.dim_X + 1,
        min(report.N + 1, 2 * (report.dim_X + 1) - shared),
    ]


def _trial(
    partition: Partition, seed: int, prime: int, rows: np.ndarray, counts: np.ndarray
) -> tuple[list[int], int]:
    """One trial's measurements, from one elimination: the slice dimensions
    j = 0..d at its first point F, drawn at derive_seed(seed, 0), and the
    rank of the degree-d slices of F and of its second point G, drawn at
    derive_seed(seed, 1), stacked. `verify` runs it for r >= 4, and
    `_monomial_trial` for r <= 3. `_blocked` must admit the prime on
    degree-d slices (`check_prime`).

    Both points are one `_Slice` of both cofactor sets: F's rows in Hilbert
    order (rows and counts are `_hilbert_order(partition)`), then G's in
    block order, which leaves the stacked rank alone. Its row rank profile
    gives the Hilbert function, as its count within each prefix of F's rows,
    and the stacked rank, as its size.
    """
    n = rows.size
    cofactors = [c for k in (0, 1) for c in _draw_cofactors(partition, derive_seed(seed, k), prime)]
    profile = _rank(_Slice(cofactors, partition.d, np.concatenate([rows, n + np.arange(n)])), prime)
    return np.searchsorted(profile, counts).tolist(), profile.size


def _free_columns(partition: Partition) -> np.ndarray:
    """The degree-d monomials that no cofactor F / x_i^d_i of the monomial
    point F = x0^d1 x1^d2 (x2^d3) divides, for r <= 3: the columns on which
    F's degree-d slice is zero. F / x_i^d_i divides a monomial exactly when
    its exponent of x_k is at least d_k for every k != i, so a monomial is
    reached exactly when at least r - 1 of the r comparisons hold."""
    reached = sum(e >= di for e, di in zip(exponents(partition.d), partition.parts))
    return np.flatnonzero(reached < partition.r - 1)


def _monomial_trial(
    partition: Partition, seed: int, prime: int, rows: np.ndarray, counts: np.ndarray
) -> tuple[list[int], int]:
    """`_trial` for r <= 3, with the monomial point F = x0^d1 x1^d2 (x2^d3)
    as its first point: F is neither drawn nor eliminated. G is drawn at
    derive_seed(seed, 1), as in `_trial`.

    Each cofactor F / x_i^d_i is a monomial, so each slice of F is spanned
    by monomials, and its rank is a count, the same in every characteristic:
    - j < d: any two cofactors have least common multiple F, of degree d, so
      no degree-j monomial is a multiple of two of them, and the rank is the
      row count counts[j];
    - j = d: the number of monomials the slice reaches, dim X + 1.
    F's degree-d slice is the span of those monomials, so reducing G's slice
    against it drops their columns: the stacked rank is dim X + 1 plus the
    rank of G's slice on the D other columns, read through a `_Slice` on
    those columns and never held whole. F is a point of X_lambda, a special
    one, so each of its ranks is at most the generic value, as a drawn
    point's is (`_ceilings`), and a rank that reaches its ceiling is
    certified in the same way.
    """
    d = partition.d
    free = _free_columns(partition)
    cofactors = _draw_cofactors(partition, derive_seed(seed, 1), prime)
    g = _Slice(cofactors, d, np.arange(counts[-1]), free)
    top = num_monomials(d) - free.size
    return [*counts[:-1].tolist(), top], top + _rank(g, prime).size


@dataclass(frozen=True)
class OracleReport:
    """Measured ranks and dimensions for one partition, paired with predictions.

    The verdict is MATCH when every measurement equals its prediction, which
    is when every measured rank reached its ceiling (`verify`): a MATCH is
    proved, at any prime, and `certified` is the same bool. Otherwise it is
    ORACLE_BELOW_THEORY, a non-generic draw, which more trials would fix.
    `trials` is the cap asked for; `seeds` and the per-trial tuples list the
    trials actually run.
    """

    partition: Partition
    prime: int
    trials: int
    base_seed: int
    seeds: tuple[int, ...]
    measured: dict
    predicted: dict
    trial_dim_sigma2: tuple[int, ...]
    trial_dim_IZ: tuple[int, ...]
    verdict: str
    certified: bool

    def to_dict(self) -> dict:
        return {
            "lambda": list(self.partition.parts),
            "prime": self.prime,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "seeds": list(self.seeds),
            "measured": dict(self.measured),
            "predicted": dict(self.predicted),
            "trial_dim_sigma2": list(self.trial_dim_sigma2),
            "trial_dim_IZ": list(self.trial_dim_IZ),
            "verdict": self.verdict,
            "certified": self.certified,
        }


def verify(
    partition: Partition,
    *,
    prime: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
) -> OracleReport:
    """Measure every predicted dimension for one partition and compare.

    The predictions are read off one `classify` and, per degree,
    `hilbert_function_theory`. Before any draw, the ranks they predict must
    equal the ceilings `_ceilings` derives on its own, or
    DerivationMismatchError is raised. The measurements come from
    independent two-point trials in seed order, at most `trials` of them,
    which stop after the first whose every rank reaches its ceiling. Each
    trial measures F's whole Hilbert function and the rank of the degree-d
    tangent slices of two points F and G stacked. With r >= 4 it draws
    factor sets for both and eliminates their slices as one stack, whose
    row rank profile gives both (`_trial`). With r <= 3,
    F is the monomial point x0^d1 x1^d2 (x2^d3), whose ranks are counts and
    certify as a drawn point's do, and only G is drawn (`_monomial_trial`):
    `verify 98,1,1` (d = 100) takes a fraction of a second. Each slice
    dimension of the Hilbert function j = 0..d (whose j = d entry is the
    degree-d slice dimension) is the max over the trial points, and the
    secant-line dimension, rank(stacked) - 1, the max over trials.

    Through the dimension formula for a sum of subspaces, each trial's
    dim_IZ is 2m - rank(stacked), with m the largest rank of F's degree-d
    slice over the trials run, and the intersection dimension is their
    min. A stacked rank never exceeds its generic value, so once m is
    generic no trial's dim_IZ falls below the generic intersection
    dimension, however unlucky its draw. A rank above its ceiling is
    impossible and raises SemicontinuityError. So the measurements equal the
    predictions exactly when every rank reaches its ceiling, and the trials
    not run would change no maximum and no minimum. G's slice rank is not
    measured: with r >= 4, G is drawn through the same code as F,
    independently and with the same distribution, so any fault that could
    push G's rank above generic shows in F's; with r <= 3, G's slice enters
    only through the stacked rank, which is checked against its ceiling. A
    prime that `check_prime` rejects at degree d raises ValueError before
    any prediction is built, as does a cap below one trial.
    """
    report = classify(partition)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    check_prime(partition.d, prime)
    predicted = {
        "dim_IF_d": report.dim_X + 1,
        "hilbert": [hilbert_function_theory(partition, j) for j in range(partition.d + 1)],
        "dim_sigma2": report.dim_sigma2,
        "dim_IZ": report.dim_IZ,
    }
    rows, counts = _hilbert_order(partition)
    ceilings = _ceilings(partition, report, counts)
    # dim_IF_d and dim_IZ follow from these, by `classify`'s own checks.
    slice_ranks = [num_monomials(j) - h for j, h in enumerate(predicted["hilbert"])]
    _check_agreement("ceilings", partition, ceilings, [*slice_ranks, predicted["dim_sigma2"] + 1])
    trial = _monomial_trial if partition.r <= 3 else _trial
    seeds, trial_dims, joints = [], [], []
    for t in range(trials):
        # Each seed is derived as its trial starts: `trials` is only a cap.
        seeds.append(derive_seed(base_seed, t))
        dims, joint = trial(partition, seeds[-1], prime, rows, counts)
        ranks = [*dims, joint]
        for j, (value, ceiling) in enumerate(zip(ranks, ceilings)):
            if value > ceiling:
                what = f"degree-{j} slice rank" if j <= partition.d else "stacked rank"
                raise SemicontinuityError(
                    f"{partition}: {what} {value} above its ceiling {ceiling}"
                )
        trial_dims.append(dims)
        joints.append(joint)
        if ranks == ceilings:
            break
    slice_dims = [max(dims) for dims in zip(*trial_dims)]
    m, rank_joint = slice_dims[-1], max(joints)
    measured = {
        "dim_IF_d": m,
        "hilbert": [num_monomials(j) - dim for j, dim in enumerate(slice_dims)],
        "dim_sigma2": rank_joint - 1,
        "dim_IZ": 2 * m - rank_joint,
    }
    matched = measured == predicted
    return OracleReport(
        partition=partition,
        prime=prime,
        trials=trials,
        base_seed=base_seed,
        seeds=tuple(seeds),
        measured=measured,
        predicted=predicted,
        trial_dim_sigma2=tuple(joint - 1 for joint in joints),
        trial_dim_IZ=tuple(2 * m - joint for joint in joints),
        verdict=VERDICT_MATCH if matched else VERDICT_BELOW,
        certified=matched,
    )
