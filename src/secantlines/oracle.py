"""Exact-rank measurements of every dimension the closed forms predict.

The oracle works over a large prime field: ranks of matrices specialized from
a generic construction can only drop, never rise, so the maximum rank seen over
a few random trials is a certified lower bound for the generic rank, and
agreement with the closed-form value certifies both sides. Each trial draws two
points F and G and runs one elimination, of F's degree-d tangent slice with its
rows sorted so that every smaller slice is a prefix. Its row rank profile gives
F's whole Hilbert function, and the rank of F's and G's slices stacked (by
Terracini's lemma, dim sigma2 plus one). The dimension of the intersection of
the two row spaces is taken as 2m minus the stacked rank, with m the largest
slice rank seen: the stacked rank can only drop, so once m is generic that
value can only sit at or above the generic intersection, and its minimum over
trials is aggregated."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .field import DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, PrimeField
from .formulas import (
    dim_IZ_theory,
    dim_sigma2_theory,
    dim_variety,
    expected_dim_sigma2,
    hilbert_function_theory,
)
from .gfpoly import (
    cofactor_products,
    derive_seed,
    form_degree,
    monomial_multiples,
    num_monomials,
    random_form,
    x0_codegree,
)
from .partitions import Partition, derived

VERDICT_MATCH = "MATCH"
VERDICT_BELOW = "ORACLE_BELOW_THEORY"
VERDICT_ABOVE = "ORACLE_ABOVE_THEORY"

# Rows per leaf of the blocked kernel `_rref`, and columns per window of a
# leaf (`_leaf`).
LEAF_ROWS = 32
LEAF_WINDOW = 32
# A partition's t trials are eliminated as one stack while t * cols**2 is at
# most this, cols being the slice width C(d+2, 2): at t = 3 that is d <= 23.
# Stacking three trials against running them one at a time, one in-process
# verify: d = 20 ([12,8]) 0.006 s against 0.010 s and 1.4 MB more peak RSS,
# d = 30 ([18,12]) 0.017 against 0.025 s and 6 MB more, d = 40 ([25,15])
# 18.6 MB more on 40 MB. So wide slices, verify-large's among them, go one
# trial at a time.
BATCH_CELLS = 300_000


class NotApplicableError(ValueError):
    """The degree conditions for the requested specialization bound are not met."""


class SemicontinuityError(RuntimeError):
    """A measured rank exceeded the generic value it can only fall short of.

    No unlucky draw can cause this; it means the oracle itself is wrong.
    """


class _Diverged(Exception):
    """Two matrices of a stack disagreed on a live-row or pivot decision, so
    they cannot share one elimination."""


def _eliminate(work: np.ndarray, modulus: int) -> tuple[list[int], list[int]]:
    """In-place Gaussian elimination mod `modulus` in row order, without row
    swaps; returns the row rank profile and the pivot column of each of its
    rows.

    When a row's turn comes, every pivot so far has been cleared from it, so
    it is non-zero exactly when it is independent of the rows above it. Then
    its leading column becomes a pivot: the row is scaled to 1 there, and the
    column is cleared from every other row with one outer product. The
    independent rows end in reduced row echelon form up to their order, the
    others at zero. Entries must be in [0, modulus); with modulus < 2**31
    every intermediate fits in int64, so the updates are exact.
    """
    independent: list[int] = []
    pivots: list[int] = []
    for i, row in enumerate(work):
        nonzero = row.nonzero()[0]
        if nonzero.size == 0:
            continue
        col = int(nonzero[0])
        row[col:] = row[col:] * pow(int(row[col]), modulus - 2, modulus) % modulus
        column = work[:, col]
        hits = column.nonzero()[0]
        hits = hits[hits != i]
        if hits.size:
            work[hits, col:] = (
                work[hits, col:] - np.multiply.outer(column[hits], row[col:])
            ) % modulus
        independent.append(i)
        pivots.append(col)
    return independent, pivots


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
    h and the other of at most M (an inverse in [1, p) counts as at most M):
    - the `_reduce` product adds to an entry at most M one product of a row
      (at most M) by the basis tail (balanced) per pivot, at most n of them,
      n being the column count `_blocked` admitted: at most n M h + M; the
      merge in `_rref` is such a product, on the top basis's tail;
    - a leaf update (`_leaf`) adds to each entry of its window at most one
      product of a balanced multiplier and a balanced pivot row per pivot,
      and the window is reduced before it has more than LEAF_ROWS pivots:
      at most LEAF_ROWS h**2 + M; a pivot row is reduced before it is
      scaled by an inverse: at most M h;
    - the window transform applies at most LEAF_ROWS balanced rows to
      entries at most M: at most LEAF_ROWS M h, however few columns the
      matrix has.
    Since h <= M, each sum is at most max(n, LEAF_ROWS) M h + M. For p >= 3,
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
    never moduli above about 16.8 million. Where it is not, only the int64
    row loop `_eliminate` is exact.
    """
    half = modulus // 2 + 1
    entry = max(modulus - 1, half)
    return max(n_cols, LEAF_ROWS) * entry * half + entry <= 2**52


def _rref(a: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon bases of the row spaces of a stack of float64
    matrices, shape (t, rows, cols), with integer entries in [0, modulus) or
    balanced residues (see `_mod`), on which `_blocked` allows the kernel,
    and their row rank profile. Every step serves the whole stack; a stack
    of one is the unbatched case.

    Returns (pivots, tail, independent). Row i of matrix b's basis is the
    unit vector at column pivots[i] minus tail[b, i] spread over the
    non-pivot columns in increasing order; tail holds balanced residues, and
    the identity block on the pivot columns is never stored. independent
    lists, in increasing order, the rows that are independent of the rows
    above them. pivots and independent are shared: the matrices run in
    lockstep, and `_Diverged` is raised at the first live-row or pivot
    decision on which they disagree (never for a stack of one).

    Recursive: eliminate the top half of the rows, reduce the bottom half
    against that basis with one product (`_reduce`), eliminate the residual,
    which is already on the non-pivot columns, and clear its pivot columns
    from the top basis with a second product. A residual row is non-zero
    modulo the top half's span exactly when its row is independent of the
    rows above it, so the profile is the top half's followed by the
    residual's, shifted by the half. Leaves of at most LEAF_ROWS rows go
    through `_leaf`.
    """
    n_rows = a.shape[1]
    if n_rows <= LEAF_ROWS:
        return _leaf(a, modulus)
    half = n_rows // 2
    pivots, tail, top = _rref(a[:, :half], modulus)
    new_pivots, new_tail, bottom = _rref(_reduce(pivots, tail, a[:, half:], modulus), modulus)
    independent = np.concatenate([top, half + bottom])
    if new_pivots.size == 0:
        return pivots, tail, independent
    free = _complement(pivots, a.shape[2])
    return (
        np.concatenate([pivots, free[new_pivots]]),
        np.concatenate([_reduce(new_pivots, new_tail, tail, modulus), new_tail], axis=1),
        independent,
    )


def _leaf(a: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_rref` of a stack of matrices of at most LEAF_ROWS rows, one window
    of LEAF_WINDOW columns at a time, in float64 throughout.

    A row is live until it is found dependent, and pending while it is live
    and not a pivot row. Each window starts at the first column on which a
    pending row of the stack is non-zero; pending rows that are zero on
    every column from there on are dependent and leave. The live rows'
    window, with the identity appended, is eliminated as `_eliminate` does
    it, in row order without swaps. A pending row's turn reduces that row;
    if it is non-zero on the window, its first non-zero column there becomes
    a pivot, the row is scaled to 1 at it and reduced again, and the reduced
    multiplier column times the row is taken from every other live row,
    pivot rows of earlier windows included. No other entry is reduced before
    the window ends, so each takes at most one unreduced update per pivot
    (see `_mod` for the bound). The transform accumulated on the identity
    then updates the remaining columns with one product and one reduction.
    The profile is sorted by row at the end.

    The stack shares every decision: which rows leave, and each pivot. The
    first matrix makes them, and any other that would decide otherwise
    raises `_Diverged`. The rows that leave are compared once per window; at
    each turn the other reduced rows must be zero before the first one's
    pivot column and non-zero on it, or zero on the whole window if it has
    no pivot there. A window may start before a matrix's own first non-zero
    pending column; its pending rows are zero there and find no pivot, so
    nothing changes.

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
    t, n_rows, n_cols = a.shape
    work = a.copy()
    live = np.ones(n_rows, dtype=bool)
    is_pivot = np.zeros(n_rows, dtype=bool)
    rows: list[int] = []
    cols: list[int] = []
    start = 0
    while True:
        pending = np.flatnonzero(live & ~is_pivot)
        nonzero = work[:, pending, start:] != 0
        occupied_rows = nonzero.any(axis=2)
        if t > 1 and (occupied_rows != occupied_rows[0]).any():
            raise _Diverged
        live[pending[~occupied_rows[0]]] = False
        occupied = np.flatnonzero(nonzero.any(axis=(0, 1)))
        if occupied.size == 0:
            break
        start += int(occupied[0])
        stop = min(start + LEAF_WINDOW, n_cols)
        width = stop - start
        members = np.flatnonzero(live)
        identity = np.eye(members.size)[None].repeat(t, axis=0)
        block = np.concatenate([work[:, members, start:stop], identity], axis=2)
        # The stack's rows one after another: a column of it is one strided
        # vector, which numpy reduces faster than a (t, members) view.
        stacked_rows = block.reshape(t * members.size, -1)
        for k, i in enumerate(members):
            if is_pivot[i]:
                continue
            row = _mod(block[:, k], modulus)
            hits = row[0, :width].nonzero()[0]
            if hits.size == 0:
                if t > 1 and row[:, :width].any():
                    raise _Diverged
                continue
            col = int(hits[0])
            if t == 1:
                scale = pow(int(row[0, col]), modulus - 2, modulus)
            else:
                values = row[:, col].tolist()
                if 0 in values or row[:, :col].any():
                    raise _Diverged
                scale = np.array([[pow(int(v), modulus - 2, modulus)] for v in values])
            row = _mod(row * scale, modulus)
            # Row k takes its own update too, and is then set to the pivot row.
            multipliers = _mod(stacked_rows[:, col], modulus)
            block -= multipliers.reshape(t, -1, 1) * row[:, None, :]
            block[:, k] = row
            is_pivot[i] = True
            rows.append(i)
            cols.append(start + col)
        block = _mod(block, modulus)
        work[:, members, start:stop] = block[:, :, :width]
        if stop < n_cols:
            work[:, members, stop:] = _mod(block[:, :, width:] @ work[:, members, stop:], modulus)
        start = stop
    order = np.argsort(rows)
    independent = np.array(rows, dtype=np.int64)[order]
    pivots = np.array(cols, dtype=np.int64)[order]
    return pivots, -work[:, independent[:, None], _complement(pivots, n_cols)], independent


def _complement(pivots: np.ndarray, n_cols: int) -> np.ndarray:
    """The columns 0..n_cols-1 that are not pivots, in increasing order."""
    return np.delete(np.arange(n_cols), pivots)


def _reduce(
    pivots: np.ndarray, tail: np.ndarray, rows: np.ndarray, modulus: int
) -> np.ndarray:
    """`rows` minus their combination of the basis (pivots, tail) that clears
    the pivot columns, as matrices on the non-pivot columns, for a stack of
    bases and rows: one product and one reduction mod p. Its rank is the
    rank `rows` add to the basis.

    Each column of `rows` is copied once: the pivot columns into the
    product's operand, the others into a sum formed in the product's own
    buffer. One gather of all of them, pivots first, does the same work in
    an array twice the size; on a 487 x 861 reduction its fresh pages cost
    1,583 page faults a call against 24, and doubled the time.
    """
    out = rows[..., pivots] @ tail
    out += rows[..., _complement(pivots, rows.shape[-1])]
    return _mod(out, modulus)


def _rank(a: np.ndarray, modulus: int) -> int:
    """Rank shared by a stack of matrices in `_rref`'s input form: the rank
    of their top half plus that of their bottom half reduced against the top
    half's basis, so the basis of the whole is never back-substituted.
    Leaves of at most LEAF_ROWS rows go through `_leaf`."""
    if a.shape[1] <= LEAF_ROWS:
        return _leaf(a, modulus)[0].size
    half = a.shape[1] // 2
    pivots, tail, _ = _rref(a[:, :half], modulus)
    return pivots.size + _rank(_reduce(pivots, tail, a[:, half:], modulus), modulus)


def rank(rows: np.ndarray | Sequence[Sequence[int]], modulus: int) -> int:
    """Exact rank of an integer matrix over GF(modulus); empty matrices have rank 0.

    Matrices go through the blocked float64 kernel, as a stack of one,
    where `_blocked` finds it exact, the rest through the int64 row loop
    `_eliminate`; both routes give the same rank.
    """
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    if _blocked(a.shape[1], modulus):
        return _rank((a % modulus).astype(np.float64)[None], modulus)
    return len(_eliminate(a % modulus, modulus)[0])


def nullspace(rows: np.ndarray, modulus: int) -> np.ndarray:
    """Basis (as matrix rows) of the right kernel {v : rows @ v = 0} over GF(modulus)."""
    a = np.array(rows, dtype=np.int64) % modulus
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    independent, pivots = _eliminate(a, modulus)
    free = _complement(np.array(pivots, dtype=np.int64), a.shape[1])
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -a[independent][:, free].T % modulus
    return basis


def tangent_slice(
    cofactors: Sequence[np.ndarray], j: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """Rows spanning the degree-j piece of the ideal generated by the
    all-but-one factor products of one factored form, as a float64 matrix;
    a stack of them, one per form, when the cofactors carry a leading axis.

    One block of rows per cofactor: all its monomial multiples of degree j.
    Row k of the blocks, taken in turn, is row rows[k] of the slice (k by
    default), so a reordered slice is built in place. Cofactors of degree
    above j contribute no rows. At j = d the row span is the affine cone
    over the tangent space of the variety of split forms at that point.
    """
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    sizes = [num_monomials(j - e) if e <= j else 0 for e in map(form_degree, cofactors)]
    out = np.zeros(cofactors[0].shape[:-1] + (sum(sizes), num_monomials(j)))
    if rows is None:
        rows = np.arange(sum(sizes))
    start = 0
    for cofactor, size in zip(cofactors, sizes):
        monomial_multiples(cofactor, j, out, rows[start : start + size])
        start += size
    return out


def _draw_cofactors(partition: Partition, seeds: Sequence[int], prime: int) -> list[np.ndarray]:
    """Cofactor products of one random point per seed, stacked along a
    leading axis: one factor per degree, each drawn from its own derived
    seed stream."""
    field = PrimeField(prime)
    factors = [
        np.array([random_form(field, di, derive_seed(seed, i)) for seed in seeds])
        for i, di in enumerate(partition.parts)
    ]
    return cofactor_products(factors, prime)


def _hilbert_order(cofactors: Sequence[np.ndarray], d: int) -> tuple[np.ndarray, np.ndarray]:
    """The row of the degree-d tangent slice that each row of its blocks
    moves to, so that, for every j = 0..d, the rows spanning x0^(d-j) times
    the degree-j slice come first, and the number of those rows for each j.

    Row m * G_i, for a cofactor G_i of degree e and a monomial m of degree
    d - e, lies in x0^(d-j) times the degree-j slice exactly when e plus the
    degree of m in x1, x2 is at most j. The rows are sorted stably by that
    key. Multiplying by x0^(d-j) is injective, so the rank of the first
    count[j] rows is the dimension of the degree-j slice, for every draw and
    every prime. Both depend on the cofactor degrees only.
    """
    keys = np.concatenate([x0_codegree(d - e) + e for e in map(form_degree, cofactors)])
    order = np.argsort(keys, kind="stable")
    counts = np.searchsorted(keys[order], np.arange(d + 1), side="right")
    return np.argsort(order), counts


def _pair_ranks(slices: Iterator[np.ndarray], modulus: int) -> tuple[np.ndarray, int]:
    """Row rank profile of a stack of matrices F and the rank of each F
    stacked over its G, for stacks F and G of float64 matrices with entries
    in [0, modulus) given one after the other by `slices`, on which
    `_blocked` allows the kernel: one elimination, shared by the stack (see
    `_rref`, which raises `_Diverged` where it cannot be).

    The stacked matrices are never built: F's elimination gives its profile
    and its basis, the stacked rank is rank F plus the rank of G reduced
    against that basis, and G is taken from `slices` only once F is gone, so
    one stack is held at a time.
    """
    slice_f = next(slices)
    pivots, tail, independent = _rref(slice_f, modulus)
    del slice_f
    return independent, pivots.size + _rank(_reduce(pivots, tail, next(slices), modulus), modulus)


def _trial_ranks(
    partition: Partition, seeds: Sequence[int], prime: int
) -> list[tuple[list[int], int]]:
    """Each trial's measurements, one elimination per trial or per stack of
    trials: for each trial seed, the slice dimensions j = 0..d at its first
    point F, drawn at derive_seed(seed, 0), and the rank of the degree-d
    slices of F and of its second point G, drawn at derive_seed(seed, 1),
    stacked.

    Every trial's points are drawn at once, so each cofactor product is one
    call for all of them. F's slices are built in Hilbert order
    (`_hilbert_order`); G's rows stay in block order, which leaves the
    stacked rank alone. The trials go through `_pair_ranks` as one stack
    while trials * cols**2 <= BATCH_CELLS, else one at a time, and a stack
    whose matrices diverge runs again one trial at a time; so each trial's
    ranks are those of its own elimination. Where `_blocked` rejects the
    prime, each trial's F stacked over G goes through the int64 row loop
    `_eliminate`, whose profile is cut at F's rows.
    """
    d = partition.d
    f, g = (_draw_cofactors(partition, [derive_seed(s, k) for s in seeds], prime) for k in (0, 1))
    hilbert_rows, counts = _hilbert_order(f, d)
    n_cols = num_monomials(d)
    blocked = _blocked(n_cols, prime)

    def ranks(trials: slice) -> tuple[np.ndarray, int]:
        slices = (
            tangent_slice([c[trials] for c in cofactors], d, rows)
            for cofactors, rows in ((f, hilbert_rows), (g, None))
        )
        if blocked:
            return _pair_ranks(slices, prime)
        (stacked,) = np.concatenate(list(slices), axis=1).astype(np.int64)
        independent = np.array(_eliminate(stacked, prime)[0], dtype=np.int64)
        return independent[: np.searchsorted(independent, hilbert_rows.size)], independent.size

    measured = None
    if blocked and len(seeds) * n_cols**2 <= BATCH_CELLS:
        try:
            measured = [ranks(slice(None))] * len(seeds)
        except _Diverged:
            pass
    if measured is None:
        measured = [ranks(slice(k, k + 1)) for k in range(len(seeds))]
    return [
        (np.searchsorted(independent, counts).tolist(), rank_joint)
        for independent, rank_joint in measured
    ]


@dataclass(frozen=True)
class SecantTrial:
    """Measurements from one independent pair of factor draws F and G.

    slice_dims are the dimensions of F's degree-j tangent slices, j = 0..d;
    dim_IZ is 2m - rank_joint, with m the largest degree-d slice rank over
    the trials it was measured with.
    """

    seed: int
    slice_dims: tuple[int, ...]
    rank_joint: int
    dim_IZ: int

    @property
    def dim_IF(self) -> int:
        return self.slice_dims[-1]

    @property
    def dim_sigma2(self) -> int:
        return self.rank_joint - 1


def secant_trials(
    partition: Partition,
    trials: int,
    base_seed: int,
    *,
    prime: int = DEFAULT_PRIME,
) -> list[SecantTrial]:
    """Run independent two-point trials: draw factor sets for two general
    points F and G, and measure, with one elimination per trial or per stack
    of trials (`_trial_ranks`), F's whole Hilbert function and the rank of
    the two degree-d tangent slices stacked.

    Per trial: dim_sigma2 = rank(stacked) - 1 and, through the dimension
    formula for a sum of subspaces, dim_IZ = 2m - rank(stacked), with m the
    largest rank of F's degree-d slice over all trials. A stacked rank never
    exceeds its generic value, so once m is generic no trial's dim_IZ falls
    below the generic intersection dimension, however unlucky its draw. A
    slice rank above its generic value, or a trial value of dim_sigma2 above
    the parameter-count bound, is impossible and raises SemicontinuityError.
    G's slice rank is not measured: G is drawn through the same code as F,
    independently and with the same distribution, so any fault that could
    push G's rank above generic shows in F's.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    # A slice spans the tangent space to the affine cone over X at the point.
    generic_slice_dim = dim_variety(partition) + 1
    sigma2_cap = expected_dim_sigma2(partition)
    seeds = [derive_seed(base_seed, t) for t in range(trials)]
    measured = _trial_ranks(partition, seeds, prime)
    for slice_dims, rank_joint in measured:
        if slice_dims[-1] > generic_slice_dim:
            raise SemicontinuityError(
                f"{partition}: trial rank above generic "
                f"({slice_dims[-1]} > {generic_slice_dim})"
            )
        if rank_joint - 1 > sigma2_cap:
            raise SemicontinuityError(
                f"{partition}: sigma2 above the parameter count ({rank_joint - 1} > {sigma2_cap})"
            )
    m = max(slice_dims[-1] for slice_dims, _ in measured)
    return [
        SecantTrial(seed, tuple(slice_dims), rank_joint, 2 * m - rank_joint)
        for seed, (slice_dims, rank_joint) in zip(seeds, measured)
    ]


def oracle_dim_IZ(
    partition: Partition,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    *,
    prime: int = DEFAULT_PRIME,
) -> int:
    """Measured dimension of the degree-d intersection of the two tangent
    ideals: the minimum over trials of their dim_IZ (see `secant_trials`)."""
    return min(t.dim_IZ for t in secant_trials(partition, trials, base_seed, prime=prime))


CHECK_RESIDUAL = "residual"
CHECK_RESIDUAL_PLUS_POINTS = "residual_plus_points"


@dataclass(frozen=True)
class BoundCheck:
    """One inequality dim_IZ <= bound, with its outcome."""

    kind: str
    bound: int
    passed: bool


@dataclass(frozen=True)
class SpecializationReport:
    """Oracle-measured dimensions for a partition and its line-split reduction.

    Splitting a line off the e-th factor sends the partition to `reduced`
    (that degree lowered by one, total degree d-1) and bounds the original
    intersection dimension:

    - "residual": dim_IZ(d) <= dim_IZ_reduced(d-1), valid when 1 < d_e < s_e;
    - "residual_plus_points": dim_IZ(d) <= dim_IZ_reduced(d-1) + d1 - s + 1,
      valid when e = 1, d1 > 1 and d1 >= s - 1.
    """

    partition: Partition
    e: int
    reduced: Partition
    prime: int
    trials: int
    seed: int
    dim_IZ: int
    dim_IZ_reduced: int
    checks: tuple[BoundCheck, ...]
    passed: bool
    trials_full: tuple[SecantTrial, ...]
    trials_reduced: tuple[SecantTrial, ...]


def specialization_check(
    partition: Partition,
    e: int,
    seed: int = DEFAULT_SEED,
    *,
    prime: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
) -> SpecializationReport:
    """Measure both sides of every applicable line-splitting inequality.

    Raises NotApplicableError when d_e = 1 or when neither inequality's degree
    conditions hold (for example the balanced two-factor case d1 = d2, e = 2).
    """
    if not 1 <= e <= partition.r:
        raise ValueError(f"factor index {e} out of range 1..{partition.r}")
    q = derived(partition)
    d_e = partition.parts[e - 1]
    if d_e < 2:
        raise NotApplicableError(
            f"factor {e} of {partition} has degree 1; no line can be split off"
        )
    applies_residual = d_e < q.s_e[e - 1]
    applies_plus_points = e == 1 and partition.parts[0] >= q.s - 1
    if not (applies_residual or applies_plus_points):
        raise NotApplicableError(
            f"no specialization bound applies to {partition} at factor {e}"
        )
    reduced = partition.decrement(e)
    trials_full = tuple(
        secant_trials(partition, trials, derive_seed(seed, 0), prime=prime)
    )
    trials_reduced = tuple(
        secant_trials(reduced, trials, derive_seed(seed, 1), prime=prime)
    )
    dim_IZ = min(t.dim_IZ for t in trials_full)
    dim_IZ_reduced = min(t.dim_IZ for t in trials_reduced)
    checks = []
    if applies_residual:
        checks.append(
            BoundCheck(CHECK_RESIDUAL, dim_IZ_reduced, dim_IZ <= dim_IZ_reduced)
        )
    if applies_plus_points:
        bound = dim_IZ_reduced + partition.parts[0] - q.s + 1
        checks.append(
            BoundCheck(CHECK_RESIDUAL_PLUS_POINTS, bound, dim_IZ <= bound)
        )
    return SpecializationReport(
        partition=partition,
        e=e,
        reduced=reduced,
        prime=prime,
        trials=trials,
        seed=seed,
        dim_IZ=dim_IZ,
        dim_IZ_reduced=dim_IZ_reduced,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        trials_full=trials_full,
        trials_reduced=trials_reduced,
    )


@dataclass(frozen=True)
class OracleReport:
    """Measured ranks and dimensions for one partition, paired with predictions.

    The verdict is MATCH when every measurement equals its prediction,
    ORACLE_ABOVE_THEORY when any measurement lands on the side semicontinuity
    forbids (a hard failure), and ORACLE_BELOW_THEORY otherwise (a non-generic
    draw, which more trials would fix).
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
        }


def _verdict(measured: dict, predicted: dict) -> str:
    """Classify the measurement against the prediction, direction-aware.

    dim_IF_d and dim_sigma2 are ranks: they can only sit at or below the generic
    value, so measured > predicted is the impossible side. Hilbert values are
    coranks: measured < predicted is impossible. dim_IZ below its prediction
    is impossible only once a slice rank reached the generic value (see
    `secant_trials`), so it counts as above only when dim_IF_d matches.
    """
    above = below = False
    for key in ("dim_IF_d", "dim_sigma2"):
        if measured[key] > predicted[key]:
            above = True
        elif measured[key] < predicted[key]:
            below = True
    for m, pr in zip(measured["hilbert"], predicted["hilbert"]):
        if m < pr:
            above = True
        elif m > pr:
            below = True
    if (
        measured["dim_IZ"] < predicted["dim_IZ"]
        and measured["dim_IF_d"] == predicted["dim_IF_d"]
    ):
        above = True
    elif measured["dim_IZ"] != predicted["dim_IZ"]:
        below = True
    if above:
        return VERDICT_ABOVE
    return VERDICT_BELOW if below else VERDICT_MATCH


def verify(
    partition: Partition,
    *,
    prime: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
) -> OracleReport:
    """Measure every predicted dimension for one partition and compare.

    Every measurement comes from the trials of `secant_trials`, one
    elimination each: each slice dimension of the Hilbert function j = 0..d
    (whose j = d entry is the degree-d slice dimension) is the max over the
    trial points, the secant-line dimension the max over trials, and the
    intersection dimension the min over trials of 2m - rank_joint.
    """
    d = partition.d
    predicted = {
        "dim_IF_d": dim_variety(partition) + 1,
        "hilbert": [hilbert_function_theory(partition, j) for j in range(d + 1)],
        "dim_sigma2": dim_sigma2_theory(partition),
        "dim_IZ": dim_IZ_theory(partition),
    }
    trial_data = secant_trials(partition, trials, base_seed, prime=prime)
    slice_dims = [max(dims) for dims in zip(*(t.slice_dims for t in trial_data))]
    measured = {
        "dim_IF_d": slice_dims[-1],
        "hilbert": [num_monomials(j) - dim for j, dim in enumerate(slice_dims)],
        "dim_sigma2": max(t.dim_sigma2 for t in trial_data),
        "dim_IZ": min(t.dim_IZ for t in trial_data),
    }
    return OracleReport(
        partition=partition,
        prime=prime,
        trials=trials,
        base_seed=base_seed,
        seeds=tuple(t.seed for t in trial_data),
        measured=measured,
        predicted=predicted,
        trial_dim_sigma2=tuple(t.dim_sigma2 for t in trial_data),
        trial_dim_IZ=tuple(t.dim_IZ for t in trial_data),
        verdict=_verdict(measured, predicted),
    )
