"""Exact-rank measurements of every dimension the closed forms predict.

The oracle works over a large prime field: ranks of matrices specialized from
a generic construction can only drop, never rise, so the maximum rank seen over
a few random trials is a certified lower bound for the generic rank, and
agreement with the closed-form value certifies both sides. The dimension of
the intersection of two such row spaces is taken as 2m minus the rank of the
two stacked, with m the largest single-slice rank seen: the stacked rank can
only drop, so once m is generic that value can only sit at or above the
generic intersection, and its minimum over trials is aggregated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .formulas import (
    dim_IZ_theory,
    dim_sigma2_theory,
    expected_dim_sigma2,
    hilbert_function_theory,
)
from .gfpoly import (
    DEFAULT_PRIME,
    PrimeField,
    cofactor_products,
    derive_seed,
    form_degree,
    monomial_multiples,
    num_monomials,
    random_form,
    x0_codegree,
)
from .partitions import Partition, derived

DEFAULT_TRIALS = 3
DEFAULT_SEED = 0

VERDICT_MATCH = "MATCH"
VERDICT_BELOW = "ORACLE_BELOW_THEORY"
VERDICT_ABOVE = "ORACLE_ABOVE_THEORY"

# Rows per leaf of the blocked kernel `_rref`.
LEAF_ROWS = 16
# Matrices with at most this many columns stay on `_echelon`. On real tangent
# slices the kernel beats it from about 80 columns for a trial's pair of
# slices and from about 190 for a single rank; below this width every verify
# sweep to d = 14 keeps off BLAS and its buffer.
BLAS_MIN_COLS = 128


class NotApplicableError(ValueError):
    """The degree conditions for the requested specialization bound are not met."""


class SemicontinuityError(RuntimeError):
    """A measured rank exceeded the generic value it can only fall short of.

    No unlucky draw can cause this; it means the oracle itself is wrong.
    """


def _echelon(a: np.ndarray, modulus: int, reduced: bool = False) -> list[int]:
    """In-place Gaussian elimination mod `modulus`, one column at a time;
    returns the pivot columns.

    Entries must already be reduced to [0, modulus). With modulus < 2**31 every
    intermediate product fits in int64, so the vectorized row updates are exact
    at every allowed prime. With `reduced`, entries above each pivot are cleared
    too, leaving the first len(pivots) rows in reduced row echelon form. This is
    the exact route for small matrices and for primes too large for float64
    products, and it eliminates the leaves of the blocked kernel `_rref`.
    """
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        hits = np.nonzero(a[row:, col])[0]
        if hits.size == 0:
            continue
        top = row + int(hits[0])
        if top != row:
            a[[row, top]] = a[[top, row]]
        inv = pow(int(a[row, col]), modulus - 2, modulus)
        a[row, col:] = a[row, col:] * inv % modulus
        below = np.nonzero(a[row + 1 :, col])[0]
        if below.size:
            rows = row + 1 + below
            a[rows, col:] = (a[rows, col:] - np.outer(a[rows, col], a[row, col:])) % modulus
        if reduced and row:
            above = np.nonzero(a[:row, col])[0]
            if above.size:
                a[above, col:] = (
                    a[above, col:] - np.outer(a[above, col], a[row, col:])
                ) % modulus
        pivots.append(col)
        row += 1
    return pivots


def _mod(x: np.ndarray, modulus: int) -> np.ndarray:
    """x mod `modulus`, in [0, modulus), for a float64 array of integers with
    |x| <= 2**53 - 1; exact.

    floor(|x| / modulus) taken through the rounded reciprocal is off by at most
    one either way, and when it is one too high, q * modulus <= |x| + 1 <= 2**53,
    so every product and difference below is an exact integer. The kernel only
    passes x >= 0. (np.fmod is exact too, but several times slower.)
    """
    a = np.abs(x)
    r = np.floor(a * (1.0 / modulus))
    r *= modulus
    np.subtract(a, r, out=r)
    r[r < 0] += modulus
    r[r >= modulus] -= modulus
    negative = (x < 0) & (r > 0)
    r[negative] = modulus - r[negative]
    return r


def _blocked(n_cols: int, modulus: int) -> bool:
    """The route for a matrix with `n_cols` columns: True for the blocked
    float64 kernel, False for the int64 column loop `_echelon`.

    The kernel is taken above BLAS_MIN_COLS columns, and only where it is
    exact. Each of its float64 products adds one entry in [0, modulus) to a
    sum of at most n_cols products of entries in [0, modulus), and float64
    holds every such partial sum exactly while n_cols * (modulus - 1)**2 +
    modulus - 1 < 2**53: up to 9007 columns at modulus 1,000,003, and never
    for moduli above about 8.36 million.
    """
    return n_cols > BLAS_MIN_COLS and n_cols * (modulus - 1) ** 2 + modulus - 1 < 2**53


def _rref(a: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon basis of the row space of a float64 matrix with
    integer entries in [0, modulus), on which `_blocked` allows the kernel.

    Returns (pivots, tail): row i of the basis is the unit vector at column
    pivots[i] minus tail[i] spread over the non-pivot columns in increasing
    order (tail has entries in [0, modulus)). Storing minus the free part keeps
    every product of the merge step non-negative, and the identity block on
    the pivot columns is never stored.

    Recursive: eliminate the top half of the rows, then merge the bottom half
    into that basis with `_extend`. Leaves of at most LEAF_ROWS rows go
    through `_echelon` on their non-zero columns.
    """
    n_rows, n_cols = a.shape
    if n_rows > LEAF_ROWS:
        half = n_rows // 2
        return _extend(*_rref(a[:half], modulus), a[half:], modulus)
    live = np.flatnonzero(a.any(axis=0))
    work = a[:, live].astype(np.int64)
    found = _echelon(work, modulus, reduced=True)
    basis = np.zeros((len(found), n_cols))
    basis[:, live] = work[: len(found)]
    pivots = live[found]
    return pivots, -basis[:, _complement(pivots, n_cols)] % modulus


def _complement(pivots: np.ndarray, n_cols: int) -> np.ndarray:
    """The columns 0..n_cols-1 that are not pivots, in increasing order."""
    return np.delete(np.arange(n_cols), pivots)


def _reduce(
    pivots: np.ndarray, tail: np.ndarray, rows: np.ndarray, modulus: int
) -> np.ndarray:
    """`rows` minus their combination of the basis (pivots, tail) that clears
    the pivot columns, as a matrix on the non-pivot columns: one product,
    one reduction mod p. Its rank is the rank `rows` add to the basis."""
    free = _complement(pivots, rows.shape[1])
    return _mod(rows[:, free] + rows[:, pivots] @ tail, modulus)


def _rank(a: np.ndarray, modulus: int) -> int:
    """Rank of a matrix in `_rref`'s input form: the rank of its top half
    plus that of its bottom half reduced against the top half's basis, so
    the basis of the whole is never back-substituted."""
    if a.shape[0] <= LEAF_ROWS:
        return len(_echelon(a.astype(np.int64), modulus))
    half = a.shape[0] // 2
    pivots, tail = _rref(a[:half], modulus)
    return pivots.size + _rank(_reduce(pivots, tail, a[half:], modulus), modulus)


def _extend(
    pivots: np.ndarray, tail: np.ndarray, rows: np.ndarray, modulus: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon basis, in `_rref`'s form, of the row space of the
    basis (pivots, tail) together with `rows`.

    Reduce `rows` against the basis, eliminate that residual (already
    compressed to the non-pivot columns) recursively, then clear its new
    pivot columns from the old basis rows with a second product.
    """
    free = _complement(pivots, rows.shape[1])
    new_pivots, new_tail = _rref(_reduce(pivots, tail, rows, modulus), modulus)
    if new_pivots.size == 0:
        return pivots, tail
    keep = _complement(new_pivots, free.size)
    top = _mod(tail[:, keep] + tail[:, new_pivots] @ new_tail, modulus)
    return np.concatenate([pivots, free[new_pivots]]), np.vstack([top, new_tail])


def _independent_rows(a: np.ndarray, modulus: int) -> np.ndarray:
    """Row rank profile of an integer matrix: the indices, in increasing
    order, of the rows that are independent of the rows above them mod
    `modulus`. The number of them below k is the rank of the first k rows.

    They are the pivot columns of the transpose, which is eliminated by the
    blocked kernel where `_blocked` allows it for that many columns and by
    `_echelon` otherwise. Both give the pivot columns of the reduced row
    echelon form, which is unique.
    """
    at = np.ascontiguousarray(a.T) % modulus
    if _blocked(at.shape[1], modulus):
        return np.sort(_rref(at.astype(np.float64), modulus)[0])
    return np.array(_echelon(at, modulus), dtype=np.int64)


def _pair_ranks(slices: Iterator[np.ndarray], modulus: int) -> tuple[int, int, int]:
    """Ranks of two integer matrices F and G, given one after the other by
    `slices`, and of F and G stacked: two eliminations.

    On the narrow route, rank F and the stacked rank both come from the row
    rank profile of the stacked matrix, and G gets its own `_echelon`. On the
    blocked route the stacked matrix is never built: its rank is rank F plus
    the rank of G reduced against F's echelon basis, and only one slice is
    held at a time.
    """
    slice_f = next(slices)
    if not _blocked(slice_f.shape[1], modulus):
        slice_g = next(slices)
        independent = _independent_rows(np.vstack([slice_f, slice_g]), modulus)
        return (
            int(np.searchsorted(independent, slice_f.shape[0])),
            len(_echelon(slice_g % modulus, modulus)),
            independent.size,
        )
    pivots, tail = _rref((slice_f % modulus).astype(np.float64), modulus)
    del slice_f
    slice_g = (next(slices) % modulus).astype(np.float64)
    rank_g = _rank(slice_g, modulus)
    added = _rank(_reduce(pivots, tail, slice_g, modulus), modulus)
    return pivots.size, rank_g, pivots.size + added


def rank(rows: np.ndarray | Sequence[Sequence[int]], modulus: int) -> int:
    """Exact rank of an integer matrix over GF(modulus); empty matrices have rank 0.

    Wide matrices go through the blocked float64 kernel where `_blocked`
    finds it exact, the rest through the int64 column loop `_echelon`; both
    routes give the same rank.
    """
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    if _blocked(a.shape[1], modulus):
        return _rank((a % modulus).astype(np.float64), modulus)
    return len(_echelon(a % modulus, modulus))


def nullspace(rows: np.ndarray, modulus: int) -> np.ndarray:
    """Basis (as matrix rows) of the right kernel {v : rows @ v = 0} over GF(modulus)."""
    a = np.array(rows, dtype=np.int64) % modulus
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    n_cols = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(n_cols, dtype=np.int64)
    pivots = _echelon(a, modulus, reduced=True)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for k, free_col in enumerate(free):
        basis[k, free_col] = 1
        for pivot_row, pivot_col in enumerate(pivots):
            basis[k, pivot_col] = (-int(a[pivot_row, free_col])) % modulus
    return basis


def tangent_slice(cofactors: Sequence[np.ndarray], j: int) -> np.ndarray:
    """Rows spanning the degree-j piece of the ideal generated by the
    all-but-one factor products of one factored form.

    One block of rows per cofactor: all its monomial multiples of degree j.
    Cofactors of degree above j contribute no rows. At j = d the row span is
    the affine cone over the tangent space of the variety of split forms at
    that point.
    """
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    return np.vstack([monomial_multiples(c, j) for c in cofactors])


def _draw_cofactors(partition: Partition, seed: int, prime: int) -> list[np.ndarray]:
    """Cofactor products of one random point: one factor per degree, each
    drawn from its own derived seed stream."""
    field = PrimeField(prime)
    factors = [
        random_form(field, di, derive_seed(seed, i))
        for i, di in enumerate(partition.parts)
    ]
    return cofactor_products(factors, prime)


def oracle_dim_IF(
    partition: Partition, seed: int, *, prime: int = DEFAULT_PRIME
) -> list[int]:
    """Measured dimensions of the degree-j slices of the tangent ideal, for
    j = 0..d, all at one random point. The Hilbert function value at j is
    C(j+2,2) minus entry j; at j = d the generic value is C(d+2,2) - D.

    One elimination of the degree-d slice gives them all. Its row m * G_i,
    for a cofactor G_i of degree e and a monomial m of degree d - e, lies in
    x0^(d-j) times the degree-j slice exactly when e plus the degree of m
    in x1, x2 is at most j; multiplying by x0^(d-j) is injective, so the
    degree-j dimension is the rank of those rows. Sorted stably by that key,
    every slice is a prefix, and its rank is read off the row rank profile.
    """
    d = partition.d
    cofactors = _draw_cofactors(partition, seed, prime)
    keys = np.concatenate([x0_codegree(d - e) + e for e in map(form_degree, cofactors)])
    order = np.argsort(keys, kind="stable")
    independent = _independent_rows(tangent_slice(cofactors, d)[order], prime)
    prefixes = np.searchsorted(keys[order], np.arange(d + 1), side="right")
    return np.searchsorted(independent, prefixes).tolist()


@dataclass(frozen=True)
class SecantTrial:
    """Measurements from one independent pair of factor draws."""

    seed: int
    dim_IF: int
    dim_IG: int
    rank_joint: int
    dim_sigma2: int
    dim_IZ: int


def secant_trials(
    partition: Partition,
    trials: int,
    base_seed: int,
    *,
    prime: int = DEFAULT_PRIME,
) -> list[SecantTrial]:
    """Run independent two-point trials: draw factor sets for two general points,
    rank their degree-d tangent slices and the two stacked, and record all
    ranks (`_pair_ranks`; wide slices never build the stacked matrix).

    Per trial: dim_sigma2 = rank(stacked) - 1 and, through the dimension formula
    for a sum of subspaces, dim_IZ = dim_IF + dim_IG - rank(stacked). That
    trial value falls below the generic one when either slice rank falls
    short, so aggregates go through `_min_dim_IZ`. A slice rank above its
    generic value, or a trial value of dim_sigma2 above the parameter-count
    bound, is impossible and raises SemicontinuityError.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    q = derived(partition)
    generic_slice_dim = comb(q.d + 2, 2) - q.D
    sigma2_cap = min(expected_dim_sigma2(partition), q.N)
    out = []
    for t in range(trials):
        trial_seed = derive_seed(base_seed, t)
        slices = (
            tangent_slice(_draw_cofactors(partition, derive_seed(trial_seed, k), prime), q.d)
            for k in (0, 1)
        )
        rank_f, rank_g, rank_joint = _pair_ranks(slices, prime)
        if max(rank_f, rank_g) > generic_slice_dim:
            raise SemicontinuityError(
                f"{partition}: trial rank above generic "
                f"({rank_f}, {rank_g} > {generic_slice_dim})"
            )
        dim_sigma2 = rank_joint - 1
        if dim_sigma2 > sigma2_cap:
            raise SemicontinuityError(
                f"{partition}: sigma2 above the parameter count ({dim_sigma2} > {sigma2_cap})"
            )
        out.append(
            SecantTrial(
                seed=trial_seed,
                dim_IF=rank_f,
                dim_IG=rank_g,
                rank_joint=rank_joint,
                dim_sigma2=dim_sigma2,
                dim_IZ=rank_f + rank_g - rank_joint,
            )
        )
    return out


def _min_dim_IZ(trials: Sequence[SecantTrial], slice_rank: int = 0) -> int:
    """Aggregate intersection dimension: the minimum over trials of 2m minus
    the stacked rank, with m the largest degree-d slice rank among the
    trials and `slice_rank`.

    A stacked rank never exceeds its generic value, so whenever m is the
    generic slice rank this cannot fall below the generic intersection
    dimension, however unlucky some draws are.
    """
    m = max(slice_rank, *(max(t.dim_IF, t.dim_IG) for t in trials))
    return min(2 * m - t.rank_joint for t in trials)


def oracle_dim_IZ(
    partition: Partition,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    *,
    prime: int = DEFAULT_PRIME,
) -> int:
    """Measured dimension of the degree-d intersection of the two tangent
    ideals, aggregated over trials by `_min_dim_IZ`."""
    return _min_dim_IZ(secant_trials(partition, trials, base_seed, prime=prime))


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
    dim_IZ = _min_dim_IZ(trials_full)
    dim_IZ_reduced = _min_dim_IZ(trials_reduced)
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
    `_min_dim_IZ`), so it counts as above only when dim_IF_d matches.
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

    Measures the full Hilbert function j = 0..d (whose j = d slice gives the
    degree-d slice dimension), the secant-line dimension, and the intersection
    dimension. The single-point measurements use the seed stream reserved at
    index `trials`, so they never collide with the per-trial streams
    0..trials-1.
    """
    q = derived(partition)
    d = q.d
    predicted = {
        "dim_IF_d": comb(d + 2, 2) - q.D,
        "hilbert": [hilbert_function_theory(partition, j) for j in range(d + 1)],
        "dim_sigma2": dim_sigma2_theory(partition),
        "dim_IZ": dim_IZ_theory(partition),
    }
    point_seed = derive_seed(base_seed, trials)
    trial_data = secant_trials(partition, trials, base_seed, prime=prime)
    slice_dims = oracle_dim_IF(partition, point_seed, prime=prime)
    measured = {
        "dim_IF_d": slice_dims[-1],
        "hilbert": [num_monomials(j) - dim for j, dim in enumerate(slice_dims)],
        "dim_sigma2": max(t.dim_sigma2 for t in trial_data),
        "dim_IZ": _min_dim_IZ(trial_data, slice_dims[-1]),
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
