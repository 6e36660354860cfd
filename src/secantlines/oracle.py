"""Exact-rank measurements of every dimension the closed forms predict.

The oracle works over a large prime field: ranks of matrices specialized from
a generic construction can only drop, never rise, so the maximum rank seen over
a few random trials is a certified lower bound for the generic rank, and
agreement with the closed-form value certifies both sides. Dually, the measured
dimension of an intersection of row spaces can only rise under specialization,
so those are aggregated by minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

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
    monomial_multiples,
    num_monomials,
    random_form,
)
from .partitions import Partition, derived

DEFAULT_TRIALS = 3
DEFAULT_SEED = 0

VERDICT_MATCH = "MATCH"
VERDICT_BELOW = "ORACLE_BELOW_THEORY"
VERDICT_ABOVE = "ORACLE_ABOVE_THEORY"


class NotApplicableError(ValueError):
    """The degree conditions for the requested specialization bound are not met."""


class SemicontinuityError(RuntimeError):
    """A measured rank exceeded the generic value it can only fall short of.

    No unlucky draw can cause this; it means the oracle itself is wrong.
    """


def _echelon(a: np.ndarray, modulus: int, reduced: bool = False) -> list[int]:
    """In-place Gaussian elimination mod `modulus`; returns the pivot columns.

    Entries must already be reduced to [0, modulus). With modulus < 2**31 every
    intermediate product fits in int64, so the vectorized row updates are exact.
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


def rank(rows: np.ndarray | Sequence[Sequence[int]], modulus: int) -> int:
    """Exact rank of an integer matrix over GF(modulus); empty matrices have rank 0."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
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
    C(j+2,2) minus entry j; at j = d the generic value is C(d+2,2) - D."""
    cofactors = _draw_cofactors(partition, seed, prime)
    return [
        rank(tangent_slice(cofactors, j), prime) for j in range(partition.d + 1)
    ]


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
    stack their degree-d tangent slices, and record all ranks.

    Per trial: dim_sigma2 = rank(stacked) - 1 and, through the dimension formula
    for a sum of subspaces, dim_IZ = dim_IF + dim_IG - rank(stacked). A slice
    rank above its generic value, or a trial value of dim_sigma2 above the
    parameter-count bound, is impossible and raises SemicontinuityError.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    q = derived(partition)
    generic_slice_dim = comb(q.d + 2, 2) - q.D
    sigma2_cap = min(expected_dim_sigma2(partition), q.N)
    out = []
    for t in range(trials):
        trial_seed = derive_seed(base_seed, t)
        slice_f, slice_g = (
            tangent_slice(_draw_cofactors(partition, derive_seed(trial_seed, k), prime), q.d)
            for k in (0, 1)
        )
        rank_f = rank(slice_f, prime)
        rank_g = rank(slice_g, prime)
        rank_joint = rank(np.vstack([slice_f, slice_g]), prime)
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


def oracle_dim_IZ(
    partition: Partition,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    *,
    prime: int = DEFAULT_PRIME,
) -> int:
    """Measured dimension of the degree-d intersection of the two tangent ideals;
    minimum over trials, since specialization only raises intersections."""
    return min(
        t.dim_IZ for t in secant_trials(partition, trials, base_seed, prime=prime)
    )


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
    value, so measured > predicted is the impossible side. Hilbert values and
    dim_IZ are coranks/intersections: measured < predicted is impossible.
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
    if measured["dim_IZ"] < predicted["dim_IZ"]:
        above = True
    elif measured["dim_IZ"] > predicted["dim_IZ"]:
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
