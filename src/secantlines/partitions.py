"""Canonical factor-degree partitions and their derived combinatorial data."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

INT64_MAX = 2**63 - 1


class PartitionError(ValueError):
    """Input cannot form a valid factor-degree partition."""


class EmptyPartitionError(PartitionError):
    """The degree list is empty."""


class NonPositivePartError(PartitionError):
    """A degree is zero or negative."""


class TooFewPartsError(PartitionError):
    """Only one degree was given; a product needs at least two factors."""


@dataclass(frozen=True, order=True)
class Partition:
    """Factor degrees [d1 >= d2 >= ... >= dr], r >= 2, of a reducible plane curve.

    Inputs are canonicalized by sorting in non-increasing order, so two degree
    lists that are permutations of each other construct equal values. Instances
    are immutable and hashable.
    """

    parts: tuple[int, ...]

    def __init__(self, degrees: Iterable[int]) -> None:
        parts = tuple(sorted((operator.index(x) for x in degrees), reverse=True))
        if not parts:
            raise EmptyPartitionError("at least two factor degrees are required")
        if parts[-1] < 1:
            raise NonPositivePartError(
                f"factor degrees must be positive, got {parts[-1]}"
            )
        if len(parts) < 2:
            raise TooFewPartsError(
                "a single factor has no secant-line theory here; need r >= 2"
            )
        object.__setattr__(self, "parts", parts)

    @property
    def d(self) -> int:
        """Total degree of the product."""
        return sum(self.parts)

    @property
    def r(self) -> int:
        """Number of factors."""
        return len(self.parts)

    def decrement(self, e: int) -> "Partition":
        """New partition with the e-th degree (1-based, descending order) lowered by one."""
        if not 1 <= e <= self.r:
            raise ValueError(f"factor index {e} out of range 1..{self.r}")
        lowered = list(self.parts)
        lowered[e - 1] -= 1
        return Partition(lowered)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.parts) + "]"


@dataclass(frozen=True)
class DerivedQuantities:
    """Exact integer invariants of a partition.

    d is the total degree, D the sum of pairwise degree products (the number of
    pairwise intersection points of general factors), and N = C(d+2,2) - 1 the
    dimension of the projective space of degree-d plane curves. s_e[i] is the sum
    of all degrees except the (i+1)-th, p_e[i] = D - d_i * s_e[i], and s, p are
    the leading (e = 1) values. The sign of two_p_minus_three_s = 2p - 3s
    decides which side of the classification the partition falls on.
    """

    d: int
    D: int
    N: int
    s_e: tuple[int, ...]
    p_e: tuple[int, ...]
    s: int
    p: int
    two_p_minus_three_s: int


def derived(partition: Partition) -> DerivedQuantities:
    """Compute all derived quantities exactly; values beyond 64-bit are rejected."""
    parts = partition.parts
    d = sum(parts)
    # Sum over pairs i < j of d_i * d_j, from d^2 = sum d_i^2 + 2D.
    D = (d * d - sum(di * di for di in parts)) // 2
    N = comb(d + 2, 2) - 1
    if N > INT64_MAX or D > INT64_MAX:
        raise OverflowError(f"derived quantities of {partition} exceed 64-bit range")
    s_e = tuple(d - di for di in parts)
    p_e = tuple(D - di * se for di, se in zip(parts, s_e))
    s, p = s_e[0], p_e[0]
    return DerivedQuantities(
        d=d, D=D, N=N, s_e=s_e, p_e=p_e, s=s, p=p, two_p_minus_three_s=2 * p - 3 * s
    )


def enumerate_partitions(
    d_max: int, r_min: int = 2, r_max: int | None = None
) -> Iterator[Partition]:
    """Yield every canonical partition with r_min <= r <= r_max and total degree <= d_max.

    Each partition appears exactly once, ordered by ascending total degree d,
    then part count r, then lexicographically on the descending parts tuple
    (so for d = 4, r = 2: [2,2] before [3,1]).
    """
    if r_max is None:
        r_max = d_max
    # r parts need total degree >= r, so r_min > d_max leaves nothing to yield.
    if d_max < 2 or r_min < 2 or r_min > r_max or r_min > d_max:
        raise ValueError(
            f"invalid enumeration range: d_max={d_max}, r_min={r_min}, r_max={r_max}"
        )
    for d in range(2, d_max + 1):
        for r in range(r_min, min(r_max, d) + 1):
            for parts in _descending_partitions(d, r, d):
                yield Partition(parts)


def _descending_partitions(n: int, k: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing k-tuples of positive integers summing to n with first part <= cap."""
    if k == 1:
        if 1 <= n <= cap:
            yield (n,)
        return
    for first in range(-(-n // k), min(cap, n - k + 1) + 1):
        for rest in _descending_partitions(n - first, k - 1, first):
            yield (first, *rest)
