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

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition from a tuple that is already canonical and valid: no
        sorting, no checks."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "parts", parts)
        return partition

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
    dimension of the projective space of degree-d plane curves. s = d - d1, and
    p = D - d1 * s sums the pairwise products of d2, ..., dr. The sign of
    two_p_minus_three_s = 2p - 3s decides the partition's side of the case list.
    """

    d: int
    D: int
    N: int
    s: int
    p: int
    two_p_minus_three_s: int


def derived(partition: Partition) -> DerivedQuantities:
    """Compute all derived quantities exactly; values beyond 64-bit are rejected."""
    parts = partition.parts
    d = squares = 0
    for di in parts:
        d += di
        squares += di * di
    # Sum over pairs i < j of d_i * d_j, from d^2 = sum d_i^2 + 2D.
    D = (d * d - squares) // 2
    N = comb(d + 2, 2) - 1
    if N > INT64_MAX or D > INT64_MAX:
        raise OverflowError(f"derived quantities of {partition} exceed 64-bit range")
    s = d - parts[0]
    p = D - parts[0] * s
    # One dict update in place of the frozen __init__'s setattr per field.
    q = object.__new__(DerivedQuantities)
    vars(q).update(d=d, D=D, N=N, s=s, p=p, two_p_minus_three_s=2 * p - 3 * s)
    return q


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
            for parts in _descending_partitions(d, r):
                yield Partition._trusted(parts)


def _descending_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing k-tuples of positive integers summing to n, k <= n, in
    increasing lexicographic order.

    The first spreads n as evenly as possible. Each next one raises by one
    the last part that can be raised, keeping the tuple non-increasing and
    leaving the parts after it at least 1 each and at most the raised part,
    and spreads what is left over those parts as evenly as possible: the
    smallest tuple that starts with the raised prefix.
    """
    parts = _even(n, k)
    while True:
        yield tuple(parts)
        suffix = parts[-1]
        for i in range(k - 2, -1, -1):
            suffix += parts[i]
            raised = parts[i] + 1
            after = k - 1 - i
            rest = suffix - raised
            if (i == 0 or raised <= parts[i - 1]) and after <= rest <= after * raised:
                parts[i:] = [raised, *_even(rest, after)]
                break
        else:
            return


def _even(n: int, k: int) -> list[int]:
    """n spread over k non-increasing parts that differ by at most one."""
    q, extra = divmod(n, k)
    return [q + 1] * extra + [q] * (k - extra)
