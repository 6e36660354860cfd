"""Canonical factor-degree partitions and their enumeration by total degree."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator


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


def enumerate_partitions(
    d_max: int, r_min: int = 2, r_max: int | None = None
) -> Iterator[Partition]:
    """Every canonical partition with r_min <= r <= r_max and total degree <= d_max.

    Each partition appears exactly once, ordered by ascending total degree d,
    then part count r, then lexicographically on the descending parts tuple
    (so for d = 4, r = 2: [2,2] before [3,1]). The range is checked when this
    is called, not when the iterator is first advanced.
    """
    if r_max is None:
        r_max = d_max
    # r parts need total degree >= r, so r_min > d_max leaves nothing to yield.
    if d_max < 2 or r_min < 2 or r_min > r_max or r_min > d_max:
        raise ValueError(
            f"invalid enumeration range: d_max={d_max}, r_min={r_min}, r_max={r_max}"
        )
    shapes = ((d, r) for d in range(2, d_max + 1) for r in range(r_min, min(r_max, d) + 1))
    return (Partition._trusted(parts) for d, r in shapes for parts in _descending_partitions(d, r))


def _descending_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing k-tuples of positive integers summing to n, k <= n, in
    increasing lexicographic order.

    The first spreads n as evenly as possible. Each next one raises by one
    the last part that can be raised, keeping the tuple non-increasing and
    leaving the parts after it at least 1 each and at most the raised part,
    and spreads what is left over those parts as evenly as possible: the
    smallest tuple that starts with the raised prefix.
    """
    q, extra = divmod(n, k)
    parts = [q + 1] * extra + [q] * (k - extra)
    while True:
        yield tuple(parts)
        suffix = parts[-1]
        for i in range(k - 2, -1, -1):
            suffix += parts[i]
            raised = parts[i] + 1
            after = k - 1 - i
            rest = suffix - raised
            if (i == 0 or raised <= parts[i - 1]) and after <= rest <= after * raised:
                q, extra = divmod(rest, after)
                parts[i:] = [raised] + [q + 1] * extra + [q] * (after - extra)
                break
        else:
            return
