import random
from functools import lru_cache

import pytest

from secantlines.formulas import classify
from secantlines.partitions import (
    EmptyPartitionError,
    NonPositivePartError,
    Partition,
    TooFewPartsError,
    enumerate_partitions,
)


@lru_cache(maxsize=None)
def count_exact_parts(n, k):
    """Independent counter: partitions of n into exactly k positive parts."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    return count_exact_parts(n - 1, k - 1) + count_exact_parts(n - k, k)


class TestConstruction:
    def test_sorts_descending(self):
        assert Partition([1, 2]).parts == (2, 1)

    def test_already_canonical(self):
        assert Partition([2, 2, 2, 1]).parts == (2, 2, 2, 1)

    @pytest.mark.parametrize("base", [(2, 1), (3, 2, 2), (5, 1, 1, 1), (4, 4, 3, 2, 1)])
    def test_permutation_invariant(self, base):
        rng = random.Random(0)
        for _ in range(5):
            shuffled = list(base)
            rng.shuffle(shuffled)
            assert Partition(shuffled) == Partition(base)

    def test_idempotent(self):
        p = Partition([3, 1, 2])
        assert Partition(p.parts) == p

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartitionError):
            Partition([])

    @pytest.mark.parametrize("bad", [[0, 1], [-1, 2], [2, 2, 0]])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(NonPositivePartError):
            Partition(bad)

    def test_single_part_rejected(self):
        with pytest.raises(TooFewPartsError):
            Partition([3])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            Partition([1.5, 2])

    def test_hashable_and_iterable(self):
        p = Partition([2, 1])
        assert {p: 1}[Partition([1, 2])] == 1
        assert list(p) == [2, 1]
        assert str(p) == "[2,1]"

    def test_decrement(self):
        assert Partition([3, 2, 1]).decrement(1) == Partition([2, 2, 1])
        assert Partition([3, 2, 2]).decrement(3) == Partition([3, 2, 1])
        with pytest.raises(ValueError):
            Partition([2, 1]).decrement(3)
        with pytest.raises(NonPositivePartError):
            Partition([2, 1]).decrement(2)


class TestDerived:
    @pytest.mark.parametrize(
        "parts, d, D, N, s, p",
        [
            ([2, 1, 1, 1], 5, 9, 20, 3, 3),
            ([7, 2], 9, 14, 54, 2, 0),
            ([9, 7, 2], 18, 95, 189, 9, 14),
        ],
    )
    def test_examples(self, parts, d, D, N, s, p):
        q = classify(Partition(parts))
        assert (q.d, q.D, q.N, q.s, q.p) == (d, D, N, s, p)

    def test_pairwise_identity_everywhere(self):
        # D = d1 * s + p, and 2D = d^2 - sum d_i^2
        for part in enumerate_partitions(12):
            q = classify(part)
            assert q.D == part.parts[0] * q.s + q.p
            assert 2 * q.D == q.d**2 - sum(di**2 for di in part.parts)

    def test_p_e_zero_iff_two_parts(self):
        for part in enumerate_partitions(10):
            q = classify(part)
            assert (q.p == 0) == (part.r == 2)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            classify(Partition([2**40, 2**40]))


class TestEnumeration:
    def test_small_example(self):
        got = [p.parts for p in enumerate_partitions(3, 2, 3)]
        assert got == [(1, 1), (2, 1), (1, 1, 1)]

    def test_minimal(self):
        assert [p.parts for p in enumerate_partitions(2, 2, 2)] == [(1, 1)]

    def test_fixed_r(self):
        assert [p.parts for p in enumerate_partitions(4, 4, 4)] == [(1, 1, 1, 1)]

    def test_count_matches_independent_counter(self):
        got = list(enumerate_partitions(10))
        expected = sum(
            count_exact_parts(d, k) for d in range(2, 11) for k in range(2, d + 1)
        )
        assert len(got) == expected == 128
        assert len(set(got)) == len(got)

    def test_deterministic_order(self):
        got = list(enumerate_partitions(8))
        keys = [(p.d, p.r, p.parts) for p in got]
        assert keys == sorted(keys)

    def test_same_partitions_as_the_checked_constructor_in_order(self):
        # Partitions are yielded without the constructor's sorting and checks;
        # each must equal the one Partition(...) builds from its parts.
        def descending(n, cap):
            if n == 0:
                return [()]
            return [
                (first, *rest)
                for first in range(1, min(n, cap) + 1)
                for rest in descending(n - first, first)
            ]

        want = sorted(
            (d, len(parts), parts) for d in range(2, 21) for parts in descending(d, d)
            if len(parts) >= 2
        )
        got = list(enumerate_partitions(20))
        assert [(p.d, p.r, p.parts) for p in got] == want
        assert got == [Partition(parts) for _, _, parts in want]
        assert {hash(p) for p in got} == {hash(Partition(parts)) for _, _, parts in want}

    def test_all_canonical_and_in_range(self):
        for p in enumerate_partitions(9, 3, 5):
            assert 3 <= p.r <= 5
            assert p.d <= 9
            assert p.parts == tuple(sorted(p.parts, reverse=True))

    @pytest.mark.parametrize(
        "args", [(1, 2, 2), (10, 1, 3), (10, 4, 3), (0, 2, 2), (3, 5, 5)]
    )
    def test_invalid_ranges(self, args):
        # Raised by the call itself, before the iterator is advanced.
        with pytest.raises(ValueError):
            enumerate_partitions(*args)
