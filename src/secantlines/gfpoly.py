"""Dense trivariate forms over a prime field, with deterministic seeded sampling.

A form of degree d is an int64 numpy vector of its C(d+2, 2) coefficients in
the graded-lex order on monomials x0^a x1^b x2^c: a descending, then b
descending, so x0^d comes first and x2^d last. The degree follows from the
length. That order is known only to `product_index` and `exponents`:
products and monomial shifts are scatters through the positions
`product_index` returns, and any other question about the monomial at a
position is asked of its exponents. `multiply` is exact for a modulus below
2**31; the oracle's primes are far below that, as `oracle.check_prime` admits
none above about 1.7e7.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from math import comb, isqrt
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # SplitMix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SeedStream:
    """SplitMix64 stream: the same seed always yields the same 64-bit sequence."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def field_element(self, modulus: int) -> int:
        """Uniform element of [0, modulus) via rejection sampling (no modulo bias)."""
        limit = (1 << 64) - ((1 << 64) % modulus)
        while True:
            value = self.next_uint64()
            if value < limit:
                return value % modulus


def derive_seed(seed: int, *tags: int) -> int:
    """Stable child seed for a tagged substream (factor index, trial index, ...).

    Folding distinct tag tuples into the same parent seed yields statistically
    independent streams; the derivation is pure 64-bit mixing, so it is
    reproducible across platforms and sessions.
    """
    state = seed & _MASK64
    for tag in tags:
        state = _mix64((state + _GOLDEN * (tag + 1)) & _MASK64)
    return state


def num_monomials(degree: int) -> int:
    """Number of degree-d monomials in three variables: C(d+2, 2)."""
    return comb(degree + 2, 2)


def form_degree(f: np.ndarray) -> int:
    """Degree of a form, read off its coefficient count C(d+2, 2)."""
    count = len(f)
    degree = (isqrt(8 * count + 1) - 3) // 2
    if degree < 0 or num_monomials(degree) != count:
        raise ValueError(f"{count} coefficients is not C(d+2, 2) for any degree d")
    return degree


@lru_cache(maxsize=None)
def _grading(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Per graded-lex position of degree `degree`: t = b + c and the exponent c.

    Position t(t+1)/2 + c holds x0^(degree-t) x1^(t-c) x2^c. Cached, so both
    arrays are read-only.
    """
    t = np.repeat(np.arange(degree + 1), np.arange(1, degree + 2))
    c = np.arange(num_monomials(degree)) - t * (t + 1) // 2
    t.setflags(write=False)
    c.setflags(write=False)
    return t, c


def exponents(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per graded-lex position of degree `degree`: the exponents of x0, x1
    and x2 of its monomial. The x0 exponent never increases along the order."""
    t, c = _grading(degree)
    return degree - t, t - c, c


def _product_index(m: int, n: int, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    t_m, c_m = _grading(m)
    t_n, c_n = _grading(n)
    t = t_m[rows, None] + t_n[None, :]
    index = t * (t + 1) // 2 + c_m[rows, None] + c_n[None, :]
    index.setflags(write=False)
    return index


# Tables of at most this many entries (32 KB) are cached, 128 of them at
# most, so the cache never holds more than 4 MB. A sweep to d = 18 uses 187
# tables of at most 3,025 entries, 1 MB together, and looks each up about a
# thousand times. Larger tables come only with slices whose elimination costs
# far more than building the table again.
_CACHED_INDEX_ENTRIES = 4096
_cached_product_index = lru_cache(maxsize=128)(_product_index)


def product_index(m: int, n: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Positions, among degree-(m+n) monomials, of monomial products.

    Entry (i, k) is the position of the product of the i-th degree-m monomial
    and the k-th degree-n monomial. Since t and c add under multiplication,
    it is (t_i + t_k)(t_i + t_k + 1)/2 + c_i + c_k. Given `rows`, only the
    table's rows at those positions, taken from the cached table where it is
    small enough (a whole table is read-only).
    """
    if m < 0 or n < 0:
        raise ValueError(f"degrees must be >= 0, got {m} and {n}")
    if num_monomials(m) * num_monomials(n) > _CACHED_INDEX_ENTRIES:
        return _product_index(m, n, slice(None) if rows is None else rows)
    table = _cached_product_index(m, n)
    return table if rows is None else table[rows]


# A seed depends only on the base seed, trial, point and factor, so a verify
# sweep draws the same forms for many partitions: 49 distinct forms in the
# 911 draws of a sweep to d = 10, 110 in the 18,654 to d = 18.
@lru_cache(maxsize=256)
def random_form(modulus: int, degree: int, seed: int) -> np.ndarray:
    """A form with every coefficient drawn independently and uniformly mod `modulus`.

    Deterministic: the same (modulus, degree, seed) always produces the same
    form, which is drawn once and then read from a cache, so it is read-only.
    """
    if degree < 1:
        raise ValueError(f"random forms need degree >= 1, got {degree}")
    stream = SeedStream(seed)
    form = np.array(
        [stream.field_element(modulus) for _ in range(num_monomials(degree))],
        dtype=np.int64,
    )
    form.setflags(write=False)
    return form


def multiply(f: np.ndarray, g: np.ndarray, modulus: int) -> np.ndarray:
    """Exact product mod `modulus`, reduced to [0, modulus), for a modulus
    below 2**31 and coefficients in [0, modulus).

    Each term f_i g_k (below 2**62) is reduced before the terms are summed
    into their positions, so no int64 overflows.
    The scatter takes flattened operands: numpy's one-dimensional
    `np.add.at` is about twice as fast as a two-dimensional one.
    """
    m, n = form_degree(f), form_degree(g)
    terms = np.multiply.outer(f, g) % modulus
    out = np.zeros(num_monomials(m + n), dtype=np.int64)
    np.add.at(out, product_index(m, n).ravel(), terms.ravel())
    return out % modulus


def cofactor_products(factors: Sequence[np.ndarray], modulus: int) -> list[np.ndarray]:
    """For factors F1..Fr return the r products each omitting one factor.

    Output i is prod_{j != i} Fj, of degree d - d_i, a new array reduced to
    [0, modulus). Built from prefix and suffix products: 3r - 6
    multiplications, none for r = 2.
    """
    r = len(factors)
    if r < 2:
        raise ValueError(f"need at least two factors, got {r}")
    times = partial(multiply, modulus=modulus)
    prefix = list(accumulate(factors[:-1], times))  # prefix[i] = F1 * ... * F_{i+1}
    suffix = list(accumulate(factors[:0:-1], times))[::-1]  # suffix[i] = F_{i+2} * ... * Fr
    middle = (times(prefix[i - 1], suffix[i]) for i in range(1, r - 1))
    return [suffix[0] % modulus, *middle, prefix[-1] % modulus]

