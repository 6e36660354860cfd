"""The prime field GF(p) and the oracle's default draw settings, in plain
integers.

Nothing here imports numpy, so the command line can build its parser and
check `--prime` without loading it; only the oracle's commands do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

DEFAULT_PRIME = 1_000_003
MAX_MODULUS = 2**31 - 1
DEFAULT_TRIALS = 3
DEFAULT_SEED = 0


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3e24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, two_exp = n - 1, 0
    while d % 2 == 0:
        d //= 2
        two_exp += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(two_exp - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Prime field GF(modulus); elements are ints in [0, modulus)."""

    modulus: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not 2 <= self.modulus <= MAX_MODULUS:
            raise ValueError(
                f"modulus must be in [2, {MAX_MODULUS}], got {self.modulus}"
            )
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
