"""Helpers the tests compare the package with.

`eliminate` is an int64 row loop, independent of the float64 kernel: the
reference for its bases and row rank profiles. `rank` runs the kernel on an
integer matrix, and `nullspace` reads a kernel basis off `eliminate`.
`monomial_multiples` builds one cofactor's block of a tangent slice whole.
`exponents` writes the graded-lex order out as a list, and `monomial` places
a monomial's one by it, independently of `gfpoly`'s arithmetic on positions.
"""

import numpy as np

from secantlines.gfpoly import form_degree, num_monomials, product_index
from secantlines.oracle import _blocked, _complement, _rank


def exponents(degree: int) -> list[tuple[int, int, int]]:
    """Graded-lex order written out: x0-exponent descending, then x1-exponent."""
    return [
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    ]


def monomial(a: int, b: int, c: int) -> np.ndarray:
    """The form x0^a x1^b x2^c, at its place in the written-out order."""
    form = np.zeros(num_monomials(a + b + c), dtype=np.int64)
    form[exponents(a + b + c).index((a, b, c))] = 1
    return form


def eliminate(work: np.ndarray, modulus: int) -> tuple[list[int], list[int]]:
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
        row[col:] = row[col:] * pow(int(row[col]), -1, modulus) % modulus
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


def rank(rows, modulus: int) -> int:
    """Rank of an integer matrix over GF(modulus) through the blocked kernel,
    at a prime `_blocked` admits for its width; empty matrices have rank 0."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    if not _blocked(a.shape[1], modulus):
        raise ValueError(f"the kernel is not exact on {a.shape[1]} columns mod {modulus}")
    return _rank((a % modulus).astype(np.float64), modulus).size


def nullspace(rows, modulus: int) -> np.ndarray:
    """Basis (as matrix rows) of the right kernel {v : rows @ v = 0} over GF(modulus)."""
    a = np.array(rows, dtype=np.int64) % modulus
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    independent, pivots = eliminate(a, modulus)
    free = _complement(np.array(pivots, dtype=np.int64), a.shape[1])
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -a[independent][:, free].T % modulus
    return basis


def monomial_multiples(f: np.ndarray, target_degree: int) -> np.ndarray:
    """Matrix whose rows are the products m * f for m a monomial of degree
    target_degree - deg f, in graded-lex order of m; it has no rows when the
    target degree is below the degree of f."""
    degree = form_degree(f)
    shift = target_degree - degree
    if shift < 0:
        return np.zeros((0, num_monomials(target_degree)), dtype=f.dtype)
    index = product_index(shift, degree)
    out = np.zeros((len(index), num_monomials(target_degree)), dtype=f.dtype)
    out[np.arange(len(index))[:, None], index] = f
    return out
