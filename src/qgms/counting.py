"""Counting n-by-n binary matrices of rank n-1 with rows from a hyperplane.

The count of interest: matrices whose n rows are all drawn from the
(n-1)-dimensional subspace V orthogonal to a fixed nonzero vector s, and
whose rank is exactly n-1 (the largest possible under that row
constraint). The closed form is

    2^((n-2)(n-1)/2) * (2^n - 1) * prod_{i=1}^{n-1} (2^i - 1)

and the brute-force check enumerates all 2^((n-1)n) row choices. The
count does not depend on which s is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import dot_zero_table


class EnumerationTooLarge(Exception):
    """Brute-force enumeration of 2^((n-1)n) matrices refused for n > 5."""


BRUTE_LIMIT = 5
# Matrices ranked per chunk of the brute count (n = 5 takes 16 chunks, n <= 4
# one): the n = 5 count peaks about 3 MB above its start, and one pass over
# all 2^20 matrices about 31 MB.
_COUNT_CHUNK = 1 << 16


@dataclass(frozen=True)
class CountReport:
    n: int
    brute_count: int | None
    formula_count: int
    agreement: bool | None


def rank_deficit_one_formula(n: int) -> int:
    """Closed-form count of rank-(n-1) matrices with rows from V."""
    if n < 2:
        raise ValueError("n must be at least 2")
    out = 2 ** ((n - 2) * (n - 1) // 2) * (2**n - 1)
    for i in range(1, n):
        out *= 2**i - 1
    return out


def brute_count_rank_n_minus_1(n: int, s: int = 1) -> int:
    """Enumerate every row choice and count rank-(n-1) outcomes.

    The 2^((n-1)n) matrices are ranked in chunks of ``_COUNT_CHUNK``
    (see ``_chunk_hits``), one after another in the calling thread.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > BRUTE_LIMIT:
        raise EnumerationTooLarge(
            f"2^{(n - 1) * n} matrices is past the enumeration limit (n <= {BRUTE_LIMIT})"
        )
    if not 0 < s < (1 << n):
        raise ValueError("s must be a nonzero n-bit value")
    hyperplane = np.flatnonzero(dot_zero_table(n)[:, s]).astype(np.uint8)
    starts = range(0, 1 << ((n - 1) * n), _COUNT_CHUNK)
    return sum(_chunk_hits(hyperplane, n, start) for start in starts)


def _chunk_hits(hyperplane: np.ndarray, n: int, start: int) -> int:
    """How many of the ``_COUNT_CHUNK`` matrices from ``start`` have rank n-1.

    Matrix k takes row i from entry (k >> (n-1)i) mod 2^(n-1) of
    ``hyperplane``. Every matrix gets an XOR basis, built for all of them
    at once: each row is reduced against the basis from its top bit down,
    and once it reaches a set bit b that has no basis vector yet, the
    reduced row becomes basis vector b. The rank is the number of basis
    vectors. One vectorized pass per row and bit covers the chunk.
    """
    bits = n - 1
    mask = (1 << bits) - 1
    index = np.arange(start, min(start + _COUNT_CHUNK, 1 << (bits * n)), dtype=np.int64)
    basis = np.zeros((n, len(index)), dtype=np.uint8)
    for i in range(n):
        x = hyperplane[(index >> (bits * i)) & mask]
        for b in reversed(range(n)):
            has = (x >> b) & 1
            basis[b] |= x * (has & (basis[b] == 0))
            x = np.where(has, x ^ basis[b], x)
    rank = np.count_nonzero(basis, axis=0)
    return int(np.count_nonzero(rank == bits))


def count_rank_n_minus_1(n: int) -> CountReport:
    """The closed-form count, checked by brute force when n <= BRUTE_LIMIT.

    Past the limit the enumeration is refused, so the brute count and the
    agreement flag are None.
    """
    formula = rank_deficit_one_formula(n)
    brute = brute_count_rank_n_minus_1(n) if n <= BRUTE_LIMIT else None
    agreement = None if brute is None else brute == formula
    return CountReport(n, brute, formula, agreement)
