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


# The brute count's kernel masks hold 2^n bits in a uint32, so n <= 5.
BRUTE_LIMIT = 5


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

    Each row value y of the hyperplane is packed into its orthogonal-set
    mask (bit t set when y . t = 0, from ``dot_zero_table``), and a row
    tuple's kernel is the AND of its rows' masks: one outer AND per row
    covers all 2^((n-1)n) tuples. Every row lies in s's hyperplane, so
    each kernel holds 0 and s, and the rank is n-1 exactly when it holds
    nothing else.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > BRUTE_LIMIT:
        raise EnumerationTooLarge(
            f"2^{(n - 1) * n} matrices is past the enumeration limit (n <= {BRUTE_LIMIT})"
        )
    if not 0 < s < (1 << n):
        raise ValueError("s must be a nonzero n-bit value")
    dot = dot_zero_table(n)
    masks = dot[dot[:, s]] @ (np.uint32(1) << np.arange(1 << n, dtype=np.uint32))
    kernels = masks
    for _ in range(n - 1):
        kernels = np.bitwise_and.outer(kernels, masks).ravel()
    return int(np.count_nonzero(kernels == (1 | 1 << s)))


def count_rank_n_minus_1(n: int) -> CountReport:
    """The closed-form count, checked by brute force when n <= BRUTE_LIMIT.

    Past the limit the enumeration is refused, so the brute count and the
    agreement flag are None.
    """
    formula = rank_deficit_one_formula(n)
    brute = brute_count_rank_n_minus_1(n) if n <= BRUTE_LIMIT else None
    agreement = None if brute is None else brute == formula
    return CountReport(n, brute, formula, agreement)
