"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are stored as Python integers, bit j of a row being column j. All
arithmetic is XOR/AND, so row operations are single integer ops. One
forward elimination, ``row_echelon``, is under every scalar routine:
``rref`` adds an upward pass, and rank, nullspace bases and solving (the
RREF of [A | b]) read the RREF. The scalar routines are the reference;
``orthogonal_table`` answers the same kernel questions for every small
matrix of one shape at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .circuit import QubitCapExceeded, qubit_cap

if TYPE_CHECKING:
    import numpy as np


class SingularMatrix(Exception):
    """Raised when a unique solution is requested for a singular system."""


def parity(x: int) -> int:
    """Parity of the set bits of ``x``: the GF(2) sum of its entries."""
    return x.bit_count() & 1


@dataclass
class BitVector:
    """Length-n vector over GF(2), packed into one integer (bit i = entry i)."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0 or self.bits >> self.length:
            raise ValueError("bits do not fit declared length")

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def is_zero(self) -> bool:
        return self.bits == 0


@dataclass
class BitMatrix:
    """rows x cols matrix over GF(2) with bit-packed rows.

    ``row_bits[i]`` holds row i, bit j of it being a[i, j]. The packing is
    row-major with bit 0 = column 0 so that a matrix maps directly onto the
    simulator's basis-state encoding (qubit i*cols + j holds a[i, j]).
    """

    rows: int
    cols: int
    row_bits: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if not self.row_bits:
            self.row_bits = [0] * self.rows
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        if any(r & ~mask for r in self.row_bits):
            raise ValueError("row bits exceed declared width")

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.row_bits[i] >> j) & 1

    def copy(self) -> BitMatrix:
        return BitMatrix(self.rows, self.cols, list(self.row_bits))

    def mul_vec(self, x: BitVector) -> BitVector:
        """Matrix-vector product A @ x over GF(2)."""
        if x.length != self.cols:
            raise ValueError("dimension mismatch")
        bits = 0
        for i, r in enumerate(self.row_bits):
            if parity(r & x.bits):
                bits |= 1 << i
        return BitVector(self.rows, bits)


@dataclass
class Rref:
    """Reduced row echelon form together with its pivot columns and rank."""

    matrix: BitMatrix
    pivot_cols: list[int]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


# ---------------------------------------------------------------------------
# Echelon forms


def row_echelon(a: BitMatrix) -> BitMatrix:
    """Row echelon form by downward pivot search with row swaps.

    Leading columns of the nonzero rows are strictly increasing and zero
    rows sit at the bottom, so the result satisfies the usual echelon
    predicate for every input.
    """
    m = a.copy()
    pivot_row = 0
    for col in range(m.cols):
        src = next(
            (r for r in range(pivot_row, m.rows) if m.get(r, col)), None
        )
        if src is None:
            continue
        if src != pivot_row:
            m.row_bits[pivot_row], m.row_bits[src] = (
                m.row_bits[src],
                m.row_bits[pivot_row],
            )
        for r in range(pivot_row + 1, m.rows):
            if m.get(r, col):
                m.row_bits[r] ^= m.row_bits[pivot_row]
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return m


def rref(a: BitMatrix) -> Rref:
    """Reduced row echelon form (canonical: unique per row space).

    ``row_echelon`` plus one upward pass: each nonzero row clears its
    leading column, a pivot column, in the rows above it.
    """
    m = row_echelon(a)
    pivots: list[int] = []
    for i, bits in enumerate(m.row_bits):
        if bits == 0:
            break
        col = (bits & -bits).bit_length() - 1
        for r in range(i):
            if m.get(r, col):
                m.row_bits[r] ^= bits
        pivots.append(col)
    return Rref(m, pivots)


def rank(a: BitMatrix) -> int:
    return rref(a).rank


def is_row_echelon(a: BitMatrix) -> bool:
    """Predicate: leading columns strictly increase, zero rows at bottom."""
    last = -1
    seen_zero = False
    for bits in a.row_bits:
        if bits == 0:
            seen_zero = True
            continue
        if seen_zero:
            return False
        lead = (bits & -bits).bit_length() - 1
        if lead <= last:
            return False
        last = lead
    return True


def is_rref(a: BitMatrix) -> bool:
    """Predicate: echelon, and every pivot column is a unit column."""
    if not is_row_echelon(a):
        return False
    for i, bits in enumerate(a.row_bits):
        if bits == 0:
            continue
        lead = (bits & -bits).bit_length() - 1
        for r in range(a.rows):
            if a.get(r, lead) != (1 if r == i else 0):
                return False
    return True


def row_space(a: BitMatrix) -> set[int]:
    """All XOR combinations of the rows, as packed integers."""
    span = {0}
    for bits in a.row_bits:
        span |= {v ^ bits for v in span}
    return span


# ---------------------------------------------------------------------------
# Solving


def gaussian_eliminate(a: BitMatrix, b: BitVector) -> BitVector:
    """Solve A x = b for square invertible A.

    ``rref`` of the augmented matrix [A | b]: A is invertible exactly when
    the pivots are columns 0..n-1 (a pivot in column n means no solution),
    and then bit n of reduced row i is x_i.

    Raises:
        SingularMatrix: if A is not invertible.
    """
    if a.rows != a.cols:
        raise SingularMatrix("matrix is not square")
    if b.length != a.rows:
        raise ValueError("dimension mismatch")
    n = a.rows
    augmented = [row | (b.get(i) << n) for i, row in enumerate(a.row_bits)]
    r = rref(BitMatrix(n, n + 1, augmented))
    if r.pivot_cols != list(range(n)):
        raise SingularMatrix("rank deficient")
    return BitVector(n, sum((row >> n) << i for i, row in enumerate(r.matrix.row_bits)))


def nullspace_basis(a: BitMatrix) -> list[BitVector]:
    """Basis of {x : A x = 0} from the free-column pattern of the RREF.

    Each free column f yields one basis vector: entry f is 1, entry p is
    R[i, f] for every pivot column p (owned by row i), all else 0.
    """
    r = rref(a)
    pivots = r.pivot_cols
    free_cols = [j for j in range(a.cols) if j not in pivots]
    basis = []
    for f in free_cols:
        bits = 1 << f
        for i, p in enumerate(pivots):
            if r.matrix.get(i, f):
                bits |= 1 << p
        basis.append(BitVector(a.cols, bits))
    return basis


def dot_zero_table(n: int) -> np.ndarray:
    """dot[y, s] = (y . s == 0) for every pair of n-bit values, as bools."""
    import numpy as np  # only here, so the rest of gf2 loads without numpy

    size = 1 << n
    return np.array([[parity(y & s) == 0 for s in range(size)] for y in range(size)])


def orthogonal_table(n: int, l: int) -> np.ndarray:
    """orth[Y, s] for every packed l x n matrix Y and every s < 2^n.

    Row j of Y is bits n*j .. n*j+n-1 of the index Y. The entry is True
    when y_j . s = 0 for every row, so row Y lists the kernel of Y: it
    has rank n-1 exactly when one nonzero s is True.

    Raises:
        QubitCapExceeded: if the 2^(nl + n) entries pass 2^cap, before
            anything is allocated.
    """
    cap = qubit_cap()
    if n * l + n > cap:
        raise QubitCapExceeded(
            f"orthogonality table of 2^{n * l + n} entries would pass 2^{cap}"
        )
    import numpy as np  # only here, so the rest of gf2 loads without numpy

    size = 1 << n
    dot_zero = dot_zero_table(n)
    ys = np.arange(1 << (n * l))
    orth = np.ones((ys.size, size), dtype=bool)
    for j in range(l):
        orth &= dot_zero[(ys >> (n * j)) & (size - 1)]
    return orth

