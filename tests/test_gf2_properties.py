"""Property tests of the GF(2) layer on random shapes past the exhaustive 3x3 range."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qgms.gf2 import (
    BitMatrix,
    is_rref,
    nullspace_basis,
    orthogonal_table,
    rank,
    rref,
)


@st.composite
def matrices(draw, max_rows=9, max_cols=9):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, bits)


def stacked(vectors: list[int], cols: int) -> BitMatrix:
    return BitMatrix(len(vectors), cols, vectors)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_plus_nullity_is_column_count(a):
    basis = nullspace_basis(a)
    assert rank(a) + len(basis) == a.cols
    for v in basis:
        assert a.mul_vec(v) == 0
    if basis:
        assert rank(stacked(basis, a.cols)) == len(basis)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_is_idempotent(a):
    once = rref(a)
    twice = rref(once.matrix)
    assert is_rref(once.matrix)
    assert twice.matrix == once.matrix
    assert twice.pivot_cols == once.pivot_cols


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_orthogonal_table_lists_the_kernel(n, l, data):
    ybits = data.draw(st.integers(0, (1 << (n * l)) - 1))
    a = BitMatrix(l, n, [(ybits >> (n * j)) & ((1 << n) - 1) for j in range(l)])
    kernel = {0}
    for v in nullspace_basis(a):
        kernel |= {k ^ v for k in kernel}
    row = orthogonal_table(n, l)[ybits]
    assert {int(s) for s in np.flatnonzero(row)} == kernel
    assert (int(row[1:].sum()) == 1) == (rank(a) == n - 1)
