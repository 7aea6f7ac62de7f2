"""Tests for the classical GF(2) layer.

Brute-force oracles (row-space enumeration, exhaustive solve checks) sit
next to the tests that use them so every nontrivial claim is checked
against an independent computation.
"""

from __future__ import annotations

import itertools
import random

import pytest
from probes import bit_matrix, row_echelon_xor_trace

from qgms.circuit import QubitCapExceeded
from qgms.gf2 import (
    BitMatrix,
    SingularMatrix,
    gaussian_eliminate,
    is_row_echelon,
    is_rref,
    nullspace_basis,
    orthogonal_table,
    parity,
    rank,
    row_echelon,
    row_space,
    rref,
)


def all_matrices(rows: int, cols: int):
    for bits in itertools.product(range(1 << cols), repeat=rows):
        yield BitMatrix(rows, cols, list(bits))


def brute_rank(a: BitMatrix) -> int:
    """Rank as log2 of the row-space size, no elimination involved."""
    return len(row_space(a)).bit_length() - 1


# ---------------------------------------------------------------------------
# Containers


@pytest.mark.parametrize("x", [-1, 0b1000, 0b10000])
def test_mul_vec_rejects_a_vector_past_the_column_count(x):
    m = BitMatrix(2, 3, [0b101, 0b110])
    with pytest.raises(ValueError):
        m.mul_vec(x)
    assert m.mul_vec(0b100) == 0b11


@pytest.mark.parametrize("b", [-1, 0b1000, 0b10000])
def test_gaussian_eliminate_rejects_a_vector_past_the_row_count(b):
    m = BitMatrix(3, 3, [0b001, 0b010, 0b100])
    with pytest.raises(ValueError):
        gaussian_eliminate(m, b)
    assert gaussian_eliminate(m, 0b111) == 0b111


def test_parity_dot():
    a, b = 0b011, 0b101
    assert parity(a & b) == 1
    assert parity(a & a) == 0


def test_bitmatrix_roundtrip_and_access():
    m = BitMatrix(2, 3, [0b101, 0b110])
    assert [[m.get(i, j) for j in range(3)] for i in range(2)] == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(IndexError):
        m.get(2, 0)


def test_bitmatrix_mul_vec_exhaustive_3x3():
    for m in all_matrices(3, 3):
        rows = [[(r >> j) & 1 for j in range(3)] for r in m.row_bits]
        for x in range(8):
            want = [
                sum(rows[i][j] * ((x >> j) & 1) for j in range(3)) % 2
                for i in range(3)
            ]
            y = m.mul_vec(x)
            assert [(y >> i) & 1 for i in range(3)] == want


# ---------------------------------------------------------------------------
# Echelon forms


def test_row_echelon_swaps_rows():
    m = bit_matrix([[0, 1], [1, 0]])
    assert row_echelon(m) == bit_matrix([[1, 0], [0, 1]])


def test_row_echelon_xor_trace_accumulates():
    # The circuit's pivot rule XORs the lower row up instead of swapping.
    m = bit_matrix([[0, 1], [1, 0]])
    assert row_echelon_xor_trace(m) == bit_matrix([[1, 1], [0, 1]])


def test_row_echelon_xor_trace_rank_deficient_escape():
    # With no row below holding a pivot bit, the XOR rule cannot repair
    # column 0 and the output is not in echelon form. Known limitation of
    # the swap-free rule; row_echelon handles these inputs.
    m = bit_matrix([[0, 0], [0, 1]])
    out = row_echelon_xor_trace(m)
    assert out == bit_matrix([[0, 1], [0, 1]])
    assert not is_row_echelon(out)


def test_row_echelon_exhaustive_small():
    for rows, cols in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for m in all_matrices(rows, cols):
            e = row_echelon(m)
            assert is_row_echelon(e)
            assert row_space(e) == row_space(m)


def test_xor_trace_preserves_row_space():
    for m in all_matrices(3, 3):
        assert row_space(row_echelon_xor_trace(m)) == row_space(m)


def test_xor_trace_echelon_when_invertible():
    for m in all_matrices(3, 3):
        if brute_rank(m) == 3:
            e = row_echelon_xor_trace(m)
            assert is_row_echelon(e)
            assert all(e.get(i, i) == 1 for i in range(3))


def test_rref_exhaustive_small():
    for rows, cols in [(2, 2), (3, 3), (2, 4), (4, 2)]:
        for m in all_matrices(rows, cols):
            r = rref(m)
            assert is_rref(r.matrix)
            assert row_space(r.matrix) == row_space(m)
            assert r.rank == brute_rank(m)


def test_rref_canonical():
    # Same row space implies the same RREF; check on a shared-span pair.
    a = bit_matrix([[1, 1, 0], [0, 1, 1]])
    b = bit_matrix([[1, 0, 1], [0, 1, 1]])
    assert row_space(a) == row_space(b)
    assert rref(a).matrix == rref(b).matrix


def test_rank_matches_brute_force():
    for m in all_matrices(3, 4):
        assert rank(m) == brute_rank(m)


# ---------------------------------------------------------------------------
# Solving


def test_gaussian_eliminate_worked_example():
    a = bit_matrix([[1, 1], [0, 1]])
    assert gaussian_eliminate(a, 0b11) == 0b10


def test_gaussian_eliminate_exhaustive_invertible():
    # Every b, so singular systems without a solution (a pivot in
    # column n of [A | b]) must raise as well as those with many.
    for n in (2, 3):
        for m in all_matrices(n, n):
            singular = brute_rank(m) < n
            for b in range(1 << n):
                if singular:
                    with pytest.raises(SingularMatrix):
                        gaussian_eliminate(m, b)
                    continue
                x = gaussian_eliminate(m, b)
                assert m.mul_vec(x) == b


def test_gaussian_eliminate_rejects_nonsquare():
    with pytest.raises(SingularMatrix):
        gaussian_eliminate(BitMatrix(2, 3), 0)


def test_nullspace_basis_exhaustive():
    for m in all_matrices(3, 3):
        basis = nullspace_basis(m)
        assert len(basis) == 3 - brute_rank(m)
        # every basis vector annihilates, and the span has full size
        span = {0}
        for v in basis:
            assert m.mul_vec(v) == 0
            span |= {s ^ v for s in span}
        assert len(span) == 1 << len(basis)
        kernel = {x for x in range(8) if m.mul_vec(x) == 0}
        assert span == kernel


def test_orthogonal_table_refused_past_the_qubit_cap(monkeypatch):
    monkeypatch.setenv("QGMS_QUBIT_CAP", "8")
    with pytest.raises(QubitCapExceeded):
        orthogonal_table(3, 2)  # 2^(6 + 3) entries
    assert orthogonal_table(2, 3).shape == (64, 4)  # 2^(6 + 2), at the cap


def test_solve_random_large():
    rng = random.Random(7)
    for n in (8, 12, 16):
        while True:
            m = BitMatrix(
                n, n, [rng.getrandbits(n) for _ in range(n)]
            )
            if rank(m) == n:
                break
        b = rng.getrandbits(n)
        x = gaussian_eliminate(m, b)
        assert m.mul_vec(x) == b
