"""Kernel extraction: rank flag, kernel vector, and clean uncompute."""

from __future__ import annotations

import itertools

import pytest
from probes import bit_matrix, marginal, reduced_purity, run_basis

from qgms.circuit import Circuit
from qgms.gf2 import BitMatrix, nullspace_basis, rank
from qgms.sim import extract_bits, run
from qgms.synth import kernel_circuit, pack_matrix, unpack_matrix


def kernel_with_circuit(y: BitMatrix) -> tuple[int, int, BitMatrix, int]:
    """Run kernel extraction classically.

    Returns (flag, s, matrix register after, ancilla bits after); the last
    two confirm the uncompute really restored everything.
    """
    circ = kernel_circuit(y.rows, y.cols)
    out = run_basis(circ, pack_matrix(y))
    s = extract_bits(out, list(circ.registers["s"]))
    flag = extract_bits(out, list(circ.registers["flag"]))
    after = unpack_matrix(out, y.rows, y.cols)
    return flag, s, after, out >> (y.rows * y.cols + y.cols + 1)


def all_matrices(rows: int, cols: int):
    for bits in itertools.product(range(1 << cols), repeat=rows):
        yield BitMatrix(rows, cols, list(bits))


@pytest.mark.parametrize(
    "shape", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]
)
def test_kernel_circuit_exhaustive(shape):
    l, n = shape
    for y in all_matrices(l, n):
        flag, s, after, anc = kernel_with_circuit(y)
        assert after.row_bits == y.row_bits, "matrix register not restored"
        assert anc == 0, "ancillas not uncomputed"
        if rank(y) == n - 1:
            assert flag == 1
            basis = nullspace_basis(y)
            assert len(basis) == 1
            assert s == basis[0]
            assert s != 0
            assert y.mul_vec(s) == 0
        else:
            assert flag == 0
            assert s == 0


def test_kernel_two_bit_period():
    y = bit_matrix([[1, 1]])
    flag, s, _, _ = kernel_with_circuit(y)
    assert flag == 1
    assert s == 0b11


def test_kernel_three_bit_period():
    y = bit_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rank(y) == 2
    flag, s, _, _ = kernel_with_circuit(y)
    assert flag == 1
    assert s == 0b111


def test_kernel_full_rank_leaves_flag_clear():
    y = bit_matrix([[1, 0], [0, 1]])
    flag, s, _, _ = kernel_with_circuit(y)
    assert flag == 0 and s == 0


def test_kernel_circuit_disentangles_ancillas():
    # Superpose a rank-1 and a rank-2 matrix on the equation register.
    # The data outcome differs per branch, but every ancilla returns to
    # |0>, so the ancilla subsystem stays pure where the raw reduction
    # would leave it mixed.
    circ = kernel_circuit(2, 2)
    prep = Circuit(circ.qubit_count)
    # (|1100> + |1001>)/sqrt(2): rows {11,00} vs {10,01}, qubit i*2+j.
    prep.x(0)
    prep.h(1)
    prep.cnot(1, 3)
    prep.x(3)
    prep.gates.extend(circ.gates)
    state = run(prep)
    data = 2 * 2 + 2 + 1
    anc = list(range(data, circ.qubit_count))
    assert reduced_purity(state, anc) == pytest.approx(1.0, abs=1e-9)
    # and the branches really did produce different outputs
    marg = marginal(state, list(circ.registers["s"]) + [circ.registers["flag"][0]])
    assert marg[0b111] == pytest.approx(0.5, abs=1e-9)  # s=11, flag=1
    assert marg[0b000] == pytest.approx(0.5, abs=1e-9)  # s=00, flag=0
