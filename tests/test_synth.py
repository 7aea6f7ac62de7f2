"""Exhaustive checks of the reversible elimination circuits.

Every circuit is compared against the classical GF(2) routines over all
matrices of the tested shape, using the basis tracker so 9-bit and 12-bit
registers stay cheap.
"""

from __future__ import annotations

import itertools

import pytest
from probes import bit_matrix, reduced_purity, row_echelon_xor_trace, run_basis

from qgms.circuit import Circuit, resource_profile
from qgms.gf2 import (
    BitMatrix,
    gaussian_eliminate,
    rank,
    rref,
)
from qgms.sim import extract_bits, run
from qgms.synth import (
    Synthesis,
    _Builder,
    expanded_cnot,
    gauss_closed_form,
    gauss_solve_circuit,
    gauss_stage_costs,
    jordan_closed_form,
    jordan_solve_circuit,
    jordan_stage_costs,
    pack_matrix,
    rref_circuit,
    stage_totals,
    unpack_matrix,
)


def solve_with_circuit(a: BitMatrix, b: int, jordan: bool = False) -> int:
    """Run a solver circuit on classical data and read back x."""
    syn = jordan_solve_circuit(a.rows) if jordan else gauss_solve_circuit(a.rows)
    out = run_basis(syn.circuit, pack_matrix(a, b))
    return extract_bits(out, list(syn.circuit.registers["b"]))


def rref_with_circuit(a: BitMatrix) -> BitMatrix:
    """Run the reduction circuit on classical data and read back the matrix."""
    circ = rref_circuit(a.rows, a.cols)
    return unpack_matrix(run_basis(circ, pack_matrix(a)), a.rows, a.cols)


def all_matrices(rows: int, cols: int):
    for bits in itertools.product(range(1 << cols), repeat=rows):
        yield BitMatrix(rows, cols, list(bits))


def invertible_matrices(n: int):
    return (m for m in all_matrices(n, n) if rank(m) == n)


# ---------------------------------------------------------------------------
# Solvers


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauss_solver_exhaustive(n):
    for a in invertible_matrices(n):
        for b in range(1 << n):
            x = solve_with_circuit(a, b)
            assert x == gaussian_eliminate(a, b)
            assert a.mul_vec(x) == b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jordan_solver_exhaustive(n):
    for a in invertible_matrices(n):
        for b in range(1 << n):
            x = solve_with_circuit(a, b, jordan=True)
            assert a.mul_vec(x) == b


def test_gauss_matrix_register_matches_xor_echelon():
    # Forward elimination leaves the same matrix the swap-free classical
    # rule produces, including on singular inputs.
    n = 3
    syn = gauss_solve_circuit(n)
    a_qubits = [[i * n + j for j in range(n)] for i in range(n)]
    for a in all_matrices(n, n):
        bits = 0
        for i in range(n):
            for j in range(n):
                if a.get(i, j):
                    bits |= 1 << (i * n + j)
        out = run_basis(syn.circuit, bits)
        got = [extract_bits(out, row) for row in a_qubits]
        assert got == row_echelon_xor_trace(a).row_bits


def test_jordan_matrix_register_becomes_identity():
    n = 3
    syn = jordan_solve_circuit(n)
    a_qubits = [[i * n + j for j in range(n)] for i in range(n)]
    for a in invertible_matrices(n):
        bits = 0
        for i in range(n):
            for j in range(n):
                if a.get(i, j):
                    bits |= 1 << (i * n + j)
        out = run_basis(syn.circuit, bits)
        got = [extract_bits(out, row) for row in a_qubits]
        assert got == [1 << i for i in range(n)]


# ---------------------------------------------------------------------------
# Cost accounting


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_gauss_stage_tally_matches_prediction(n):
    syn = gauss_solve_circuit(n)
    assert syn.stages == gauss_stage_costs(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_jordan_stage_tally_matches_prediction(n):
    syn = jordan_solve_circuit(n)
    assert syn.stages == jordan_stage_costs(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_gauss_closed_form_vs_stage_sums(n):
    closed = gauss_closed_form(n)
    totals = stage_totals(gauss_stage_costs(n))
    assert closed["toffoli"] == totals["toffoli"]
    assert closed["t_depth"] == 7 * totals["toffoli"]
    assert closed["ancilla"] == totals["ancilla"]
    # The published CNOT expression undershoots the tally by 15 n^2.
    assert expanded_cnot(gauss_stage_costs(n)) - closed["cnot"] == 15 * n * n


@pytest.mark.parametrize("n", range(2, 9))
def test_jordan_closed_form_vs_stage_sums(n):
    closed = jordan_closed_form(n)
    totals = stage_totals(jordan_stage_costs(n))
    assert closed["toffoli"] == totals["toffoli"]
    assert closed["t_depth"] == 7 * totals["toffoli"]
    assert closed["ancilla"] == totals["ancilla"]
    assert closed["cnot"] == expanded_cnot(jordan_stage_costs(n))


def test_profiles_match_stage_sums():
    for syn, pred in [
        (gauss_solve_circuit(5), gauss_stage_costs(5)),
        (jordan_solve_circuit(5), jordan_stage_costs(5)),
    ]:
        p = resource_profile(syn.circuit)
        t = stage_totals(pred)
        assert p.toffoli == t["toffoli"]
        assert p.t_depth == 7 * t["toffoli"]
        assert p.ancilla == t["ancilla"]
        assert p.cnot == expanded_cnot(pred)


def test_reference_totals_n8():
    assert gauss_closed_form(8) == {
        "cnot": 1476,
        "toffoli": 392,
        "t_depth": 2744,
        "ancilla": 56,
    }
    assert jordan_closed_form(8) == {
        "cnot": 2828,
        "toffoli": 448,
        "t_depth": 3136,
        "ancilla": 84,
    }


# ---------------------------------------------------------------------------
# Reduced row echelon form


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])
def test_rref_circuit_exhaustive(shape):
    m, n = shape
    for a in all_matrices(m, n):
        assert rref_with_circuit(a).row_bits == rref(a).matrix.row_bits


def test_rref_zero_pivot_column_needs_guard():
    # Rank-deficient input whose middle row leads two columns late; an
    # elimination sweep without the pivot-present guard would fire here
    # and break reduced form.
    a = bit_matrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert rref_with_circuit(a).row_bits == rref(a).matrix.row_bits


def test_rref_circuit_on_superposition_keeps_ancillas_dirty():
    # Two inputs whose elimination transcripts differ leave the write-once
    # ancillas entangled with the data register: the ancilla subsystem is
    # mixed. This is the behaviour kernel extraction has to undo.
    circ = rref_circuit(2, 2)
    prep = Circuit(circ.qubit_count)
    # (|0111> + |1100>)/sqrt(2) on the matrix register, qubit i*2+j.
    prep.x(1)
    prep.h(0)
    prep.cnot(0, 2)
    prep.cnot(0, 3)
    prep.x(0)
    prep.gates.extend(circ.gates)
    state = run(prep)
    anc = list(range(4, circ.qubit_count))
    assert reduced_purity(state, anc) < 1 - 1e-6


def test_mirror_rejects_a_body_that_keeps_a_pool_qubit():
    # A raise, not an assert, so the check also holds under python -O.
    bld = _Builder(Circuit(2))
    with pytest.raises(RuntimeError, match="body kept a pool qubit"):
        with bld.mirrored(lambda: bld.circ.cnot(0, 1)):
            bld.pool_alloc()
