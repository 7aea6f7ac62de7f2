"""Readouts of dense states, a BitMatrix builder and scalar references.

Built only from what the package exports: a state's ``amps``,
``sim.extract_bits``, ``gf2`` and an oracle's ``residual``. The scalar
references compute one value at a time what the package computes in
tables or batches: ``run_basis`` tracks one basis state gate by gate,
the reference for ``sim.run_basis_batch`` that also makes exhaustive
truth-table tests of the reversible constructions cheap;
``row_echelon_xor_trace`` is the swap-free elimination the QGE solver
circuit leaves in its matrix register, which ``gf2`` (one pivot search
with row swaps) does not compute; ``ug_classifier`` and
``hybrid_accept`` are the references for the accept tables of
``analysis``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from qgms.circuit import Circuit
from qgms.gf2 import BitMatrix, nullspace_basis, parity
from qgms.oracles import FxOracle
from qgms.sim import StateVector, extract_bits


def basis_state(qubit_count: int, bits: int) -> StateVector:
    """The dense basis state ``bits``, as input for ``sim.run(circ, state)``."""
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[bits] = 1.0
    return StateVector(qubit_count, amps)


def marginal(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Probabilities of the listed qubits, traced over the rest.

    Index b of the result packs qubits[j] into bit j.
    """
    key = extract_bits(np.arange(state.amps.size), qubits)
    probs = np.abs(state.amps) ** 2
    return np.bincount(key, weights=probs, minlength=1 << len(qubits))


def reduced_purity(state: StateVector, qubits: Sequence[int]) -> float:
    """Tr(rho^2) of the reduced state on ``qubits``."""
    rest = [q for q in range(state.qubit_count) if q not in qubits]
    idx = np.arange(state.amps.size)
    # the amplitudes as a (kept, rest) matrix
    m = np.zeros((1 << len(qubits), 1 << len(rest)), dtype=np.complex128)
    m[extract_bits(idx, qubits), extract_bits(idx, rest)] = state.amps
    rho = m @ m.conj().T
    return float(np.real(np.trace(rho @ rho)))


def bit_matrix(rows: list[list[int]]) -> BitMatrix:
    """The BitMatrix whose row i has entry j = rows[i][j]."""
    packed = [sum(e << j for j, e in enumerate(row)) for row in rows]
    return BitMatrix(len(rows), len(rows[0]), packed)


def run_basis(circ: Circuit, bits: int) -> int:
    """Track one basis state through a permutation-only circuit.

    An ORACLE gate XORs bit j of its table entry into its j-th target.

    Raises:
        ValueError: on H, which does not permute basis states.
    """
    for gate in circ.gates:
        if gate.kind == "H":
            raise ValueError(f"{gate.kind} is not a permutation gate")
        if gate.kind == "ORACLE":
            delta = gate.table[extract_bits(bits, gate.controls)]
            for j, t in enumerate(gate.targets):
                bits ^= ((delta >> j) & 1) << t
        elif all((bits >> c) & 1 for c in gate.controls):
            bits ^= 1 << gate.targets[0]
    return bits


def row_echelon_xor_trace(a: BitMatrix) -> BitMatrix:
    """Echelon variant that mirrors the reversible circuit's pivot rule.

    Instead of swapping, the pivot step repeatedly XORs lower rows into the
    pivot row while the diagonal entry is still zero, then eliminates below.
    The result is row equivalent to the input and upper triangular whenever
    the leading square block is invertible, but rank-deficient inputs can
    leave a non-echelon matrix; this matches the circuit bit for bit, which
    is the point of the function.
    """
    m = a.copy()
    for j in range(min(m.cols, m.rows)):
        for i in range(j + 1, m.rows):
            if not m.get(j, j):
                m.row_bits[j] ^= m.row_bits[i]
        for k in range(j + 1, m.rows):
            if m.get(k, j):
                m.row_bits[k] ^= m.row_bits[j]
    return m


def ug_classifier(k_prime, y_matrix: BitMatrix, oracle: FxOracle, plaintexts) -> int:
    """1 iff the y rows pin down a single candidate period that checks out.

    The kernel basis must hold exactly one vector s (rank n-1); the oracle
    residual at the integer key k' must then collide on p and p xor s for
    every provided plaintext p. Anything else returns 0.
    """
    if not plaintexts:
        raise ValueError("plaintexts must be nonempty")
    basis = nullspace_basis(y_matrix)
    if len(basis) != 1:
        return 0
    s = basis[0].bits
    for p in plaintexts:
        if oracle.residual(k_prime, p) != oracle.residual(k_prime, p ^ s):
            return 0
    return 1


def hybrid_accept(k_prime: int, rows, oracle: FxOracle, plaintexts) -> int:
    """1 iff some nonzero kernel candidate of the rows passes every check.

    Classical postprocessing is free to try each candidate period in the
    kernel (two oracle evaluations per plaintext each); when the rank is
    n-1 this reduces to the single-candidate classifier.
    """
    n = oracle.n
    for cand in range(1, 1 << n):
        if any(parity(row & cand) for row in rows):
            continue
        if all(
            oracle.residual(k_prime, p) == oracle.residual(k_prime, p ^ cand)
            for p in plaintexts
        ):
            return 1
    return 0
