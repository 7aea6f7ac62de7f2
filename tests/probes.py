"""Readouts of dense states and a BitMatrix builder shared by the tests.

Built only from what the package exports: a state's ``amps``,
``sim.extract_bits`` and the ``BitMatrix`` constructor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from qgms.gf2 import BitMatrix
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
