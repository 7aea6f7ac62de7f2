"""Amplitude amplification: the operator loop and its closed-form curve.

The iterate is the standard one: reflect phases of marked basis states,
then reflect about the prepared state A|0>. With a uniform preparation
over N states and r marked, the success probability after t rounds is
sin^2((2t+1) theta) with sin^2 theta = r/N, which the tests hold the
simulated loop against.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .circuit import Circuit
from .sim import run


def grover_probability(n_states: int, marked: int, t: int) -> float:
    """Closed-form success probability sin^2((2t+1) theta)."""
    if not 0 < marked <= n_states:
        raise ValueError("marked count out of range")
    theta = math.asin(math.sqrt(marked / n_states))
    return math.sin((2 * t + 1) * theta) ** 2


def _iterates(prep: Circuit, marked):
    """Yield (mask, amps) after t = 0, 1, 2, ... iterations from prep|0>.

    The next step negates the marked entries of the yielded array in
    place, so read it before advancing.
    """
    ref = run(prep).amps
    mask = np.isin(np.arange(len(ref)), list(marked))
    amps = ref.copy()
    while True:
        yield mask, amps
        amps[mask] *= -1.0
        amps = 2.0 * np.vdot(ref, amps) * ref - amps


def success_curve(prep: Circuit, marked, t_max: int) -> list[float]:
    """Marked-subspace probability after t = 0..t_max iterations."""
    steps = islice(_iterates(prep, marked), t_max + 1)
    return [float(np.sum(np.abs(amps[mask]) ** 2)) for mask, amps in steps]


def uniform_prep(qubits: int) -> Circuit:
    """H on every qubit: the uniform superposition preparation."""
    circ = Circuit(qubits)
    for q in range(qubits):
        circ.h(q)
    return circ
