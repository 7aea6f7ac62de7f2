"""Circuit simulators: dense statevector, sparse statevector, basis tracker.

Basis-state encoding is LSB-first throughout: bit k of an integer index is
the value of qubit k. A matrix register laid out as qubit i*cols + j for
entry (i, j) therefore packs to the same integer as its BitMatrix rows
concatenated, which the tests lean on heavily.

The engines need nothing beside the gates: an ORACLE gate carries its
truth table, so no simulator calls an oracle function. Every
permutation gate (X, CNOT, TOFFOLI, MCX, ORACLE) is simulated by one
kernel, ``run_basis_batch``. It pushes an array of basis indices
through a run of such gates on bit planes: each touched qubit becomes
one packed plane of bits, and each gate is one vector step on planes.
The planes are the same whatever holds the indices, int64 or Python
ints of any width in an object array, so one gate loop serves both.
Two engines sit on top of it and keep their own code only for H, the
one gate of the set that does not permute basis states:

* ``run`` evolves a dense numpy amplitude vector (or a 2-D batch of
  them, one state per column). It plans the circuit with
  ``dense_steps``: each maximal run of permutation gates becomes one
  gather map, the kernel's images of all 2^q indices under the run's
  inverse (the run reversed, as every gate is its own inverse), and each
  H stays a step of its own. ``apply_steps`` then gathers the amplitudes
  once per map, which numpy does faster than the matching scatter, into
  the input's buffer and one spare in turn, and applies H in place on a
  reshaped view that puts the target qubit on its own axis, so it may
  overwrite its input; ``run`` passes it a copy. For target t and c
  columns that view's inner loop runs over 2^t * c contiguous elements,
  so a low target is bound by loop overhead. The plan therefore stores
  the state under a qubit relabelling that puts every H target in the
  top positions (the qubit remapping of Haener and Steiger, "0.5
  Petabyte Simulation of a 45-Qubit Quantum Circuit", SC17). The
  relabelling is a set of disjoint swaps, three CNOTs each, planned as
  gates at both ends of the relabelled circuit, so they join its first
  and last runs. Only storage order changes, so every amplitude is
  bit-identical to an unrelabelled run. A plan kept as a list applies to
  any number of column blocks, and it is only read, so threads may apply
  it at once. Memory is 2^q complex doubles per column, so a
  configurable qubit cap guards against accidental blowups.
* ``sparse_apply`` keeps a dict of nonzero amplitudes. A permutation run
  relabels its keys in one kernel call and keeps the dict's order.
  Circuits whose support stays polynomial (few Hadamards, mostly
  permutation gates) run far beyond the dense cap, at any width; the
  same cap bounds the support at 2^cap entries. After each H it drops
  the amplitudes of magnitude at most ``_PRUNE``, the residues that
  cancellation leaves.

The search analysis uses ``run_basis_batch`` to prove, once per
configuration, what one amplification round does to every basis input.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .circuit import Circuit, Gate, QubitCapExceeded, qubit_cap

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# The sparse engine drops amplitudes of at most this magnitude after each H.
_PRUNE = 1e-13


# ---------------------------------------------------------------------------
# Dense engine


@dataclass
class StateVector:
    """Dense state over ``qubit_count`` qubits; ``amps[i]`` is basis i."""

    qubit_count: int
    amps: np.ndarray


def run(circ: Circuit, state: StateVector | None = None) -> StateVector:
    """Dense simulation of the full circuit.

    Starts from basis state 0 unless ``state`` supplies a full input
    StateVector (which must match the circuit width). The input state is
    not modified.

    Raises:
        QubitCapExceeded: if the circuit is wider than the cap allows.
    """
    steps = dense_steps(circ)
    q = circ.qubit_count
    if state is not None:
        if state.qubit_count != q:
            raise ValueError("state width does not match circuit")
        amps = state.amps.copy()
    else:
        amps = np.zeros(1 << q, dtype=np.complex128)
        amps[0] = 1.0
    return StateVector(q, apply_steps(steps, amps))


def dense_steps(circ: Circuit):
    """The circuit as dense-engine steps, for ``apply_steps``.

    Each maximal run of permutation gates, with map f, becomes the gather
    map g = f^-1 that ``run_basis_batch`` gives for the reversed run over
    every basis state: the amplitude that lands on j comes from g[j]. Each
    H is passed through. The steps act on the state stored under the
    qubit relabelling of ``_outer_swaps``, which puts every H target on
    the top qubits, with index map P (its own inverse: the
    swaps are disjoint). P is three CNOTs per swap, and the plan is the
    gate list P, the circuit with every gate's qubits relabelled, P. A
    run's g becomes P g P; the first run's map becomes g P and the last
    run's P g, since each P joins the run next to it (or stands alone
    where the circuit starts or ends with an H), moving the
    state into and out of the relabelled order. With no swap this is the
    unrelabelled plan; either way the output equals an unrelabelled run
    bit for bit.

    The cap is checked here, before anything is allocated. The steps are
    generated lazily, so ``run`` holds one gather map at a time; a
    caller that applies them to several states keeps them in a list.

    Raises:
        QubitCapExceeded: if the circuit is wider than the cap allows.
    """
    limit = qubit_cap()
    q = circ.qubit_count
    if q > limit:
        raise QubitCapExceeded(f"{q} qubits exceeds cap {limit}")
    return _planned_steps(circ, _outer_swaps(circ.gates, q))


def _outer_swaps(gates: list[Gate], q: int) -> list[tuple[int, int]]:
    """Pair each H target below the top positions with a free top qubit.

    With k distinct targets the top positions are q-k..q-1; as many
    targets lie below them as non-targets lie in them, so the pairs are
    disjoint swaps that leave every target on top.
    """
    targets = {g.targets[0] for g in gates if g.kind == "H"}
    top = q - len(targets)
    low = sorted(t for t in targets if t < top)
    free = [p for p in range(top, q) if p not in targets]
    return list(zip(low, free))


def _relabelled(gate: Gate, relabel: dict[int, int]) -> Gate:
    return replace(
        gate,
        targets=tuple(relabel.get(t, t) for t in gate.targets),
        controls=tuple(relabel.get(c, c) for c in gate.controls),
    )


def _planned_steps(circ: Circuit, swaps: list[tuple[int, int]]):
    relabel = dict(swaps + [(b, a) for a, b in swaps])
    # P as gates: three CNOTs swap two qubits.
    swap = [Gate("CNOT", (t,), (c,)) for a, b in swaps for t, c in ((b, a), (a, b), (b, a))]
    for seg in _segments(swap + [_relabelled(g, relabel) for g in circ.gates] + swap):
        if not isinstance(seg, list):
            yield seg
            continue
        every = np.arange(1 << circ.qubit_count, dtype=np.int64)
        # the inverse run: every gate is an involution
        yield run_basis_batch(seg[::-1], every)


def apply_steps(steps, amps: np.ndarray) -> np.ndarray:
    """Apply ``dense_steps`` output to a state or a batch of columns.

    Returns the evolved amplitudes. ``amps`` may be overwritten: H works
    in place and gathers alternate between ``amps`` and one spare buffer,
    so pass a copy to keep the input.
    """
    spare = None
    for step in steps:
        if isinstance(step, np.ndarray):
            if spare is None:
                spare = np.empty_like(amps)
            # mode="raise" would gather into a buffer of its own; every
            # index of a plan is in range, so "clip" moves the same values.
            amps, spare = np.take(amps, step, axis=0, out=spare, mode="clip"), amps
        else:
            amps = _dense_apply(amps, step)
    return amps


def _segments(gates: list[Gate]):
    """Yield each maximal run of permutation gates as a list, each H alone."""
    run: list[Gate] = []
    for gate in gates:
        if gate.kind != "H":
            run.append(gate)
            continue
        if run:
            yield run
            run = []
        yield gate
    if run:
        yield run


def _dense_apply(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one H; axis 1 of the view is the target qubit."""
    view = amps.reshape(-1, 2, 1 << gate.targets[0], *amps.shape[1:])
    a0, a1 = view[:, 0], view[:, 1]
    # (a0 + a1) * _SQRT_HALF and (a0 - a1) * _SQRT_HALF, bit for bit,
    # with one half-size temporary instead of four.
    total = a0 + a1
    np.subtract(a0, a1, out=a1)
    np.multiply(total, _SQRT_HALF, out=a0)
    a1 *= _SQRT_HALF
    return view.reshape(amps.shape)


# ---------------------------------------------------------------------------
# Sparse engine


def sparse_apply(state: dict[int, complex], gates: list[Gate]) -> dict[int, complex]:
    """Apply a gate list to a sparse state; returns a new dict.

    Each run of permutation gates, ORACLE gates with their own tables
    among them, relabels the keys in one ``run_basis_batch`` call, on an
    object array of Python ints, so keys of any width take the same path.
    An H at most doubles the support, so the qubit cap bounds it as it
    bounds the dense engine: no more than 2^cap entries.

    Raises:
        QubitCapExceeded: before an H that could take the support past
            2^cap entries.
    """
    cap = qubit_cap()
    for seg in _segments(gates):
        if isinstance(seg, list):
            keys = np.array(list(state), dtype=object)
            moved = run_basis_batch(seg, keys)
            state = dict(zip(moved.tolist(), state.values()))
            continue
        if 2 * len(state) > 1 << cap:
            raise QubitCapExceeded(
                f"sparse support of {2 * len(state)} entries would pass 2^{cap}"
            )
        t_bit = 1 << seg.targets[0]
        nxt: dict[int, complex] = {}
        for k, a in state.items():
            h = a * _SQRT_HALF
            k0 = k & ~t_bit
            k1 = k0 | t_bit
            nxt[k0] = nxt.get(k0, 0.0) + h
            nxt[k1] = nxt.get(k1, 0.0) + (h if k == k0 else -h)
        state = {k: a for k, a in nxt.items() if abs(a) > _PRUNE}
    return state


# ---------------------------------------------------------------------------
# Basis tracker


def run_basis_batch(gates: list[Gate], bits: np.ndarray) -> np.ndarray:
    """Track an array of basis states through permutation-only gates.

    ``bits`` holds basis indices, int64 or Python ints of any width in an
    object array; the result is a new array of the same dtype whose entry
    i is the image of ``bits[i]`` under the gates, in order. The gates
    act on bit planes (bit slicing, as in Biham, "A fast new DES
    implementation in software", FSE 1997): each touched qubit's bit of
    every index, packed eight to a byte. An X/CNOT/TOFFOLI/MCX XORs the
    AND of its control planes into its target plane; an ORACLE looks up
    its control planes as an index into its own truth table and XORs the
    entry into its target planes. The planes are written back at the
    end, so one gate loop serves both dtypes.

    Raises:
        ValueError: on H, which does not permute basis states, or, for
            int64 indices, on a gate past qubit 62.
    """
    bits = np.asarray(bits)
    for gate in gates:
        if gate.kind == "H":
            raise ValueError(f"{gate.kind} is not a permutation gate")
    touched = {q for gate in gates for q in gate.qubits}
    if bits.dtype != object and max(touched, default=0) > 62:
        raise ValueError("int64 basis indices hold at most 63 qubits")
    unpack = partial(np.unpackbits, count=len(bits), bitorder="little")
    planes = {q: np.packbits(((bits >> q) & 1) != 0, bitorder="little") for q in touched}
    for gate in gates:
        if gate.kind == "ORACLE":
            index = np.zeros(len(bits), dtype=np.int64)
            for j, c in enumerate(gate.controls):
                index |= unpack(planes[c]).astype(np.int64) << j
            delta = np.array(gate.table, dtype=np.int64)[index]
            for j, t in enumerate(gate.targets):
                planes[t] ^= np.packbits((delta >> j) & 1, bitorder="little")
        else:
            hit = np.uint8(0xFF)
            for c in gate.controls:
                hit = hit & planes[c]
            planes[gate.targets[0]] ^= hit
    out = bits & ~sum(1 << q for q in touched)
    for q, plane in planes.items():
        out |= unpack(plane).astype(bits.dtype) << q
    return out


def extract_bits(bits: int, qubits: Sequence[int]) -> int:
    """Collect the listed qubits of a basis index into a packed integer.

    An integer array of indices gives the array of their packed values.
    """
    out = bits & 0
    for j, q in enumerate(qubits):
        out |= ((bits >> q) & 1) << j
    return out
