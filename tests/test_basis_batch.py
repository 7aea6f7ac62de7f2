"""Property tests: the batched basis tracker against the per-state engines,
and the dense engine against the sparse one over every gate kind."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from probes import basis_state, run_basis

from qgms.circuit import Circuit, Gate
from qgms.sim import (
    StateVector,
    _dense_apply,
    apply_steps,
    dense_steps,
    run,
    run_basis_batch,
    sparse_apply,
)

KINDS = ["X", "CNOT", "TOFFOLI", "MCX", "ORACLE"]
ALL_KINDS = KINDS + ["H"]


@st.composite
def circuits(draw, kinds=KINDS, qubits=(4, 6), max_gates=12):
    """Random circuits over ``kinds`` on qubits[0]..qubits[1] qubits."""
    q = draw(st.integers(*qubits))
    if q < 4:
        kinds = [k for k in kinds if k != "MCX"]  # MCX needs three controls
    circ = Circuit(q)
    for i in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        qs = draw(st.permutations(range(q)))
        if kind == "ORACLE":
            n_in = draw(st.integers(1, q - 1))
            n_out = draw(st.integers(1, q - n_in))
            table = tuple(
                draw(
                    st.lists(
                        st.integers(0, (1 << n_out) - 1),
                        min_size=1 << n_in,
                        max_size=1 << n_in,
                    )
                )
            )
            circ.oracle_block(table.__getitem__, ins=qs[:n_in], outs=qs[n_in : n_in + n_out])
            continue
        n_controls = {"CNOT": 1, "TOFFOLI": 2}.get(kind, 0)
        if kind == "MCX":
            n_controls = draw(st.integers(3, q - 1))
        circ.append(Gate(kind, (qs[0],), tuple(qs[1 : 1 + n_controls])))
    return circ


permutation_circuits = circuits


def every_input(circ):
    return np.arange(1 << circ.qubit_count, dtype=np.int64)


def as_dense(state, qubit_count):
    """A sparse state's amplitudes as a dense vector."""
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[list(state)] = list(state.values())
    return amps


@settings(max_examples=80, deadline=None)
@given(permutation_circuits())
def test_batch_equals_single_state_tracker(circ):
    inputs = every_input(circ)
    got = run_basis_batch(circ.gates, inputs)
    assert got.dtype == np.int64
    assert got.tolist() == [run_basis(circ, int(x)) for x in inputs]
    assert np.array_equal(inputs, every_input(circ))  # input left untouched


@settings(max_examples=40, deadline=None)
@given(permutation_circuits())
def test_batch_equals_sparse_engine_from_each_basis_state(circ):
    inputs = every_input(circ)
    got = run_basis_batch(circ.gates, inputs)
    for x, y in zip(inputs.tolist(), got.tolist()):
        assert sparse_apply({x: 1.0 + 0j}, circ.gates) == {y: 1.0}


@settings(max_examples=80, deadline=None)
@given(permutation_circuits(), circuits(ALL_KINDS, (3, 7), 16), st.integers(0, 2**32 - 1))
def test_circuit_then_inverse_mirror_is_identity(perm, circ, seed):
    """Every gate kind is its own inverse, so a circuit followed by its gates
    reversed is the identity: on every basis index, and, with H, on random
    states run by the dense engine."""
    inputs = every_input(perm)
    mirror = perm.gates + perm.gates[::-1]
    assert np.array_equal(run_basis_batch(mirror, inputs), inputs)
    q = circ.qubit_count
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    amps /= np.linalg.norm(amps)
    mirror = Circuit(q, circ.gates + circ.gates[::-1])
    out = run(mirror, state=StateVector(q, amps)).amps
    assert np.max(np.abs(out - amps)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(circuits(ALL_KINDS, (3, 7), 16), st.data())
def test_dense_matches_sparse_from_a_basis_state(circ, data):
    x = data.draw(st.integers(0, (1 << circ.qubit_count) - 1))
    dense = run(circ, basis_state(circ.qubit_count, x)).amps
    sparse = sparse_apply({x: 1.0 + 0j}, circ.gates)
    sparse = as_dense(sparse, circ.qubit_count)
    assert np.max(np.abs(dense - sparse)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(circuits(ALL_KINDS, (3, 7), 16), st.integers(0, 2**32 - 1))
def test_dense_batch_equals_each_column_run_alone(circ, seed):
    q = circ.qubit_count
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(1 << q, 3)) + 1j * rng.normal(size=(1 << q, 3))
    out = run(circ, state=StateVector(q, batch)).amps
    for j in range(batch.shape[1]):
        alone = run(circ, state=StateVector(q, batch[:, j].copy())).amps
        assert np.array_equal(out[:, j], alone)


@settings(max_examples=60, deadline=None)
@given(circuits(ALL_KINDS, (3, 7), 16), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_planned_steps_on_column_blocks_equal_one_run_of_the_batch(circ, seed, width):
    q = circ.qubit_count
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(1 << q, 7)) + 1j * rng.normal(size=(1 << q, 7))
    whole = run(circ, state=StateVector(q, batch)).amps
    steps = list(dense_steps(circ))
    for start in range(0, batch.shape[1], width):
        block = batch[:, start : start + width].copy()
        assert np.array_equal(apply_steps(steps, block), whole[:, start : start + width])


@st.composite
def relabelled_circuits(draw):
    """Circuits whose plan relabels qubits: H on low targets, some led or
    closed by an H, some with no permutation gate."""
    base = draw(circuits(draw(st.sampled_from([ALL_KINDS, ["H"]])), (3, 7), 16))
    q = base.qubit_count
    gates = list(base.gates)
    if draw(st.booleans()):
        gates.insert(0, Gate("H", (draw(st.integers(0, 1)),)))
    if draw(st.booleans()):
        gates.append(Gate("H", (draw(st.integers(0, q - 1)),)))
    gates.insert(draw(st.integers(0, len(gates))), Gate("H", (0,)))
    return Circuit(q, gates)


def unrelabelled_run(circ, amps):
    """The circuit on the logical qubits: one kernel map per permutation
    run, ``_dense_apply`` on each H's own target."""
    perm = []
    for gate in [*circ.gates, None]:
        if gate is not None and gate.kind in KINDS:
            perm.append(gate)
            continue
        if perm:
            moved = np.empty_like(amps)
            moved[run_basis_batch(perm, every_input(circ))] = amps
            amps, perm = moved, []
        if gate is not None:
            amps = _dense_apply(amps, gate)
    return amps


@settings(max_examples=80, deadline=None)
@given(relabelled_circuits(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_relabelled_plan_equals_unrelabelled_run_bit_for_bit(circ, seed, width):
    q = circ.qubit_count
    shape = (1 << q,) if width == 0 else (1 << q, width)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    steps = list(dense_steps(circ))
    outer = {g.targets[0] for g in circ.gates if g.kind == "H"}
    planned = {s.targets[0] for s in steps if not isinstance(s, np.ndarray)}
    assert planned == set(range(q - len(outer), q))
    assert np.array_equal(apply_steps(steps, amps.copy()), unrelabelled_run(circ, amps))


def wide_f(v):
    return (5 * v + 3) % 8


def wide_circuit():
    """A 70-qubit permutation circuit whose gates and oracle reach past qubit 62."""
    circ = Circuit(70)
    circ.x(64)
    circ.cnot(64, 69)
    circ.toffoli(0, 69, 63)
    circ.mcx([1, 63, 64], 68)
    circ.oracle_block(wide_f, ins=[2, 68, 69], outs=[65, 3, 67])
    circ.cnot(65, 1)
    return circ


WIDE_INPUTS = [0, 1, 6, (1 << 69) | 5, (1 << 64) | (1 << 63) | 2, (1 << 70) - 1]


def test_wide_batch_with_python_int_indices_equals_single_state_tracker():
    circ = wide_circuit()
    got = run_basis_batch(circ.gates, np.array(WIDE_INPUTS, dtype=object))
    assert got.dtype == object
    assert got.tolist() == [run_basis(circ, x) for x in WIDE_INPUTS]


@settings(max_examples=80, deadline=None)
@given(permutation_circuits(qubits=(4, 7)))
def test_object_array_indices_take_the_int64_path_bit_for_bit(circ):
    inputs = every_input(circ)
    got = run_basis_batch(circ.gates, inputs)
    wide = run_basis_batch(circ.gates, inputs.astype(object))
    assert wide.dtype == object
    assert wide.tolist() == got.tolist()


def shifted(circ, offset):
    """The circuit with every qubit moved up by ``offset``."""
    gates = [
        replace(
            g,
            targets=tuple(t + offset for t in g.targets),
            controls=tuple(c + offset for c in g.controls),
        )
        for g in circ.gates
    ]
    return Circuit(circ.qubit_count + offset, gates)


@settings(max_examples=80, deadline=None)
@given(permutation_circuits(qubits=(4, 7)), st.data())
def test_gates_across_qubit_63_equal_single_state_tracker(circ, data):
    """Shifted to qubits 60..66, every circuit straddles the int64 sign bit."""
    wide = shifted(circ, 60)
    inputs = data.draw(
        st.lists(st.integers(0, (1 << wide.qubit_count) - 1), min_size=1, max_size=16)
    )
    got = run_basis_batch(wide.gates, np.array(inputs, dtype=object))
    assert got.tolist() == [run_basis(wide, x) for x in inputs]


def test_wide_sparse_engine_matches_tracker_through_hadamards():
    perm = wide_circuit()
    after = Circuit(70)
    after.cnot(63, 0)
    after.oracle_block(wide_f, ins=[0, 64, 69], outs=[1, 2, 62])
    sandwich = Circuit(70, list(perm.gates))
    sandwich.h(66)
    sandwich.extend(after.gates)
    sandwich.h(66)
    for x in WIDE_INPUTS:
        y = run_basis(perm, x)
        assert sparse_apply({x: 1.0 + 0j}, perm.gates) == {y: 1.0}
        z = run_basis(after, y)
        state = sparse_apply({x: 1.0 + 0j}, sandwich.gates)
        assert list(state) == [z]
        assert abs(state[z] - 1.0) <= 1e-12
