"""Property tests: the batched basis tracker against the per-state engines."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qgms.circuit import Circuit, Gate
from qgms.sim import run_basis, run_basis_batch, run_sparse

KINDS = ["X", "CNOT", "TOFFOLI", "MCX", "ORACLE"]


@st.composite
def permutation_circuits(draw):
    """Random circuits over X, CNOT, TOFFOLI, MCX and ORACLE on 4-6 qubits."""
    q = draw(st.integers(4, 6))
    circ = Circuit(q)
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(KINDS))
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
            circ.oracle_block(
                f"f{i}", table.__getitem__, ins=qs[:n_in], outs=qs[n_in : n_in + n_out]
            )
            continue
        n_controls = {"X": 0, "CNOT": 1, "TOFFOLI": 2}.get(kind)
        if n_controls is None:
            n_controls = draw(st.integers(3, q - 1))
        circ.append(Gate(kind, (qs[0],), tuple(qs[1 : 1 + n_controls])))
    return circ


def every_input(circ):
    return np.arange(1 << circ.qubit_count, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(permutation_circuits())
def test_batch_equals_single_state_tracker(circ):
    inputs = every_input(circ)
    got = run_basis_batch(circ.gates, circ.oracles, inputs)
    assert got.dtype == np.int64
    assert got.tolist() == [run_basis(circ, int(x)) for x in inputs]
    assert np.array_equal(inputs, every_input(circ))  # input left untouched


@settings(max_examples=40, deadline=None)
@given(permutation_circuits())
def test_batch_equals_sparse_engine_from_each_basis_state(circ):
    inputs = every_input(circ)
    got = run_basis_batch(circ.gates, circ.oracles, inputs)
    for x, y in zip(inputs.tolist(), got.tolist()):
        assert run_sparse(circ, initial=x) == {y: 1.0}


@settings(max_examples=80, deadline=None)
@given(permutation_circuits())
def test_circuit_then_inverse_mirror_is_identity(circ):
    inputs = every_input(circ)
    mirror = circ.gates + [g.inverse() for g in reversed(circ.gates)]
    assert np.array_equal(run_basis_batch(mirror, circ.oracles, inputs), inputs)
