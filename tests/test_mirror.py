"""Property tests of the compute/uncompute mirror in the synthesis builder."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qgms.circuit import Circuit
from qgms.sim import run_basis_batch
from qgms.synth import _Builder


@st.composite
def gate_specs(draw, width):
    """Permutation gates as (target, controls) positions among ``width`` qubits."""
    specs = []
    for _ in range(draw(st.integers(0, 8))):
        qs = draw(st.permutations(range(width)))
        k = draw(st.integers(0, min(3, width - 1)))
        specs.append((qs[0], tuple(qs[1 : 1 + k])))
    return specs


def emit(circ, specs, qubits):
    """X, CNOT, Toffoli or MCX per spec, by the number of controls."""
    for t, cs in specs:
        if cs:
            circ.mcx([qubits[c] for c in cs], qubits[t])
        else:
            circ.x(qubits[t])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nested_mirrors_restore_every_qubit_but_the_body_target(data):
    d = data.draw(st.integers(1, 3), label="data qubits")
    a = data.draw(st.integers(0, 3), label="outer pool qubits")
    b = data.draw(st.integers(0, 3), label="inner pool qubits")
    outer = data.draw(gate_specs(d + a), label="outer block")
    inner = data.draw(gate_specs(d + a + b), label="inner block")
    controls = data.draw(
        st.lists(st.integers(0, d + a + b - 1), min_size=1, max_size=3, unique=True),
        label="body controls",
    )

    circ = Circuit(d)
    bld = _Builder(circ)
    with bld.mirrored(lambda: [bld.pool_alloc() for _ in range(a + b)]):
        pass  # leaves a + b clean qubits in the pool
    start_free = list(bld._free)

    def block(specs, held, take):
        qubits = held + [bld.pool_alloc() for _ in range(take)]
        emit(circ, specs, qubits)
        return qubits

    with bld.mirrored(lambda: block(outer, list(range(d)), a)) as outer_qubits:
        before_inner = list(bld._free)
        with bld.mirrored(lambda: block(inner, outer_qubits, b)) as qubits:
            body_at = len(circ.gates)
            target = bld.fresh()
            circ.mcx([qubits[c] for c in controls], target)
        # the inner block's qubits came back first, on top of the pool
        assert bld._free == before_inner
        assert not set(outer_qubits[d:]) & set(bld._free)
    assert bld._free == start_free

    inputs = np.arange(1 << circ.qubit_count, dtype=np.int64)
    out = run_basis_batch(circ.gates, inputs)
    assert np.array_equal((out ^ inputs) & ~(1 << target), np.zeros_like(inputs))
    # the body saw both computed blocks
    mid = run_basis_batch(circ.gates[:body_at], inputs)
    hit = np.ones_like(inputs)
    for c in controls:
        hit &= (mid >> qubits[c]) & 1
    assert np.array_equal((out ^ inputs) >> target, hit)
