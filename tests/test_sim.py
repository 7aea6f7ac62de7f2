"""Cross-checks between the three simulation engines."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from probes import basis_state, marginal, reduced_purity, run_basis

from qgms.circuit import Circuit
from qgms.sim import (
    QubitCapExceeded,
    extract_bits,
    run,
    run_basis_batch,
    sparse_apply,
)


def as_dense(state: dict[int, complex], qubit_count: int) -> np.ndarray:
    """A sparse state's amplitudes as a dense vector."""
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[list(state)] = list(state.values())
    return amps


def random_circuit(rng: random.Random, q: int, gates: int, h_frac: float) -> Circuit:
    c = Circuit(q)
    for _ in range(gates):
        r = rng.random()
        if r < h_frac:
            c.h(rng.randrange(q))
        else:
            kind = rng.choice(["X", "CNOT", "TOFFOLI", "MCX"])
            need = {"X": 1, "CNOT": 2, "TOFFOLI": 3, "MCX": 4}[kind]
            qs = rng.sample(range(q), need)
            if kind == "X":
                c.x(qs[0])
            elif kind == "CNOT":
                c.cnot(qs[0], qs[1])
            elif kind == "TOFFOLI":
                c.toffoli(qs[0], qs[1], qs[2])
            else:
                c.mcx(qs[:3], qs[3])
    return c


# ---------------------------------------------------------------------------
# Dense engine basics


def test_bell_state():
    c = Circuit(2)
    c.h(0)
    c.cnot(0, 1)
    s = run(c)
    want = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert np.allclose(s.amps, want)


def test_x_and_controls():
    c = Circuit(3)
    c.x(0)
    c.cnot(0, 1)
    c.toffoli(0, 1, 2)
    s = run(c)
    assert abs(s.amps[0b111]) ** 2 == pytest.approx(1.0)


def test_gate_identities_return_to_start():
    for build in [
        lambda c: (c.h(0), c.h(0)),
        lambda c: (c.x(0), c.x(0)),
        lambda c: [gate(0) for gate in (c.h, c.x, c.h) * 2],  # Z = HXH, twice
    ]:
        c = Circuit(1)
        c.h(0)  # start off-basis so phases matter
        build(c)
        c.h(0)
        s = run(c)
        assert abs(s.amps[0]) ** 2 == pytest.approx(1.0)


def test_norm_preserved():
    c = random_circuit(random.Random(3), 5, 40, 0.3)
    assert np.linalg.norm(run(c).amps) == pytest.approx(1.0)


def test_qubit_cap_enforced(monkeypatch):
    monkeypatch.setenv("QGMS_QUBIT_CAP", "4")
    with pytest.raises(QubitCapExceeded):
        run(Circuit(5))
    run(Circuit(4))  # at the cap is fine
    monkeypatch.delenv("QGMS_QUBIT_CAP")
    run(Circuit(5))
    for bad in ("abc", "0"):
        monkeypatch.setenv("QGMS_QUBIT_CAP", bad)
        with pytest.raises(ValueError, match="positive integer"):
            run(Circuit(1))


# ---------------------------------------------------------------------------
# Oracle blocks


def test_oracle_xor_semantics():
    # f(x) = x + 1 mod 4 on two input qubits, two output qubits.
    fn = lambda x: (x + 1) & 3  # noqa: E731
    c = Circuit(4)
    c.x(1)  # input register holds 2
    c.oracle_block(fn, ins=[0, 1], outs=[2, 3])
    s = run(c)
    assert abs(s.amps[0b1110]) ** 2 == pytest.approx(1.0)  # input 2, output 3
    # Applying the block twice XORs the same value back out.
    c.oracle_block(fn, ins=[0, 1], outs=[2, 3])
    s = run(c)
    assert abs(s.amps[0b0010]) ** 2 == pytest.approx(1.0)


def test_oracle_is_called_once_per_input_when_built_and_never_when_run():
    calls = []

    def counted(x):
        calls.append(x)
        return (3 * x + 1) & 3

    c = Circuit(5)
    c.x(0)
    c.oracle_block(counted, ins=[0, 1, 4], outs=[2, 3])
    assert calls == list(range(8))
    c.h(4)  # the dense and sparse engines take an H; the trackers run the gates before it
    perm = c.gates[:-1]
    calls.clear()
    run(c)
    run_basis(Circuit(5, perm), 1)
    run_basis_batch(perm, np.arange(32, dtype=np.int64))
    run_basis_batch(perm, np.arange(32).astype(object))
    sparse_apply({0: 1.0 + 0j}, c.gates)
    assert calls == []


# ---------------------------------------------------------------------------
# Basis tracker agrees with dense on permutation circuits


def test_basis_tracker_matches_dense_exhaustive():
    rng = random.Random(11)
    for trial in range(5):
        c = random_circuit(rng, 5, 30, 0.0)
        c.oracle_block(lambda x: (x * 2 + 1) & 3, ins=[0, 1, 2], outs=[3, 4])
        for bits in range(1 << 5):
            out = run_basis(c, bits)
            s = run(c, basis_state(5, bits))
            assert abs(s.amps[out]) ** 2 == pytest.approx(1.0)


def test_basis_tracker_rejects_hadamard():
    c = Circuit(1)
    c.h(0)
    with pytest.raises(ValueError):
        run_basis(c, 0)


def test_sparse_support_is_bounded_by_the_qubit_cap(monkeypatch):
    c = Circuit(5)
    for q in range(5):
        c.h(q)
    monkeypatch.setenv("QGMS_QUBIT_CAP", "4")
    with pytest.raises(QubitCapExceeded):
        sparse_apply({0: 1.0 + 0j}, c.gates)
    monkeypatch.setenv("QGMS_QUBIT_CAP", "5")
    state = sparse_apply({0: 1.0 + 0j}, c.gates)
    assert len(state) == 32  # 2^cap entries is allowed


def test_batched_tracker_rejects_non_permutations_and_wide_gates():
    c = Circuit(1)
    c.h(0)
    with pytest.raises(ValueError, match="not a permutation gate"):
        run_basis_batch(c.gates, np.zeros(1, dtype=np.int64))
    wide = Circuit(64)
    wide.x(63)
    with pytest.raises(ValueError, match="63 qubits"):
        run_basis_batch(wide.gates, np.zeros(1, dtype=np.int64))


# ---------------------------------------------------------------------------
# Sparse engine agrees with dense


def test_sparse_matches_dense_random_circuits():
    rng = random.Random(23)
    for trial in range(4):
        c = random_circuit(rng, 7, 60, 0.25)
        dense = run(c, basis_state(7, 5))
        sparse = as_dense(sparse_apply({5: 1.0 + 0j}, c.gates), 7)
        assert np.allclose(dense.amps, sparse, atol=1e-10)


def test_sparse_support_collapses_after_uncompute():
    # H, entangle, then undo: support returns to a single basis state.
    c = Circuit(3)
    c.h(0)
    c.cnot(0, 1)
    c.cnot(0, 1)
    c.h(0)
    state = sparse_apply({0: 1.0 + 0j}, c.gates)
    assert set(state) == {0}
    assert state[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Marginals and entanglement of dense states


def test_marginal_bell():
    c = Circuit(3)
    c.h(0)
    c.cnot(0, 2)
    s = run(c)
    m = marginal(s, [0, 2])
    assert np.allclose(m, [0.5, 0, 0, 0.5])
    assert np.allclose(marginal(s, [1]), [1, 0])


def test_reduced_purity_product_vs_entangled():
    c = Circuit(2)
    c.h(0)
    s = run(c)
    assert reduced_purity(s, [0]) == pytest.approx(1.0)
    c.cnot(0, 1)
    s = run(c)
    assert reduced_purity(s, [0]) == pytest.approx(0.5)
    assert reduced_purity(s, [1]) == pytest.approx(0.5)


def test_pack_extract_roundtrip():
    qubits = [4, 1, 6]
    for val in range(8):
        bits = sum(((val >> j) & 1) << q for j, q in enumerate(qubits))
        assert extract_bits(bits, qubits) == val

