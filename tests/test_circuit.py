"""Tests for the circuit IR and its Clifford+T cost model."""

from __future__ import annotations

import pytest

from qgms.circuit import Circuit, Gate, RegisterMismatch, resource_profile


def test_gate_shape_validation():
    with pytest.raises(RegisterMismatch):
        Gate("X", (0, 1))
    with pytest.raises(RegisterMismatch):
        Gate("CNOT", (0,), (0,))  # control overlaps target
    with pytest.raises(RegisterMismatch):
        Gate("TOFFOLI", (0,), (1,))
    with pytest.raises(RegisterMismatch):
        Gate("MCX", (0,), (1, 2))  # must have >= 3 controls
    with pytest.raises(ValueError):
        Gate("CZ", (0,), (1,))
    for kind in ("S", "T", "TDG"):  # phase gates are not in the set
        with pytest.raises(ValueError):
            Gate(kind, (0,))


def test_circuit_bounds_check():
    c = Circuit(2)
    c.cnot(0, 1)
    with pytest.raises(RegisterMismatch):
        c.toffoli(0, 1, 2)


def test_mcx_lowering():
    c = Circuit(5)
    c.mcx([0], 4)
    c.mcx([0, 1], 4)
    c.mcx([0, 1, 2], 4)
    kinds = [g.kind for g in c.gates]
    assert kinds == ["CNOT", "TOFFOLI", "MCX"]


def test_oracle_block_registration():
    c = Circuit(4)
    fn = object()
    c.oracle_block("f", fn, ins=[0, 1], outs=[2, 3])
    assert c.oracles["f"] is fn
    c.oracle_block("f", fn, ins=[0, 1], outs=[2, 3])  # same object ok
    with pytest.raises(RegisterMismatch):
        c.oracle_block("f", object(), ins=[0], outs=[1])


def test_resource_profile_single_toffoli():
    c = Circuit(3)
    c.toffoli(0, 1, 2)
    p = resource_profile(c)
    assert p.toffoli == 1
    assert p.cnot == 6
    assert p.t_depth == 7
    assert p.ancilla == 0
    assert p.total_qubits == 3


def test_resource_profile_mcx_ladder():
    # k controls: 2(k-1) Toffolis, one CNOT, k-1 borrowed ancillas.
    for k in (3, 5, 8):
        c = Circuit(k + 1)
        c.mcx(list(range(k)), k)
        p = resource_profile(c)
        assert p.toffoli == 2 * (k - 1)
        assert p.raw_cnot == 1
        assert p.cnot == 1 + 6 * 2 * (k - 1)
        assert p.t_depth == 7 * 2 * (k - 1)
        assert p.ancilla == k - 1
        assert p.total_qubits == k + 1 + (k - 1)


def test_resource_profile_mixed():
    c = Circuit(6, ancilla_count=2)
    c.cnot(0, 1)
    c.cnot(2, 3)
    c.toffoli(0, 1, 2)
    c.mcx([0, 1, 2, 3], 4)
    p = resource_profile(c)
    assert p.toffoli == 1 + 6
    assert p.raw_cnot == 3
    assert p.cnot == 3 + 6 * 7
    assert p.ancilla == 2 + 3
    assert p.total_qubits == 6 + 3


def test_to_text_format():
    c = Circuit(4, registers={"data": (0, 1), "work": (2, 3)})
    c.x(0)
    c.cnot(0, 2)
    c.toffoli(0, 1, 3)
    c.oracle_block("f", object(), ins=[0, 1], outs=[2])
    text = c.to_text()
    assert text.splitlines() == [
        "circuit 4",
        "reg data 0 1",
        "reg work 2 3",
        "X 0",
        "CNOT 2 ; 0",
        "TOFFOLI 3 ; 0 1",
        "ORACLE f 2 ; 0 1",
    ]
