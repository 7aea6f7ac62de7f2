"""Tests for the circuit IR and its Clifford+T cost model."""

from __future__ import annotations

import dataclasses

import pytest

from qgms.circuit import (
    Circuit,
    Gate,
    RegisterMismatch,
    ResourceProfile,
    gate_tally,
    resource_profile,
)
from qgms.synth import gauss_solve_circuit, jordan_solve_circuit, kernel_circuit, rref_circuit


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


@pytest.mark.parametrize(
    "kind, targets, controls, table",
    [
        ("ORACLE", (2, 3), (0, 1), None),  # no table
        ("X", (0,), (), (0, 1)),  # a table on a gate that is not an oracle
        ("ORACLE", (2, 3), (0, 1), (0, 1, 2)),  # 3 entries for 2 inputs
        ("ORACLE", (2, 3), (0, 1), (0, 1, 4, 3)),  # 4 needs a third target
        ("ORACLE", (2,), (0,), (-1, 0)),
    ],
    ids=["no-table", "table-on-x", "wrong-length", "entry-too-wide", "negative-entry"],
)
def test_malformed_oracle_gates_raise(kind, targets, controls, table):
    with pytest.raises((ValueError, RegisterMismatch)):
        Gate(kind, targets, controls, table)


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
    c = Circuit(6, registers={"data": (0, 1), "work": (2, 3, 4, 5)})
    c.x(0)
    c.h(1)
    c.cnot(0, 2)
    c.toffoli(0, 1, 3)
    c.mcx([0, 1, 2, 3], 5)
    c.oracle_block(lambda x: x & 1, ins=[0, 1], outs=[2])
    c.oracle_block(lambda x: 3 * x, ins=[0], outs=[4, 5])
    text = c.to_text()
    assert text.endswith("\n")
    assert text.splitlines() == [
        "circuit 6",
        "reg data 0 1",
        "reg work 2 3 4 5",
        "X 0",
        "H 1",
        "CNOT 2 ; 0",
        "TOFFOLI 3 ; 0 1",
        "MCX 5 ; 0 1 2 3",
        "ORACLE 2 ; 0 1",
        "ORACLE 4 5 ; 0",
    ]


def test_gates_are_immutable_whoever_builds_them():
    c = Circuit(3)
    c.toffoli(0, 1, 2)
    built, direct = c.gates[0], Gate("TOFFOLI", (2,), (0, 1))
    assert built == direct and hash(built) == hash(direct)
    for gate in (built, direct):
        for name, value in [("kind", "X"), ("targets", (0,)), ("controls", ()), ("table", (0,))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gate, name, value)
    assert dataclasses.replace(built, targets=(1,), controls=(0, 2)) == Gate(
        "TOFFOLI", (1,), (0, 2)
    )


# Each constructor, and the direct gate it stands for, over a qubit tuple
# whose first entry is the target and whose rest are the controls.
CONSTRUCTORS = {
    "x": (lambda c, q: c.x(q[0]), lambda q: Gate("X", q[:1])),
    "h": (lambda c, q: c.h(q[0]), lambda q: Gate("H", q[:1])),
    "cnot": (lambda c, q: c.cnot(q[1], q[0]), lambda q: Gate("CNOT", q[:1], q[1:2])),
    "toffoli": (
        lambda c, q: c.toffoli(q[1], q[2], q[0]),
        lambda q: Gate("TOFFOLI", q[:1], q[1:3]),
    ),
    "mcx0": (lambda c, q: c.mcx([], q[0]), lambda q: Gate("MCX", q[:1])),
    "mcx1": (lambda c, q: c.mcx(list(q[1:2]), q[0]), lambda q: Gate("CNOT", q[:1], q[1:2])),
    "mcx2": (
        lambda c, q: c.mcx(list(q[1:3]), q[0]),
        lambda q: Gate("TOFFOLI", q[:1], q[1:3]),
    ),
    "mcx3": (lambda c, q: c.mcx(list(q[1:4]), q[0]), lambda q: Gate("MCX", q[:1], q[1:4])),
    "mcx4": (lambda c, q: c.mcx(list(q[1:5]), q[0]), lambda q: Gate("MCX", q[:1], q[1:5])),
}
QUBITS = {
    "valid": (4, 0, 1, 2, 3),
    "duplicate-target": (1, 1, 0, 2, 3),
    "duplicate-control": (0, 1, 1, 2, 3),
    "duplicate-late": (4, 0, 1, 2, 2),
    "negative-target": (-1, 0, 1, 2, 3),
    "negative-control": (4, 0, -2, 1, 2),
    "out-of-range-target": (5, 0, 1, 2, 3),
    "out-of-range-control": (4, 0, 1, 2, 9),
    "negative-and-out-of-range": (7, -1, 1, 2, 3),
    "duplicate-and-out-of-range": (6, 6, 1, 2, 3),
}


def _outcome(add, width=5):
    """The gates ``add`` leaves on a ``width``-qubit circuit, or its error."""
    circ = Circuit(width)
    circ.x(0)
    try:
        add(circ)
    except (RegisterMismatch, ValueError) as exc:
        assert circ.gates == [Gate("X", (0,))]  # a failed gate leaves no trace
        return type(exc), str(exc)
    return circ.gates


@pytest.mark.parametrize("qubits", QUBITS.values(), ids=QUBITS.keys())
@pytest.mark.parametrize("kind", CONSTRUCTORS)
def test_constructors_agree_with_direct_gates(kind, qubits):
    construct, direct = CONSTRUCTORS[kind]
    built = _outcome(lambda c: construct(c, qubits))
    assert built == _outcome(lambda c: c.append(direct(qubits)))


# The table's constructors plus mcx at five controls, with the qubits each
# reads from the front of its tuple.
RANDOM_CONSTRUCTORS = {
    **CONSTRUCTORS,
    "mcx5": (lambda c, q: c.mcx(list(q[1:6]), q[0]), lambda q: Gate("MCX", q[:1], q[1:6])),
}
ARITY = {"x": 1, "h": 1, "cnot": 2, "toffoli": 3, **{f"mcx{k}": k + 1 for k in range(6)}}


def test_constructors_agree_with_direct_gates_at_random_widths():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        kind = draw(st.sampled_from(sorted(RANDOM_CONSTRUCTORS)))
        width = draw(st.integers(1, 8))
        qubits = draw(st.tuples(*[st.integers(-2, width + 1)] * ARITY[kind]))
        return kind, width, qubits

    seen = set()

    @settings(max_examples=600, deadline=None)
    @given(cases())
    def check(case):
        kind, width, qubits = case
        construct, direct = RANDOM_CONSTRUCTORS[kind]
        built = _outcome(lambda c: construct(c, qubits), width)
        assert built == _outcome(lambda c: c.append(direct(qubits)), width)
        edges = {-1: "-1", width - 1: "width-1", width: "width"}
        seen.update([kind, "raises" if isinstance(built, tuple) else "appends"])
        seen.update(edges[q] for q in qubits if q in edges)
        if len(set(qubits)) < len(qubits):
            seen.add("duplicate")

    check()
    # The draws reached every kind, -1 (just below the range), width - 1 and
    # width (either side of its top), repeated qubits, and both outcomes.
    assert seen >= {*RANDOM_CONSTRUCTORS, "-1", "width-1", "width", "duplicate", "raises", "appends"}


def test_solver_gates_take_the_fast_path(monkeypatch):
    # A constructor builds a gate whose qubits pass its comparisons without
    # Gate.__post_init__; only a failing gate takes the full path.
    calls = []
    post_init = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda self: calls.append(self) or post_init(self))
    circuits = [
        gauss_solve_circuit(8).circuit,
        jordan_solve_circuit(8).circuit,
        rref_circuit(3, 3),
        kernel_circuit(2, 2),
    ]
    assert calls == []
    monkeypatch.undo()
    for circ in circuits:
        for g in circ.gates:
            assert g == Gate(g.kind, g.targets, g.controls, g.table)
            circ._check(g)


def _reference_text(circ):
    """``to_text`` as one formula for every kind: kind, targets, then ``;``
    and controls when there are any."""
    lines = [f"circuit {circ.qubit_count}"]
    lines += ["reg " + name + " " + " ".join(map(str, qs)) for name, qs in circ.registers.items()]
    for g in circ.gates:
        line = f"{g.kind} " + " ".join(map(str, g.targets))
        if g.controls:
            line += " ; " + " ".join(map(str, g.controls))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _reference_profile(circ):
    """The cost model from kind counts, with the widest ladder found in a
    pass of its own."""
    kinds = [g.kind for g in circ.gates]
    ladders = [len(g.controls) - 1 for g in circ.gates if g.kind == "MCX"]
    toffoli = kinds.count("TOFFOLI") + 2 * sum(ladders)
    raw_cnot = kinds.count("CNOT") + len(ladders)
    peak = max(ladders, default=0)
    return ResourceProfile(
        cnot=raw_cnot + 6 * toffoli,
        toffoli=toffoli,
        t_depth=7 * toffoli,
        ancilla=circ.ancilla_count + peak,
        total_qubits=circ.qubit_count + peak,
        raw_cnot=raw_cnot,
    )


def test_text_and_profile_match_references_on_random_circuits():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # Fewest qubits each kind can take; ORACLE has at least one input and
    # one output.
    least = {"X": 1, "H": 1, "CNOT": 2, "TOFFOLI": 3, "MCX": 4, "ORACLE": 2}

    @st.composite
    def gates(draw, width):
        kind = draw(st.sampled_from([k for k, q in least.items() if q <= width]))
        qubits = draw(st.permutations(range(width)))
        if kind == "MCX":
            size = draw(st.integers(4, width))
        elif kind == "ORACLE":
            size = draw(st.integers(2, width))
        else:
            size = least[kind]
        split = draw(st.integers(1, size - 1)) if kind == "ORACLE" else 1
        table = (0,) * (1 << (size - split)) if kind == "ORACLE" else None
        targets = tuple(qubits[:split])
        return Gate(kind, targets, tuple(qubits[split:size]), table)

    @st.composite
    def circuits(draw):
        width = draw(st.integers(1, 14))
        circ = Circuit(width, ancilla_count=draw(st.integers(0, width)))
        names = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
        for name in names:
            circ.registers[name] = tuple(draw(st.lists(st.integers(0, width - 1), max_size=4)))
        for gate in draw(st.lists(gates(width), max_size=30)):
            circ.append(gate)
        return circ

    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(circuits())
    def check(circ):
        assert circ.to_text() == _reference_text(circ)
        ref = _reference_profile(circ)
        assert resource_profile(circ) == ref
        peak = ref.total_qubits - circ.qubit_count
        assert gate_tally(circ.gates) == (ref.raw_cnot, ref.toffoli, peak)
        seen.update(g.kind for g in circ.gates)
        if any(q >= 10 for g in circ.gates for q in g.qubits):
            seen.add("two-digit qubit")

    check()
    assert seen >= {*least, "two-digit qubit"}
