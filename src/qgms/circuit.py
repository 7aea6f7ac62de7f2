"""Reversible circuit IR: gates, registers, resource accounting.

The gate set is deliberately small: X, H, CNOT, Toffoli, multi-controlled
X, and opaque oracle blocks that XOR a classical function of one register
into another. Each of the six kinds is its own inverse, so a block is
undone by its gates in reverse order. Everything downstream (simulation,
cost models, text export) works off this one representation.

Costs are reported against a Clifford+T compilation convention: a Toffoli
expands to 7 T gates, 6 CNOTs, 2 Hadamards and an S with T-depth 7, and a
k-controlled X expands to a ladder of 2(k-1) Toffolis plus one CNOT using
k-1 temporarily borrowed ancillas that come back clean. The expansion is
never materialized as gates; the profile applies it arithmetically.

The qubit cap of the simulators (``qubit_cap``, ``QubitCapExceeded``)
is defined here too, so the command line checks it without loading
numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


class RegisterMismatch(Exception):
    """Raised when a gate references qubits outside or overlapping wrongly."""


# Gate kinds with fixed shapes, each its own inverse; ORACLE is the only
# named kind.
_KINDS = {"X", "H", "CNOT", "TOFFOLI", "MCX", "ORACLE"}

TOFFOLI_T_DEPTH = 7
TOFFOLI_CNOT_COUNT = 6

DEFAULT_QUBIT_CAP = 24


class QubitCapExceeded(Exception):
    """A dense state, or a sparse state's support, would pass 2^cap entries."""


def qubit_cap() -> int:
    """Qubit limit of both state engines; override with QGMS_QUBIT_CAP."""
    raw = os.environ.get("QGMS_QUBIT_CAP")
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"QGMS_QUBIT_CAP must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: kind, target qubits, control qubits, optional oracle name."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = self.targets + self.controls
        if len(set(qubits)) != len(qubits):
            raise RegisterMismatch(f"duplicate qubit in {self}")
        if any(q < 0 for q in qubits):
            raise RegisterMismatch(f"negative qubit in {self}")
        n_t, n_c = len(self.targets), len(self.controls)
        if self.kind in {"X", "H"} and (n_t, n_c) != (1, 0):
            raise RegisterMismatch(f"{self.kind} takes one target, no controls")
        if self.kind == "CNOT" and (n_t, n_c) != (1, 1):
            raise RegisterMismatch("CNOT takes one target, one control")
        if self.kind == "TOFFOLI" and (n_t, n_c) != (1, 2):
            raise RegisterMismatch("TOFFOLI takes one target, two controls")
        if self.kind == "MCX" and (n_t != 1 or n_c < 3):
            raise RegisterMismatch("MCX takes one target, three or more controls")
        if self.kind == "ORACLE" and (not self.name or n_t == 0 or n_c == 0):
            raise RegisterMismatch("ORACLE needs a name, inputs and outputs")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


# Circuit's constructors fill a checked gate's slots through their descriptors.
_set_kind, _set_targets, _set_controls, _set_name = (
    Gate.__dict__[f].__set__ for f in ("kind", "targets", "controls", "name")
)


def _valid_gate(kind: str, targets: tuple[int, ...], controls: tuple[int, ...]) -> Gate:
    gate = object.__new__(Gate)
    _set_kind(gate, kind)
    _set_targets(gate, targets)
    _set_controls(gate, controls)
    _set_name(gate, None)
    return gate


@dataclass
class ResourceProfile:
    """Clifford+T cost estimate for one circuit.

    ``cnot`` counts expanded CNOTs (explicit ones plus 6 per expanded
    Toffoli plus the ladder CNOT of each MCX); ``raw_cnot`` keeps the
    pre-expansion count for reconciliation against per-stage tallies.
    ``ancilla`` includes both the circuit's own ancilla qubits and the
    peak transient need of the widest MCX ladder.
    """

    cnot: int
    toffoli: int
    t_depth: int
    ancilla: int
    total_qubits: int
    raw_cnot: int = 0


@dataclass
class Circuit:
    """Gate list over ``qubit_count`` qubits with named registers.

    ``registers`` maps a name to the tuple of qubit indices it covers;
    ``ancilla_count`` is how many of the qubits are workspace rather than
    problem data. ``oracles`` maps oracle-block names to their function
    objects (anything with the oracle protocol; see qgms.oracles).
    """

    qubit_count: int
    gates: list[Gate] = field(default_factory=list)
    registers: dict[str, tuple[int, ...]] = field(default_factory=dict)
    ancilla_count: int = 0
    oracles: dict[str, object] = field(default_factory=dict)

    def _check(self, gate: Gate) -> None:
        top = max(gate.qubits)
        if top >= self.qubit_count:
            raise RegisterMismatch(
                f"gate touches qubit {top}, circuit has {self.qubit_count}"
            )

    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates: list[Gate]) -> None:
        for g in gates:
            self.append(g)

    # Constructors for each kind. A gate built directly checks its kind, shape
    # and qubits; a constructor fixes the kind and shape and compares only the
    # qubits, and a gate that fails them takes the full path, which raises.
    def x(self, q: int) -> None:
        if 0 <= q < self.qubit_count:
            self.gates.append(_valid_gate("X", (q,), ()))
        else:
            self.append(Gate("X", (q,)))

    def h(self, q: int) -> None:
        if 0 <= q < self.qubit_count:
            self.gates.append(_valid_gate("H", (q,), ()))
        else:
            self.append(Gate("H", (q,)))

    # cnot and toffoli, nearly every solver gate, inline _valid_gate's body.
    def cnot(self, control: int, target: int) -> None:
        if 0 <= control < self.qubit_count and 0 <= target < self.qubit_count and control != target:
            gate = object.__new__(Gate)
            _set_kind(gate, "CNOT")
            _set_targets(gate, (target,))
            _set_controls(gate, (control,))
            _set_name(gate, None)
            self.gates.append(gate)
        else:
            self.append(Gate("CNOT", (target,), (control,)))

    def toffoli(self, c1: int, c2: int, target: int) -> None:
        n = self.qubit_count
        if 0 <= c1 < n and 0 <= c2 < n and 0 <= target < n and c1 != c2 != target != c1:
            gate = object.__new__(Gate)
            _set_kind(gate, "TOFFOLI")
            _set_targets(gate, (target,))
            _set_controls(gate, (c1, c2))
            _set_name(gate, None)
            self.gates.append(gate)
        else:
            self.append(Gate("TOFFOLI", (target,), (c1, c2)))

    def mcx(self, controls: list[int], target: int) -> None:
        """Multi-controlled X. Two controls lower to a plain Toffoli."""
        qubits, n = (target, *controls), self.qubit_count
        if len(controls) == 1:
            self.cnot(controls[0], target)
        elif len(controls) == 2:
            self.toffoli(controls[0], controls[1], target)
        elif controls and len(set(qubits)) == len(qubits) and 0 <= min(qubits) and max(qubits) < n:
            self.gates.append(_valid_gate("MCX", (target,), tuple(controls)))
        else:
            self.append(Gate("MCX", (target,), tuple(controls)))

    def oracle_block(
        self, name: str, fn: object, ins: list[int], outs: list[int]
    ) -> None:
        """XOR fn(ins) into outs. Involution, so it is its own inverse."""
        existing = self.oracles.get(name)
        if existing is not None and existing is not fn:
            raise RegisterMismatch(f"oracle name {name!r} already bound")
        self.oracles[name] = fn
        self.append(Gate("ORACLE", tuple(outs), tuple(ins), name=name))

    def to_text(self) -> str:
        """Line-oriented export: header, registers, then one gate per line."""
        lines = [f"circuit {self.qubit_count}"]
        for name, qubits in self.registers.items():
            lines.append("reg " + name + " " + " ".join(map(str, qubits)))
        label = [str(q) for q in range(self.qubit_count)]  # each qubit formatted once
        for g in self.gates:
            if g.kind == "TOFFOLI":  # with CNOT, nearly every solver gate
                c1, c2 = g.controls
                line = f"TOFFOLI {label[g.targets[0]]} ; {label[c1]} {label[c2]}"
            elif g.kind == "CNOT":
                line = f"CNOT {label[g.targets[0]]} ; {label[g.controls[0]]}"
            else:
                head = f"ORACLE {g.name} " if g.kind == "ORACLE" else f"{g.kind} "
                line = head + " ".join(map(str, g.targets))
                if g.controls:
                    line += " ; " + " ".join(map(str, g.controls))
            lines.append(line)
        lines.append("")  # the final newline, without copying the joined text
        return "\n".join(lines)


def gate_tally(gates: list[Gate]) -> tuple[int, int, int]:
    """Pre-expansion (raw_cnot, toffoli) of a gate list, and its widest ladder.

    A k-controlled X counts as its ladder CNOT plus 2(k-1) Toffolis and
    borrows k-1 ancillas; the third value is the most any MCX borrows.
    """
    raw_cnot = 0
    toffoli = 0
    peak_ladder = 0
    for g in gates:
        kind = g.kind
        if kind == "TOFFOLI":
            toffoli += 1
        elif kind == "CNOT":
            raw_cnot += 1
        elif kind == "MCX":
            ladder = len(g.controls) - 1
            toffoli += 2 * ladder
            raw_cnot += 1
            peak_ladder = max(peak_ladder, ladder)
    return raw_cnot, toffoli, peak_ladder


def resource_profile(circ: Circuit) -> ResourceProfile:
    """Cost the circuit under the Clifford+T expansion convention."""
    raw_cnot, toffoli, peak_ladder = gate_tally(circ.gates)
    return ResourceProfile(
        cnot=raw_cnot + TOFFOLI_CNOT_COUNT * toffoli,
        toffoli=toffoli,
        t_depth=TOFFOLI_T_DEPTH * toffoli,
        ancilla=circ.ancilla_count + peak_ladder,
        total_qubits=circ.qubit_count + peak_ladder,
        raw_cnot=raw_cnot,
    )
