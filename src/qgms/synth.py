"""Reversible synthesis of GF(2) elimination.

Every construction here is data-oblivious: the gate sequence depends only
on the dimensions, never on matrix entries, so one circuit handles every
input in superposition. The price is conditional logic pushed into
ancillas:

* Pivot repair cannot swap rows, so it conditionally XORs lower rows into
  the pivot row while the pivot entry is still zero, one write-once
  ancilla per candidate row.
* Row elimination snapshots the entry being cleared into an ancilla and
  controls the row operation on the snapshot, so the update keeps working
  after the entry itself is overwritten.

Write-once ("fresh") ancillas keep whatever they hold; they are the
irreversibility budget of elimination. Short-lived conditions (segment
tests, pivot-present guards, zero tests, leading-entry indicators) are
drawn from a reuse pool instead: ``_Builder.mirrored`` appends the exact
inverse of the block that computed them, which returns them to zero, and
then gives them back to the pool.

The cost model lives in two layers: per-stage tallies predicted column by
column, and closed-form totals. For the Jordan solver the two agree
everywhere. For the plain triangular solver they agree on Toffoli count,
T-depth and ancillas, but the closed-form CNOT total sits 15 n^2 below
the per-stage sum: the closed form is kept as the published reference
expression and the stage tally is what the built circuits actually
satisfy; resource reports carry both plus the delta.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .circuit import TOFFOLI_CNOT_COUNT, TOFFOLI_T_DEPTH, Circuit, gate_tally

if TYPE_CHECKING:  # only unpack_matrix builds one, so synth loads without gf2
    from .gf2 import BitMatrix


@dataclass(frozen=True)
class StageCost:
    """Gate tally for one stage of one column sweep."""

    stage: str
    column: int
    cnot: int
    toffoli: int
    ancilla: int


@dataclass
class Synthesis:
    """A solver circuit plus its per-stage accounting."""

    circuit: Circuit
    stages: list[StageCost]


def stage_totals(stages: list[StageCost]) -> dict[str, int]:
    return {
        "cnot": sum(s.cnot for s in stages),
        "toffoli": sum(s.toffoli for s in stages),
        "ancilla": sum(s.ancilla for s in stages),
    }


class _Builder:
    """Grow-on-demand qubit allocation over a Circuit.

    ``fresh`` hands out a brand new ancilla that is never reclaimed.
    ``pool_alloc`` reissues an ancilla some earlier block returned to |0>,
    or a fresh one; only ``mirrored`` gives pool qubits back.
    ``flip_if`` and ``pool_flag`` write the mixed-polarity test
    (X-conjugated multi-controlled X) the guards and indicators share.
    ``stage`` tallies the gates and ancillas its ``with`` body appends
    into one StageCost record.
    """

    def __init__(self, circ: Circuit):
        self.circ = circ
        self._free: list[int] = []
        self._held: list[int] = []
        self.stages: list[StageCost] = []

    def fresh(self) -> int:
        q = self.circ.qubit_count
        self.circ.qubit_count += 1
        self.circ.ancilla_count += 1
        return q

    def pool_alloc(self) -> int:
        q = self._free.pop() if self._free else self.fresh()
        self._held.append(q)
        return q

    def flip_if(self, target: int, zeros: Sequence[int], ones: Sequence[int] = ()) -> None:
        """target ^= [all of ``zeros`` read 0 and all of ``ones`` read 1].

        One multi-controlled X inside a ``mirrored`` block of X gates on
        the zero-controls; with no controls at all the flip is
        unconditional.
        """
        controls = [*zeros, *ones]
        with self.mirrored(lambda: [self.circ.x(q) for q in zeros]):
            if controls:
                self.circ.mcx(controls, target)
            else:
                self.circ.x(target)

    def pool_flag(self, zeros: Sequence[int] = (), ones: Sequence[int] = ()) -> int:
        """A pool qubit set to [all of ``zeros`` read 0 and all of ``ones`` read 1]."""
        q = self.pool_alloc()
        self.flip_if(q, zeros, ones)
        return q

    @contextmanager
    def mirrored(self, compute):
        """Compute, run the ``with`` body, then uncompute exactly.

        ``compute()`` emits a permutation-only block and its return value
        is bound by ``with``. After the body the block's inverse is
        appended: its gates in reverse order, as every gate is its own
        inverse. That returns the block's qubits to their inputs provided
        the body leaves them as it found them; then the pool qubits the
        block still holds go back to the pool, last taken first, so nested
        blocks unwind like a stack.
        """
        start, depth = len(self.circ.gates), len(self._held)
        result = compute()
        block = self.circ.gates[start:]
        taken = self._held[depth:]
        yield result
        if self._held[depth:] != taken:
            raise RuntimeError("body kept a pool qubit")
        self.circ.extend(block[::-1])
        del self._held[depth:]
        self._free.extend(reversed(taken))

    @contextmanager
    def stage(self, name: str, column: int):
        """Record the gates and ancillas the ``with`` body appends, even none."""
        start, a0 = len(self.circ.gates), self.circ.ancilla_count
        yield
        cnot, toffoli, _ = gate_tally(self.circ.gates[start:])
        self.stages.append(
            StageCost(name, column, cnot, toffoli, self.circ.ancilla_count - a0)
        )


# ---------------------------------------------------------------------------
# Square solvers on an augmented system


def _solver_frame(n: int) -> tuple[Circuit, list[list[int]], list[int]]:
    """Circuit with an n x n matrix register and a length-n vector register."""
    circ = Circuit(n * n + n)
    a = [[i * n + j for j in range(n)] for i in range(n)]
    b = [n * n + i for i in range(n)]
    circ.registers = {
        "a": tuple(q for row in a for q in row),
        "b": tuple(b),
    }
    return circ, a, b


def _pivot_stage(bld: _Builder, a: list[list[int]], b: list[int], c: int) -> None:
    """Repair pivot (c, c) by folding lower rows in while it reads zero."""
    circ = bld.circ
    n = len(a)
    for q in range(c + 1, n):
        h = bld.fresh()
        circ.cnot(a[c][c], h)
        circ.x(h)  # h = 1 exactly while the pivot is still missing
        for d in range(c, n):
            circ.toffoli(h, a[q][d], a[c][d])
        circ.toffoli(h, b[q], b[c])


def _eliminate(
    bld: _Builder, a: list[list[int]], b: list[int], c: int, rows: Sequence[int]
) -> None:
    """Clear column c of each of ``rows`` by adding pivot row c where it is set."""
    circ = bld.circ
    n = len(a)
    for r in rows:
        e = bld.fresh()
        circ.cnot(a[r][c], e)
        for d in range(c + 1, n):
            circ.toffoli(e, a[c][d], a[r][d])
        circ.toffoli(e, b[c], b[r])
        # The snapshot equals the entry being cleared, so one CNOT
        # zeroes it; when the pivot is absent the snapshot is the
        # entry of an untouched row and this still just clears it.
        circ.cnot(e, a[r][c])


def gauss_solve_circuit(n: int) -> Synthesis:
    """Triangular solver: forward elimination, then back substitution.

    Input: matrix register holds invertible A, vector register holds b.
    Output: matrix register holds the accumulated echelon form, vector
    register holds x with A x = b. Behaviour on singular A is reversible
    but unspecified.
    """
    if n < 1:
        raise ValueError("n must be positive")
    circ, a, b = _solver_frame(n)
    bld = _Builder(circ)
    for c in range(n):
        with bld.stage("pivot", c):
            _pivot_stage(bld, a, b, c)
        with bld.stage("eliminate", c):
            _eliminate(bld, a, b, c, range(c + 1, n))
    with bld.stage("back_substitute", -1):
        for j in range(n - 1, 0, -1):
            for i in range(j - 1, -1, -1):
                circ.toffoli(a[i][j], b[j], b[i])
    return Synthesis(circ, bld.stages)


def jordan_solve_circuit(n: int) -> Synthesis:
    """Full-reduction solver: eliminate in every row, no back substitution.

    Columns 0..n-2 get a pivot stage and a full elimination sweep over all
    other rows. The last column only needs its pivot confirmed; a final
    cleanup sweep clears the last column above the diagonal and applies
    the matching vector updates, leaving the matrix register holding the
    identity and the vector register holding the solution.
    """
    if n < 1:
        raise ValueError("n must be positive")
    circ, a, b = _solver_frame(n)
    bld = _Builder(circ)
    last = n - 1
    for c in range(n):
        with bld.stage("pivot", c):
            _pivot_stage(bld, a, b, c)
        if c == last:
            break
        with bld.stage("eliminate", c):
            _eliminate(bld, a, b, c, [r for r in range(n) if r != c])
    with bld.stage("cleanup", last):
        for r in range(last):
            # Row last is e_last by now, so clearing a[r][last] is a plain
            # conditional XOR of b[last] into b[r].
            e = bld.fresh()
            circ.cnot(a[r][last], e)
            circ.cnot(e, a[r][last])
            circ.toffoli(e, b[last], b[r])
    return Synthesis(circ, bld.stages)


# ---------------------------------------------------------------------------
# Predicted costs


def gauss_stage_costs(n: int) -> list[StageCost]:
    """Column-by-column tally the triangular solver is built to satisfy."""
    out = []
    for c in range(n):
        w = n - 1 - c  # rows below the pivot
        out.append(StageCost("pivot", c, w, w * (n - c + 1), w))
        out.append(StageCost("eliminate", c, 2 * w, w * (n - c), w))
    out.append(StageCost("back_substitute", -1, 0, n * (n - 1) // 2, 0))
    return out


def jordan_stage_costs(n: int) -> list[StageCost]:
    """Column-by-column tally of the full-reduction solver."""
    out = []
    for c in range(n):
        w = n - 1 - c
        out.append(StageCost("pivot", c, w, w * (n - c + 1), w))
        if c < n - 1:
            out.append(
                StageCost("eliminate", c, 2 * (n - 1), (n - 1) * (n - c), n - 1)
            )
    out.append(StageCost("cleanup", n - 1, 2 * (n - 1), n - 1, n - 1))
    return out


def gauss_closed_form(n: int) -> dict[str, int]:
    """Closed-form totals for the triangular solver.

    Toffoli, T-depth and ancilla totals equal the stage sums. The CNOT
    closed form is the published reference expression; it sits 15 n^2
    below the stage sum for every n (and goes negative at n = 2), so
    resource reports show it side by side with the tally rather than
    pretending they agree.
    """
    toffoli = n * (n - 1) * (2 * n + 5) // 3
    return {
        "cnot": (8 * n**3 - 15 * n**2 - 23 * n) // 2,
        "toffoli": toffoli,
        "t_depth": TOFFOLI_T_DEPTH * toffoli,
        "ancilla": n * (n - 1),
    }


def jordan_closed_form(n: int) -> dict[str, int]:
    """Closed-form totals for the full-reduction solver (match stage sums)."""
    toffoli = n * (n - 1) * (5 * n + 8) // 6
    return {
        "cnot": (10 * n**3 + 11 * n**2 - 21 * n) // 2,
        "toffoli": toffoli,
        "t_depth": TOFFOLI_T_DEPTH * toffoli,
        "ancilla": 3 * n * (n - 1) // 2,
    }


def expanded_cnot(stages: list[StageCost]) -> int:
    """CNOT total of a stage list, each Toffoli expanded to TOFFOLI_CNOT_COUNT."""
    t = stage_totals(stages)
    return t["cnot"] + TOFFOLI_CNOT_COUNT * t["toffoli"]


# ---------------------------------------------------------------------------
# Reduced row echelon form on a rectangular register


def rref_core(bld: _Builder, rows: list[list[int]]) -> None:
    """Reduce the matrix held on ``rows`` to reduced row echelon form.

    ``rows`` is an m x n grid of qubit ids (any layout). For each pivot
    row i and candidate column c the emitted block is guarded by a pooled
    qubit g = [row i is zero on columns i..c-1], so exactly the blocks
    belonging to the true pivot columns act and all others are inert.
    Within a live block, pivot repair folds lower rows in until entry
    (i, c) is set, then a full elimination sweep guarded by
    t = g AND a[i][c] clears column c in every other row. The pivot-
    present guard matters: without it a candidate column that stays zero
    would still trigger row updates and wreck reduced form on rank-
    deficient inputs. Both guards are mirrored: g's segment is read-only
    inside its block, and row i is untouched by the sweep t guards.
    """
    circ = bld.circ
    m, n = len(rows), len(rows[0])
    for i in range(min(m, n)):
        for c in range(i, n):
            # g <- [columns i..c-1 of row i all zero]
            with bld.mirrored(lambda: bld.pool_flag(zeros=rows[i][i:c])) as g:
                # Pivot repair, guarded on g and the pivot still missing.
                for q in range(i + 1, m):
                    h = bld.fresh()
                    bld.flip_if(h, zeros=[rows[i][c]], ones=[g])
                    for d in range(c, n):
                        circ.toffoli(h, rows[q][d], rows[i][d])

                # Elimination sweep, guarded on g and the pivot present.
                with bld.mirrored(lambda: bld.pool_flag(ones=[g, rows[i][c]])) as t:
                    for r in range(m):
                        if r == i:
                            continue
                        e = bld.fresh()
                        circ.toffoli(t, rows[r][c], e)
                        for d in range(c + 1, n):
                            circ.toffoli(e, rows[i][d], rows[r][d])
                        circ.cnot(e, rows[r][c])


def rref_circuit(m: int, n: int) -> Circuit:
    """Circuit reducing an m x n matrix register (register "a") to RREF in place."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    circ = Circuit(m * n)
    rows = [[i * n + j for j in range(n)] for i in range(m)]
    circ.registers = {"a": tuple(q for row in rows for q in row)}
    rref_core(_Builder(circ), rows)
    return circ


# ---------------------------------------------------------------------------
# Kernel extraction


def kernel_core(
    bld: _Builder, rows: list[list[int]], s_out: list[int], flag: int
) -> None:
    """Rank test plus kernel readout for an equation matrix.

    Reduces ``rows`` (l x n, any qubit layout) in place, sets ``flag`` to
    1 exactly when the rank is n-1 (one-dimensional kernel), XORs the
    kernel's unique nonzero vector into ``s_out`` under that flag, then
    undoes the reduction so the matrix register and every elimination
    ancilla come back to their inputs. Outputs must arrive as |0>.
    """
    circ = bld.circ
    l, n = len(rows), len(rows[0])

    # Leading-entry indicators: lead[i][j] = [row i's first 1 is at j].
    # piv[j] = [some row leads at column j]; X turns it into a free-column
    # indicator. With rank n-1 exactly one column of 0..n-1 is free.
    nrows = min(l, n - 1)

    def indicators() -> tuple[dict[tuple[int, int], int], list[int]]:
        lead: dict[tuple[int, int], int] = {}
        for i in range(nrows):
            for j in range(i, n):
                lead[i, j] = bld.pool_flag(zeros=rows[i][:j], ones=[rows[i][j]])
        piv: list[int] = []
        for j in range(n):
            q = bld.pool_alloc()
            for i in range(nrows):
                if (i, j) in lead:
                    circ.cnot(lead[i, j], q)
            circ.x(q)
            piv.append(q)
        return lead, piv

    with bld.mirrored(lambda: rref_core(bld, rows)):
        # flag <- [rank == n-1]: in reduced form rank >= n-1 iff row n-2 is
        # nonzero, rank <= n-1 iff row n-1 (when present) is zero.
        if l < n - 1:
            pass  # rank < n-1 always; flag stays 0
        elif n == 1:
            with bld.mirrored(lambda: bld.pool_flag(zeros=rows[0])) as zb:
                circ.cnot(zb, flag)
        elif l == n - 1:
            with bld.mirrored(lambda: bld.pool_flag(zeros=rows[n - 2])) as za:
                circ.x(flag)
                circ.cnot(za, flag)
        else:
            with bld.mirrored(
                lambda: (bld.pool_flag(zeros=rows[n - 2]), bld.pool_flag(zeros=rows[n - 1]))
            ) as (za, zb):
                bld.flip_if(flag, zeros=[za], ones=[zb])

        # Kernel vector: 1 at the free column j, and at each pivot column p
        # the reduced matrix entry of p's row in column j.
        with bld.mirrored(indicators) as (lead, piv):
            for j in range(n):
                circ.toffoli(flag, piv[j], s_out[j])
                for i in range(nrows):
                    for p in range(i, j):
                        if (i, p) in lead:
                            circ.mcx([flag, lead[i, p], rows[i][j], piv[j]], s_out[p])


def kernel_circuit(l: int, n: int) -> Circuit:
    """Circuit taking an equation matrix in, a kernel vector and rank flag out.

    Registers: ``y`` holds the l x n matrix (row-major), ``s`` receives
    the kernel vector when the rank is exactly n-1, ``flag`` receives the
    rank test. The matrix register is restored to its input.
    """
    if l < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    circ = Circuit(l * n + n + 1)
    rows = [[i * n + j for j in range(n)] for i in range(l)]
    s_out = [l * n + j for j in range(n)]
    flag = l * n + n
    circ.registers = {
        "y": tuple(q for row in rows for q in row),
        "s": tuple(s_out),
        "flag": (flag,),
    }
    kernel_core(_Builder(circ), rows, s_out, flag)
    return circ


# ---------------------------------------------------------------------------
# Matrix registers as basis indices


def pack_matrix(a: BitMatrix, above: int = 0) -> int:
    """Basis index of ``a`` on a register at qubit i*cols + j.

    That is the rows of ``a`` concatenated; ``above`` goes to the qubits
    from rows*cols on.
    """
    bits = above << (a.rows * a.cols)
    for i, row in enumerate(a.row_bits):
        bits |= row << (i * a.cols)
    return bits


def unpack_matrix(bits: int, rows: int, cols: int) -> BitMatrix:
    """The rows x cols matrix register at qubits 0..rows*cols-1 of ``bits``."""
    from .gf2 import BitMatrix

    mask = (1 << cols) - 1
    return BitMatrix(rows, cols, [(bits >> (i * cols)) & mask for i in range(rows)])
