"""Executable self-check suites shared by the command line and the tests.

Five suites cover the package layer by layer:

- gf2: the classical linear algebra, exhaustively on 3x3 inputs.
- circuits: solver and reduction circuits against the classical results,
  per-stage resource tallies against their formulas, closed-form totals
  reconciled against stage sums, and norm preservation on random states.
- counting: the rank-deficit-one matrix count, brute force vs formula.
- deferred: measure-then-solve vs solve-then-measure distributions.
- gms: character sums, the amplification baseline, the iteration
  estimate, the reference whitening-key search run, its operator curve
  against the per-gate sparse engine, and the query-ratio bound.

Each suite returns a SuiteResult holding named checks with pass flags
and details, so the command line can print them and the tests can
assert on them without duplicating the work. Each suite imports the
layers it checks when it runs, so ``verify gf2`` never loads numpy.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from . import synth
from .gf2 import (
    BitMatrix,
    gaussian_eliminate,
    is_row_echelon,
    is_rref,
    nullspace_basis,
    rank,
    row_echelon,
    row_space,
    rref,
)

if TYPE_CHECKING:
    from .analysis import GmsConfig

REFERENCE = dict(m=2, n=2, key=2, k1=3, k2=1, cipher_seed=72)

DEFERRED_GRID = ((2, 2), (2, 3), (3, 2))


@dataclass
class Check:
    """One named pass/fail observation inside a suite."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": [asdict(c) for c in self.checks],
        }


def _nan_max(values) -> float:
    """``max(values, default=0.0)``, or NaN if any value is NaN.

    Python's ``max`` keeps a NaN only where it comes first, and every
    tolerance check here passes only on ``x < tol`` or ``x <= tol``.
    """
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values, default=0.0)


def reference_config() -> GmsConfig:
    """The desk-scale configuration every quantitative claim is pinned to."""
    from .analysis import GmsConfig
    from .oracles import build_fx_oracle

    return GmsConfig(2, 2, 2, build_fx_oracle(**REFERENCE))


@lru_cache(maxsize=1)
def reference_run() -> dict:
    """The ``gms`` report of the reference config at t_max = 20.

    Cached so the command line and the acceptance tests share one run.
    """
    from .analysis import analysis_report

    return analysis_report(reference_config(), t_max=20)


def _all_matrices(n: int):
    for rows in itertools.product(range(1 << n), repeat=n):
        yield BitMatrix(n, n, list(rows))


def _invertible_matrices(n: int):
    for a in _all_matrices(n):
        if rank(a) == n:
            yield a


# ---------------------------------------------------------------------------
# Suite: gf2


def suite_gf2() -> SuiteResult:
    """Exhaustive classical checks of the GF(2) layer on 3x3 inputs."""
    res = SuiteResult("gf2")

    bad = 0
    total = 0
    for a in _invertible_matrices(3):
        for b in range(8):
            total += 1
            if a.mul_vec(gaussian_eliminate(a, b)) != b:
                bad += 1
    res.add("solve_all_invertible_3x3", bad == 0, f"{total} systems, {bad} mismatches")

    bad = 0
    for a in _all_matrices(3):
        e = row_echelon(a)
        if not is_row_echelon(e) or row_space(e) != row_space(a):
            bad += 1
    res.add("echelon_form_all_3x3", bad == 0, f"512 matrices, {bad} failures")

    bad = 0
    for a in _all_matrices(3):
        r = rref(a)
        if not is_rref(r.matrix) or row_space(r.matrix) != row_space(a):
            bad += 1
        if 1 << r.rank != len(row_space(a)):
            bad += 1
    res.add("rref_all_3x3", bad == 0, f"512 matrices, {bad} failures")

    bad = 0
    for a in _all_matrices(3):
        basis = nullspace_basis(a)
        if len(basis) != 3 - rank(a):
            bad += 1
            continue
        span = {0}
        for v in basis:
            if a.mul_vec(v):
                bad += 1
                break
            span |= {w ^ v for w in span}
        else:
            if len(span) != 1 << len(basis):
                bad += 1
    res.add("nullspace_all_3x3", bad == 0, f"512 matrices, {bad} failures")

    return res


# ---------------------------------------------------------------------------
# Suite: circuits


def _truth_table(circ, inputs: list[int]) -> list[int]:
    """Images of every input under a permutation circuit, in one kernel call."""
    import numpy as np

    from . import sim

    out = sim.run_basis_batch(circ.gates, np.array(inputs, dtype=np.int64))
    return out.tolist()


def _solver_equivalence(jordan: bool, inputs: list[int], solutions: list[int]) -> Check:
    from . import sim

    syn = synth.jordan_solve_circuit(3) if jordan else synth.gauss_solve_circuit(3)
    b_reg = list(syn.circuit.registers["b"])
    outs = _truth_table(syn.circuit, inputs)
    bad = sum(sim.extract_bits(out, b_reg) != x for out, x in zip(outs, solutions))
    name = "jordan_solver_matches_classical" if jordan else "gauss_solver_matches_classical"
    return Check(name, bad == 0, f"{len(inputs)} systems, {bad} mismatches")


def _solver_equivalences() -> list[Check]:
    """Both solver circuits on every invertible 3x3 system A x = b.

    The packed register inputs and the classical solutions' bits are
    built once: both solver circuits share one register layout, so both
    checks read this one table.
    """
    inputs, solutions = [], []
    for a in _invertible_matrices(3):
        for b in range(8):
            inputs.append(synth.pack_matrix(a, b))
            solutions.append(gaussian_eliminate(a, b))
    return [_solver_equivalence(jordan, inputs, solutions) for jordan in (False, True)]


def _rref_equivalence() -> Check:
    """The 3x3 RREF circuit against ``rref`` on all 512 matrices."""
    matrices = list(_all_matrices(3))
    outs = _truth_table(synth.rref_circuit(3, 3), [synth.pack_matrix(a) for a in matrices])
    bad = 0
    for a, out in zip(matrices, outs):
        if synth.unpack_matrix(out, 3, 3).row_bits != rref(a).matrix.row_bits:
            bad += 1
    return Check("rref_circuit_matches_classical", bad == 0, f"512 matrices, {bad} mismatches")


# Columns per block of the norm check. Under two workers, in fresh
# ``verify circuits`` runs on a 2-core Xeon (medians of 10), widths 4, 5
# and 10 took 1.45-1.48 s and widths 2 and 20 1.52-1.58 s, while the peak
# RSS grew with the width, as each worker holds one block's gathered copy
# (2.6 MB at width 5 and 2^15 amplitudes, search_1_2_1). No block may hold
# a single column: numpy sums a lone column's norm in another order, so
# its bits differ.
_NORM_BLOCK = 5
# Rows per tile of ``_column_sums`` and of every draw stream
# (``_drawn_tiles``). The permutation path holds a dozen (tile, count)
# float tiles at once, 5 MB at count = 100; with 2048-row tiles
# kernel_2x2's check peaked at 46 instead of 31 MiB under tracemalloc, at
# about the same speed. A power of two, so tiles of
# ``_permutation_deviation`` never straddle a block its gather map moves.
_NORM_TILE = 512
# Bytes of drawn normals (float64) the norm check holds at a time: half of
# kernel_2x2's real parts, 10 of search_1_2_1's 20 blocks. The rest is
# drawn again, from the seed or from a saved generator state, about one
# more draw of the whole stream for either family. From a small launcher
# on a 2-core Xeon (10 pairs), ``verify circuits`` peaks at 74 MB in
# 1.09 s, against 100 MB in 0.90 s with kernel_2x2's whole float plane
# held; a 13 MiB budget took it to 62 MB for another 0.18 s (4 pairs).
_NORM_BUDGET = 25 * 2**20
# Threads of the norm check's pool, one per core of a two-core host.
_WORKERS = 2


def _column_sums(rows: int, width: int, dtype, fill, height: int = _NORM_TILE):
    """Sums over axis 0 of the real parts of a (rows, width) array.

    The array is never held whole: ``fill(row, out)`` writes its rows
    ``row`` onward into ``out``, one tile of up to ``height`` rows at a
    time, in order. numpy's ``np.add.reduce(x.real, axis=0)`` over two
    or more columns adds row by row. Here each tile lands in rows 1.. of
    a small buffer whose row 0 carries the running sums into the tile's
    sum (zeros for the first tile, and 0.0 + p is p), so the additions
    happen in the same order on the same values, bit for bit, whatever
    the tile height.
    """
    import numpy as np

    buf = np.empty((min(height, rows) + 1, width), dtype=dtype)
    total = np.zeros(width)
    for row in range(0, rows, height):
        part = buf[: min(height, rows - row) + 1]
        part[0] = total
        fill(row, part[1:])
        np.add.reduce(part.real, axis=0, out=total)
    return total


def _col_norms(x):
    """``np.linalg.norm(x, axis=0)`` of a 2-D complex ``x``, bit for bit.

    numpy sums ``(x.conj() * x).real`` over axis 0 row by row, after
    forming it in two full-size complex temporaries; ``_column_sums``
    forms the same products one row tile at a time.
    """
    import numpy as np

    def products(row, out):
        tile = x[row : row + len(out)]
        np.conjugate(tile, out=out)
        np.multiply(out, tile, out=out)

    return np.sqrt(_column_sums(*x.shape, np.complex128, products))


def _drawn_tiles(rng, rows: int, width: int, height: int = _NORM_TILE):
    """The rows of one (rows, width) standard normal draw, tile by tile.

    Yields (first row, tile); tiles hold up to ``height`` rows. Each
    fills the next of three reused buffers through
    ``rng.standard_normal(out=...)``: the same stream as one draw of the
    whole array. The stream's own thread draws up to two tiles ahead of
    the tile yielded, so the three never overlap; exhausting or closing
    the stream joins it.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    height = max(1, min(height, rows))
    bufs = [np.empty((height, width)) for _ in range(3)]

    def draw(k):
        return rng.standard_normal(out=bufs[k % 3][: min(height, rows - k * height)])

    n = -(-rows // height)
    with ThreadPoolExecutor(1) as pool:
        ahead = [pool.submit(draw, k) for k in range(min(2, n))]
        for k in range(n):
            if k + 2 < n:
                ahead.append(pool.submit(draw, k + 2))
            yield k * height, ahead.pop(0).result()


def _replay(state):
    """A generator that draws on from a saved ``rng.bit_generator.state``."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    return rng


def _permutation_deviation(g, count: int, rng) -> float:
    """``_norm_deviation`` of a circuit whose whole plan is the gather map ``g``.

    Output amplitude j is input amplitude g[j], so output norms need only
    each input's per-row probabilities |z|^2. Rows go in tiles of
    ``_NORM_TILE`` rows, or of 2^(b+1) if g changes bit b of an index,
    up to all rows: g maps each tile onto itself. The real parts of the
    first rows that fit ``_NORM_BUDGET`` are drawn and held; the rest of
    the real parts are drawn past, from a saved generator state, to reach
    the state where the imaginary parts start. Two passes then replay the
    streams tile by tile, pairing each tile's real parts (held or drawn
    again) with its imaginary parts. The first sums each column's |z|^2
    for the input norms; the second divides each tile by them, forms the
    normalised |z|^2 and sums it gathered through g. Every product,
    quotient and sum is the amplitude path's, formed in the same order,
    and a gather only moves values.
    """
    from contextlib import closing

    import numpy as np

    size = len(g)
    moved = int(np.bitwise_or.reduce(g ^ np.arange(size)))
    height = min(size, max(_NORM_TILE, 1 << moved.bit_length()))
    held = min(size, _NORM_BUDGET // (8 * max(count, 1)) // height * height)
    real = rng.standard_normal((held, count))
    rest = rng.bit_generator.state
    for _ in _drawn_tiles(rng, size - held, count, height):
        pass
    imag = rng.bit_generator.state

    def tiles():
        """Set ``x`` to each tile's amplitudes in turn, one per ``next``."""
        ims = _drawn_tiles(_replay(imag), size, count, height)
        res = _drawn_tiles(_replay(rest), size - held, count, height)
        with closing(ims), closing(res):
            for row, im in ims:
                x.real = real[row : row + height] if row < held else next(res)[1]
                x.imag = im
                yield

    x = np.empty((height, count), dtype=np.complex128)
    p = np.empty_like(x)

    def products(row, out):
        next(stream)
        np.conjugate(x, out=p)
        np.multiply(p, x, out=out)

    def gathered(row, out):
        next(stream)
        np.divide(x, norms, out=x)
        np.conjugate(x, out=p)
        np.multiply(p, x, out=p)
        np.take(p.real, g[row : row + height] - row, axis=0, out=out, mode="clip")

    with closing(tiles()) as stream:
        norms = np.sqrt(_column_sums(size, count, np.complex128, products, height))
    with closing(tiles()) as stream:
        total = _column_sums(size, count, np.float64, gathered, height)
    return float(np.max(np.abs(np.sqrt(total) - 1.0), initial=0.0))


def _norm_deviation(circ, count: int, seed: int) -> float:
    """Largest |norm - 1| over ``count`` random unit states run through ``circ``.

    The states are the columns of one (2^q, count) batch of normals, real
    parts then imaginary parts, but no path holds the batch: each holds
    at most ``_NORM_BUDGET`` bytes of drawn values and draws the rest
    again, from the seed or from a saved generator state. The circuit is
    planned first, so the qubit cap is checked before anything is
    allocated.

    A circuit without H plans to one gather map, and
    ``_permutation_deviation`` takes the deviation from per-row
    probabilities, tile by tile.

    Any other circuit takes the amplitude path. Its blocks hold
    ``_NORM_BLOCK`` columns each, as one contiguous (2^q, _NORM_BLOCK)
    complex array, and run in groups of as many blocks as fit the budget
    (10 of the 20 at q = 15). For each group the whole stream is drawn
    from the seed, real parts then imaginary parts, as two streams of
    ``_drawn_tiles``, and only the group's columns are kept. A pool of
    ``_WORKERS`` threads then normalises each block and runs it in place
    through one plan of the circuit (which stores the state with every H
    target on its outer qubits; see ``sim.dense_steps``).

    Either way each column's norm is the same sum of the same products,
    added in the same order, and it does not depend on which columns
    share its block or group or which thread runs it; the largest
    deviation does not depend on the order the blocks finish in. So both
    paths equal one run of the whole batch bit for bit.

    Raises:
        ValueError: if ``count`` is not a multiple of ``_NORM_BLOCK``.
    """
    if count % _NORM_BLOCK:
        raise ValueError(f"count must be a multiple of {_NORM_BLOCK}, got {count}")
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from . import sim

    steps = list(sim.dense_steps(circ))
    if len(steps) == 1 and isinstance(steps[0], np.ndarray):
        return _permutation_deviation(steps[0], count, np.random.default_rng(seed))
    size = 1 << circ.qubit_count
    blocks = count // _NORM_BLOCK
    group = max(1, _NORM_BUDGET // (16 * size * _NORM_BLOCK))
    z = np.empty((min(group, blocks), size, _NORM_BLOCK), dtype=np.complex128)

    def deviation(block):
        block /= _col_norms(block)
        out = sim.apply_steps(steps, block)
        return float(np.max(np.abs(_col_norms(out) - 1.0)))

    deviations = []
    with ThreadPoolExecutor(_WORKERS) as pool:
        for first in range(0, blocks, group):
            held = z[: min(group, blocks - first)]
            cols = slice(first * _NORM_BLOCK, (first + len(held)) * _NORM_BLOCK)
            rng = np.random.default_rng(seed)
            for part in (held.real, held.imag):
                for row, tile in _drawn_tiles(rng, size, count):
                    h = len(tile)
                    columns = tile[:, cols].reshape(h, -1, _NORM_BLOCK)
                    part[:, row : row + h] = columns.transpose(1, 0, 2)
            del tile, columns  # they would pin freed heap while the blocks run
            deviations += pool.map(deviation, held)
    return _nan_max(deviations)


def _norm_circuits() -> list[tuple[str, object]]:
    """The circuit families of the norm check, each with fixed oracles."""
    from .analysis import GmsConfig, build_gms_circuit
    from .oracles import build_fx_oracle, build_simon_oracle, parallel_simon_circuit

    fx = build_fx_oracle(1, 2, 0, 3, 1, cipher_seed=72)
    return [
        ("gauss_2", synth.gauss_solve_circuit(2).circuit),
        ("jordan_2", synth.jordan_solve_circuit(2).circuit),
        ("rref_2x2", synth.rref_circuit(2, 2)),
        ("kernel_2x2", synth.kernel_circuit(2, 2)),
        ("simon_round_2", parallel_simon_circuit(build_simon_oracle(2, 3, rng=72), 1)),
        ("search_1_2_1", build_gms_circuit(GmsConfig(1, 2, 1, fx))[0]),
    ]


def suite_circuits() -> SuiteResult:
    """Circuit-vs-classical equivalence, resource tallies, unitarity."""
    res = SuiteResult("circuits")

    # Each table below dies with its helper's frame, before the norm check.
    res.checks.extend(_solver_equivalences())
    res.checks.append(_rref_equivalence())

    bad = []
    for n in range(2, 9):
        if synth.gauss_solve_circuit(n).stages != synth.gauss_stage_costs(n):
            bad.append(n)
        if synth.jordan_solve_circuit(n).stages != synth.jordan_stage_costs(n):
            bad.append(n)
    res.add("stage_tallies_match_formulas", not bad, f"n=2..8, failures at {bad}")

    deltas = []
    ok = True
    for n in range(2, 9):
        g_closed = synth.gauss_closed_form(n)
        g_stage = synth.stage_totals(synth.gauss_stage_costs(n))
        gd = synth.expanded_cnot(synth.gauss_stage_costs(n)) - g_closed["cnot"]
        deltas.append(f"n={n}: gauss cnot delta {gd}")
        if g_closed["toffoli"] != g_stage["toffoli"]:
            ok = False
        if g_closed["ancilla"] != g_stage["ancilla"]:
            ok = False
        j_closed = synth.jordan_closed_form(n)
        j_stage = synth.stage_totals(synth.jordan_stage_costs(n))
        if j_closed["cnot"] != synth.expanded_cnot(synth.jordan_stage_costs(n)):
            ok = False
        if j_closed["toffoli"] != j_stage["toffoli"]:
            ok = False
        if j_closed["ancilla"] != j_stage["ancilla"]:
            ok = False
    res.add("closed_forms_reconciled", ok, "; ".join(deltas))

    circuits = _norm_circuits()
    worst = _nan_max(_norm_deviation(circ, 100, seed=i) for i, (_, circ) in enumerate(circuits))
    res.add(
        "norm_preserved_100_random_states",
        worst < 1e-12,
        f"{len(circuits)} circuit families, max deviation {worst:.2e}",
    )

    return res


# ---------------------------------------------------------------------------
# Suite: counting


def suite_counting() -> SuiteResult:
    """Brute-force vs closed-form count of rank n-1 matrices over s-perp."""
    from .counting import count_rank_n_minus_1

    res = SuiteResult("counting")
    pinned = {2: 3, 3: 42, 4: 2520}
    for n in (2, 3, 4, 5):
        rep = count_rank_n_minus_1(n)
        ok = rep.agreement and rep.brute_count == rep.formula_count
        if n in pinned:
            ok = ok and rep.formula_count == pinned[n]
        res.add(
            f"count_n{n}",
            ok,
            f"brute {rep.brute_count}, formula {rep.formula_count}",
        )
    return res


# ---------------------------------------------------------------------------
# Suite: deferred


def suite_deferred(n: int | None = None, l: int | None = None) -> SuiteResult:
    """Measure-then-solve vs solve-then-measure, exact distributions.

    With no arguments the full (n, l) grid runs; passing both n and l
    checks a single shape (every nonzero period either way).
    """
    from .analysis import deferred_vs_immediate

    res = SuiteResult("deferred")
    shapes = DEFERRED_GRID if n is None else ((n, l),)
    for nn, ll in shapes:
        cmps = [deferred_vs_immediate(nn, ll, s, seed=5) for s in range(1, 1 << nn)]
        worst = _nan_max(c.max_abs_diff for c in cmps)
        p_dev = _nan_max(abs(c.p_correct - c.r / float(1 << ((nn - 1) * ll))) for c in cmps)
        res.add(
            f"deferred_n{nn}_l{ll}",
            worst < 1e-10 and p_dev <= 1e-12,
            f"all {(1 << nn) - 1} periods, max diff {worst:.2e}",
        )
    return res


# ---------------------------------------------------------------------------
# Suite: gms


def suite_gms() -> SuiteResult:
    """Distribution-level checks of the combined search analysis."""
    from .amplify import grover_probability, success_curve, uniform_prep
    from .analysis import (
        character_sum,
        coset_character_sum,
        optimal_iterations,
        query_ratio,
        run_gms_per_gate,
    )

    res = SuiteResult("gms")

    ok = True
    for n in (2, 3):
        for l in (1, 2):
            for ys in itertools.product(range(1 << n), repeat=l):
                want = (1 << (n * l)) if all(y == 0 for y in ys) else 0
                if character_sum(ys, n) != want:
                    ok = False
    for n in (2, 3):
        for s in range(1, 1 << n):
            if coset_character_sum(0, n, s) != 1 << (n - 1):
                ok = False
    res.add("character_sums_exact", ok, "n<=3, l<=2 exhaustive plus coset variant")

    worst = _nan_max(
        abs(p - grover_probability(1 << q, 1, t))
        for q in (2, 3, 4, 6)
        for t, p in enumerate(success_curve(uniform_prep(q), [0], 12))
    )
    res.add("amplification_formula", worst < 1e-10, f"N in 4..64, max dev {worst:.2e}")

    ok = True
    details = []
    for q in (6, 8):
        n_states = 1 << q
        amp = 1 / math.sqrt(n_states)
        t = optimal_iterations(amp, amp, n_states, 1)
        curve = [grover_probability(n_states, 1, k) for k in range(2 * int(t) + 2)]
        best = curve.index(max(curve))
        details.append(f"N={n_states}: estimate {t:.2f}, argmax {best}")
        if round(t) != best:
            ok = False
    res.add("iteration_estimate_matches_argmax", ok, "; ".join(details))

    report = reference_run()
    curve = [p for _, p in report["t_curve"]]
    peak = _nan_max(curve)
    p_max, baseline = report["p_max"], report["hybrid"]["success"]
    gap_ok = peak < 0.5 and peak < p_max + 1e-8 and baseline >= 0.9
    res.add(
        "reference_gap",
        gap_ok,
        f"deferred peak {peak:.6f} vs ceiling {p_max:.6f}; "
        f"immediate baseline {baseline:.3f}",
    )

    per_gate = run_gms_per_gate(reference_config(), t_max=3)
    drift = _nan_max(abs(a - b) for a, b in zip(curve, per_gate))
    res.add(
        "operator_matches_per_gate",
        drift <= 1e-12,
        f"operator vs per-gate sparse curve, t <= 3: max diff {drift:.2e}",
    )

    ok = True
    details = []
    for m, n in ((2, 2), (3, 2), (4, 3)):
        qr = query_ratio(m, n)
        details.append(f"(m={m},n={n}): N/r {float(qr.ratio):.1f} vs {qr.bound}")
        if not (qr.exceeds_bound and qr.slower_than_exhaustive):
            ok = False
    res.add("query_ratio_bound", ok, "; ".join(details))

    return res


SUITES = {
    "gf2": suite_gf2,
    "circuits": suite_circuits,
    "counting": suite_counting,
    "deferred": suite_deferred,
    "gms": suite_gms,
}


def run_suite(name: str, **kwargs) -> SuiteResult:
    """Run one named suite and time it; raises KeyError for an unknown name."""
    t0 = time.monotonic()
    res = SUITES[name](**kwargs)
    res.elapsed_s = time.monotonic() - t0
    return res
