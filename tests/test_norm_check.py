"""The circuits suite's norm check: reproducible inputs, draw streams that
equal one whole draw and join their threads, blocks that give the same
bits as one full batch whichever thread runs them, column norms that
equal numpy's, permutation-only circuits checked on per-row
probabilities instead of a complex batch, and a bounded budget of held
draws: with any budget, whatever is not held is drawn again from a saved
generator state and every result keeps its bits."""

import threading
import tracemalloc

import numpy as np
import pytest

from qgms import sim, verify
from qgms.circuit import Circuit

TILE = verify._NORM_TILE


def one_shot_norm_deviation(circ, count, seed):
    """The norm check as one full (2^q, count) batch through ``sim.run``."""
    rng = np.random.default_rng(seed)
    q = circ.qubit_count
    batch = rng.normal(size=(1 << q, count)) + 1j * rng.normal(size=(1 << q, count))
    batch /= np.linalg.norm(batch, axis=0, keepdims=True)
    out = sim.run(circ, state=sim.StateVector(q, batch))
    return float(np.max(np.abs(np.linalg.norm(out.amps, axis=0) - 1.0)))


def oracle_tables(circ):
    return [g.table for g in circ.gates if g.kind == "ORACLE"]


def test_norm_circuits_are_reproducible():
    first, second = verify._norm_circuits(), verify._norm_circuits()
    assert [label for label, _ in first] == [label for label, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert a.to_text() == b.to_text()
        assert oracle_tables(a) == oracle_tables(b)


def test_blocked_norm_deviation_equals_one_shot_batch_bit_for_bit():
    for seed, (label, circ) in enumerate(verify._norm_circuits()):
        if label not in ("gauss_2", "jordan_2", "rref_2x2", "simon_round_2"):
            continue
        got = verify._norm_deviation(circ, 100, seed=seed)
        assert got.hex() == one_shot_norm_deviation(circ, 100, seed).hex(), label


def test_blocked_norm_deviation_through_hadamards_equals_one_shot_batch():
    """search_1_2_1 is the one norm circuit with H gates, so its plan relabels qubits."""
    seed, circ = next(
        (i, c) for i, (label, c) in enumerate(verify._norm_circuits()) if label == "search_1_2_1"
    )
    got = verify._norm_deviation(circ, 100, seed=seed)
    assert got.hex() == one_shot_norm_deviation(circ, 100, seed).hex()


def carried_float_sums(x):
    """``verify._column_sums`` of a float ``x``, filled tile by tile from it."""

    def copy(row, out):
        np.copyto(out, x[row : row + len(out)])

    return verify._column_sums(*x.shape, np.float64, copy)


@pytest.mark.parametrize(
    "height, width, dtype",
    [
        # ids: "height-width" for complex input, "height-width-float" for float
        pytest.param(h, w, dtype, id=f"{h}-{w}" + ("-float" if dtype == "float" else ""))
        for dtype in ("complex", "float")
        # around one tile and around four, each also with a short last tile
        for h in (1, TILE - 1, TILE, TILE + 1, 3 * TILE + 7)
        + (4 * TILE - 1, 4 * TILE, 4 * TILE + 1, 12 * TILE + 7)
        for w in (2, 5, 10, 13)
    ],
)
def test_col_norms_equal_numpy_norm_bit_for_bit(height, width, dtype):
    """Complex input: ``_col_norms`` against ``np.linalg.norm``; float input:
    the carried sums alone against ``np.add.reduce``."""
    rng = np.random.default_rng(height * 100 + width)
    wide = rng.standard_normal((height, 3 * width))
    if dtype == "complex":
        wide = wide + 1j * rng.standard_normal((height, 3 * width))
    for x in (np.ascontiguousarray(wide[:, :width]), wide[:, width : 2 * width], wide[:, ::3]):
        if dtype == "complex":
            got, want = verify._col_norms(x), np.linalg.norm(x, axis=0)
        else:
            got, want = carried_float_sums(x), np.add.reduce(x, axis=0)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def serial_norm_deviation(circ, count, seed):
    """The norm check's blocks drawn and run one after another in this thread,
    with numpy's own column norm."""
    width = verify._NORM_BLOCK
    size = 1 << circ.qubit_count
    steps = list(sim.dense_steps(circ))
    rng = np.random.default_rng(seed)
    z = np.empty((count // width, size, width), dtype=np.complex128)
    for part in (z.real, z.imag):
        draw = rng.standard_normal((size, count))
        part[:] = draw.reshape(size, -1, width).transpose(1, 0, 2)
    worst = 0.0
    for block in z:
        block /= np.linalg.norm(block, axis=0, keepdims=True)
        out = sim.apply_steps(steps, block)
        worst = max(worst, float(np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0))))
    return worst


def test_two_worker_norm_deviation_equals_serial_loop_bit_for_bit():
    for seed, (label, circ) in enumerate(verify._norm_circuits()):
        got = verify._norm_deviation(circ, 100, seed=seed)
        assert got.hex() == serial_norm_deviation(circ, 100, seed).hex(), label


@pytest.mark.parametrize(
    "rows", [1, TILE - 1, TILE, 2 * TILE + 7, 4 * TILE - 1, 4 * TILE, 8 * TILE + 7]
)
@pytest.mark.parametrize("width", [1, 5, 100])
def test_drawn_tiles_equal_one_whole_draw_bit_for_bit(rows, width):
    want = np.random.default_rng(rows + width).standard_normal((rows, width))
    got = []
    for row, tile in verify._drawn_tiles(np.random.default_rng(rows + width), rows, width):
        assert row == sum(len(t) for t in got)
        got.append(tile.copy())  # the stream reuses three buffers
    assert np.concatenate(got).tobytes() == want.tobytes()


def test_closing_a_draw_stream_joins_its_thread():
    before = threading.active_count()
    tiles = verify._drawn_tiles(np.random.default_rng(0), 3 * TILE, 5)
    next(tiles)
    assert threading.active_count() == before + 1
    tiles.close()
    assert threading.active_count() == before


def test_circuits_suite_leaves_no_thread():
    before = threading.active_count()
    assert verify.suite_circuits().passed
    assert threading.active_count() == before


def test_memory_error_in_a_worker_exits_3_and_leaves_no_thread(monkeypatch, capsys):
    from qgms import cli

    def out_of_memory(steps, amps):
        raise MemoryError

    monkeypatch.setattr(sim, "apply_steps", out_of_memory)
    before = threading.active_count()
    assert cli.main(["verify", "circuits"]) == 3
    assert threading.active_count() == before
    assert capsys.readouterr().err == "out of memory\n"


PERMUTATION_ONLY = ("gauss_2", "jordan_2", "rref_2x2", "kernel_2x2")


def test_only_circuits_with_hadamards_run_amplitudes(monkeypatch):
    calls = []
    apply_steps = sim.apply_steps

    def counted(steps, amps):
        calls.append(1)
        return apply_steps(steps, amps)

    monkeypatch.setattr(sim, "apply_steps", counted)
    for seed, (label, circ) in enumerate(verify._norm_circuits()):
        calls.clear()
        verify._norm_deviation(circ, 10, seed=seed)
        if label in PERMUTATION_ONLY:
            assert not calls, label
        else:
            assert calls, label


def traced_peak(label):
    """tracemalloc's peak over one ``_norm_deviation`` of the named family."""
    seed, circ = next(
        (i, c) for i, (name, c) in enumerate(verify._norm_circuits()) if name == label
    )
    tracemalloc.start()
    try:
        verify._norm_deviation(circ, 100, seed=seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_permutation_only_norm_check_holds_no_complex_batch():
    """One complex (2^16, 100) batch is 100 MiB, its real parts 50 MiB; the
    check holds 25 MiB of them and tiles of 512 rows."""
    assert traced_peak("kernel_2x2") <= 40 * 2**20


def test_amplitude_norm_check_holds_half_its_blocks():
    """search_1_2_1's complex (2^15, 100) batch is 50 MiB; the check holds
    10 of its 20 blocks, 25 MiB, while two workers run them."""
    assert traced_peak("search_1_2_1") <= 40 * 2**20


def top_flip_circuit(q):
    """A permutation circuit whose gather map changes the top index bit."""
    circ = Circuit(q)
    circ.x(q - 1)
    circ.cnot(0, q - 1)
    circ.toffoli(q - 1, 1, 2)
    return circ


@pytest.mark.parametrize(
    "budget",
    [
        pytest.param(1, id="nothing-held"),
        # two of search_1_2_1's blocks, so its 3 blocks run as 2 + 1, and
        # 43,520 of kernel_2x2's 65,536 rows at 15 states
        pytest.param(2 * 16 * verify._NORM_BLOCK << 15, id="partly-held"),
    ],
)
def test_any_budget_gives_the_bits_of_one_shot_batch(monkeypatch, budget):
    """Held values and values drawn again from saved states meet at every
    boundary: no held row, a held part of the rows, groups of one block,
    a short last group, and a tile of all 2^13 rows."""
    monkeypatch.setattr(verify, "_NORM_BUDGET", budget)
    top_flip = top_flip_circuit(13)
    (g,) = sim.dense_steps(top_flip)
    assert np.any(g >> 12 != np.arange(1 << 13) >> 12) and 1 << 13 > 4 * TILE
    families = verify._norm_circuits() + [("top_flip_13", top_flip)]
    for seed, (label, circ) in enumerate(families):
        got = verify._norm_deviation(circ, 15, seed=seed)
        assert got.hex() == one_shot_norm_deviation(circ, 15, seed).hex(), label


def test_an_empty_batch_deviates_by_zero_on_both_paths():
    for label, circ in verify._norm_circuits():
        assert verify._norm_deviation(circ, 0, seed=0) == 0.0, label
