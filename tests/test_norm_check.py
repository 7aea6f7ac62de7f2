"""The circuits suite's norm check: reproducible inputs, blocks that give
the same bits as one full batch whichever thread runs them, and column
norms that equal numpy's."""

import threading

import numpy as np
import pytest

from qgms import sim, verify


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


@pytest.mark.parametrize("width", [2, 5, 10, 13])
@pytest.mark.parametrize(
    "height",
    [1, verify._NORM_TILE - 1, verify._NORM_TILE, verify._NORM_TILE + 1, 3 * verify._NORM_TILE + 7],
)
def test_col_norms_equal_numpy_norm_bit_for_bit(height, width):
    rng = np.random.default_rng(height * 100 + width)
    wide = rng.standard_normal((height, 3 * width)) + 1j * rng.standard_normal((height, 3 * width))
    for x in (np.ascontiguousarray(wide[:, :width]), wide[:, width : 2 * width], wide[:, ::3]):
        want = np.linalg.norm(x, axis=0)
        assert [v.hex() for v in verify._col_norms(x)] == [v.hex() for v in want]


def serial_norm_deviation(circ, count, seed):
    """The norm check's blocks drawn and run one after another in this thread,
    with numpy's own column norm."""
    width = verify._NORM_BLOCK
    size = 1 << circ.qubit_count
    steps = list(sim.dense_steps(circ))
    rng = np.random.default_rng(seed)
    z = np.empty((count // width, size, width), dtype=np.complex128)
    for part in (z.real, z.imag):
        for row in range(0, size, verify._DRAW_ROWS):
            chunk = rng.standard_normal((min(verify._DRAW_ROWS, size - row), count))
            part[:, row : row + len(chunk)] = chunk.reshape(len(chunk), -1, width).transpose(1, 0, 2)
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


def test_memory_error_in_a_worker_exits_3_and_leaves_no_thread(monkeypatch, capsys):
    from qgms import cli

    def out_of_memory(steps, amps):
        raise MemoryError

    monkeypatch.setattr(sim, "apply_steps", out_of_memory)
    before = threading.active_count()
    assert cli.main(["verify", "circuits"]) == 3
    assert threading.active_count() == before
    assert capsys.readouterr().err == "out of memory\n"
