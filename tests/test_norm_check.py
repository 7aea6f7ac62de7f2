"""The circuits suite's norm check: reproducible inputs, and blocks that
give the same bits as one full batch."""

import numpy as np

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
