"""The array readouts of ``analysis`` against scalar loops, bit for bit.

``hybrid_baseline``, ``deferred_vs_immediate`` and ``run_gms_per_gate``
read their distributions as arrays. The references below are the loops
they replaced: a generator over the row matrices in ``itertools.product``
order, dicts keyed by (rows, solution), and a per-entry mass loop. Every
float must match by ``.hex()``, so a change of multiplication or
summation order fails here even where it stays within rounding.
"""

import math
from itertools import product

import pytest

from qgms import analysis, sim
from qgms.amplify import grover_probability
from qgms.analysis import GmsConfig
from qgms.oracles import build_fx_oracle, build_simon_oracle, parallel_simon_circuit, y_marginal
from qgms.synth import _Builder, kernel_core


def scalar_row_distribution(per_copy, n, l):
    """Yield (packed Y, P(Y)) in ``product`` order, skipping probability 0."""
    rows = [[(y << (n * j), py) for y, py in enumerate(per_copy) if py != 0.0] for j in range(l)]
    for picks in product(*rows):
        ybits, p = 0, 1.0
        for y, py in picks:
            ybits |= y
            p *= py
        if p != 0.0:
            yield ybits, p


def scalar_hybrid(cfg):
    """``hybrid_baseline``'s accept probabilities and success, one matrix at a time."""
    accept = analysis._hybrid_table(cfg)
    accept_probs = []
    for kp in range(1 << cfg.m):
        per_copy = y_marginal(cfg.oracle.residual_table(kp), cfg.n)
        total = 0.0
        for ybits, p in scalar_row_distribution(per_copy, cfg.n, cfg.l):
            if accept[kp, ybits]:
                total += p
        accept_probs.append(total)
    key = cfg.oracle.key
    n_keys = 1 << cfg.m
    sweep = int(math.ceil((math.pi / 4) * math.sqrt(n_keys))) + 2
    t_star = max(range(sweep + 1), key=lambda t: grover_probability(n_keys, 1, t))
    success = (1.0 - (1.0 - accept_probs[key]) ** analysis.HYBRID_REPS) * grover_probability(
        n_keys, 1, t_star
    )
    for kp, p in enumerate(accept_probs):
        if kp != key:
            success *= (1.0 - p) ** analysis.HYBRID_REPS
    return accept_probs, success


def scalar_deferred(n, l, s, seed):
    """``deferred_vs_immediate``'s (max_abs_diff, p_correct, r) from two dicts."""
    kernel = analysis._kernel_vector(n, l)
    oracle = build_simon_oracle(n, s, rng=seed)
    immediate = {}
    for ybits, p in scalar_row_distribution(y_marginal(oracle.table, n), n, l):
        key = (ybits, int(kernel[ybits]))
        immediate[key] = immediate.get(key, 0.0) + p
    circ = parallel_simon_circuit(oracle, l)
    ys = [list(circ.registers[f"y{j}"]) for j in range(l)]
    bld = _Builder(circ)
    s_out = [bld.fresh() for _ in range(n)]
    kernel_core(bld, ys, s_out, bld.fresh())
    state = sim.sparse_apply({0: 1.0 + 0.0j}, circ.gates)
    y_qubits = [q for y in ys for q in y]
    deferred = {}
    for idx, amp in state.items():
        w = (amp * amp.conjugate()).real
        if w == 0.0:
            continue
        key = (sim.extract_bits(idx, y_qubits), sim.extract_bits(idx, s_out))
        deferred[key] = deferred.get(key, 0.0) + w
    keys = set(immediate) | set(deferred)
    max_abs_diff = max(abs(immediate.get(k, 0.0) - deferred.get(k, 0.0)) for k in keys)
    p_correct = sum(p for (_, sv), p in immediate.items() if sv == s)
    return max_abs_diff, p_correct, int((kernel == s).sum())


def scalar_per_gate(cfg, t_max):
    """``run_gms_per_gate``'s curve, summing the success mass entry by entry."""
    circ, slices = analysis.build_gms_circuit(cfg)
    success = analysis.success_mask(cfg)
    data_size = 1 << cfg.data_qubits

    def marked_mass(state):
        mass = 0.0
        for idx, amp in state.items():
            if idx < data_size and success[idx]:
                mass += (amp * amp.conjugate()).real
        return mass

    prep_end = slices["prep"][1]
    state = sim.sparse_apply({0: 1.0 + 0.0j}, circ.gates[:prep_end])
    curve = [marked_mass(state)]
    for _ in range(t_max):
        state = sim.sparse_apply(state, circ.gates[prep_end:])
        curve.append(marked_mass(state))
    return curve


def config(m, n, l, seed):
    return GmsConfig(m, n, l, build_fx_oracle(m, n, 1, 3, 1, cipher_seed=seed))


def hexes(values):
    return [float(v).hex() for v in values]


HYBRID_SHAPES = [
    (1, 2, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2), (1, 2, 3),
    (2, 2, 3), (1, 3, 1), (2, 3, 2), (1, 4, 2), (2, 4, 3),
]  # fmt: skip


@pytest.mark.parametrize("shape", HYBRID_SHAPES, ids=lambda s: "m{}-n{}-l{}".format(*s))
def test_hybrid_baseline_equals_the_matrix_loop_bit_for_bit(shape):
    for seed in range(4):
        cfg = config(*shape, seed)
        accept_probs, success = scalar_hybrid(cfg)
        got = analysis.hybrid_baseline(cfg)
        assert hexes(got.accept_probs) == hexes(accept_probs)
        assert got.success.hex() == success.hex()


@pytest.mark.parametrize("n, l", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_deferred_comparison_equals_the_dict_readout_bit_for_bit(n, l):
    for seed in range(3):
        for s in range(1, 1 << n):
            max_abs_diff, p_correct, r = scalar_deferred(n, l, s, seed)
            got = analysis.deferred_vs_immediate(n, l, s, seed)
            assert hexes([got.max_abs_diff, got.p_correct]) == hexes([max_abs_diff, p_correct])
            assert got.r == r


@pytest.mark.parametrize("shape", [(1, 2, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2)])
def test_per_gate_curve_equals_the_entry_loop_bit_for_bit(shape):
    for seed in range(3):
        cfg = config(*shape, seed)
        assert hexes(analysis.run_gms_per_gate(cfg, 3)) == hexes(scalar_per_gate(cfg, 3))


def test_row_distribution_covers_every_matrix_in_product_order():
    # Every P(y) of a real round is a multiple of 4^-n, so its products and
    # sums are exact in any order; these are not.
    per_copy = [0.1, 0.0, 0.2, 0.7]
    ybits, prob = analysis._row_distribution(per_copy, 2, 3)
    want = dict(scalar_row_distribution(per_copy, 2, 3))
    listed = [y in want for y in ybits.tolist()]
    assert sorted(ybits.tolist()) == list(range(1 << 6))
    assert ybits[listed].tolist() == list(want)
    assert hexes(prob[listed]) == hexes(want.values())
    assert not prob[[not x for x in listed]].any()
    total = 0.0
    for p in want.values():
        total += p
    assert analysis._sum_in_order(prob).hex() == total.hex()
