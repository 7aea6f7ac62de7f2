"""Tests for the periodic-oracle and whitened-cipher builders."""

from collections import Counter

import numpy as np
import pytest
from probes import marginal

from qgms import sim
from qgms.analysis import GmsConfig, prep_circuit
from qgms.oracles import (
    ZeroPeriod,
    ZeroWhiteningKey,
    build_fx_oracle,
    build_simon_oracle,
    parallel_simon_circuit,
    round_blocks,
    y_marginal,
)

# Reference cipher fixture used across the analysis tests. At this seed the
# three wrong-key residuals are permutations of F_2^2 (so their one-round
# y-distribution is exactly uniform and no wrong key can pass a period
# check), which keeps the worked examples clean.
FIXTURE = dict(m=2, n=2, key=2, k1=3, k2=1, cipher_seed=72)

# At block width 3 the residual at the correct key is a genuine 2-to-1
# function; seed 0 happens to give one with no stray period.
FIXTURE_N3 = dict(m=1, n=3, key=1, k1=3, k2=0, cipher_seed=0)


def parity(x):
    return bin(x).count("1") % 2


def periods(table, n):
    """All nonzero p with f(x) = f(x xor p) for every x."""
    size = 1 << n
    return [p for p in range(1, size) if all(table[x] == table[x ^ p] for x in range(size))]


# ---------------------------------------------------------------------------
# Simon oracles


def test_simon_oracle_has_exact_period():
    for n in (2, 3):
        for s in range(1, 1 << n):
            orc = build_simon_oracle(n, s, rng=5)
            assert len(orc.table) == 1 << n
            assert periods(orc.table, n) == [s]
            assert set(Counter(orc.table).values()) == {2}  # 2-to-1


def test_simon_oracle_image_size():
    orc = build_simon_oracle(3, 5, rng=1)
    assert len(set(orc.table)) == 4
    for x in range(8):
        assert orc(x) == orc(x ^ 5)


def test_simon_oracle_rejects_zero_period():
    with pytest.raises(ZeroPeriod):
        build_simon_oracle(3, 0)
    with pytest.raises(ZeroPeriod):
        build_simon_oracle(3, 8)
    with pytest.raises(ValueError):
        build_simon_oracle(1, 1)


def test_simon_oracle_deterministic_given_seed():
    a = build_simon_oracle(3, 6, rng=42)
    b = build_simon_oracle(3, 6, rng=42)
    assert a.table == b.table


def test_simon_round_y_marginal_uniform_on_orthogonal_subspace():
    # One H / query / H round puts the query register on the subspace
    # orthogonal to the period, uniformly, for any choice of table values.
    for n, s in ((2, 3), (2, 1), (3, 1), (3, 6)):
        orc = build_simon_oracle(n, s, rng=9)
        state = sim.run(parallel_simon_circuit(orc, 1))
        marg = marginal(state, range(n))
        expected = {
            y: 1.0 / (1 << (n - 1)) for y in range(1 << n) if parity(y & s) == 0
        }
        for y in range(1 << n):
            assert marg[y] == pytest.approx(expected.get(y, 0.0), abs=1e-12)


def test_simon_round_matches_table_marginal_formula():
    orc = build_simon_oracle(3, 2, rng=11)
    state = sim.run(parallel_simon_circuit(orc, 1))
    marg = marginal(state, range(3))
    formula = y_marginal(orc.table, 3)
    assert np.allclose(marg, formula, atol=1e-12)


def test_parallel_simon_is_product_of_rounds():
    orc = build_simon_oracle(2, 3, rng=4)
    circ = parallel_simon_circuit(orc, 2)
    assert circ.qubit_count == 8
    assert set(circ.registers) == {"y0", "f0", "y1", "f1"}
    state = sim.run(circ)
    single = marginal(sim.run(parallel_simon_circuit(orc, 1)), range(2))
    joint = marginal(state, [0, 1, 4, 5])
    for y0 in range(4):
        for y1 in range(4):
            assert joint[y0 | (y1 << 2)] == pytest.approx(
                single[y0] * single[y1], abs=1e-12
            )


@pytest.mark.parametrize("m, n, l", [(1, 2, 1), (2, 2, 3), (1, 3, 2), (3, 3, 1)])
def test_round_layout_at_both_call_sites(m, n, l):
    cfg = GmsConfig(m, n, l, build_fx_oracle(m, n, key=0, k1=1, k2=0))
    key, ys, fs = cfg.layout()
    assert key == list(range(m))
    for j in range(l):
        start = m + 2 * n * j
        assert ys[j] == list(range(start, start + n))
        assert fs[j] == list(range(start + n, start + 2 * n))
    prep = prep_circuit(cfg)
    assert [list(prep.registers[f"y{j}"]) for j in range(l)] == ys
    assert [list(prep.registers[f"f{j}"]) for j in range(l)] == fs

    circ = parallel_simon_circuit(build_simon_oracle(n, 1, rng=0), l)
    assert (
        [list(circ.registers[f"y{j}"]) for j in range(l)],
        [list(circ.registers[f"f{j}"]) for j in range(l)],
    ) == round_blocks(0, n, l)


# ---------------------------------------------------------------------------
# Whitened cipher


def test_fx_encrypt_structure():
    fx = build_fx_oracle(**FIXTURE)
    for x in range(4):
        assert fx.encrypt(x) == fx.perms[fx.key][x ^ fx.k1] ^ fx.k2


def test_fx_residual_definition_and_packing():
    fx = build_fx_oracle(**FIXTURE)
    for kp in range(4):
        for x in range(4):
            expect = fx.encrypt(x) ^ fx.perms[kp][x]
            assert fx.residual(kp, x) == expect
            assert fx(kp | (x << fx.m)) == expect


def test_fx_rejects_bad_parameters():
    with pytest.raises(ZeroWhiteningKey):
        build_fx_oracle(2, 2, 1, 0, 1)
    with pytest.raises(ValueError):
        build_fx_oracle(2, 2, 4, 1, 1)
    with pytest.raises(ValueError):
        build_fx_oracle(2, 2, 1, 1, 4)
    with pytest.raises(ValueError):
        build_fx_oracle(0, 2, 0, 1, 0)


def test_fx_permutation_family_is_seeded_and_valid():
    a = build_fx_oracle(2, 3, 0, 1, 0, cipher_seed=7)
    b = build_fx_oracle(2, 3, 3, 5, 2, cipher_seed=7)
    assert a.perms == b.perms
    assert len(a.perms) == 4
    for p in a.perms:
        assert sorted(p) == list(range(8))


def test_fx_correct_key_residual_is_two_to_one_at_width_3():
    fx = build_fx_oracle(**FIXTURE_N3)
    t = fx.residual_table(fx.key)
    assert set(Counter(t).values()) == {2}  # 2-to-1
    assert periods(t, 3) == [fx.k1]


def test_width_2_correct_key_residual_is_always_constant():
    # A permutation of F_2^2 XOR-sums to zero over its four values, so
    # E(x xor k1) xor E(x) takes the same value on both cosets of {0, k1}.
    # The correct-key residual is therefore constant for every seed: block
    # width 2 cannot produce a 2-to-1 residual from a permutation cipher.
    for seed in range(12):
        for k1 in (1, 2, 3):
            fx = build_fx_oracle(2, 2, 1, k1, 2, cipher_seed=seed)
            t = fx.residual_table(fx.key)
            assert len(set(t)) == 1
            assert periods(t, 2) == [1, 2, 3]


def test_fixture_wrong_keys_are_permutation_residuals():
    fx = build_fx_oracle(**FIXTURE)
    for kp in range(4):
        t = fx.residual_table(kp)
        if kp == fx.key:
            assert len(set(t)) == 1
        else:
            assert sorted(t) == [0, 1, 2, 3]
            # injective residual: no nonzero shift can pass a period check
            for sp in range(1, 4):
                assert any(t[x] != t[x ^ sp] for x in range(4))


def test_y_marginal_worked_examples():
    # permutation table: uniform; constant table: all mass at y = 0
    assert y_marginal([0, 3, 1, 2], 2) == pytest.approx([0.25] * 4)
    assert y_marginal([1, 1, 1, 1], 2) == pytest.approx([1.0, 0.0, 0.0, 0.0])
    # 2-to-1 with period 3: uniform on {0, 3}
    assert y_marginal([0, 2, 2, 0], 2) == pytest.approx([0.5, 0.0, 0.0, 0.5])


def dict_loop_y_marginal(table, n):
    """The earlier y_marginal: per y, a dict of signed sums over f's values."""
    size = 1 << n
    out = []
    for y in range(size):
        total = 0.0
        by_value = {}
        for x in range(size):
            sign = -1 if parity(x & y) else 1
            by_value[table[x]] = by_value.get(table[x], 0) + sign
        for acc in by_value.values():
            total += float(acc * acc)
        out.append(total / (size * size))
    return out


def test_y_marginal_has_the_dict_loop_bits():
    from qgms.verify import DEFERRED_GRID, REFERENCE

    rng = np.random.default_rng(29)
    tables = [
        (rng.integers(0, 1 << rng.integers(0, n + 1), size=1 << n).tolist(), n)
        for n in range(1, 7)
        for _ in range(30)
    ]
    # the Simon tables of `verify deferred` and the residuals of `verify gms`
    tables += [
        (build_simon_oracle(n, s, rng=5).table, n)
        for n in sorted({n for n, _ in DEFERRED_GRID})
        for s in range(1, 1 << n)
    ]
    fx = build_fx_oracle(**REFERENCE)
    tables += [(fx.residual_table(kp), fx.n) for kp in range(1 << fx.m)]
    # wider: a random map, a permutation and a Simon table at n = 7 and 8
    tables += [
        (table, n)
        for n in (7, 8)
        for table in (
            rng.integers(0, 1 << n, size=1 << n).tolist(),
            rng.permutation(1 << n).tolist(),
            build_simon_oracle(n, 5, rng=n).table,
        )
    ]
    for table, n in tables:
        got = [p.hex() for p in y_marginal(table, n)]
        assert got == [p.hex() for p in dict_loop_y_marginal(table, n)], (table, n)


def test_y_marginal_of_a_wide_permutation_stays_in_linear_memory():
    import tracemalloc

    n = 10
    table = np.random.default_rng(30).permutation(1 << n).tolist()
    tracemalloc.start()
    try:
        probs = y_marginal(table, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 2^n x 2^n integer table alone would take 8 MiB
    assert peak < 1 << 20
    assert probs == [2.0**-n] * (1 << n)


def test_y_marginal_matches_simulated_round_for_residuals():
    fx = build_fx_oracle(m=2, n=2, key=2, k1=3, k2=1, cipher_seed=7)
    for kp in range(4):
        table = fx.residual_table(kp)
        # run one round over the fixed-key residual via a direct circuit
        from qgms.circuit import Circuit

        circ = Circuit(4)
        circ.h(0)
        circ.h(1)
        circ.oracle_block(lambda v, t=table: t[v], ins=[0, 1], outs=[2, 3])
        circ.h(0)
        circ.h(1)
        got = marginal(sim.run(circ), [0, 1])
        assert np.allclose(got, y_marginal(table, 2), atol=1e-12)


def test_fx_oracle_usable_as_circuit_block():
    fx = build_fx_oracle(**FIXTURE)
    from qgms.circuit import Circuit

    m, n = fx.m, fx.n
    circ = Circuit(m + 2 * n)
    # load key bits of k' = 1, x = 2, query the residual
    circ.x(0)
    circ.x(m + 1)
    circ.oracle_block(fx, ins=list(range(m + n)), outs=list(range(m + n, m + 2 * n)))
    marg = marginal(sim.run(circ), list(range(m + n, m + 2 * n)))
    assert marg[fx.residual(1, 2)] == pytest.approx(1.0, abs=1e-12)
