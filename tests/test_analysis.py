"""Tests for the combined-search analysis module."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from probes import hybrid_accept, marginal, ug_classifier

from qgms import analysis, sim, verify
from qgms.analysis import (
    AmplitudeStats,
    DegenerateUnmarkedMean,
    GmsConfig,
    amplitude_stats,
    analysis_report,
    build_gms_circuit,
    character_sum,
    classifier_mask,
    coset_character_sum,
    deferred_vs_immediate,
    hybrid_baseline,
    optimal_iterations,
    prepare_initial_state,
    query_ratio,
    required_qubits,
    run_gms_per_gate,
    success_mask,
    two_to_one_model,
)
from qgms.counting import rank_deficit_one_formula
from qgms.gf2 import BitMatrix
from qgms.oracles import build_fx_oracle, y_marginal

FIXTURE = dict(m=2, n=2, key=2, k1=3, k2=1, cipher_seed=72)


def fixture_cfg(**overrides):
    return GmsConfig(2, 2, 2, build_fx_oracle(**FIXTURE), **overrides)


def report_curve(cfg, t_max):
    """The success curve of ``analysis_report``, probabilities only."""
    return [p for _, p in analysis_report(cfg, t_max)["t_curve"]]


def parity(x):
    return bin(x).count("1") % 2


# ---------------------------------------------------------------------------
# Configuration and state preparation


def test_config_validation():
    fx = build_fx_oracle(**FIXTURE)
    with pytest.raises(ValueError):
        GmsConfig(3, 2, 2, fx)
    with pytest.raises(ValueError):
        GmsConfig(2, 2, 0, fx)
    with pytest.raises(ValueError):
        GmsConfig(2, 2, 2, fx, c_check=5)
    cfg = fixture_cfg()
    assert required_qubits(cfg.m, cfg.n, cfg.l) == 2 + 8 + 2 + 1


def test_initial_state_key_marginal_uniform():
    cfg = fixture_cfg()
    state = prepare_initial_state(cfg)
    marg = marginal(state, range(cfg.m))
    assert np.allclose(marg, [0.25] * 4, atol=1e-12)


def test_initial_state_correct_key_rows_orthogonal_to_period():
    # Conditioned on the correct key the y rows stay inside the subspace
    # orthogonal to the whitening key. At block width 2 the correct-key
    # residual is constant, so the support is the zero row set alone.
    cfg = fixture_cfg()
    state = prepare_initial_state(cfg)
    key, ys, _ = cfg.layout()
    probs = np.abs(state.amps) ** 2
    k = cfg.oracle.key
    mass_key = 0.0
    mass_zero_rows = 0.0
    for idx in range(probs.size):
        if (idx & 3) != k:
            continue
        mass_key += probs[idx]
        rows = [sum(((idx >> q) & 1) << b for b, q in enumerate(ys[j])) for j in range(cfg.l)]
        if all(r == 0 for r in rows):
            mass_zero_rows += probs[idx]
        for r in rows:
            assert parity(r & cfg.oracle.k1) == 0 or probs[idx] == 0.0
    assert mass_key == pytest.approx(0.25, abs=1e-12)
    assert mass_zero_rows == pytest.approx(0.25, abs=1e-12)


def test_initial_state_wrong_key_rows_uniform_at_fixture_seed():
    # The fixture seed makes every wrong-key residual a permutation, so
    # the wrong-key y rows are exactly uniform.
    cfg = fixture_cfg()
    state = prepare_initial_state(cfg)
    key, ys, _ = cfg.layout()
    probs = np.abs(state.amps) ** 2
    for kp in range(4):
        if kp == cfg.oracle.key:
            continue
        joint = {}
        for idx in range(probs.size):
            if (idx & 3) != kp:
                continue
            rows = tuple(
                sum(((idx >> q) & 1) << b for b, q in enumerate(ys[j]))
                for j in range(cfg.l)
            )
            joint[rows] = joint.get(rows, 0.0) + probs[idx]
        for rows, p in joint.items():
            assert p == pytest.approx(0.25 / 16, abs=1e-12)


def test_initial_state_wrong_key_rows_match_table_formula_any_seed():
    # Without the permutation property the wrong-key rows are not uniform;
    # they follow the product of single-round marginals of each residual.
    fx = build_fx_oracle(m=2, n=2, key=2, k1=3, k2=1, cipher_seed=7)
    cfg = GmsConfig(2, 2, 2, fx)
    state = prepare_initial_state(cfg)
    _, ys, _ = cfg.layout()
    probs = np.abs(state.amps) ** 2
    for kp in range(4):
        per_copy = y_marginal(fx.residual_table(kp), 2)
        joint = {}
        for idx in range(probs.size):
            if (idx & 3) != kp:
                continue
            rows = tuple(
                sum(((idx >> q) & 1) << b for b, q in enumerate(ys[j]))
                for j in range(cfg.l)
            )
            joint[rows] = joint.get(rows, 0.0) + probs[idx]
        for rows, p in joint.items():
            expect = 0.25 * per_copy[rows[0]] * per_copy[rows[1]]
            assert p == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# Classifier and masks


def test_classifier_rejects_zero_matrix():
    cfg = fixture_cfg()
    zero = BitMatrix(2, 2, [0, 0])
    assert ug_classifier(0, zero, cfg.oracle, cfg.plaintexts) == 0


def test_classifier_accepts_correct_key_rank_deficit_rows():
    cfg = fixture_cfg()
    # rows orthogonal to k1 = 11 with rank 1: kernel = {k1}
    mat = BitMatrix(2, 2, [3, 0])
    assert ug_classifier(cfg.oracle.key, mat, cfg.oracle, cfg.plaintexts) == 1
    assert ug_classifier(cfg.oracle.key, BitMatrix(2, 2, [3, 3]), cfg.oracle, cfg.plaintexts) == 1


def test_classifier_rejects_wrong_keys_at_fixture_seed():
    cfg = fixture_cfg()
    for kp in range(4):
        if kp == cfg.oracle.key:
            continue
        for rows in ([1, 0], [2, 2], [3, 1], [1, 2]):
            mat = BitMatrix(2, 2, rows)
            assert ug_classifier(kp, mat, cfg.oracle, cfg.plaintexts) == 0


def test_classifier_requires_plaintexts():
    cfg = fixture_cfg()
    with pytest.raises(ValueError):
        ug_classifier(0, BitMatrix(2, 2, [3, 0]), cfg.oracle, [])


@pytest.mark.parametrize(
    "m, n, l, seed", [(2, 2, 2, 72), (2, 2, 2, 7), (1, 3, 2, 5), (2, 3, 1, 9), (1, 2, 3, 11)]
)
def test_row_tables_match_scalar_classifiers(m, n, l, seed):
    fx = build_fx_oracle(m, n, m - 1, 3, 1, cipher_seed=seed)
    for c_check in (1, 2):
        cfg = GmsConfig(m, n, l, fx, c_check=c_check)
        accept = analysis._accept_table(cfg)
        hybrid = analysis._hybrid_table(cfg)
        for kp in range(1 << m):
            for ybits in range(1 << (n * l)):
                rows = tuple((ybits >> (n * j)) & ((1 << n) - 1) for j in range(l))
                mat = BitMatrix(l, n, rows)
                assert accept[kp, ybits] == ug_classifier(kp, mat, fx, cfg.plaintexts)
                assert hybrid[kp, ybits] == hybrid_accept(kp, rows, fx, cfg.plaintexts)


def test_masks_at_fixture():
    cfg = fixture_cfg()
    succ = success_mask(cfg)
    # correct key times 9 rank-1 row pairs times 16 free f contents
    assert int(succ.sum()) == 144
    assert int(classifier_mask(cfg).sum()) == 144
    assert int(analysis._masks(cfg)[2].sum()) == 144
    kp = np.arange(succ.size) & 3
    assert not np.any(succ & (kp != cfg.oracle.key))


# ---------------------------------------------------------------------------
# The exact search run


def test_curve_starts_at_initial_marked_mass():
    cfg = fixture_cfg()
    state = prepare_initial_state(cfg)
    expected = float((np.abs(state.amps[success_mask(cfg)]) ** 2).sum())
    curve = report_curve(cfg, t_max=0)
    assert curve == [pytest.approx(expected, abs=1e-12)]
    assert expected == pytest.approx(0.0, abs=1e-12)


def test_curve_respects_ceiling_and_stays_low():
    cfg = fixture_cfg()
    state = prepare_initial_state(cfg)
    stats = amplitude_stats(state.amps, success_mask(cfg))
    curve = report_curve(cfg, t_max=6)
    assert max(curve) < 0.5
    assert max(curve) < stats.p_max + 1e-8
    assert max(curve) > 0.0


@pytest.mark.parametrize("m, n, l", [(2, 3, 2), (3, 3, 2)])
def test_two_to_one_true_key_keeps_the_curve_between_its_start_and_ceiling(m, n, l):
    """Every pinned report starts at t_curve[0] = 0; at cipher seed 0 the true
    key's residual is 2-to-1, so the search starts with marked mass, and
    the marked initial amplitudes still sum to 0 (k0_mean). Key, k1 and k2
    are the command line's defaults at these widths."""
    fx = build_fx_oracle(m, n, key=2, k1=3, k2=1, cipher_seed=0)
    assert set(Counter(fx.residual_table(fx.key)).values()) == {2}
    report = analysis_report(GmsConfig(m, n, l, fx), t_max=20)
    assert report["k0_mean"] == [0.0, 0.0]
    curve = [p for _, p in report["t_curve"]]
    assert len(curve) == 21 and curve[0] > 0
    assert all(curve[0] - 1e-12 <= p <= report["p_max"] + 1e-12 for p in curve)


def test_engines_agree():
    fx = build_fx_oracle(m=2, n=2, key=1, k1=3, k2=1, cipher_seed=72)
    cfg = GmsConfig(2, 2, 1, fx)
    operator = report_curve(cfg, t_max=3)
    per_gate = run_gms_per_gate(cfg, t_max=3)
    assert operator == pytest.approx(per_gate, abs=1e-12)


def test_round_proof_rejects_a_wrong_accept_bit(monkeypatch):
    real = analysis._accept_table

    def one_entry_flipped(cfg):
        accept = real(cfg).copy()
        accept[0, 0] = not accept[0, 0]
        return accept

    monkeypatch.setattr(analysis, "_accept_table", one_entry_flipped)
    with pytest.raises(RuntimeError, match="classifier mask"):
        analysis_report(fixture_cfg(), t_max=1)


@pytest.mark.parametrize(
    "piece, offset, message",
    [
        ("uncompute", 0, "scratch register failed to uncompute"),
        ("phase", 1, "phase slice"),
        ("diffusion", 0, "diffusion slice"),
    ],
)
def test_round_proof_rejects_a_missing_gate(monkeypatch, piece, offset, message):
    real = analysis.build_gms_circuit

    def circuit_missing_a_gate(cfg):
        circ, slices = real(cfg)
        gone = slices[piece][0] + offset
        del circ.gates[gone]
        shifted = {
            name: (lo - (lo > gone), hi - (hi > gone))
            for name, (lo, hi) in slices.items()
        }
        return circ, shifted

    monkeypatch.setattr(analysis, "build_gms_circuit", circuit_missing_a_gate)
    with pytest.raises(RuntimeError, match=message):
        analysis_report(fixture_cfg(), t_max=1)
    if piece == "uncompute":
        # the per-gate reference sees the dirty scratch once the state has
        # marked mass, which the fixture's prepared state lacks (t = 1)
        with pytest.raises(RuntimeError, match=message):
            run_gms_per_gate(fixture_cfg(), t_max=2)


def test_search_circuit_keeps_scratch_clean():
    cfg = fixture_cfg()
    circ, slices = build_gms_circuit(cfg)
    state = {0: 1.0 + 0.0j}
    state = sim.sparse_apply(state, circ.gates)
    data = 1 << cfg.data_qubits
    assert all(idx < data for idx in state)
    total = sum((a * a.conjugate()).real for a in state.values())
    assert total == pytest.approx(1.0, abs=1e-10)


def test_cap_enforced():
    fx = build_fx_oracle(8, 8, 0, 1, 0)
    cfg = GmsConfig(8, 8, 8, fx)
    assert required_qubits(cfg.m, cfg.n, cfg.l) == 145
    with pytest.raises(sim.QubitCapExceeded):
        analysis_report(cfg, t_max=1)


# ---------------------------------------------------------------------------
# Amplitude statistics


def test_stats_uniform_state():
    amps = np.full(16, 0.25)
    marked = np.zeros(16, dtype=bool)
    marked[[1, 5]] = True
    stats = amplitude_stats(amps, marked)
    assert stats.sigma2_l == pytest.approx(0.0, abs=1e-15)
    assert stats.p_max == pytest.approx(1.0, abs=1e-12)


def test_stats_perturbed_state():
    amps = np.full(16, 0.25)
    amps[3] = 0.3
    amps /= np.linalg.norm(amps)
    marked = np.zeros(16, dtype=bool)
    marked[0] = True
    stats = amplitude_stats(amps, marked)
    assert stats.sigma2_l > 0.0
    assert stats.p_max < 1.0


def test_stats_identity_decomposition():
    # p_max must equal 1 - sum|l|^2 + |sum l|^2 / (N - r) identically
    cfg = fixture_cfg()
    state = prepare_initial_state(cfg)
    mask = success_mask(cfg)
    stats = amplitude_stats(state.amps, mask)
    l_amps = state.amps[~mask]
    alt = 1.0 - float(np.sum(np.abs(l_amps) ** 2)) + abs(np.sum(l_amps)) ** 2 / (
        stats.n_states - stats.marked
    )
    assert stats.p_max == pytest.approx(alt, abs=1e-12)


def test_stats_exact_values_at_fixture():
    cfg = fixture_cfg()
    stats = amplitude_stats(prepare_initial_state(cfg).amps, success_mask(cfg))
    assert stats.n_states == 1024
    assert stats.marked == 144
    assert stats.k0_mean == pytest.approx(0.0, abs=1e-14)
    assert stats.l0_mean.real == pytest.approx(2.0 / 880, abs=1e-12)
    assert stats.p_max == pytest.approx(4.0 / 880, abs=1e-10)


def test_two_to_one_model_reference_values():
    ideal = two_to_one_model(2, 2, 2)
    assert ideal["N"] == 784
    assert ideal["r"] == 12
    assert ideal["rank_matrices"] == 3
    assert ideal["sum_l_sq"] == pytest.approx(0.8125, abs=1e-14)
    assert ideal["sum_l"] == pytest.approx(2.0, abs=1e-14)
    assert ideal["p_max"] == pytest.approx(1 - 0.8125 + 4 / 772, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_to_one_model_counts_the_closed_form(n):
    assert two_to_one_model(2, n, n)["rank_matrices"] == rank_deficit_one_formula(n)


@pytest.mark.parametrize(
    "n, l", [(n, l) for n in range(2, 6) for l in range(1, 7) if n * l + n <= 22]
)
def test_two_to_one_model_counts_what_the_kernel_table_counts(n, l):
    # the model counts by formula; the table, the matrices whose kernel vector is s = 1
    table = int(np.count_nonzero(analysis._kernel_vector(n, l) == 1))
    assert two_to_one_model(2, n, l)["rank_matrices"] == table


def test_ceiling_decreases_with_key_width():
    values = []
    for m in (1, 2, 3):
        fx = build_fx_oracle(m, 2, 0, 3, 1, cipher_seed=72)
        cfg = GmsConfig(m, 2, 1, fx)
        stats = amplitude_stats(prepare_initial_state(cfg).amps, success_mask(cfg))
        assert 0.0 <= stats.p_max <= 1.0
        values.append(stats.p_max)
    assert values[0] > values[1] > values[2]


def test_stats_shape_mismatch():
    with pytest.raises(ValueError):
        amplitude_stats(np.ones(4), np.zeros(8, dtype=bool))


# ---------------------------------------------------------------------------
# Iteration estimate


def test_iteration_estimate_uniform_example():
    t = optimal_iterations(1 / 32, 1 / 32, 1024, 1)
    expect = -0.5 + (math.pi / 4) * 32 - (math.pi / 24) / 32
    assert t == pytest.approx(expect, abs=1e-12)
    assert t == pytest.approx(24.63, abs=0.01)


def test_iteration_estimate_matches_search_argmax():
    for q in (6, 8):
        n_states = 1 << q
        amp = 1 / math.sqrt(n_states)
        t = optimal_iterations(amp, amp, n_states, 1)
        from qgms.amplify import grover_probability

        curve = [grover_probability(n_states, 1, k) for k in range(2 * int(t) + 2)]
        assert round(t) == curve.index(max(curve))


def test_iteration_estimate_guards():
    with pytest.raises(DegenerateUnmarkedMean):
        optimal_iterations(0.1, 0.0, 64, 1)
    with pytest.raises(ValueError):
        optimal_iterations(0.1, 0.1, 64, 0)
    with pytest.warns(UserWarning):
        optimal_iterations(0.1, 0.1, 16, 4)


# ---------------------------------------------------------------------------
# Character sums


def test_character_sum_exhaustive():
    for n in (2, 3):
        for l in (1, 2):
            import itertools

            for ys in itertools.product(range(1 << n), repeat=l):
                got = character_sum(ys, n)
                if all(y == 0 for y in ys):
                    assert got == 1 << (n * l)
                else:
                    assert got == 0


def test_coset_character_sum():
    for n in (2, 3):
        for s in range(1, 1 << n):
            assert coset_character_sum(0, n, s) == 1 << (n - 1)
            for y in range(1, 1 << n):
                if parity(y & s) == 0:
                    assert coset_character_sum(y, n, s) == 0
    with pytest.raises(ValueError):
        coset_character_sum(0, 2, 0)


# ---------------------------------------------------------------------------
# Query ratio


def test_query_ratio_grid():
    from fractions import Fraction

    qr = query_ratio(2, 2)
    assert qr.ratio == Fraction(784, 12)
    assert qr.bound == 48
    assert qr.exceeds_bound
    for m, n in ((2, 2), (3, 2), (4, 3)):
        qr = query_ratio(m, n)
        assert qr.exceeds_bound
        assert qr.slower_than_exhaustive


def test_query_ratio_always_beats_exhaustive_on_grid():
    for m in range(1, 5):
        for n in (2, 3):
            assert query_ratio(m, n).slower_than_exhaustive


# ---------------------------------------------------------------------------
# Deferred vs immediate measurement


def test_deferred_equals_immediate_width_2():
    for s in (1, 2, 3):
        cmp = deferred_vs_immediate(2, 2, s, seed=5)
        assert cmp.max_abs_diff < 1e-10
        assert cmp.p_correct == pytest.approx(cmp.r / 4.0, abs=1e-12)
    assert deferred_vs_immediate(2, 2, 3, seed=5).r == 3


def test_deferred_equals_immediate_other_shapes():
    cmp = deferred_vs_immediate(3, 2, 1, seed=2)
    assert cmp.max_abs_diff < 1e-10
    assert cmp.p_correct == pytest.approx(cmp.r / 16.0, abs=1e-12)
    cmp = deferred_vs_immediate(2, 3, 2, seed=2)
    assert cmp.max_abs_diff < 1e-10
    assert cmp.p_correct == pytest.approx(cmp.r / 8.0, abs=1e-12)


def test_deferred_suite_builds_one_kernel_table_per_shape(monkeypatch):
    # The kernel table depends only on (n, l): the seven periods at n = 3
    # share one build, and every caller gets the cached array read-only.
    real = analysis.orthogonal_table
    built = []

    def counting(n, l):
        built.append((n, l))
        return real(n, l)

    analysis._kernel_vector.cache_clear()
    monkeypatch.setattr(analysis, "orthogonal_table", counting)
    assert verify.suite_deferred(n=3, l=2).passed
    assert built == [(3, 2)]
    with pytest.raises(ValueError):
        analysis._kernel_vector(3, 2)[0] = 1


# ---------------------------------------------------------------------------
# Immediate-measurement baseline


def test_hybrid_baseline_at_fixture():
    hyb = hybrid_baseline(fixture_cfg())
    assert hyb.p_true == pytest.approx(1.0, abs=1e-12)
    assert hyb.false_positive_keys == ()
    assert hyb.t_star == 1
    assert hyb.grover_p == pytest.approx(1.0, abs=1e-12)
    assert hyb.success == pytest.approx(1.0, abs=1e-12)
    assert hyb.success >= 0.9


def test_hybrid_accept_enumerates_kernel():
    fx = build_fx_oracle(**FIXTURE)
    # zero rows leave every candidate open; the constant correct-key
    # residual passes any of them
    assert hybrid_accept(fx.key, (0, 0), fx, [0, 1]) == 1
    # a permutation residual never collides, whatever the rows allow
    for kp in range(4):
        if kp != fx.key:
            assert hybrid_accept(kp, (0, 0), fx, [0, 1]) == 0


def test_hybrid_success_formula_consistency():
    fx = build_fx_oracle(m=2, n=2, key=2, k1=3, k2=1, cipher_seed=7)
    cfg = GmsConfig(2, 2, 2, fx)
    hyb = hybrid_baseline(cfg)
    assert hyb.reps == 4
    expect = (1 - (1 - hyb.p_true) ** hyb.reps) * hyb.grover_p
    for kp, p in enumerate(hyb.accept_probs):
        if kp != fx.key:
            expect *= (1 - p) ** hyb.reps
    assert hyb.success == pytest.approx(expect, abs=1e-12)
    assert 0.0 <= hyb.success <= 1.0


# ---------------------------------------------------------------------------
# Report


def test_report_schema_and_determinism():
    cfg = fixture_cfg()
    rep = analysis_report(cfg, t_max=3)
    assert rep["schema"] == 1
    for key in ("config", "N", "r", "k0_mean", "l0_mean", "sigma2", "p_max",
                "t_curve", "theorem3_T", "query_ratio", "counts"):
        assert key in rep
    assert len(rep["t_curve"]) == 4
    assert rep["counts"]["agreement"] is True
    again = analysis_report(cfg, t_max=3)
    assert json.dumps(rep, sort_keys=True) == json.dumps(again, sort_keys=True)


@pytest.mark.parametrize(
    "cfg",
    [fixture_cfg(), GmsConfig(1, 3, 2, build_fx_oracle(1, 3, 0, 3, 1, cipher_seed=5), c_check=1)],
    ids=["fixture", "c_check=1"],
)
def test_report_prepares_once_and_equals_the_pieces(monkeypatch, cfg):
    calls = {"prepare_initial_state": 0, "_masks": 0, "build_gms_circuit": 0}
    for name in calls:
        real = getattr(analysis, name)

        def counted(cfg, name=name, real=real):
            calls[name] += 1
            return real(cfg)

        monkeypatch.setattr(analysis, name, counted)
    # the statistics must see the prepared state, not one the search negated
    seen = []

    def recorded(amps, marked):
        seen.append(amps.copy())
        return amplitude_stats(amps, marked)

    monkeypatch.setattr(analysis, "amplitude_stats", recorded)
    rep = analysis_report(cfg, t_max=3)
    assert calls == {"prepare_initial_state": 1, "_masks": 1, "build_gms_circuit": 1}
    monkeypatch.undo()

    amps = prepare_initial_state(cfg).amps
    assert len(seen) == 3 and all(np.array_equal(a, amps) for a in seen)
    key, ys, _ = cfg.layout()
    idx = np.arange(amps.size)
    ybits = sim.extract_bits(idx, [q for y in ys for q in y])
    correct = sim.extract_bits(idx, key) == cfg.oracle.key
    rank_only = (analysis._kernel_vector(cfg.n, cfg.l) != 0)[ybits] & correct
    flip, success = classifier_mask(cfg), success_mask(cfg)
    accept = amplitude_stats(amps, flip)
    rank = amplitude_stats(amps, rank_only)
    # the round operator: a sign flip on the accept mask, then the reflection about the mean
    state = amps.copy()
    curve = [float(np.sum(np.abs(state[success]) ** 2))]
    for _ in range(3):
        state[flip] *= -1.0
        state = 2.0 * state.mean() - state
        curve.append(float(np.sum(np.abs(state[success]) ** 2)))
    pieces = {
        **amplitude_stats(amps, success).as_dict(),
        "t_curve": [[t, p] for t, p in enumerate(curve)],
        "r_phase_marked": accept.marked,
        "p_max_phase_marked": accept.p_max,
        "r_rank_only": rank.marked,
        "p_max_rank_only": rank.p_max,
    }
    # compared as JSON text: every float bit for bit, and the sign of zero
    assert json.dumps({k: rep[k] for k in pieces}) == json.dumps(pieces)
