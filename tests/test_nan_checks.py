"""Every tolerance check fails on NaN.

``max(0.0, nan)`` is 0.0 and ``nan > tol`` is false, so a check that folds
its worst value with Python's ``max``, or fails only on ``x > tol``, would
pass a NaN. Each test injects one NaN at one site, not first in its fold,
and requires the check to fail.
"""

import contextlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qgms import amplify, analysis, cli, sim, verify
from qgms.analysis import GmsConfig
from qgms.oracles import build_fx_oracle, build_simon_oracle, parallel_simon_circuit


def check(res, name):
    """The named check of a suite result."""
    return next(c for c in res.checks if c.name == name)


def test_a_nan_block_makes_the_norm_deviation_nan(monkeypatch):
    circ = parallel_simon_circuit(build_simon_oracle(2, 3, rng=72), 1)
    real = sim.apply_steps
    calls = []

    def second_block_nan(steps, block):
        out = real(steps, block)
        calls.append(1)
        if len(calls) == 2:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(verify, "_WORKERS", 1)  # blocks in order: block 1 is the NaN
    monkeypatch.setattr(sim, "apply_steps", second_block_nan)
    assert math.isnan(verify._norm_deviation(circ, 2 * verify._NORM_BLOCK, seed=0))
    assert len(calls) == 2


def test_a_nan_norm_deviation_fails_the_circuits_suite(monkeypatch):
    def nan_after_the_first(circ, count, seed):
        return math.nan if seed else 0.0

    monkeypatch.setattr(verify, "_norm_deviation", nan_after_the_first)
    got = check(verify.suite_circuits(), "norm_preserved_100_random_states")
    assert not got.passed
    assert got.detail.endswith("max deviation nan")


@pytest.mark.parametrize("field", ["max_abs_diff", "p_correct"])
def test_a_nan_comparison_fails_the_deferred_suite_and_exits_1(monkeypatch, field):
    real = analysis.deferred_vs_immediate

    def nan_for_the_second_period(n, l, s, seed=0):
        cmp = real(n, l, s, seed)
        return replace(cmp, **{field: math.nan}) if s == 2 else cmp

    monkeypatch.setattr(analysis, "deferred_vs_immediate", nan_for_the_second_period)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "deferred", "--n", "2", "--l", "2"]) == 1
    (got,) = json.loads(out.getvalue())["checks"]
    assert not got["passed"]


def test_a_nan_amplification_point_fails_the_gms_suite(monkeypatch):
    real = amplify.success_curve

    def nan_at_t1(prep, marked, t_max):
        curve = list(real(prep, marked, t_max))
        curve[1] = math.nan
        return curve

    monkeypatch.setattr(amplify, "success_curve", nan_at_t1)
    got = check(verify.suite_gms(), "amplification_formula")
    assert not got.passed
    assert got.detail.endswith("max dev nan")


def test_a_nan_curve_point_fails_the_reference_gap_and_the_per_gate_match(monkeypatch):
    report = dict(verify.reference_run())
    report["t_curve"] = [[t, math.nan if t == 2 else p] for t, p in report["t_curve"]]
    monkeypatch.setattr(verify, "reference_run", lambda: report)
    res = verify.suite_gms()
    assert not check(res, "reference_gap").passed
    assert not check(res, "operator_matches_per_gate").passed


def small_config():
    return GmsConfig(1, 2, 1, build_fx_oracle(1, 2, 0, 3, 1, cipher_seed=72))


def test_a_nan_diffusion_amplitude_fails_the_round_proof(monkeypatch):
    cfg = small_config()
    amps = analysis.prepare_initial_state(cfg).amps
    flip = analysis.classifier_mask(cfg)
    circ, slices = analysis.build_gms_circuit(cfg)
    real = sim.run

    def nan_second_amplitude(c, state=None):
        out = real(c, state=state)
        out.amps[1] = np.nan
        return out

    monkeypatch.setattr(sim, "run", nan_second_amplitude)
    with pytest.raises(RuntimeError, match="reflection about the mean"):
        analysis._check_round(cfg, circ, slices, flip, amps)


def test_nan_scratch_mass_fails_the_per_gate_run(monkeypatch):
    real = sim.sparse_apply

    def nan_on_scratch(state, gates):
        out = real(state, gates)
        out[1 << 40] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(sim, "sparse_apply", nan_on_scratch)
    with pytest.raises(RuntimeError, match="scratch register"):
        analysis.run_gms_per_gate(small_config(), 1)


def test_a_nan_amplitude_makes_the_deferred_distance_nan(monkeypatch):
    real = sim.sparse_apply

    def nan_last_amplitude(state, gates):
        out = real(state, gates)
        out[list(out)[-1]] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(sim, "sparse_apply", nan_last_amplitude)
    assert math.isnan(analysis.deferred_vs_immediate(2, 2, 3, seed=5).max_abs_diff)
