"""Tests for amplitude amplification against the closed-form success law."""

import math

import pytest

from qgms.amplify import (
    grover_probability,
    success_curve,
    uniform_prep,
)


def closed_form(n_states, marked, t):
    theta = math.asin(math.sqrt(marked / n_states))
    return math.sin((2 * t + 1) * theta) ** 2


def test_grover_probability_matches_closed_form():
    for n_states in (4, 8, 16, 64):
        for r in (1, 2, 4):
            for t in range(10):
                assert grover_probability(n_states, r, t) == pytest.approx(
                    closed_form(n_states, r, t), abs=1e-14
                )


def test_four_states_one_iteration_is_exact():
    assert grover_probability(4, 1, 1) == pytest.approx(1.0, abs=1e-14)
    curve = success_curve(uniform_prep(2), [3], 1)
    assert curve[0] == pytest.approx(0.25, abs=1e-12)
    assert curve[1] == pytest.approx(1.0, abs=1e-12)


def test_simulated_amplification_tracks_formula():
    for q in (2, 3, 4, 6):
        n_states = 1 << q
        curve = success_curve(uniform_prep(q), [n_states - 1], 8)
        for t, p in enumerate(curve):
            assert p == pytest.approx(grover_probability(n_states, 1, t), abs=1e-10)


def test_multiple_marked_states():
    q, marked = 4, [1, 5, 9, 13]
    curve = success_curve(uniform_prep(q), marked, 6)
    for t, p in enumerate(curve):
        assert p == pytest.approx(grover_probability(16, 4, t), abs=1e-10)


def test_iterations_preserve_norm():
    # The complement's oracle is the first one times -1, so after 7 rounds
    # both curves read the same state, up to a global sign, and their two
    # probabilities sum to its squared norm.
    marked = [0, 9]
    rest = [i for i in range(16) if i not in marked]
    p = success_curve(uniform_prep(4), marked, 7)[7]
    q = success_curve(uniform_prep(4), rest, 7)[7]
    assert p + q == pytest.approx(1.0, abs=1e-12)


def test_eight_states_two_iterations_value():
    # sin^2(5 asin(sqrt(1/8))) computed independently
    expect = math.sin(5 * math.asin(math.sqrt(0.125))) ** 2
    assert grover_probability(8, 1, 2) == pytest.approx(expect, abs=1e-14)
    curve = success_curve(uniform_prep(3), [6], 2)
    assert curve[2] == pytest.approx(expect, abs=1e-10)
