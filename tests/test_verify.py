"""Plumbing tests for the self-check suite runner.

The content of each suite is exercised by the acceptance tests; here we
only pin the result structure the command line depends on.
"""

import pytest

from qgms import verify


def test_result_shape():
    res = verify.suite_counting()
    d = res.as_dict()
    assert d["suite"] == "counting"
    assert isinstance(d["passed"], bool)
    assert d["elapsed_s"] >= 0
    for check in d["checks"]:
        assert set(check) == {"name", "passed", "detail"}


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        verify.run_suite("nosuch")


def test_deferred_suite_single_shape():
    res = verify.run_suite("deferred", n=2, l=2)
    assert [c.name for c in res.checks] == ["deferred_n2_l2"]
    assert res.passed


def test_reference_run_is_cached():
    first = verify.reference_run()
    second = verify.reference_run()
    assert first is second
    assert len(first["t_curve"]) == 21


def test_gms_suite_cross_checks_operator_against_per_gate_engine():
    res = verify.run_suite("gms")
    assert res.passed, [c for c in res.checks if not c.passed]
    assert "operator_matches_per_gate" in {c.name for c in res.checks}
