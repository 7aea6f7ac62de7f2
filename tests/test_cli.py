"""End-to-end tests of the command line, mostly via subprocess."""

import gc
import json
import os
import resource
import subprocess
import sys

import pytest


def run_cli(args, cwd, env_extra=None, preexec_fn=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qgms", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=preexec_fn,
    )


def test_synth_writes_circuit_and_resources(tmp_path):
    proc = run_cli(["synth", "qge", "--n", "3", "--out", "o"], tmp_path)
    assert proc.returncode == 0
    circuit = (tmp_path / "o" / "qge_n3_circuit.txt").read_text()
    assert circuit.startswith("circuit ")
    data = json.loads((tmp_path / "o" / "qge_n3_resources.json").read_text())
    assert set(data) >= {"constructed", "closed_form", "stage_sum", "manifest"}
    assert data["stage_sum"]["toffoli"] == data["closed_form"]["toffoli"]


def test_synth_rejects_too_small(tmp_path):
    proc = run_cli(["synth", "qge", "--n", "1"], tmp_path)
    assert proc.returncode == 2


def test_synth_jordan_closed_form_cnot(tmp_path):
    proc = run_cli(["synth", "qgje", "--n", "8", "--out", "o"], tmp_path)
    assert proc.returncode == 0
    data = json.loads((tmp_path / "o" / "qgje_n8_resources.json").read_text())
    assert data["closed_form"]["cnot"] == 2828


def test_verify_counting_passes(tmp_path):
    proc = run_cli(["verify", "counting"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} == {
        "count_n2", "count_n3", "count_n4", "count_n5"
    }


def test_verify_deferred_with_shape(tmp_path):
    proc = run_cli(["verify", "deferred", "--n", "2", "--l", "2"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "deferred_n2_l2"


@pytest.mark.parametrize(
    "n, l", [("0", "0"), ("1", "2"), ("3", "0"), ("2", "-1")]
)
def test_verify_deferred_rejects_a_bad_shape(tmp_path, n, l):
    proc = run_cli(["verify", "deferred", "--n", n, "--l", l], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "--n >= 2 and --l >= 1" in proc.stderr
    assert proc.stdout == ""


def test_verify_unknown_suite(tmp_path):
    proc = run_cli(["verify", "nosuch"], tmp_path)
    assert proc.returncode == 2


def test_verify_shape_flags_rejected_elsewhere(tmp_path):
    proc = run_cli(["verify", "counting", "--n", "2"], tmp_path)
    assert proc.returncode == 2


def test_gms_cap_exceeded(tmp_path):
    proc = run_cli(["gms", "--m", "8", "--n", "8", "--l", "8"], tmp_path)
    assert proc.returncode == 3
    assert "145 qubits" in proc.stderr
    assert "cap" in proc.stderr


@pytest.mark.parametrize(
    "args, out",
    [
        (["synth", "qge", "--n", "3"], "f"),
        (["gms", "--m", "2", "--n", "2", "--l", "2", "--t-max", "1"], "f/x"),
    ],
)
def test_unwritable_out_is_a_usage_error(tmp_path, args, out):
    (tmp_path / "f").touch()
    proc = run_cli([*args, "--out", out], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("qgms: error: ")
    assert proc.stderr.count("\n") == 1
    assert out in proc.stderr


def test_gms_rejects_negative_t_max(tmp_path):
    proc = run_cli(["gms", "--m", "1", "--n", "2", "--l", "1", "--t-max", "-1"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "--t-max" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_gms_rejects_n_below_two(tmp_path):
    proc = run_cli(["gms", "--m", "1", "--n", "1", "--l", "1"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "--n" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_gms_rejects_negative_seed(tmp_path):
    proc = run_cli(["gms", "--m", "1", "--n", "2", "--l", "1", "--seed", "-1"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "--seed" in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "env",
    [
        {"QGMS_QUBIT_CAP": "abc"},
        {"QGMS_QUBIT_CAP": "0"},
        {"SOURCE_DATE_EPOCH": "abc"},
        {"SOURCE_DATE_EPOCH": "1e9"},
    ],
    ids=["abc", "0", "epoch-abc", "epoch-1e9"],
)
@pytest.mark.parametrize(
    "args",
    [
        ["synth", "qge", "--n", "3"],
        ["verify", "counting"],
        ["gms", "--m", "1", "--n", "2", "--l", "1"],
    ],
)
def test_bad_qubit_cap_is_a_usage_error(tmp_path, args, env):
    """So is any bad environment setting: one stderr line naming it, exit 2."""
    proc = run_cli(args, tmp_path, env)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert next(iter(env)) in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, cap",
    [
        (["verify", "circuits"], "8"),
        (["verify", "gms"], "8"),
        (["verify", "deferred", "--n", "3", "--l", "4"], "15"),
        (["verify", "deferred", "--n", "8", "--l", "5"], "24"),
    ],
    ids=["circuits", "gms", "deferred-support", "deferred-table"],
)
def test_verify_over_the_qubit_cap_exits_3(tmp_path, args, cap):
    """The cap is a documented exit code, not a failed self-check."""
    proc = run_cli(args, tmp_path, {"QGMS_QUBIT_CAP": cap})
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _limit_address_space(limit):
    """preexec_fn capping the child's address space at ``limit`` bytes."""

    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


@pytest.mark.parametrize(
    "args, limit",
    [
        # one array the 2 GB cannot hold, asked for at once
        (["gms", "--m", "2", "--n", "6", "--l", "4"], 2 << 30),
        (["verify", "deferred", "--n", "6", "--l", "8"], 2 << 30),
        # millions of gates, whose lists outgrow 200 MB within seconds
        (["synth", "qge", "--n", "200"], 200 << 20),
    ],
    ids=["gms", "deferred", "synth"],
)
def test_failed_allocation_under_a_raised_cap_exits_3(tmp_path, args, limit):
    """What the cap allows but the host cannot allocate exits 3, not 1."""
    env = {"QGMS_QUBIT_CAP": "62"}
    proc = run_cli(args, tmp_path, env, _limit_address_space(limit))
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


def test_gms_report_and_reproducibility(tmp_path):
    args = ["gms", "--m", "2", "--n", "2", "--l", "2", "--t-max", "4", "--seed", "7"]
    env = {"SOURCE_DATE_EPOCH": "1700000000"}
    first = run_cli([*args, "--out", "a"], tmp_path, env)
    second = run_cli([*args, "--out", "b"], tmp_path, env)
    assert first.returncode == 0 and second.returncode == 0

    report_a = (tmp_path / "a" / "gms_report.json").read_bytes()
    report_b = (tmp_path / "b" / "gms_report.json").read_bytes()
    assert report_a == report_b
    curve_a = (tmp_path / "a" / "gms_curve.csv").read_bytes()
    curve_b = (tmp_path / "b" / "gms_curve.csv").read_bytes()
    assert curve_a == curve_b

    lines = curve_a.decode().splitlines()
    assert lines[0] == "t,probability"
    assert len(lines) == 6

    report = json.loads(report_a)
    assert report["schema"] == 1
    assert 0.0 <= report["p_max"] <= 1.0
    assert report["manifest"]["subcommand"] == "gms"
    assert report["manifest"]["seeds"] == {"cipher_seed": 7}


def test_gms_rejects_bad_whitening_key(tmp_path):
    proc = run_cli(
        ["gms", "--m", "1", "--n", "2", "--l", "1", "--k1", "0"], tmp_path
    )
    assert proc.returncode == 2


_NUMPY_CHECKPOINTS = """
import contextlib, io, json, sys
loaded = {}
import qgms
loaded["import qgms"] = "numpy" in sys.modules
import qgms.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    qgms.cli.main(["--version"])
loaded["qgms --version"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = qgms.cli.main(["synth", "qge", "--n", "3", "--out", sys.argv[1]])
loaded["qgms synth qge"] = "numpy" in sys.modules
loaded["qgms synth qge: qgms.gf2"] = "qgms.gf2" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    verify_code = qgms.cli.main(["verify", "gf2"])
loaded["qgms verify gf2"] = "numpy" in sys.modules
verify_passed = json.loads(out.getvalue())["passed"]
print(json.dumps({"code": code, "verify": [verify_code, verify_passed], "numpy_loaded": loaded}))
"""


def test_package_root_and_synth_start_without_numpy(tmp_path):
    """``import qgms``, ``--version``, ``synth`` and ``verify gf2`` run
    without numpy, and ``synth`` without ``gf2``: checked in a fresh
    interpreter, since this one already has both loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_CHECKPOINTS, str(tmp_path / "o")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["verify"] == [0, True]
    assert result["numpy_loaded"] == {
        "import qgms": False,
        "qgms --version": False,
        "qgms synth qge": False,
        "qgms synth qge: qgms.gf2": False,
        "qgms verify gf2": False,
    }
    assert (tmp_path / "o" / "qge_n3_circuit.txt").is_file()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "args, code",
    [
        (["synth", "qgje", "--n", "4", "--out", "o"], 0),
        (["synth", "qge", "--n", "1", "--out", "o"], 2),
        (["synth", "qge", "--n", "3", "--out", "f"], 2),
    ],
    ids=["success", "n-too-small", "unwritable-out"],
)
def test_synth_runs_without_the_collector_and_restores_it(
    tmp_path, capsys, monkeypatch, args, code, enabled
):
    from qgms import cli

    seen = []
    cmd_synth = cli.cmd_synth
    monkeypatch.setattr(cli, "cmd_synth", lambda a: seen.append(gc.isenabled()) or cmd_synth(a))
    (tmp_path / "f").touch()
    args = [*args[:-1], str(tmp_path / args[-1])]
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert cli.main(args) == code
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    assert seen == [False]
