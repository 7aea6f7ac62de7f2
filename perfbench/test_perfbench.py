"""Tests of the benchmark itself: metric names, output checks and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, evaluate  # noqa: E402


@pytest.fixture(autouse=True)
def pinned_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", run.SOURCE_DATE_EPOCH)
    monkeypatch.delenv("QGMS_QUBIT_CAP", raising=False)


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }


def test_benchmark_json_matches_the_code():
    spec, _ = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "gms-reference",
         "--seed", "72", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _, units = _declared()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    text = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", text, re.M), name


def _nudge(src: Path, dst: Path, t: int, delta: float) -> None:
    shutil.copytree(src, dst)
    report = json.loads((dst / "gms_report.json").read_text())
    report["t_curve"][t][1] += delta
    (dst / "gms_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    lines = (dst / "gms_curve.csv").read_text().splitlines()
    lines[t + 1] = f"{t},{report['t_curve'][t][1]!r}"
    (dst / "gms_curve.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", [72, 5])
def test_gms_output_with_one_curve_point_nudged_is_failed(tmp_path, seed):
    workload = WORKLOADS["gms-reference"]
    out = tmp_path / "out"
    out.mkdir()
    steps = run.run_inprocess(workload.steps(seed, out))
    problems, digest = evaluate(workload, seed, out, steps, None)
    assert problems == [] and digest

    nudged = tmp_path / "nudged"
    _nudge(out, nudged, t=7, delta=1e-9)
    problems, _ = evaluate(workload, seed, nudged, steps, digest)
    assert any("operator recomputation" in p for p in problems)
    assert any("differ from the first repetition" in p for p in problems)


def test_failed_command_counts_as_failed(tmp_path):
    workload = WORKLOADS["synth-large"]
    steps = run.run_inprocess([["synth", "qge", "--n", "1", "--out", str(tmp_path)]])
    problems, digest = evaluate(workload, 72, tmp_path, steps, None)
    assert problems and digest is None


def _check_nesting(spans):
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s, parent)
            children.setdefault(s.parent, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.start)
        for a, b in zip(kids, kids[1:]):
            assert a.end <= b.start, (a, b)


def test_traced_spans_nest_and_self_times_are_nonnegative(tmp_path):
    import qgms.sim
    import qgms.verify

    originals = (qgms.sim.run, dict(qgms.verify.SUITES))
    tracer = tracing.Tracer()
    with tracer, tracer.span("operation", "bench"):
        steps = run.run_inprocess([
            ["verify", "gf2"],
            ["synth", "qge", "--n", "6", "--out", str(tmp_path)],
            ["gms", "--m", "1", "--n", "2", "--l", "1", "--t-max", "2",
             "--out", str(tmp_path)],
        ])
    assert [s.returncode for s in steps] == [0, 0, 0]
    assert (qgms.sim.run, qgms.verify.SUITES) == originals

    spans = tracer.spans
    assert all(s is not None for s in spans)
    _check_nesting(spans)
    own = tracing.self_times(spans)
    assert min(own.values()) >= 0
    root = spans[0]
    assert root.parent is None and sum(own.values()) == root.end - root.start

    summary = tracing.layer_summary(spans)
    for layer in ("gf2", "verify.gf2", "synth.build", "circuit.to_text",
                  "sim.sparse", "sim.dense", "analysis.accept_table", "cli"):
        assert summary[layer]["calls"] >= 1, layer
    assert tracer.counts["sim.sparse.gates"] > 0
    assert tracer.counts["circuit.to_text.bytes"] > 0


def test_self_time_subtracts_only_direct_children():
    S = tracing.Span
    spans = [
        S(0, "a", "x", 0, 100, None),
        S(1, "b", "y", 10, 50, 0),
        S(2, "c", "x", 20, 30, 1),
        S(3, "d", "y", 60, 70, 0),
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 30, 2: 10, 3: 10}
    summary = tracing.layer_summary(spans)
    assert summary["x"]["calls"] == 2 and summary["y"]["calls"] == 2
    assert summary["x"]["self_s"] == pytest.approx(60e-9)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail(list(range(1, 21)))
    assert (pct, value) == (50.0, 10)
    pct, _ = run.tail(list(range(200)))
    assert pct == 95.0


def test_digest_ignores_only_the_elapsed_time(tmp_path):
    from workloads import StepResult, output_digest

    def digest(stdout: bytes) -> str:
        return output_digest(tmp_path, [StepResult(["verify", "gf2"], 0, stdout, 0.1)])

    base = b'{\n  "elapsed_s": 0.101,\n  "passed": true\n}\n'
    assert digest(base) == digest(base.replace(b"0.101", b"2.5e-05"))
    assert digest(base) != digest(base.replace(b"true", b"false"))
