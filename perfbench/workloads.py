"""The three benchmark workloads: what each operation runs and how it is checked.

An operation is one or more ``qgms`` command lines run in sequence. The
end-to-end run gives each command its own child process; the traced run
calls ``qgms.cli.main`` with the same arguments in-process. Either way
the outputs land in one directory, which is emptied before every
operation, and ``evaluate`` decides whether the operation failed:

- a command exited non-zero;
- an output check failed (the checks hold for any cipher seed);
- the output bytes differ from the first repetition of the workload.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

CURVE_TOL = 1e-12
CEILING_TOL = 1e-8
REFERENCE_SEED = 72
# Secret key and whitening keys of every gms run (the command's defaults).
KEY, K1, K2 = 2, 3, 1

# Curves produced by the package at seed 72 when this benchmark was written.
PINNED_CURVES = {
    (2, 2, 2, 20): (
        0.0, 0.0021972656249999926, 0.004540443420410113, 0.0024987794458865694,
        2.0022402168250717e-05, 0.0018970814167573358, 0.004500486910663169,
        0.002796310292153785, 7.973681967504608e-05, 0.0016035159810276324,
        0.004421277913439909, 0.003084615755411562, 0.00017809110156772703,
        0.0013217418568017257, 0.004304212068610269, 0.0033586159758791593,
        0.0003133522735377098, 0.0010567238235351694, 0.004151352042868609,
        0.0036134831480612558, 0.0004831370724320167,
    ),
}

VERIFY_SUITES = ("gf2", "circuits", "counting", "deferred")
SYNTH_N = 40


@dataclass
class StepResult:
    """One command of an operation: exit code, captured stdout, costs."""

    argv: list[str]
    returncode: int
    stdout: bytes
    wall_s: float
    peak_rss_mb: float = 0.0


@dataclass
class Workload:
    name: str
    why: str
    steps: Callable[[int, Path], list[list[str]]]
    check: Callable[[int, Path, list[StepResult]], list[str]]


# ---------------------------------------------------------------------------
# gms workloads


@lru_cache(maxsize=4)
def expected_curve(m: int, n: int, l: int, t_max: int, seed: int) -> tuple[float, ...]:
    """The success curve recomputed from the package's public functions.

    Each round negates the amplitudes on ``classifier_mask`` and reflects
    the data register about its mean; the curve is the probability on
    ``success_mask``. This is the operator the search circuit implements,
    computed without the circuit or the sparse engine.
    """
    import numpy as np

    from qgms.analysis import (
        GmsConfig,
        classifier_mask,
        prepare_initial_state,
        success_mask,
    )
    from qgms.oracles import build_fx_oracle

    fx = build_fx_oracle(m, n, KEY, K1, K2, cipher_seed=seed)
    cfg = GmsConfig(m, n, l, fx, t=t_max)
    amps = prepare_initial_state(cfg).amps.copy()
    flip = classifier_mask(cfg)
    hit = success_mask(cfg)
    curve = [float(np.sum(np.abs(amps[hit]) ** 2))]
    for _ in range(t_max):
        amps[flip] *= -1.0
        amps = 2.0 * amps.mean() - amps
        curve.append(float(np.sum(np.abs(amps[hit]) ** 2)))
    return tuple(curve)


def _gms_steps(m: int, n: int, l: int, t_max: int):
    def steps(seed: int, out: Path) -> list[list[str]]:
        return [[
            "gms", "--m", str(m), "--n", str(n), "--l", str(l),
            "--t-max", str(t_max), "--key", str(KEY), "--k1", str(K1),
            "--k2", str(K2), "--seed", str(seed), "--out", str(out),
        ]]

    return steps


def _close(a: list[float], b) -> float | None:
    """Largest absolute difference, or None when the lengths differ."""
    if len(a) != len(b):
        return None
    return max(abs(x - y) for x, y in zip(a, b))


def _gms_check(m: int, n: int, l: int, t_max: int):
    def check(seed: int, out: Path, steps: list[StepResult]) -> list[str]:
        report = json.loads((out / "gms_report.json").read_text())
        csv_lines = (out / "gms_curve.csv").read_text().splitlines()
        curve = [float(p) for _, p in report["t_curve"]]
        problems = []
        if [t for t, _ in report["t_curve"]] != list(range(t_max + 1)):
            problems.append(f"t_curve does not run over t = 0..{t_max}")
        if csv_lines[0] != "t,probability" or [
            float(line.split(",")[1]) for line in csv_lines[1:]
        ] != curve:
            problems.append("gms_curve.csv disagrees with the report curve")
        if report["manifest"]["seeds"] != {"cipher_seed": seed}:
            problems.append("manifest does not carry the requested seed")
        shape = {k: report["config"][k] for k in ("m", "n", "l", "key", "k1", "k2")}
        if shape != {"m": m, "n": n, "l": l, "key": KEY, "k1": K1, "k2": K2}:
            problems.append(f"report is for {shape}")
        diff = _close(curve, expected_curve(m, n, l, t_max, seed))
        if diff is None or diff > CURVE_TOL:
            problems.append(f"curve differs from the operator recomputation by {diff}")
        peak = max(curve)
        if peak > report["p_max"] + CEILING_TOL:
            problems.append(f"peak {peak} exceeds the ceiling {report['p_max']}")
        if seed == REFERENCE_SEED:
            if not peak < 0.5:
                problems.append(f"deferred peak {peak} is not below 0.5")
            if not report["hybrid"]["success"] >= 0.9:
                problems.append("immediate-measurement baseline below 0.9")
            diff = _close(curve, PINNED_CURVES[(m, n, l, t_max)])
            if diff is None or diff > CURVE_TOL:
                problems.append(f"curve differs from the pinned seed-72 curve by {diff}")
        return problems

    return check


# ---------------------------------------------------------------------------
# selfcheck


def _selfcheck_steps(seed: int, out: Path) -> list[list[str]]:
    return [["verify", suite] for suite in VERIFY_SUITES]


def _selfcheck_check(seed: int, out: Path, steps: list[StepResult]) -> list[str]:
    problems = []
    for suite, step in zip(VERIFY_SUITES, steps):
        payload = json.loads(step.stdout)
        if payload.get("suite") != suite:
            problems.append(f"verify {suite} reported suite {payload.get('suite')!r}")
        failed = [c["name"] for c in payload.get("checks", []) if not c["passed"]]
        if not payload.get("checks") or failed or not payload.get("passed"):
            problems.append(f"verify {suite} failed checks {failed}")
    return problems


# ---------------------------------------------------------------------------
# synth-large


def _synth_steps(seed: int, out: Path) -> list[list[str]]:
    return [
        ["synth", kind, "--n", str(SYNTH_N), "--out", str(out)]
        for kind in ("qge", "qgje")
    ]


def _synth_check(seed: int, out: Path, steps: list[StepResult]) -> list[str]:
    n = SYNTH_N
    problems = []
    for kind, gap in (("qge", 15 * n * n), ("qgje", 0)):
        res = json.loads((out / f"{kind}_n{n}_resources.json").read_text())
        built, closed, stage = res["constructed"], res["closed_form"], res["stage_sum"]
        for key in ("toffoli", "ancilla"):
            if not built[key] == closed[key] == stage[key]:
                problems.append(
                    f"{kind} {key}: built {built[key]}, closed {closed[key]}, "
                    f"stages {stage[key]}"
                )
        if built["cnot"] - closed["cnot"] != gap:
            problems.append(
                f"{kind} cnot exceeds the closed form by "
                f"{built['cnot'] - closed['cnot']}, expected {gap}"
            )
        if built["cnot"] != stage["cnot_after_toffoli_expansion"]:
            problems.append(f"{kind} cnot disagrees with the stage sum")
        with (out / f"{kind}_n{n}_circuit.txt").open() as fh:
            head = fh.readline().split()
        if head != ["circuit", str(built["total_qubits"])]:
            problems.append(f"{kind} circuit text header is {head}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gms-reference",
            "paper headline config (2,2,2), 20 rounds on a 1,024-entry state: "
            "per-gate sparse-engine overhead dominates",
            _gms_steps(2, 2, 2, 20),
            _gms_check(2, 2, 2, 20),
        ),
        Workload(
            "selfcheck",
            "verify gf2, circuits, counting, deferred: dense engine, basis "
            "tracker, gf2 and counting; never runs the search round",
            _selfcheck_steps,
            _selfcheck_check,
        ),
        Workload(
            "synth-large",
            "synth qge and qgje at n = 40 (2.4 MB of circuit text): the only "
            "workload led by synth, circuit and cli",
            _synth_steps,
            _synth_check,
        ),
    )
}


# ---------------------------------------------------------------------------
# Judging one operation


# verify reports carry the suite's wall-clock time; it is not an output.
_ELAPSED = re.compile(rb'"elapsed_s": [-+.0-9eE]+')


def output_digest(out: Path, steps: list[StepResult]) -> str:
    """SHA-256 over every output file and every command's stdout."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    for step in steps:
        h.update(_ELAPSED.sub(b"", step.stdout) + b"\0")
    return h.hexdigest()


def evaluate(
    workload: Workload,
    seed: int,
    out: Path,
    steps: list[StepResult],
    first_digest: str | None,
) -> tuple[list[str], str | None]:
    """Failure reasons of one operation (empty when it passed) and its digest."""
    bad = [s for s in steps if s.returncode != 0]
    if bad:
        return [f"{' '.join(s.argv)} exited {s.returncode}" for s in bad], None
    try:
        problems = workload.check(seed, out, steps)
        digest = output_digest(out, steps)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None
    if first_digest is not None and digest != first_digest:
        problems.append("output bytes differ from the first repetition")
    return problems, digest
