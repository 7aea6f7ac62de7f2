"""Benchmark of the qgms command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload gms-reference --seed 72 --seconds 40 --trace 0

``--trace 0`` runs the workload's operations as ``python -m qgms ...``
child processes, one at a time (a closed loop with one client), until
``--seconds`` have passed, and reports the end-to-end metrics: median
wall time of an operation, the child's own peak RSS, and the median
start-up time of ``python -c "import qgms"``.

``--trace 1`` runs the same operations inside this process, alternating
untraced and traced repetitions (see tracing.py), and reports per-layer
self times and work counts plus the tracing overhead.

``--smoke`` runs one operation each way and prints every metric.

Every operation starts with cold package caches and is checked (see
workloads.py). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS, StepResult, Workload, evaluate  # noqa: E402

SOURCE_DATE_EPOCH = "1700000000"
SETUP_REPS = 11
RUN_LIMIT_S = 170.0

# (name, unit, better) -- BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
PER_LAYER = (
    ("sim.sparse.self_s", "s", "lower"),
    ("sim.sparse.calls", "count", "lower"),
    ("sim.sparse.gates", "count", "lower"),
    ("sim.sparse.peak_support", "count", "lower"),
    ("sim.sparse.amp_gate_updates", "count", "lower"),
    ("sim.sparse.norm_loss", "prob", "lower"),
    ("sim.dense.self_s", "s", "lower"),
    ("sim.dense.calls", "count", "lower"),
    ("sim.dense.gates", "count", "lower"),
    ("sim.dense.bytes_computed", "bytes", "lower"),
    ("sim.dense.max_qubits", "qubits", "lower"),
    ("sim.basis.self_s", "s", "lower"),
    ("sim.basis.calls", "count", "lower"),
    ("sim.basis.gates", "count", "lower"),
    ("analysis.build_circuit.self_s", "s", "lower"),
    ("analysis.build_circuit.gates", "count", "lower"),
    ("analysis.prep.self_s", "s", "lower"),
    ("analysis.masks.self_s", "s", "lower"),
    ("analysis.run_gms.self_s", "s", "lower"),
    ("analysis.rounds", "count", "lower"),
    ("analysis.stats.self_s", "s", "lower"),
    ("analysis.hybrid.self_s", "s", "lower"),
    ("analysis.accept_table.self_s", "s", "lower"),
    ("analysis.accept_table.hits", "count", "higher"),
    ("analysis.accept_table.misses", "count", "lower"),
    ("analysis.deferred.self_s", "s", "lower"),
    ("gf2.self_s", "s", "lower"),
    ("gf2.calls", "count", "lower"),
    ("counting.self_s", "s", "lower"),
    ("amplify.self_s", "s", "lower"),
    ("synth.build.self_s", "s", "lower"),
    ("synth.build.gates", "count", "lower"),
    ("circuit.profile.self_s", "s", "lower"),
    ("circuit.to_text.self_s", "s", "lower"),
    ("circuit.to_text.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("oracles.self_s", "s", "lower"),
    ("oracles.perm_cache.hits", "count", "higher"),
    ("oracles.perm_cache.misses", "count", "lower"),
    ("verify.gf2.wall_s", "s", "lower"),
    ("verify.circuits.wall_s", "s", "lower"),
    ("verify.counting.wall_s", "s", "lower"),
    ("verify.deferred.wall_s", "s", "lower"),
    ("verify.norm_deviation.self_s", "s", "lower"),
    ("verify.solver_equivalence.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


@dataclass
class Tally:
    """Operations of one run: samples per metric and failures."""

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    first_digest: str | None = None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def judge(self, workload, seed, out, steps) -> None:
        problems, digest = evaluate(workload, seed, out, steps, self.first_digest)
        if self.first_digest is None:
            self.first_digest = digest
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"  FAILED: {p}", flush=True)


# ---------------------------------------------------------------------------
# Environment


def prepare_environment() -> dict[str, str]:
    """Settings shared by this process and every child it starts."""
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    os.environ.pop("QGMS_QUBIT_CAP", None)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # absolute, whatever the working directory
    return env


def machine_info() -> dict[str, object]:
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def another_round(start: float, seconds: float, deadline: float, rounds) -> bool:
    """Whether to start another round of the timed loop: only if at least
    half of it (its length taken as the median round so far) falls inside
    the ``seconds`` window, so that a run lasts about ``seconds`` whatever
    the length of one operation, and only if it can end before the deadline."""
    now = time.monotonic()
    expected = statistics.median(rounds)
    return now + expected / 2 <= start + seconds and now + 1.5 * expected < deadline


# ---------------------------------------------------------------------------
# Child processes


def run_child(args: list[str], env: dict, log_dir: Path, timeout: float) -> StepResult:
    """Run ``python <args>``; wall time from start to exit, RSS from wait4."""
    stdout_path, stderr_path = log_dir / "stdout", log_dir / "stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, cwd=log_dir, stdout=out, stderr=err
        )
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stdout.write(stderr_path.read_text(errors="replace")[-2000:])
    return StepResult(
        args, proc.returncode, stdout_path.read_bytes(), wall, usage.ru_maxrss / 1024.0
    )


def setup_sample(env: dict, log_dir: Path, deadline: float) -> float:
    """Wall time of one ``python -c "import qgms"`` child."""
    step = run_child(["-c", "import qgms"], env, log_dir, deadline - time.monotonic())
    if step.returncode != 0:
        raise RuntimeError("python -c 'import qgms' failed")
    return step.wall_s


def end_to_end(workload: Workload, seed: int, seconds: float, deadline: float,
               env: dict, setup_reps: int) -> Tally:
    """Operations in child processes for ``seconds``, with set-up samples
    taken before each one (after an untimed warm-up) and topped up to
    ``setup_reps`` at the end, so they span the same period."""
    tally = Tally()
    base = WORK / workload.name
    logs = fresh_dir(base / "logs")
    setup_sample(env, logs, deadline)
    start = time.monotonic()
    rounds = []
    while True:
        round_start = time.monotonic()
        tally.add("setup_s", setup_sample(env, logs, deadline))
        out = fresh_dir(base / "out")
        steps = [
            run_child(["-m", "qgms", *argv], env, logs, deadline - time.monotonic())
            for argv in workload.steps(seed, out)
        ]
        tally.add("wall_s", sum(s.wall_s for s in steps))
        tally.add("peak_rss_mb", max(s.peak_rss_mb for s in steps))
        tally.judge(workload, seed, out, steps)
        rounds.append(time.monotonic() - round_start)
        if not another_round(start, seconds, deadline, rounds):
            break
    while len(tally.samples["setup_s"]) < setup_reps:
        tally.add("setup_s", setup_sample(env, logs, deadline))
    return tally


# ---------------------------------------------------------------------------
# In-process operations


def run_inprocess(argv_list: list[list[str]]) -> list[StepResult]:
    """Call ``qgms.cli.main`` per command, capturing what it prints."""
    import qgms.cli as cli

    steps = []
    for argv in argv_list:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the program crashed: record it as a failed step
            traceback.print_exc(file=sys.stdout)
            code = 1
        wall = time.perf_counter() - start
        steps.append(StepResult(argv, code, buf.getvalue().encode(), wall))
    return steps


def layer_metrics(tracer: tracing.Tracer, steps, out: Path, caches):
    """One traced operation's per-layer numbers, keyed as in PER_LAYER,
    and its layer summary."""
    summary = tracing.layer_summary(tracer.spans)
    values = {}
    for name, _, _ in PER_LAYER[:-1]:  # all but trace.overhead_frac
        layer, _, metric = name.rpartition(".")
        if metric == "self_s":
            values[name] = summary.get(layer, {}).get("self_s", 0.0)
        elif layer.startswith("verify.") and metric == "wall_s":
            values[name] = summary.get(layer, {}).get("wall_s", 0.0)
        elif metric == "calls":
            values[name] = float(summary.get(layer, {}).get("calls", 0))
        else:
            values[name] = float(tracer.counts.get(name, 0))
    accept, perms, _ = (c.cache_info() for c in caches)
    values["analysis.accept_table.hits"] = float(accept.hits)
    values["analysis.accept_table.misses"] = float(accept.misses)
    values["oracles.perm_cache.hits"] = float(perms.hits)
    values["oracles.perm_cache.misses"] = float(perms.misses)
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    values["cli.bytes_written"] = float(written + sum(len(s.stdout) for s in steps))
    return values, summary


def layers(workload: Workload, seed: int, seconds: float, deadline: float) -> Tally:
    """Alternate untraced and traced in-process operations for ``seconds``."""
    tally = Tally()
    base = WORK / workload.name
    caches = tracing.cached_functions()
    plain_walls, traced_walls, summary, tracer = [], [], {}, None
    start = time.monotonic()
    pairs = []
    while True:
        pair_start = time.monotonic()
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            for cache in caches:
                cache.cache_clear()
            out = fresh_dir(base / "out")
            argv_list = workload.steps(seed, out)
            if traced:
                tracer = tracing.Tracer()
                with tracer, tracer.span("operation", "bench"):
                    steps = run_inprocess(argv_list)
                values, summary = layer_metrics(tracer, steps, out, caches)
                for name, value in values.items():
                    tally.add(name, value)
                traced_walls.append(sum(s.wall_s for s in steps))
            else:
                steps = run_inprocess(argv_list)
                plain_walls.append(sum(s.wall_s for s in steps))
            tally.judge(workload, seed, out, steps)
        pairs.append(time.monotonic() - pair_start)
        if not another_round(start, seconds, deadline, pairs):
            break
    tally.samples["trace.overhead_frac"] = [sum(traced_walls) / sum(plain_walls) - 1.0]
    write_spans(base / "spans.json", tracer)
    print_layer_table(summary)
    return tally


def write_spans(path: Path, tracer: tracing.Tracer) -> None:
    """The last traced operation's spans: [id, name, layer, start, end, parent]."""
    rows = [[s.id, s.name, s.layer, s.start, s.end, s.parent] for s in tracer.spans]
    path.write_text(json.dumps(rows))


# ---------------------------------------------------------------------------
# Reporting


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest standard percentile with at least ten samples above it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        rank = -(-len(ordered) * pct // 100)  # nearest rank, 1-based
        if rank and len(ordered) - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return None


def print_layer_table(summary: dict[str, dict[str, float]]) -> None:
    total = sum(row["self_s"] for row in summary.values()) or 1.0
    print("\nlast traced operation, self time by layer:")
    for layer, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"  {layer:<28} {row['self_s']:10.4f} s {100 * row['self_s'] / total:6.1f}%"
            f" {int(row['calls']):9d} calls"
        )


def summarize(tally: Tally, names) -> dict[str, dict]:
    """Print each metric's median with its spread; return the result entries."""
    metrics = {}
    print()
    for name, unit, _ in names:
        values = tally.samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        line = f"  {name:<34} {value:14.6g} {unit:<6} median of {len(values)}"
        if unit == "s" and len(values) > 1:
            line += f", min {min(values):.6g}, max {max(values):.6g}"
            high = tail(values)
            line += (f", p{high[0]:g} {high[1]:.6g}" if high
                     else ", no tail percentile (< 20 samples)")
        print(line)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="gms-reference")
    parser.add_argument("--seed", type=int, default=72, help="cipher seed of the gms runs")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation each way, every metric printed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qgms" / "__init__.py").is_file():
        print(f"perfbench: no qgms package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = prepare_environment()
    workload = WORKLOADS[args.workload]
    info = machine_info()
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("machine " + ", ".join(f"{k} {v}" for k, v in info.items()))
    modes = (0, 1) if args.smoke else (args.trace,)
    seconds = 0.0 if args.smoke else args.seconds
    attempted = failed = 0
    metrics = {}
    for mode in modes:
        if mode == 0:
            reps = 1 if args.smoke else SETUP_REPS
            tally = end_to_end(workload, args.seed, seconds, deadline, env, reps)
            names = END_TO_END
        else:
            tally = layers(workload, args.seed, seconds, deadline)
            names = PER_LAYER
        print(f"\n{'traced' if mode else 'end-to-end'}: {tally.attempted} operations, "
              f"{tally.failed} failed, failed_frac {tally.failed / tally.attempted:g}")
        metrics.update(summarize(tally, names))
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
