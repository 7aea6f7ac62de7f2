"""Command-line front end: synthesis, self-checks, and search reports.

Three subcommands:

- ``qgms synth {qge, qgje} --n N``: write a solver circuit as text plus
  a resource JSON comparing constructed counts, closed forms, and stage
  sums.
- ``qgms verify {gf2, circuits, counting, deferred, gms}``: run one
  self-check suite and print its machine-readable result.
- ``qgms gms --m M --n N --l L``: run the whitening-key search analysis
  and write the report JSON plus the iteration curve CSV.

Every output embeds a run manifest (subcommand, config, seeds, tool
version, timestamp). The timestamp honours SOURCE_DATE_EPOCH so that
runs with a fixed seed and a fixed epoch are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 qubit cap exceeded (or an allocation failed: a state the cap allowed,
or a synth circuit).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, synth
from .circuit import QubitCapExceeded, qubit_cap, resource_profile


def _timestamp() -> str:
    """UTC time of the run, or of SOURCE_DATE_EPOCH when it is set."""
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        stamp = int(time.time()) if raw is None else int(raw)
        return datetime.fromtimestamp(stamp, timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise ValueError(
            f"SOURCE_DATE_EPOCH must be a Unix time in seconds, got {raw!r}"
        ) from None


def run_manifest(subcommand: str, config: dict, seeds: dict) -> dict:
    """Provenance block embedded in every report."""
    return {
        "subcommand": subcommand,
        "config": config,
        "seeds": seeds,
        "tool_version": __version__,
        "timestamp": _timestamp(),
    }


def _usage_error(message: str) -> int:
    print(f"qgms: error: {message}", file=sys.stderr)
    return 2


def _write_all(out: Path, files: dict[str, str]) -> int:
    """Write each named text into directory ``out``, creating it if needed.

    A path that cannot be written is a usage error, reported on one line.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as exc:
        return _usage_error(f"cannot write {exc.filename}: {exc.strerror}")
    print("wrote " + " and ".join(str(out / name) for name in files))
    return 0


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_synth(args: argparse.Namespace) -> int:
    if args.n < 2:
        return _usage_error("--n must be at least 2 (a 1x1 system needs no circuit)")
    if args.kind == "qge":
        syn = synth.gauss_solve_circuit(args.n)
        closed = synth.gauss_closed_form(args.n)
    else:
        syn = synth.jordan_solve_circuit(args.n)
        closed = synth.jordan_closed_form(args.n)
    stage_sum = synth.stage_totals(syn.stages)
    stage_sum["cnot_after_toffoli_expansion"] = synth.expanded_cnot(syn.stages)
    stem = f"{args.kind}_n{args.n}"
    payload = {
        "schema": 1,
        "manifest": run_manifest("synth", {"kind": args.kind, "n": args.n}, {}),
        "constructed": asdict(resource_profile(syn.circuit)),
        "closed_form": closed,
        "stage_sum": stage_sum,
    }
    files = {
        f"{stem}_circuit.txt": syn.circuit.to_text(),
        f"{stem}_resources.json": _dump_json(payload),
    }
    return _write_all(Path(args.out), files)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    kwargs = {}
    if args.suite == "deferred":
        if (args.n is None) != (args.l is None):
            return _usage_error("the deferred suite takes --n and --l together")
        if args.n is not None:
            if args.n < 2 or args.l < 1:
                return _usage_error("the deferred suite needs --n >= 2 and --l >= 1")
            kwargs = {"n": args.n, "l": args.l}
    elif args.n is not None or args.l is not None:
        return _usage_error("--n/--l only apply to the deferred suite")
    result = verify.run_suite(args.suite, **kwargs)
    payload = result.as_dict()
    payload["manifest"] = run_manifest("verify", {"suite": args.suite, **kwargs}, {})
    sys.stdout.write(_dump_json(payload))
    return 0 if result.passed else 1


def cmd_gms(args: argparse.Namespace) -> int:
    from .analysis import GmsConfig, _check_cap, analysis_report
    from .oracles import ZeroWhiteningKey, build_fx_oracle

    if args.m < 1 or args.l < 1:
        return _usage_error("--m and --l must be positive")
    if args.n < 2:
        return _usage_error("--n must be at least 2")
    if args.t_max < 0:
        return _usage_error("--t-max must be at least 0")
    if args.seed < 0:
        return _usage_error("--seed must be a non-negative integer")
    key = args.key if args.key is not None else 2 % (1 << args.m)
    k1 = args.k1 if args.k1 is not None else max(3 % (1 << args.n), 1)
    k2 = args.k2 if args.k2 is not None else 1 % (1 << args.n)
    # before the oracle, which tabulates one permutation per key value
    _check_cap(args.m, args.n, args.l)
    try:
        fx = build_fx_oracle(args.m, args.n, key, k1, k2, cipher_seed=args.seed)
        cfg = GmsConfig(args.m, args.n, args.l, fx)
    except (ValueError, ZeroWhiteningKey) as exc:
        return _usage_error(str(exc))
    report = analysis_report(cfg, t_max=args.t_max)
    report["manifest"] = run_manifest(
        "gms",
        {
            "m": args.m,
            "n": args.n,
            "l": args.l,
            "t_max": args.t_max,
            "key": key,
            "k1": k1,
            "k2": k2,
        },
        {"cipher_seed": args.seed},
    )
    curve = "".join(f"{t},{p!r}\n" for t, p in report["t_curve"])
    files = {"gms_report.json": _dump_json(report), "gms_curve.csv": "t,probability\n" + curve}
    return _write_all(Path(args.out), files)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgms",
        description="Reversible GF(2) solver circuits and exact search analysis.",
    )
    parser.add_argument("--version", action="version", version=f"qgms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a solver circuit and its resource report")
    p_synth.add_argument("kind", choices=["qge", "qgje"])
    p_synth.add_argument("--n", type=int, required=True, help="system size (n >= 2)")
    p_synth.add_argument("--out", default=".", help="output directory")

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument(
        "suite", choices=["gf2", "circuits", "counting", "deferred", "gms"]
    )
    p_verify.add_argument("--n", type=int, default=None, help="deferred suite: register width")
    p_verify.add_argument("--l", type=int, default=None, help="deferred suite: copies")

    p_gms = sub.add_parser("gms", help="run the whitening-key search analysis")
    p_gms.add_argument("--m", type=int, required=True, help="key register width")
    p_gms.add_argument("--n", type=int, required=True, help="block width")
    p_gms.add_argument("--l", type=int, required=True, help="parallel register copies")
    p_gms.add_argument("--t-max", type=int, default=20, dest="t_max")
    p_gms.add_argument("--seed", type=int, default=72, help="cipher construction seed")
    p_gms.add_argument("--key", type=int, default=None, help="hidden cipher key (default 2 mod 2^m)")
    p_gms.add_argument("--k1", type=int, default=None, help="input whitening key (default 3 mod 2^n)")
    p_gms.add_argument("--k2", type=int, default=None, help="output whitening key (default 1)")
    p_gms.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        qubit_cap()
        _timestamp()
    except ValueError as exc:
        return _usage_error(str(exc))
    was = gc.isenabled()
    if args.command == "synth":
        # The build frees none of its gates until cmd_synth returns, so a collection
        # finds nothing; they die by refcount before the collector is back on.
        gc.disable()
    try:
        return {"synth": cmd_synth, "verify": cmd_verify, "gms": cmd_gms}[args.command](args)
    except MemoryError as exc:
        # Memory may still be full here: the traceback and the errors chained while
        # unwinding hold the frames whose objects filled it. So the clause names
        # one class (a tuple of two is built when matched) and only drops those
        # references; the message is printed once that memory is free.
        exc.__traceback__ = exc.__context__ = None
        failure = exc
    except QubitCapExceeded as exc:
        failure = exc
    finally:
        if was:
            gc.enable()
    print(str(failure) or "out of memory", file=sys.stderr)
    return 3
