"""Print one sha256 per pinned qgms output, to compare two checkouts.

Runs the command line of the checkout at ROOT (default: the checkout
holding this script) with SOURCE_DATE_EPOCH=1700000000 and prints one
line "<output> <sha256>" for each of:

- the stdout of ``verify gf2|circuits|counting|deferred|gms``, without
  its wall-clock ``elapsed_s``;
- ``gms`` at (m, n, l) = (2, 2, 2), (1, 2, 3) and (3, 3, 2): report and
  curve;
- ``synth qge|qgje --n 12|40``: circuit text and resource report.

Two checkouts write the same reports exactly when their digest lists are
equal:

    diff <(python scripts/report_digests.py PARENT) <(python scripts/report_digests.py)

``--dump DIR`` also writes each hashed output to DIR as a file (``.json``,
``.csv`` or ``.txt``), for ``compare_reports.py`` to compare two checkouts
float by float:

    python scripts/report_digests.py --dump base PARENT > /dev/null
    python scripts/report_digests.py --dump head > /dev/null
    python scripts/compare_reports.py base head

A command that exits non-zero (a failed self-check included) stops the
script with exit 1.

``pinned_digests.txt`` next to this script holds the ten digests that
do not depend on the host: ``verify gf2``, ``verify counting`` and the
eight ``synth`` outputs, which hold integers only. CI compares this
script's matching lines with it. The other reports hold floats whose
last bits can differ between CPUs, so they are compared checkout to
checkout on one machine instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EPOCH = "1700000000"
SUITES = ("gf2", "circuits", "counting", "deferred", "gms")
GMS_SHAPES = ((2, 2, 2), (1, 2, 3), (3, 3, 2))
SYNTH_RUNS = (("qge", 12), ("qgje", 12), ("qge", 40), ("qgje", 40))


def qgms(root: Path, args: list[str], cwd: Path) -> str:
    """Stdout of ``python -m qgms ARGS`` run from ``root``'s sources."""
    env = dict(os.environ, SOURCE_DATE_EPOCH=EPOCH, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgms", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        sys.exit(f"qgms {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_payload(stdout: str) -> bytes:
    """A ``verify`` stdout without its wall-clock ``elapsed_s``.

    The payload is re-dumped with sorted keys, so it holds the checks
    alone. Standard library only: CI calls it without numpy.
    """
    payload = json.loads(stdout)
    del payload["elapsed_s"]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def verify_digest(stdout: str) -> str:
    """sha256 of ``verify_payload(stdout)``."""
    return sha256(verify_payload(stdout))


def outputs(root: Path):
    """Yield (output name, file name, hashed bytes) for every pinned output."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for suite in SUITES:
            name = f"verify_{suite}"
            yield name, f"{name}.json", verify_payload(qgms(root, ["verify", suite], out))
        for m, n, l in GMS_SHAPES:
            run = out / f"gms_m{m}_n{n}_l{l}"
            qgms(root, ["gms", "--m", str(m), "--n", str(n), "--l", str(l), "--out", str(run)], out)
            for part, file in (("report", "gms_report.json"), ("curve", "gms_curve.csv")):
                name = f"{run.name}_{part}"
                yield name, name + Path(file).suffix, (run / file).read_bytes()
        for kind, n in SYNTH_RUNS:
            qgms(root, ["synth", kind, "--n", str(n), "--out", str(out)], out)
            for part in ("circuit.txt", "resources.json"):
                name = f"{kind}_n{n}_{part}"
                yield name, name, (out / name).read_bytes()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print one sha256 per pinned qgms output.")
    parser.add_argument(
        "root",
        nargs="?",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="the qgms checkout to run (default: the one holding this script)",
    )
    parser.add_argument("--dump", metavar="DIR", type=Path, help="also write each output to DIR")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "qgms").is_dir():
        sys.exit(f"{root} is not a qgms checkout (no src/qgms)")
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name, file, data in outputs(root):
        if args.dump:
            (args.dump / file).write_bytes(data)
        print(name, sha256(data), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
