"""Compare two ``report_digests.py --dump`` directories, floats within 1e-12.

    python scripts/compare_reports.py BASE HEAD

Both directories must hold the same files. A ``.json`` file is parsed
and walked: keys, list lengths, ints, bools, nulls and value types must
be equal, and each float may differ by at most 1e-12. A ``.csv`` file is
compared row by row, with its header naming each column. Strings (CSV
cells, JSON strings such as a check's ``detail``, and any other file
that differs, read whole) are split around their decimal numbers
(``0.25``, ``1.18e-14``): the text between the numbers must be equal,
and each number is compared as a float. Integers without a point or an
exponent are text.

Prints the largest float difference per field (a JSON path with list
indices dropped, or a CSV column), then every non-float difference, and
exits 1 if there is one or if a float is off by more than 1e-12.
Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

TOLERANCE = 1e-12
DECIMAL = re.compile(r"([-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+))")


class Comparison:
    """Largest float difference per field, and the non-float differences."""

    def __init__(self) -> None:
        self.largest: dict[str, float] = {}
        self.mismatches: list[str] = []

    def floats(self, field: str, base: float, head: float) -> None:
        both_nan = math.isnan(base) and math.isnan(head)
        diff = 0.0 if both_nan or base == head else abs(base - head)
        if math.isnan(diff):
            diff = math.inf
        self.largest[field] = max(self.largest.get(field, 0.0), diff)

    def text(self, field: str, base: str, head: str) -> None:
        b, h = DECIMAL.split(base), DECIMAL.split(head)
        if len(b) != len(h) or b[::2] != h[::2]:
            self.mismatches.append(f"{field}: {base[:80]!r} != {head[:80]!r}")
            return
        for x, y in zip(b[1::2], h[1::2]):
            self.floats(field, float(x), float(y))

    def json(self, field: str, base, head) -> None:
        if type(base) is not type(head):
            self.mismatches.append(f"{field}: {base!r} != {head!r}")
        elif isinstance(base, dict):
            if list(base) != list(head):
                self.mismatches.append(f"{field}: keys {list(base)} != {list(head)}")
                return
            for key in base:
                self.json(f"{field}.{key}", base[key], head[key])
        elif isinstance(base, list):
            if len(base) != len(head):
                self.mismatches.append(f"{field}: {len(base)} != {len(head)} items")
                return
            for x, y in zip(base, head):
                self.json(f"{field}[]", x, y)
        elif isinstance(base, float):
            self.floats(field, base, head)
        elif isinstance(base, str):
            self.text(field, base, head)
        elif base != head:
            self.mismatches.append(f"{field}: {base!r} != {head!r}")

    def csv(self, name: str, base: str, head: str) -> None:
        b = list(csv.reader(io.StringIO(base)))
        h = list(csv.reader(io.StringIO(head)))
        if len(b) != len(h) or not b or b[0] != h[0]:
            self.mismatches.append(f"{name}: header or row count differs")
            return
        for row_b, row_h in zip(b[1:], h[1:]):
            if len(row_b) != len(row_h):
                self.mismatches.append(f"{name}: row {row_b} != {row_h}")
                continue
            for column, x, y in zip(b[0], row_b, row_h):
                self.text(f"{name}:{column}", x, y)

    def file(self, name: str, base: str, head: str) -> None:
        if name.endswith(".json"):
            self.json(name + ":", json.loads(base), json.loads(head))
        elif name.endswith(".csv"):
            self.csv(name, base, head)
        elif base != head:  # circuit texts: megabytes, and no floats
            self.text(name, base, head)


def compare(base: Path, head: Path) -> Comparison:
    """Compare every file of two dump directories."""
    result = Comparison()
    names_b = sorted(p.name for p in base.iterdir())
    names_h = sorted(p.name for p in head.iterdir())
    if names_b != names_h:
        result.mismatches.append(f"files: {names_b} != {names_h}")
    for name in sorted(set(names_b) & set(names_h)):
        result.file(name, (base / name).read_text(), (head / name).read_text())
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(f"usage: {Path(__file__).name} BASE HEAD")
    result = compare(Path(argv[0]), Path(argv[1]))
    for field, diff in result.largest.items():
        print(f"{diff:.2e}  {field}")
    for line in result.mismatches:
        print(f"DIFFERS  {line}")
    over = [f for f, d in result.largest.items() if not d <= TOLERANCE]
    print(
        f"{len(result.largest)} float fields, {len(over)} past {TOLERANCE:g}, "
        f"{len(result.mismatches)} non-float differences"
    )
    return 1 if over or result.mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
