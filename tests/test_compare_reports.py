"""``scripts/compare_reports.py`` on ``report_digests.py --dump`` output.

One dump of this checkout's 19 outputs is taken per module; each test
edits a copy of it and compares the copy with the original.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CURVE = "gms_m2_n2_l2_curve.csv"
REPORT = "gms_m2_n2_l2_report.json"


def run(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    out = tmp_path_factory.mktemp("dump") / "head"
    proc = run("report_digests.py", "--dump", out)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == len(list(out.iterdir())) == 19
    return out


@pytest.fixture
def edited(dump, tmp_path):
    copy = tmp_path / "edited"
    shutil.copytree(dump, copy)
    return copy


def move_curve_point(directory, name, delta):
    """Add ``delta`` to the t = 3 probability of a curve or report file."""
    path = directory / name
    if name.endswith(".csv"):
        lines = path.read_text().splitlines(keepends=True)
        t, p = lines[4].rstrip("\n").split(",")
        assert t == "3"
        lines[4] = f"{t},{float(p) + delta!r}\n"
        path.write_text("".join(lines))
    else:
        report = json.loads(path.read_text())
        report["t_curve"][3][1] += delta
        path.write_text(json.dumps(report, indent=2))


def test_head_against_itself_has_no_difference(dump):
    proc = run("compare_reports.py", dump, dump)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1].endswith(", 0 past 1e-12, 0 non-float differences")
    assert all(line.startswith("0.00e+00 ") for line in proc.stdout.splitlines()[:-1])


@pytest.mark.parametrize("name", [CURVE, REPORT])
def test_a_curve_point_moved_by_1e_13_passes(dump, edited, name):
    move_curve_point(edited, name, 1e-13)
    proc = run("compare_reports.py", dump, edited)
    assert proc.returncode == 0, proc.stdout
    field = f"{name}:probability" if name == CURVE else f"{name}:.t_curve[][]"
    (line,) = [x for x in proc.stdout.splitlines() if x.endswith(f"  {field}")]
    assert float(line.split()[0]) == pytest.approx(1e-13, rel=0.05)


@pytest.mark.parametrize("name", [CURVE, REPORT])
def test_a_curve_point_moved_by_1e_11_fails(dump, edited, name):
    move_curve_point(edited, name, 1e-11)
    proc = run("compare_reports.py", dump, edited)
    assert proc.returncode == 1
    assert ", 1 past 1e-12, 0 non-float differences" in proc.stdout


@pytest.mark.parametrize(
    "name, old, new",
    [
        (REPORT, '"r": 144', '"r": 145'),
        (CURVE, "\n3,", "\n4,"),
        ("verify_deferred.json", "deferred_n2_l2", "deferred_n2_l3"),
        ("verify_circuits.json", "6 circuit families", "7 circuit families"),
    ],
    ids=["report-int", "curve-int", "check-name", "detail-int"],
)
def test_a_changed_int_or_string_fails(dump, edited, name, old, new):
    text = (edited / name).read_text()
    assert text.count(old) == 1
    (edited / name).write_text(text.replace(old, new))
    proc = run("compare_reports.py", dump, edited)
    assert proc.returncode == 1
    assert "DIFFERS" in proc.stdout
    assert proc.stdout.splitlines()[-1].endswith(", 1 non-float differences")


def test_a_missing_output_fails(dump, edited):
    (edited / CURVE).unlink()
    assert run("compare_reports.py", dump, edited).returncode == 1
