"""Shared test setup."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _absolute_src_on_child_path(monkeypatch):
    """Let ``python -m qgms`` children import the package from any cwd.

    The command-line tests start the child in a temporary directory, where
    a relative ``src`` entry on PYTHONPATH no longer resolves.
    """
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC, *inherited]))
