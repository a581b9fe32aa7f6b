"""Every script in ``scripts/`` loads: its imports run, its ``__main__``
block does not.  A package name that a script imports cannot go without
this test failing."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_there_are_scripts():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src/ and tests/
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
