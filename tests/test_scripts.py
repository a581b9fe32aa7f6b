"""Every script in ``scripts/`` loads: its imports run, its ``__main__``
block does not.  A package name that a script imports cannot go without
this test failing.  ``scripts/scale.py`` also runs once, on one small
graph."""

from __future__ import annotations

import importlib.util
import json
import subprocess
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


def test_scale_smoke_run(tmp_path):
    # two rounds of one graph, each in its own child: one row with both
    # runs, its least and largest times, and a summary entry
    out = tmp_path / "scale.json"
    script = [path for path in SCRIPTS if path.name == "scale.py"][0]
    subprocess.run([sys.executable, str(script), "--sizes", "1000", "--families", "flower",
                    "--repeats", "2", "--out", str(out)], check=True, capture_output=True, timeout=120)
    data = json.loads(out.read_text())
    (row,) = data["rows"]
    assert (row["family"], row["n"], row["runs"]) == ("flower", 1004, 2)
    for key in ("seconds", "matching_s", "two_factor_s"):
        assert 0 <= row[key] <= row[f"{key}_max"]
    assert [(entry["label"], entry["family"]) for entry in data["summary"]] == [("change", "flower")]
