"""The benchmark's per-layer hooks still name callables of the package.

``bench/tracing.py`` wraps functions by ``(module, attribute)`` and reads a
name it cannot find as a metric of 0.  Loading its ``WRAPS`` table here, by
path, makes a refactor that drops such a name fail the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


WRAPS = _wraps()


def test_table_is_not_empty():
    assert len(WRAPS) >= 10


@pytest.mark.parametrize("module, attr", [w[:2] for w in WRAPS], ids=[".".join(w[:2]) for w in WRAPS])
def test_hook_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
