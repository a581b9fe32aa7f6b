"""The benchmark's seeded graph families as ``MultiGraph`` objects.

``bench/generators.py`` and ``bench/workloads.py`` are loaded by path, as
``tests/test_bench_hooks.py`` loads ``bench/tracing.py``, so the tests build
the same graphs as the benchmark without making ``bench`` a package.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from nearnormal.graph import MultiGraph, build_graph

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, file: str):
    spec = importlib.util.spec_from_file_location(name, _BENCH / file)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generators = _load("bench_generators", "generators.py")
sys.modules.setdefault("generators", generators)  # workloads.py imports it by this name
workloads = _load("bench_workloads", "workloads.py")


def flower_snark(k: int) -> MultiGraph:
    return build_graph(*generators.flower_snark(k))


def petersen_inflation(base_order: int, seed: int) -> MultiGraph:
    """Inflate a seeded random cubic graph on ``base_order`` vertices, so
    the result has ``9 * base_order``."""
    rng = random.Random(seed)
    return build_graph(*generators.petersen_inflation(generators.random_cubic(base_order, rng), rng))


def random_cubic(n: int, seed: int, triangle_free: bool = False) -> MultiGraph:
    return build_graph(*generators.random_cubic(n, random.Random(seed), triangle_free))


def reduce_lift_graphs(seed: int) -> list[MultiGraph]:
    """The graphs of the benchmark's ``reduce_lift`` workload."""
    return [case.graph for case in workloads.reduce_lift(seed)]
