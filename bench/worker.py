"""Run one workload in this single-threaded process and print its
measurements as one JSON line.

    python3 bench/worker.py --workload W --seed S --setup-only
    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1

The package is imported from the ``src`` directory next to this one, never
from an installed copy.  ``ready`` in the output is ``time.monotonic()`` at
the end of set-up (import plus building every graph), so the parent that
started this process can tell how long set-up took.

The run repeats whole passes over the workload's graphs until ``--seconds``
have gone by.  With ``--trace 1`` the passes alternate between untraced and
traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import check
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import nearnormal

    if not Path(nearnormal.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"nearnormal imported from {nearnormal.__file__}, not from {ROOT / 'src'}")
    return nearnormal


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten graphs beyond it."""
    p = 0
    while p < 99 and count - math.ceil((p + 1) * count / 100) >= 10:
        p += 1
    return p


def nearest_rank(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


class Run:
    """One workload's graphs, and the counts and problems seen on them."""

    def __init__(self, nn, workload: str, seed: int, cases) -> None:
        self.nn = nn
        self.workload = workload
        self.seed = seed
        self.cases = cases
        self.inputs = [(c.graph.n, list(c.graph.edges)) for c in cases]
        self.petersen = [check.is_petersen(n, edges) for n, edges in self.inputs]
        self.attempted = 0
        self.failed = 0
        self.failed_cases: set[int] = set()
        self.problems: set[tuple[int, str]] = set()
        self.medium_and_bound = (0, 0.0)  # sums of medium and 4n/5 over a pass

    def _problem(self, i: int, what: str) -> None:
        if (i, what) not in self.problems:
            self.problems.add((i, what))
            print(f"{self.cases[i].name}: {what}", file=sys.stderr)

    def one_pass(self, tracer: Tracer | None = None) -> list[float]:
        """Process every graph once; returns per-graph seconds.  The output
        checks run after each graph, outside the timed region."""
        colour_graph = self.nn.colour_graph
        min_medium_exact = self.nn.min_medium_exact
        if tracer is not None:
            def colour_graph(g, f=colour_graph):
                return tracer.call("pipeline", f, g)

            def min_medium_exact(g, k, f=min_medium_exact):
                return tracer.call("oracle", f, g, k)

        times = []
        medium_sum, bound_sum = 0, 0.0
        # Every pass starts from the same collector state, so cyclic garbage
        # left by the previous pass is not collected inside a timed graph.
        gc.collect()
        for i, case in enumerate(self.cases):
            self.attempted += 1
            if tracer is not None:
                tracer.graph = i
            oracle = None
            t0 = time.perf_counter()
            try:
                colouring, report = colour_graph(case.graph)
                if case.oracle:
                    oracle = min_medium_exact(case.graph, 4)
            except Exception as exc:
                times.append(time.perf_counter() - t0)
                self.failed += 1
                self.failed_cases.add(i)
                if not (case.fault and isinstance(exc, RecursionError)):
                    self._problem(i, traceback.format_exc())
                continue
            times.append(time.perf_counter() - t0)

            n, edges = self.inputs[i]
            problems = check.report_problems(n, edges, colouring.colour_of, report, self.petersen[i])
            if oracle is not None:
                minimum, witness = oracle
                problems += check.oracle_problems(n, edges, minimum, witness.colour_of, report.medium)
            for p in problems:
                self._problem(i, p)
            medium_sum += report.medium
            bound_sum += 4 * n / 5
        self.medium_and_bound = (medium_sum, bound_sum)
        return times


def measure(run: Run, seconds: float, traced: bool) -> dict[str, float]:
    plain: list[list[float]] = []  # per-graph times of each untraced pass
    tracers: list[Tracer] = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    while True:
        if traced and len(plain) > len(tracers):
            tracer = Tracer()
            tracer.install()
            try:
                traced_walls.append(sum(run.one_pass(tracer)))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        else:
            plain.append(run.one_pass())
            if len(plain) == 1:
                # The first pass does all the distinct work.  Later passes
                # repeat it but can still raise the high-water mark, through
                # garbage freed later or earlier, which would make the figure
                # depend on how many passes fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= seconds and (tracers or not traced):
            break

    walls = [sum(times) for times in plain]
    if traced:
        layers = [t.layer_metrics() for t in tracers]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        for name in tracers[0].absent:
            print(f"absent: {name} (its per-layer metrics read 0)", file=sys.stderr)
        write_spans(run, tracers)
        return metrics

    # A failed graph counts as slower than any finished one.
    per_graph = [
        math.inf if i in run.failed_cases else statistics.median(times)
        for i, times in enumerate(zip(*plain))
    ]
    p = tail_percentile(len(per_graph))
    print(f"{len(plain)} passes; graph_tail_s is p{p} of {len(per_graph)} graphs", file=sys.stderr)
    medium, bound = run.medium_and_bound
    return {
        "wall_s": statistics.median(walls),
        "graph_p50_s": statistics.median(per_graph),
        "graph_tail_s": nearest_rank(per_graph, p),
        "medium_slack": 1 - medium / bound,
        "peak_rss_mb": peak_rss_mb,
    }


def write_spans(run: Run, tracers: list[Tracer]) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "graphs": [c.name for c in run.cases],
        "absent": tracers[0].absent,
        "span_fields": ["name", "start", "end", "parent", "graph"],
        "passes": [t.spans for t in tracers],
    }
    (OUT / f"spans-{run.workload}-{run.seed}.json").write_text(json.dumps(doc))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nn = import_package()
    import workloads

    cases = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    run = Run(nn, args.workload, args.seed, cases)
    metrics = measure(run, args.seconds, bool(args.trace))
    print(json.dumps({
        "ready": ready,
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
