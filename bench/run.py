"""Benchmark of ``nearnormal.colour_graph``: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere in a checkout of the repository; the package is taken
from the checkout's ``src``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (every time measured untraced); with
``--trace 1`` they are the per-layer ones from a traced run.

Each workload runs in its own single-threaded worker process (worker.py).
``setup_s`` is the median over several fresh processes of the time from
starting the process to the end of its set-up.  README.md describes the
workloads, the metrics and the layers they belong to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("corpus_sweep", "class1_random", "snarks", "reduce_lift")
SETUP_SAMPLES = 5  # set-up-only processes; the measuring one adds a sixth
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "graph_p50_s": "s",
    "graph_tail_s": "s",
    "medium_slack": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "three_colour.find_s": "s",
    "three_colour.refute_s": "s",
    "two_factor.s": "s",
    "two_factor.matchings": "count",
    "two_factor.limit_hits": "count",
    "two_factor.odd_cycles": "count",
    "selection.s": "s",
    "selection.eligible_edges": "count",
    "construct.s": "s",
    "audit.s": "s",
    "reduce.s": "s",
    "reduce.steps": "count",
    "lift.s": "s",
    "validate.s": "s",
    "verify.s": "s",
    "pipeline.self_s": "s",
    "oracle.s": "s",
    "trace.overhead": "ratio",
}


class WorkerError(RuntimeError):
    pass


def start_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py; returns (monotonic time at spawn, its JSON output)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, env=env, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                spawned, out = start_worker(common + ["--setup-only"], deadline - time.monotonic())
                setups.append(out["ready"] - spawned)
        spawned, result = start_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline - time.monotonic(),
        )
    except (WorkerError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        setups.append(result["ready"] - spawned)
        result["metrics"]["setup_s"] = statistics.median(setups)
    units = PER_LAYER if args.trace else END_TO_END
    if set(result["metrics"]) != set(units):
        print(f"benchmark failed: worker reported {sorted(result['metrics'])}", file=sys.stderr)
        return 1
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    doc = {key: result[key] for key in ("correct", "attempted", "failed")}
    doc["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
