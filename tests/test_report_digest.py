"""The colouring reports on the benchmark's workloads at seeds 0 and 47 are
pinned.

``scripts/report_digest.py`` hashes every ``ColouringReport.to_json()`` of
the four workloads in ``bench/workloads.py``.  A change that means to keep
the reports byte-identical (a refactor, a speed-up) keeps this digest; one
that changes a report on purpose pins the new digest and says why.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"

SEED_0 = "seeds 0..0 (1): sha256 000057dbe18a6d1edcc0000b8ba3edf56663269d84e1271b56ae06e42deca1e7"
# the seed of the benchmark runs quoted in ROADMAP.md and CHANGES.md
SEED_47 = "seeds 47..47 (1): sha256 6844063f316e1a8b56fa1bcc77a617b7dd78cd5263346c71928b210ea112d8b7"


def last_line(seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(seed)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_reports_at_seed_0_are_pinned():
    assert last_line(0) == SEED_0


def test_reports_at_the_benchmark_seed_are_pinned():
    assert last_line(47) == SEED_47
