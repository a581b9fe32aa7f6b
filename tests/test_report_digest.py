"""The colouring reports on the benchmark's workloads at seed 0 are pinned.

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

SEED_0 = "seeds 0..0 (1): sha256 913d771bf7b7319f5621b5d43650b83489ea51e2158aebd69eb694bc94986d25"


def test_reports_at_seed_0_are_pinned():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "0"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == SEED_0
