"""The benchmark's own smoke run: every workload at a tiny size, untraced
and traced.  The traced runs patch library bindings by name, so renaming or
dropping one of them fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_quick_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # one JSON object per run, then the summary last; the rest is a table
    runs = [json.loads(s) for s in proc.stdout.splitlines() if s.startswith("{")]
    assert len(runs) > 1 and runs[-1]["attempted"] > 0
    for run in runs:
        assert run["failed"] == 0 and run["correct"], run
