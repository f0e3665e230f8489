"""The benchmark runs on the current sources: every name it imports resolves
and one operation of each workload passes its gate."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_perfbench_runs_one_operation_per_workload():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 3
    assert result["failed"] == 0
