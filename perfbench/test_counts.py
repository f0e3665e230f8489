"""The traced benchmark's counts repeat exactly for a given seed.

    python3 -m pytest perfbench/test_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _traced_counts(seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def test_traced_counts_repeat_for_a_seed():
    first, second = _traced_counts(11), _traced_counts(11)
    assert first == second
    for name in ("evolve-perturbed/euler_sim.tendency_calls",
                 "evolve-perturbed/euler_sim.rk4_steps",
                 "orbit-track/steady_family.orbital_distance_calls",
                 "ascent/variational.burton_step_calls",
                 "ascent/variational.iters_per_seed",
                 "ascent/bessel.zero_calls"):
        assert first[name] > 0, name
    assert first["evolve-perturbed/euler_sim.tendency_calls"] == \
        4 * first["evolve-perturbed/euler_sim.rk4_steps"]
    assert first["ascent/euler_sim.tendency_calls"] == 0
