"""The OpenBLAS idle policy that ``import diskvort`` sets, in fresh interpreters.

OpenBLAS reads its environment once, when numpy loads it, so every case runs
in a child process whose environment holds no ``OPENBLAS_*`` variable but
those the case sets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskvort

SRC = str(Path(diskvort.__file__).resolve().parents[1])


def _child(code, **env_extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(env_extra)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_REPORT = ("import json, os\n"
           "print(json.dumps([os.environ.get('OPENBLAS_THREAD_TIMEOUT'),"
           " diskvort.BLAS_IDLE_POLICY]))\n")


def test_import_sets_the_shortest_idle_timeout():
    timeout, policy = _child("import diskvort\n" + _REPORT)
    assert timeout == "4"
    assert policy == {"openblas_thread_timeout": "4", "set_by": "diskvort"}


def test_user_timeout_is_kept():
    timeout, policy = _child("import diskvort\n" + _REPORT, OPENBLAS_THREAD_TIMEOUT="10")
    assert timeout == "10"
    assert policy == {"openblas_thread_timeout": "10", "set_by": "environment"}


def test_numpy_loaded_first_leaves_the_timeout_unset():
    # OpenBLAS has read its environment by then, so a write would only mislead
    timeout, policy = _child("import numpy\nimport diskvort\n" + _REPORT)
    assert timeout is None
    assert policy == {"openblas_thread_timeout": None, "set_by": "numpy loaded first"}


def test_manifest_records_the_policy(tmp_path):
    out = tmp_path / "o"
    code = ("import json\n"
            "from diskvort.cli import main\n"
            f"assert main(['bessel-table', '--out', {str(out)!r}]) == 0\n"
            f"print(json.dumps(json.load(open({str(out / 'manifest.json')!r}))['blas_idle']))\n")
    assert _child(code) == {"openblas_thread_timeout": "4", "set_by": "diskvort"}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_blas_worker_sleeps_through_the_cold_setup():
    # import, the default basis and both eigen problems (LAPACK calls, each of
    # which wakes the worker), then a sleep longer than OpenBLAS's default
    # ~0.1 s spin: the non-main threads have used at most one clock tick of
    # CPU, against ~20 with the default timeout on a 2-core x86 VM
    code = (
        "import json, os, time\n"
        "import diskvort.disk_spectral, diskvort.variational\n"
        "threads = len(os.listdir('/proc/self/task'))\n"
        "basis = diskvort.disk_spectral.DiskBasis()\n"
        "diskvort.variational.solve_v1(basis)\n"
        "diskvort.variational.solve_v2(basis)\n"
        "time.sleep(0.3)\n"
        "ticks = 0\n"
        "for tid in os.listdir('/proc/self/task'):\n"
        "    if int(tid) != os.getpid():\n"
        "        with open(f'/proc/self/task/{tid}/stat') as fh:\n"
        "            fields = fh.read().rsplit(')', 1)[1].split()\n"
        "        ticks += int(fields[11]) + int(fields[12])\n"
        "print(json.dumps([threads, ticks]))\n"
    )
    threads, ticks = _child(code)
    if threads < 2:
        pytest.skip("OpenBLAS runs single-threaded here")
    assert ticks <= 1, ticks
