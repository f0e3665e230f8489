"""diskvort benchmark: one cold set-up plus timed, gated operations of a workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see workloads.py): evolve-perturbed, orbit-track, ascent.  A run
of one workload is one interpreter.  It first times one cold set-up, what
every CLI invocation pays: ``import diskvort``,
``DiskBasis(16, 32, DiskGrid(80, 128))`` (with its Bessel zero search) and
the first ``tendency`` call, which builds the dealias band kit.  It then
repeats operations (one evolution run or one ascent seed), each drawn from
the seed, solved on that basis and gated with the CLI's tolerances, until
``--seconds`` have passed.  ``all`` runs each workload in turn, each in a
child interpreter of its own, so that each has its own cold set-up and
peak resident set.

With ``--trace 0`` the run reports the end-to-end metrics, all wall-clock:

* ``setup_s``: the cold set-up;
* ``solve_s``: median time of one operation, from input to gated solution;
* ``solver_iters_per_s``: RK4 steps (evolution workloads) or ``burton_step``
  iterations (ascent) over the summed time of all operations; it is printed
  as ``rk4_steps_per_s`` or ``ascent_iters_per_s`` too;
* ``peak_rss_mb``: peak resident set of the run's interpreter.

With ``--trace 1`` every public function of the diskvort layers is wrapped
(tracer.py) from the set-up on, each operation runs once untraced and once
traced, and the run reports per-layer counts and times: set-up-scoped ones
over the traced set-up, the others over the first ``counted_ops`` traced
operations, so that counts repeat exactly for a given seed.

Each workload's ``fail_ratio`` (failed over attempted operations) is
printed too.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, per-operation results and (traced) all spans, is
written under ``.bench_build/perfbench/``.  Exit status: 0 all gates pass,
1 a gate failed, 2 the diskvort sources are missing.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BUILD = HERE.parent / ".bench_build" / "perfbench"
# the keys of workloads.WORKLOADS, which imports numpy and diskvort and so
# cannot be loaded before the timed set-up
WORKLOAD_NAMES = ("evolve-perturbed", "orbit-track", "ascent")
N_MODES, K_RADIAL, N_R, N_THETA = 16, 32, 80, 128


def cold_setup(before_build=None):
    """Time the set-up in this interpreter; returns (wall s, CPU s, basis).

    Only the standard library is loaded before it, so the import of numpy
    and diskvort is timed.  ``before_build`` runs after the import, inside
    the timed region (the tracer installs itself there).
    """
    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(SRC))
    from diskvort.disk_spectral import DiskBasis, DiskGrid
    from diskvort.euler_sim import steady_state, tendency
    from diskvort.steady_family import VElement

    if before_build is not None:
        before_build()
    basis = DiskBasis(N_MODES, K_RADIAL, DiskGrid(N_R, N_THETA))
    state = steady_state(VElement(0.5, 1.0, 0.0), basis)
    tendency(state.w, state.background)
    return time.perf_counter() - t0, time.process_time() - c0, basis


def _openblas_threads():
    """Threads OpenBLAS uses in this process, or None if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _solve(wl, basis, inp, counter, tracer=None):
    """Run one operation; returns (wall s, CPU s, Outcome or None if it raised)."""
    before = counter["step_rk4"]
    if tracer is not None:
        tracer.enable()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        res = wl.solve(basis, inp)
    except Exception:                    # an operation that raises has failed
        traceback.print_exc(file=sys.stderr)
        res = None
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.disable()
    if res is None:
        return wall, cpu, None
    return wall, cpu, wl.gate(basis, inp, res, counter["step_rk4"] - before)


def run_untraced(wl, basis, seed, seconds, counter):
    ops = []
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds:
        inp = wl.input(basis, seed, len(ops))
        ops.append(_solve(wl, basis, inp, counter))
    iterations = sum(o.iterations for _, _, o in ops if o is not None)
    metrics = {
        "solve_s": (statistics.median(wall for wall, _, _ in ops), "s"),
        "solver_iters_per_s": (iterations / sum(wall for wall, _, _ in ops), "1/s"),
    }
    return ops, metrics


def run_traced(wl, basis, seed, seconds, counter, tracer):
    from workloads import tendency_cost

    ops, ratios, outcomes = [], [], []
    t_start = time.perf_counter()
    index = 0
    while index < wl.counted_ops or time.perf_counter() - t_start < seconds:
        inp = wl.input(basis, seed, index)
        tracer.scope = f"{wl.name}/op{index}"
        if index % 2:                    # alternate which copy runs first
            plain = _solve(wl, basis, inp, counter)
            traced = _solve(wl, basis, inp, counter, tracer)
        else:
            traced = _solve(wl, basis, inp, counter, tracer)
            plain = _solve(wl, basis, inp, counter)
        ops += [plain, traced]
        ratios.append(traced[0] / plain[0])
        if index < wl.counted_ops and traced[2] is not None:
            outcomes.append(traced[2])
        index += 1
    counted = {f"{wl.name}/op{i}" for i in range(wl.counted_ops)}
    seeds = sum(1 for o in outcomes if "converged" in o.info)   # ascent only
    S = tracer.summary(counted)
    U = tracer.summary({"setup"})
    flops, nbytes = tendency_cost(basis)
    drift = lambda key: max((o.info.get(key, 0.0) for o in outcomes), default=0.0)

    metrics = {
        "bessel.zero_calls": (U["bessel.bessel_zero"][0], "count"),
        "bessel.zero_s": (U["bessel.bessel_zero"][1], "s"),
        "bessel.j_calls": (U["bessel.bessel_j"][0], "count"),
        "bessel.j_s": (U["bessel.bessel_j"][1], "s"),
        "bessel.j_prime_calls": (U["bessel.bessel_j_prime"][0], "count"),
        "bessel.j_prime_s": (U["bessel.bessel_j_prime"][1], "s"),
        "disk_spectral.basis_build_self_s": (U["disk_spectral.DiskBasis"][2], "s"),
    }
    for key in ("disk_spectral.to_grid", "disk_spectral.from_grid",
                "disk_spectral.transplant", "euler_sim.tendency", "euler_sim.cfl_dt",
                "steady_family.orbital_distance", "green_energy.energy_grid"):
        metrics[f"{key}_calls"] = (S[key][0], "count")
        metrics[f"{key}_s"] = (S[key][1], "s")
    metrics.update({
        "euler_sim.rk4_steps": (S["euler_sim.step_rk4"][0], "count"),
        "euler_sim.step_rk4_self_s": (S["euler_sim.step_rk4"][2], "s"),
        "euler_sim.energy_drift": (drift("energy_drift"), "ratio"),
        "euler_sim.l2_drift": (drift("l2_drift"), "ratio"),
        "euler_sim.tendency_flops_computed": (flops, "flop"),
        "euler_sim.tendency_bytes_computed": (nbytes, "B"),
        "variational.burton_step_calls": (S["variational.burton_step"][0], "count"),
        "variational.burton_step_self_s": (S["variational.burton_step"][2], "s"),
        "variational.iters_per_seed": (
            S["variational.burton_step"][0] / seeds if seeds else 0.0, "count"),
        "variational.converged_ratio": (
            sum(o.info["converged"] for o in outcomes) / seeds if seeds else 0.0,
            "ratio"),
        "trace.overhead_ratio": (statistics.median(ratios), "ratio"),
    })
    return ops, metrics


def run_all(args):
    """Each workload in a child interpreter; prints their lines, merges results."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"perfbench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="diskvort benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diskvort" / "__init__.py").is_file():
        print(f"perfbench: diskvort sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(HERE))
    from tracer import Tracer, count_calls   # standard library only

    counter = {"step_rk4": 0}
    tracer = Tracer() if args.trace else None

    def install():
        from diskvort import euler_sim

        count_calls(euler_sim, "step_rk4", counter)
        if tracer is not None:
            tracer.prepare()
            tracer.enable()

    setup_wall, setup_cpu, basis = cold_setup(before_build=install)
    if tracer is not None:
        tracer.disable()

    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if tracer is None:
        ops, metrics = run_untraced(wl, basis, args.seed, args.seconds, counter)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_wall, "s"), **metrics,
                   "peak_rss_mb": (rss_mb, "MB")}
    else:
        ops, metrics = run_traced(wl, basis, args.seed, args.seconds, counter, tracer)
    failed = sum(1 for _, _, o in ops if o is None or not o.ok)

    env = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "resolution": {"n_theta_modes": N_MODES, "k_radial": K_RADIAL,
                       "n_r": N_R, "n_theta": N_THETA},
        "operations": len(ops),
        "setup_wall_s": setup_wall,
        "setup_cpu_s": setup_cpu,
        "solve_cpu_s": sum(cpu for _, cpu, _ in ops),
        "solve_wall_s": sum(wall for wall, _, _ in ops),
    }
    print("env " + json.dumps(env))
    for key, (value, unit) in metrics.items():
        print(f"{wl.name}  {key} = {value:.6g} {unit}")
        if key == "solver_iters_per_s":
            alias = "ascent_iters_per_s" if wl.name == "ascent" else "rk4_steps_per_s"
            print(f"{wl.name}  {alias} = {value:.6g} {unit}")
    print(f"{wl.name}  fail_ratio = {failed / len(ops):.6g} ratio "
          f"({failed} of {len(ops)} operations)")

    BUILD.mkdir(parents=True, exist_ok=True)
    out = BUILD / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({"env": env, "metrics": metrics,
                   "operations": [{"wall_s": wall, "cpu_s": cpu,
                                   "ok": o is not None and o.ok,
                                   "iterations": o.iterations if o else None,
                                   **(o.info if o else {})} for wall, cpu, o in ops],
                   "spans": tracer.spans if tracer else []}, fh)

    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
