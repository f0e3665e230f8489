"""Command-line harness: reproducible experiments with structured output.

Config files are flat ``key = value`` text; ``#`` starts a comment.  Unknown
keys are errors, as are out-of-range values.  Every run writes, under the
output directory, a ``manifest.json`` (config echo, config hash, seed,
versions, BLAS idle policy, wall time, pass flag), a ``results.csv`` whose
first line carries the config hash, and, where fields are produced,
``fields/*.json`` in the documented serialization schema.  The same config
and seed reproduce the same CSV bytes.

Each kind calls the library and writes its record: ``bessel-table`` the
rows of ``bessel.certified_zeros``, ``evolve`` and ``rotate-demo`` the
``euler_sim.TraceRow`` fields of the stability and rotating-orbit drivers,
and ``sharpness-demo`` the last row and final field of one rotating-orbit
run per angle.  A zero table holds at most ``MAX_ZERO_INDEX`` zeros per
order, a grid at most ``MAX_RADIAL_NODES`` radii and ``MAX_ANGLES``
angles, and the horizons and counts are bounded by ``MAX_TURNOVERS``,
``MAX_T_END``, ``MAX_SEEDS``, ``MAX_ASCENT_ITERS`` and ``MAX_N_UNIFORM``; a
nonzero ``omega_rot`` has a period 2 pi / |omega_rot| of at most
``MAX_T_END``, and the amplitudes ``a``, ``b`` and ``delta_rel``, which
shorten the step under a time horizon, are bounded by ``MAX_AMPLITUDE`` and
``MAX_DELTA_REL``.

Exit status: 0 all asserted tolerances pass, 2 configuration error (also a
family or field outside the basis or its dealias band, a turnover horizon
on a field at rest, a perturbation that vanishes, or a ``rotate-demo`` or
``sharpness-demo`` with no rotation to recover), 3 tolerance failure or
numerical failure (a non-finite field, or an ascent step that lowered the
energy of an in-class iterate, a defect), 1 unexpected error.  A run that
raises still writes its manifest, with the error under ``error``.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import BLAS_IDLE_POLICY, __version__
from .bessel import MAX_ORDER, bessel_j, bessel_zero, certified_zeros, verify_identity_suite
from .disk_spectral import (
    DiskBasis,
    DiskGrid,
    lp_norm,
    ring_shuffle,
    save_field,
    to_grid,
)
from .errors import AscentError, ConfigError, NonFiniteFieldError, ResolutionError
from .euler_sim import (
    TraceRow,
    make_perturbation,
    mixed_nonsteady_field,
    run_rotating_orbit_experiment,
    run_stability_experiment,
    tendency,
    verify_steady,
)
from .steady_family import VElement, orbital_distance, plain_distance, v_element_grid
from .variational import burton_maximize, solve_v1, solve_v2

# the largest zero index of a bessel-table: the zero scan's time and memory
# grow with the index, and the (64, 1000) table takes ~9 s, with a 48 MB
# peak RSS, on a 2-core x86 VM
MAX_ZERO_INDEX = 1000
# the largest horizons and counts: each keeps one run on the default basis
# within about five minutes on a 2-core x86 VM, where one turnover of the
# default element takes ~0.1 s (t_end: ~2.3 ms per time unit, 48 to a
# turnover), one ascent seed ~50 ms (~0.8 ms per iteration, up to max_iters)
# and one unit of n_uniform ~11 ms
MAX_TURNOVERS = 1000.0
MAX_T_END = 50000.0
MAX_SEEDS = 1000
MAX_ASCENT_ITERS = 100000
MAX_N_UNIFORM = 10000
# the largest collocation grid: the basis tables grow as n_theta_modes n_r
# k_radial (k_radial < n_r) and the Gauss-Legendre nodes as n_r^2, and the
# largest accepted basis, DiskBasis(64, 254, DiskGrid(256, 1024)), builds in
# ~7 s with a 224 MB peak RSS on a 2-core x86 VM
MAX_RADIAL_NODES = 256
MAX_ANGLES = 1024
# the largest amplitudes |a|, |b| and delta_rel: under a t_end horizon the
# step count grows with max|u|, which is linear in each.  At MAX_T_END on the
# default basis, on a 2-core x86 VM (~2.3 ms per time unit at a = 0, b = 1),
# the default element takes ~2 min, a = 1 ~3 min, and a = 1 with a
# mode-injection perturbation of delta_rel = 1 ~4.5 min.  Every shape a / b of
# the family has a member within the bound, larger amplitudes only rescale
# time (omega -> lambda omega, t -> t / lambda), and a perturbation larger
# than its element is no longer a perturbation of it
MAX_AMPLITUDE = 1.0
MAX_DELTA_REL = 1.0


@dataclass
class ExperimentConfig:
    kind: str = ""
    seed: int = 0
    n_theta_modes: int = 16
    k_radial: int = 32
    n_r: int = 80
    n_theta: int = 128
    a: float = 0.0
    b: float = 1.0
    beta: float = 0.0
    family_n: int = 1
    family_k: int = 1
    p: float = 2.0
    perturbation: str = "smooth-random"
    delta_rel: float = 1e-3
    pert_mode_n: int = 2
    pert_mode_k: int = 1
    omega_rot: float = 0.3
    n_uniform: int = 50
    turnovers: float = 20.0
    t_end: float = 0.0
    cfl_safety: float = 0.4
    cadence: int = 10
    seeds: int = 10
    max_iters: int = 600
    bessel_n_max: int = 3
    bessel_k_max: int = 5

    def element(self):
        return VElement(self.a, self.b, self.beta, (self.family_n, self.family_k))

    def basis(self):
        return DiskBasis(self.n_theta_modes, self.k_radial,
                         DiskGrid(self.n_r, self.n_theta))


_FIELD_TYPES = {f.name: f.type for f in dc_fields(ExperimentConfig)}


def _coerce(key, raw, line):
    typ = _FIELD_TYPES[key]
    try:
        if typ is int:
            val = int(raw)
        elif typ is float:
            val = float(raw)
        else:
            val = raw.strip()
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}", line)
    return val


def _validate(cfg: ExperimentConfig):
    if cfg.kind and cfg.kind not in KINDS:
        raise ConfigError(f"unknown kind {cfg.kind!r}; expected one of {KINDS}")
    if not (1.0 < cfg.p < math.inf):
        raise ConfigError(f"p must lie in (1, inf), got {cfg.p}")
    if cfg.perturbation not in ("random-shuffle", "mode-injection", "smooth-random", "none"):
        raise ConfigError(f"unknown perturbation kind {cfg.perturbation!r}")
    # above 1 every refresh steps over the advective limit
    if not 0 < cfg.cfl_safety <= 1:
        raise ConfigError(f"cfl_safety must lie in (0, 1], got {cfg.cfl_safety}")
    # NaN passes every comparison below unnoticed, a NaN or infinite horizon
    # would end a run after its first row as if it had passed, and a
    # non-finite amplitude or phase only surfaces deep inside a run
    for name, typ in _FIELD_TYPES.items():
        if typ is float and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
    for name in ("a", "b"):
        if abs(getattr(cfg, name)) > MAX_AMPLITUDE:
            raise ConfigError(f"{name} must lie in [{-MAX_AMPLITUDE:g}, {MAX_AMPLITUDE:g}], "
                              f"got {getattr(cfg, name)}")
    if not 0 < cfg.delta_rel <= MAX_DELTA_REL:
        raise ConfigError(f"delta_rel must lie in (0, {MAX_DELTA_REL:g}], got {cfg.delta_rel}")
    if cfg.turnovers <= 0 and cfg.t_end <= 0:
        raise ConfigError("one of turnovers or t_end must be positive")
    # a horizon at or below 0 is unset
    for name, hi in (("turnovers", MAX_TURNOVERS), ("t_end", MAX_T_END)):
        if getattr(cfg, name) > hi:
            raise ConfigError(f"{name} must lie in (-inf, {hi:g}], got {getattr(cfg, name)}")
    # rotate-demo runs one period, 2 pi / |omega_rot|, which is a horizon
    # like t_end
    if cfg.omega_rot != 0 and 2.0 * math.pi / abs(cfg.omega_rot) > MAX_T_END:
        raise ConfigError(f"omega_rot must be 0 or have its period 2 pi / |omega_rot| "
                          f"<= {MAX_T_END:g}, got {cfg.omega_rot}")
    # integer keys: the resolutions a basis is built on, positive counts, and
    # the Bessel orders and zero indices that the tables hold
    for name, lo, hi in (("seed", 0, math.inf), ("n_theta_modes", 1, MAX_ORDER),
                         ("k_radial", 1, math.inf), ("n_r", 3, MAX_RADIAL_NODES),
                         ("n_theta", 4, MAX_ANGLES), ("cadence", 1, math.inf),
                         ("seeds", 1, MAX_SEEDS), ("max_iters", 1, MAX_ASCENT_ITERS),
                         ("n_uniform", 1, MAX_N_UNIFORM),
                         ("family_n", 0, MAX_ORDER), ("bessel_n_max", 0, MAX_ORDER),
                         ("family_k", 1, cfg.k_radial), ("bessel_k_max", 1, MAX_ZERO_INDEX)):
        if not lo <= getattr(cfg, name) <= hi:
            raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {getattr(cfg, name)}")
    # rotate-demo recovers a rotation rate and sharpness-demo rotation angles
    # from the phase of the element's cos(n theta + beta) part: b = 0 or
    # family_n = 0 leaves no phase, and omega_rot = 0 no rotation
    if cfg.kind in ("rotate-demo", "sharpness-demo") and (cfg.b == 0 or cfg.family_n == 0):
        raise ConfigError(f"{cfg.kind} needs an element with a phase, b != 0 and "
                          f"family_n >= 1, got b = {cfg.b} and family_n = {cfg.family_n}")
    if cfg.kind == "rotate-demo" and cfg.omega_rot == 0:
        raise ConfigError("rotate-demo needs a nonzero omega_rot, got 0")
    return cfg


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Total parse of the flat key = value format, defaults for omissions.

    ``kind`` from the command line must agree with an in-file kind if both
    are present.  Unknown keys and malformed lines are errors that carry the
    line number.
    """
    cfg = ExperimentConfig()
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {raw!r}", ln)
        key, _, val = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}", ln)
        setattr(cfg, key, _coerce(key, val.strip(), ln))
    if kind:
        if cfg.kind and cfg.kind != kind:
            raise ConfigError(
                f"kind mismatch: command line says {kind!r}, config says {cfg.kind!r}"
            )
        cfg.kind = kind
    if not cfg.kind:
        raise ConfigError("kind is required (positional argument or config key)")
    return _validate(cfg)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path, header, rows, chash):
    with open(path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


_TRACE_HEADER = [f.name for f in dc_fields(TraceRow)]


# ---------------------------------------------------------------------------
# Experiment bodies: each returns (passed, rows, header, extra_manifest)


def _exp_bessel_table(cfg, rng, outdir):
    rows = certified_zeros(cfg.bessel_n_max, cfg.bessel_k_max)
    passed = True
    if cfg.bessel_n_max >= 1:
        passed = abs(rows[cfg.bessel_k_max][2] - 3.831706) <= 1e-6   # j_{1,1}
    return passed, rows, ["n", "k", "zero", "error_bound"], {}


def _exp_verify_identities(cfg, rng, outdir):
    j = bessel_zero(1, 1)
    samples = [0.5, 1.0, 2.0, j, 5.0, 8.0]
    report = verify_identity_suite(samples)
    rows = [(name, resid) for name, resid in sorted(report.items())]
    passed = all(resid <= 1e-9 for _, resid in rows)
    return passed, rows, ["identity", "max_residual"], {"s_samples": samples}


def _exp_eigs(cfg, rng, outdir):
    basis = cfg.basis()
    j = bessel_zero(1, 1)
    r1 = solve_v1(basis)
    r2 = solve_v2(basis)
    b_unit = 1.0 / math.sqrt(math.pi * bessel_j(0, j) ** 2 / 2.0)
    proj, _ = orbital_distance(r2.maximizer, VElement(0.0, b_unit, 0.0), 2.0)
    checks = {
        "m": (r1.value, abs(r1.value - j * j) / (j * j) <= 1e-6),
        "M": (r2.value, abs(r2.value - 1.0 / (j * j)) * (j * j) <= 1e-6),
        "m_times_M": (r1.value * r2.value, abs(r1.value * r2.value - 1.0) <= 1e-6),
        "relation_residual": (r2.relation_residual, r2.relation_residual <= 1e-6),
        "v_projection_residual": (proj, proj <= 1e-5),
        "boundary_constant": (r1.boundary_constant, True),
    }
    rows = [(k, v, "pass" if ok else "FAIL") for k, (v, ok) in checks.items()]
    return all(ok for _, ok in checks.values()), rows, ["quantity", "value", "status"], {}


def _exp_steady_check(cfg, rng, outdir):
    basis = cfg.basis()
    rows = []
    passed = True
    elements = [cfg.element(),
                VElement(1.0, 0.0, 0.0),
                VElement(0.0, 1.0, 1.2),
                VElement(-0.6, 0.8, 2.1)]
    for ve in elements:
        rep = verify_steady(ve, basis)
        ok = rep.functional_residual <= 1e-8 and rep.tendency_rel <= 1e-6
        passed &= ok
        rows.append((ve.a, ve.b, ve.beta, ve.family[0], ve.family[1],
                     rep.functional_residual, rep.tendency_rel,
                     "pass" if ok else "FAIL"))
    # control: mixed eigenvalues must NOT look steady
    mix = mixed_nonsteady_field(basis)
    tnorm = lp_norm(to_grid(tendency(mix)), 2) / lp_norm(to_grid(mix), 2)
    detect = tnorm > 1e-3
    passed &= detect
    rows.append(("mixed", "", "", "", "", "", tnorm, "pass" if detect else "FAIL"))
    return passed, rows, ["a", "b", "beta", "family_n", "family_k",
                          "functional_residual", "tendency_rel", "status"], {}


def _exp_burton(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    target = v_element_grid(ve, basis.grid)
    nrm = lp_norm(target, 2)
    rows = []
    n_ok = 0
    steps, stalled = [], []
    for s in range(cfg.seeds):
        seed_field = ring_shuffle(target, rng)
        res = burton_maximize(ve, seed_field, basis, max_iters=cfg.max_iters,
                              p=cfg.p, trace_distance=True)
        ok = res.distance <= 1e-3 * nrm
        n_ok += ok
        steps.append(len(res.energies) - 1)
        if res.converged:           # the 8-step stall rule, not the orbit
            stalled.append(s)
        for it, (e, d) in enumerate(zip(res.energies, res.distances)):
            rows.append((s, it, e, d))
        if s == 0:
            save_field(Path(outdir) / "fields" / "ascent_final.json", res.final,
                       extra={"config_hash": config_hash(cfg)})
    passed = n_ok >= max(1, cfg.seeds - 1)
    return passed, rows, ["seed", "iteration", "energy", "orbital_distance"], {
        "converged_runs": n_ok, "total_runs": cfg.seeds,
        "ascent_steps": steps, "stalled_runs": stalled}


def _perturbation(cfg, kind, p, ve, target, basis, rng):
    """(perturbation, delta): a ``kind`` perturbation of ve of L^p size
    delta = delta_rel |target|_p, None for kind "none"."""
    delta = cfg.delta_rel * lp_norm(target, p)
    if kind == "none":
        return None, delta
    return make_perturbation(kind, ve, delta, p, basis, rng,
                             mode=(cfg.pert_mode_n, cfg.pert_mode_k)), delta


def _conserves(res):        # the evolution gate on the energy and L2 drifts
    return res.energy_drift <= 1e-6 and res.l2_drift <= 1e-4


def _exp_evolve(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    pert, _ = _perturbation(cfg, cfg.perturbation, cfg.p, ve,
                            v_element_grid(ve, basis.grid), basis, rng)
    t_end = cfg.t_end if cfg.t_end > 0 else None
    res = run_stability_experiment(ve, pert, cfg.p, t_end=t_end,
                                   turnovers=cfg.turnovers, basis=basis,
                                   cfl_safety=cfg.cfl_safety, cadence=cfg.cadence)
    passed = _conserves(res)
    if cfg.perturbation == "none":
        passed &= res.max_distance <= 1e-6
    state_final = res.trace[-1]
    chash = config_hash(cfg)
    for name, g in (("initial", res.initial_field), ("final", res.final_field)):
        save_field(Path(outdir) / "fields" / f"{name}.json", g,
                   extra={"config_hash": chash})
    extra = {
        "max_distance": res.max_distance,
        "energy_drift": res.energy_drift,
        "l2_drift": res.l2_drift,
        "lp_drift": res.lp_drift,
        "mean_drift": res.mean_drift,
        "final_t": state_final.t,
        **res.extra,        # profile_drift, rk4_steps, dt_min, dt_max
    }
    return passed, [astuple(r) for r in res.trace], _TRACE_HEADER, extra


def _exp_stability_sweep(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    target = v_element_grid(ve, basis.grid)
    rows = []
    passed = True
    for p in (1.5, 2.0, 4.0):
        for kind in ("random-shuffle", "mode-injection", "smooth-random"):
            pert, delta = _perturbation(cfg, kind, p, ve, target, basis, rng)
            res = run_stability_experiment(ve, pert, p, turnovers=cfg.turnovers,
                                           basis=basis, cfl_safety=cfg.cfl_safety,
                                           cadence=cfg.cadence)
            ratio = res.max_distance / delta
            ok = ratio <= 50.0 and _conserves(res)
            passed &= ok
            rows.append((p, kind, delta, res.max_distance, ratio,
                         res.energy_drift, res.l2_drift,
                         "pass" if ok else "FAIL"))
    return passed, rows, ["p", "kind", "delta", "max_distance",
                          "distance_over_delta", "energy_drift", "l2_drift",
                          "status"], {}


def _exp_rotate(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    pert, _ = _perturbation(cfg, cfg.perturbation, cfg.p, ve,
                            v_element_grid(ve, basis.grid), basis, rng)
    res = run_rotating_orbit_experiment(ve, cfg.omega_rot, pert, cfg.p,
                                        basis=basis, periods=1.0,
                                        cfl_safety=cfg.cfl_safety,
                                        cadence=cfg.cadence)
    rec = res.extra["recovered_omega"]
    passed = abs(rec - cfg.omega_rot) <= 0.01 * abs(cfg.omega_rot)
    if pert is None:
        passed &= res.max_distance <= 1e-6
    extra = {"recovered_omega": rec, "omega_rot": cfg.omega_rot,
             "max_distance": res.max_distance, **res.extra}
    return passed, [astuple(r) for r in res.trace], _TRACE_HEADER, extra


def _exp_sharpness(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    n = cfg.n_uniform
    target = v_element_grid(ve, basis.grid)
    rows = []
    passed = True
    for frac in (0.25, 0.5, 1.0):
        # the offset 2 / n turns ve rigidly at rate 1 / n: by t = n beta it
        # lies on its orbit at angle beta
        beta = math.pi * frac
        res = run_rotating_orbit_experiment(ve, 1.0 / n, None, cfg.p, t_end=n * beta,
                                            basis=basis, cfl_safety=cfg.cfl_safety,
                                            cadence=cfg.cadence)
        dist = res.trace[-1].orbital_distance
        phase = (-res.trace[-1].beta_star) % (2.0 * math.pi)
        plain = plain_distance(res.final_field, target, cfg.p)
        separation = plain_distance(
            v_element_grid(ve.rotated(-beta), basis.grid), target, cfg.p
        )
        ok = abs(phase - beta) <= 0.02 * beta and plain >= 0.5 * separation
        passed &= ok
        rows.append((beta, phase, dist, plain, separation,
                     "pass" if ok else "FAIL"))
    return passed, rows, ["beta", "recovered_phase", "orbit_distance",
                          "plain_distance", "orbit_separation", "status"], {}


_EXPERIMENTS = {
    "bessel-table": _exp_bessel_table,
    "verify-identities": _exp_verify_identities,
    "eigs": _exp_eigs,
    "steady-check": _exp_steady_check,
    "burton-maximize": _exp_burton,
    "evolve": _exp_evolve,
    "stability-sweep": _exp_stability_sweep,
    "rotate-demo": _exp_rotate,
    "sharpness-demo": _exp_sharpness,
}
KINDS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig, outdir) -> int:
    """Execute the configured experiment; returns the process exit status.
    A run that raises leaves its manifest too, with the error."""
    outdir = Path(outdir)
    (outdir / "fields").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    chash = config_hash(cfg)
    manifest = {
        "kind": cfg.kind,
        "config": asdict(cfg),
        "config_hash": chash,
        "seed": cfg.seed,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "blas_idle": BLAS_IDLE_POLICY,
    }
    t0 = time.time()
    try:
        passed, rows, header, extra = _EXPERIMENTS[cfg.kind](cfg, rng, outdir)
        _write_csv(outdir / "results.csv", header, rows, chash)
    except Exception as exc:
        passed, extra = False, {"error": f"{type(exc).__name__}: {exc}"}
        raise
    finally:
        manifest.update(wall_time_s=time.time() - t0, passed=bool(passed))
        manifest.update(extra)
        with open(outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=float)
    return 0 if passed else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diskvort",
        description="Steady Bessel vortex states in the unit disk: experiments",
    )
    parser.add_argument("kind", choices=KINDS, help="experiment to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    parser.add_argument("--out", type=Path, default=Path("diskvort-out"),
                        help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    try:
        text = args.config.read_text() if args.config else ""
        cfg = parse_config(text, kind=args.kind)
        if args.seed is not None:
            cfg.seed = args.seed
            _validate(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        status = run_experiment(cfg, args.out)
    except (ResolutionError, ConfigError) as exc:
        # a resolution that cannot hold the configured element or field, or
        # an element without velocity or perturbation to scale a run by
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteFieldError, AscentError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:            # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if status == 0:
        print(f"{cfg.kind}: pass (outputs in {args.out})")
    else:
        print(f"{cfg.kind}: TOLERANCE FAILURE (outputs in {args.out})",
              file=sys.stderr)
    return status


if __name__ == "__main__":             # pragma: no cover
    sys.exit(main())
