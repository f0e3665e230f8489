"""Command-line harness: reproducible experiments with structured output.

Config files are flat ``key = value`` text; ``#`` starts a comment.  Unknown
keys are errors, as are out-of-range values.  Every run writes, under the
output directory, a ``manifest.json`` (config echo, config hash, seed,
versions, wall time, pass flag), a ``results.csv`` whose first line carries
the config hash, and, where fields are produced, ``fields/*.json`` in the
documented serialization schema.  The same config and seed reproduce the
same CSV bytes.

Exit status: 0 all asserted tolerances pass, 2 configuration error (also a
family or field outside the basis or its dealias band, a turnover horizon
on a field at rest or a perturbation that vanishes), 3 tolerance failure or
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
from dataclasses import asdict, dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__
from .bessel import MAX_ORDER, ZeroTable, bessel_j, bessel_zero, verify_identity_suite
from .disk_spectral import (
    DiskBasis,
    DiskGrid,
    GridField,
    SpectralField,
    lp_norm,
    ring_shuffle,
    save_field,
    to_grid,
)
from .errors import AscentError, ConfigError, NonFiniteFieldError, ResolutionError
from .euler_sim import (
    RunConfig,
    make_perturbation,
    mixed_nonsteady_field,
    run,
    run_rotating_orbit_experiment,
    run_stability_experiment,
    steady_state,
)
from .steady_family import (
    VElement,
    orbital_distance,
    plain_distance,
    v_element_grid,
    verify_steady,
)
from .variational import burton_maximize, solve_v1, solve_v2

KINDS = (
    "bessel-table",
    "verify-identities",
    "eigs",
    "steady-check",
    "burton-maximize",
    "evolve",
    "stability-sweep",
    "rotate-demo",
    "sharpness-demo",
)


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
        if typ is int or typ == "int":
            val = int(raw)
        elif typ is float or typ == "float":
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
    if cfg.delta_rel <= 0:
        raise ConfigError(f"delta_rel must be positive, got {cfg.delta_rel}")
    if cfg.turnovers <= 0 and cfg.t_end <= 0:
        raise ConfigError("one of turnovers or t_end must be positive")
    # integer keys: the smallest resolutions a basis is built on, positive
    # counts, and the Bessel orders and zero indices that the tables hold
    for name, lo, hi in (("seed", 0, math.inf), ("n_theta_modes", 1, math.inf),
                         ("k_radial", 1, math.inf), ("n_r", 3, math.inf),
                         ("n_theta", 4, math.inf), ("cadence", 1, math.inf),
                         ("seeds", 1, math.inf), ("max_iters", 1, math.inf),
                         ("n_uniform", 1, math.inf),
                         ("family_n", 0, MAX_ORDER), ("bessel_n_max", 0, MAX_ORDER),
                         ("family_k", 1, math.inf), ("bessel_k_max", 1, math.inf)):
        if not lo <= getattr(cfg, name) <= hi:
            raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {getattr(cfg, name)}")
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


def _trace_rows(trace):
    return [
        (r.t, r.energy, r.l2, r.lp, r.mean, r.orbital_distance, r.beta_star)
        for r in trace
    ]


_TRACE_HEADER = ["t", "energy", "l2", "lp", "mean", "orbital_distance", "beta_star"]


# ---------------------------------------------------------------------------
# Experiment bodies: each returns (passed, rows, header, extra_manifest)


def _exp_bessel_table(cfg, rng, outdir):
    table = ZeroTable.build(cfg.bessel_n_max, cfg.bessel_k_max)
    rows = [
        (n, k, z, bound) for (n, k), (z, bound) in sorted(table.entries.items())
    ]
    passed = True
    if cfg.bessel_n_max >= 1 and cfg.bessel_k_max >= 1:
        passed = abs(table.zero(1, 1) - 3.831706) <= 1e-6
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
    from .euler_sim import tendency

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
    for s in range(cfg.seeds):
        seed_field = ring_shuffle(target, rng)
        res = burton_maximize(ve, seed_field, basis, max_iters=cfg.max_iters,
                              p=cfg.p, trace_distance=True)
        ok = res.distance <= 1e-3 * nrm
        n_ok += ok
        for it, (e, d) in enumerate(zip(res.energies, res.distances)):
            rows.append((s, it, e, d))
        if s == 0:
            save_field(Path(outdir) / "fields" / "ascent_final.json", res.final,
                       extra={"config_hash": config_hash(cfg)})
    passed = n_ok >= max(1, cfg.seeds - 1)
    return passed, rows, ["seed", "iteration", "energy", "orbital_distance"], {
        "converged_runs": n_ok, "total_runs": cfg.seeds}


def _perturbation(cfg, ve, basis, rng):
    if cfg.perturbation == "none":
        return None
    target = v_element_grid(ve, basis.grid)
    delta = cfg.delta_rel * lp_norm(target, cfg.p)
    return make_perturbation(cfg.perturbation, ve, delta, cfg.p, basis, rng,
                             mode=(cfg.pert_mode_n, cfg.pert_mode_k))


def _exp_evolve(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    pert = _perturbation(cfg, ve, basis, rng)
    if pert is None:
        from .disk_spectral import zero_field

        pert = zero_field(basis)
    t_end = cfg.t_end if cfg.t_end > 0 else None
    chash = config_hash(cfg)
    initial = steady_state(ve, basis)
    initial.w = SpectralField(basis, initial.w.coeffs + pert.coeffs)
    save_field(Path(outdir) / "fields" / "initial.json",
               initial.full_grid_values(), extra={"config_hash": chash})
    res = run_stability_experiment(ve, pert, cfg.p, t_end=t_end,
                                   turnovers=cfg.turnovers, basis=basis,
                                   cfl_safety=cfg.cfl_safety, cadence=cfg.cadence)
    passed = res.energy_drift <= 1e-6 and res.l2_drift <= 1e-4
    if cfg.perturbation == "none":
        passed &= res.max_distance <= 1e-6
    state_final = res.trace[-1]
    if res.final_field is not None:
        save_field(Path(outdir) / "fields" / "final.json", res.final_field,
                   extra={"config_hash": chash})
    extra = {
        "max_distance": res.max_distance,
        "energy_drift": res.energy_drift,
        "l2_drift": res.l2_drift,
        "lp_drift": res.lp_drift,
        "mean_drift": res.mean_drift,
        "profile_drift": res.extra.get("profile_drift"),
        "final_t": state_final.t,
    }
    return passed, _trace_rows(res.trace), _TRACE_HEADER, extra


def _exp_stability_sweep(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    rows = []
    passed = True
    extra = {}
    for p in (1.5, 2.0, 4.0):
        for kind in ("random-shuffle", "mode-injection", "smooth-random"):
            target = v_element_grid(ve, basis.grid)
            delta = cfg.delta_rel * lp_norm(target, p)
            pert = make_perturbation(kind, ve, delta, p, basis, rng,
                                     mode=(cfg.pert_mode_n, cfg.pert_mode_k))
            res = run_stability_experiment(ve, pert, p, turnovers=cfg.turnovers,
                                           basis=basis, cfl_safety=cfg.cfl_safety,
                                           cadence=cfg.cadence)
            ratio = res.max_distance / delta
            ok = ratio <= 50.0 and res.energy_drift <= 1e-6 and res.l2_drift <= 1e-4
            passed &= ok
            rows.append((p, kind, delta, res.max_distance, ratio,
                         res.energy_drift, res.l2_drift,
                         "pass" if ok else "FAIL"))
    return passed, rows, ["p", "kind", "delta", "max_distance",
                          "distance_over_delta", "energy_drift", "l2_drift",
                          "status"], extra


def _exp_rotate(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    pert = None if cfg.perturbation == "none" else _perturbation(cfg, ve, basis, rng)
    res = run_rotating_orbit_experiment(ve, cfg.omega_rot, pert, cfg.p,
                                        basis=basis, periods=1.0,
                                        cfl_safety=cfg.cfl_safety,
                                        cadence=cfg.cadence)
    rec = res.extra.get("recovered_omega", math.nan)
    passed = abs(rec - cfg.omega_rot) <= 0.01 * abs(cfg.omega_rot)
    if pert is None:
        passed &= res.max_distance <= 1e-6
    extra = {"recovered_omega": rec, "omega_rot": cfg.omega_rot,
             "max_distance": res.max_distance}
    return passed, _trace_rows(res.trace), _TRACE_HEADER, extra


def _exp_sharpness(cfg, rng, outdir):
    basis = cfg.basis()
    ve = cfg.element()
    n = cfg.n_uniform
    uniform = 2.0 / n
    target = v_element_grid(ve, basis.grid)
    rows = []
    passed = True
    for frac in (0.25, 0.5, 1.0):
        beta = math.pi * frac
        st = steady_state(ve, basis, uniform)
        rcfg = RunConfig(t_end=n * beta, cfl_safety=cfg.cfl_safety,
                         cadence=cfg.cadence, p=cfg.p, reference=ve)
        st = run(st, rcfg)
        om = st.full_grid_values()
        shifted = GridField(om.grid, om.values - uniform)
        dist, bstar = orbital_distance(shifted, ve, cfg.p)
        phase = (-bstar) % (2.0 * math.pi)
        plain = plain_distance(om, target, cfg.p)
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
