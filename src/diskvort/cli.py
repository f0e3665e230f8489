"""Command-line harness: reproducible experiments with structured output.

Config files are flat ``key = value`` text; ``#`` starts a comment.  The
fields of ``ExperimentConfig`` are the keys: each declares its type, its
default, the kinds whose runs read it and the bounds those kinds check.
Unknown keys, values that do not parse and non-finite floats are errors for
every kind, and a value outside its key's bounds is an error for the kinds
that read the key.  Every run writes, under the output directory, a
``manifest.json`` (config echo, config hash, seed, versions, BLAS idle
policy, wall time, pass flag), a ``results.csv`` whose first line carries the
config hash, and, where fields are produced, ``fields/*.json`` in the
documented serialization schema.  The same config and seed reproduce the
same CSV bytes.

Each kind calls the library and writes its record: ``bessel-table`` the
rows of ``bessel.certified_zeros``, ``evolve`` and ``rotate-demo`` the
``euler_sim.TraceRow`` fields of the stability and rotating-orbit drivers,
and ``sharpness-demo`` the last row and final field of one rotating-orbit
run per angle.

Exit status: 0 all asserted tolerances pass, 2 configuration error (also a
family or field outside the basis or its dealias band, an empty dealias
band, a turnover horizon on a field at rest, a perturbation that vanishes,
or a ``rotate-demo`` or ``sharpness-demo`` with no rotation to recover), 3
tolerance failure or numerical failure (a non-finite field, or an ascent
step that lowered the energy of an in-class iterate, a defect), 1 unexpected
error.  A run that raises still writes its manifest, with the error under
``error``.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields as dc_fields
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
from .radial_channel import RadialBackground
from .steady_family import VElement, j_11, orbital_distance, plain_distance, v_element_grid
from .variational import burton_maximize, solve_v1, solve_v2

KINDS = ("bessel-table", "verify-identities", "eigs", "steady-check", "burton-maximize",
         "evolve", "stability-sweep", "rotate-demo", "sharpness-demo")
# the kinds that build a basis; of those, the ones that build the configured
# element; of those, the ones that step it in time
_BASIS, _ELEMENT, _STEPPING = KINDS[2:], KINDS[3:], KINDS[5:]
_PERTURBING = ("evolve", "stability-sweep", "rotate-demo")
# the largest zero index of a bessel-table: the zero scan's time and memory
# grow with the index, and the (64, 1000) table takes ~9 s, with a 48 MB
# peak RSS, on a 2-core x86 VM
MAX_ZERO_INDEX = 1000
# the largest t_end, and the longest rotate-demo period 2 pi / |omega_rot|
MAX_T_END = 50000.0


def _key(default, kinds, lo=None, hi=None, *, open_lo=False, choices=None, caps=None,
         horizon=False):
    """A config key: its default, the kinds whose runs read it, and the
    bounds that those kinds check, lo <= value <= hi (lo < value if open_lo;
    a bound may name another key) or value in choices.  ``caps`` names the
    count of work that a bound caps.  A ``horizon`` at or below 0 is unset,
    and a kind needs one of the horizons it reads positive."""
    return field(default=default, metadata=dict(kinds=kinds, lo=lo, hi=hi, open_lo=open_lo,
                                                choices=choices, caps=caps, horizon=horizon))


# A bound that caps work keeps one run on the default basis within about five
# minutes on a 2-core x86 VM at cfl_safety 0.4, p = 2 and cadence 10, where
# one turnover of default evolve takes 0.14 s (t_end: ~2.3 ms per time unit,
# 48 to a turnover), one ascent seed ~30 ms (~0.8 ms per step, which is one
# transplant, or two when its lead trial is rejected, a few percent of steps;
# so max_iters steps take ~80 s, and ~160 s were every trial rejected) and
# one unit of n_uniform ~11 ms.  The caps are sized at that p
# and cadence: a turnover takes 0.19 s at p = 1.5 and 0.65 s at p = 1.5 with
# cadence 1, so turnovers = 1000 runs ~11 min there.  The basis tables grow as
# n_theta_modes n_r k_radial (k_radial < n_r) and the Gauss-Legendre nodes as
# n_r^2: the largest accepted basis, DiskBasis(64, 254, DiskGrid(256, 1024)),
# builds in ~7 s with a 224 MB peak RSS.  Under a t_end horizon the step count
# grows with max|u|, which is linear in a, b and delta_rel: at the largest
# t_end the default element takes ~2 min, a = 1 ~3 min, and a = 1 with a
# mode-injection perturbation of delta_rel = 1 ~4.5 min.  Every shape a / b of
# the family has a member within the bound, larger amplitudes only rescale
# time (omega -> lambda omega, t -> t / lambda), and a perturbation larger
# than its element is no longer a perturbation of it.  The step count grows as
# 1 / cfl_safety (default evolve: 8029 steps at 0.4), so the floor 0.1 lets a
# run take up to 4x its budget at 0.4, ~18 min at the largest t_end with a = 1
# and delta_rel = 1; above 1 every refresh would step over the advective
# limit.
@dataclass
class ExperimentConfig:
    kind: str = _key("", KINDS)      # checked first: a kind selects the checks
    seed: int = _key(0, KINDS, 0)
    n_theta_modes: int = _key(16, _BASIS, 1, MAX_ORDER)
    k_radial: int = _key(32, _BASIS, 1)
    n_r: int = _key(80, _BASIS, 3, 256, caps="basis size")
    n_theta: int = _key(128, _BASIS, 4, 1024, caps="basis size")
    a: float = _key(0.0, _ELEMENT, -1.0, 1.0, caps="RK4 steps under t_end")
    b: float = _key(1.0, _ELEMENT, -1.0, 1.0, caps="RK4 steps under t_end")
    beta: float = _key(0.0, _ELEMENT)
    family_n: int = _key(1, _ELEMENT, 0, MAX_ORDER)
    family_k: int = _key(1, _ELEMENT, 1, "k_radial")
    p: float = _key(2.0, ("burton-maximize", "evolve", "rotate-demo", "sharpness-demo"),
                    1.0, open_lo=True)
    perturbation: str = _key("smooth-random", ("evolve", "rotate-demo"),
                             choices=("random-shuffle", "mode-injection", "smooth-random", "none"))
    # below 1e-12 the sum element + perturbation keeps fewer than ~4 digits
    # of the perturbation, and the orbital distance that rounding alone
    # leaves on an unperturbed run (<= 6e-16 relative over 20 turnovers)
    # nears it: stability-sweep's distance / delta then measures rounding
    delta_rel: float = _key(1e-3, _PERTURBING, 1e-12, 1.0, caps="RK4 steps under t_end")
    pert_mode_n: int = _key(2, _PERTURBING)
    pert_mode_k: int = _key(1, _PERTURBING)
    omega_rot: float = _key(0.3, ("rotate-demo",))
    n_uniform: int = _key(50, ("sharpness-demo",), 1, 10000, caps="RK4 steps")
    turnovers: float = _key(20.0, ("evolve", "stability-sweep"), hi=1000.0, caps="RK4 steps",
                            horizon=True)
    t_end: float = _key(0.0, ("evolve",), hi=MAX_T_END, caps="RK4 steps", horizon=True)
    cfl_safety: float = _key(0.4, _STEPPING, 0.1, 1.0, caps="RK4 steps")
    cadence: int = _key(10, _STEPPING, 1)
    seeds: int = _key(10, ("burton-maximize",), 1, 1000, caps="ascents")
    max_iters: int = _key(600, ("burton-maximize",), 1, 100000, caps="ascent steps per seed")
    bessel_n_max: int = _key(3, ("bessel-table",), 0, MAX_ORDER)
    bessel_k_max: int = _key(5, ("bessel-table",), 1, MAX_ZERO_INDEX, caps="zeros per order")

    def element(self):
        return VElement(self.a, self.b, self.beta, (self.family_n, self.family_k))

    def basis(self):
        return DiskBasis(self.n_theta_modes, self.k_radial,
                         DiskGrid(self.n_r, self.n_theta))


def _interval(lo, hi, open_lo):
    """Bounds as an interval; a bound may be the name of a key."""
    def text(bound):
        return bound if isinstance(bound, str) else format(bound, "g")

    left = "(-inf" if lo is None else ("(" if open_lo else "[") + text(lo)
    return left + ", " + ("inf)" if hi is None else text(hi) + "]")


def _validate(cfg: ExperimentConfig):
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown kind {cfg.kind!r}; expected one of {KINDS}")
    horizons = []
    for key in dc_fields(cfg):
        name, value, meta = key.name, getattr(cfg, key.name), key.metadata
        # every key is echoed into the manifest and the config hash, so every
        # kind checks its type and finiteness: NaN passes every comparison
        # unnoticed, and a non-finite value only surfaces deep inside a run
        if not isinstance(value, key.type):
            raise ConfigError(f"{name} must be {key.type.__name__}, got {value!r}")
        if key.type is float and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if cfg.kind not in meta["kinds"]:
            continue
        if meta["choices"] and value not in meta["choices"]:
            raise ConfigError(f"{name} must be one of {meta['choices']}, got {value!r}")
        lo, hi = (getattr(cfg, b) if isinstance(b, str) else b for b in (meta["lo"], meta["hi"]))
        if (lo is not None and (value <= lo if meta["open_lo"] else value < lo)
                or hi is not None and value > hi):
            raise ConfigError(f"{name} must lie in {_interval(lo, hi, meta['open_lo'])}, "
                              f"got {value}")
        if meta["horizon"]:
            horizons.append(name)
    if horizons and not any(getattr(cfg, name) > 0 for name in horizons):
        raise ConfigError(f"{cfg.kind} needs a positive {' or '.join(horizons)}")
    # rotate-demo runs one period, 2 pi / |omega_rot|, a horizon like t_end
    if cfg.kind == "rotate-demo":
        if cfg.omega_rot == 0:
            raise ConfigError("rotate-demo needs a nonzero omega_rot, got 0")
        if 2.0 * math.pi / abs(cfg.omega_rot) > MAX_T_END:
            raise ConfigError(f"omega_rot must have its period 2 pi / |omega_rot| "
                              f"<= {MAX_T_END:g}, got {cfg.omega_rot}")
    # rotate-demo recovers a rotation rate and sharpness-demo rotation angles
    # from the phase of the element's cos(n theta + beta) part: b = 0 or
    # family_n = 0 leaves no phase
    if cfg.kind in ("rotate-demo", "sharpness-demo") and (cfg.b == 0 or cfg.family_n == 0):
        raise ConfigError(f"{cfg.kind} needs an element with a phase, b != 0 and "
                          f"family_n >= 1, got b = {cfg.b} and family_n = {cfg.family_n}")
    return cfg


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Total parse of the flat key = value format, defaults for omissions.

    ``kind`` from the command line must agree with an in-file kind if both
    are present.  Unknown keys and malformed lines are errors that carry the
    line number.
    """
    cfg = ExperimentConfig()
    types = {key.name: key.type for key in dc_fields(cfg)}
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {raw!r}", ln)
        key, _, val = stripped.partition("=")
        key, val = key.strip().replace("-", "_"), val.strip()
        if key not in types:
            raise ConfigError(f"unknown key {key!r}", ln)
        try:
            setattr(cfg, key, types[key](val))
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse {val!r}", ln)
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
    zero = RadialBackground(0.0, j_11(), basis)     # the zero channel; j_11 only labels it
    tnorm = lp_norm(to_grid(tendency(mix, zero)), 2) / lp_norm(to_grid(mix), 2)
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
    steps, transplants, stalled = [], [], []
    for s in range(cfg.seeds):
        seed_field = ring_shuffle(target, rng)
        res = burton_maximize(ve, seed_field, basis, max_iters=cfg.max_iters,
                              p=cfg.p, trace_distance=True)
        ok = res.distance <= 1e-3 * nrm
        n_ok += ok
        steps.append(len(res.energies) - 1)
        transplants.append(steps[-1] + res.rejected)
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
        "ascent_steps": steps, "ascent_transplants": transplants, "stalled_runs": stalled}


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
        **res.extra,        # rk4_steps, dt_min, dt_max, casimir3_drift
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
    rec = res.extra.get("recovered_omega")      # None: no rate resolved
    passed = rec is not None and abs(rec - cfg.omega_rot) <= 0.01 * abs(cfg.omega_rot)
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


_EXPERIMENTS = dict(zip(KINDS, (_exp_bessel_table, _exp_verify_identities, _exp_eigs,
                                _exp_steady_check, _exp_burton, _exp_evolve,
                                _exp_stability_sweep, _exp_rotate, _exp_sharpness)))


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
