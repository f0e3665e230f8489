import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from diskvort import cli, euler_sim, steady_family, variational
from diskvort.disk_spectral import GridField, transplant
from diskvort.errors import ConfigError, NonFiniteFieldError


def test_parse_defaults_require_kind():
    with pytest.raises(ConfigError, match="kind is required"):
        cli.parse_config("")


def test_parse_kind_from_cli():
    cfg = cli.parse_config("", kind="eigs")
    assert cfg.kind == "eigs"
    assert cfg.p == 2.0 and cfg.n_theta_modes == 16


def test_parse_kind_in_file():
    cfg = cli.parse_config("kind = eigs\n")
    assert cfg.kind == "eigs"


def test_kind_mismatch():
    with pytest.raises(ConfigError, match="mismatch"):
        cli.parse_config("kind = eigs\n", kind="evolve")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        cli.parse_config("kind = eigs\n\nbogus = 1\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        cli.parse_config("kind = eigs\nseeds = nope\n")


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config("this is not a key value pair\n", kind="eigs")


def test_p_must_exceed_one():
    with pytest.raises(ConfigError, match="p must lie"):
        cli.parse_config("p = 0.5\n", kind="evolve")
    with pytest.raises(ConfigError, match="p must lie"):
        cli.parse_config("p = 1.0\n", kind="evolve")
    # eigs reads no p
    assert cli.parse_config("p = 0.5\n", kind="eigs").p == 0.5


def _no_step(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(euler_sim, "step_rk4", no_step)


def test_cfl_safety_must_be_positive(tmp_path, monkeypatch):
    # above 1 every refresh would step over the advective limit: cfl_safety
    # = 1.2 used to print "evolve: pass"; below the floor 0.1 the step count,
    # which grows as 1 / cfl_safety, leaves the horizons' budget by more than
    # 4x: cfl_safety = 1e-300 ran until it was stopped
    _no_step(monkeypatch)
    floor = 0.1
    for value in ("0", "-0.4", "1.2", "1e-300", repr(math.nextafter(floor, 0.0))):
        with pytest.raises(ConfigError, match=r"cfl_safety must lie in \[0.1, 1\]"):
            cli.parse_config(f"cfl_safety = {value}\n", kind="evolve")
    for value in ("inf", "nan"):
        with pytest.raises(ConfigError, match="cfl_safety must be finite"):
            cli.parse_config(f"cfl_safety = {value}\n", kind="evolve")
    for kind in ("evolve", "stability-sweep", "rotate-demo", "sharpness-demo"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"cfl_safety = {math.nextafter(floor, 0.0)!r}\n")
        assert cli.main([kind, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
    for value in (floor, 1.0):
        assert cli.parse_config(f"cfl_safety = {value}\n", kind="evolve").cfl_safety == value


def test_non_finite_horizons_rejected(tmp_path):
    # a NaN or infinite horizon or perturbation size used to pass validation:
    # evolve with turnovers = nan printed "evolve: pass" after one row at t = 0
    for key in ("turnovers", "t_end", "delta_rel"):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                cli.parse_config(f"{key} = {value}\n", kind="evolve")
    bad = tmp_path / "bad.cfg"
    bad.write_text("turnovers = nan\n")
    assert cli.main(["evolve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_removed_dt_keys_rejected(tmp_path):
    # the fixed-dt policy is gone: its keys are unknown, not silently ignored
    for line in ("dt_policy = fixed", "dt = 0.001"):
        with pytest.raises(ConfigError, match=r"line 2: unknown key"):
            cli.parse_config(f"a = 0.4\n{line}\n", kind="evolve")
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"a = 0.4\n{line}\n")
        assert cli.main(["evolve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


def _keys_read(tree):
    """kind -> the config keys its run reads: those its _exp_* body and
    run_experiment read as cfg.<key>, themselves, through
    ExperimentConfig.element / basis, and through the cli functions they call"""
    config_class = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    methods = {node.name: node for node in config_class.body if isinstance(node, ast.FunctionDef)}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    fields = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}

    def reads(node, seen):
        out = set()
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id in ("cfg", "self")):
                if sub.attr in methods and sub.attr not in seen:
                    out |= reads(methods[sub.attr], seen | {sub.attr})
                out |= {sub.attr} & fields
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and sub.func.id in functions and sub.func.id not in seen):
                out |= reads(functions[sub.func.id], seen | {sub.func.id})
        return out

    common = reads(functions["run_experiment"], {"run_experiment"})
    return {kind: common | reads(functions[body.__name__], {body.__name__})
            for kind, body in cli._EXPERIMENTS.items()}


def _schema_readers():
    return {kind: {f.name for f in dataclasses.fields(cli.ExperimentConfig)
                   if kind in f.metadata["kinds"]} for kind in cli.KINDS}


def test_every_config_field_is_read():
    # each kind reads exactly the keys whose schema entry names it, so that a
    # kind is checked on every key it reads and on no other, and a dead knob
    # cannot come back
    assert tuple(cli._EXPERIMENTS) == cli.KINDS
    tree = ast.parse(Path(cli.__file__).read_text())
    assert _keys_read(tree) == _schema_readers()
    assert set().union(*_schema_readers().values()) == {
        f.name for f in dataclasses.fields(cli.ExperimentConfig)}


def test_read_check_sees_a_key_the_schema_omits():
    # the check above fails when a kind reads a key that its schema entry
    # does not name: here eigs made to read omega_rot
    tree = ast.parse(Path(cli.__file__).read_text())
    eigs = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_exp_eigs")
    eigs.body.insert(0, ast.parse("cfg.omega_rot").body[0])
    read = _keys_read(tree)
    assert read["eigs"] - _schema_readers()["eigs"] == {"omega_rot"}
    assert {k: v for k, v in read.items() if k != "eigs"} == {
        k: v for k, v in _schema_readers().items() if k != "eigs"}


def test_comments_and_blanks_ok():
    cfg = cli.parse_config("# header\n\nkind = eigs  # trailing\np = 2.5\n")
    assert cfg.p == 2.5


def test_hyphen_alias():
    cfg = cli.parse_config("k-radial = 24\n", kind="eigs")
    assert cfg.k_radial == 24


def test_bessel_table_run(tmp_path):
    rc = cli.main(["bessel-table", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out"
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "n,k,zero,error_bound"
    assert len(lines) == 2 + 4 * 5
    got = {(int(n), int(k)): float(z) for n, k, z, _ in (ln.split(",") for ln in lines[2:])}
    assert abs(got[(1, 1)] - 3.831706) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["kind"] == "bessel-table"
    assert lines[0].split("=")[1] == manifest["config_hash"]


def test_determinism_same_seed(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("n_theta_modes = 8\nk_radial = 12\nn_r = 32\nn_theta = 32\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["eigs", "--config", str(cfgfile), "--out", str(a), "--seed", "5"]) == 0
    assert cli.main(["eigs", "--config", str(cfgfile), "--out", str(b), "--seed", "5"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p = 0.5\n")
    assert cli.main(["evolve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["eigs", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2


def test_tolerance_failure_exit_code(tmp_path, monkeypatch):
    def failing(cfg, rng, outdir):
        return False, [("x", 1.0)], ["name", "value"], {}

    monkeypatch.setitem(cli._EXPERIMENTS, "eigs", failing)
    rc = cli.main(["eigs", "--out", str(tmp_path / "o")])
    assert rc == 3
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["passed"] is False


def test_non_finite_failure_exit_code(tmp_path, monkeypatch, capsys):
    def blow_up(cfg, outdir):
        raise NonFiniteFieldError("energy nan")

    monkeypatch.setattr(cli, "run_experiment", blow_up)
    assert cli.main(["eigs", "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: energy nan" in capsys.readouterr().err


def test_ascent_error_exit_code(tmp_path, capsys, monkeypatch):
    # on this coarse basis the midpoint transplant lowered the energy of seed
    # 7's ascent (AscentError); the slot-average ascent is monotone and fails
    # on distance only
    cfgfile = tmp_path / "b.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\n"
                       "a = 0.4\nseeds = 2\nmax_iters = 30\n")
    args = ["burton-maximize", "--config", str(cfgfile), "--seed", "7"]
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 3
    assert "TOLERANCE FAILURE" in capsys.readouterr().err
    # a transplant that halves its result from the second call on lowers the
    # energy of an in-class iterate: a numerical failure, with its manifest
    calls = []

    def halving(profile, onto):
        calls.append(onto)
        g = transplant(profile, onto)
        return GridField(g.grid, 0.5 * g.values) if len(calls) > 1 else g

    monkeypatch.setattr(variational, "transplant", halving)
    assert cli.main(args + ["--out", str(tmp_path / "e")]) == 3
    assert "numerical failure: transplantation decreased energy" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["error"].startswith("AscentError: transplantation decreased energy")
    # step 2's lead trial is rejected, and its plain fallback raises
    assert len(calls) == 3


def test_family_outside_band_exit_code(tmp_path, capsys):
    # family (1, 25) lies outside the dealias band (k <= 21 at k_radial = 32):
    # a configuration error, before any output is written
    cfgfile = tmp_path / "k.cfg"
    cfgfile.write_text("family_k = 25\nturnovers = 0.05\n")
    for kind in ("evolve", "steady-check"):
        out = tmp_path / kind
        assert cli.main([kind, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (out / "results.csv").exists()


@pytest.mark.parametrize("kind,key,value", [
    ("steady-check", "family_k", 0), ("evolve", "family_k", 0),
    ("steady-check", "family_n", -1), ("evolve", "family_n", -1),
    ("steady-check", "family_n", 70), ("evolve", "family_n", 70),
    ("bessel-table", "bessel_k_max", 0), ("bessel-table", "bessel_n_max", -1),
    ("bessel-table", "bessel_n_max", 65),
    ("steady-check", "family_k", 10**12), ("evolve", "family_k", 10**12),
    ("burton-maximize", "family_k", 10**12), ("evolve", "family_k", 11),
    ("bessel-table", "bessel_k_max", 10**12), ("bessel-table", "bessel_k_max", 1001),
    ("eigs", "n_theta_modes", 65), ("steady-check", "n_theta_modes", 65),
    ("evolve", "n_r", 10**12), ("evolve", "n_r", 257),
    ("evolve", "n_theta", 10**12), ("evolve", "n_theta", 1025),
    ("evolve", "turnovers", 10**12), ("evolve", "turnovers", 1001),
    ("stability-sweep", "turnovers", 10**12), ("evolve", "t_end", 10**12),
    ("evolve", "t_end", 50001), ("burton-maximize", "seeds", 10**12),
    ("burton-maximize", "seeds", 1001), ("burton-maximize", "max_iters", 10**12),
    ("burton-maximize", "max_iters", 100001), ("sharpness-demo", "n_uniform", 10**12),
    ("sharpness-demo", "n_uniform", 10001),
    ("evolve", "a", "1e12"), ("rotate-demo", "a", "-1e12"), ("evolve", "b", "1e12"),
    ("sharpness-demo", "b", "1.5"), ("evolve", "delta_rel", "1e12"),
    ("stability-sweep", "delta_rel", "1.5"),
])
def test_bessel_index_out_of_range_exit_code(tmp_path, capsys, kind, key, value):
    # these exited 1 with "error: ..." from the Bessel layer (bessel_n_max = -1
    # wrote an empty table and passed; family_k = 10**12 asked the zero scan
    # for 54.9 TiB, as bessel_k_max = 10**12 did; n_theta_modes = 65 on 140
    # angles reached the zero scan of order 65) or from memory (n_r and
    # n_theta = 10**12); family_k is bounded by k_radial = 10, bessel_k_max
    # by 1000, n_theta_modes by 64, n_r by 256 and n_theta by 1024; the
    # horizons and counts ran for as long as they asked, and are bounded by
    # the cli's MAX_TURNOVERS, MAX_T_END, MAX_SEEDS, MAX_ASCENT_ITERS and
    # MAX_N_UNIFORM; under a t_end horizon the step count grew with the
    # amplitudes a, b and delta_rel, bounded by MAX_AMPLITUDE and MAX_DELTA_REL
    cfgfile = tmp_path / "b.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 140\n"
                       f"turnovers = 0.05\n{key} = {value}\n")
    out = tmp_path / "o"
    assert cli.main([kind, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"config error: {key} must lie in" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_bessel_index_range_edges_accepted():
    # each edge through a kind that reads its key
    for kind, line in (
            ("steady-check", "family_n = 0"), ("steady-check", "family_n = 64"),
            ("bessel-table", "bessel_n_max = 0"), ("bessel-table", "bessel_n_max = 64"),
            ("steady-check", "family_k = 1"), ("bessel-table", "bessel_k_max = 1"),
            ("bessel-table", "bessel_k_max = 1000"), ("steady-check", "family_k = 32"),
            ("evolve", "k_radial = 10\nfamily_k = 10"), ("eigs", "n_theta_modes = 64"),
            ("eigs", "n_r = 256"), ("eigs", "n_theta = 1024"),
            ("stability-sweep", "turnovers = 1000"), ("evolve", "t_end = 50000"),
            ("burton-maximize", "seeds = 1000"), ("burton-maximize", "max_iters = 100000"),
            ("sharpness-demo", "n_uniform = 10000"), ("evolve", "turnovers = -1\nt_end = 1"),
            ("rotate-demo", "a = 1"), ("steady-check", "a = -1"), ("sharpness-demo", "b = 1"),
            ("rotate-demo", "b = -1"), ("stability-sweep", "delta_rel = 1"),
            ("rotate-demo", "delta_rel = 1e-12"), ("sharpness-demo", "cfl_safety = 0.1")):
        cli.parse_config(line + "\n", kind=kind)


def test_slow_rotation_exits_without_stepping(tmp_path, capsys, monkeypatch):
    # rotate-demo plans one period, 2 pi / |omega_rot|: at 1e-9 that is ~6.3e9
    # time units, which ran until a timeout killed it
    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(euler_sim, "step_rk4", no_step)
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\n"
                       "a = 0.4\nomega_rot = 1e-9\n")
    out = tmp_path / "o"
    assert cli.main(["rotate-demo", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "config error: omega_rot must" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_rotation_period_edge(basis, monkeypatch):
    # the config check accepts exactly the rates whose planned period, the
    # rotating driver's horizon, is at most MAX_T_END
    planned = []

    def plan(ve, pert, p, t_end, *args):
        planned.append(t_end)
        raise StopIteration

    monkeypatch.setattr(euler_sim, "_evolve_element", plan)
    edge = 2.0 * math.pi / cli.MAX_T_END
    verdicts = []
    for w in (edge, -edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0),
              math.nextafter(-edge, 0.0), 0.3):
        with pytest.raises(StopIteration):
            euler_sim.run_rotating_orbit_experiment(steady_family.VElement(0.0, 1.0), w, None, 2.0,
                                                    basis=basis)
        accepted = planned[-1] <= cli.MAX_T_END
        verdicts.append(accepted)
        if accepted:
            cli.parse_config(f"omega_rot = {w!r}\n", kind="rotate-demo")
        else:
            with pytest.raises(ConfigError, match="omega_rot must"):
                cli.parse_config(f"omega_rot = {w!r}\n", kind="rotate-demo")
    assert True in verdicts and False in verdicts
    # 0 has no period: rotate-demo has no rotation to recover, and other
    # kinds never read the rate
    with pytest.raises(ConfigError, match="nonzero omega_rot"):
        cli.parse_config("omega_rot = 0\n", kind="rotate-demo")
    cli.parse_config("omega_rot = 0\n", kind="evolve")


@pytest.mark.parametrize("kind, lines", [
    ("rotate-demo", "omega_rot = 0\n"), ("rotate-demo", "a = 0.5\nb = 0\n"),
    ("rotate-demo", "family_n = 0\n"), ("sharpness-demo", "a = 0.5\nb = 0\n"),
    ("sharpness-demo", "family_n = 0\n")])
def test_runs_without_a_rotation_are_config_errors(tmp_path, capsys, kind, lines):
    # an element with b = 0 or family_n = 0 has no phase to follow, and a
    # rotate-demo at omega_rot = 0 no rate to recover: each ran to exit 3,
    # rotate-demo writing recovered_omega as NaN, which is not JSON
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\n" + lines)
    out = tmp_path / "o"
    assert cli.main([kind, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"config error: {kind} needs" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def _check_step_log(manifest):
    # the run's step count and dt range, written by the evolution kinds
    assert manifest["rk4_steps"] >= 1
    assert 0.0 < manifest["dt_min"] <= manifest["dt_max"]


def test_evolve_smoke(tmp_path):
    cfgfile = tmp_path / "e.cfg"
    cfgfile.write_text(
        "n_theta_modes = 8\nk_radial = 12\nn_r = 32\nn_theta = 32\n"
        "a = 0.4\nb = 1.0\nperturbation = none\nturnovers = 0.05\ncadence = 5\n"
    )
    rc = cli.main(["evolve", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["max_distance"] <= 1e-6
    _check_step_log(manifest)
    header = (tmp_path / "out" / "results.csv").read_text().splitlines()[1]
    assert header == "t,energy,l2,lp,mean,orbital_distance,beta_star"
    for name in ("initial.json", "final.json"):
        doc = json.loads((tmp_path / "out" / "fields" / name).read_text())
        assert doc["kind"] == "grid"
        assert doc["config_hash"] == manifest["config_hash"]


def test_default_evolve_within_tolerance_of_series_kernel(tmp_path):
    # default evolve --seed 3 as it ran on the power-series Bessel kernel;
    # the recurrence moves the basis tables at rounding level, and the run
    # keeps its step count, its energy and L2 drifts (themselves relative)
    # within 1e-9 and its largest orbital distance within 1e-9 relative.
    # Measured: drifts moved by 2.0e-16 and 2.2e-16, the distance by 1.4e-14
    assert cli.main(["evolve", "--seed", "3", "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["rk4_steps"] == 8029
    assert abs(manifest["energy_drift"] - 1.918574152489034e-12) <= 1e-9
    assert abs(manifest["l2_drift"] - 3.618527286247651e-09) <= 1e-9
    assert manifest["max_distance"] == pytest.approx(0.0005092643233095416, rel=1e-9, abs=0)
    # the cubic Casimir's drift, a difference of two grid integrals at
    # rounding ~1e-16 of their scale, within 1e-6 relative (3.6e-12)
    assert manifest["casimir3_drift"] == pytest.approx(3.6110248614713714e-06, rel=1e-6, abs=0)


def test_small_band_runs_exit_typed(tmp_path, capsys):
    # a band of 5 radial modes, fewer than the mean fix's six, runs through
    # evolve and steady-check (both once exited 1 on a shape mismatch)
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text("n_theta_modes = 4\nk_radial = 8\nn_r = 12\nn_theta = 16\n")
    for kind in ("evolve", "steady-check"):
        rc = cli.main([kind, "--config", str(cfgfile), "--seed", "3",
                       "--out", str(tmp_path / kind)])
        assert rc in (0, 3), capsys.readouterr().err
        assert (tmp_path / kind / "results.csv").exists()


# The two known failures of the energy gate, from the mean fix's
# regularization and from the channel's stream tail outside the band:
# strict xfails, so that the change that mends one must drop its mark


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="energy drift 4.1e-6 against the 1e-6 gate")
def test_found_sweep_row_passes_the_gates():
    # stability-sweep --seed 3 on 8 x 12 modes and a 32 x 32 grid, its p = 4
    # smooth-random row alone: the sweep's eight earlier perturbations are
    # drawn and dropped, so the row's perturbation is the sweep's
    cfg = cli.parse_config("n_theta_modes = 8\nk_radial = 12\nn_r = 32\nn_theta = 32\n"
                           "seed = 3\n", kind="stability-sweep")
    rng = np.random.default_rng(cfg.seed)
    basis, ve = cfg.basis(), cfg.element()
    target = steady_family.v_element_grid(ve, basis.grid)
    for p in (1.5, 2.0, 4.0):
        for kind in ("random-shuffle", "mode-injection", "smooth-random"):
            pert, delta = cli._perturbation(cfg, kind, p, ve, target, basis, rng)
    res = euler_sim.run_stability_experiment(ve, pert, 4.0, turnovers=cfg.turnovers,
                                             basis=basis, cfl_safety=cfg.cfl_safety,
                                             cadence=cfg.cadence)
    assert res.max_distance / delta <= 50.0
    assert cli._conserves(res), (res.energy_drift, res.l2_drift)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="energy drift 2.8e-6 against the 1e-6 gate")
def test_coarse_evolve_passes_the_gates(tmp_path):
    # evolve --seed 3 at a = 0.3 on 6 x 10 modes and a 24 x 32 grid
    cfgfile = tmp_path / "coarse.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\na = 0.3\n")
    assert cli.main(["evolve", "--config", str(cfgfile), "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 0


def test_verify_identities_smoke(tmp_path):
    assert cli.main(["verify-identities", "--out", str(tmp_path / "o")]) == 0


def test_steady_check_smoke(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("a = 0.7\nb = 0.9\nbeta = 1.1\n")
    assert cli.main(["steady-check", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 0
    body = (tmp_path / "o" / "results.csv").read_text()
    assert "mixed" in body and "FAIL" not in body


def test_burton_maximize_smoke(tmp_path):
    cfgfile = tmp_path / "b.cfg"
    cfgfile.write_text("a = 0.0\nb = 1.0\nseeds = 1\n")
    assert cli.main(["burton-maximize", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().splitlines()
    assert lines[1] == "seed,iteration,energy,orbital_distance"
    assert (tmp_path / "o" / "fields" / "ascent_final.json").exists()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    # the seed reached the orbit and stopped by the stall rule; the CSV holds
    # its start and one row per step
    assert manifest["converged_runs"] == 1 and manifest["stalled_runs"] == [0]
    assert manifest["ascent_steps"] == [len(lines) - 3]
    # two of its lead trials fell back to the plain step, at a second transplant
    assert manifest["ascent_transplants"] == [manifest["ascent_steps"][0] + 2]


def test_burton_maximize_stall_reason(tmp_path):
    # on this coarse basis no seed reaches the orbit: seed 0 stalls away from
    # it (d / |omega| = 0.79) after 22 steps, and the other three run out of
    # max_iters (they reach it in 60-67 steps)
    cfgfile = tmp_path / "b.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\n"
                       "a = 0.6\nseeds = 4\nmax_iters = 40\n")
    assert cli.main(["burton-maximize", "--config", str(cfgfile), "--seed", "7",
                     "--out", str(tmp_path / "o")]) == 3
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["converged_runs"] == 0 and manifest["total_runs"] == 4
    assert manifest["ascent_steps"] == [22, 40, 40, 40]
    assert manifest["stalled_runs"] == [0]
    rows = (tmp_path / "o" / "results.csv").read_text().splitlines()[2:]
    per_seed = np.bincount([int(row.split(",")[0]) for row in rows])
    assert list(per_seed - 1) == manifest["ascent_steps"]


def test_rotate_demo_smoke(tmp_path):
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text(
        "n_theta_modes = 8\nk_radial = 12\nn_r = 32\nn_theta = 32\n"
        "a = 0.3\nb = 1.0\nomega_rot = 0.4\nperturbation = none\ncadence = 5\n"
    )
    rc = cli.main(["rotate-demo", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert abs(manifest["recovered_omega"] - 0.4) <= 0.004
    _check_step_log(manifest)


_SHARPNESS_SMOKE = ("n_theta_modes = 8\nk_radial = 12\nn_r = 32\nn_theta = 32\n"
                    "a = 0.3\nb = 1.0\nn_uniform = 2\ncadence = 5\n")


def test_sharpness_demo_smoke(tmp_path):
    cfgfile = tmp_path / "sh.cfg"
    cfgfile.write_text(_SHARPNESS_SMOKE)
    rc = cli.main(["sharpness-demo", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_sharpness_demo_rows_match_hand_rolled_runs(tmp_path):
    # the kind's rows equal, bit for bit, an explicit steady_state + run loop
    # over the three rotation angles, read from its last trace row; the grid
    # orbital_distance of its final field agrees within the bound of the
    # coefficient trace's grid oracle, 5e-15 ||omega||_2 (1e-13 in beta*)
    cfgfile = tmp_path / "sh.cfg"
    cfgfile.write_text(_SHARPNESS_SMOKE)
    assert cli.main(["sharpness-demo", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().splitlines()[2:]
    cfg = cli.parse_config(_SHARPNESS_SMOKE, kind="sharpness-demo")
    basis, ve, n = cfg.basis(), cfg.element(), cfg.n_uniform
    uniform = 2.0 / n
    target = steady_family.v_element_grid(ve, basis.grid)
    expect = []
    for frac in (0.25, 0.5, 1.0):
        beta = math.pi * frac
        rcfg = euler_sim.RunConfig(t_end=n * beta, cfl_safety=cfg.cfl_safety,
                                   cadence=cfg.cadence, p=cfg.p, reference=ve)
        state, trace, _ = euler_sim.run(euler_sim.steady_state(ve, basis, uniform), rcfg)
        last, om = trace[-1], state.full_grid_values()
        dist, bstar = steady_family.orbital_distance(
            GridField(om.grid, om.values - uniform), ve, cfg.p)
        assert abs(dist - last.orbital_distance) <= 5e-15 * last.l2
        assert abs(bstar - last.beta_star) <= 1e-13
        separation = steady_family.plain_distance(
            steady_family.v_element_grid(ve.rotated(-beta), basis.grid), target, cfg.p)
        expect.append((beta, (-last.beta_star) % (2.0 * math.pi), last.orbital_distance,
                       steady_family.plain_distance(om, target, cfg.p), separation))
    assert [tuple(float(v) for v in ln.split(",")[:5]) for ln in lines] == expect


# The config edge sweep: every kind at each key's edges, read from the schema,
# on a small basis and short runs.  Family (1, 10) lies outside its dealias
# band, k <= 6.
_EDGE_BASE = {"n_theta_modes": 6, "k_radial": 10, "n_r": 24, "n_theta": 32, "turnovers": 0.05,
              "seeds": 2, "max_iters": 20, "n_uniform": 1, "cadence": 5}


def _edges(key):
    """(value, accepted by a kind that reads the key, by one that does not):
    each bound and one value past it, each choice and one that is not, and
    nan and +-inf for a float"""
    meta, step = key.metadata, {int: lambda v, d: v + d,
                                float: lambda v, d: math.nextafter(v, d * math.inf)}.get(key.type)
    lo, hi = (_EDGE_BASE.get(b) if isinstance(b, str) else b for b in (meta["lo"], meta["hi"]))
    edges = []
    if lo is not None:
        edges += ([(lo, False, True), (step(lo, 1), True, True)] if meta["open_lo"]
                  else [(lo, True, True), (step(lo, -1), False, True)])
    if hi is not None:
        edges += [(hi, True, True), (step(hi, 1), False, True)]
    if meta["choices"]:
        edges += [(c, True, True) for c in meta["choices"]] + [("bogus", False, True)]
    if key.type is float:
        edges += [(v, False, False) for v in (math.nan, math.inf, -math.inf)]
    return edges


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("kind", cli.KINDS)
def test_config_fuzz_exits_are_typed(tmp_path, capsys, kind):
    # every (key, edge) parses to the verdict the schema gives the kind: a
    # bound holds only for the kinds that read its key, finiteness for all;
    # the accepted edges of the keys that size no work then run: each run
    # ends in 0, 2 or 3, never in an unexpected error, and runs that get as
    # far as 0 or 3 leave a manifest in strict JSON
    for key in dataclasses.fields(cli.ExperimentConfig):
        if key.name == "kind":
            continue
        reads = kind in key.metadata["kinds"]
        for value, if_read, if_not_read in _edges(key):
            text = "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                           for k, v in {**_EDGE_BASE, key.name: value}.items())
            expect = if_read if reads else if_not_read
            # rotate-demo and sharpness-demo follow the phase that family_n = 0 lacks
            if key.name == "family_n" and value == 0 and kind in ("rotate-demo", "sharpness-demo"):
                expect = False
            try:
                cli.parse_config(text, kind=kind)
                accepted = True
            except ConfigError:
                accepted = False
            assert accepted == expect, (key.name, value)
            if not (accepted and reads and key.metadata["caps"] is None):
                continue
            cfgfile = tmp_path / f"{key.name}-{value}.cfg"
            cfgfile.write_text(text)
            out = tmp_path / f"out-{key.name}-{value}"
            rc = cli.main([kind, "--config", str(cfgfile), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc in (0, 2, 3), (key.name, value, err)
            if rc != 2:
                _strict_json((out / "manifest.json").read_text())


@pytest.mark.parametrize("kind, lines, status", [
    # evolve reads no omega_rot, and rotate-demo and sharpness-demo read no
    # turnovers: each exited 2 on the key it ignores
    ("evolve", "omega_rot = 1e-9\nturnovers = 0.05\n", 0),
    ("rotate-demo", "turnovers = -1\n", 0),
    ("sharpness-demo", "turnovers = -1\n", 0),
    # stability-sweep reads only turnovers: it ran to a ValueError, exit 1;
    # evolve reads either horizon
    ("stability-sweep", "turnovers = -1\nt_end = 0.5\n", 2),
    ("evolve", "turnovers = -1\nt_end = 0.5\n", 0),
    ("evolve", "turnovers = 0\nt_end = 0\n", 2),
    # an empty dealias band exited 1 on a numpy reduction error
    ("eigs", "k_radial = 1\n", 2),
    # a cfl_safety of 1e-300 was accepted for a run that never ends
    ("evolve", "cfl_safety = 1e-300\n", 2),
])
def test_kinds_are_checked_on_the_keys_they_read(tmp_path, capsys, monkeypatch, kind, lines,
                                                 status):
    if status == 2:
        _no_step(monkeypatch)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\n" + lines)
    out = tmp_path / "o"
    assert cli.main([kind, "--config", str(cfgfile), "--out", str(out)]) == status
    if status == 2:
        assert "config error: " in capsys.readouterr().err
    else:
        _strict_json((out / "manifest.json").read_text())


def test_empty_dealias_band_is_a_config_error(tmp_path, capsys):
    # k_radial = 1 leaves kd = 0 radial modes in the band: every kind that
    # builds a basis exited 1 on a numpy reduction error; k_radial = 2 runs
    for kind in cli._BASIS:
        cfgfile = tmp_path / "k.cfg"
        cfgfile.write_text("n_theta_modes = 6\nk_radial = 1\nn_r = 24\nn_theta = 32\n")
        assert cli.main([kind, "--config", str(cfgfile), "--out", str(tmp_path / kind)]) == 2
        assert "config error: k_radial=1 leaves no radial mode" in capsys.readouterr().err
    for kind in ("eigs", "steady-check", "burton-maximize", "evolve"):
        cfgfile.write_text("n_theta_modes = 6\nk_radial = 2\nn_r = 24\nn_theta = 32\nseeds = 2\n")
        assert cli.main([kind, "--config", str(cfgfile), "--out", str(tmp_path / "2" / kind)]) == 0


def test_tolerance_exits_at_the_edges(tmp_path, capsys):
    # stability-sweep at delta_rel = 1e-300 exited 3: its distance / delta was
    # rounding over delta.  The bound 1e-12 makes it a config error, and the
    # edge runs and passes
    base = "n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\nturnovers = 0.05\n"
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text(base + "delta_rel = 1e-300\n")
    assert cli.main(["stability-sweep", "--config", str(cfgfile), "--out", str(tmp_path / "a")]) == 2
    assert "config error: delta_rel must lie in [1e-12, 1]" in capsys.readouterr().err
    cfgfile.write_text(base + "delta_rel = 1e-12\n")
    assert cli.main(["stability-sweep", "--config", str(cfgfile), "--out", str(tmp_path / "b")]) == 0
    # rotate-demo at cadence = 1000000 keeps the first and last rows of the
    # period, too far apart to unwrap the phase; how many rows a period holds
    # depends on the step the run takes, not on the config, so this stays a
    # tolerance failure, with no rate recovered
    cfgfile.write_text(base + "cadence = 1000000\n")
    assert cli.main(["rotate-demo", "--config", str(cfgfile), "--out", str(tmp_path / "c")]) == 3
    manifest = _strict_json((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["recovered_omega"] is None


def test_default_config_hashes_unchanged():
    # the schema keeps every key, default and key order: the hashes of each
    # kind's default config, as the hand-kept key list wrote them
    assert {kind: cli.config_hash(cli.parse_config("", kind=kind)) for kind in cli.KINDS} == {
        "bessel-table": "c0bab0c28dcde1ab", "verify-identities": "b2ef90be94316175",
        "eigs": "75e441b1dfb4625e", "steady-check": "3c5575acfd729ce0",
        "burton-maximize": "03af21bfdc527b29", "evolve": "b5cdd58f34ac50a3",
        "stability-sweep": "22f59807412967f8", "rotate-demo": "986059720c0a3a2d",
        "sharpness-demo": "236328c2622248f4"}


def _table_rows():
    """The README's config table, one row per key of the schema, without
    the meaning column."""
    rows = []
    for key in dataclasses.fields(cli.ExperimentConfig):
        meta = key.metadata
        bounds = (", ".join(meta["choices"]) if meta["choices"]
                  else "" if meta["lo"] is None and meta["hi"] is None
                  else cli._interval(meta["lo"], meta["hi"], meta["open_lo"]))
        kinds = "all" if meta["kinds"] == cli.KINDS else ", ".join(meta["kinds"])
        rows.append(f"| `{key.name}` | {key.default} | {bounds} | {kinds} | {meta['caps'] or ''} |")
    return rows


def test_readme_config_table_matches_schema():
    # the README's key table, but for its last column, the key's meaning
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("| key | default | bounds | read by | bound caps | meaning |") + 2
    end = next(i for i in range(start, len(readme)) if not readme[i].startswith("|"))
    assert [ln.rsplit(" | ", 1)[0] + " |" for ln in readme[start:end]] == _table_rows()
