import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from diskvort import cli, variational
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
        cli.parse_config("p = 0.5\n", kind="eigs")
    with pytest.raises(ConfigError, match="p must lie"):
        cli.parse_config("p = 1.0\n", kind="eigs")


def test_cfl_safety_must_be_positive(tmp_path):
    # above 1 every refresh would step over the advective limit: cfl_safety
    # = 1.2 used to print "evolve: pass"
    for value in ("0", "-0.4", "1.2", "inf", "nan"):
        with pytest.raises(ConfigError, match=r"cfl_safety must lie in \(0, 1\]"):
            cli.parse_config(f"cfl_safety = {value}\n", kind="evolve")
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"cfl_safety = {value}\n")
        # eigs runs no time stepping, so a missing check cannot hang here
        assert cli.main(["eigs", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert cli.parse_config("cfl_safety = 1.0\n", kind="evolve").cfl_safety == 1.0


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


def test_every_config_field_is_read():
    # every key steers a run: it is read by ExperimentConfig.element / basis,
    # run_experiment or an _exp_* body, so a dead knob cannot come back
    tree = ast.parse(Path(cli.__file__).read_text())
    config_class = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    readers = [node for node in config_class.body
               if isinstance(node, ast.FunctionDef) and node.name in ("element", "basis")]
    readers += [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and (node.name == "run_experiment" or node.name.startswith("_exp_"))]
    assert len(readers) == 2 + 1 + len(cli._EXPERIMENTS)
    read = {node.attr for reader in readers for node in ast.walk(reader)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("cfg", "self")}
    fields = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    assert fields - read == set()


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
    assert cli.main(["eigs", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


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
    # a transplant that halves its result from the second step on lowers the
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
    assert len(calls) == 2


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
])
def test_bessel_index_out_of_range_exit_code(tmp_path, capsys, kind, key, value):
    # these exited 1 with "error: ..." from the Bessel layer (bessel_n_max = -1
    # wrote an empty table and passed)
    cfgfile = tmp_path / "b.cfg"
    cfgfile.write_text("n_theta_modes = 6\nk_radial = 10\nn_r = 24\nn_theta = 32\n"
                       f"turnovers = 0.05\n{key} = {value}\n")
    out = tmp_path / "o"
    assert cli.main([kind, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"config error: {key} must lie in" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_bessel_index_range_edges_accepted():
    for line in ("family_n = 0", "family_n = 64", "bessel_n_max = 0", "bessel_n_max = 64",
                 "family_k = 1", "bessel_k_max = 1"):
        cli.parse_config(line + "\n", kind="bessel-table")


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
    header = (tmp_path / "out" / "results.csv").read_text().splitlines()[1]
    assert header == "t,energy,l2,lp,mean,orbital_distance,beta_star"
    for name in ("initial.json", "final.json"):
        doc = json.loads((tmp_path / "out" / "fields" / name).read_text())
        assert doc["kind"] == "grid"
        assert doc["config_hash"] == manifest["config_hash"]


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


def test_sharpness_demo_smoke(tmp_path):
    cfgfile = tmp_path / "sh.cfg"
    cfgfile.write_text(
        "n_theta_modes = 8\nk_radial = 12\nn_r = 32\nn_theta = 32\n"
        "a = 0.3\nb = 1.0\nn_uniform = 2\ncadence = 5\n"
    )
    rc = cli.main(["sharpness-demo", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0


# Boundary values per key for the config fuzz.  Huge values go only to keys
# that do not size the work: a huge resolution, horizon, count or zero index
# asks for that much memory or time, it is not malformed.
_FUZZ_BASE = {"n_theta_modes": "6", "k_radial": "10", "n_r": "24", "n_theta": "32",
              "turnovers": "0.05", "seeds": "2", "max_iters": "20", "n_uniform": "1",
              "cadence": "5"}
_EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300"]
_INT_EDGES = ["0", "-1", "2.5"]
_FUZZ_VALUES = {
    "seed": _INT_EDGES + ["1000000000000"],
    "n_theta_modes": _INT_EDGES, "k_radial": _INT_EDGES,
    "n_r": _INT_EDGES + ["11"], "n_theta": _INT_EDGES + ["13"],
    "a": _EDGES, "b": _EDGES, "beta": _EDGES, "omega_rot": _EDGES,
    "p": _EDGES + ["1"], "delta_rel": _EDGES, "cfl_safety": _EDGES + ["1"],
    "turnovers": _EDGES[:-1] + ["1e-300"], "t_end": _EDGES[:-1] + ["1e-300"],
    # family (5, 1) and (1, 7) lie outside the dealias band (4, 6)
    "family_n": _INT_EDGES + ["5", "1000000000000"], "family_k": _INT_EDGES + ["7"],
    "perturbation": ["none", "mode-injection", "random-shuffle", "bogus"],
    "pert_mode_n": _INT_EDGES + ["1000000000000"],
    "pert_mode_k": _INT_EDGES + ["1000000000000"],
    "n_uniform": _INT_EDGES, "seeds": _INT_EDGES, "max_iters": _INT_EDGES,
    "cadence": _INT_EDGES + ["1000000000000"],
    "bessel_n_max": _INT_EDGES + ["1000000000000"], "bessel_k_max": _INT_EDGES,
}


# the command line runs with numpy's overflow warnings as warnings, which
# the suite otherwise turns into errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", cli.KINDS)
def test_config_fuzz_exits_are_typed(tmp_path, capsys, kind):
    # every kind on a small basis with one or two keys at a boundary value:
    # the run ends in 0, 2 or 3, never in an unexpected error, and runs that
    # get as far as 0 or 3 leave a manifest
    assert set(_FUZZ_VALUES) == {f.name for f in dataclasses.fields(cli.ExperimentConfig)} - {"kind"}
    rng = np.random.default_rng([2024, cli.KINDS.index(kind)])
    keys = sorted(_FUZZ_VALUES)
    for case in range(20):
        cfg = dict(_FUZZ_BASE)
        for key in rng.choice(keys, size=1 + case % 2, replace=False):
            cfg[key] = _FUZZ_VALUES[key][rng.integers(len(_FUZZ_VALUES[key]))]
        cfgfile = tmp_path / f"{case}.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        out = tmp_path / f"out{case}"
        rc = cli.main([kind, "--config", str(cfgfile), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3), (cfg, err)
        if rc != 2:
            assert (out / "manifest.json").exists(), (cfg, err)
