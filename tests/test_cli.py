import json
import os
from dataclasses import MISSING, fields

import numpy as np
import pytest

from alefem import stepper
from alefem.assembly import PhaseParams
from alefem.cli import (
    ConfigError,
    build_verify_checks,
    cmd_run,
    cmd_verify,
    config_echo,
    config_keys,
    load_config,
    main,
    parse_config_text,
)
from alefem.stepper import SimConfig

from conftest import BP1

BP1_CONFIG = """# benchmark BP-1
[physics]
rho_plus = 1000
rho_minus = 100
mu_plus = 10
mu_minus = 1
g = 0.98

[discretization]
k = 2
h = 0.16
tau = 0.005
T = 0.05
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "bp1.cfg"
    path.write_text(BP1_CONFIG)
    return path


def test_parse_config_sections_and_comments():
    kv = parse_config_text(BP1_CONFIG)
    assert kv["rho_plus"] == "1000"
    assert kv["T"] == "0.05"


def test_load_config(config_file):
    cfg = load_config(config_file)
    assert cfg.params.rho_minus == 100.0
    assert cfg.rect == (0.0, 0.0, 1.0, 2.0)
    assert cfg.circle_radius == 0.25


def test_missing_key_is_named(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text(BP1_CONFIG.replace("tau = 0.005", ""))
    with pytest.raises(ConfigError, match="tau"):
        load_config(path)
    assert cmd_run(path, tmp_path / "out") == 2
    for line in ("k = 2", "h = 0.16", "T = 0.05"):
        path.write_text(BP1_CONFIG.replace(line, ""))
        key = line.split()[0]
        with pytest.raises(ConfigError,
                           match=f"missing required config keys: {key}$"):
            load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "extra.cfg"
    path.write_text(BP1_CONFIG + "\nwarp_factor = 9\n")
    with pytest.raises(ConfigError, match="warp_factor"):
        load_config(path)
    # the load is always density-weighted; the key that chose it is gone
    path.write_text(BP1_CONFIG + "\nbody_force_weighted_by_rho = true\n")
    with pytest.raises(ConfigError, match="body_force_weighted_by_rho"):
        load_config(path)


def test_key_set_twice_rejected(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text(BP1_CONFIG + "h = 0.08\n")
    first = BP1_CONFIG.splitlines().index("h = 0.16") + 1
    second = len(BP1_CONFIG.splitlines()) + 1
    with pytest.raises(ConfigError, match=f"line {second}: key 'h' is "
                       f"already set on line {first}"):
        load_config(path)
    assert cmd_run(path, tmp_path / "out", quiet=True) == 2
    assert "'h'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_keys_are_the_dataclass_fields():
    keys = config_keys()
    assert list(keys) == ([f.name for f in fields(PhaseParams)]
                          + [f.name for f in fields(SimConfig)
                             if f.name != "params"])
    required = [k for k, (_, default) in keys.items() if default is MISSING]
    assert required == ["rho_plus", "rho_minus", "mu_plus", "mu_minus", "g",
                        "k", "h", "tau", "T"]
    # the types the parser knows; a bool would parse "false" as True
    assert {kind for kind, _ in keys.values()} == {int, float, tuple}


def test_config_echo_loads_back(tmp_path):
    cfg = SimConfig(params=BP1, k=3, h=0.12, tau=0.004, T=0.2,
                    rect=(0.0, -0.5, 1.5, 2.0), circle_center=(0.7, 0.6),
                    circle_radius=0.2, remesh_angle=0.2, record_every=3)
    echo = config_echo(cfg)
    assert list(echo) == list(config_keys())
    path = tmp_path / "echo.cfg"
    path.write_text("".join(
        f"{k} = {', '.join(map(repr, v)) if isinstance(v, list) else repr(v)}\n"
        for k, v in echo.items()))
    assert load_config(path) == cfg
    assert config_echo(load_config(path)) == echo


@pytest.mark.parametrize("every", [0, -3])
def test_record_every_below_one_rejected(tmp_path, every):
    with pytest.raises(ValueError, match="record_every"):
        SimConfig(params=BP1, k=2, h=0.16, tau=0.005, T=0.05,
                  record_every=every)
    path = tmp_path / "every.cfg"
    path.write_text(BP1_CONFIG + f"record_every = {every}\n")
    assert cmd_run(path, tmp_path / "out", quiet=True) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, match", [
    # 2.48 steps of tau = 0.005: run to t = 0.01, T would have echoed 0.0124
    ("T = 0.0124", "whole number of steps"),
    ("circle_radius = -0.1", "radius must be positive"),
    ("circle_radius = 0", "radius must be positive"),
    ("circle_radius = 0.4", "clearance of 0.1 .* must exceed h=0.16"),
    ("circle_center = 0.5, 1.9", "clearance of -0.15 .* must exceed h=0.16"),
    ("remesh_angle = 0", "remesh_angle"),
    ("remesh_angle = 1.0471975511965979", "remesh_angle"),     # pi/3
    ("remesh_angle = 1.2", "remesh_angle"),
])
def test_invalid_horizon_bubble_and_angle_rejected(tmp_path, extra, match):
    key, val = (s.strip() for s in extra.split("="))
    settings = {"k": 2, "h": 0.16, "tau": 0.005, "T": 0.05}
    settings[key] = (tuple(float(v) for v in val.split(",")) if "," in val
                     else float(val))
    with pytest.raises(ValueError, match=match):
        SimConfig(params=BP1, **settings)
    path = tmp_path / "bad.cfg"
    path.write_text(BP1_CONFIG.replace("T = 0.05\n", "") + extra + "\n"
                    + ("" if key == "T" else "T = 0.05\n"))
    assert cmd_run(path, tmp_path / "out", quiet=True) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("steps", [1, 7, 150, 283, 300, 600])
def test_horizon_of_whole_steps_accepted(steps):
    tau = 1.0 / 200.0
    assert SimConfig(params=BP1, k=2, h=0.08, tau=tau,
                     T=steps * tau).n_steps == steps


def test_cmd_run_writes_outputs(tmp_path, config_file):
    out = tmp_path / "out"
    rc = cmd_run(config_file, out, vtk_every=5, quiet=True)
    assert rc == 0
    csv = (out / "bench.csv").read_text().splitlines()
    header = csv[0].split(",")
    assert header == ["t", "circularity", "com_x", "com_y", "rise_velocity",
                      "e_kin", "e_pot", "e_tot", "area_minus", "min_angle",
                      "remesh_count"]
    # initial record plus one per step
    assert len(csv) == 1 + 11
    ts = [float(r.split(",")[0]) for r in csv[1:]]
    assert ts == sorted(ts)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed" and "error" not in manifest
    assert manifest["config"]["h"] == 0.16
    assert manifest["rows"] == 11
    assert manifest["last_step"] == 10
    steps = manifest["rows"] - 1
    assert 1 <= manifest["saddle_factorizations"] <= steps + 1
    assert 1 <= manifest["saddle_iterations_max"]
    assert 1 <= manifest["saddle_iterations_mean"] \
        <= manifest["saddle_iterations_max"]
    # a direct extension, then the lagged one of the one numbering
    assert 2 <= manifest["harmonic_factorizations"] <= steps + 1
    assert 1 <= manifest["harmonic_iterations_max"]
    assert 0 < manifest["harmonic_iterations_mean"] \
        <= manifest["harmonic_iterations_max"]
    assert (out / "state_000000.vtk").exists()
    assert (out / "state_000010.vtk").exists()
    # what bitwise reproducibility across CPU counts depends on
    assert manifest["cpus_available"] == len(os.sched_getaffinity(0))
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert manifest["blas_threads"] == {name: os.environ.get(name)
                                        for name in names}


def test_failed_run_names_the_last_recorded_level(tmp_path, monkeypatch,
                                                  capsys):
    path = tmp_path / "every5.cfg"
    path.write_text(BP1_CONFIG + "record_every = 5\n")
    original, steps = stepper.step, []

    def step(state, config):
        steps.append(state.t)
        if len(steps) == 7:
            raise RuntimeError("forced step failure")
        return original(state, config)

    monkeypatch.setattr(stepper, "step", step)
    assert cmd_run(path, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err == ("run failed after t-level 5 (t=0.025): "
                   "forced step failure\n")


def test_failed_run_keeps_its_records(tmp_path, config_file, monkeypatch,
                                      capsys):
    """A run whose third step raises leaves the rows of t-levels 0-2 in
    bench.csv and a manifest that names the failure and the last
    recorded level."""
    original, steps = stepper.step, []

    def step(state, config):
        steps.append(state.t)
        if len(steps) == 3:
            raise RuntimeError("forced step failure")
        return original(state, config)

    monkeypatch.setattr(stepper, "step", step)
    out = tmp_path / "out"
    assert cmd_run(config_file, out, quiet=True) == 1
    assert capsys.readouterr().err == ("run failed after t-level 2 "
                                       "(t=0.01): forced step failure\n")
    csv = (out / "bench.csv").read_text().splitlines()
    assert csv[0].startswith("t,circularity,")
    ts = [float(row.split(",")[0]) for row in csv[1:]]
    assert ts == [0.0, 0.005, 0.01]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == {"type": "RuntimeError",
                                 "message": "forced step failure"}
    assert manifest["rows"] == 3
    assert manifest["last_step"] == 2
    assert manifest["final_time"] == ts[-1]


def test_cmd_run_deterministic(tmp_path, config_file):
    rc1 = cmd_run(config_file, tmp_path / "a", quiet=True)
    rc2 = cmd_run(config_file, tmp_path / "b", quiet=True)
    assert rc1 == rc2 == 0
    a = (tmp_path / "a" / "bench.csv").read_bytes()
    b = (tmp_path / "b" / "bench.csv").read_bytes()
    assert a == b


def test_vtk_snapshot_contents(tmp_path, config_file):
    out = tmp_path / "out"
    cmd_run(config_file, out, vtk_every=100, quiet=True)
    text = (out / "state_000000.vtk").read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert any(line.startswith("CELLS") for line in text)
    ncells = int(next(l for l in text if l.startswith("CELLS")).split()[1])
    npoints = int(next(l for l in text if l.startswith("POINTS")).split()[1])
    # 4 straight subtriangles per curved P2 element
    assert ncells % 4 == 0
    assert npoints > 0


@pytest.mark.parametrize("args", [
    ["--levels", "0"], ["--levels", "1"], ["--levels", "2"],
    ["-m", "0"], ["-m", "-1"], ["-m", "1"],
])
def test_converge_rejects_bad_arguments_before_running(args, config_file,
                                                       monkeypatch, capsys):
    from alefem import stepper

    started, original = [], stepper.initialize
    monkeypatch.setattr(stepper, "initialize",
                        lambda *a: started.append(a) or original(*a))
    assert main(["converge", str(config_file), "-q", *args]) == 2
    assert started == []
    assert args[1] in capsys.readouterr().err


@pytest.mark.parametrize("h, angle, error", [
    ("0.2", "1.0", "remeshing failed to beat the angle threshold"),
    ("0.12", "0.57", "remeshing occurred during the rate study"),
])
def test_converge_failure_names_its_level(h, angle, error, tmp_path, capsys):
    """A level that fails ends the study with one line naming it, its h
    and the error, and exit code 1: a RemeshError in a step, and a
    remesh that the rate study cannot use."""
    path = tmp_path / "fails.cfg"
    path.write_text(BP1_CONFIG.replace("h = 0.16", f"h = {h}")
                    .replace("T = 0.05", "T = 0.01")
                    + f"remesh_angle = {angle}\n")
    assert main(["converge", str(path), "-q"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"converge failed at level 0 (h={h}): {error}")


def converge_rows(out: str) -> tuple[list[str], list[str]]:
    """The difference rows and the rate rows of converge's table."""
    rows = [line.split() for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    return ([r for r in rows if r[0] != "rate"],
            [r for r in rows if r[0] == "rate"])


def test_converge_prints_its_table(tmp_path, capsys):
    """A real 3-level BP1 study: two difference rows and one rate row,
    every entry finite."""
    path = tmp_path / "study.cfg"
    path.write_text(BP1_CONFIG.replace("h = 0.16", "h = 0.2")
                    .replace("T = 0.05", "T = 0.01"))
    assert main(["converge", str(path), "-q"]) == 0
    differences, rates = converge_rows(capsys.readouterr().out)
    assert [r[0] for r in differences] == ["0.2/0.1", "0.1/0.05"]
    assert len(rates) == 1
    for row in differences + rates:
        assert len(row) == 5
        assert np.all(np.isfinite([float(v) for v in row[1:]]))


def test_converge_prints_every_rate(config_file, monkeypatch, capsys):
    """Four levels give three differences and two rates, both printed."""
    from alefem import verify

    def study(config, levels, m, progress):
        d = {n: [1.0, 0.25, 0.125] for n in ("u", "w", "phi", "p")}
        return verify.RateReport([0.16, 0.08, 0.04, 0.02], d).compute_rates(m)

    monkeypatch.setattr(verify, "spatial_convergence_study", study)
    assert main(["converge", str(config_file), "-q", "--levels", "4"]) == 0
    differences, rates = converge_rows(capsys.readouterr().out)
    assert len(differences) == 3
    assert [r[1:] for r in rates] == [["2.000"] * 4, ["1.000"] * 4]


def test_negative_vtk_every_rejected(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "-o", str(out), "-q",
                 "--vtk-every", "-2"]) == 2
    assert "--vtk-every" in capsys.readouterr().err
    assert not out.exists()


def test_main_verify_suites_pass():
    for suite in ("matrices", "transport", "homotopy", "manufactured"):
        assert main(["verify", suite]) == 0


def test_verify_detects_corrupted_assembly(monkeypatch, capsys):
    import alefem.assembly as asm
    import alefem.verify as verify

    orig = asm.assemble

    def corrupted(kind, mesh, spaces, params=None):
        K = orig(kind, mesh, spaces, params)
        if kind == "A":
            K = K * (1.0 + 1e-4)
        return K

    monkeypatch.setattr(verify, "assemble", corrupted)
    rc = cmd_verify("homotopy")
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "homotopy" in out


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_verify_checks("bogus")


def test_cmd_run_rejects_degree_one(tmp_path):
    path = tmp_path / "k1.cfg"
    path.write_text(BP1_CONFIG.replace("k = 2", "k = 1"))
    assert cmd_run(path, tmp_path / "out", quiet=True) == 2
