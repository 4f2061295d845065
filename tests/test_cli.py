import hashlib
import importlib.resources
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import madelung_maxent as mm
from madelung_maxent import cli, verify


BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"


def run_cli(*argv):
    return cli.main(list(argv))


SCHEMA = json.loads(importlib.resources.files("madelung_maxent")
                    .joinpath("manifest.schema.json").read_text())


def load_manifest(path):
    manifest = json.loads((path / "manifest.json").read_text())
    jsonschema.validate(manifest, SCHEMA)
    return manifest


def test_solve_radial_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve-radial", "--beta", "1", "--out", str(out)) == 0
    csv = (out / "radial_profile.csv").read_text().splitlines()
    assert csv[0] == "r,u,du,rho,omega"
    r = np.array([float(line.split(",")[0]) for line in csv[1:]])
    assert np.all(np.diff(r) > 0)
    manifest = load_manifest(out)
    assert manifest["outputs"] == ["radial_profile.csv"]
    assert abs(manifest["observables"]["k_bar_quad"] - 1.0) < 1e-6


@pytest.mark.parametrize("name, argv", [
    ("radial_profile.csv", ["solve-radial", "--beta", "1"]),
    ("sweep.csv", ["sweep", "--beta-log-range", "1e-4", "100", "13"]),
])
def test_csv_bytes_match_benchmark_digests(tmp_path, name, argv):
    """The benchmark's cli workload gates on these digests; a change to them is a change of output."""
    expected = json.loads(BASELINE.read_text())["csv_sha256"][name]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected


def test_limit_csv_bytes_pinned(tmp_path):
    """The five CSVs of one limit run; sinc_limit, limit_convergence and omega feed them."""
    assert run_cli("limit", "--betas", "10,50,100", "--out", str(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in (
        "convergence.csv", "sinc_profile.csv", "radial_profile_beta_10.csv",
        "radial_profile_beta_50.csv", "radial_profile_beta_100.csv")}
    assert digests == {
        "convergence.csv": "dc1b9418cf1bd8fd56c5037d3042f9d22108f4aa8622a3f17402166448ef5be6",
        "sinc_profile.csv": "24d42184e6954524fdd0c3747f71102c1dd975c38b7c99f3e3a3a4e7bcc35ac5",
        "radial_profile_beta_10.csv":
            "ca741a0053f521a1f75e2b2f978979de3997f1453ed3605b0a1edcaad7ba019e",
        "radial_profile_beta_50.csv":
            "0db59085a59c57de6a3532004128dc995506396fd7775b807491ca173d80818c",
        "radial_profile_beta_100.csv":
            "f67cd78be7ce10a4b03d40e98ba3bc824478b088c409ec7d68255d5f91160c9e",
    }


def test_cartesian_csv_bytes_pinned(tmp_path):
    """The five CSVs of one rotated Cartesian run and the residual floats of its manifest."""
    assert run_cli("solve-cartesian", "--beta", "1", "--grid-h", "0.01", "--rotate", "0.5",
                   "--out", str(tmp_path)) == 0
    manifest = load_manifest(tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in manifest["outputs"]}
    assert digests == {
        "axis_profile.csv": "d16e4a078d422d1977933295c5194b7415169d67e7b29171dbb72027de5a84a7",
        "grid2d_u.csv": "27904d4f7975fa63202d94a87357757c8153410da360ffe92783251722eb7d63",
        "grid2d_rho.csv": "8d65dd6970c6d6ae57c4a5629a112dcb91ded64b199b7cfe09460b5c126ddee2",
        "grid2d_u_rotated.csv":
            "5394776b9676d6aac6315345287ebec9f421ad65d92219c871e61c8852c09f37",
        "grid2d_rho_rotated.csv":
            "488c24f7112285c4ec30b1d946bb390bf08081ac946f5973dcbba1ead61b086a",
    }
    assert manifest["residuals"] == {
        "pde": 0.00453057534280133, "rebuild": 0.018794908902943774, "spacing": 0.01}
    assert manifest["rotation"]["residuals"] == {
        "pde": 0.003208888576155209, "rebuild": 0.007860394408870874, "spacing": 0.01}


# one run of each command that writes a manifest, and the keys its manifest must hold
RUNS = {
    "solve-radial": (["--beta", "1"], ["observables", "residuals"]),
    "solve-cartesian": (["--beta", "1", "--grid-h", "0.05", "--rotate", "0.5"],
                        ["half_width", "grid_mass", "residuals"]),
    "sweep": (["--beta-list", "1,2,4"], ["monotonicity", "failed_betas"]),
    "limit": (["--betas", "10,50"], ["sinc", "distances_decreasing"]),
}


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    dirs = {}
    for command, (argv, _) in RUNS.items():
        dirs[command] = tmp_path_factory.mktemp(command)
        assert run_cli(command, *argv, "--out", str(dirs[command])) == 0
    return dirs


@pytest.mark.parametrize("command", RUNS)
def test_each_output_is_written_once(run_dirs, command):
    """No two files of one run hold the same bytes: each answer has one file."""
    names = load_manifest(run_dirs[command])["outputs"]
    digests = {hashlib.sha256((run_dirs[command] / name).read_bytes()).hexdigest()
               for name in names}
    assert len(digests) == len(names) >= 1


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, keys) in RUNS.items() for key in keys])
def test_schema_requires_each_commands_keys(run_dirs, command, key):
    """A manifest without one of its command's keys is refused by the schema."""
    manifest = load_manifest(run_dirs[command])
    del manifest[key]
    with pytest.raises(jsonschema.ValidationError, match=f"'{key}' is a required property"):
        jsonschema.validate(manifest, SCHEMA)


# every field of the records a manifest writes, derived ones included
RECORD_FIELDS = [("solve-radial", "observables", f.name) for f in fields(mm.Observables)] + [
    ("limit", "sinc", f.name) for f in fields(mm.SincLimit)] + [
    ("sweep", "monotonicity", f.name) for f in fields(mm.SweepResult) if f.name != "rows"]


@pytest.mark.parametrize("command, key, name", RECORD_FIELDS)
def test_schema_requires_every_record_field(run_dirs, command, key, name):
    """A manifest whose record lacks one field, derived or not, is refused by the schema."""
    manifest = load_manifest(run_dirs[command])
    del manifest[key][name]
    with pytest.raises(jsonschema.ValidationError, match=f"'{name}' is a required property"):
        jsonschema.validate(manifest, SCHEMA)


def test_schema_refuses_verify_manifest(run_dirs):
    """verify prints a table and writes no manifest, so no manifest names it."""
    manifest = load_manifest(run_dirs["solve-radial"])
    manifest["command"] = "verify"
    with pytest.raises(jsonschema.ValidationError, match="'verify' is not one of"):
        jsonschema.validate(manifest, SCHEMA)


def test_usage_error_exit_2(tmp_path, capsys):
    assert run_cli("solve-radial", "--beta", "-1", "--out", str(tmp_path)) == 2
    assert "beta" in capsys.readouterr().err
    assert run_cli("nonsense-command") == 2


def test_solve_radial_zero_u0_exit_2(tmp_path, capsys):
    assert run_cli("solve-radial", "--beta", "1", "--u0", "0", "--out", str(tmp_path)) == 2
    assert "u0:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["solve-radial", "--beta", "1", "--residual-h", "10"], "h:"),
    (["solve-cartesian", "--beta", "1", "--rotate", "nan"], "theta:"),
    # limit is the paper variant's sinc limit: it takes no --variant
    (["limit", "--variant", "planar", "--betas", "10,50,100"], "unrecognized arguments"),
    # Z = e^{-beta U0} (...) is subnormal at 745 and 0 at 800: refused like the radial solve
    (["solve-cartesian", "--beta", "800"], "z: normalization underflowed"),
    (["solve-cartesian", "--beta", "745"], "z: normalization underflowed"),
    # refused before allocating 1e300 samples or cells
    (["solve-radial", "--beta", "1", "--residual-h", "1e-300"], "h: too fine"),
    (["solve-cartesian", "--beta", "1", "--grid-h", "1e-300"], "grid_spacing: too fine"),
    (["sweep", "--beta-log-range", "1e-4", "100", "1e300"], "beta-log-range:"),
    # both betas print as 10, so both profiles would be radial_profile_beta_10.csv
    (["limit", "--betas", "10.0000001,10.0000002"], "betas:"),
    # one beta has nothing to be decreasing against
    (["limit", "--betas", "10"], "betas:"),
    # the output directory is an existing file, or lies under one
    (["solve-radial", "--beta", "1", "--out", "{file}"], "out:"),
    (["sweep", "--beta-list", "1,2", "--out", "{file}/run"], "out:"),
    # tolerances and the step budget are the solver's own, not options
    (["sweep", "--beta-list", "1,2", "--max-steps", "50"], "unrecognized arguments"),
    # the Cartesian factor has no radial term to vary; verify reads the shipped goldens
    (["solve-cartesian", "--beta", "1", "--variant", "planar"], "unrecognized arguments"),
    (["limit", "--variant", "paper"], "unrecognized arguments"),
    (["verify", "--quick", "--golden", "x.json"], "unrecognized arguments"),
    # the profile is written once, as radial_profile.csv; there is no JSON copy
    (["solve-radial", "--beta", "1", "--format", "json"], "unrecognized arguments"),
])
def test_usage_error_writes_nothing(tmp_path, capsys, argv, field):
    out, file = tmp_path / "run", tmp_path / "file"
    file.write_text("")
    argv = [arg.format(file=file) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert run_cli(*argv) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["file"] and file.read_text() == ""


def test_outdir_env_naming_a_file_exit_2(tmp_path, capsys, monkeypatch):
    file = tmp_path / "file"
    file.write_text("")
    monkeypatch.setenv("MADELUNG_MAXENT_OUTDIR", str(file))
    assert run_cli("limit") == 2
    assert "out:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("hbar", ["1e160", "1e-200"])
def test_extreme_hbar_exit_2_writes_nothing(tmp_path, capsys, hbar):
    """hbar**2 overflows or underflows to 0, so lambda_sq is not a positive finite float."""
    out = tmp_path / "run"
    assert run_cli("solve-radial", "--beta", "1", "--hbar", hbar, "--out", str(out)) == 2
    assert "lambda_sq:" in capsys.readouterr().err
    assert not out.exists()


def test_solve_radial_energy_inverts(tmp_path):
    """--energy E solves the state whose average energy is E; the manifest keeps both."""
    target = mm.observables(mm.solve_radial(mm.SolveRequest(
        params=mm.make_params(1.0, 1.0, 2.0)))).energy
    assert run_cli("solve-radial", "--energy", repr(target), "--out", str(tmp_path)) == 0
    manifest = load_manifest(tmp_path)
    assert manifest["target_energy"] == target
    assert manifest["beta"] == manifest["observables"]["beta"] == pytest.approx(2.0, rel=1e-6)
    assert manifest["observables"]["energy"] == pytest.approx(target, rel=1e-6)
    assert (tmp_path / "radial_profile.csv").exists()


def test_solve_radial_energy_solves_once(tmp_path, empty_cap_memo, monkeypatch):
    """--energy 2.5 writes the inversion's certifying solve: 1 solve, not a second at its beta."""
    betas = []
    solve = mm.analysis.solve_radial

    def counted(request):
        betas.append(request.params.beta)
        return solve(request)

    monkeypatch.setattr(mm.analysis, "solve_radial", counted)
    monkeypatch.setattr(cli, "solve_radial", counted)
    assert run_cli("solve-radial", "--energy", "2.5", "--out", str(tmp_path)) == 0
    assert betas == [load_manifest(tmp_path)["beta"]]


def test_solve_radial_energy_below_the_curve_exit_0(tmp_path):
    """E = 1e9 finds beta = 1.07e-9, whose support r_m = 4.2e-4 sets the residual step."""
    assert run_cli("solve-radial", "--energy", "1e9", "--out", str(tmp_path)) == 0
    manifest = load_manifest(tmp_path)
    assert manifest["observables"]["energy"] == pytest.approx(1e9, rel=1e-6)
    assert manifest["residuals"]["spacing"] == manifest["observables"]["r_m"] / 128


@pytest.mark.parametrize("flag, value", [("--hbar", "1e5"), ("--mass", "1e-9")])
def test_solve_radial_large_support_exit_0(tmp_path, flag, value):
    """r_m = 1.6e5 (hbar = 1e5) and 5.2e4 (m = 1e-9): the default step caps the samples."""
    assert run_cli("solve-radial", "--beta", "1", flag, value, "--out", str(tmp_path)) == 0
    manifest = load_manifest(tmp_path)
    assert manifest["residuals"]["spacing"] == manifest["observables"]["r_m"] / 65536


def test_solve_radial_unattainable_energy_exit_1(tmp_path, capsys):
    """U0 and a target between U0 and E(beta_cap) are refused, and the run writes nothing."""
    out = tmp_path / "run"
    for energy in ("0.5", "1.003"):
        assert run_cli("solve-radial", "--energy", energy, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "below the attainable range" in err
        assert "E(beta_cap) = 1.00358352" in err
        assert not out.exists()


def test_solve_radial_solver_error_exit_1(tmp_path, capsys, monkeypatch):
    def fail(request):
        raise mm.SolverError("potential integration ended with 'step-underflow'")

    monkeypatch.setattr(cli, "solve_radial", fail)
    out = tmp_path / "run"
    assert run_cli("solve-radial", "--beta", "1", "--out", str(out)) == 1
    assert "ended with 'step-underflow'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--beta", "1", "--energy", "2"]])
def test_solve_radial_needs_exactly_one_of_beta_energy(tmp_path, flags, capsys):
    assert run_cli("solve-radial", *flags, "--out", str(tmp_path)) == 2
    assert "--beta" in capsys.readouterr().err


def test_determinism_bitwise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("solve-radial", "--beta", "1", "--out", str(a))
    run_cli("solve-radial", "--beta", "1", "--out", str(b))
    assert (a / "radial_profile.csv").read_bytes() == (b / "radial_profile.csv").read_bytes()


def test_solve_cartesian_grid(tmp_path, axis1):
    out = tmp_path / "cart"
    assert run_cli("solve-cartesian", "--beta", "1", "--grid-h", "0.01",
                   "--out", str(out)) == 0
    for name in ("axis_profile.csv", "grid2d_u.csv", "grid2d_rho.csv"):
        assert (out / name).exists()
    header = (out / "grid2d_u.csv").read_text().splitlines()[0]
    assert header == "x,y,value"
    # x-major (x, y, value) rows whose 17 digits read back to the exact doubles
    grid = mm.assemble_2d(axis1, axis1, 0.01)
    rows = np.loadtxt(out / "grid2d_rho.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows, np.column_stack(
        [np.repeat(grid.x, grid.y.size), np.tile(grid.y, grid.x.size), grid.rho.ravel()]))
    manifest = load_manifest(out)
    assert abs(manifest["grid_mass"] - 1.0) < 1e-4


def test_plane_writer_matches_column_writer(tmp_path, axis1):
    rotated = mm.rotate_grid(mm.assemble_2d(axis1, axis1, 0.05), 0.5236)
    assert np.isinf(rotated.u).any()  # corners rotated out of the source carry the sentinel
    for plane in (rotated.u, rotated.rho):
        cli._write_csv(tmp_path / "columns.csv", ["x", "y", "value"],
                       [np.repeat(rotated.x, rotated.y.size),
                        np.tile(rotated.y, rotated.x.size), plane.ravel()])
        cli._write_plane(tmp_path / "plane.csv", rotated, plane)
        assert (tmp_path / "plane.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()


def test_solve_cartesian_rotation_smoke(tmp_path):
    out = tmp_path / "rot"
    assert run_cli("solve-cartesian", "--beta", "1", "--grid-h", "0.01",
                   "--rotate", "0.5236", "--out", str(out)) == 0
    assert (out / "grid2d_rho_rotated.csv").exists()
    manifest = load_manifest(out)
    assert manifest["rotation"]["residual_ratio"] <= 2.0


def test_cli_and_inversion_load_no_scipy_optimize():
    """Importing the CLI loads no scipy it does not use; an inversion loads no
    scipy.optimize, nor scipy.interpolate for its energy curve."""
    code = (
        "import sys, madelung_maxent.cli\n"
        "from madelung_maxent import invert_beta_for_energy, make_params, observables, "
        "solve_radial, SolveRequest\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate', 'scipy.linalg', "
        "'scipy.sparse') if m in sys.modules))\n"
        "beta = invert_beta_for_energy(1.3, 1.0, make_params(1, 1, 1))\n"
        "print([m for m in ('scipy.optimize', 'scipy.interpolate') if m in sys.modules])\n"
        "energy = observables(solve_radial(SolveRequest(params=make_params(1, 1, beta)))).energy\n"
        "print(abs(energy - 1.3) / 1.3)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mm.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded, loaded_by_inversion, rel = done.stdout.splitlines()
    assert loaded == "[]"
    assert loaded_by_inversion == "[]"
    assert float(rel) <= 1e-6


def test_sweep_list(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--beta-list", "1,2,4", "--out", str(out)) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,r_m,r2_bar,z,u_bar,k_bar_quad,k_bar_closed,energy,entropy"
    closed = [float(line.split(",")[6]) for line in lines[1:]]
    assert closed == [1.0, 0.5, 0.25]
    manifest = load_manifest(out)
    assert manifest["monotonicity"]["k_bar_decreasing"] is True


def test_sweep_log_range_small_beta(tmp_path):
    out = tmp_path / "logsweep"
    assert run_cli("sweep", "--beta-log-range", "1e-6", "1e-4", "3",
                   "--out", str(out)) == 0
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    r2 = [float(line.split(",")[2]) for line in lines]
    assert r2[0] < r2[1] < r2[2]


def test_sweep_flagged_row_exit_zero(tmp_path, capsys, empty_cap_memo, monkeypatch):
    solve = mm.analysis.solve_radial

    def fail_at_beta_2(request):
        if request.params.beta == 2.0:
            raise mm.SolverError("potential integration ended with 'max-steps'")
        return solve(request)

    monkeypatch.setattr(mm.analysis, "solve_radial", fail_at_beta_2)
    out = tmp_path / "flagged"
    assert run_cli("sweep", "--beta-list", "1,2,4", "--out", str(out)) == 0
    assert "beta = 2 failed: potential integration ended" in capsys.readouterr().err
    manifest = load_manifest(out)
    assert manifest["failed_betas"] == [2.0]
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] == "nan" for row in rows] == [False, True, False]


def test_sweep_rejects_bad_u0(tmp_path, capsys):
    for u0 in ("-1", "0", "nan"):
        assert run_cli("sweep", "--beta-list", "1,2", "--u0", u0, "--out", str(tmp_path)) == 2
        assert "u0:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_log_range_rejects_bad_range(tmp_path, capsys):
    for lo, hi, n in (("1", "2", "2.7"), ("1", "inf", "3")):
        assert run_cli("sweep", "--beta-log-range", lo, hi, n, "--out", str(tmp_path)) == 2
        assert "beta-log-range" in capsys.readouterr().err


def test_sweep_requires_exactly_one_selector(tmp_path):
    assert run_cli("sweep", "--out", str(tmp_path)) == 2
    assert run_cli("sweep", "--beta-list", "1", "--beta-log-range",
                   "1", "2", "3", "--out", str(tmp_path)) == 2


def test_limit_artifacts(tmp_path):
    out = tmp_path / "limit"
    assert run_cli("limit", "--betas", "10,50,100", "--out", str(out)) == 0
    conv = (out / "convergence.csv").read_text().splitlines()
    assert conv[0] == "beta,sup_norm_distance"
    d = [float(line.split(",")[1]) for line in conv[1:]]
    assert d[0] > d[1] > d[2]
    sinc = (out / "sinc_profile.csv").read_text().splitlines()
    last = sinc[-1].split(",")
    # first zero of the amplitude sits at the support radius r_inf = pi/k
    assert float(last[0]) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
    assert abs(float(last[1])) < 1e-12
    manifest = load_manifest(out)
    assert manifest["distances_decreasing"] is True
    r_m_100 = float((out / "radial_profile_beta_100.csv").read_text()
                    .splitlines()[-1].split(",")[0])
    assert r_m_100 == pytest.approx(math.pi / math.sqrt(2.0), rel=0.02)


def test_verify_quick_under_ten_seconds(tmp_path):
    start = time.monotonic()
    assert run_cli("verify", "--beta", "1", "--quick") == 0
    assert time.monotonic() - start < 10.0


def test_verify_detects_tampered_golden():
    """A golden r_m moved by 0.1% fails golden-scalars."""
    check = next(c for c in verify.CHECKS if c.name == "golden-scalars")
    case = verify.Case(1.0, True)
    assert verify.run_check(check, case).passed
    golden = verify.load_golden()
    golden["radial"]["1.0"]["r_m"] *= 1.001
    case.__dict__["golden"] = golden  # the cached golden lives in the instance dict
    result = verify.run_check(check, case)
    assert not result.passed and "r_m rel dev 9.99e-04" in result.detail


@pytest.mark.parametrize("key, move, reading", [
    ("log_z", lambda v: v + 1e-6, "log_z abs dev 1.00e-06"),
    ("r2_bar", lambda v: v * (1.0 + 1e-6), "r2_bar rel dev 1.00e-06"),
])
def test_verify_detects_moved_golden_log_z_and_r2_bar(key, move, reading):
    """golden-scalars reads log z and <r^2> too: a golden moved by 1e-6 fails it."""
    check = next(c for c in verify.CHECKS if c.name == "golden-scalars")
    case = verify.Case(1.0, True)
    golden = verify.load_golden()
    golden["radial"]["1.0"][key] = move(golden["radial"]["1.0"][key])
    case.__dict__["golden"] = golden  # the cached golden lives in the instance dict
    result = verify.run_check(check, case)
    assert not result.passed and reading in result.detail


def test_verify_reports_raising_checks_as_failures(capsys):
    """At beta = 1e-6 one check raises; the other 12 quick rows still run and print."""
    assert run_cli("verify", "--beta", "1e-6", "--quick") == 1
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.lstrip().startswith("[")]
    assert len(rows) == 13 and "10/13 checks passed, 3 FAILED" in out
    assert "[FAIL] divergence-free" in out and "raised ValidationError: h: too coarse" in out


def test_verify_bad_beta_exit_2(capsys):
    assert run_cli("verify", "--beta", "nan", "--quick") == 2
    assert "beta:" in capsys.readouterr().err


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MADELUNG_MAXENT_OUTDIR", str(tmp_path / "envout"))
    assert run_cli("sweep", "--beta-list", "1") == 0
    assert (tmp_path / "envout" / "sweep.csv").exists()
