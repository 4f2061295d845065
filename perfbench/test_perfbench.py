"""Self-checks of the benchmark: metric names and units, exact counts, the gates.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import workloads  # noqa: E402
from madelung_maxent.model import NoSolutionError, ValidationError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# counts that must repeat exactly between runs at one seed
EXACT = ("kernels.steps", "solver.solves", "quadrature.calls", "analysis.invert_solves",
         "analysis.divergence_points", "fields.rotate_points")
# enough operations per pass that every exact counter of the workload moves
COUNTED_OPS = {"sweep": 12, "invert": 2, "fields": 1, "cli": 5}


def bench(workload, trace, ops, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--ops", str(ops)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0, ops=1))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(bench(workload, 1, COUNTED_OPS[workload])) for _ in range(2))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [k for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes")]
    assert set(EXACT) <= set(counts)
    assert any(k.startswith("cli.bytes_written.") for k in counts)
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
    names = [k for k in EXACT if first["metrics"][k]["value"] > 0]
    assert names, "the workload exercised none of the exact counters"


def test_empty_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", 0, ops=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layers_file_maps_every_per_layer_metric():
    moves = json.loads((HERE / "layers.json").read_text())
    assert list(moves) == [m["name"] for m in SPEC["per_layer"]]
    assert all(text.strip() for text in moves.values())


@pytest.fixture(scope="module")
def sweep():
    return workloads.Sweep()


def golden_op(sweep, geometry, beta):
    return next(op for op in sweep.golden_ops()
                if op["geometry"] == geometry and op["beta"] == beta)


def test_sweep_gate_passes_golden_ops_and_fails_a_perturbed_r_m(sweep):
    op = golden_op(sweep, "paper-radial", 1.0)
    profile, obs = sweep.run(op)
    assert sweep.check(op, (profile, obs)) == "ok"
    bad = dataclasses.replace(obs, r_m=obs.r_m * (1 + 1e-5))
    assert sweep.check(op, (profile, bad)).startswith("failed")
    bad = dataclasses.replace(obs, k_bar_quad=obs.k_bar_quad * (1 + 1e-5))
    assert sweep.check(op, (profile, bad)).startswith("failed")


def test_sweep_gate_fails_a_perturbed_half_width(sweep):
    op = golden_op(sweep, "cartesian", 2.0)
    factor, z = sweep.run(op)
    assert sweep.check(op, (factor, z)) == "ok"
    bad = dataclasses.replace(factor, half_width=factor.half_width * (1 + 1e-5))
    assert sweep.check(op, (bad, z)).startswith("failed")


def test_sweep_gate_accepts_underflow_only_in_the_known_region(sweep):
    error = ValidationError("z: normalization underflowed (log z = -800)")
    high = {"geometry": "paper-radial", "beta": 800.0, "u0": 1.0, "golden": None}
    low = dict(high, beta=80.0)
    assert sweep.check(high, error) == workloads.KNOWN_DEFECT
    assert sweep.check(low, error).startswith("failed")
    assert sweep.check(high, RuntimeError("other")).startswith("failed")


def test_invert_gate():
    inv = workloads.Invert()
    op = {"target": 1.5}
    beta = inv.run(op)
    assert inv.check(op, beta) == "ok"
    assert inv.check(op, beta * (1 + 1e-3)).startswith("failed")
    refusal = NoSolutionError("below the attainable range", feasible_min=1.007)
    assert inv.check({"target": 1.001}, refusal) == workloads.KNOWN_DEFECT
    assert inv.check(op, refusal).startswith("failed")
    # the region comes from the input, not from the feasible_min the error reports
    above = {"target": inv.refusal_ceiling * (1 + 1e-9)}
    assert inv.check(above, NoSolutionError("refused", feasible_min=2.0)).startswith("failed")


def test_cli_gate_counts_a_flipped_csv_byte_as_failed(tmp_path):
    expected = json.loads((HERE / "baseline.json").read_text())["csv_sha256"]
    runner = workloads.Cli(tmp_path, ROOT / "src", expected, in_process=True)
    for op in runner.inputs(seed=1, pass_index=0):
        if op["argv"][0] not in runner.HASHED:
            continue
        outcome = runner.run(op)
        assert runner.check(op, outcome) == "ok"
        csv = runner.outdir(op) / runner.HASHED[op["argv"][0]]
        data = bytearray(csv.read_bytes())
        data[len(data) // 2] ^= 0x01
        csv.write_bytes(bytes(data))
        assert runner.check(op, outcome).startswith("failed")
        assert runner.check(op, (1, "")).startswith("failed")


def write_result(path, env, seed=1, failed_per_pass=(3, 2)):
    path.write_text(json.dumps({
        "environment": env,
        "detail": {"workload": "sweep", "trace": 0, "seed": seed,
                   "failed_per_pass": list(failed_per_pass),
                   "failed_frac": sum(failed_per_pass) / (10 * len(failed_per_pass))},
        "result": {"metrics": {"run_ref": {"value": 1.0, "unit": "ref"}}}}))


def test_compare_refuses_differing_environments(tmp_path, capsys):
    write_result(tmp_path / "a.json", {"NUMBA_ENABLED": False})
    write_result(tmp_path / "b.json", {"NUMBA_ENABLED": True})
    write_result(tmp_path / "c.json", {"NUMBA_ENABLED": False})
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "refused" in capsys.readouterr().err
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "c.json")]) == 0


def test_compare_flags_more_failures_on_shared_passes(tmp_path, capsys):
    env = {"NUMBA_ENABLED": False}
    for name, fails in (("before", (3, 2)), ("slower", (3,)), ("faster", (3, 2, 9)),
                        ("fewer", (3, 1)), ("more", (3, 3))):
        write_result(tmp_path / f"{name}.json", env, failed_per_pass=fails)
    write_result(tmp_path / "other-seed.json", env, seed=2, failed_per_pass=(9, 9))

    def compare_with(name):
        return compare.main([str(tmp_path / "before.json"), str(tmp_path / f"{name}.json")])

    assert [compare_with(n) for n in ("slower", "faster", "fewer", "other-seed")] == [0] * 4
    capsys.readouterr()
    assert compare_with("more") == 1
    assert "MORE FAILURES" in capsys.readouterr().out
