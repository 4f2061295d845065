"""Seeded inputs, the timed operation and the correctness gate of each workload.

A workload turns ``(seed, pass index)`` into a list of operations, runs one
operation (``run``) and judges its outcome (``check``).  ``check`` returns
``"ok"``, ``KNOWN_DEFECT`` when the program gave the precise error it documents
for an input in a known-defect region, or a ``"failed: ..."`` reason.  Inputs
are drawn by stratified sampling (one draw in each of n equal strata), so
every pass covers its ranges evenly and pass cost varies little with the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from madelung_maxent import analysis, cli, fields, solver, verify
from madelung_maxent.model import NoSolutionError, ValidationError, make_params

KNOWN_DEFECT = "known-defect"
# Z = e^{-beta U0} (...) leaves the normal float range once beta*U0 passes
# ~708 and is 0 past ~745; errors above this g are that defect
UNDERFLOW_G = 700.0


def _rng(seed, pass_index):
    return np.random.default_rng([seed, pass_index])


def stratified(rng, n, lo, hi):
    """n draws on [lo, hi], one in each of n equal strata, in random order.

    Neighbouring strata take mirrored offsets u and 1 - u, so a cost that is
    locally linear in the input sums (and has its median) at nearly the same
    value for every seed, while each draw stays uniform over its stratum.
    """
    u = rng.random((n + 1) // 2)
    offsets = np.empty(n)
    offsets[0::2] = u
    offsets[1::2] = 1.0 - u[:n // 2]
    return lo + (hi - lo) * ((np.arange(n) + offsets) / n)[rng.permutation(n)]


def _rel(a, b):
    return abs(a - b) / abs(b)


class Sweep:
    """Independent solves over beta in [1e-4, 1e4] and U0 in [0.5, 2]."""

    ops_per_pass = 300
    # geometry mix: half paper-radial, a quarter each planar-radial and Cartesian
    MIX = (("paper-radial", 2), ("planar-radial", 1), ("cartesian", 1))

    def __init__(self):
        self.golden = verify.load_golden()

    def golden_ops(self):
        ops = [{"geometry": "paper-radial", "beta": float(b), "u0": 1.0,
                "golden": ("r_m", "u_bar")} for b in sorted(self.golden["radial"], key=float)]
        ops.append({"geometry": "planar-radial", "beta": 1.0, "u0": 1.0, "golden": ("r_m",)})
        ops += [{"geometry": "cartesian", "beta": float(b), "u0": 1.0, "golden": ("i_m",)}
                for b in sorted(self.golden["cartesian"], key=float)]
        return ops

    def inputs(self, seed, pass_index, n_ops=None):
        n = n_ops or self.ops_per_pass
        rng = _rng(seed, pass_index)
        betas = 10.0 ** stratified(rng, n, -4.0, 4.0)
        u0s = stratified(rng, n, 0.5, 2.0)
        weights = sum(w for _, w in self.MIX)
        geometry = [g for g, w in self.MIX for _ in range(-(-n * w // weights))]
        geometry = [geometry[i] for i in rng.permutation(len(geometry))[:n]]
        ops = [{"geometry": g, "beta": float(b), "u0": float(u), "golden": None}
               for g, b, u in zip(geometry, betas, u0s)]
        if pass_index == 0:
            golden = self.golden_ops()
            ops[:len(golden)] = golden[:n]
        keys = {(op["geometry"], op["beta"] * op["u0"]) for op in ops}
        if len(keys) != len(ops):
            raise RuntimeError("sweep inputs repeat a (geometry, beta*U0) pair")
        return ops

    def run(self, op):
        if op["geometry"] == "cartesian":
            params = make_params(1.0, 1.0, op["beta"])
            factor = solver.solve_cartesian_factor(solver.SolveRequest(
                params=params, u0=op["u0"], geometry=solver.Geometry.CARTESIAN_FACTOR))
            return factor, fields.quad_axis_norm(factor)
        params = make_params(1.0, 1.0, op["beta"], op["geometry"])
        profile = solver.solve_radial(solver.SolveRequest(params=params, u0=op["u0"]))
        return profile, analysis.observables(profile)

    def check(self, op, outcome):
        g = op["beta"] * op["u0"]
        if isinstance(outcome, Exception):
            msg = str(outcome)
            if (isinstance(outcome, ValidationError) and g > UNDERFLOW_G
                    and msg.startswith(("z: normalization underflowed", "entropy: violates"))):
                return KNOWN_DEFECT
            return f"failed: {type(outcome).__name__}: {msg[:120]}"
        cartesian = op["geometry"] == "cartesian"
        z = outcome[1] if cartesian else outcome[1].z
        # a subnormal Z has lost digits, so nothing derived from it can be trusted
        if not (z >= sys.float_info.min and math.isfinite(z)):
            return KNOWN_DEFECT if g > UNDERFLOW_G else f"failed: Z = {z!r}"
        if cartesian:
            factor = outcome[0]
            if not (math.isfinite(factor.half_width) and factor.half_width > factor.nodes[-1]):
                return f"failed: half width {factor.half_width!r}"
            if op["golden"]:
                ref = self.golden["cartesian"][repr(op["beta"])]["i_m"]
                if _rel(factor.half_width, ref) >= 1e-6:
                    return f"failed: i_m {factor.half_width!r} vs golden {ref!r}"
            return "ok"
        obs = outcome[1]
        rel_k = _rel(obs.k_bar_quad, obs.k_bar)
        if not rel_k < 1e-6:
            return f"failed: kinetic identity off by {rel_k:.3e}"
        ent = abs(obs.entropy - (op["beta"] * obs.u_bar + math.log(obs.z)))
        if not ent < 1e-8:
            return f"failed: entropy identity off by {ent:.3e}"
        if op["golden"]:
            if op["geometry"] == "planar-radial":
                ref = {"r_m": self.golden["planar_r_m_beta1"]}
            else:
                ref = self.golden["radial"][repr(op["beta"])]
            for key in op["golden"]:
                if _rel(getattr(obs, key), ref[key]) >= 1e-6:
                    return f"failed: {key} {getattr(obs, key)!r} vs golden {ref[key]!r}"
        return "ok"


class Invert:
    """beta inversion at U0 = 1 for targets E = 1 + 10^x, x in [-3, 1.5]."""

    ops_per_pass = 16
    # invert_beta_for_energy's beta_cap = 500/U0, at U0 = 1
    BETA_CAP = 500.0

    def __init__(self):
        # The inversion doubles beta until E(beta) <= target and refuses once
        # beta would pass beta_cap, so it has then seen E > target at some beta
        # in (beta_cap/2, beta_cap].  E falls with beta: a refusal is the
        # known beta_cap defect only for targets below E(beta_cap/2).
        self.refusal_ceiling = self.energy(0.5 * self.BETA_CAP)

    @staticmethod
    def energy(beta):
        profile = solver.solve_radial(solver.SolveRequest(params=make_params(1.0, 1.0, beta)))
        return analysis.observables(profile).energy

    def inputs(self, seed, pass_index, n_ops=None):
        xs = stratified(_rng(seed, pass_index), n_ops or self.ops_per_pass, -3.0, 1.5)
        return [{"target": 1.0 + 10.0 ** float(x)} for x in xs]

    def run(self, op):
        return analysis.invert_beta_for_energy(op["target"], 1.0, make_params(1.0, 1.0, 1.0))

    def check(self, op, outcome):
        target = op["target"]
        if isinstance(outcome, NoSolutionError):
            if target < self.refusal_ceiling:
                return KNOWN_DEFECT
            return (f"failed: NoSolutionError for target {target!r} above "
                    f"E(beta_cap/2) = {self.refusal_ceiling!r}")
        if isinstance(outcome, Exception):
            return f"failed: {type(outcome).__name__}: {str(outcome)[:120]}"
        energy = self.energy(outcome)
        if _rel(energy, target) >= 1e-6:
            return f"failed: E(beta_hat) = {energy!r} vs target {target!r}"
        return "ok"


class Fields:
    """Full 2D pipelines at beta in [0.5, 4]: assemble, rotate, residuals, divergence."""

    ops_per_pass = 4
    GRID_H = 5e-3
    DIV_H = 2e-3
    RESIDUAL_H = 1e-3

    def inputs(self, seed, pass_index, n_ops=None):
        n = n_ops or self.ops_per_pass
        rng = _rng(seed, pass_index)
        betas = stratified(rng, n, 0.5, 4.0)
        thetas = stratified(rng, n, 0.0, 0.5 * math.pi)
        return [{"beta": float(b), "theta": float(t)} for b, t in zip(betas, thetas)]

    def run(self, op):
        params = make_params(1.0, 1.0, op["beta"])
        factor = solver.solve_cartesian_factor(solver.SolveRequest(
            params=params, geometry=solver.Geometry.CARTESIAN_FACTOR))
        grid = fields.assemble_2d(factor, factor, self.GRID_H)
        rotated = fields.rotate_grid(grid, op["theta"])
        out = {"grid_mass": float(grid.rho.sum()) * grid.spacing ** 2,
               "grid": fields.maxent_residual(grid, params),
               "rotated": fields.maxent_residual(rotated, params)}
        profile = solver.solve_radial(solver.SolveRequest(params=params))
        out["divergence"] = analysis.divergence_sup(profile, h=self.DIV_H)
        out["radial"] = fields.maxent_residual(profile, params, h=self.RESIDUAL_H)
        out["entropy_gain"] = analysis.entropy_stationarity_check(profile)
        return out

    def check(self, op, outcome):
        if isinstance(outcome, Exception):
            return f"failed: {type(outcome).__name__}: {str(outcome)[:120]}"
        # bounds of the matching checks in the package's verify suite
        ratio = outcome["rotated"].pde / outcome["grid"].pde
        div_bound = 1.5e-4 * (self.DIV_H / 1e-3) ** 2
        res_bound = 1.5e-4 * (self.RESIDUAL_H / 1e-3) ** 2
        problems = [
            (abs(outcome["grid_mass"] - 1.0) < 1e-6, f"grid mass {outcome['grid_mass']!r}"),
            (ratio <= 10.0, f"rotated/unrotated residual {ratio:.3g}"),
            (outcome["divergence"] < div_bound, f"divergence {outcome['divergence']:.3e}"),
            (outcome["radial"].pde < res_bound, f"radial residual {outcome['radial'].pde:.3e}"),
            (outcome["radial"].rebuild < res_bound, f"rebuild {outcome['radial'].rebuild:.3e}"),
            (outcome["entropy_gain"] < 1e-12, f"entropy gain {outcome['entropy_gain']:.3e}"),
        ]
        for ok, what in problems:
            if not ok:
                return f"failed: {what}"
        return "ok"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def artifact_bytes(outdir):
    """Bytes of the CSV/JSON artifacts, leaving out manifest.json (it holds a duration)."""
    if not outdir.is_dir():
        return 0
    return sum(p.stat().st_size for p in outdir.iterdir() if p.name != "manifest.json")


class Cli:
    """One CLI command per operation, in a subprocess (or in-process when traced)."""

    # hashes of the byte-deterministic CSVs, recorded at the seed commit
    HASHED = {"solve-radial": "radial_profile.csv", "sweep": "sweep.csv"}
    CMD_METRICS = {"solve-radial": "cmd_solve_radial_s", "solve-cartesian": "cmd_solve_cartesian_s",
                   "sweep": "cmd_sweep_s", "limit": "cmd_limit_s", "verify": "cmd_verify_quick_s"}

    def __init__(self, workdir, src, expected_sha256, in_process=False):
        self.workdir = Path(workdir)
        self.src = str(src)
        self.expected = expected_sha256
        self.in_process = in_process
        self.child_rss_kb = 0
        self.bytes_written = {}

    def inputs(self, seed, pass_index, n_ops=None):
        rng = _rng(seed, pass_index)
        theta = float(rng.uniform(0.3, 0.7))
        betas = [float(rng.uniform(lo, hi)) for lo, hi in ((10, 30), (30, 60), (60, 100))]
        commands = [
            ["solve-radial", "--beta", "1"],
            ["solve-cartesian", "--beta", "1", "--grid-h", "0.005", "--rotate", repr(theta)],
            ["sweep", "--beta-log-range", "1e-4", "100", "13"],
            ["limit", "--betas", ",".join(repr(b) for b in betas)],
            ["verify", "--quick"],
        ]
        return [{"argv": argv} for argv in commands[:n_ops or len(commands)]]

    def outdir(self, op):
        return self.workdir / op["argv"][0]

    def run(self, op):
        argv = list(op["argv"])
        outdir = self.outdir(op)
        if argv[0] != "verify":
            outdir.mkdir(parents=True, exist_ok=True)
            for old in outdir.iterdir():
                old.unlink()
            argv += ["--out", str(outdir)]
        if self.in_process:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, stdout.getvalue()
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.Popen([sys.executable, "-m", "madelung_maxent.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        stdout = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def check(self, op, outcome):
        if isinstance(outcome, Exception):
            return f"failed: {type(outcome).__name__}: {str(outcome)[:120]}"
        code, stdout = outcome
        cmd = op["argv"][0]
        if code != 0:
            return f"failed: exit code {code}"
        outdir = self.outdir(op)
        self.bytes_written[cmd] = artifact_bytes(outdir)
        if cmd in self.HASHED:
            digest = sha256(outdir / self.HASHED[cmd])
            if digest != self.expected[self.HASHED[cmd]]:
                return f"failed: {self.HASHED[cmd]} sha256 {digest}"
        if cmd == "solve-cartesian":
            manifest = json.loads((outdir / "manifest.json").read_text())
            ratio = manifest["rotation"]["residual_ratio"]
            if not (abs(manifest["grid_mass"] - 1.0) < 1e-6 and ratio <= 10.0):
                return f"failed: grid mass {manifest['grid_mass']!r}, rotation ratio {ratio!r}"
        if cmd == "limit":
            if not json.loads((outdir / "manifest.json").read_text())["distances_decreasing"]:
                return "failed: limit distances not decreasing"
        if cmd == "verify" and ("FAILED" in stdout or "checks passed" not in stdout):
            return "failed: verify --quick reported a failing check"
        return "ok"
