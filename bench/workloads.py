"""Workloads of the thermocap benchmark: inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs come from the workload seed
alone.  Each operation's outputs are checked against tolerances, never
against golden bytes, because a better solver may legitimately change
trailing digits.

- ``cli-cold``: one fresh ``python -m thermocap <cmd>`` process per
  operation, cycling through the six default-config commands.
- ``bvp-grid``: one pass over the n x delta_T grid of full BVP solves,
  in process, case order shuffled per pass.
- ``check-waves``: one in-process ``cli.main(["check", ...])`` per
  operation, each with its own seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from calibration import kernel_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# (metric key, argv) of the cli-cold cycle, in order
CLI_COMMANDS = (
    ("profile", ("profile",)),
    ("profile_full", ("profile", "--full")),
    ("celerity", ("celerity",)),
    ("sweep", ("sweep",)),
    ("sweep_full", ("sweep", "--full")),
    ("check", ("check",)),
)

GRID_SIZES = (1001, 4001, 16001)
DELTA_TS = (1e-1, 1e-2, 1e-4)
DT_LABELS = {1e-1: "1e-1", 1e-2: "1e-2", 1e-4: "1e-4"}

# Celerity root against closed form: both routes solve the same 3x3 system.
CELERITY_REL_TOL = 1e-10
# The closed profile is the exact tanh front, so its quadrature tension
# matches the closed form to the check suite's own threshold.
CLOSED_SIGMA_REL_TOL = 1e-6


def full_sigma_gap_bound(delta_t: float) -> float:
    """Allowed |sigma_quad - sigma_closed| / sigma_closed on a solved profile.

    The gap is physical: the closed form belongs to the reduced (slaved
    entropy) problem, and the coupled profile departs from it at first
    order in delta_T.  Measured at the seed commit it is 0.26 * delta_T
    (2.6e-2 at 0.1, 2.4e-3 at 0.01) with a floor of about 2e-5 from the
    tail truncation at small delta_T; the bound doubles the slope and adds
    a 1e-4 floor.
    """
    return 0.5 * delta_t + 1e-4


# Allowed max |d sigma_yy / dy| per (n, delta_T).  The certificate is
# second-order discretization error at large delta_T and round-off of a
# delta_T^2-sized stress at small delta_T, so it has no single scaling law;
# each bound is about ten times the seed-commit value, to one digit.
STRESS_BOUNDS = {
    (1001, 1e-1): 2e-5, (1001, 1e-2): 2e-7, (1001, 1e-4): 2e-11,
    (4001, 1e-1): 1e-6, (4001, 1e-2): 1e-8, (4001, 1e-4): 1e-12,
    (16001, 1e-1): 3e-7, (16001, 1e-2): 6e-9, (16001, 1e-4): 1e-11,
}


def import_thermocap():
    """Import the checkout's own thermocap, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import thermocap
    if Path(thermocap.__file__).resolve().parent != SRC / "thermocap":
        raise ImportError(f"imported thermocap from {thermocap.__file__}, not {SRC}")
    return thermocap


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli_inproc(argv) -> int:
    """cli.main with stdout captured, as a library caller would run it."""
    from thermocap import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_cli_outputs(key: str, out: Path, rc: int) -> list[str]:
    """Tolerance checks on the artifacts of one default-config CLI command."""
    if rc != 0:
        return [f"{key}: exit code {rc}"]
    errors = []
    if key in ("profile", "profile_full"):
        obs = _load_json(out / "observables.json")
        gap = abs(obs["sigma_quad"] - obs["sigma_closed"]) / obs["sigma_closed"]
        bound = full_sigma_gap_bound(obs["delta_T"]) if key == "profile_full" \
            else CLOSED_SIGMA_REL_TOL
        if not gap <= bound:
            errors.append(f"{key}: sigma gap {gap:.3e} > {bound:.1e}")
        with open(out / "profile.csv", encoding="utf-8") as fh:
            rho = [float(row["rho"]) for row in csv.DictReader(fh)]
        slack = 1e-6 * (obs["rho_l"] - obs["rho_v"])
        if min(rho) < obs["rho_v"] - slack or max(rho) > obs["rho_l"] + slack:
            errors.append(f"{key}: density leaves [rho_v, rho_l]")
        if key == "profile_full":
            newton = _load_json(out / "newton.json")
            if not (newton["converged"] and newton["residual_norm"] <= newton["tolerance"]):
                errors.append(f"{key}: newton not converged: {newton}")
    elif key == "celerity":
        rel = _load_json(out / "celerity.json")["relative_difference"]
        if rel is None or not rel <= CELERITY_REL_TOL:
            errors.append(f"celerity: relative_difference {rel} > {CELERITY_REL_TOL}")
    elif key in ("sweep", "sweep_full"):
        report = _load_json(out / "scaling.json")
        if not report["verification"]["all_passed"]:
            errors.append(f"{key}: verification failed: {report['verification']}")
        failed_rows = [r["delta_t"] for r in report["rows"] if r["error"] is not None]
        if failed_rows:
            errors.append(f"{key}: failed rows at delta_t {failed_rows}")
    elif key == "check":
        if not _load_json(out / "check.json")["all_passed"]:
            errors.append("check: all_passed is false")
    return errors


def check_bvp_case(n: int, delta_t: float, prof, report, obs, stress: float) -> list[str]:
    """Tolerance checks on one full-solver case of the grid."""
    tag = f"n={n} dT={delta_t:g}"
    errors = []
    if not (report.converged and report.residual_norm <= report.tolerance):
        errors.append(f"{tag}: not converged (residual {report.residual_norm:.3e})")
    slack = 1e-6 * (obs.rho_l - obs.rho_v)
    if prof.rho.min() < obs.rho_v - slack or prof.rho.max() > obs.rho_l + slack:
        errors.append(f"{tag}: density leaves [rho_v, rho_l]")
    gap = abs(obs.sigma_quad - obs.sigma_closed) / obs.sigma_closed
    if not gap <= full_sigma_gap_bound(delta_t):
        errors.append(f"{tag}: sigma gap {gap:.3e} > {full_sigma_gap_bound(delta_t):.1e}")
    bound = STRESS_BOUNDS[(n, delta_t)]
    if not (math.isfinite(stress) and stress <= bound):
        errors.append(f"{tag}: stress certificate {stress:.3e} > {bound:.0e}")
    return errors


class CliCold:
    """Fresh interpreter per operation: the wait a command-line user sees."""

    name = "cli-cold"
    cycle_len = len(CLI_COMMANDS)
    in_process = False

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = subprocess_env()
        self.peak_rss_kb = 0

    def calibrate(self) -> float:
        """Wall seconds of the calibration kernel in a fresh interpreter."""
        start = time.perf_counter()
        rc = subprocess.run([sys.executable, str(BENCH_DIR / "calibration.py")]).returncode
        if rc != 0:
            raise RuntimeError(f"calibration interpreter exited {rc}")
        return time.perf_counter() - start

    def make_input(self, i: int):
        key, argv = CLI_COMMANDS[i % self.cycle_len]
        out = self.workdir / f"op{i}"
        return key, [*argv, "--out", str(out), "--seed", str(self.rng.randrange(2 ** 63))], out

    def run(self, inp, tracer):
        key, argv, out = inp
        with tracer.span(f"cli.subprocess.{key}"):
            proc = subprocess.Popen([sys.executable, "-m", "thermocap", *argv], env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            # wait4 gives this child's own peak RSS, excluding set-up children
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run_inproc(self, inp):
        """The same operation through cli.main, for the set-up probe."""
        return run_cli_inproc(inp[1])

    def check(self, inp, rc) -> list[str]:
        key, _, out = inp
        try:
            return check_cli_outputs(key, out, rc)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class BvpGrid:
    """Warm full-solver passes over grid size x undercooling."""

    name = "bvp-grid"
    cycle_len = 1
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        import_thermocap()
        from thermocap import FluidParams, GridConfig, bulk_conditions
        self.rng = random.Random(seed)
        self.p = FluidParams()
        self.cases = [(n, dt, bulk_conditions(self.p, delta_t=dt), GridConfig(n_points=n))
                      for n in GRID_SIZES for dt in DELTA_TS]

    def calibrate(self) -> float:
        return kernel_seconds()

    def make_input(self, i: int):
        return self.rng.sample(self.cases, len(self.cases))

    def run(self, cases, tracer):
        from thermocap import (equilibrium_stress_residual, interface_observables,
                               solve_full_bvp)
        results = []
        for n, dt, bc, grid in cases:
            with tracer.span("equilibrium.solve_full_bvp"):
                prof, report = solve_full_bvp(self.p, bc, grid)
            with tracer.span("equilibrium.interface_observables"):
                obs = interface_observables(self.p, bc, prof)
            with tracer.span("equilibrium.equilibrium_stress_residual"):
                stress = equilibrium_stress_residual(self.p, prof)
            results.append((n, dt, prof, report, obs, stress))
        return results

    def check(self, cases, results) -> list[str]:
        return [e for r in results for e in check_bvp_case(*r)]


class CheckWaves:
    """Warm ``thermocap check`` runs, each with its own seed."""

    name = "check-waves"
    cycle_len = 1
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        import_thermocap()
        self.rng = random.Random(seed)
        self.out = workdir / "check"

    def calibrate(self) -> float:
        return kernel_seconds()

    def make_input(self, i: int):
        return ["check", "--seed", str(self.rng.randrange(2 ** 63)), "--out", str(self.out)]

    def run(self, argv, tracer):
        with tracer.span("cli.main.check"):
            return run_cli_inproc(argv)

    def check(self, argv, rc) -> list[str]:
        return check_cli_outputs("check", self.out, rc)


WORKLOADS = {w.name: w for w in (CliCold, BvpGrid, CheckWaves)}
