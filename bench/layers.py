"""Layer probe: a fixed, traced walk through every thermocap layer.

The probe is the same for every workload, so each traced run reports the
full per-layer metric set.  Each timing is the median span duration over a
few repetitions of one public call; counts (Newton iterations, step
halvings, modules loaded, failed sweep rows) come from the program's own
reports and repeat exactly from run to run.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import (CELERITY_REL_TOL, CLI_COMMANDS, DELTA_TS, DT_LABELS, GRID_SIZES,
                       check_bvp_case, check_cli_outputs, import_thermocap, run_cli_inproc,
                       subprocess_env)

REPS = 3         # calls of a millisecond or more
FAST_REPS = 50   # calls of microseconds


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [("import.thermocap_s", "s"), ("import.interpreter_s", "s"),
             ("import.scipy_s", "s"), ("import.modules_loaded", "count")]
    names += [(f"cli.{key}_s", "s") for key, _ in CLI_COMMANDS]
    names += [(f"cli.inproc.{key}_s", "s") for key, _ in CLI_COMMANDS]
    names += [("eos.bulk_energy_partials_s.n16001", "s"),
              ("eos.bulk_energy_hessian_s.n16001", "s")]
    for n in GRID_SIZES:
        for dt in DELTA_TS:
            tag = f"n{n}.dt{DT_LABELS[dt]}"
            names += [(f"equilibrium.solve_full_bvp_s.{tag}", "s"),
                      (f"equilibrium.newton_iterations.{tag}", "count"),
                      (f"equilibrium.step_halvings.{tag}", "count")]
    names += [(f"equilibrium.newton_iter_s.n{n}", "s") for n in GRID_SIZES]
    names += [("equilibrium.accepted_step_ratio", "ratio")]
    for call in ("closed_profile", "surface_tension_quadrature", "equilibrium_stress_residual"):
        names += [(f"equilibrium.{call}_s.n{n}", "s") for n in GRID_SIZES]
    names += [("equilibrium.profile_to_csv_s.n1001", "s")]
    names += [("waves.celerity_by_determinant_s", "s"), ("waves.celerity_general_s", "s"),
              ("waves.celerity_at_critical_density_s", "s")]
    names += [("scaling.run_sweep_closed_s", "s"), ("scaling.run_sweep_full_s", "s"),
              ("scaling.failed_rows", "count")]
    names += [(f"self_s.{layer}", "s") for layer in LAYERS]
    names += [("trace.op_s.p50", "s"), ("trace.overhead_s", "s")]
    return names


# span layers: the benchmark's own loop, then the program's modules
LAYERS = ("bench", "import", "cli", "eos", "equilibrium", "waves", "scaling")


def scipy_import_seconds(importtime_stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules, in seconds.

    ``-X importtime`` prints one line per module after its imports finish,
    so a module's ancestors appear later in the output, one indent level up.
    """
    total_us = 0
    open_scipy_depths: list[int] = []  # depths of scipy ancestors still pending
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # walk backwards so every parent is seen before its children
    for depth, name, cumulative in reversed(entries):
        while open_scipy_depths and open_scipy_depths[-1] >= depth:
            open_scipy_depths.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not open_scipy_depths:
            total_us += cumulative
        if is_scipy:
            open_scipy_depths.append(depth)
    return total_us * 1e-6


class Probe:
    """Runs the traced layer walk and collects metrics and failures."""

    def __init__(self, tracer, workdir: Path):
        self.tracer = tracer
        self.workdir = workdir
        self.env = subprocess_env()
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def _timed(self, span: str, reps: int, fn):
        """Call fn reps times under one span name; return the last result."""
        for _ in range(reps):
            with self.tracer.span(span):
                result = fn()
        self.attempted += reps
        return result

    def _median(self, span: str) -> float:
        return statistics.median(self.tracer.durations(span))

    def run(self) -> None:
        for layer, step in (("import", self.imports), ("cli", self.cli), ("eos", self.eos),
                            ("equilibrium", self.equilibrium), ("waves", self.waves),
                            ("scaling", self.scaling)):
            self.tracer.op = f"probe.{layer}"
            with self.tracer.span(f"bench.probe.{layer}"):
                step()

    def _python(self, *argv: str) -> subprocess.CompletedProcess:
        proc = subprocess.run([sys.executable, *argv], env=self.env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            self.errors.append(f"python {' '.join(argv)}: exit {proc.returncode}")
        return proc

    def imports(self) -> None:
        self._timed("import.interpreter", REPS, lambda: self._python("-c", "pass"))
        self._timed("import.thermocap", REPS,
                    lambda: self._python("-c", "import thermocap"))
        proc = self._timed("import.importtime", 1, lambda: self._python(
            "-X", "importtime", "-c", "import sys, thermocap; print(len(sys.modules))"))
        m = self.metrics
        m["import.thermocap_s"] = self._median("import.thermocap")
        m["import.interpreter_s"] = self._median("import.interpreter")
        m["import.scipy_s"] = scipy_import_seconds(proc.stderr)
        m["import.modules_loaded"] = int(proc.stdout.strip() or 0)

    def _cli_subprocess(self, argv) -> int:
        return subprocess.run([sys.executable, "-m", "thermocap", *argv], env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    def cli(self) -> None:
        import_thermocap()  # so the first in-process call does not pay the import
        for key, argv in CLI_COMMANDS:
            for mode, call in (("subprocess", self._cli_subprocess), ("main", run_cli_inproc)):
                for rep in range(REPS):
                    out = self.workdir / f"probe-{key}-{mode}-{rep}"
                    full = [*argv, "--out", str(out)]
                    rc = self._timed(f"cli.{mode}.{key}", 1, lambda: call(full))
                    self.errors += check_cli_outputs(key, out, rc)
            self.metrics[f"cli.{key}_s"] = self._median(f"cli.subprocess.{key}")
            self.metrics[f"cli.inproc.{key}_s"] = self._median(f"cli.main.{key}")

    def eos(self) -> None:
        from thermocap import FluidParams, GridConfig, bulk_conditions, closed_profile
        from thermocap.eos import bulk_energy_hessian, bulk_energy_partials
        p = FluidParams()
        prof = closed_profile(p, bulk_conditions(p, delta_t=0.1), GridConfig(n_points=16001))
        for call, fn in (("bulk_energy_partials", bulk_energy_partials),
                         ("bulk_energy_hessian", bulk_energy_hessian)):
            self._timed(f"eos.{call}", FAST_REPS, lambda: fn(p, prof.rho, prof.s))
            self.metrics[f"eos.{call}_s.n16001"] = self._median(f"eos.{call}")

    def equilibrium(self) -> None:
        from thermocap import (FluidParams, GridConfig, bulk_conditions, closed_profile,
                               equilibrium_stress_residual, interface_observables,
                               solve_full_bvp, surface_tension_quadrature)
        from thermocap.equilibrium import profile_to_csv
        p = FluidParams()
        m = self.metrics
        iterations = halvings = 0
        for n in GRID_SIZES:
            grid = GridConfig(n_points=n)
            solve_s = solve_iters = 0
            for dt in DELTA_TS:
                bc = bulk_conditions(p, delta_t=dt)
                span = f"equilibrium.solve_full_bvp.n{n}.dt{DT_LABELS[dt]}"
                prof, report = self._timed(span, REPS,
                                           lambda: solve_full_bvp(p, bc, grid))
                obs = interface_observables(p, bc, prof)
                self.errors += check_bvp_case(n, dt, prof, report, obs,
                                              equilibrium_stress_residual(p, prof))
                tag = f"n{n}.dt{DT_LABELS[dt]}"
                m[f"equilibrium.solve_full_bvp_s.{tag}"] = self._median(span)
                m[f"equilibrium.newton_iterations.{tag}"] = report.iterations
                m[f"equilibrium.step_halvings.{tag}"] = sum(report.damping_history)
                solve_s += m[f"equilibrium.solve_full_bvp_s.{tag}"]
                solve_iters += report.iterations
                iterations += report.iterations
                halvings += sum(report.damping_history)
            m[f"equilibrium.newton_iter_s.n{n}"] = solve_s / solve_iters

            bc = bulk_conditions(p, delta_t=0.01)
            prof = self._timed(f"equilibrium.closed_profile.n{n}", FAST_REPS,
                               lambda: closed_profile(p, bc, grid))
            self._timed(f"equilibrium.surface_tension_quadrature.n{n}", FAST_REPS,
                        lambda: surface_tension_quadrature(p, prof))
            self._timed(f"equilibrium.equilibrium_stress_residual.n{n}", FAST_REPS,
                        lambda: equilibrium_stress_residual(p, prof))
            for call in ("closed_profile", "surface_tension_quadrature",
                         "equilibrium_stress_residual"):
                m[f"equilibrium.{call}_s.n{n}"] = self._median(f"equilibrium.{call}.n{n}")
            if n == 1001:
                self._timed("equilibrium.profile_to_csv.n1001", REPS,
                            lambda: profile_to_csv(prof, io.StringIO()))
                m["equilibrium.profile_to_csv_s.n1001"] = self._median(
                    "equilibrium.profile_to_csv.n1001")
        m["equilibrium.accepted_step_ratio"] = iterations / (iterations + halvings)

    def waves(self) -> None:
        from thermocap import (FluidParams, bulk_conditions, celerity_at_critical_density,
                               celerity_by_determinant, celerity_general,
                               dividing_surface_locus)
        p = FluidParams()
        bc = bulk_conditions(p, delta_t=0.01)
        locus = dividing_surface_locus(p, bc)
        root = self._timed("waves.celerity_by_determinant", FAST_REPS,
                           lambda: celerity_by_determinant(p, locus))
        closed = self._timed("waves.celerity_general", FAST_REPS,
                             lambda: celerity_general(p, locus))
        self._timed("waves.celerity_at_critical_density", FAST_REPS,
                    lambda: celerity_at_critical_density(p, bc))
        rel = abs(root.v - closed.v) / closed.v
        if not rel <= CELERITY_REL_TOL:
            self.errors.append(f"waves: determinant root off closed form by {rel:.3e}")
        for call in ("celerity_by_determinant", "celerity_general",
                     "celerity_at_critical_density"):
            self.metrics[f"waves.{call}_s"] = self._median(f"waves.{call}")

    def scaling(self) -> None:
        from thermocap import FluidParams, SweepConfig, run_sweep, verify_exponents
        p = FluidParams()
        failed_rows = 0
        for kind, cfg in (("closed", SweepConfig()), ("full", SweepConfig(use_full_solver=True))):
            report = self._timed(f"scaling.run_sweep_{kind}", REPS,
                                 lambda: run_sweep(p, cfg))
            failed_rows += sum(r.error is not None for r in report.rows)
            if not verify_exponents(report).all_passed:
                self.errors.append(f"scaling: {kind} sweep verification failed")
            self.metrics[f"scaling.run_sweep_{kind}_s"] = self._median(f"scaling.run_sweep_{kind}")
        self.metrics["scaling.failed_rows"] = failed_rows
