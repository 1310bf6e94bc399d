"""thermocap benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {cli-cold,bvp-grid,check-waves}
                         --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics: set-up time in
fresh interpreters, then warm-up operations, then whole cycles of timed
operations until S seconds have passed.  With ``--trace 1`` it runs the
traced layer probe and then the workload with every other cycle traced, and
reports the per-layer metrics.  Every operation's outputs are checked.  The
last line of standard output is the JSON result; the full record, with the
environment, is also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import NO_TRACE, Tracer  # noqa: E402
from workloads import SRC, WORKLOADS  # noqa: E402

SETUP_RUNS = 5    # fresh interpreters per run; setup_s is their median
WARMUP_OPS = 2    # untimed, checked operations before the timed loop
MAX_ERRORS_SHOWN = 5


def environment(workload: str, seed: int) -> dict:
    """Versions, machine and thread settings a result depends on."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "loadavg": os.getloadavg(),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Loop:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def op(self, tracer=NO_TRACE) -> float:
        """One checked operation; its wall seconds, or NaN if it failed."""
        inp = self.wl.make_input(self.index)
        if tracer is not NO_TRACE:
            tracer.op = self.index
        self.index += 1
        self.attempted += 1
        try:
            with tracer.span("bench.op"):
                start = time.perf_counter()
                out = self.wl.run(inp, tracer)
                elapsed = time.perf_counter() - start
            errors = self.wl.check(inp, out)
        except Exception:  # a failed operation is counted, the run goes on
            errors = [traceback.format_exc(limit=3)]
        if errors:
            self.fail("\n".join(errors))
            return float("nan")
        return elapsed


def _timed_cycles(seconds: float, cycle: int, step) -> None:
    """Call step(count) in whole cycles of operations until seconds have passed."""
    start = time.perf_counter()
    count = 0
    while count == 0 or count % cycle or time.perf_counter() - start < seconds:
        step(count)
        count += 1


def median_ok(values) -> float:
    """Median of the values that are not NaN (failed operations); NaN if none."""
    ok = [v for v in values if v == v]
    return statistics.median(ok) if ok else float("nan")


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def setup_child(args) -> int:
    """Fresh-interpreter set-up: import, build inputs, run one operation."""
    from workloads import import_thermocap
    import_thermocap()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        inp = wl.make_input(0)
        out = wl.run(inp, NO_TRACE) if wl.in_process else wl.run_inproc(inp)
        errors = wl.check(inp, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


def measure_setup(args, loop: Loop) -> float:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child",
            "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        samples.append(time.perf_counter() - start)
        loop.attempted += 1
        if proc.returncode != 0:
            loop.fail(f"set-up child exit {proc.returncode}: {proc.stderr[-500:]}")
    return statistics.median(samples)


def untraced_run(args, workdir: Path) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload](args.seed, workdir)
    loop = Loop(wl)
    setup_s = measure_setup(args, loop)
    for _ in range(WARMUP_OPS):
        loop.op()
    times: list[float] = []
    kernel = [wl.calibrate()]  # kernel[i] and kernel[i + 1] bracket times[i]

    def step(_):
        times.append(loop.op())
        kernel.append(wl.calibrate())

    _timed_cycles(args.seconds, wl.cycle_len, step)
    cal = [t / (0.5 * (k0 + k1)) for t, k0, k1 in zip(times, kernel, kernel[1:])]
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = wl.peak_rss_kb
    metrics = {
        "op_cal.p50": (median_ok(cal), "cal"),
        "setup_s": (setup_s, "s"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {"op_s": {"n": len(times), "p50": median_ok(times),
                      "tail": tail([t for t in times if t == t]), "samples": times},
             "kernel_s": {"p50": statistics.median(kernel), "samples": kernel},
             "errors": loop.errors}
    return _result(loop, metrics), extra


def traced_run(args, workdir: Path, spans_path: Path) -> tuple[dict, dict]:
    from layers import LAYERS, Probe, per_layer_names
    tracer = Tracer()
    probe = Probe(tracer, workdir)
    probe.run()
    wl = WORKLOADS[args.workload](args.seed, workdir)
    loop = Loop(wl)
    for _ in range(WARMUP_OPS):
        loop.op()
    traced: list[float] = []
    plain: list[float] = []

    def step(count):
        # alternate whole cycles so both sides see every command equally
        if (count // wl.cycle_len) % 2 == 0:
            traced.append(loop.op(tracer))
        else:
            plain.append(loop.op())

    _timed_cycles(args.seconds, 2 * wl.cycle_len, step)
    tracer.write(spans_path)
    traced_p50 = median_ok(traced)
    plain_p50 = median_ok(plain)
    values = dict(probe.metrics)
    self_times = tracer.self_times()
    for layer in LAYERS:
        values[f"self_s.{layer}"] = self_times.get(layer, 0.0)
    values["trace.op_s.p50"] = traced_p50
    values["trace.overhead_s"] = traced_p50 - plain_p50
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
    loop.attempted += probe.attempted
    for error in probe.errors:
        loop.fail(error)
    by_span = tracer.self_times(lambda name, op: name if isinstance(op, int) else None)
    extra = {"self_s_by_span": by_span, "spans": spans_path.name, "errors": loop.errors}
    return _result(loop, metrics), extra


def _result(loop: Loop, metrics: dict) -> dict:
    return {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", type=Path, default=BENCH_DIR / "results",
                    help="where the full result record is written")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "thermocap" / "__init__.py").is_file():
        print(f"no thermocap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args)

    env = environment(args.workload, args.seed)
    args.results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        if args.trace:
            result, extra = traced_run(args, workdir, args.results_dir / f"{stem}.spans.jsonl")
        else:
            result, extra = untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"env": env, "seconds": args.seconds, "trace": args.trace,
              "result": result, **extra}
    with open(args.results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{args.workload:12} {name:44} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        op_s = extra["op_s"]
        print(f"{args.workload:12} {'op_s.p50 (wall, not gated)':44} {op_s['p50']:.6g} s"
              f" (n={op_s['n']})")
        if op_s["tail"] is not None:
            pct, value = op_s["tail"]
            print(f"{args.workload:12} {'op_s.tail (p%.1f, not gated)' % pct:44} {value:.6g} s")
        print(f"{args.workload:12} {'kernel_s.p50 (1 cal, not gated)':44} "
              f"{extra['kernel_s']['p50']:.6g} s")
    print(f"{args.workload:12} {'failed_frac':44} {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']}/{result['attempted']})")
    for error in extra["errors"][:MAX_ERRORS_SHOWN]:
        print(error, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
