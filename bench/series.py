"""Run the benchmark over workloads x seeds and print every metric's spread.

    python3 bench/series.py --results-dir DIR [--workloads W ...]
                            [--seeds 1 2 ...] [--seconds S] [--trace 0|1]
                            [--base CHECKOUT BASE_RESULTS_DIR]

Runs go seed by seed, each seed through every workload, so slow drift of
the machine falls on all workloads alike.  With the defaults (all three
workloads, one seed) it prints every end-to-end metric by name and unit.
With --base, every run is paired with the same run of another checkout
(the parent commit), alternating which side goes first, and the script
ends with the comparison of the two sides instead of the spread.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from compare import SPEC, report_compare, report_spread  # noqa: E402


def run_one(root: Path, results_dir: Path, workload: str, seed: int, args) -> bool:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--results-dir", str(results_dir.resolve())],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    correct = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print(f"{root} {workload} seed {seed}: exit {proc.returncode}, correct {correct}",
          flush=True)
    return correct


def main(argv=None) -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--results-dir", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", nargs=2, metavar=("CHECKOUT", "BASE_RESULTS_DIR"),
                    help="another checkout to pair every run with")
    args = ap.parse_args(argv)

    sides = [(BENCH_DIR.parent, args.results_dir)]
    if args.base:
        sides.append((Path(args.base[0]).resolve(), Path(args.base[1])))
    all_correct = True
    for i, seed in enumerate(args.seeds):
        for workload in args.workloads:
            for root, results in (sides if i % 2 == 0 else sides[::-1]):
                all_correct &= run_one(root, results, workload, seed, args)
    if args.base:
        report_compare(Path(args.base[1]), args.results_dir)
        return 0 if all_correct else 1
    within = report_spread(args.results_dir)
    return 0 if all_correct and within else 1


if __name__ == "__main__":
    sys.exit(main())
