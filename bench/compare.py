"""Spread of one commit's results, or the comparison of two commits.

    python3 bench/compare.py RESULTS_DIR
    python3 bench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

A results directory holds the records ``bench/run.py`` writes, one per
(workload, seed, trace).  With one directory the script prints, per
workload and metric, the median, quartiles and spread (interquartile range
over median) against the metric's bound in BENCHMARK.json.  With two it
pairs runs by workload and seed and gives each metric a verdict:

- improved: at least 10 pairs, the new side wins at least 9 in 10 of them
  (ties count for neither), and the medians differ by more than the base's
  interquartile range;
- worse: the median is worse than the base's by more than the bound
  (per-layer metrics, which have no bound: the improved rule, mirrored);
- unresolved: the base's own spread is wider than the bound, and not every
  new run beats every base run;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(results_dir: Path) -> dict:
    """{(workload, trace): {metric: {seed: value}}} plus units."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    units = {}
    for path in sorted(Path(results_dir).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        key = (record["env"]["workload"], record["trace"])
        for name, m in record["result"]["metrics"].items():
            out[key][name][record["env"]["seed"]] = m["value"]
            units[name] = m["unit"]
    return out, units


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, int, int]:
    """(verdict, pairs, wins) for one metric; base/new map seed -> value."""
    sign = -1.0 if better == "lower" else 1.0
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
    losses = sum(sign * (new[s] - base[s]) < 0 for s in seeds)
    b, n = list(base.values()), list(new.values())
    q1, mb, q3 = quartiles(b)
    gap = sign * (statistics.median(n) - mb)
    iqr = q3 - q1
    enough = len(seeds) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(seeds) and gap > iqr:
        return "improved", len(seeds), wins
    if bound is None:
        if enough and losses >= WIN_SHARE * len(seeds) and -gap > iqr:
            return "worse", len(seeds), wins
        return ("same" if len(set(b) | set(n)) == 1 else "unresolved"), len(seeds), wins
    if iqr > bound * abs(mb):
        every_better = min(sign * x for x in n) > max(sign * x for x in b)
        return ("no worse" if every_better else "unresolved"), len(seeds), wins
    if -gap > bound * abs(mb):
        return "worse", len(seeds), wins
    return "no worse", len(seeds), wins


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def report_spread(results_dir: Path) -> bool:
    """Print every metric's median and spread; True if all are within bound."""
    data, units = load(results_dir)
    spec = _spec()
    ok = True
    print(f"{'workload':12} {'metric':46} {'unit':6} {'n':>3}  {'median [q1, q3]':34} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, trace), metrics in sorted(data.items()):
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            bound = spec.get(name, {}).get("bound")
            s = spread(values) if len(values) > 1 else float("nan")
            flag = ""
            if bound is not None and trace == 0:
                flag = "ok" if s < bound / 3 else ("within bound" if s < bound else "TOO WIDE")
                ok &= name == "setup_s" or s < bound
            print(f"{workload:12} {name:46} {units[name]:6} {len(values):3}  "
                  f"{_fmt(values):34} {s:8.4f} {bound if bound is not None else '':>6} {flag}")
    return ok


def report_compare(base_dir: Path, new_dir: Path) -> None:
    base, units = load(base_dir)
    new, _ = load(new_dir)
    spec = _spec()
    print(f"{'workload':12} {'metric':46} {'base median [q1, q3]':30} "
          f"{'new median [q1, q3]':30} {'new/base':>9} {'pairs':>5} {'wins':>4}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in base[key]:
            if name not in new[key] or name not in spec:
                continue
            b, n = base[key][name], new[key][name]
            mb = statistics.median(b.values())
            ratio = statistics.median(n.values()) / mb if mb else float("nan")
            v, pairs, wins = verdict(b, n, spec[name]["better"], spec[name].get("bound"))
            print(f"{workload:12} {name:46} {_fmt(list(b.values())):30} "
                  f"{_fmt(list(n.values())):30} {ratio:9.4f} {pairs:5} {wins:4}  {v}"
                  f"  (base {mb:.4g} {units[name]})")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 1:
        return 0 if report_spread(Path(args[0])) else 1
    if len(args) == 2:
        report_compare(Path(args[0]), Path(args[1]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
