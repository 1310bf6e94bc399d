"""Command-line front end.

Four subcommands: ``profile`` computes an interface profile and its
observables, ``celerity`` the tangential wave speed by both routes,
``sweep`` the scaling report across undercoolings, and ``check`` a
cross-module invariant suite; ``sweep`` and ``check`` print their
PASS/FAIL verdict table.  Everything is deterministic: one seed (from
the config or --seed) drives all sampling and is recorded in every JSON
artifact, and JSON and CSV write each float in its shortest round-trip
form.  Commands only compute; one publisher writes a run's artifacts all
or none, each to a temp name, all renamed once every one is written.  A
config that repeats a key in any object is refused.  ``main(argv)`` may
be called repeatedly in one process: the parser is built on the first
call, and every call writes what the same command line would.

Exit codes: 0 success; 2 configuration or validation error (a grid of
more than 1000001 nodes and an artifact path that cannot be written among
them); 3 numerical failure (divergence, unreachable root, undecayed tails,
critical isotherm, float overflow, an allocation the machine cannot hold);
4 verification failure (a scaling law or invariant check did not pass).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from . import eos, equilibrium
from .eos import (BulkConditions, FluidParams, bulk_conditions, check_keys, frozen_record,
                  read_number, read_object)
from .equilibrium import GridConfig
from .errors import InvalidConfig, ModelError

if TYPE_CHECKING:  # the commands that use them import them
    from . import scaling, waves

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

_TOP_KEYS = {"params", "delta_T", "T0", "grid", "sweep", "format", "seed", "out"}
_LOCUS_KEYS = ("rho", "a", "g2")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _plain(value):
    """The value as json.dumps takes it: -0.0 as 0.0, non-finite floats as None,
    numpy scalars as Python numbers, mappings and tuples as dicts and lists."""
    if isinstance(value, (str, int, type(None))):  # bool is an int
        return value
    if isinstance(value, (float, np.floating)):
        v = float(value) + 0.0  # fold -0.0 into 0.0
        return v if math.isfinite(v) else None
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    return int(value) if isinstance(value, np.integer) else value


def _format_json(value) -> str:
    """Render strict JSON with sorted keys, a 2-space indent and every float
    in its shortest round-trip form, which holds the value bit for bit."""
    return json.dumps(_plain(value), indent=2, sort_keys=True, allow_nan=False)


def _publish(cfg: RunConfig, artifacts: Mapping[str, object]) -> None:
    """Write a run's artifacts, all or none: by file name, a JSON payload
    (a dict, written with the run's seed) or a CSV writer taking the stream."""
    # --format picks a family only where the run has both
    if len({callable(a) for a in artifacts.values()}) == 2 and cfg.fmt != "both":
        artifacts = {name: a for name, a in artifacts.items()
                     if callable(a) == (cfg.fmt == "csv")}
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:  # e.g. the path names an existing file
        raise InvalidConfig(f"cannot use {cfg.out_dir!r} as output directory: {exc}") from None
    # each file streams into its own random "x"-mode temp name, which refuses
    # an existing path and keeps the umask-derived mode a plain open() gives;
    # the temps are renamed only once all are written and no target is a
    # real directory (a symlink there is replaced, as os.replace does)
    temps = {}
    try:
        for name, artifact in artifacts.items():
            path = os.path.join(cfg.out_dir, name)
            temps[path] = f"{path}.{os.urandom(8).hex()}.tmp"
            with open(temps[path], "x", encoding="utf-8", newline="\n") as fh:
                if callable(artifact):
                    artifact(fh)
                else:
                    fh.write(_format_json({**artifact, "seed": cfg.seed}) + "\n")
        for path in temps:
            if os.path.isdir(path) and not os.path.islink(path):
                raise InvalidConfig(f"cannot write {path!r}: Is a directory")
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise InvalidConfig(f"cannot write {path!r}: {exc.strerror or exc}") from None
        raise


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@frozen_record
class RunConfig:
    """One command's validated config document and command-line options.

    sweep is None unless the command is sweep or the document has a sweep
    section; locus is None unless celerity was given --locus.
    """

    params: FluidParams
    bc: BulkConditions
    grid: GridConfig
    sweep: Optional[scaling.SweepConfig]
    out_dir: str
    fmt: str
    seed: int
    full: bool
    locus: Optional[waves.WaveLocus]


def _unique_keys(pairs: list) -> dict:
    # json's object_pairs_hook: a key given twice would keep its last value
    mapping = dict(pairs)
    if len(mapping) < len(pairs):
        keys = [key for key, _ in pairs]
        raise InvalidConfig(f"config repeats keys: {sorted({k for k in keys if keys.count(k) > 1})}")
    return mapping


def _parse_locus(tokens: Optional[Sequence[str]]) -> Optional[waves.WaveLocus]:
    if tokens is None:
        return None
    from . import waves
    seen = {}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep or key not in _LOCUS_KEYS or key in seen:
            raise InvalidConfig(
                f"--locus expects rho=<val> a=<val> g2=<val>, got {tok!r}")
        try:
            seen[key] = float(val)
        except ValueError:
            raise InvalidConfig(f"--locus value not a number: {tok!r}") from None
    # three tokens, none repeated or unknown: every key is present
    return waves.WaveLocus(rho=seen["rho"], grad_s_normal=seen["a"],
                           grad_s_tg_sq=seen["g2"])


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: Mapping = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = check_keys(json.load(fh, object_pairs_hook=_unique_keys), _TOP_KEYS, "config")
    p = read_object(FluidParams, raw.get("params", {}), "params")

    if "delta_T" in raw and "T0" in raw:
        raise InvalidConfig("config sets both delta_T and T0; pick one")
    # read under the document's own key, so an error names the key it set
    if "T0" in raw:
        bc = bulk_conditions(p, T0=read_number(raw["T0"], "T0"))
    else:
        bc = bulk_conditions(p, delta_t=read_number(raw.get("delta_T", 0.01), "delta_T"))

    grid = read_object(GridConfig, raw.get("grid", {}), "grid")
    # a sweep section is read under every command, so each command refuses
    # what sweep would; without one only sweep builds the defaults, which
    # cannot be refused (a sweep's grid is the top-level grid)
    sweep = None
    if "sweep" in raw or args.command == "sweep":
        from .scaling import SweepConfig
        sweep = read_object(SweepConfig, raw.get("sweep", {}), "sweep", grid=grid)
        if args.full:
            sweep = replace(sweep, use_full_solver=True)

    fmt = args.format if args.format is not None else raw.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise InvalidConfig(f"format must be csv, json or both, got {fmt!r}")

    seed = eos.read_seed(args.seed if args.seed is not None else raw.get("seed", 0))

    out_dir = args.out if args.out is not None else raw.get("out", ".")
    if not isinstance(out_dir, str):
        raise InvalidConfig("out must be a directory path string")

    return RunConfig(params=p, bc=bc, grid=grid, sweep=sweep,
                     out_dir=out_dir, fmt=fmt, seed=seed, full=args.full,
                     locus=_parse_locus(args.locus))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_profile(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.full:
        prof, report = equilibrium.solve_full_bvp(cfg.params, cfg.bc, cfg.grid)
    else:
        prof, report = equilibrium.closed_profile(cfg.params, cfg.bc, cfg.grid), None
    obs = equilibrium.interface_observables(cfg.params, cfg.bc, prof)
    artifacts = {"profile.csv": functools.partial(equilibrium.profile_to_csv, prof),
                 "observables.json": {**obs.to_dict(), "provenance": prof.provenance}}
    if report is not None:
        artifacts["newton.json"] = report.to_dict()
    return EXIT_OK, artifacts


def cmd_celerity(cfg: RunConfig) -> tuple[int, dict]:
    from . import waves
    if cfg.locus is not None:
        locus = cfg.locus
        closed = waves.celerity_general(cfg.params, locus)
        payload = {"locus_source": "override"}
    else:
        locus = waves.dividing_surface_locus(cfg.params, cfg.bc)
        closed = waves.celerity_at_critical_density(cfg.params, cfg.bc)
        payload = {"locus_source": "dividing-surface", "delta_T": cfg.bc.delta_t}
    payload["locus"] = locus.to_dict()
    payload["closed_form"] = closed.to_dict()
    if locus.grad_s_tg_sq > 0.0:
        root = waves.celerity_by_determinant(cfg.params, locus)
        payload["determinant_root"] = root.to_dict()
        scale = closed.v if closed.v > 0.0 else 1.0
        payload["relative_difference"] = abs(closed.v - root.v) / scale
    else:
        # no root to find when the tangential entropy gradient vanishes
        payload["determinant_root"] = None
        payload["relative_difference"] = None
    return EXIT_OK, {"celerity.json": payload}


def _verdict_table(kind: str, columns: str, rows: Sequence[tuple[str, bool, str]]) -> list[str]:
    """Heading, one line per (name, passed, detail) row, then the n/m tally."""
    width = max(len(kind), *(len(name) for name, _, _ in rows))
    lines = [f"{kind.ljust(width)}  status  {columns}"]
    lines += [f"{name.ljust(width)}  {'PASS' if passed else 'FAIL':6}  {detail}"
              for name, passed, detail in rows]
    lines.append(f"{sum(passed for _, passed, _ in rows)}/{len(rows)} {kind}s passed")
    return lines


def _sweep_table(report: scaling.ScalingReport, summary: scaling.VerificationSummary) -> str:
    rows = []
    for law, passed in summary.verdicts.items():
        fit = report.fits.get(law)
        detail = ("no fit: fewer than 2 finite, positive rows spanning a decade" if fit is None
                  else f"{fit.slope:+.5f}  {fit.target:+.4f}  {fit.tolerance:.4g}")
        rows.append((law, passed, detail))
    lines = _verdict_table("law", "slope     target   tolerance", rows)
    lines += [f"failed row delta_t={row.delta_t:.6g}: {row.error}"
              for row in report.rows if row.error is not None]
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: RunConfig) -> tuple[int, dict]:
    from . import scaling
    report = scaling.run_sweep(cfg.params, cfg.sweep)
    summary = scaling.verify_exponents(report)
    sys.stdout.write(_sweep_table(report, summary))
    payload = {**report.to_dict(), "verification": summary.to_dict(),
               "tolerance_overrides": cfg.sweep.tolerances or None}
    return (EXIT_OK if summary.all_passed else EXIT_VERIFICATION,
            {"sweep.csv": functools.partial(scaling.report_to_csv, report),
             "scaling.json": payload})


def cmd_check(cfg: RunConfig) -> tuple[int, dict]:
    from .checks import run_checks
    checks = run_checks(cfg.params, cfg.bc, cfg.grid, cfg.seed)
    lines = _verdict_table("check", "metric      threshold", [
        (c["name"], c["passed"], f"{c['metric']:<10.4e}  {c['threshold']:.4e}") for c in checks])
    sys.stdout.write("\n".join(lines) + "\n")
    all_passed = all(c["passed"] for c in checks)
    return (EXIT_OK if all_passed else EXIT_VERIFICATION,
            {"check.json": {"checks": checks, "all_passed": all_passed}})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, each gets a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (strict keys; defaults used when omitted)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory, created if missing (default '.')")
    common.add_argument("--format", choices=("csv", "json", "both"),
                        help="artifact families to write where a command has both "
                             "(celerity and check always write JSON)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="seed for all sampling, recorded in JSON outputs (default 0)")
    full = argparse.ArgumentParser(add_help=False)
    full.add_argument("--full", action="store_true",
                      help="use the coupled BVP solver instead of the closed form")

    ap = argparse.ArgumentParser(
        prog="thermocap",
        description="Equilibrium liquid-vapor interfaces of a thermocapillary "
                    "fluid and the acceleration waves they carry.")
    ap.set_defaults(full=False, locus=None)  # for the subcommands that lack the option
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", parents=[common, full],
                        help="interface profile and observables")
    sp.set_defaults(handler=cmd_profile)
    sp = sub.add_parser("celerity", parents=[common],
                        help="tangential wave celerity, closed form and determinant root")
    sp.add_argument("--locus", nargs=3, metavar="K=V",
                    help="evaluate at an explicit locus: rho=<val> a=<val> g2=<val>")
    sp.set_defaults(handler=cmd_celerity)
    sp = sub.add_parser("sweep", parents=[common, full],
                        help="scaling sweep across undercoolings")
    sp.set_defaults(handler=cmd_sweep)
    sp = sub.add_parser("check", parents=[common],
                        help="run the cross-module invariant suite")
    sp.set_defaults(handler=cmd_check)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    # ValueError covers bad JSON, RecursionError JSON nested past the interpreter's limit
    except (InvalidConfig, TypeError, ValueError, OSError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # numpy raises FloatingPointError where it would warn, as Python floats do
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code, artifacts = args.handler(cfg)
        _publish(cfg, artifacts)
        return code
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(_format_json(exc.report.to_dict()), file=sys.stderr)
        return EXIT_NUMERICAL
    except (ArithmeticError, MemoryError) as exc:
        # a closed form overflowing at extreme constants (a float ** raises
        # where * would return inf), a numpy overflow or division by zero, or
        # a grid the machine cannot allocate
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
