"""End-to-end CLI tests: artifacts, determinism, exit codes.

Every invocation is a real subprocess, so these cover argument parsing,
config ingestion, file layout and the documented exit-code contract:
0 success, 2 config error, 3 model error, 4 verification failure.
"""

import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

CLI = [sys.executable, "-m", "thermocap"]


def run_cli(tmp_path, *args, config=None, out="out"):
    cmd = [*CLI, *args]
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        cmd += ["--config", str(cfg_path)]
    out_dir = tmp_path / out
    cmd += ["--out", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc, out_dir


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_closed_form_artifacts(tmp_path):
    proc, out = run_cli(tmp_path, "profile")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "y,rho,s"
    assert len(lines) == 1002
    mid = [float(tok) for tok in lines[501].split(",")]
    assert mid[0] == 0.0
    assert mid[1] == 1.0
    assert mid[2] == pytest.approx(-0.005, rel=1e-15)
    obs = read_json(out / "observables.json")
    assert obs["provenance"] == "closed-form"
    assert obs["rho_l"] == pytest.approx(1.1, rel=1e-15)
    assert obs["rho_v"] == pytest.approx(0.9, rel=1e-15)
    assert obs["zeta"] == pytest.approx(math.sqrt(50.0), rel=1e-15)
    assert obs["delta_T"] == 0.01
    assert obs["seed"] == 0
    assert not (out / "newton.json").exists()


def test_profile_full_solver_artifacts(tmp_path):
    proc, out = run_cli(tmp_path, "profile", "--full")
    assert proc.returncode == 0, proc.stderr
    newton = read_json(out / "newton.json")
    assert newton["converged"] is True
    assert newton["iterations"] <= 10
    assert newton["residual_norm"] <= 1e-10
    assert len(newton["residual_history"]) == newton["iterations"]
    assert newton["residual_history"][-1] <= 1e-10
    assert abs(newton["phase_force"]) < 1e-8
    obs = read_json(out / "observables.json")
    assert obs["provenance"] == "full-solver"
    # quadrature tension on the solved profile differs from the closed form
    # by a first-order correction, well under one percent here
    assert obs["sigma_quad"] == pytest.approx(obs["sigma_closed"], rel=5e-3)


def test_full_profile_report_does_not_depend_on_the_grid(tmp_path):
    # the collocation takes its own nodes, so the returned grid changes
    # nothing the solver reports: newton.json is the same bytes at 1001 and
    # at 16001 nodes
    reports = []
    for n in (1001, 16001):
        proc, out = run_cli(tmp_path, "profile", "--full",
                            config={"delta_T": 0.1, "grid": {"n_points": n}}, out=f"out{n}")
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "newton.json").read_bytes())
    assert reports[0] == reports[1]


def test_profile_format_selects_artifacts(tmp_path):
    _, out_csv = run_cli(tmp_path, "profile", "--format", "csv", out="csv_only")
    assert (out_csv / "profile.csv").exists()
    assert not (out_csv / "observables.json").exists()
    _, out_json = run_cli(tmp_path, "profile", "--format", "json", out="json_only")
    assert (out_json / "observables.json").exists()
    assert not (out_json / "profile.csv").exists()


def test_profile_grid_comes_from_config(tmp_path):
    # wide enough that the tension quadrature still accepts the tails
    config = {"grid": {"n_points": 51, "half_width_in_zeta": 16.0}}
    proc, out = run_cli(tmp_path, "profile", "--format", "csv", config=config)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "profile.csv").read_text().splitlines()
    assert len(lines) == 52


# ---------------------------------------------------------------------------
# celerity
# ---------------------------------------------------------------------------

def test_celerity_two_routes_agree(tmp_path):
    proc, out = run_cli(tmp_path, "celerity")
    assert proc.returncode == 0, proc.stderr
    data = read_json(out / "celerity.json")
    assert data["locus_source"] == "dividing-surface"
    assert data["closed_form"]["v"] == pytest.approx(3.4641016151377547e-5, rel=1e-12)
    assert data["determinant_root"]["v"] == pytest.approx(data["closed_form"]["v"],
                                                          rel=1e-9)
    assert data["relative_difference"] <= 1e-10
    assert data["locus"]["rho"] == 1.0


def test_celerity_locus_override(tmp_path):
    proc, out = run_cli(tmp_path, "celerity", "--locus",
                        "rho=1.0", "a=0", "g2=1.25e-9")
    assert proc.returncode == 0, proc.stderr
    data = read_json(out / "celerity.json")
    assert data["locus_source"] == "override"
    assert data["closed_form"]["v"] == pytest.approx(3.4641016151377547e-5, rel=1e-12)


def test_celerity_at_the_critical_point(tmp_path):
    proc, out = run_cli(tmp_path, "celerity", config={"delta_T": 0.0})
    assert proc.returncode == 0, proc.stderr
    data = read_json(out / "celerity.json")
    assert data["closed_form"]["v"] == 0.0
    assert data["determinant_root"] is None
    assert data["relative_difference"] is None


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_closed_form_passes(tmp_path):
    proc, out = run_cli(tmp_path, "sweep")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5
    data = read_json(out / "scaling.json")
    assert data["verification"]["all_passed"] is True
    assert data["use_full_solver"] is False


def test_sweep_full_solver_passes(tmp_path):
    proc, out = run_cli(tmp_path, "sweep", "--full")
    assert proc.returncode == 0, proc.stderr
    data = read_json(out / "scaling.json")
    assert data["use_full_solver"] is True
    assert data["verification"]["all_passed"] is True
    assert data["verification"]["laws"]["deviation"] is True


def test_sweep_unreachable_tolerance_fails_but_reports(tmp_path):
    config = {"sweep": {"use_full_solver": True,
                        "tolerances": {"deviation": 1e-6}}}
    proc, out = run_cli(tmp_path, "sweep", config=config)
    assert proc.returncode == 4
    data = read_json(out / "scaling.json")
    assert data["verification"]["laws"]["deviation"] is False
    assert data["tolerance_overrides"] == {"deviation": 1e-6}
    # each fit records the tolerance it was judged by, and its verdict is
    # the verification's: the file never contradicts itself
    assert data["fits"]["deviation"]["tolerance"] == 1e-6
    assert set(data["fits"]) == set(data["verification"]["laws"])
    for law, fit in data["fits"].items():
        assert fit["passed"] == data["verification"]["laws"][law], law
    assert (out / "sweep.csv").exists()
    # stdout names the failed law with the overridden tolerance it missed
    lines = proc.stdout.splitlines()
    deviation = next(line.split() for line in lines if line.startswith("deviation"))
    assert deviation[1] == "FAIL" and deviation[-1] == "1e-06"
    assert lines[-1] == "5/6 laws passed"


def test_sweep_with_a_failed_row_fails_verification(tmp_path):
    # delta_T = 0.5 outgrows the default box (holding its front takes a real
    # force); the five rows left still fit every law, but a requested row
    # that is missing must fail the verdict
    config = {"sweep": {"delta_t_values": [0.5, 0.01, 0.003, 0.001, 0.0003, 0.0001]}}
    proc, out = run_cli(tmp_path, "sweep", "--full", config=config)
    assert proc.returncode == 4, proc.stderr
    data = read_json(out / "scaling.json")
    assert data["rows"][0]["error"].startswith("UndecayedTail")
    assert all(row["error"] is None for row in data["rows"][1:])
    assert all(data["verification"]["laws"].values())
    assert data["verification"]["failed_rows"] == 1
    assert data["verification"]["all_passed"] is False
    # the verdict is on stdout too: one line per law with slope, target and
    # tolerance, the tally, then the failed row with its error
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["law", "status", "slope", "target", "tolerance"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:7]}
    assert set(rows) == {"amp_rho", "amp_s", "zeta", "sigma", "v", "deviation"}
    assert all(r[0] == "PASS" for r in rows.values())
    assert rows["v"][2:] == ["+2.0000", "0.02"] and rows["sigma"][3] == "0.1"
    assert lines[7:] == ["6/6 laws passed", "failed row delta_t=0.5: " + data["rows"][0]["error"]]


def test_sweep_names_why_a_law_has_no_fit(tmp_path, capsys):
    # four good rows over three decades, each with v = inf: the law lacks
    # finite, positive values, not rows
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text('{"params": {"E": 1e308, "A": 10, "B": 100}}')
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert "v        FAIL    no fit: fewer than 2 finite, positive rows spanning a decade" in lines
    assert lines[-1] == "4/5 laws passed"
    data = read_json(tmp_path / "out" / "scaling.json")
    assert all(row["error"] is None and row["v"] is None for row in data["rows"])


def test_sweep_rejects_single_undercooling(tmp_path):
    proc, out = run_cli(tmp_path, "sweep",
                        config={"sweep": {"delta_t_values": [1e-2]}})
    assert proc.returncode == 2
    assert not out.exists()


def test_profile_full_refuses_a_box_too_short_for_the_front(tmp_path):
    # at delta_T = 0.9 the slow tail outruns 15 widths; the solve used to
    # exit 0 with sigma_quad 49 % above the closed form and the front at 13.5
    # widths, and must now fail loudly with the pinning force and its report
    proc, out = run_cli(tmp_path, "profile", "--full", config={"delta_T": 0.9})
    assert proc.returncode == 3
    assert proc.stderr.startswith("UndecayedTail: holding the front at y = 0")
    assert "half_width_in_zeta = 15" in proc.stderr
    assert '"converged": false' in proc.stderr and '"phase_force"' in proc.stderr
    assert not (out / "observables.json").exists()


@pytest.mark.parametrize("args", [
    ("profile",), ("profile", "--full"), ("sweep",), ("sweep", "--full"), ("check",),
])
def test_a_box_overflowing_the_grid_is_a_config_error_for_every_command(
        tmp_path, capsys, args):
    # a box that no undercooling can hold is the config's fault, so sweep
    # refuses it as the others do rather than failing each of its rows
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": {"half_width_in_zeta": 1e308}}))
    out = tmp_path / "out"
    assert cli.main([*args, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: grid end half_width_in_zeta * zeta = 1e+308 * ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_suite_passes_and_prints_a_table(tmp_path):
    proc, out = run_cli(tmp_path, "check")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if len(line.split()) > 1 and line.split()[1] in ("PASS", "FAIL")]
    data = read_json(out / "check.json")
    assert len(data["checks"]) >= 12
    assert all(c["passed"] for c in data["checks"])
    assert len(rows) == len(data["checks"])
    names = {c["name"] for c in data["checks"]}
    assert "jump-determinant-identity" in names
    assert "first-integral-residual" in names


def test_check_samples_undercoolings_inside_the_configs_coexistence(tmp_path):
    # coexistence ends at delta_T = B rho_c^2 / A = 0.1 here: the suite
    # samples the config's own undercooling and below it, never a fixed 0.1
    proc, _ = run_cli(tmp_path, "check", config={"params": {"B": 0.1}})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "12/12 checks passed"


@pytest.mark.parametrize("config", [
    {"params": {"B": 1e-200}},    # rho_v = -1e99: NonPositiveData
    {"delta_T": 1e300},           # rho_v = -1e150: NonPositiveData
    {"params": {"rho_c": 1e300}},  # rho_l = rho_v: CriticalIsotherm
    {"delta_T": 1e-300},          # rho_l = rho_v: CriticalIsotherm
])
def test_check_names_a_missing_coexistence_as_profile_does(tmp_path, config):
    # the suite asks for the bulk states before it samples, and celerity's
    # closed forms refuse a state with no interface with bulk_states' error,
    # so both name the cause instead of an overflow
    failures = []
    for command in ("profile", "check", "celerity"):
        proc, _ = run_cli(tmp_path, command, config=config, out=command)
        assert proc.returncode == 3, proc.stderr
        failures.append(proc.stderr.splitlines()[-1])
    name = failures[0].split(":")[0]
    assert name in ("NonPositiveData", "CriticalIsotherm")
    assert all(f.startswith(f"{name}: ") for f in failures[1:]), failures


@pytest.mark.parametrize("half_width", [10, 12, 13.5])
def test_check_fails_one_row_where_only_the_closed_route_refuses_the_box(tmp_path, half_width):
    # the closed front's tails reach the bulk to 1e-6 only past about 13.8
    # widths; the solved front answers on these boxes, so check fails the
    # closed quadrature's row (metric inf, written as null) and goes on
    config = {"grid": {"half_width_in_zeta": half_width}}
    proc, _ = run_cli(tmp_path, "profile", "--full", config=config, out="profile")
    assert proc.returncode == 0, proc.stderr
    proc, out = run_cli(tmp_path, "check", config=config, out="check")
    assert proc.returncode == 4, proc.stderr
    assert "FAIL    inf         1.0000e-06" in proc.stdout  # columns still line up
    failed = [c for c in read_json(out / "check.json")["checks"] if not c["passed"]]
    assert failed == [{"name": "surface-tension-quadrature-vs-closed", "metric": None,
                       "threshold": 1e-6, "passed": False}]


def test_check_table_columns_line_up_under_their_headings(capsys, tmp_path):
    from thermocap import cli

    assert cli.main(["check", "--out", str(tmp_path / "out")]) == 0
    header, *rows, tally = capsys.readouterr().out.splitlines()
    assert tally.endswith("checks passed") and rows
    status, metric, threshold = (header.index(word)
                                 for word in ("status", "metric", "threshold"))
    for row in rows:
        assert row[status:status + 4] in ("PASS", "FAIL")
        assert row[metric - 2:metric] == "  " and row[metric] != " "
        assert row[threshold - 2:threshold] == "  " and row[threshold] != " "


def test_check_seed_is_recorded_and_respected(tmp_path):
    proc0, out0 = run_cli(tmp_path, "check", "--seed", "7", out="a")
    proc1, _ = run_cli(tmp_path, "check", "--seed", "7", out="b")
    assert proc0.returncode == proc1.returncode == 0
    assert read_json(out0 / "check.json")["seed"] == 7
    assert proc0.stdout == proc1.stdout


@pytest.mark.parametrize("seed", [None, True, -1, 2 ** 64, 2 ** 70, 1.5])
def test_library_and_cli_share_one_seed_rule(tmp_path, seed):
    # run_checks neither draws OS entropy for None nor takes True as 1, and
    # refuses what the CLI refuses, with the CLI's message
    from thermocap import FluidParams, GridConfig, bulk_conditions
    from thermocap.checks import run_checks
    from thermocap.errors import InvalidConfig

    message = f"seed must be an integer in [0, 2^64), got {seed!r}"
    p = FluidParams()
    with pytest.raises(InvalidConfig) as refused:
        run_checks(p, bulk_conditions(p, delta_t=0.01), GridConfig(), seed)
    assert str(refused.value) == message
    proc, out = run_cli(tmp_path, "check", config={"seed": seed})
    assert proc.returncode == 2 and proc.stderr == f"config error: {message}\n"
    assert not out.exists()


def test_a_numpy_integer_seed_is_read_as_its_int():
    import numpy as np
    from thermocap.checks import read_seed

    seed = read_seed(np.uint64(2 ** 64 - 1))
    assert type(seed) is int and seed == 2 ** 64 - 1


def test_check_passes_where_the_probe_speed_meets_the_root(tmp_path):
    # this seed draws a probe speed within 4e-9 of the determinant's root,
    # where det M itself nearly cancels (measured against |det M| the error
    # reads 8.6e-9); the identity is judged against the size of its terms,
    # so cancellation is not mistaken for an error
    from thermocap import cli
    from thermocap.checks import _uniforms

    seed = 158507
    assert abs(2.0 * _uniforms(seed, 1000)[900:] - 1.0).min() < 4e-9
    out = tmp_path / "out"
    assert cli.main(["check", "--seed", str(seed), "--out", str(out)]) == 0
    entry = next(c for c in read_json(out / "check.json")["checks"]
                 if c["name"] == "jump-determinant-identity")
    assert entry["passed"] and entry["threshold"] == 1e-12


@pytest.mark.parametrize("params", [
    {"mu_c": 1e4}, {"mu_c": 1e6}, {"T_c": 1e6}, {"p_c": 1e6},
    {"mu_c": -3.0, "T_c": 7.0, "p_c": 1e6},
    {"mu_c": 1e9}, {"mu_c": 1e12, "T_c": 1e12, "p_c": 1e12},
], ids=["mu_c=1e4", "mu_c=1e6", "T_c=1e6", "p_c=1e6", "combined", "mu_c=1e9", "all=1e12"])
def test_check_passes_at_gauge_constants_the_solver_answers(tmp_path, capsys, params):
    # mu_c, T_c and p_c only reproduce the critical state; check judges the
    # delta_t forms the solver uses, so it passes wherever the full profile does
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"params": params}))
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "12/12 checks passed"


@pytest.mark.parametrize("config", [
    {"delta_T": 0.05},
    {"delta_T": 0.1, "grid": {"half_width_in_zeta": 20}},
    {"params": {"C": 6.31, "D": -0.715, "E": 0.297, "rho_c": 0.805}, "delta_T": 0.297,
     "grid": {"n_points": 2243}},
], ids=["dT=0.05", "wide-box", "strong-coupling"])
def test_check_passes_where_the_tail_test_once_hid_a_failing_stress_row(tmp_path, capsys, config):
    # with the map scale at 4 widths each solve stopped on 40 intervals, whose
    # coefficient tail passed _TAIL while the stress certificate read 1.1e-7,
    # 5.6e-7 and 2.1e-7 over its 1e-7, and check exited 4; at 6 widths the
    # first two stop there at 2.5e-9 and 1.5e-8, and the third refines to 80
    # intervals and reads 3.1e-10
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "12/12 checks passed"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("profile",),
    ("profile", "--full"),
    ("celerity",),
    ("sweep",),
    ("check",),
])
def test_artifacts_are_byte_identical_across_runs(tmp_path, args):
    _, out_a = run_cli(tmp_path, *args, "--seed", "3", out="a")
    _, out_b = run_cli(tmp_path, *args, "--seed", "3", out="b")
    files_a = sorted(f.name for f in out_a.iterdir())
    files_b = sorted(f.name for f in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_json_output_is_normalized(tmp_path):
    # floats in shortest round-trip form, no negative zero, no bare NaN tokens
    for args in (("celerity",), ("sweep", "--full")):
        _, out = run_cli(tmp_path, *args, out="norm_" + args[0])
        for path in out.glob("*.json"):
            text = path.read_text()
            assert "-0," not in text and "-0\n" not in text, path
            assert "NaN" not in text and "Infinity" not in text, path
            json.loads(text)  # must stay strictly parseable


def test_floats_repr_in_their_shortest_round_trip_form():
    # every artifact float is its repr, so artifacts are byte-stable across
    # platforms only where repr is the shortest round-trip form (every
    # CPython build on IEEE-754 hardware); the "legacy" style writes 17 digits
    assert sys.float_repr_style == "short"


class _FloatText(str):
    """A JSON float token's text, as json.loads hands it to parse_float."""


def _float_texts(value):
    if isinstance(value, _FloatText):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _float_texts(item)


@pytest.mark.parametrize("args", [
    ("profile",), ("profile", "--full"), ("celerity",), ("sweep",), ("sweep", "--full"),
    ("check",),
])
def test_every_artifact_float_is_its_shortest_round_trip_text(tmp_path, args):
    proc, out = run_cli(tmp_path, *args, "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    tokens = []
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            tokens += _float_texts(json.loads(text, parse_float=_FloatText))
        else:  # every CSV value is a float
            tokens += [tok for line in text.splitlines()[1:] for tok in line.split(",")]
    assert tokens
    longer = [tok for tok in tokens if tok != repr(float(tok))]
    assert not longer, longer[:5]


def _bits(rows):
    return [[float(v).hex() for v in row] for row in rows]


@pytest.mark.parametrize("full", [False, True])
def test_profile_artifacts_hold_the_librarys_values_bit_for_bit(tmp_path, full):
    from thermocap import (FluidParams, GridConfig, bulk_conditions, bulk_states,
                           closed_profile, interface_observables, solve_full_bvp)

    proc, out = run_cli(tmp_path, "profile", *["--full"] * full, "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    p = FluidParams()
    bc = bulk_conditions(p, delta_t=0.01)
    prof = (solve_full_bvp(p, bc, GridConfig())[0] if full
            else closed_profile(p, bc, GridConfig()))
    obs = read_json(out / "observables.json")
    assert obs["rho_l"].hex() == bulk_states(p, bc)[0].rho.hex()
    expected = interface_observables(p, bc, prof).to_dict()
    assert _bits([[obs[k] for k in expected]]) == _bits([expected.values()])
    rows = [line.split(",") for line in (out / "profile.csv").read_text().splitlines()[1:]]
    assert _bits(rows) == _bits(zip(prof.y, prof.rho, prof.s))


@pytest.mark.parametrize("full", [False, True])
def test_sweep_csv_holds_the_librarys_rows_bit_for_bit(tmp_path, full):
    from thermocap import FluidParams, run_sweep
    from thermocap.scaling import CSV_HEADER, SweepConfig

    proc, out = run_cli(tmp_path, "sweep", *["--full"] * full, "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    report = run_sweep(FluidParams(), SweepConfig(use_full_solver=full))
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert _bits(rows) == _bits([getattr(r, name) for name in CSV_HEADER.split(",")]
                                for r in report.rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.floats(), n=st.integers(-2 ** 63, 2 ** 63 - 1))
@example(x=5e-324, n=0)
@example(x=-0.0, n=-1)
@example(x=math.inf, n=0)
@example(x=-math.inf, n=0)
@example(x=math.nan, n=0)
def test_format_json_writes_each_value_back_exactly(x, n):
    # finite floats (subnormals too, and numpy's) come back bit for bit, -0.0
    # as 0.0, non-finite floats as null; numpy integers come back as ints,
    # tuples and read-only mappings as lists and objects
    import types

    import numpy as np

    from thermocap import cli

    doc = {"x": x, "np": np.float64(x), "n": np.int64(n), "t": (x,),
           "m": types.MappingProxyType({"x": x})}
    back = json.loads(cli._format_json(doc))
    want = (x + 0.0).hex() if math.isfinite(x) else None
    for got in (back["x"], back["np"], back["t"][0], back["m"]["x"]):
        assert (got if got is None else got.hex()) == want
    assert type(back["n"]) is int and back["n"] == n
    assert type(back["t"]) is list and type(back["m"]) is dict


# ---------------------------------------------------------------------------
# config validation and error paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", [
    {"unknown_top": 1},
    {"params": {"rho_crit": 1.0}},
    {"params": {"D": 1.5}},
    {"delta_T": 0.01, "T0": 0.99},
    {"format": "xml"},
    {"seed": -1},
    {"grid": {"n_points": 50}},
    {"sweep": {"tolerances": {"not_a_law": 0.1}}},
    # bool("false") is True: only a JSON bool may select the solver
    {"sweep": {"use_full_solver": "false"}},
    {"sweep": {"use_full_solver": 0}},
    # a JSON bool is not a number, though Python's float() takes it as 0/1
    {"delta_T": True},
    {"T0": True},
    # the potential constant is always mu_c; the retired key is unknown
    {"mu1": 1.5},
    {"params": {"A": True}},
    {"sweep": {"delta_t_values": [True, 0.1, 0.01, 0.001]}},
    {"sweep": {"tolerances": {"v": True}}},
    {"delta_T": "0.1"},
    {"delta_T": 10 ** 400},  # an integer literal no float can hold
    # a tolerance that cannot judge a slope is the config's fault, not the law's
    {"sweep": {"tolerances": {"sigma": math.nan}}},
    {"sweep": {"tolerances": {"sigma": math.inf}}},
    {"sweep": {"tolerances": {"sigma": 0}}},
    {"sweep": {"tolerances": {"sigma": -1}}},
    # C*E - D^2 overflows to inf - inf = nan: not positive definite either
    {"params": {"C": 1e200, "D": 1e200, "E": 1e200}},
    # a grid above the node cap is refused before anything is allocated
    {"grid": {"n_points": 10 ** 15 + 1}},
    # a non-finite undercooling, or temperature, is no bulk condition
    {"delta_T": math.nan},
    {"delta_T": math.inf},
    {"T0": math.nan},
])
def test_bad_configs_exit_2(tmp_path, config):
    proc, out = run_cli(tmp_path, "profile", config=config)
    assert proc.returncode == 2, (config, proc.stderr)
    assert proc.stderr.strip()
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ([], "config must be a JSON object"),
    (3, "config must be a JSON object"),
    ({"params": [1]}, "params must be a JSON object"),
    ({"grid": 3}, "grid must be a JSON object"),
    ({"sweep": "x"}, "sweep must be a JSON object"),
    ({"sweep": {"tolerances": [1]}}, "sweep.tolerances must be a JSON object"),
    ({"bogus": 1}, "unknown config keys: ['bogus']"),
    ({"params": {"rho_crit": 1}}, "unknown params keys: ['rho_crit']"),
    ({"grid": {"npoints": 1001}}, "unknown grid keys: ['npoints']"),
    ({"sweep": {"deltas": [1]}}, "unknown sweep keys: ['deltas']"),
    ({"sweep": {"tolerances": {"nope": 0.1}}}, "unknown sweep.tolerances keys: ['nope']"),
    # the sweep's grid is the top-level one
    ({"sweep": {"grid": {"n_points": 1001}}}, "unknown sweep keys: ['grid']"),
], ids=["top-list", "top-int", "params", "grid", "sweep", "tolerances", "unknown-top",
        "unknown-params", "unknown-grid", "unknown-sweep", "unknown-tolerances", "sweep-grid"])
def test_malformed_config_objects_are_named(tmp_path, config, message):
    proc, out = run_cli(tmp_path, "profile", config=config)
    assert proc.returncode == 2
    assert proc.stderr == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, text, message", [
    (["profile"], '{"params": {"A": NaN}}', "params.A must be finite, got nan"),
    (["profile"], '{"params": {"D": -Infinity}}', "params.D must be finite, got -inf"),
    (["profile"], '{"grid": {"half_width_in_zeta": Infinity}}',
     "grid.half_width_in_zeta must be finite, got inf"),
    (["profile"], '{"delta_T": 1e400}', "delta_T must be finite, got inf"),
    (["profile"], '{"T0": NaN}', "T0 must be finite, got nan"),
    (["sweep"], '{"sweep": {"delta_t_values": [0.1, 0.01, NaN, 0.0001]}}',
     "sweep.delta_t_values[2] must be finite, got nan"),
    (["sweep"], '{"sweep": {"tolerances": {"sigma": -Infinity}}}',
     "sweep.tolerances.sigma must be finite, got -inf"),
    (["celerity", "--locus", "rho=inf", "a=0", "g2=1e-9"], "{}",
     "locus.rho must be finite, got inf"),
], ids=["params.A", "params.D", "half_width", "delta_T", "T0", "delta_t_values",
        "tolerance", "locus"])
def test_non_finite_config_numbers_are_named(tmp_path, capsys, args, text, message):
    # JSON's NaN, Infinity and 1e400 all reach the one number reader
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert cli.main([*args, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ('{"delta_T": null}', "delta_T must be a number, got None"),
    ('{"T0": null}', "T0 must be a number, got None"),
    ('{"delta_T": "0.1"}', "delta_T must be a number, got '0.1'"),
    ('{"grid": {"n_points": null}}', "grid.n_points must be an odd integer >= 51, got None"),
], ids=["delta_T-null", "T0-null", "delta_T-string", "n_points-null"])
def test_config_errors_name_the_documents_own_key(tmp_path, capsys, text, message):
    # a document that sets one undercooling key, badly, hears that key's name
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert cli.main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_nested_past_the_recursion_limit_is_a_config_error(tmp_path, capsys):
    # json.dumps cannot build this document, so its text is written directly
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: maximum recursion depth")
    assert not (tmp_path / "out").exists()


def _config_documents():
    """JSON config documents: mostly the real layout, with any JSON value
    (NaN, Infinity, huge integers, bools, strings, nesting) in its slots."""
    json_values = st.recursive(
        st.none() | st.booleans() | st.floats() | st.text(max_size=6)
        | st.integers(-(10 ** 400), 10 ** 400),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=6)
    numbers = st.floats(1e-6, 2.0) | st.floats() | st.integers(-(2 ** 70), 2 ** 70) | json_values

    def keyed(keys, values):
        return st.dictionaries(st.sampled_from([*keys, "bogus"]), values, max_size=3) | json_values

    # n_points stays small or above the node cap: a grid of 10^6 nodes
    # would be a real solve, one of 10^15 is refused before any allocation
    n_points = (st.integers(-3, 4001) | st.floats(0.0, 4001.0)
                | st.sampled_from([True, "1001", 10 ** 15 + 1]))
    return st.fixed_dictionaries({}, optional={
        "params": keyed(["A", "B", "rho_c", "T_c", "mu_c", "p_c", "C", "D", "E"], numbers),
        "delta_T": numbers,
        "T0": numbers,
        "grid": st.fixed_dictionaries({}, optional={
            "half_width_in_zeta": numbers, "n_points": n_points}) | json_values,
        "sweep": keyed(["delta_t_values", "use_full_solver", "tolerances"],
                       st.lists(numbers, max_size=5) | keyed(["v", "sigma"], numbers)
                       | json_values),
        "format": st.sampled_from(["csv", "json", "both"]) | json_values,
        "seed": st.integers(-1, 2 ** 65) | json_values,
        "bogus": json_values,
    }) | json_values


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(["profile", "profile --full", "celerity", "sweep", "check"]),
       doc=_config_documents())
# the delta_T = 0.1 row reaches rho_v < 0: sweep fails that row (exit 4,
# named only on stdout), and check at that undercooling exits 3
@example(command="sweep", doc={"params": {"A": 1.0, "B": 0.0625}})
@example(command="check", doc={"params": {"A": 1.0, "B": 0.0625}, "delta_T": 0.1})
# the node coordinates of this box overflow; both routes refuse it (exit 2)
@example(command="profile", doc={"grid": {"half_width_in_zeta": 1e308}})
@example(command="profile --full", doc={"grid": {"half_width_in_zeta": 1e308}})
# the bulk densities sit two ulps apart at delta_T = 0.1 and coincide below:
# sweep fails its rows (exit 4) instead of a band-edge search raising
@example(command="sweep", doc={"params": {"A": 8e-32, "B": 0.5}})
# (CE - D^2) A^6 overflows, but celerity at delta_T = 0 is v = 0 (exit 0)
@example(command="celerity", doc={"params": {"E": 1e308, "A": 10}, "delta_T": 0})
# (A^2 / B) * delta_T overflows in the slaved entropy of the bulk states (exit 3)
@example(command="profile", doc={"params": {"A": 1e150, "B": 1e-10}, "delta_T": 1e-162})
def test_fuzzed_configs_end_in_a_documented_exit_code(tmp_path, capsys, command, doc):
    # every config document, however malformed, ends in exit 0/2/3/4 with
    # the error named on stderr, never in an uncaught exception; a failed
    # verification (exit 4) is named in the verdict table on stdout instead
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    rc = cli.main([*command.split(), "--config", str(cfg), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc in (0, 2, 3, 4)
    verdict = [line for line in out.splitlines()
               if " FAIL " in line or line.startswith("failed row")]
    assert rc == 0 or err.strip() or (rc == 4 and verdict)


def _valid_documents():
    """Config documents the model accepts: A, B, C and E log-uniform within
    a decade, rho_c and T_c within half a decade, of their reference value
    1; D inside C E > D^2; delta_T in [1e-6, 0.9]; an odd grid of 51 to
    16001 nodes."""
    def log_uniform(lo, hi):
        return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)

    def document(draw):
        params, u, delta_t, half_n = draw
        params["D"] = u * 0.99 * math.sqrt(params["C"] * params["E"])
        return {"params": params, "delta_T": delta_t, "grid": {"n_points": 2 * half_n + 1}}

    return st.tuples(
        st.fixed_dictionaries({**{k: log_uniform(0.1, 10.0) for k in "ABCE"},
                               **{k: log_uniform(0.32, 3.2) for k in ("rho_c", "T_c")}}),
        st.floats(-1.0, 1.0), log_uniform(1e-6, 0.9), st.integers(25, 8000)).map(document)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=_valid_documents())
def test_check_answers_every_valid_config_the_full_profile_answers(tmp_path, capsys, doc):
    # check samples undercoolings from the config's own down to three
    # decades below it, all inside its coexistence bracket, so it stops
    # with a model error (exit 3) only where the profile itself does
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    codes = [cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / command[0])])
             for command in (["profile", "--full"], ["check"])]
    capsys.readouterr()
    assert set(codes) <= {0, 3, 4}, (codes, doc)
    assert codes[1] != 3 or codes[0] == 3, (codes, doc)


@pytest.mark.parametrize("command", ["celerity", "check"])
def test_full_is_refused_where_it_selects_no_route(tmp_path, command):
    # celerity has only closed-form loci and check always runs both routes,
    # so --full there is a usage error rather than a silently ignored flag
    proc, out = run_cli(tmp_path, command, "--full")
    assert proc.returncode == 2
    assert "unrecognized arguments: --full" in proc.stderr
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path):
    (tmp_path / "taken").write_text("not a directory")
    proc, _ = run_cli(tmp_path, "profile", out="taken")
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "taken").read_text() == "not a directory"


@pytest.mark.parametrize("command, artifact", [
    ("profile", "profile.csv"), ("profile", "observables.json"),
    ("profile --full", "newton.json"), ("sweep", "scaling.json"),
    ("check", "check.json")])
def test_unwritable_artifact_exits_2(tmp_path, command, artifact):
    # a directory in any one artifact's place: the run ends in a config
    # error naming the path, and none of its artifacts or temps is written
    (tmp_path / "out" / artifact).mkdir(parents=True)
    proc, out = run_cli(tmp_path, *command.split())
    assert proc.returncode == 2
    assert f"config error: cannot write {str(out / artifact)!r}: Is a directory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [f.name for f in out.iterdir()] == [artifact]


def test_refused_run_leaves_an_earlier_runs_artifacts_untouched(tmp_path):
    _, out = run_cli(tmp_path, "profile")
    before = {name: (out / name).read_bytes() for name in ("profile.csv", "observables.json")}
    (out / "newton.json").mkdir()
    proc, _ = run_cli(tmp_path, "profile", "--full")
    assert proc.returncode == 2, proc.stderr
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(f.name for f in out.iterdir()) == [
        "newton.json", "observables.json", "profile.csv"]


def test_symlink_at_an_artifact_path_is_replaced(tmp_path):
    # only a real directory blocks a run; a link to one is an entry the
    # rename replaces, leaving the directory it named alone
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "check.json").symlink_to(tmp_path / "elsewhere")
    proc, out = run_cli(tmp_path, "check")
    assert proc.returncode == 0, proc.stderr
    assert not (out / "check.json").is_symlink()
    assert read_json(out / "check.json")["all_passed"] is True
    assert (tmp_path / "elsewhere").is_dir()


@pytest.mark.parametrize("command, artifact", [
    ("celerity", "celerity.json"), ("check", "check.json")])
def test_format_csv_still_writes_a_json_only_command(tmp_path, command, artifact):
    # --format picks a family only where a command writes both
    proc, out = run_cli(tmp_path, command, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert [f.name for f in out.iterdir()] == [artifact]
    assert read_json(out / artifact)["seed"] == 0


@pytest.mark.parametrize("text, key", [
    ('{"delta_T": 0.1, "delta_T": 0.001}', "delta_T"),
    ('{"params": {"D": 0.9, "D": 0.1}}', "D"),
    ('{"grid": {"n_points": 1001, "n_points": 2001}}', "n_points"),
], ids=["top-level", "params", "grid"])
def test_config_repeating_a_key_exits_2(tmp_path, text, key):
    # json.dumps cannot repeat a key, so the document is written as text
    (tmp_path / "config.json").write_text(text)
    proc, out = run_cli(tmp_path, "profile", "--config", str(tmp_path / "config.json"))
    assert proc.returncode == 2
    assert proc.stderr == f"config error: config repeats keys: [{key!r}]\n"
    assert not out.exists()


@pytest.mark.parametrize("tokens", [
    ["rho=1.0", "a0", "g2=1e-9"],           # no "="
    ["rho=1.0", "rho=1.0", "g2=1e-9"],      # a key twice, so one is missing
    ["rho=1.0", "a=0", "b=1e-9"],           # an unknown key
    ["rho=1.0", "a=zero", "g2=1e-9"],       # not a number
])
def test_malformed_locus_exits_2(tmp_path, tokens):
    proc, out = run_cli(tmp_path, "celerity", "--locus", *tokens)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: --locus")
    assert not out.exists()


def test_out_that_is_no_path_string_exits_2(tmp_path, capsys, monkeypatch):
    # the config's out is read only where --out is not given
    from thermocap import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"out": 5}')
    assert cli.main(["profile", "--config", "config.json"]) == 2
    assert capsys.readouterr().err == "config error: out must be a directory path string\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]


def test_stale_temp_path_does_not_block_artifacts(tmp_path):
    # temp names are unique per write, so whatever sits at "<file>.tmp"
    # (a crashed run's leftover, here a directory) is never touched
    out = tmp_path / "out"
    (out / "observables.json.tmp").mkdir(parents=True)
    proc, _ = run_cli(tmp_path, "profile")
    assert proc.returncode == 0, proc.stderr
    assert sorted(f.name for f in out.iterdir()) == [
        "observables.json", "observables.json.tmp", "profile.csv"]
    assert read_json(out / "observables.json")["provenance"] == "closed-form"


def test_malformed_config_file_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    proc = subprocess.run([*CLI, "profile", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_missing_config_file_exits_2(tmp_path):
    proc = subprocess.run([*CLI, "profile", "--config",
                           str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_critical_isotherm_profile_exits_3(tmp_path):
    proc, out = run_cli(tmp_path, "profile", config={"delta_T": 0.0})
    assert proc.returncode == 3
    assert "critical" in proc.stderr.lower() or "width" in proc.stderr.lower()
    # no partial artifacts on failure
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("config, message", [
    # bulk densities that coincide in floating point leave no interface
    ({"delta_T": 5e-106}, "does not separate the bulk densities"),
    ({"params": {"rho_c": 1125899906842625.0}}, "does not separate the bulk densities"),
    # A^2 overflows in the slaved entropy
    ({"params": {"A": 1.3407807929942597e154, "B": 1.34078079299426e152}}, "OverflowError"),
])
def test_unanswerable_profiles_exit_3(tmp_path, capsys, config, message):
    # each of these used to escape the CLI as an uncaught exception
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["profile", "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", [["profile"], ["profile", "--full"], ["celerity"], ["check"]])
def test_an_overflowing_slaved_entropy_exits_3(tmp_path, capsys, command):
    # (A^2 / B) * delta_T overflows to inf in the bulk states' entropy
    from thermocap import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"params": {"A": 1e150, "B": 1e-10}, "delta_T": 1e-162}))
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: OverflowError: undercooling 1e-162 overflows")
    assert not out.exists()


@pytest.mark.parametrize("locus", [
    ("rho=1", "a=0", "g2=1e308"),
    ("rho=1", "a=0", "g2=5e-324"),
    ("rho=1e-308", "a=0", "g2=1e308"),
])
def test_numpy_overflow_at_an_extreme_locus_exits_3(tmp_path, capsys, locus):
    # numpy raises where it would warn, so an overflow or a division by zero
    # is a numerical failure with warnings as errors or not, never a traceback
    # or a misleading message from the nan it leaves behind
    from thermocap import cli

    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["celerity", "--locus", *locus, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: FloatingPointError: ")
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_allocation_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a grid under the node cap can still exceed the machine's memory
    from thermocap import cli, equilibrium

    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the grid")

    monkeypatch.setattr(equilibrium, "closed_profile", no_memory)
    out = tmp_path / "out"
    assert cli.main(["profile", "--out", str(out)]) == 3
    assert "numerical failure: MemoryError: cannot allocate the grid" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_divergent_solver_reports_and_exits_3(tmp_path):
    # an undercooling far outside the asymptotic regime drives the vapor
    # density negative; the solver must refuse rather than return garbage
    proc, out = run_cli(tmp_path, "profile", "--full",
                        config={"delta_T": 1.5})
    assert proc.returncode == 3
    assert not out.exists() or not list(out.iterdir())


# ---------------------------------------------------------------------------
# repeated in-process calls
# ---------------------------------------------------------------------------

def test_parser_is_built_once_per_process():
    from thermocap import cli

    assert cli._build_parser() is cli._build_parser()


def test_repeated_calls_carry_nothing_over(tmp_path, capsys):
    # each pair runs in one process, the second call without the option
    # the first one gave; nothing of the first may reach the second
    from thermocap import cli

    def run(out, *argv):
        rc = cli.main([*argv, "--out", str(tmp_path / out)])
        capsys.readouterr()
        return rc, tmp_path / out

    rc, out = run("locus", "celerity", "--locus", "rho=1", "a=0", "g2=1e-6")
    assert rc == 0 and read_json(out / "celerity.json")["locus_source"] == "override"
    rc, out = run("no_locus", "celerity")
    assert rc == 0 and read_json(out / "celerity.json")["locus_source"] == "dividing-surface"

    rc, out = run("full", "profile", "--full")
    assert rc == 0 and read_json(out / "observables.json")["provenance"] == "full-solver"
    rc, out = run("closed", "profile")
    assert rc == 0 and read_json(out / "observables.json")["provenance"] == "closed-form"
    assert not (out / "newton.json").exists()

    rc, out = run("csv", "profile", "--format", "csv")
    assert rc == 0 and sorted(f.name for f in out.iterdir()) == ["profile.csv"]
    rc, out = run("both", "profile")
    assert rc == 0 and sorted(f.name for f in out.iterdir()) == [
        "observables.json", "profile.csv"]

    with pytest.raises(SystemExit) as info:
        run("bogus", "profile", "--bogus")
    assert info.value.code == 2
    assert run("after_bogus", "profile")[0] == 0


@pytest.mark.parametrize("argv", [
    ("profile",),
    ("profile", "--full"),
    ("celerity",),
    ("sweep",),
    ("sweep", "--full"),
    ("check",),
])
def test_second_inprocess_call_matches_a_fresh_process(tmp_path, capsys, argv):
    # acceptance criterion 8 across the parser's reuse: the second call in
    # one process writes the bytes and the table a fresh process writes
    from thermocap import cli

    args = [*argv, "--seed", "11"]
    for out in ("first", "second"):
        assert cli.main([*args, "--out", str(tmp_path / out)]) == 0
        stdout = capsys.readouterr().out
    proc, fresh = run_cli(tmp_path, *args, out="fresh")
    assert proc.returncode == 0, proc.stderr
    assert stdout == proc.stdout
    names = sorted(f.name for f in fresh.iterdir())
    assert names and names == sorted(f.name for f in (tmp_path / "second").iterdir())
    for name in names:
        assert (tmp_path / "second" / name).read_bytes() == (fresh / name).read_bytes(), name


# ---------------------------------------------------------------------------
# import contract
# ---------------------------------------------------------------------------

def test_closed_routes_never_import_scipy(tmp_path):
    # the package import and every command, the coupled solver's included,
    # run on numpy alone
    script = f"""
import contextlib, io, sys
import thermocap
from thermocap import cli

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

print("import", scipy_modules())
for i, argv in enumerate((["profile"], ["celerity"], ["sweep"],
                          ["profile", "--full"], ["sweep", "--full"], ["check"])):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--out", {str(tmp_path)!r} + f"/out{{i}}"])
    print(" ".join(argv), rc, scipy_modules())
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import []",
        "profile 0 []",
        "celerity 0 []",
        "sweep 0 []",
        "profile --full 0 []",
        "sweep --full 0 []",
        "check 0 []",
    ]


_FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
from thermocap import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
added = sorted(k for k in set(sys.modules) - before
               if k in ("numpy.random", "_hashlib", "secrets") or k.split(".")[0] == "scipy")
print(rc, added)
"""


@pytest.mark.parametrize("argv", [
    ("profile",), ("profile", "--full"), ("celerity",), ("sweep",), ("sweep", "--full"),
    ("check",),
])
def test_each_command_keeps_its_module_footprint(tmp_path, argv):
    # in a fresh interpreter, no command loads numpy.random or the OpenSSL
    # hashing that comes with it (check draws from its own SplitMix64), nor
    # any scipy module; modules the interpreter had before the package
    # import are not counted
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
