import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from quasihom import cli, solvers
from quasihom.cli import (
    ConfigError,
    ResultTable,
    emit_svg,
    main,
    parse_config,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_parse_config_defaults_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\nnfunc.p = 5\nmesh.nc_x = 4\n")
    # an override of a file key is allowed: the command line wins
    cfg = parse_config(str(cfgfile), [("mesh.nc_y", "2"), ("nfunc.p", "3")])
    assert cfg["nfunc.p"] == 3.0
    assert cfg["mesh.nc_x"] == 4
    assert cfg["mesh.nc_y"] == 2
    assert cfg["solver.method"] == "newton"


def test_solver_defaults_come_from_solver_config():
    assert cli.solver_config(parse_config(None, [])) == solvers.SolverConfig()


# a valid value other than the default, for each SolverConfig field
_SOLVER_VALUES = {
    "method": "pgd", "space": "coarse", "tol": "1e-9", "max_iters": "7",
    "line_search": "residual_regularized", "delta": "0.75", "delta_i": "0.5",
    "ell": "3", "global_basis": "true",
    "cq": "3", "estimate_cn": "false",
}


@pytest.mark.parametrize("name", [f.name for f in fields(solvers.SolverConfig)])
def test_every_solver_key_reaches_solver_config(name):
    # each field is read from the config key of its own name
    cfg = parse_config(None, [(f"solver.{name}", _SOLVER_VALUES[name])])
    value = getattr(cli.solver_config(cfg), name)
    assert value == cfg[f"solver.{name}"]
    assert value != getattr(solvers.SolverConfig(), name)
    assert type(value) is type(getattr(solvers.SolverConfig(), name))


def test_iteration_table_columns():
    # the iteration CSV columns README documents, in order
    readme = ["n", "energy", "energy_error", "residual_l2h", "alpha", "rho",
              "lambda", "c_tilde", "bases_updated", "wall_time", "inner_unsolved"]
    rec = solvers.IterationRecord(n=3, energy=-1.5, lam=0.25, bases_updated=7)
    report = solvers.SolveReport(records=[rec], state=None, converged=False,
                                 reason="max_iters")
    table = cli.iteration_table(report)
    assert table.columns == readme
    assert table.rows == [[getattr(rec, "lam" if c == "lambda" else c)
                           for c in readme]]


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError):
        parse_config(None, [("nope.key", "1")])


def test_parse_config_bad_value():
    with pytest.raises(ConfigError):
        parse_config(None, [("nfunc.p", "abc")])


def test_parse_config_bad_line(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        parse_config(str(cfgfile), [])


def test_parse_config_repeated_key(tmp_path):
    # the last value used to win without a word
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("mesh.nc_x = 2\n# comment\nmesh.nc_y = 2\n mesh.nc_x=4\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:4: 'mesh\.nc_x' repeats line 1"):
        parse_config(str(cfgfile), [])
    assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_main_config_error_exit_code(tmp_path):
    rc = main(["solve", "--out", str(tmp_path), "--bogus.key", "1"])
    assert rc == cli.EXIT_CONFIG


def test_main_data_error_exit_code(tmp_path):
    rc = main([
        "solve", "--out", str(tmp_path),
        "--coeff.kind", "grid",
        "--coeff.path", os.path.join(DATA, "missing.txt"),
        "--coeff.rows", "2", "--coeff.cols", "2",
    ])
    assert rc == cli.EXIT_DATA


def test_main_solver_failure_exit_code(tmp_path):
    # alpha=1 coarse steps at strong nonlinearity blow up; reported as exit 4
    rc = main([
        "solve", "--out", str(tmp_path),
        "--nfunc.p", "10", "--coeff.kind", "mstrig",
        "--mesh.nc_x", "4", "--mesh.nc_y", "4",
        "--solver.space", "coarse", "--solver.line_search", "none",
        "--solver.max_iters", "8",
    ])
    assert rc == cli.EXIT_SOLVER


def test_solve_first_energy_overflow_exits_4_with_summary(tmp_path):
    # every energy overflows: this used to end in a plotting traceback
    # (exit 1) before summary.csv was written
    rc = main(["solve", "--out", str(tmp_path), "--mesh.nc_x", "2", "--mesh.nc_y", "2",
               "--mesh.refine", "1", "--nfunc.p", "1000", "--coeff.value", "1e-3"])
    assert rc == cli.EXIT_SOLVER
    assert "# reason: energy_nonfinite" in (tmp_path / "summary.csv").read_text()
    assert not (tmp_path / "energy.svg").exists()


def test_solve_p2_writes_two_row_csv(tmp_path):
    rc = main([
        "solve", "--out", str(tmp_path),
        "--nfunc.p", "2", "--coeff.kind", "constant",
        "--mesh.nc_x", "4", "--mesh.nc_y", "4",
    ])
    assert rc == 0
    lines = (tmp_path / "iterations.csv").read_text().splitlines()
    data_rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(data_rows) == 3  # header + 2 records
    summary = (tmp_path / "summary.csv").read_text()
    assert "converged" in summary
    rows = [ln for ln in summary.splitlines() if not ln.startswith("#")]
    assert rows[1].split(",")[0] == "1"


def test_solve_from_half_reference(tmp_path):
    rc = main([
        "solve", "--out", str(tmp_path),
        "--mesh.nc_x", "2", "--mesh.nc_y", "2", "--mesh.refine", "1",
        "--nfunc.p", "3", "--solve.reference", "true",
        "--solver.u0", "half_reference",
    ])
    assert rc == 0
    lines = [ln for ln in (tmp_path / "iterations.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    err = lines[0].split(",").index("energy_error")
    # the reference's energy is known, so every energy error is a number
    assert all(ln.split(",")[err] != "nan" for ln in lines[1:])


def test_compare_methods_gd_worst(tmp_path):
    def run(jobs):
        out = tmp_path / f"jobs{jobs}"
        rc = main([
            "compare-methods", "--out", str(out), "--jobs", str(jobs),
            "--nfunc.p", "5", "--coeff.kind", "mstrig",
            "--mesh.nc_x", "4", "--mesh.nc_y", "4",
            "--compare.max_iters", "12",
        ])
        assert rc == 0
        return out

    out = run(1)
    # the threads share one Problem and its mesh; the result must not depend on it
    summary = (out / "summary.csv").read_bytes()
    assert (run(2) / "summary.csv").read_bytes() == summary
    lines = [
        ln for ln in summary.decode().splitlines()
        if ln and not ln.startswith("#")
    ]
    header = lines[0].split(",")
    final = None
    for ln in lines[1:]:
        vals = ln.split(",")
        if all(tok not in ("nan", "") for tok in vals[1:]):
            final = dict(zip(header, map(float, vals)))
    assert final is not None
    others = [final[c] for c in header if c.startswith("err_") and c != "err_gd"]
    assert all(final["err_gd"] >= e for e in others)
    for m in ("gd", "pgd", "newton", "quasinorm"):
        assert (out / f"iterations_{m}.csv").exists()
    assert (out / "energy_error.svg").exists()


def test_sparse_update_study_monotone(tmp_path):
    def run(jobs):
        out = tmp_path / f"jobs{jobs}"
        rc = main([
            "sparse-update-study", "--out", str(out), "--jobs", str(jobs),
            "--nfunc.p", "20", "--coeff.kind", "channels",
            "--coeff.rows", "16", "--coeff.cols", "16",
            "--mesh.nc_x", "4", "--mesh.nc_y", "4",
            "--solver.line_search", "residual_regularized",
            "--solver.max_iters", "20",
            "--sparse.delta_list", "5,500",
        ])
        assert rc == 0
        return (out / "summary.csv").read_bytes()

    summary = run(1)
    # the thresholds share one Problem; the threads must not change a byte
    assert run(2) == summary
    lines = [
        ln for ln in summary.decode().splitlines()
        if ln and not ln.startswith("#")
    ]
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    # update percentage drops below 100 for positive thresholds,
    # h1 error degrades monotonically with the threshold
    assert rows[0][1] == 100.0
    assert all(r[1] < 100.0 for r in rows[1:])
    h1s = [r[2] for r in rows]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(h1s, h1s[1:]))


def _summary_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [list(map(float, ln.split(","))) for ln in lines[1:]]


def test_homogenization_error_writes_one_row_per_nc(tmp_path):
    def run(jobs):
        out = tmp_path / f"jobs{jobs}"
        rc = main([
            "homogenization-error", "--out", str(out), "--jobs", str(jobs),
            "--nfunc.p", "5", "--coeff.kind", "mstrig",
            "--hom.nc_list", "2,4", "--hom.fine_n", "16",
        ])
        assert rc == 0
        return out

    out = run(1)
    for nc in (2, 4):
        assert (out / f"nc_{nc}" / "iterations.csv").exists()
    assert (out / "errors.svg").exists()
    header, rows = _summary_rows(out / "summary.csv")
    assert header == ["H", "n_coarse", "h1_error", "w1p_error", "energy_error"]
    assert [r[:2] for r in rows] == [[0.5, 8.0], [0.25, 32.0]]
    # each nc builds its own Problem; the threads must not change a byte
    assert ((run(2) / "summary.csv").read_bytes()
            == (out / "summary.csv").read_bytes())


def test_regularization_study_writes_one_row_per_eps(tmp_path):
    rc = main([
        "regularization-study", "--out", str(tmp_path),
        "--nfunc.p", "5", "--coeff.kind", "mstrig",
        "--mesh.nc_x", "4", "--mesh.nc_y", "4",
        "--reg.eps_list", "1e-2,1e-4",
    ])
    assert rc == 0
    assert (tmp_path / "gap.svg").exists()
    header, rows = _summary_rows(tmp_path / "summary.csv")
    assert header == ["eps_minus_pow", "energy", "energy_gap"]
    assert [r[0] for r in rows] == [1e-2, 1e-4]
    assert all(r[2] > 0 for r in rows)


def test_emit_svg_deterministic(tmp_path):
    table = ResultTable(columns=["x", "y"], rows=[[1.0, 2.0], [2.0, 3.0], [3.0, 5.0]])
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(table, "x", ["y"], p1, title="t")
    emit_svg(table, "x", ["y"], p2, title="t")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.count("polyline") == 1
    poly = text.split('polyline points="')[1].split('"')[0]
    assert len(poly.split()) == 3


@pytest.mark.parametrize("lo", [-0.5, 1e17])
def test_ticks_of_values_one_ulp_apart(tmp_path, lo):
    # the tick loop used to add a step below the ulp of its values forever,
    # and a flat axis at 1e17 used to divide by lo + 1 - lo = 0
    hi = math.nextafter(lo, math.inf)
    ticks = cli._tick_values(lo, hi, False)
    assert len(ticks) <= 6
    assert all(lo <= t <= hi for t in ticks)
    table = ResultTable(columns=["x", "y"], rows=[[0.0, lo], [1.0, hi]])
    emit_svg(table, "x", ["y"], tmp_path / "flat.svg")
    assert (tmp_path / "flat.svg").read_text().count("polyline") == 1


def test_emit_svg_errors(tmp_path):
    empty = ResultTable(columns=["x", "y"], rows=[])
    with pytest.raises(ValueError):
        emit_svg(empty, "x", ["y"], tmp_path / "no.svg")
    assert not (tmp_path / "no.svg").exists()
    bad = ResultTable(columns=["x", "y"], rows=[[1.0, -2.0]])
    with pytest.raises(ValueError):
        emit_svg(bad, "x", ["y"], tmp_path / "neg.svg", logy=True)
    table = ResultTable(columns=["x", "y"], rows=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        emit_svg(table, "x", ["z"], tmp_path / "col.svg")


def test_csv_17_digit_format(tmp_path):
    table = ResultTable(columns=["v"], rows=[[1.0 / 3.0]])
    cli.write_csv(table, tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_text()
    assert "0.33333333333333331" in text


_NC2 = ["solve", "--mesh.nc_x", "2", "--mesh.nc_y", "2"]

_EPS_AT_REFERENCE = ["regularization-study", "--mesh.nc_x", "2", "--mesh.nc_y", "2",
                     "--reg.eps_list", "1e-4,1e-10,1e-12"]
_REPEATED_OVERRIDE = ["solve", "--mesh.nc_x", "2", "--mesh.nc_y", "2", "--mesh.nc_x", "4"]

# a coarse space below two refinements can build no basis: these stopped at
# iteration 0 (exit 4), or reported the Poisson start's error as the nc = 8
# result (exit 0)
_REFINE_ONE = [
    ["solve", "--mesh.nc_x", "4", "--mesh.nc_y", "4", "--mesh.refine", "1",
     "--solver.space", "coarse"],
    ["solve", "--mesh.nc_x", "4", "--mesh.nc_y", "4", "--mesh.refine", "1",
     "--solver.space", "coarse", "--solver.global_basis", "true"],
    ["homogenization-error", "--hom.nc_list", "2,8", "--hom.fine_n", "16"],
]


@pytest.mark.parametrize("args", [
    ["solve", "--solver.delta_i", "abc"],
    # threshold 0 is the full rebuild; there is no "full" spelling
    ["solve", "--solver.delta_i", "full"],
    ["solve", "--solver.delta_i", "-1"],
    ["solve", "--solver.delta_i", "nan"],
    # 0 is already the study's reference row
    ["sparse-update-study", "--sparse.delta_list", "0,1"],
    # both would write their iterations to delta_5
    ["sparse-update-study", "--sparse.delta_list", "5,5.0000001"],
    ["solve", "--nfunc.p", "2.015625"],         # eps_minus underflows to 0
    ["homogenization-error", "--hom.nc_list", "4,x"],
    # the quasi-norm inner loop's cap and tolerance are constants, not keys
    [*_NC2, "--solver.inner_cap", "100"],
    ["solve", "--solver.method", "quasinorm", "--solver.space", "fine",
     "--solver.cq", "0"],
    ["solve", "--solver.max_iters", "-1"],
    ["homogenization-error", "--hom.nc_list", "4", "--hom.fine_n", "2"],
    ["homogenization-error", "--hom.fine_n", "0"],
    ["homogenization-error", "--hom.nc_list", "0"],
    ["homogenization-error", "--hom.nc_list", "-4"],
    ["homogenization-error", "--hom.nc_list", ","],
    ["regularization-study", "--reg.eps_list", ""],
    ["compare-methods", "--compare.methods", ","],
    # a grid without its dimensions used to end in an IndexError traceback
    # (empty file) or a data error asking for 0x0 values
    ["solve", "--coeff.kind", "grid", "--coeff.path", os.path.join(DATA, "empty.txt")],
    ["solve", "--coeff.kind", "grid", "--coeff.path", os.path.join(DATA, "toy_grid_4x3.txt")],
    ["solve", "--coeff.kind", "grid", "--coeff.path", os.path.join(DATA, "toy_grid_4x3.txt"),
     "--coeff.rows", "4"],
    # jobs <= 1 runs serially, so these used to pass without a word
    ["solve", "--jobs", "0"],
    ["solve", "--jobs", "-2"],
    # non-finite inputs: these used to end in a singular factor (exit 4), a
    # plotting traceback, or a run that went through with exit 0
    [*_NC2, "--coeff.kind", "constant", "--coeff.value", "nan"],
    [*_NC2, "--coeff.kind", "constant", "--coeff.value", "inf"],
    [*_NC2, "--coeff.kind", "channels", "--coeff.contrast", "nan"],
    [*_NC2, "--coeff.kind", "channels", "--coeff.contrast", "inf"],
    [*_NC2, "--mesh.lx", "nan"],
    [*_NC2, "--mesh.lx", "inf"],
    [*_NC2, "--nfunc.p", "5", "--nfunc.eps_minus_pow", "nan"],
    [*_NC2, "--nfunc.eps_plus", "nan"],
    [*_NC2, "--solver.tol", "nan"],
    [*_NC2, "--solver.cq", "nan"],
    # these went through with exit 0 and converged = 1
    [*_NC2, "--solver.method", "quasinorm", "--solver.space", "fine",
     "--solver.cq", "inf"],
    [*_NC2, "--nfunc.p", "inf"],
    [*_NC2, "--nfunc.p", "5", "--solver.tol", "inf"],
    # these ended in a plotting traceback (exit 1): nothing to plot
    [*_NC2, "--f.kind", "constant", "--f.value", "nan"],
    [*_NC2, "--f.kind", "constant", "--f.value", "inf"],
    ["regularization-study", "--nfunc.kind", "power"],
    ["regularization-study", "--nfunc.p", "2"],
    # eps_minus at or above 1 puts every element on the quadratic lower
    # piece; these went through with exit 0 and converged = 1
    [*_NC2, "--nfunc.p", "1.5"],
    [*_NC2, "--nfunc.p", "5", "--nfunc.eps_minus_pow", "1"],
    # a floor at or below 0 has no real root: a TypeError traceback (exit 1)
    [*_NC2, "--nfunc.p", "5", "--nfunc.eps_minus_pow", "-1"],
    [*_NC2, "--nfunc.p", "5", "--nfunc.eps_minus_pow", "0"],
    # repeated entries solved twice into one run directory or summary column
    ["homogenization-error", "--hom.nc_list", "2,2"],
    ["compare-methods", "--compare.methods", "gd,gd,newton"],
    ["regularization-study", "--reg.eps_list", "1e-2,0.01"],
    *_REFINE_ONE,
    # the last value used to win without a word
    _REPEATED_OVERRIDE,
    # a run's solver config used to be checked only after the fine reference
    # (and, in compare-methods, the runs before it) had been solved
    ["compare-methods", "--compare.methods", "newton,foo"],
    ["compare-methods", "--compare.max_iters", "-1"],
    ["compare-methods", "--solver.u0", "foo"],
    ["homogenization-error", "--solver.method", "quasinorm"],
    ["sparse-update-study", "--solver.method", "quasinorm"],
    ["solve", "--solver.space", "coarse", "--solver.method", "quasinorm",
     "--solve.reference", "true"],
    # an entry at the reference's floor solved the reference again, and its
    # zero gap ended in a plotting traceback (exit 1)
    _EPS_AT_REFERENCE,
], ids=["delta_i", "delta_i_full", "delta_i_negative", "delta_i_nan",
        "delta_list_zero", "delta_list_duplicate_tag", "nfunc_p", "nc_list",
        "inner_cap_removed", "cq", "max_iters", "fine_n_below_nc", "fine_n_zero", "nc_zero",
        "nc_negative", "nc_list_empty", "eps_list_empty", "methods_empty",
        "grid_empty_no_dims", "grid_no_dims", "grid_no_cols", "jobs_zero",
        "jobs_negative", "coeff_value_nan", "coeff_value_inf", "contrast_nan",
        "contrast_inf", "lx_nan", "lx_inf", "eps_minus_pow_nan", "eps_plus_nan",
        "tol_nan", "cq_nan", "cq_inf", "p_inf", "tol_inf", "f_value_nan", "f_value_inf",
        "reg_study_power", "reg_study_p2", "p_below_2_default_floor",
        "eps_minus_pow_one", "eps_minus_pow_negative", "eps_minus_pow_zero",
        "nc_list_repeated", "methods_repeated",
        "eps_list_repeated", "coarse_refine_one", "coarse_refine_one_global",
        "hom_refine_one", "override_repeated", "methods_unknown_after_valid",
        "compare_max_iters_negative", "u0_unknown", "hom_quasinorm", "sparse_quasinorm",
        "solve_reference_coarse_quasinorm", "eps_list_at_reference"])
def test_main_bad_value_exit_code(tmp_path, args, monkeypatch, capsys):
    monkeypatch.setattr(solvers, "solve", lambda *a, **k: pytest.fail("solve reached"))
    rc = main([*args, "--config", os.path.join(CONFIGS, "mstrig_desk.cfg"),
               "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert not any(tmp_path.iterdir())
    if args in _REFINE_ONE:
        assert "mesh.refine >= 2" in capsys.readouterr().err
    if args == _REPEATED_OVERRIDE:
        assert "'mesh.nc_x' is given twice" in capsys.readouterr().err
    if args == _EPS_AT_REFERENCE:
        assert "reg.eps_list entries [1e-10, 1e-12]" in capsys.readouterr().err


_OVERFLOW = ["--mesh.nc_x", "2", "--mesh.nc_y", "2", "--nfunc.p", "1000",
             "--coeff.value", "1e-3"]


@pytest.mark.parametrize("experiment", ["compare-methods", "homogenization-error",
                                        "regularization-study", "sparse-update-study"])
def test_sweep_with_failed_fine_reference_exits_4(tmp_path, capsys, experiment):
    # every energy overflows: these ended in a plotting traceback (exit 1),
    # after a summary.csv of the failed runs' numbers
    assert main([experiment, *_OVERFLOW, "--out", str(tmp_path)]) == cli.EXIT_SOLVER
    assert "fine reference: energy_nonfinite" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("args, run", [
    (["homogenization-error", "--hom.nc_list", "2,4", "--hom.fine_n", "16"], "run nc=2"),
    (["sparse-update-study", "--mesh.nc_x", "2", "--mesh.nc_y", "2",
      "--sparse.delta_list", "5"], "run delta_i=0"),
])
def test_sweep_with_failed_coarse_run_exits_4(tmp_path, capsys, monkeypatch, args, run):
    # the fine reference converges, every basis build fails
    def fail(*a, **k):
        raise solvers.sparsela.RankDeficiencyError("no basis")

    monkeypatch.setattr(solvers.grps, "refresh_basis", fail)
    assert main([*args, "--nfunc.p", "5", "--out", str(tmp_path)]) == cli.EXIT_SOLVER
    assert f"{run}: solver_failure: no basis" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
def test_main_out_not_a_directory_exit_code(tmp_path, sub):
    # these ended in a FileExistsError or NotADirectoryError traceback (exit 1)
    path = tmp_path / "file"
    path.write_text("")
    assert main([*_NC2, "--out", str(path / sub)]) == cli.EXIT_CONFIG


def test_import_loads_no_scipy_integrate_or_optimize():
    import quasihom
    src = os.path.dirname(os.path.dirname(quasihom.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import quasihom.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_module_entry_point_runs_without_warnings(tmp_path):
    import quasihom
    src = os.path.dirname(os.path.dirname(quasihom.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "quasihom.cli", "solve",
         "--out", str(tmp_path), "--mesh.nc_x", "2", "--mesh.nc_y", "2",
         "--mesh.refine", "1"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
