import os
import subprocess
import sys

import numpy as np
import pytest

from quasihom import cli
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
    cfg = parse_config(str(cfgfile), [("mesh.nc_y", "2")])
    assert cfg["nfunc.p"] == 5.0
    assert cfg["mesh.nc_x"] == 4
    assert cfg["mesh.nc_y"] == 2
    assert cfg["solver.method"] == "newton"


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
    rc = main([
        "sparse-update-study", "--out", str(tmp_path),
        "--nfunc.p", "20", "--coeff.kind", "channels",
        "--coeff.rows", "16", "--coeff.cols", "16",
        "--mesh.nc_x", "4", "--mesh.nc_y", "4",
        "--solver.line_search", "residual_regularized",
        "--solver.max_iters", "20",
        "--sparse.delta_list", "5,500",
    ])
    assert rc == 0
    lines = [
        ln for ln in (tmp_path / "summary.csv").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    # update percentage drops below 100 for positive thresholds,
    # h1 error degrades monotonically with the threshold
    assert rows[0][1] == 100.0
    assert all(r[1] < 100.0 for r in rows[1:])
    h1s = [r[2] for r in rows]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(h1s, h1s[1:]))


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


@pytest.mark.parametrize("args", [
    ["solve", "--solver.delta_i", "abc"],
    ["solve", "--nfunc.p", "2.015625"],         # eps_minus underflows to 0
    ["homogenization-error", "--hom.nc_list", "4,x"],
], ids=["delta_i", "nfunc_p", "nc_list"])
def test_main_bad_value_exit_code(tmp_path, args):
    rc = main([*args, "--config", os.path.join(CONFIGS, "mstrig_desk.cfg"),
               "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


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
