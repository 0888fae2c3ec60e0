"""Experiment drivers and command-line interface.

Config files are flat ``key = value`` text; any key can be overridden on the
command line as ``--key value``. Each experiment writes per-iteration CSVs,
a summary CSV, and SVG line plots into the output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import coeff, fem, nfunc, solvers, sparsela
from .mesh import build_coarse_mesh, refine

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

EXPERIMENTS = (
    "solve",
    "compare-methods",
    "homogenization-error",
    "regularization-study",
    "sparse-update-study",
)


class ConfigError(Exception):
    pass


def _parse_bool(s) -> bool:
    if str(s).lower() in ("1", "true", "yes", "on"):
        return True
    if str(s).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_delta_i(s) -> float | None:
    """A float threshold, or "full" (None: rebuild every basis, no indicators)."""
    s = str(s).strip().lower()
    return None if s == "full" else float(s)


def _list_of(conv):
    def parse(s) -> list:
        return [conv(tok.strip()) for tok in str(s).split(",") if tok.strip()]
    return parse


# key -> (converter, default); defaults go through the converter too
_SCHEMA: dict[str, tuple] = {
    "mesh.nc_x": (int, 8),
    "mesh.nc_y": (int, 8),
    "mesh.refine": (int, 2),
    "mesh.lx": (float, 1.0),
    "mesh.ly": (float, 1.0),
    "nfunc.kind": (str, "reg_c1"),
    "nfunc.p": (float, 2.0),
    "nfunc.eps_minus_pow": (float, 1e-6),
    "nfunc.eps_plus": (float, math.inf),
    "coeff.kind": (str, "constant"),
    "coeff.value": (float, 1.0),
    "coeff.path": (str, ""),
    "coeff.rows": (int, 0),
    "coeff.cols": (int, 0),
    "coeff.channels": (int, 3),
    "coeff.contrast": (float, 1e4),
    "coeff.seed": (int, 7),
    "f.kind": (str, "sinpi"),
    "f.value": (float, 1.0),
    "solver.method": (str, "newton"),
    "solver.space": (str, "fine"),
    "solver.tol": (float, 1e-15),
    "solver.max_iters": (int, 100),
    "solver.line_search": (str, "plain"),
    "solver.delta": (float, 0.68),
    "solver.delta_i": (_parse_delta_i, "0"),   # float or "full"
    "solver.inner_tol": (float, 1e-12),
    "solver.inner_cap": (int, 100),
    "solver.ell": (int, -1),               # -1 = log(1/H) default
    "solver.global_basis": (_parse_bool, "false"),
    "solver.cq": (float, 2.0),
    "solver.estimate_cn": (_parse_bool, "true"),
    "solver.u0": (str, "poisson"),         # poisson | zero | half_reference
    "solve.reference": (_parse_bool, "false"),
    "compare.methods": (_list_of(str), "gd,pgd,newton,quasinorm"),
    "compare.max_iters": (int, 20),
    "hom.nc_list": (_list_of(int), "4,8,16"),
    "hom.fine_n": (int, 64),
    "reg.eps_list": (_list_of(float), "1e-2,1e-4,1e-6"),
    "reg.ref_eps_pow": (float, 1e-10),
    "sparse.delta_list": (_list_of(float), "0.3,3,30"),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]


def parse_config(path: str | None, overrides: list[tuple[str, str]]) -> RunConfig:
    raw: dict[str, str] = {}
    if path:
        try:
            fh = open(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
    for key, value in overrides:
        raw[key] = value

    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    values = {}
    for key, (conv, default) in _SCHEMA.items():
        sval = raw.get(key, default)
        try:
            values[key] = conv(sval)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {sval!r} ({exc})") from exc
    return RunConfig(values=values)


def build_field(cfg: RunConfig) -> coeff.CoefficientField:
    kind = cfg["coeff.kind"]
    extent = (0.0, cfg["mesh.lx"], 0.0, cfg["mesh.ly"])
    if kind == "constant":
        return coeff.constant_field(cfg["coeff.value"])
    if kind == "mstrig":
        return coeff.mstrig_field()
    if kind == "grid":
        return coeff.load_grid(
            cfg["coeff.path"], cfg["coeff.rows"], cfg["coeff.cols"], extent=extent
        )
    if kind == "channels":
        return coeff.synth_channels(
            cfg["coeff.rows"] or 32,
            cfg["coeff.cols"] or 32,
            cfg["coeff.channels"],
            cfg["coeff.contrast"],
            cfg["coeff.seed"],
            extent=extent,
        )
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def build_nfunction(cfg: RunConfig, eps_minus_pow: float | None = None) -> nfunc.NFunction:
    kind = cfg["nfunc.kind"]
    p = cfg["nfunc.p"]
    if kind == "power":
        return nfunc.NFunction("power", p)
    return nfunc.NFunction.from_eps_pow(
        kind, p,
        eps_minus_pow if eps_minus_pow is not None else cfg["nfunc.eps_minus_pow"],
        cfg["nfunc.eps_plus"],
    )


def build_source(cfg: RunConfig, mesh) -> np.ndarray:
    kind = cfg["f.kind"]
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    if kind == "sinpi":
        return np.sin(np.pi * x) * np.sin(np.pi * y)
    if kind == "sinbox":
        return np.sin(np.pi * x / cfg["mesh.lx"]) * np.sin(np.pi * y / cfg["mesh.ly"])
    if kind == "constant":
        return np.full(mesh.n_vertices, cfg["f.value"])
    raise ConfigError(f"unknown source kind {kind!r}")


def build_problem(cfg: RunConfig, nc_x=None, nc_y=None, level=None,
                  eps_minus_pow=None) -> solvers.Problem:
    try:
        mesh = refine(
            build_coarse_mesh(
                nc_x or cfg["mesh.nc_x"], nc_y or cfg["mesh.nc_y"],
                cfg["mesh.lx"], cfg["mesh.ly"],
            ),
            cfg["mesh.refine"] if level is None else level,
        )
        kappa = coeff.sample_on_mesh(build_field(cfg), mesh)
        nf = build_nfunction(cfg, eps_minus_pow)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return solvers.Problem(mesh, kappa, nf, build_source(cfg, mesh))


def solver_config(cfg: RunConfig, **overrides) -> solvers.SolverConfig:
    kwargs = dict(
        method=cfg["solver.method"],
        space=cfg["solver.space"],
        tol=cfg["solver.tol"],
        max_iters=cfg["solver.max_iters"],
        line_search=cfg["solver.line_search"],
        delta=cfg["solver.delta"],
        sparse_update_threshold=cfg["solver.delta_i"],
        inner_tol=cfg["solver.inner_tol"],
        inner_cap=cfg["solver.inner_cap"],
        localization=None if cfg["solver.ell"] < 0 else cfg["solver.ell"],
        global_basis=cfg["solver.global_basis"],
        cq=cfg["solver.cq"],
        estimate_cn=cfg["solver.estimate_cn"],
    )
    kwargs.update(overrides)
    out = solvers.SolverConfig(**kwargs)
    try:
        out.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return out


# ---------------------------------------------------------------------------
# result tables, CSV and SVG output


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[list]
    meta: dict = field(default_factory=dict)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.17g}"


def write_csv(table: ResultTable, path) -> None:
    with open(path, "w") as fh:
        for key, val in sorted(table.meta.items()):
            fh.write(f"# {key}: {val}\n")
        fh.write(",".join(table.columns) + "\n")
        for row in table.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def iteration_table(report: solvers.SolveReport, meta=None) -> ResultTable:
    cols = ["n", "energy", "energy_error", "residual_l2h", "alpha", "rho",
            "lambda", "c_tilde", "bases_updated", "wall_time"]
    rows = [
        [r.n, r.energy, r.energy_error, r.residual_l2h, r.alpha, r.rho,
         r.lam, r.c_tilde, r.bases_updated, r.wall_time]
        for r in report.records
    ]
    meta = dict(meta or {})
    meta.setdefault("converged", report.converged)
    meta.setdefault("reason", report.reason)
    return ResultTable(columns=cols, rows=rows, meta=meta)


def _tick_values(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, int(math.ceil((hi_e - lo_e) / 8)))
        return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1, step)]
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks


def emit_svg(table: ResultTable, x: str, ys: list[str], path,
             logx: bool = False, logy: bool = False, title: str = "") -> None:
    """Self-contained deterministic SVG line plot of selected columns."""
    if not table.rows:
        raise ValueError("no rows to plot")
    for col in [x, *ys]:
        if col not in table.columns:
            raise ValueError(f"unknown column {col!r}")
    xi = table.columns.index(x)
    data = {}
    xs_all, ys_all = [], []
    for col in ys:
        yi = table.columns.index(col)
        pts = [
            (float(r[xi]), float(r[yi]))
            for r in table.rows
            if math.isfinite(float(r[xi])) and math.isfinite(float(r[yi]))
        ]
        if logx:
            pts = [p for p in pts if p[0] > 0]
        if logy:
            pts = [p for p in pts if p[1] > 0]
        data[col] = pts
        xs_all += [p[0] for p in pts]
        ys_all += [p[1] for p in pts]
    if not xs_all:
        raise ValueError("no plottable data (log axes need positive values)")

    w, h = 640, 440
    ml, mr, mt, mb = 70, 150, 30, 45
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if logx:
        x0, x1 = math.log10(x0), math.log10(x1)
    if logy:
        y0, y1 = math.log10(y0), math.log10(y1)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        t = math.log10(v) if logx else v
        return ml + (t - x0) / (x1 - x0) * (w - ml - mr)

    def sy(v):
        t = math.log10(v) if logy else v
        return h - mb - (t - y0) / (y1 - y0) * (h - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{ml}" y="18" font-size="13" font-family="sans-serif">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{w - ml - mr}" height="{h - mt - mb}" '
        'fill="none" stroke="black"/>',
    ]
    for tv in _tick_values(10 ** x0 if logx else x0, 10 ** x1 if logx else x1, logx):
        px = sx(tv)
        if px < ml - 0.5 or px > w - mr + 0.5:
            continue
        parts.append(
            f'<line x1="{px:.2f}" y1="{h - mb}" x2="{px:.2f}" y2="{h - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{h - mb + 18}" font-size="10" text-anchor="middle" '
            f'font-family="sans-serif">{tv:.3g}</text>'
        )
    for tv in _tick_values(10 ** y0 if logy else y0, 10 ** y1 if logy else y1, logy):
        py = sy(tv)
        if py < mt - 0.5 or py > h - mb + 0.5:
            continue
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py + 3:.2f}" font-size="10" text-anchor="end" '
            f'font-family="sans-serif">{tv:.3g}</text>'
        )
    for k, (col, pts) in enumerate(data.items()):
        color = colors[k % len(colors)]
        if pts:
            poly = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
            parts.append(
                f'<polyline points="{poly}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = mt + 18 + 16 * k
        parts.append(
            f'<line x1="{w - mr + 10}" y1="{ly - 4}" x2="{w - mr + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{w - mr + 38}" y="{ly}" font-size="11" font-family="sans-serif">{col}</text>'
        )
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _map(jobs: int, fn, items):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiments


def _fine_reference(problem: solvers.Problem, cfg: RunConfig) -> solvers.SolveReport:
    ref_cfg = solver_config(cfg, method="newton", space="fine",
                            line_search="plain", max_iters=200, tol=1e-15)
    return solvers.solve(problem, ref_cfg)


def _initial_guess(cfg: RunConfig, problem: solvers.Problem,
                   reference: solvers.SolveReport | None = None):
    kind = cfg["solver.u0"]
    if kind == "poisson":
        return None  # solver default
    if kind == "zero":
        return problem.state()
    if kind == "half_reference":
        if reference is None:
            raise ConfigError("half_reference initial guess needs a reference run")
        return problem.state(0.5 * reference.state.u)
    raise ConfigError(f"unknown initial guess {kind!r}")


def run_solve(cfg: RunConfig, out: str, jobs: int) -> None:
    problem = build_problem(cfg)
    reference = None
    if cfg["solve.reference"]:
        reference = _fine_reference(problem, cfg).final_energy
    report = solvers.solve(problem, solver_config(cfg),
                           u0=_initial_guess(cfg, problem),
                           reference_energy=reference)
    table = iteration_table(report, meta={"experiment": "solve"})
    write_csv(table, os.path.join(out, "iterations.csv"))
    if len(report.records) > 1:
        emit_svg(table, "n", ["energy"], os.path.join(out, "energy.svg"),
                 title="energy history")
    summary = ResultTable(
        columns=["converged", "iterations", "final_energy"],
        rows=[[float(report.converged), len(report.records) - 1, report.final_energy]],
        meta={"reason": report.reason},
    )
    write_csv(summary, os.path.join(out, "summary.csv"))
    if report.reason.startswith("solver_failure"):
        raise sparsela.SolveError(report.reason)


def run_compare_methods(cfg: RunConfig, out: str, jobs: int) -> None:
    problem = build_problem(cfg)
    reference = _fine_reference(problem, cfg)
    j_ref = min(reference.final_energy, float(reference.energies.min()))
    methods = cfg["compare.methods"]

    def one(method: str):
        scfg = solver_config(cfg, method=method, space="fine",
                             max_iters=cfg["compare.max_iters"])
        return method, solvers.solve(problem, scfg,
                                     u0=_initial_guess(cfg, problem, reference),
                                     reference_energy=j_ref)

    results = _map(jobs, one, methods)
    merged_cols = ["n"] + [f"err_{m}" for m in methods]
    n_max = max(len(rep.records) for _, rep in results)
    merged_rows = []
    for n in range(n_max):
        row = [float(n)]
        for _, rep in results:
            row.append(rep.records[n].energy_error
                       if n < len(rep.records) else math.nan)
        merged_rows.append(row)
    merged = ResultTable(columns=merged_cols, rows=merged_rows,
                         meta={"experiment": "compare-methods"})
    write_csv(merged, os.path.join(out, "summary.csv"))
    emit_svg(merged, "n", merged_cols[1:], os.path.join(out, "energy_error.svg"),
             logy=True, title="energy error by method")
    for method, rep in results:
        write_csv(iteration_table(rep, meta={"method": method}),
                  os.path.join(out, f"iterations_{method}.csv"))


def run_homogenization_error(cfg: RunConfig, out: str, jobs: int) -> None:
    nc_list = cfg["hom.nc_list"]
    fine_n = cfg["hom.fine_n"]
    p = cfg["nfunc.p"]

    def one(nc: int):
        level = int(round(math.log2(fine_n / nc)))
        if nc << level != fine_n:
            raise ConfigError(
                f"hom.fine_n={fine_n} is not a power-of-two refinement of nc={nc}"
            )
        problem = build_problem(cfg, nc_x=nc, nc_y=nc, level=level)
        ref = _fine_reference(problem, cfg)
        scfg = solver_config(cfg, space="coarse")
        rep = solvers.solve(problem, scfg,
                            u0=_initial_guess(cfg, problem, ref),
                            reference_energy=ref.final_energy)
        h1, w1p = fem.error_norms(rep.state, ref.state, p)
        energy_err = problem.energy(rep.state) - ref.final_energy
        sub = os.path.join(out, f"nc_{nc}")
        os.makedirs(sub, exist_ok=True)
        write_csv(iteration_table(rep, meta={"nc": nc}),
                  os.path.join(sub, "iterations.csv"))
        h_coarse = max(cfg["mesh.lx"] / nc, cfg["mesh.ly"] / nc)
        return [h_coarse, float(2 * nc * nc), h1, w1p, energy_err]

    rows = _map(jobs, one, nc_list)
    table = ResultTable(
        columns=["H", "n_coarse", "h1_error", "w1p_error", "energy_error"],
        rows=rows, meta={"experiment": "homogenization-error"},
    )
    write_csv(table, os.path.join(out, "summary.csv"))
    emit_svg(table, "H", ["h1_error", "w1p_error", "energy_error"],
             os.path.join(out, "errors.svg"), logx=True, logy=True,
             title="homogenization error vs H")


def run_regularization_study(cfg: RunConfig, out: str, jobs: int) -> None:
    eps_list = cfg["reg.eps_list"]
    ref_problem = build_problem(cfg, eps_minus_pow=cfg["reg.ref_eps_pow"])
    ref_report = _fine_reference(ref_problem, cfg)
    power_problem = solvers.Problem(
        ref_problem.mesh, ref_problem.kappa,
        nfunc.NFunction("power", cfg["nfunc.p"]), ref_problem.f_nodes,
    )
    j_unreg = power_problem.energy(ref_report.state)

    def one(eps_pow: float):
        problem = build_problem(cfg, eps_minus_pow=eps_pow)
        rep = _fine_reference(problem, cfg)
        gap = abs(j_unreg - rep.final_energy)
        return [eps_pow, rep.final_energy, gap]

    rows = _map(jobs, one, eps_list)
    table = ResultTable(
        columns=["eps_minus_pow", "energy", "energy_gap"],
        rows=rows, meta={"experiment": "regularization-study",
                         "unregularized_energy": j_unreg},
    )
    write_csv(table, os.path.join(out, "summary.csv"))
    emit_svg(table, "eps_minus_pow", ["energy_gap"],
             os.path.join(out, "gap.svg"), logx=True, logy=True,
             title="regularization energy gap")


def run_sparse_update_study(cfg: RunConfig, out: str, jobs: int) -> None:
    problem = build_problem(cfg)
    ref = _fine_reference(problem, cfg)
    p = cfg["nfunc.p"]
    n_basis = problem.mesh.n_coarse_triangles

    def run_with(threshold: float | None, tag: str):
        scfg = solver_config(cfg, space="coarse",
                             sparse_update_threshold=threshold)
        rep = solvers.solve(problem, scfg,
                            u0=_initial_guess(cfg, problem, ref),
                            reference_energy=ref.final_energy)
        ups = [r.bases_updated for r in rep.records[:-1]]
        later = ups[1:]
        frac = sum(later) / (n_basis * len(later)) if later else 1.0
        h1 = fem.error_norms(rep.state, ref.state, p)[0]
        sub = os.path.join(out, f"delta_{tag}")
        os.makedirs(sub, exist_ok=True)
        write_csv(iteration_table(rep, meta={"delta_i": tag}),
                  os.path.join(sub, "iterations.csv"))
        return frac, h1

    frac0, h1_full = run_with(None, "full")
    rows = [[0.0, frac0 * 100.0, h1_full]]
    for d in cfg["sparse.delta_list"]:
        frac, h1 = run_with(d, f"{d:g}")
        rows.append([d, frac * 100.0, h1])
    table = ResultTable(
        columns=["delta_i", "update_percent", "h1_error"],
        rows=rows, meta={"experiment": "sparse-update-study"},
    )
    write_csv(table, os.path.join(out, "summary.csv"))
    emit_svg(table, "delta_i", ["h1_error"], os.path.join(out, "h1_error.svg"),
             logy=True, title="accuracy vs update threshold")


_RUNNERS = {
    "solve": run_solve,
    "compare-methods": run_compare_methods,
    "homogenization-error": run_homogenization_error,
    "regularization-study": run_regularization_study,
    "sparse-update-study": run_sparse_update_study,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasihom",
        description="Iterated numerical homogenization experiments for "
                    "heterogeneous p-Laplacian problems.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="flat key = value file")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="out")
    args, extra = parser.parse_known_args(argv)

    overrides = []
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--") or i + 1 >= len(extra):
            print(f"error: cannot parse override {tok!r}", file=sys.stderr)
            return EXIT_CONFIG
        overrides.append((tok[2:], extra[i + 1]))
        i += 2

    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    try:
        _RUNNERS[args.experiment](cfg, args.out, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except coeff.GridFileError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (sparsela.SolveError, solvers.LineSearchError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"{args.experiment}: wrote {args.out} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
