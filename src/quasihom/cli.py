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
from dataclasses import dataclass, field, fields

import numpy as np

from . import coeff, fem, grps, nfunc, solvers, sparsela
from .mesh import build_coarse_mesh, refine

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

class ConfigError(Exception):
    pass


def _parse_bool(s) -> bool:
    if str(s).lower() in ("1", "true", "yes", "on"):
        return True
    if str(s).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _list_of(conv):
    def parse(s) -> list:
        out = [conv(tok.strip()) for tok in str(s).split(",") if tok.strip()]
        if not out:
            raise ValueError("empty list")
        if len(set(out)) < len(out):
            raise ValueError("repeated entries")
        return out
    return parse


# key -> (converter, default); defaults go through the converter too. The
# solver.* keys are SolverConfig's fields, parsed to the type of their default
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
    **{f"solver.{f.name}": (
        _parse_bool if type(f.default) is bool else type(f.default), f.default)
       for f in fields(solvers.SolverConfig)},
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


def parse_config(path: str | None, overrides: list[tuple[str, str]]) -> dict:
    """Config values by key: the file's, then the overrides', then the
    defaults. A key given twice in the file or in the overrides is an error."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
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
                key = key.strip()
                if key in lines:
                    raise ConfigError(f"{path}:{lineno}: {key!r} repeats line {lines[key]}")
                lines[key] = lineno
                raw[key] = value.strip()
    for k, (key, value) in enumerate(overrides):
        if key in dict(overrides[:k]):
            raise ConfigError(f"{key!r} is given twice on the command line")
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
    return values


def build_field(cfg: dict):
    """The coefficient field coeff.kind names, as a callable (x, y) -> kappa."""
    kind = cfg["coeff.kind"]
    extent = (0.0, cfg["mesh.lx"], 0.0, cfg["mesh.ly"])
    if kind == "constant":
        return coeff.constant_field(cfg["coeff.value"])
    if kind == "mstrig":
        return coeff.mstrig_eval
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


def build_nfunction(cfg: dict) -> nfunc.NFunction:
    kind = cfg["nfunc.kind"]
    p = cfg["nfunc.p"]
    if kind == "power":
        return nfunc.NFunction("power", p)
    nf = nfunc.NFunction.from_eps_pow(kind, p, cfg["nfunc.eps_minus_pow"],
                                      cfg["nfunc.eps_plus"])
    if p != 2 and nf.eps_minus >= 1:   # else every |grad u| < 1 takes the lower piece
        raise ConfigError(f"nfunc.eps_minus_pow gives eps_minus = {nf.eps_minus!r} >= 1")
    return nf


def build_source(cfg: dict, mesh) -> np.ndarray:
    kind = cfg["f.kind"]
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    if kind == "sinpi":
        return np.sin(np.pi * x) * np.sin(np.pi * y)
    if kind == "sinbox":
        return np.sin(np.pi * x / cfg["mesh.lx"]) * np.sin(np.pi * y / cfg["mesh.ly"])
    if kind == "constant":
        return np.full(mesh.n_vertices, cfg["f.value"])
    raise ConfigError(f"unknown source kind {kind!r}")


def build_problem(cfg: dict) -> solvers.Problem:
    try:
        mesh = refine(build_coarse_mesh(cfg["mesh.nc_x"], cfg["mesh.nc_y"],
                                        cfg["mesh.lx"], cfg["mesh.ly"]),
                      cfg["mesh.refine"])
        kappa = coeff.sample_on_mesh(build_field(cfg), mesh)
        return solvers.Problem(mesh, kappa, build_nfunction(cfg),
                               build_source(cfg, mesh))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _coarse_problem(cfg: dict) -> solvers.Problem:
    """build_problem for coarse-space runs: a mesh on which
    ``grps.coarse_space`` makes no space is a config error, before any solve."""
    problem = build_problem(cfg)
    try:
        grps.coarse_space(problem.mesh, None)
    except ValueError as exc:
        raise ConfigError(f"{exc} on {cfg['mesh.nc_x']}x{cfg['mesh.nc_y']} cells") from exc
    return problem


def solver_config(cfg: dict, **overrides) -> solvers.SolverConfig:
    """The SolverConfig of cfg's solver.* keys, with keyword overrides."""
    out = solvers.SolverConfig(**{
        **{f.name: cfg[f"solver.{f.name}"] for f in fields(solvers.SolverConfig)},
        **overrides})
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
    """One row per IterationRecord, one column per field (`lam` as `lambda`)."""
    names = [f.name for f in fields(solvers.IterationRecord)]
    cols = ["lambda" if name == "lam" else name for name in names]
    rows = [[getattr(r, name) for name in names] for r in report.records]
    meta = dict(meta or {})
    meta.setdefault("converged", report.converged)
    meta.setdefault("reason", report.reason)
    return ResultTable(columns=cols, rows=rows, meta=meta)


def _span(lo: float, hi: float) -> float:
    """hi - lo; or, where that is too few ulps of the values to hold distinct
    ticks (tick steps are at least a sixth of the span), the span of a flat
    axis: 1, or 2**-20 of the values' size where that is wider."""
    size = max(abs(lo), abs(hi))
    if hi - lo < 8.0 * math.ulp(size):
        return max(1.0, 2.0 ** -20 * size)
    return hi - lo


def _tick_values(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, int(math.ceil((hi_e - lo_e) / 8)))
        return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1, step)]
    span = _span(lo, hi)
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    count = math.floor((hi + 1e-12 * span - first) / step) + 1
    return [first + k * step for k in range(count)]


def _axis(values, log: bool, start: float, end: float):
    """Map data values onto pixels start..end (log10 scale if log); returns
    the map and the (pixel, value) ticks that fall within the axis."""
    lo, hi = min(values), max(values)
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    span = _span(lo, hi)
    if span != hi - lo:
        hi = lo + span

    def pixel(v):
        t = math.log10(v) if log else v
        return start + (t - lo) / (hi - lo) * (end - start)

    ticks = [(pixel(tv), tv) for tv in
             _tick_values(10 ** lo if log else lo, 10 ** hi if log else hi, log)]
    first, last = min(start, end) - 0.5, max(start, end) + 0.5
    return pixel, [(p, tv) for p, tv in ticks if first <= p <= last]


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
    sx, xticks = _axis(xs_all, logx, ml, w - mr)
    sy, yticks = _axis(ys_all, logy, h - mb, mt)   # pixel y grows downwards
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{ml}" y="18" font-size="13" font-family="sans-serif">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{w - ml - mr}" height="{h - mt - mb}" '
        'fill="none" stroke="black"/>',
    ]
    for px, tv in xticks:
        parts.append(
            f'<line x1="{px:.2f}" y1="{h - mb}" x2="{px:.2f}" y2="{h - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{h - mb + 18}" font-size="10" text-anchor="middle" '
            f'font-family="sans-serif">{tv:.3g}</text>'
        )
    for py, tv in yticks:
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


def _checked(report: solvers.SolveReport, run: str) -> solvers.SolveReport:
    """report, unless it ended in a solver failure or a non-finite energy:
    then a SolveError naming the run, before any summary shows its numbers."""
    if report.reason.startswith(("solver_failure", "energy_nonfinite")):
        raise sparsela.SolveError(f"{run}: {report.reason}")
    return report


def _fine_reference(problem: solvers.Problem, cfg: dict,
                    run: str = "fine reference") -> solvers.SolveReport:
    ref_cfg = solver_config(cfg, method="newton", space="fine",
                            line_search="plain", max_iters=200, tol=1e-15)
    return _checked(solvers.solve(problem, ref_cfg), run)


def _initial_guess(cfg: dict, problem: solvers.Problem,
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


def _run(problem: solvers.Problem, cfg: dict, ref: solvers.SolveReport | None,
         j_ref: float | None, csv_path: str, meta: dict,
         **overrides) -> solvers.SolveReport:
    """Solve from the configured initial guess, with energy errors against
    j_ref, and write the run's iteration CSV to csv_path."""
    rep = solvers.solve(problem, solver_config(cfg, **overrides),
                        u0=_initial_guess(cfg, problem, ref),
                        reference_energy=j_ref)
    os.makedirs(os.path.dirname(csv_path), exist_ok=True)
    write_csv(iteration_table(rep, meta=meta), csv_path)
    return rep


def _summary(out: str, table: ResultTable, x: str, ys: list[str], svg: str,
             **plot) -> None:
    write_csv(table, os.path.join(out, "summary.csv"))
    emit_svg(table, x, ys, os.path.join(out, svg), **plot)


def run_solve(cfg: dict, out: str, jobs: int) -> None:
    problem = (_coarse_problem if cfg["solver.space"] == "coarse" else build_problem)(cfg)
    reference = _fine_reference(problem, cfg) if cfg["solve.reference"] else None
    report = _run(problem, cfg, reference,
                  None if reference is None else reference.final_energy,
                  os.path.join(out, "iterations.csv"), {"experiment": "solve"})
    summary = ResultTable(
        columns=["converged", "iterations", "final_energy"],
        rows=[[float(report.converged), len(report.records) - 1, report.final_energy]],
        meta={"reason": report.reason},
    )
    write_csv(summary, os.path.join(out, "summary.csv"))
    # an overflow at the first energy leaves no finite point to plot
    if len(report.records) > 1 and np.isfinite(report.energies).any():
        emit_svg(iteration_table(report), "n", ["energy"],
                 os.path.join(out, "energy.svg"), title="energy history")
    _checked(report, "solve")


def run_compare_methods(cfg: dict, out: str, jobs: int) -> None:
    problem = build_problem(cfg)
    reference = _fine_reference(problem, cfg)
    j_ref = min(reference.final_energy, float(reference.energies.min()))
    methods = cfg["compare.methods"]

    def one(method: str):
        return _checked(_run(problem, cfg, reference, j_ref,
                             os.path.join(out, f"iterations_{method}.csv"),
                             {"method": method}, method=method, space="fine",
                             max_iters=cfg["compare.max_iters"]), f"run method={method}")

    reports = _map(jobs, one, methods)
    merged_cols = ["n"] + [f"err_{m}" for m in methods]
    n_max = max(len(rep.records) for rep in reports)
    merged_rows = []
    for n in range(n_max):
        row = [float(n)]
        for rep in reports:
            row.append(rep.records[n].energy_error
                       if n < len(rep.records) else math.nan)
        merged_rows.append(row)
    merged = ResultTable(columns=merged_cols, rows=merged_rows,
                         meta={"experiment": "compare-methods"})
    _summary(out, merged, "n", merged_cols[1:], "energy_error.svg",
             logy=True, title="energy error by method")


def run_homogenization_error(cfg: dict, out: str, jobs: int) -> None:
    nc_list = cfg["hom.nc_list"]
    fine_n = cfg["hom.fine_n"]
    p = cfg["nfunc.p"]
    for nc in nc_list:
        # fine_n = nc * 2^k with k >= 0: a positive power of two ratio
        ratio = fine_n // nc if nc > 0 else 0
        if ratio < 1 or nc * ratio != fine_n or ratio & (ratio - 1):
            raise ConfigError(
                f"hom.fine_n={fine_n} is not a power-of-two refinement of nc={nc}"
            )

    problems = {nc: _coarse_problem({**cfg, "mesh.nc_x": nc, "mesh.nc_y": nc,
                                     "mesh.refine": (fine_n // nc).bit_length() - 1})
                for nc in nc_list}
    # every nc refines to the same fine mesh, so one reference serves all
    ref = _fine_reference(problems[nc_list[0]], cfg)

    def one(nc: int):
        problem = problems[nc]
        rep = _checked(_run(problem, cfg, ref, ref.final_energy,
                            os.path.join(out, f"nc_{nc}", "iterations.csv"), {"nc": nc},
                            space="coarse"), f"run nc={nc}")
        h1, w1p = fem.error_norms(rep.state, problem.state(ref.state.u), p)
        energy_err = problem.energy(rep.state) - ref.final_energy
        h_coarse = max(cfg["mesh.lx"] / nc, cfg["mesh.ly"] / nc)
        return [h_coarse, float(2 * nc * nc), h1, w1p, energy_err]

    table = ResultTable(
        columns=["H", "n_coarse", "h1_error", "w1p_error", "energy_error"],
        rows=_map(jobs, one, nc_list), meta={"experiment": "homogenization-error"},
    )
    _summary(out, table, "H", ["h1_error", "w1p_error", "energy_error"],
             "errors.svg", logx=True, logy=True, title="homogenization error vs H")


def run_regularization_study(cfg: dict, out: str, jobs: int) -> None:
    if cfg["nfunc.kind"] == "power" or cfg["nfunc.p"] == 2:
        raise ConfigError("regularization-study needs a regularized nfunc.kind and "
                          "nfunc.p != 2: every energy gap is 0 otherwise")
    eps_list = cfg["reg.eps_list"]
    ref_problem = build_problem({**cfg, "nfunc.eps_minus_pow": cfg["reg.ref_eps_pow"]})
    ref_report = _fine_reference(ref_problem, cfg)
    j_unreg = fem.energy(ref_report.state, ref_problem.kappa,
                         nfunc.NFunction("power", cfg["nfunc.p"]), ref_problem.load)

    def one(eps_pow: float):
        problem = build_problem({**cfg, "nfunc.eps_minus_pow": eps_pow})
        rep = _fine_reference(problem, cfg, f"run eps_minus_pow={eps_pow:g}")
        gap = abs(j_unreg - rep.final_energy)
        return [eps_pow, rep.final_energy, gap]

    table = ResultTable(
        columns=["eps_minus_pow", "energy", "energy_gap"],
        rows=_map(jobs, one, eps_list),
        meta={"experiment": "regularization-study", "unregularized_energy": j_unreg},
    )
    _summary(out, table, "eps_minus_pow", ["energy_gap"], "gap.svg",
             logx=True, logy=True, title="regularization energy gap")


def run_sparse_update_study(cfg: dict, out: str, jobs: int) -> None:
    # threshold 0, the full rebuild, is the reference row, and each run
    # writes to the directory named by its threshold's %g tag
    deltas = [0.0, *cfg["sparse.delta_list"]]
    tags = [f"{d:g}" for d in deltas]
    bad = [d for d, t in zip(deltas[1:], tags[1:]) if not d > 0 or tags.count(t) > 1]
    if bad:
        raise ConfigError(f"sparse.delta_list needs thresholds > 0 with distinct "
                          f"run directories delta_<threshold:g>: {bad}")
    problem = _coarse_problem(cfg)
    ref = _fine_reference(problem, cfg)
    p = cfg["nfunc.p"]
    n_basis = problem.mesh.n_coarse_triangles

    def one(d: float):
        tag = f"{d:g}"
        rep = _checked(_run(problem, cfg, ref, ref.final_energy,
                            os.path.join(out, f"delta_{tag}", "iterations.csv"),
                            {"delta_i": tag}, space="coarse", delta_i=d),
                       f"run delta_i={tag}")
        later = [r.bases_updated for r in rep.records[1:-1]]
        frac = sum(later) / (n_basis * len(later)) if later else 1.0
        h1 = fem.error_norms(rep.state, ref.state, p)[0]
        return [d, frac * 100.0, h1]

    table = ResultTable(
        columns=["delta_i", "update_percent", "h1_error"],
        rows=_map(jobs, one, deltas),
        meta={"experiment": "sparse-update-study"},
    )
    _summary(out, table, "delta_i", ["h1_error"], "h1_error.svg",
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
    parser.add_argument("experiment", choices=_RUNNERS)
    parser.add_argument("--config", default=None, help="flat key = value file")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="out")
    args, extra = parser.parse_known_args(argv)

    overrides = []
    for i in range(0, len(extra), 2):
        tok = extra[i]
        if not tok.startswith("--") or i + 1 >= len(extra):
            print(f"error: cannot parse override {tok!r}", file=sys.stderr)
            return EXIT_CONFIG
        overrides.append((tok[2:], extra[i + 1]))

    try:
        cfg = parse_config(args.config, overrides)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
        t0 = time.time()
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
