"""Nonlinear iteration drivers: fine-space descent methods, coarse-space
iterations with operator-adapted bases, residual-regularized line search,
and sparse basis updating.

Per-iteration scaling constants are absorbed into the line search; the
quasi-norm direction keeps its explicit constant (config ``cq``) and is
line-searched on top.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem, grps, nfunc, sparsela
from .coeff import ElementCoefficients
from .mesh import Mesh

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

METHODS = ("gd", "pgd", "newton", "quasinorm")
SPACES = ("fine", "coarse")
LINE_SEARCHES = ("none", "plain", "residual_regularized")


class LineSearchError(Exception):
    pass


@dataclass
class SolverConfig:
    method: str = "newton"
    space: str = "fine"
    tol: float = 1e-15
    max_iters: int = 100
    line_search: str = "plain"
    delta: float = 0.68                       # rho threshold for dropping regularization
    sparse_update_threshold: float | None = 0.0   # None = rebuild all, no indicators
    inner_tol: float = 1e-12
    inner_cap: int = 100
    localization: int | None = None           # patch layers; None = log(1/H) default
    global_basis: bool = False
    cq: float = 2.0
    alpha_max: float = 4.0
    ls_rel_tol: float = 1e-6
    fd_step: float = 1e-6
    estimate_cn: bool = True

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}")
        if self.line_search not in LINE_SEARCHES:
            raise ValueError(f"unknown line search {self.line_search!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0.5 < self.delta < 1.0:
            raise ValueError("delta must lie in (0.5, 1)")
        if self.method == "quasinorm" and self.space == "coarse":
            raise ValueError("quasi-norm direction is a fine-space method")


@dataclass
class IterationRecord:
    n: int
    energy: float
    energy_error: float = math.nan
    residual_l2h: float = math.nan
    alpha: float = math.nan
    rho: float = math.nan
    lam: float = math.nan
    c_tilde: float = math.nan
    bases_updated: int = 0
    wall_time: float = 0.0


@dataclass
class SolveReport:
    records: list[IterationRecord]
    state: fem.FemState
    converged: bool
    reason: str

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records])

    @property
    def final_energy(self) -> float:
        return self.records[-1].energy


class Problem:
    """Mesh + coefficient + N-function + load, with cached mass operators."""

    def __init__(self, mesh: Mesh, kappa: ElementCoefficients,
                 nf: nfunc.NFunction, f_nodes: np.ndarray):
        self.mesh = mesh
        self.kappa = kappa
        self.nf = nf
        self.f_nodes = np.asarray(f_nodes, dtype=float)
        if kappa.values.size != mesh.n_triangles:
            raise ValueError(f"kappa has {kappa.values.size} values for "
                             f"{mesh.n_triangles} triangles")
        if self.f_nodes.size != mesh.n_vertices:
            raise ValueError(f"f has {self.f_nodes.size} values for "
                             f"{mesh.n_vertices} nodes")
        self.mass = fem.assemble_mass(mesh)
        free = mesh.free_nodes
        self.mass_free = self.mass[free][:, free].tocsr()
        self._mass_solve = sparsela.factorized_spd(self.mass_free)
        self.load = self.mass @ self.f_nodes

    def state(self, u=None) -> fem.FemState:
        return fem.FemState(self.mesh, u)

    def energy(self, state: fem.FemState) -> float:
        return fem.energy(state, self.kappa, self.nf, self.load)

    def residual(self, state: fem.FemState) -> np.ndarray:
        return fem.residual(state, self.kappa, self.nf, self.load)

    def operator(self, state: fem.FemState, mode: str) -> sp.csr_matrix:
        return fem.assemble_linearized(state, self.kappa, self.nf, mode)

    def residual_l2h(self, r: np.ndarray) -> float:
        return fem.residual_l2h_norm(r, self._mass_solve)

    def expand(self, w_free: np.ndarray) -> np.ndarray:
        out = np.zeros(self.mesh.n_vertices)
        out[self.mesh.free_nodes] = w_free
        return out

    def stepped(self, state: fem.FemState, alpha: float,
                w_free: np.ndarray) -> fem.FemState:
        return fem.FemState(self.mesh, state.u + alpha * self.expand(w_free))


def poisson_initial(problem: Problem) -> fem.FemState:
    """Linear solve with the heterogeneous coefficient as initial guess."""
    k = fem.weighted_stiffness(problem.mesh, problem.kappa.values)
    solve_k = sparsela.factorized_spd(k)
    u_free = solve_k(problem.load[problem.mesh.free_nodes])
    return problem.state(problem.expand(u_free))


def _operator_mode(method: str) -> str:
    return {"gd": "gd", "pgd": "pgd", "newton": "newton", "quasinorm": "pgd"}[method]


def search_direction(problem: Problem, state: fem.FemState, cfg: SolverConfig,
                     op: sp.csr_matrix | None = None,
                     r: np.ndarray | None = None) -> np.ndarray:
    """Fine-space direction: solve A[u] w = -J'(u) over free nodes."""
    if r is None:
        r = problem.residual(state)
    if op is None:
        op = problem.operator(state, _operator_mode(cfg.method))
    return sparsela.factorized_spd(op)(-r)


def quasinorm_direction(problem: Problem, state: fem.FemState, cfg: SolverConfig,
                        r: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Implicit quasi-norm direction:
    cq * int kappa phi''(|grad u| + |grad w|) grad w . grad v = -J'(u)(v).

    This is the stationarity condition of the strictly convex inner energy
    cq * int kappa [t phi'(a+t) - phi(a+t) + phi(a)] at t = |grad w|, a =
    |grad u|, plus the residual pairing. Solved by frozen-coefficient
    (Kacanov) updates safeguarded with Armijo backtracking on the inner
    energy; quadratic problems finish in a single exact step.
    """
    if r is None:
        r = problem.residual(state)
    mesh = problem.mesh
    nf = problem.nf
    kv = problem.kappa.values
    areas = mesh.areas
    a = state.grad_norms()
    phi_a = nfunc.eval(nf, a)[0]
    cq = cfg.cq

    def inner_energy(wv: np.ndarray) -> float:
        wn = fem.FemState(mesh, problem.expand(wv)).grad_norms()
        ph, dph, _ = nfunc.eval(nf, a + wn)
        return cq * float(areas @ (kv * (wn * dph - ph + phi_a))) + float(r @ wv)

    w = np.zeros(r.size)
    e_cur = inner_energy(w)
    converged = False
    for _ in range(cfg.inner_cap):
        wn = fem.FemState(mesh, problem.expand(w)).grad_norms()
        dd = nfunc.eval(nf, a + wn)[2]
        k = fem.weighted_stiffness(mesh, kv * dd)
        target = sparsela.factorized_spd(k)(-r / cq)
        d = target - w
        d_norm = math.sqrt(max(d @ (k @ d), 0.0))
        t_norm = math.sqrt(max(target @ (k @ target), 1e-300))
        if d_norm <= cfg.inner_tol * t_norm:
            converged = True
            break
        slope = float((cq * (k @ w) + r) @ d)
        alpha = 1.0
        e_new = inner_energy(w + alpha * d)
        while e_new > e_cur + 0.1 * alpha * slope:
            alpha *= 0.5
            if alpha < 1e-14:
                break
            e_new = inner_energy(w + alpha * d)
        w = w + alpha * d
        e_cur = e_new
        if alpha * d_norm <= cfg.inner_tol * t_norm:
            converged = True
            break
    return w, converged


def _bracket_and_golden(f, f0: float, alpha_max: float, rel_tol: float) -> float:
    """Derivative-free 1-d minimization: shrink to find decrease, double to
    bracket, then golden-section to the requested relative width."""
    t = 1.0
    ft = f(t)
    while ft >= f0:
        t *= 0.5
        if t < 1e-12:
            raise LineSearchError("no decrease along direction")
        ft = f(t)
    while 2.0 * t <= alpha_max:
        f2 = f(2.0 * t)
        if f2 >= ft:
            break
        t *= 2.0
        ft = f2
    a, b = 0.0, min(2.0 * t, alpha_max)

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(1.0, b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def line_search(problem: Problem, state: fem.FemState, w_free: np.ndarray,
                cfg: SolverConfig, mode: str | None = None,
                r: np.ndarray | None = None):
    """Step selection along a descent direction.

    Returns (alpha, rho, lam). `rho` compares the realized energy change
    against its first-order model (absolute value, so the quadratic ideal is
    1/2); `lam` is the residual penalty weight (nan outside regularized mode).
    """
    mode = mode or cfg.line_search
    if r is None:
        r = problem.residual(state)
    g0 = float(r @ w_free)
    if g0 >= 0:
        raise LineSearchError("not a descent direction")
    j0 = problem.energy(state)

    def energy_at(alpha: float) -> float:
        return problem.energy(problem.stepped(state, alpha, w_free))

    lam = math.nan
    if mode == "none":
        alpha = 1.0
    elif mode == "plain":
        alpha = _bracket_and_golden(energy_at, j0, cfg.alpha_max, cfg.ls_rel_tol)
    elif mode == "residual_regularized":
        def trial(alpha: float) -> tuple[float, float]:
            st = problem.stepped(state, alpha, w_free)
            return problem.energy(st), problem.residual_l2h(problem.residual(st)) ** 2

        tau = cfg.fd_step
        (e_p, r_p), (e_m, r_m) = trial(tau), trial(-tau)
        de = (e_p - e_m) / (2.0 * tau)
        dr = (r_p - r_m) / (2.0 * tau)
        lam = abs(de) / max(abs(dr), 1e-300)

        def objective(alpha: float) -> float:
            e, rs = trial(alpha)
            return e + lam * rs

        alpha = _bracket_and_golden(
            objective, j0 + lam * problem.residual_l2h(r) ** 2,
            cfg.alpha_max, cfg.ls_rel_tol,
        )
    else:
        raise ValueError(f"unknown line-search mode {mode!r}")

    actual = energy_at(alpha) - j0
    rho = abs((actual - alpha * g0) / (alpha * g0)) if alpha > 0 else math.nan
    return alpha, rho, lam


def estimate_cn(problem: Problem, state: fem.FemState, w0_free: np.ndarray,
                op: sp.csr_matrix) -> float:
    """Scaling constant matching the operator energy of the fine direction to
    its quasi-norm: the unique root c of
    c * A(w0, w0) = int kappa phi''(|grad u| + |grad w0| / c) |grad w0|^2.
    """
    lhs_unit = float(w0_free @ (op @ w0_free))
    if lhs_unit <= 0:
        raise ValueError("direction has no operator energy")
    mesh = problem.mesh
    su = state.grad_norms()
    wn = fem.FemState(mesh, problem.expand(w0_free)).grad_norms()
    kv = problem.kappa.values
    areas = mesh.areas

    def rhs(c: float) -> float:
        dd = nfunc.eval(problem.nf, su + wn / c)[2]
        return float(areas @ (kv * dd * wn ** 2))

    # defect c*lhs_unit - rhs(c) is increasing in c; the quadratic case
    # balances exactly at c = 1, return it without bisection noise
    if abs(lhs_unit - rhs(1.0)) <= 1e-12 * lhs_unit:
        return 1.0
    lo, hi = 1e-6, 1e12
    if lhs_unit * lo - rhs(lo) > 0 or lhs_unit * hi - rhs(hi) < 0:
        raise ValueError("bracketing failure in scaling-constant estimate")
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(200):
        midl = 0.5 * (llo + lhi)
        c = math.exp(midl)
        if lhs_unit * c - rhs(c) > 0:
            lhi = midl
        else:
            llo = midl
        if (lhi - llo) <= 1e-8:
            break
    return math.exp(0.5 * (llo + lhi))


def solve(problem: Problem, cfg: SolverConfig,
          u0: np.ndarray | fem.FemState | None = None,
          reference_energy: float | None = None) -> SolveReport:
    """Run the nonlinear iteration per the configured method and space."""
    cfg.validate()
    mesh = problem.mesh
    if u0 is None:
        state = poisson_initial(problem)
    elif isinstance(u0, fem.FemState):
        state = u0
    else:
        state = problem.state(u0)

    records: list[IterationRecord] = []
    mode = _operator_mode(cfg.method)
    ls_mode = cfg.line_search      # a regularized search drops to "plain" for good

    meas = None
    space = None
    layers = None
    if cfg.space == "coarse":
        meas = grps.build_measurements(mesh)
        layers = None if cfg.global_basis else (
            cfg.localization if cfg.localization is not None
            else grps.default_layers(mesh)
        )

    prev_u = None
    converged = False
    reason = "max_iters"

    def err(j):
        return math.nan if reference_energy is None else j - reference_energy

    for n in range(cfg.max_iters):
        t0 = time.perf_counter()
        j_n = problem.energy(state)
        rec = IterationRecord(n=n, energy=j_n)
        records.append(rec)
        try:
            if not math.isfinite(j_n):
                reason = "energy_nonfinite"
                break
            rec.energy_error = err(j_n)
            r = problem.residual(state)
            rec.residual_l2h = problem.residual_l2h(r)
            try:
                op = problem.operator(state, mode)
                if cfg.space == "coarse":
                    if space is None or cfg.sparse_update_threshold is None:
                        space = grps.compute_basis(op, meas, mesh, layers=layers)
                        rec.bases_updated = space.n_basis
                    else:
                        incr = problem.state(state.u - prev_u)
                        op_incr = problem.operator(incr, mode)
                        ind = grps.update_indicators(op_incr, space)
                        sel = np.flatnonzero(ind >= cfg.sparse_update_threshold)
                        space = grps.refresh_basis(space, op, meas, mesh, sel)
                        rec.bases_updated = int(sel.size)
                    w = grps.coarse_solve(op, -r, space)
                elif cfg.method == "quasinorm":
                    w, inner_ok = quasinorm_direction(problem, state, cfg, r=r)
                    if not inner_ok:
                        reason = "inner_iteration_cap"
                else:
                    w = search_direction(problem, state, cfg, op=op, r=r)
                if not np.all(np.isfinite(w)):
                    raise sparsela.SolveError("non-finite direction")
            except sparsela.SolveError as exc:
                reason = f"solver_failure: {exc}"
                break

            if cfg.estimate_cn and cfg.method in ("pgd", "newton"):
                w0 = w if cfg.space == "fine" else sparsela.factorized_spd(op)(-r)
                with contextlib.suppress(ValueError):     # c_tilde stays nan
                    rec.c_tilde = estimate_cn(problem, state, w0, op)

            try:
                rec.alpha, rec.rho, rec.lam = line_search(
                    problem, state, w, cfg, mode=ls_mode, r=r)
            except LineSearchError as exc:
                if abs(float(r @ w)) <= 1e-12 * max(abs(j_n), 1.0):
                    converged = True
                    reason = "stationary"
                else:
                    reason = f"line_search_failure: {exc}"
                break
            if ls_mode == "residual_regularized" and rec.rho <= cfg.delta:
                ls_mode = "plain"

            new_state = problem.stepped(state, rec.alpha, w)
            j_next = problem.energy(new_state)
        finally:
            rec.wall_time = time.perf_counter() - t0
        prev_u = state.u
        state = new_state

        if abs(j_n - j_next) / max(abs(j_n), 1e-300) < cfg.tol:
            converged = True
            reason = "energy_decrease_below_tol"
            break

    j_final = problem.energy(state)
    records.append(IterationRecord(
        n=len(records), energy=j_final, energy_error=err(j_final),
        residual_l2h=problem.residual_l2h(problem.residual(state)),
    ))
    return SolveReport(records=records, state=state, converged=converged,
                       reason=reason)
