"""Nonlinear iteration drivers: fine-space descent methods, coarse-space
iterations with operator-adapted bases, residual-regularized line search,
and sparse basis updating.

Every method steps along ``direction``, which makes each of its linear
solves in the iteration's space. Per-iteration scaling constants are
absorbed into the line search; the quasi-norm direction keeps its explicit
constant (config ``cq``) and is line-searched on top.
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
ALPHA_MAX = 4.0        # largest step the line search brackets
LS_REL_TOL = 1e-6      # relative width at which the golden section stops
FD_STEP = 1e-6         # central-difference step of the penalty weight lambda
CN_LOG_TOL = 1e-9      # bracket width in log c at which the c_tilde search stops
QN_DEFECT_TOL = 1e-8   # relative defect of the quasi-norm relation that counts as solved
QN_INNER_TOL = 1e-12   # relative update size at which the quasi-norm inner loop stops
QN_INNER_CAP = 100     # passes of the quasi-norm inner loop
RESIDUAL_ZERO = 1e-12  # |r| / |load| at which a residual is zero to round-off

METHODS = ("gd", "pgd", "newton", "quasinorm")
SPACES = ("fine", "coarse")
LINE_SEARCHES = ("none", "plain", "residual_regularized")


class LineSearchError(Exception):
    pass


@dataclass
class SolverConfig:
    """Solver options; field ``name`` is the config key ``solver.<name>``."""

    method: str = "newton"
    space: str = "fine"
    tol: float = 1e-15
    max_iters: int = 100
    line_search: str = "plain"
    delta: float = 0.68                       # rho threshold for dropping regularization
    delta_i: float = 0.0                      # sparse-update threshold; 0 rebuilds every basis
    ell: int = -1                             # patch layers; < 0 = log(1/H) default
    global_basis: bool = False
    cq: float = 2.0
    estimate_cn: bool = True

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}")
        if self.line_search not in LINE_SEARCHES:
            raise ValueError(f"unknown line search {self.line_search!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not 0 < self.cq < math.inf:
            raise ValueError("cq must be positive and finite")
        if not 0.5 < self.delta < 1.0:
            raise ValueError("delta must lie in (0.5, 1)")
        if not self.delta_i >= 0:
            raise ValueError("sparse update threshold (delta_i) must be >= 0")
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
    inner_unsolved: bool = False   # quasi-norm direction missed its relation


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
        if not np.all(np.isfinite(self.f_nodes)):
            raise ValueError("f has non-finite values")
        self.mass = fem.assemble_mass(mesh)
        free = mesh.free_nodes
        self.mass_free = self.mass[free][:, free].tocsr()
        self._mass_solve = sparsela.factorized_spd(self.mass_free)
        self.load = self.mass @ self.f_nodes

    def state(self, u=None) -> fem.FemState:
        return fem.FemState(self.mesh, u)

    def energy(self, state: fem.FemState) -> float:
        """J(u); +inf, without a warning, where phi overflows."""
        with np.errstate(over="ignore"):
            return fem.energy(state, self.kappa, self.nf, self.load)

    def residual(self, state: fem.FemState) -> np.ndarray:
        """J'(u) over free nodes; non-finite, without a warning, where phi'
        overflows (an infinite flux times a zero gradient is nan)."""
        with np.errstate(over="ignore", invalid="ignore"):
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

    def along(self, state: fem.FemState, direction: fem.FemState,
              alpha: float) -> fem.FemState:
        """state + alpha * direction, with the element gradients combined the
        same way (the gradient operator is linear); they equal the gradients
        of the nodal values up to round-off."""
        grads = alpha * direction.grads()
        grads += state.grads()
        return fem.FemState(self.mesh, state.u + alpha * direction.u, grads=grads)


def poisson_initial(problem: Problem) -> fem.FemState:
    """Linear solve with the heterogeneous coefficient as initial guess."""
    k = fem.weighted_stiffness(problem.mesh, problem.kappa.values)
    solve_k = sparsela.factorized_spd(k)
    u_free = solve_k(problem.load[problem.mesh.free_nodes])
    return problem.state(problem.expand(u_free))


def direction(problem: Problem, state: fem.FemState, cfg: SolverConfig,
              r: np.ndarray, op: sp.csr_matrix | None,
              space: grps.CoarseSpace | None) -> tuple[np.ndarray, bool]:
    """Search direction of ``cfg.method`` at state, given r = J'(u) and the
    linearized operator op = A[u] (None for quasinorm). Every linear solve
    is made in the space: factored in the fine space (None), a Galerkin
    solve in a coarse one.

    gd, pgd and newton solve op w = -r and return ok = True. The quasi-norm
    direction solves cq K(w) w = -r, K(w) the stiffness weighted by
    kappa phi''(|grad u| + |grad w|): the stationarity condition of the
    strictly convex inner energy cq * int kappa [t phi'(a+t) - phi(a+t) +
    phi(a)] + r . w at t = |grad w|, a = |grad u|. Frozen-coefficient
    (Kacanov) passes, safeguarded with Armijo backtracking on the inner
    energy, stop on a small update (an Armijo step shrunk on round-off gives
    one too) or after QN_INNER_CAP passes; quadratic problems finish in one
    exact step. So ``ok`` checks the relation at the returned w:
    |cq K(w) w + r| <= QN_DEFECT_TOL |r|, or r is zero to round-off; K(w)
    is assembled for it only where its weights differ from the last pass's.
    """
    def solve_in_space(k: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
        return (sparsela.factorized_spd(k)(rhs) if space is None
                else grps.coarse_solve(k, rhs, space))

    if cfg.method != "quasinorm":
        return solve_in_space(op, -r), True
    mesh = problem.mesh
    nf = problem.nf
    kv = problem.kappa.values
    areas = mesh.areas
    a = state.grad_norms()
    phi_a = nfunc.phi(nf, a)
    cq = cfg.cq

    def inner_energy(wv: np.ndarray) -> float:
        wn = fem.FemState(mesh, problem.expand(wv)).grad_norms()
        ph, dph = nfunc.phi(nf, a + wn), nfunc.dphi(nf, a + wn)
        return cq * float(areas @ (kv * (wn * dph - ph + phi_a))) + float(r @ wv)

    def stiffness_weights(wv: np.ndarray) -> np.ndarray:
        wn = fem.FemState(mesh, problem.expand(wv)).grad_norms()
        return kv * nfunc.ddphi(nf, a + wn)

    w = np.zeros(r.size)
    e_cur = inner_energy(w)
    for _ in range(QN_INNER_CAP):
        k_weights = stiffness_weights(w)
        k = fem.weighted_stiffness(mesh, k_weights)
        target = solve_in_space(k, -r / cq)
        d = target - w
        d_norm = math.sqrt(max(d @ (k @ d), 0.0))
        t_norm = math.sqrt(max(target @ (k @ target), 1e-300))
        if d_norm <= QN_INNER_TOL * t_norm:
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
        if alpha * d_norm <= QN_INNER_TOL * t_norm:
            break
    r_norm = np.linalg.norm(r)
    if r_norm <= RESIDUAL_ZERO * np.linalg.norm(problem.load[mesh.free_nodes]):
        return w, True
    w_weights = stiffness_weights(w)
    if not np.array_equal(w_weights, k_weights):    # else k already is K(w)
        k = fem.weighted_stiffness(mesh, w_weights)
    return w, bool(np.linalg.norm(cq * (k @ w) + r) <= QN_DEFECT_TOL * r_norm)


def _bracket_and_golden(objective, f0: float) -> float:
    """Derivative-free 1-d minimization: shrink to find decrease, double to
    bracket, then golden-section to the requested relative width.

    A non-finite value counts as +inf, so it is never a decrease, and a
    non-finite f0 (a non-finite residual penalty weight, say) leaves nothing
    to decrease from.
    """
    if not math.isfinite(f0):
        raise LineSearchError("non-finite value at alpha = 0")

    def f(t: float) -> float:
        ft = objective(t)
        return ft if math.isfinite(ft) else math.inf

    t = 1.0
    ft = f(t)
    while ft >= f0:
        t *= 0.5
        if t < 1e-12:
            raise LineSearchError("no decrease along direction")
        ft = f(t)
    while 2.0 * t <= ALPHA_MAX:
        f2 = f(2.0 * t)
        if f2 >= ft:
            break
        t *= 2.0
        ft = f2
    a, b = 0.0, min(2.0 * t, ALPHA_MAX)

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > LS_REL_TOL * max(1.0, b):
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
                mode: str, r: np.ndarray):
    """Step selection of the given mode along a descent direction, given the
    residual r = J'(u).

    Returns (alpha, rho, lam). `rho` compares the realized energy change
    against its first-order model (absolute value, so the quadratic ideal is
    1/2); `lam` is the residual penalty weight (nan outside regularized mode).
    Trial points are ``problem.along`` the direction's state, so a trial
    costs no gradient-operator product.
    """
    g0 = float(r @ w_free)
    if g0 >= 0:
        raise LineSearchError("not a descent direction")
    j0 = problem.energy(state)
    d = problem.state(problem.expand(w_free))

    # a long trial step may overflow to an infinite J, which the search rejects
    def energy_at(alpha: float) -> float:
        return problem.energy(problem.along(state, d, alpha))

    lam = math.nan
    if mode == "none":
        alpha = 1.0
    elif mode == "plain":
        alpha = _bracket_and_golden(energy_at, j0)
    elif mode == "residual_regularized":
        def trial(alpha: float) -> tuple[float, float]:
            st = problem.along(state, d, alpha)
            return problem.energy(st), problem.residual_l2h(problem.residual(st)) ** 2

        (e_p, r_p), (e_m, r_m) = trial(FD_STEP), trial(-FD_STEP)
        de = (e_p - e_m) / (2.0 * FD_STEP)
        dr = (r_p - r_m) / (2.0 * FD_STEP)
        lam = abs(de) / max(abs(dr), 1e-300)

        def objective(alpha: float) -> float:
            e, rs = trial(alpha)
            return e + lam * rs

        alpha = _bracket_and_golden(
            objective, j0 + lam * problem.residual_l2h(r) ** 2)
    else:
        raise ValueError(f"unknown line-search mode {mode!r}")

    actual = energy_at(alpha) - j0
    rho = abs((actual - alpha * g0) / (alpha * g0)) if alpha > 0 else math.nan
    return alpha, rho, lam


def _brent_root(f, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    Brent's method: secant or inverse quadratic steps while they shrink the
    bracket fast enough, bisection when they stall. Stops once the bracket
    around the returned point is narrower than about xtol.
    """
    c, fc = b, fb                         # the first pass makes a the contrapoint
    while True:
        if (fb > 0) == (fc > 0):          # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):             # b is the best point so far
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:                    # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:                         # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


def estimate_cn(problem: Problem, state: fem.FemState, w0_free: np.ndarray,
                op: sp.csr_matrix) -> float:
    """Scaling constant matching the operator energy of the fine direction to
    its quasi-norm: the unique root c of
    c * A(w0, w0) = int kappa phi''(|grad u| + |grad w0| / c) |grad w0|^2,
    found in [1e-6, 1e12] by Brent's method on log c.
    """
    lhs_unit = float(w0_free @ (op @ w0_free))
    if lhs_unit <= 0:
        raise ValueError("direction has no operator energy")
    mesh = problem.mesh
    su = state.grad_norms()
    wn = fem.FemState(mesh, problem.expand(w0_free)).grad_norms()
    kv = problem.kappa.values
    areas = mesh.areas

    # log(c A(w0, w0) / quasi-norm) at c = exp(x): increasing in x, and close
    # to linear away from the root, where a power of c dominates the quasi-norm
    def log_ratio(x: float) -> float:
        with np.errstate(all="ignore"):      # an overflow brackets no root
            q = float(areas @ (kv * nfunc.ddphi(problem.nf, su + wn / math.exp(x)) * wn ** 2))
        return x + math.log(lhs_unit) - math.log(q)

    # the quadratic case balances exactly at c = 1, return it without
    # round-off; elsewhere the sign at c = 1 says which half holds the root
    g1 = log_ratio(0.0)
    if abs(g1) <= 1e-12:
        return 1.0
    x_end = math.log(1e-6) if g1 > 0 else math.log(1e12)
    g_end = log_ratio(x_end)
    if not math.isfinite(g1 + g_end) or g_end * g1 > 0:
        raise ValueError("bracketing failure in scaling-constant estimate")
    return math.exp(_brent_root(log_ratio, x_end, g_end, 0.0, g1, CN_LOG_TOL))


def solve(problem: Problem, cfg: SolverConfig, u0: fem.FemState | None = None,
          reference_energy: float | None = None) -> SolveReport:
    """Run the nonlinear iteration per the configured method and space; a
    coarse space that ``grps.coarse_space`` refuses raises before any solve."""
    cfg.validate()
    space = None if cfg.space == "fine" else grps.coarse_space(
        problem.mesh, None if cfg.global_basis else cfg.ell)
    state = poisson_initial(problem) if u0 is None else u0

    records: list[IterationRecord] = []
    ls_mode = cfg.line_search      # a regularized search drops to "plain" for good
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
            # nothing but a line search keeps the energy down: full steps
            # that leave the sublevel set {J <= J(u0)} have diverged
            j_0 = records[0].energy
            if cfg.line_search == "none" and j_n > j_0 + 1e-12 * max(abs(j_0), 1.0):
                reason = "solver_failure: energy rose above its initial value"
                break
            rec.energy_error = err(j_n)
            r = problem.residual(state)
            rec.residual_l2h = problem.residual_l2h(r)
            try:
                # the quasi-norm direction assembles its own stiffness
                op = None if cfg.method == "quasinorm" else problem.operator(
                    state, cfg.method)
                if space is not None:
                    # n = 0 and threshold 0 rebuild every basis: no indicators
                    if n == 0 or cfg.delta_i == 0:
                        sel = np.arange(space.n_basis)
                    else:
                        incr = problem.state(state.u - prev_u)
                        op_incr = problem.operator(incr, cfg.method)
                        ind = grps.update_indicators(op_incr, space)
                        sel = np.flatnonzero(ind >= cfg.delta_i)
                    space = grps.refresh_basis(space, op, sel)
                    rec.bases_updated = int(sel.size)
                w, inner_ok = direction(problem, state, cfg, r, op, space)
                rec.inner_unsolved = not inner_ok
                if not np.all(np.isfinite(w)):
                    raise sparsela.SolveError("non-finite direction")
            except sparsela.SolveError as exc:
                reason = f"solver_failure: {exc}"
                break

            if cfg.estimate_cn and cfg.method in ("pgd", "newton"):
                # the fine step factored here, so that a trace of solve
                # shows the c_tilde estimate's own factorization
                w0 = w if space is None else sparsela.factorized_spd(op)(-r)
                with contextlib.suppress(ValueError):     # c_tilde stays nan
                    rec.c_tilde = estimate_cn(problem, state, w0, op)

            try:
                rec.alpha, rec.rho, rec.lam = line_search(
                    problem, state, w, ls_mode, r)
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
