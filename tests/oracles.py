"""Theory oracles that the tests check the library against.

None of these is on a solver path: the shifted N-function, the quasi-norm,
the Bregman distance and the scalar update indicator only state the paper's
quantities in their plainest form, so that the vectorized library code can
be compared with them. The GRPS interpolation is what the optimal-recovery
tests check the coarse bases with. The per-element gradient gather is the
plain form of the library's cached gradient operator, the log-scale
bisection the plain form of the library's root search for c_tilde, and one
direct KKT factorization per basis the plain form of the condensed one
shared by every basis on a patch.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

from quasihom import fem, nfunc, solvers, sparsela
from quasihom.coeff import ElementCoefficients
from quasihom.fem import FemState
from quasihom.mesh import build_patch


def eval_shifted(nf: nfunc.NFunction, a: float, t: float) -> tuple[float, float]:
    """Shifted N-function: phi_a'(t) = t * phi'(max(a,t)) / max(a,t), and its
    antiderivative phi_a(t) by adaptive quadrature."""
    if a < 0 or t < 0:
        raise ValueError("shift and argument must be >= 0")
    if a == 0.0:
        return float(nfunc.phi(nf, t)), float(nfunc.dphi(nf, t))
    m = max(a, t)
    dphi_a = t * float(nfunc.dphi(nf, m)) / m

    def integrand(s):
        ms = max(a, s)
        return s * float(nfunc.dphi(nf, ms)) / ms

    phi_a, _ = quad(integrand, 0.0, t, epsabs=1e-14, epsrel=1e-10, limit=200)
    return phi_a, dphi_a


def element_gradients(mesh, u: np.ndarray) -> np.ndarray:
    """(nt, 2) element gradients of u, gathered per element and summed over
    its three vertices in vertex order."""
    _, gx, gy, _ = mesh.geometry
    ut = u[mesh.triangles]
    return np.stack([(gx * ut).sum(axis=1), (gy * ut).sum(axis=1)], axis=1)


def quasi_norm(state: FemState, w: np.ndarray, coeffs: ElementCoefficients,
               nf: nfunc.NFunction) -> float:
    """sum_T |T| kappa_T phi''(|grad u| + |grad w|) |grad w|^2."""
    mesh = state.mesh
    wn = FemState(mesh, w).grad_norms()
    dd = nfunc.ddphi(nf, state.grad_norms() + wn)
    return float(mesh.areas @ (coeffs.values * dd * wn ** 2))


def bregman(state_u: FemState, state_v: FemState, coeffs: ElementCoefficients,
            nf: nfunc.NFunction, load: np.ndarray) -> float:
    """J(u) - J(v) - J'(v)(u - v); nonnegative by convexity."""
    if state_u.mesh is not state_v.mesh:
        raise ValueError("states must share a mesh")
    ju = fem.energy(state_u, coeffs, nf, load)
    jv = fem.energy(state_v, coeffs, nf, load)
    rv = fem.residual(state_v, coeffs, nf, load)
    diff = (state_u.u - state_v.u)[state_u.mesh.free_nodes]
    return ju - jv - float(rv @ diff)


def interpolate(w: np.ndarray, space) -> np.ndarray:
    """w_I = sum_i (int psi_i w) phi_i over free nodes, for a grps.CoarseSpace
    `space` and its measurement matrix."""
    return space.basis.T @ (space.meas @ w)


def basis_per_row(op: sp.csr_matrix, meas: sp.csr_matrix, indices,
                  mesh=None, layers: int | None = None) -> np.ndarray:
    """Rows `indices` of the coarse basis as dense free-node vectors, each
    its own KKT factorization and solve: minimize the op-energy subject to
    meas @ x = e_i, over the whole problem (layers=None) or over the
    element patch of coarse element i on `mesh`."""
    rows = np.zeros((len(indices), op.shape[0]))
    for row, i in zip(rows, indices):
        if layers is None:
            ids, pos = np.arange(meas.shape[0]), np.arange(op.shape[0])
        else:
            patch = build_patch(mesh, i, layers)
            ids, pos = patch.elements, mesh.free_pos[patch.interior_fine_nodes]
        factor = sparsela.KKTFactor(op[pos][:, pos], meas[ids][:, pos])
        row[pos], _ = sparsela.solve_saddle(factor, (ids == i).astype(float))
    return rows


def update_indicator(op_incr: sp.csr_matrix, basis_vec: np.ndarray) -> float:
    """Energy of one basis in the operator linearized at the last increment."""
    return float(basis_vec @ (op_incr @ basis_vec))


def estimate_cn_bisection(problem: solvers.Problem, state: FemState,
                          w0_free: np.ndarray, op: sp.csr_matrix) -> float:
    """The root c of c * A(w0, w0) = int kappa phi''(|grad u| + |grad w0| / c)
    |grad w0|^2 by bisection on log c over [1e-6, 1e12], to width 1e-8."""
    lhs_unit = float(w0_free @ (op @ w0_free))
    if lhs_unit <= 0:
        raise ValueError("direction has no operator energy")
    mesh = problem.mesh
    su = state.grad_norms()
    wn = FemState(mesh, problem.expand(w0_free)).grad_norms()
    kv = problem.kappa.values
    areas = mesh.areas

    def rhs(c: float) -> float:
        dd = nfunc.ddphi(problem.nf, su + wn / c)
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
