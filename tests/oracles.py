"""Theory oracles that the tests check the library against.

None of these is on a solver path: the shifted N-function, the quasi-norm,
the Bregman distance and the scalar update indicator only state the paper's
quantities in their plainest form, so that the vectorized library code can
be compared with them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

from quasihom import fem, nfunc
from quasihom.coeff import ElementCoefficients
from quasihom.fem import FemState


def eval_shifted(nf: nfunc.NFunction, a: float, t: float) -> tuple[float, float]:
    """Shifted N-function: phi_a'(t) = t * phi'(max(a,t)) / max(a,t), and its
    antiderivative phi_a(t) by adaptive quadrature."""
    if a < 0 or t < 0:
        raise ValueError("shift and argument must be >= 0")
    if a == 0.0:
        phi, dphi, _ = nfunc.eval(nf, t)
        return float(phi), float(dphi)
    m = max(a, t)
    dphi_a = t * float(nfunc.eval(nf, m)[1]) / m

    def integrand(s):
        ms = max(a, s)
        return s * float(nfunc.eval(nf, ms)[1]) / ms

    phi_a, _ = quad(integrand, 0.0, t, epsabs=1e-14, epsrel=1e-10, limit=200)
    return phi_a, dphi_a


def quasi_norm(state: FemState, w: np.ndarray, coeffs: ElementCoefficients,
               nf: nfunc.NFunction) -> float:
    """sum_T |T| kappa_T phi''(|grad u| + |grad w|) |grad w|^2."""
    mesh = state.mesh
    wn = FemState(mesh, w).grad_norms()
    dd = nfunc.eval(nf, state.grad_norms() + wn)[2]
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


def update_indicator(op_incr: sp.csr_matrix, basis_vec: np.ndarray) -> float:
    """Energy of one basis in the operator linearized at the last increment."""
    return float(basis_vec @ (op_incr @ basis_vec))
