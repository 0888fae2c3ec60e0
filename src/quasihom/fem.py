"""P1 assembly for the nonlinear energy: values, gradients, linearized
operators and discrete norms.

Flux-side integrals are exact per element (both grad(u) and kappa are
element constants); the load pairs vertex-interpolated f through the
consistent mass matrix. Every operator over the free nodes goes through one
kernel: a per-mesh plan fixes the free-free CSR pattern and the slot of each
element-block entry, so an assembly is one ``np.bincount`` over those slots.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from . import nfunc
from .coeff import ElementCoefficients
from .mesh import Mesh

MODES = ("gd", "pgd", "newton")


class FemState:
    """Nodal vector with zero boundary values and a per-element gradient cache."""

    def __init__(self, mesh: Mesh, u: np.ndarray | None = None):
        self.mesh = mesh
        if u is None:
            u = np.zeros(mesh.n_vertices)
        else:
            u = np.asarray(u, dtype=float).copy()
            if u.size != mesh.n_vertices:
                raise ValueError("state size does not match mesh")
            u[mesh.boundary_nodes] = 0.0
        self.u = u
        self._grads = None

    def grads(self) -> np.ndarray:
        """(nt, 2) array of element gradients of u."""
        if self._grads is None:
            _, gx, gy, _ = self.mesh.geometry()
            ut = self.u[self.mesh.triangles]
            self._grads = np.stack(
                [(gx * ut).sum(axis=1), (gy * ut).sum(axis=1)], axis=1
            )
        return self._grads

    def grad_norms(self) -> np.ndarray:
        g = self.grads()
        return np.hypot(g[:, 0], g[:, 1])


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix over all nodes (exact hat-product integrals)."""
    areas = mesh.areas
    t = mesh.triangles
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    data = areas[:, None, None] * local[None, :, :]
    rows = np.repeat(t, 3, axis=1).reshape(-1)
    cols = np.tile(t, (1, 3)).reshape(-1)
    m = sp.coo_matrix(
        (data.reshape(-1), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    )
    return m.tocsr()


def _assembly_plan(mesh: Mesh):
    """Free-free CSR pattern and the CSR slot of each of the 9 * n_t
    element-block entries; entries touching the boundary go to slot nnz."""
    if "asm_plan" not in mesh._cache:
        t = mesh.triangles
        pos = mesh.free_pos
        rows = pos[np.repeat(t, 3, axis=1).reshape(-1)]
        cols = pos[np.tile(t, (1, 3)).reshape(-1)]
        keep = (rows >= 0) & (cols >= 0)
        n = mesh.free_nodes.size
        keys, inv = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        slots = np.full(rows.size, keys.size, dtype=np.int64)
        slots[keep] = inv
        mesh._cache["asm_plan"] = (indptr, keys % n, slots)
    return mesh._cache["asm_plan"]


def _assemble(mesh: Mesh, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum per-element 3x3 blocks into the matrix over free nodes."""
    indptr, indices, slots = _assembly_plan(mesh)
    data = np.bincount(slots, weights=blocks.reshape(-1),
                       minlength=indices.size + 1)[:-1]
    n = indptr.size - 1
    # copies: in-place edits of the result must not reach the cached pattern
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def _stiffness_blocks(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    """w_T * (grad lambda_i . grad lambda_j) per element, shape (nt, 3, 3)."""
    _, gx, gy, _ = mesh.geometry()
    return w[:, None, None] * (
        gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    )


def weighted_stiffness(mesh: Mesh, elem_weights: np.ndarray) -> sp.csr_matrix:
    """Stiffness matrix with one scalar weight per element, over free nodes."""
    return _assemble(mesh, _stiffness_blocks(mesh, mesh.areas * elem_weights))


def energy(state: FemState, coeffs: ElementCoefficients, nf: nfunc.NFunction,
           load: np.ndarray) -> float:
    """J(u) = sum_T |T| kappa_T phi(|grad u|_T) - load . u (load = M f)."""
    mesh = state.mesh
    phi = nfunc.eval(nf, state.grad_norms())[0]
    return float(mesh.areas @ (coeffs.values * phi) - load @ state.u)


def residual(state: FemState, coeffs: ElementCoefficients, nf: nfunc.NFunction,
             load: np.ndarray) -> np.ndarray:
    """First-variation vector over free nodes."""
    mesh = state.mesh
    _, gx, gy, _ = mesh.geometry()
    g = state.grads()
    w = mesh.areas * coeffs.values * nfunc.eval_secant(nf, state.grad_norms())
    # contribution of element t to node tris[t,i]: w_t * (grad u . grad lambda_i)
    contrib = w[:, None] * (g[:, 0:1] * gx + g[:, 1:2] * gy)
    r = np.bincount(
        mesh.triangles.reshape(-1), weights=contrib.reshape(-1),
        minlength=mesh.n_vertices,
    )
    return (r - load)[mesh.free_nodes]


def assemble_linearized(state: FemState, coeffs: ElementCoefficients,
                        nf: nfunc.NFunction, mode: str) -> sp.csr_matrix:
    """Linearized operator over the free nodes at the current state.

    gd: plain (coefficient-free) Laplacian. pgd: secant-weighted elliptic
    operator. newton: pgd plus the gradient-aligned rank-one correction of
    the second variation (zero where |grad u| = 0).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    mesh = state.mesh
    areas, gx, gy, _ = mesh.geometry()

    if mode == "gd":
        blocks = _stiffness_blocks(mesh, areas)
    else:
        s = state.grad_norms()
        sec = nfunc.eval_secant(nf, s)
        blocks = _stiffness_blocks(mesh, areas * coeffs.values * sec)
        if mode == "newton":
            _, dphi, ddphi = nfunc.eval(nf, s)
            safe = np.where(s > 0, s, 1.0)
            c = np.where(s > 0, (ddphi * s - dphi) / safe ** 3, 0.0)
            g = state.grads()
            d = g[:, 0:1] * gx + g[:, 1:2] * gy      # (nt, 3): grad u . grad lambda_i
            blocks += (areas * coeffs.values * c)[:, None, None] * (
                d[:, :, None] * d[:, None, :]
            )

    return _assemble(mesh, blocks)


def residual_l2h_norm(r: np.ndarray, mass_solve) -> float:
    """Discrete dual norm sqrt(r' M^-1 r); `mass_solve` applies the inverse
    of the free-node mass matrix, e.g. ``sparsela.factorized_spd(mass)``."""
    r = np.asarray(r, dtype=float)
    if not np.any(r):
        return 0.0
    x = mass_solve(r)
    return math.sqrt(max(float(r @ x), 0.0))


def error_norms(state_u: FemState, state_v: FemState, p: float) -> tuple[float, float]:
    """(H1 seminorm, W^{1,p} seminorm) of u - v (unweighted)."""
    mesh = state_u.mesh
    d = FemState(mesh, state_u.u - state_v.u).grad_norms()
    h1 = float(np.sqrt(mesh.areas @ d ** 2))
    w1p = float((mesh.areas @ d ** p) ** (1.0 / p))
    return h1, w1p
