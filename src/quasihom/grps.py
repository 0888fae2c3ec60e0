"""Generalized rough polyharmonic splines: operator-adapted coarse bases.

Each basis minimizes the energy norm of the current linearized operator
subject to biorthogonality against the coarse-element indicator functions
(one constraint per coarse triangle). Bases are localized to element patches;
an update indicator lets the nonlinear driver skip recomputation of bases
whose operator coefficients barely changed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import sparsela
from .mesh import Mesh, Patch, build_patch


@dataclass
class MeasurementSet:
    """Integrals of free-node hats against coarse-triangle indicators.

    matrix is (n_coarse, n_free); row i sums to |T_i| minus the hat mass
    lost to boundary nodes.
    """

    matrix: sp.csr_matrix
    n_coarse: int


@dataclass
class CoarseSpace:
    basis: sp.csr_matrix           # (n_coarse, n_free), row i = phi_i
    layers: int | None             # None = global bases
    patches: list[Patch | None]

    @property
    def n_basis(self) -> int:
        return self.basis.shape[0]


def default_layers(mesh: Mesh) -> int:
    """Localization radius growing like log(1/H)."""
    h_coarse = max(mesh.lx / mesh.ncx, mesh.ly / mesh.ncy)
    return max(2, int(np.ceil(np.log2(1.0 / h_coarse))))


def build_measurements(mesh: Mesh) -> MeasurementSet:
    """Exact integrals int_{T_i} lambda_j assembled from fine element masses."""
    if not mesh.is_structured:
        raise ValueError("measurements need the coarse structure of the mesh")
    n_coarse = mesh.n_coarse_triangles
    areas = mesh.areas
    rows = np.repeat(mesh.parent, 3)
    cols = mesh.triangles.reshape(-1)
    vals = np.repeat(areas / 3.0, 3)
    full = sp.coo_matrix(
        (vals, (rows, cols)), shape=(n_coarse, mesh.n_vertices)
    ).tocsr()
    return MeasurementSet(matrix=full[:, mesh.free_nodes].tocsr(), n_coarse=n_coarse)


def _solve_basis(op: sp.csr_matrix, meas: MeasurementSet, mesh: Mesh,
                 i: int, layers: int | None, patch: Patch | None):
    """One constrained minimization; returns (patch, free-node positions,
    values) of basis i. `patch` is reused when given, else built."""
    if layers is None:
        nodes_pos = np.arange(op.shape[0])
        coarse_ids = np.arange(meas.n_coarse)
        a_sub = op
    else:
        if patch is None:
            patch = build_patch(mesh, i, layers)
        nodes_pos = mesh.free_pos[patch.interior_fine_nodes]
        coarse_ids = patch.elements
        a_sub = op[nodes_pos][:, nodes_pos].tocsr()
    b_sub = meas.matrix[coarse_ids][:, nodes_pos].tocsr()
    rhs_c = np.zeros(coarse_ids.size)
    rhs_c[np.searchsorted(coarse_ids, i)] = 1.0
    try:
        x, _ = sparsela.solve_saddle(
            sparsela.SaddleSystem(a_sub, b_sub, np.zeros(nodes_pos.size), rhs_c)
        )
    except sparsela.SolveError as exc:
        raise sparsela.RankDeficiencyError(
            f"basis {i} (layers={layers}): {exc}"
        ) from exc
    return patch, nodes_pos, x


def compute_basis(op: sp.csr_matrix, meas: MeasurementSet, mesh: Mesh,
                  layers: int | None = None, indices=None) -> CoarseSpace:
    """Coarse space for the given operator; layers=None builds global bases.

    Patch problems are independent; `indices` restricts computation to a
    subset (the remaining rows are zero).
    """
    n = meas.n_coarse
    empty = CoarseSpace(
        basis=sp.csr_matrix((n, op.shape[0])),
        layers=layers,
        patches=[None] * n,
    )
    return refresh_basis(empty, op, meas, mesh,
                         range(n) if indices is None else indices)


def refresh_basis(space: CoarseSpace, op: sp.csr_matrix, meas: MeasurementSet,
                  mesh: Mesh, indices) -> CoarseSpace:
    """Recompute the selected bases against a new operator, keep the rest."""
    keep = np.ones(space.n_basis, dtype=bool)
    patches = list(space.patches)
    rows, cols, vals = [], [], []
    for i in indices:
        patches[i], nodes_pos, x = _solve_basis(
            op, meas, mesh, i, space.layers, patches[i]
        )
        rows.append(np.full(x.size, i))
        cols.append(nodes_pos)
        vals.append(x)
        keep[i] = False
    # rows not rebuilt are kept as they are, the rebuilt ones zeroed and
    # replaced by their new triplets
    basis = sp.diags(keep.astype(float)) @ space.basis
    if vals:
        basis = basis + sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=basis.shape,
        )
    return replace(space, basis=basis.tocsr(), patches=patches)


def interpolate(w: np.ndarray, space: CoarseSpace, meas: MeasurementSet) -> np.ndarray:
    """w_I = sum_i (int psi_i w) phi_i over free nodes."""
    return space.basis.T @ (meas.matrix @ w)


def coarse_solve(op: sp.csr_matrix, rhs: np.ndarray,
                 space: CoarseSpace) -> np.ndarray:
    """Galerkin solve in the coarse space; returns a free-node vector."""
    r = space.basis
    a_c = (r @ op @ r.T).toarray()
    b_c = r @ rhs
    try:
        y = np.linalg.solve(a_c, b_c)
    except np.linalg.LinAlgError as exc:
        raise sparsela.RankDeficiencyError(f"singular coarse matrix: {exc}") from exc
    return r.T @ y


def update_indicators(op_incr: sp.csr_matrix, space: CoarseSpace) -> np.ndarray:
    """Energy of each basis in the operator linearized at the last increment."""
    prod = space.basis @ op_incr
    return np.asarray(prod.multiply(space.basis).sum(axis=1)).ravel()
