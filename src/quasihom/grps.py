"""Generalized rough polyharmonic splines: operator-adapted coarse bases.

Each basis minimizes the energy norm of the current linearized operator
subject to biorthogonality against the coarse-element indicator functions
(one constraint per coarse triangle, a row of the measurement matrix).
Global bases share one KKT matrix, so a global build factors it once and
makes one checked saddle solve per basis; localized bases each factor their
element patch's problem. An update indicator lets the nonlinear driver skip
recomputation of bases whose operator coefficients barely changed. The
interpolation built on these bases is a test oracle (``tests/oracles.py``):
no solver step uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import sparsela
from .mesh import Mesh, Patch, build_patch


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


def build_measurements(mesh: Mesh) -> sp.csr_matrix:
    """Exact integrals int_{T_i} lambda_j of the free-node hats against the
    coarse-triangle indicators, assembled from fine element masses.

    The result is (n_coarse, n_free); row i sums to |T_i| minus the hat mass
    lost to boundary nodes.
    """
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
    return full[:, mesh.free_nodes].tocsr()


def _solve_basis(a: sp.csr_matrix, b: sp.csr_matrix, coarse_ids: np.ndarray,
                 i: int, layers: int | None, factor=None) -> np.ndarray:
    """Basis i: one checked saddle solve on the operator block `a` and the
    measurement rows `coarse_ids` (block `b`), against `factor` if given."""
    rhs_c = np.zeros(coarse_ids.size)
    rhs_c[np.searchsorted(coarse_ids, i)] = 1.0
    try:
        x, _ = sparsela.solve_saddle(
            sparsela.SaddleSystem(a, b, np.zeros(a.shape[0]), rhs_c, factor)
        )
    except sparsela.SolveError as exc:
        raise sparsela.RankDeficiencyError(
            f"basis {i} (layers={layers}): {exc}"
        ) from exc
    return x


def _global_bases(op: sp.csr_matrix, meas: sp.csr_matrix,
                  indices: np.ndarray) -> np.ndarray:
    """Rows `indices` of the global basis. They share one KKT matrix, factored
    once; the block is allocated first and the factor dropped on return,
    which keeps the peak heap flat."""
    block = np.empty((indices.size, op.shape[0]))
    try:
        factor = sparsela.KKTFactor(op, meas)
    except sparsela.SolveError as exc:
        raise sparsela.RankDeficiencyError(f"global basis build: {exc}") from exc
    coarse_ids = np.arange(meas.shape[0])
    for k, i in enumerate(indices):
        block[k] = _solve_basis(op, meas, coarse_ids, i, None, factor)
    return block


def compute_basis(op: sp.csr_matrix, meas: sp.csr_matrix, mesh: Mesh,
                  layers: int | None = None, indices=None) -> CoarseSpace:
    """Coarse space for the given operator; layers=None builds global bases.

    Patch problems are independent; `indices` restricts computation to a
    subset (the remaining rows are zero).
    """
    n = meas.shape[0]
    empty = CoarseSpace(
        basis=sp.csr_matrix((n, op.shape[0])),
        layers=layers,
        patches=[None] * n,
    )
    return refresh_basis(empty, op, meas, mesh,
                         range(n) if indices is None else indices)


def refresh_basis(space: CoarseSpace, op: sp.csr_matrix, meas: sp.csr_matrix,
                  mesh: Mesh, indices) -> CoarseSpace:
    """Recompute the selected bases against a new operator, keep the rest."""
    indices = np.fromiter(indices, dtype=int)
    keep = np.ones(space.n_basis, dtype=bool)
    keep[indices] = False
    patches = list(space.patches)
    n = op.shape[0]
    if space.layers is None and indices.size:
        vals = _global_bases(op, meas, indices).ravel()
        rows, cols = np.repeat(indices, n), np.tile(np.arange(n), indices.size)
    elif indices.size:
        rows, cols, vals = [], [], []
        for i in indices:
            if patches[i] is None:
                patches[i] = build_patch(mesh, i, space.layers)
            pos = mesh.free_pos[patches[i].interior_fine_nodes]
            ids = patches[i].elements
            vals.append(_solve_basis(op[pos][:, pos].tocsr(), meas[ids][:, pos].tocsr(),
                                     ids, i, space.layers))
            rows.append(np.full(pos.size, i))
            cols.append(pos)
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    # rows not rebuilt are kept as they are, the rebuilt ones zeroed and
    # replaced by their new triplets
    basis = sp.diags(keep.astype(float)) @ space.basis
    if indices.size:
        basis = basis + sp.csr_matrix((vals, (rows, cols)), shape=basis.shape)
    return replace(space, basis=basis.tocsr(), patches=patches)


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
