"""Generalized rough polyharmonic splines: operator-adapted coarse bases.

Each basis minimizes the energy norm of the current linearized operator
subject to biorthogonality against the coarse-element indicator functions
(one constraint per coarse triangle, a row of the measurement matrix).
Bases on the same patch share one KKT matrix, so a build factors it once
per distinct patch and makes one checked saddle solve per basis; a global
space is the one patch that covers every free node and coarse element. An
update indicator lets the nonlinear driver skip recomputation of bases whose
operator coefficients barely changed. The coarse Galerkin matrix is formed
from dense column blocks of the basis. The interpolation built on these
bases is a test oracle (``tests/oracles.py``): no solver step uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import sparsela
from .mesh import Mesh, build_patch

COARSE_BLOCK = 64     # bases per dense column block of the Galerkin matrix


@dataclass
class CoarseSpace:
    mesh: Mesh
    meas: sp.csr_matrix            # (n_coarse, n_free), built once per space
    layers: int | None             # patch layers; None = global bases
    basis: sp.csr_matrix           # (n_coarse, n_free), row i = phi_i

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


def _solve_patch(space: CoarseSpace, op: sp.csr_matrix, ids: np.ndarray,
                 pos: np.ndarray, bases: np.ndarray, outs: list[np.ndarray]) -> None:
    """Solve the bases `bases` of one patch (coarse elements `ids`, free-node
    positions `pos`) into `outs`: one KKT factorization, dropped on return,
    and one checked saddle solve per basis."""
    try:
        factor = sparsela.KKTFactor(op[pos][:, pos], space.meas[ids][:, pos])
    except sparsela.SolveError as exc:
        where = ("global basis build" if space.layers is None
                 else f"bases {bases.tolist()} (layers={space.layers})")
        raise sparsela.RankDeficiencyError(f"{where}: {exc}") from exc
    for i, out in zip(bases, outs):
        rhs_c = np.zeros(ids.size)
        rhs_c[np.searchsorted(ids, i)] = 1.0
        try:
            out[:], _ = sparsela.solve_saddle(factor, rhs_c)
        except sparsela.SolveError as exc:
            raise sparsela.RankDeficiencyError(
                f"basis {i} (layers={space.layers}): {exc}") from exc


def coarse_space(mesh: Mesh, layers: int | None) -> CoarseSpace:
    """The space of the mesh with every basis zero, to be built by
    ``refresh_basis``; layers=None makes global bases, layers < 0 the
    ``default_layers`` radius."""
    meas = build_measurements(mesh)
    if layers is not None and layers < 0:
        layers = default_layers(mesh)
    return CoarseSpace(mesh=mesh, meas=meas, layers=layers,
                       basis=sp.csr_matrix(meas.shape))


def refresh_basis(space: CoarseSpace, op: sp.csr_matrix, indices) -> CoarseSpace:
    """Recompute the selected bases against a new operator, keep the rest.

    Selected bases whose patches have the same elements share one KKT
    factorization; a global space is one patch over the whole problem. The
    patches themselves are grown once per mesh (``build_patch``).
    Repeated or out-of-range indices raise ValueError before any patch is
    built.
    """
    indices = np.fromiter(indices, dtype=int)
    bad = indices[(indices < 0) | (indices >= space.n_basis)]
    if bad.size:
        raise ValueError(f"basis indices out of range 0..{space.n_basis - 1}: "
                         f"{bad.tolist()}")
    uniq, counts = np.unique(indices, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"repeated basis indices: {uniq[counts > 1].tolist()}")
    mesh = space.mesh
    if space.layers is None:
        support = [(np.arange(space.n_basis), np.arange(op.shape[0]))] * indices.size
    else:
        patches = [build_patch(mesh, i, space.layers) for i in indices]
        support = [(p.elements, mesh.free_pos[p.interior_fine_nodes]) for p in patches]
    groups: dict[bytes, list[int]] = {}     # patch elements -> positions in indices
    for k, (ids, _) in enumerate(support):
        groups.setdefault(ids.tobytes(), []).append(k)
    # every rebuilt row is written into one block of (vals, rows, cols) triplets
    sizes = np.array([pos.size for _, pos in support], dtype=int)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    vals = np.empty(offsets[-1])
    for ks in groups.values():
        ids, pos = support[ks[0]]
        _solve_patch(space, op, ids, pos, indices[ks],
                     [vals[offsets[k]:offsets[k + 1]] for k in ks])
    # rows not rebuilt are kept as they are, the rebuilt ones zeroed and
    # replaced by their new triplets
    keep = np.ones(space.n_basis, dtype=bool)
    keep[indices] = False
    basis = sp.diags(keep.astype(float)) @ space.basis
    if indices.size:
        rows = np.repeat(indices, sizes)
        cols = np.concatenate([pos for _, pos in support])
        basis = basis + sp.csr_matrix((vals, (rows, cols)), shape=basis.shape)
    return replace(space, basis=basis.tocsr())


def _galerkin_matrix(op: sp.csr_matrix, r: sp.csr_matrix) -> np.ndarray:
    """The dense Galerkin matrix R A R', COARSE_BLOCK columns at a time.

    Each block's basis rows are made dense (free nodes by bases, in C order
    for the sparse products), multiplied by the operator and then by the
    sparse basis, so no dense n_free x n_basis array is made. The dense
    block is a temporary: at most two blocks are alive at a time.
    """
    n = r.shape[0]
    a_c = np.empty((n, n))
    for j in range(0, n, COARSE_BLOCK):
        a_c[:, j:j + COARSE_BLOCK] = r @ (op @ np.ascontiguousarray(
            r[j:j + COARSE_BLOCK].toarray().T))
    return a_c


def coarse_solve(op: sp.csr_matrix, rhs: np.ndarray,
                 space: CoarseSpace) -> np.ndarray:
    """Galerkin solve in the coarse space; returns a free-node vector."""
    r = space.basis
    try:
        y = np.linalg.solve(_galerkin_matrix(op, r), r @ rhs)
    except np.linalg.LinAlgError as exc:
        raise sparsela.RankDeficiencyError(f"singular coarse matrix: {exc}") from exc
    return r.T @ y


def update_indicators(op_incr: sp.csr_matrix, space: CoarseSpace) -> np.ndarray:
    """Energy of each basis in the operator linearized at the last increment."""
    prod = space.basis @ op_incr
    return np.asarray(prod.multiply(space.basis).sum(axis=1)).ravel()
