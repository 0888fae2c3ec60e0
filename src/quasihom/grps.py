"""Generalized rough polyharmonic splines: operator-adapted coarse bases.

Each basis minimizes the energy norm of the current linearized operator
subject to biorthogonality against the coarse-element indicator functions
(one constraint per coarse triangle). Bases are localized to element patches;
a staleness indicator lets the nonlinear driver skip recomputation of bases
whose operator coefficients barely changed.
"""

from __future__ import annotations

import logging
import os
import tempfile
import zipfile
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import sparsela
from .fem import LinearizedOperator
from .mesh import Mesh, Patch, build_patch

log = logging.getLogger(__name__)


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
    built_from: str                # operator fingerprint of last refresh
    stale: np.ndarray              # per-basis flag: kept from an older operator

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


def _solve_basis(op: LinearizedOperator, meas: MeasurementSet, mesh: Mesh,
                 i: int, layers: int | None, patch: Patch | None, tol: float):
    """One constrained minimization; returns (patch, free-node positions,
    values) of basis i. `patch` is reused when given, else built."""
    if layers is None:
        nodes_pos = np.arange(op.matrix.shape[0])
        coarse_ids = np.arange(meas.n_coarse)
        a_sub = op.matrix
    else:
        if patch is None:
            patch = build_patch(mesh, i, layers)
        nodes_pos = op.free_pos[patch.interior_fine_nodes]
        coarse_ids = patch.elements
        a_sub = op.matrix[nodes_pos][:, nodes_pos].tocsr()
    b_sub = meas.matrix[coarse_ids][:, nodes_pos].tocsr()
    rhs_c = np.zeros(coarse_ids.size)
    rhs_c[np.searchsorted(coarse_ids, i)] = 1.0
    try:
        x, _ = sparsela.solve_saddle(
            sparsela.SaddleSystem(a_sub, b_sub, np.zeros(nodes_pos.size), rhs_c),
            tol=tol,
        )
    except sparsela.SolveError as exc:
        raise sparsela.RankDeficiencyError(
            f"basis {i} (layers={layers}): {exc}"
        ) from exc
    return patch, nodes_pos, x


def compute_basis(op: LinearizedOperator, meas: MeasurementSet, mesh: Mesh,
                  layers: int | None = None, indices=None,
                  tol: float = 1e-10) -> CoarseSpace:
    """Coarse space for the given operator; layers=None builds global bases.

    Patch problems are independent; `indices` restricts computation to a
    subset (the remaining rows are zero and flagged stale).
    """
    n = meas.n_coarse
    empty = CoarseSpace(
        basis=sp.csr_matrix((n, op.matrix.shape[0])),
        layers=layers,
        patches=[None] * n,
        built_from="",
        stale=np.ones(n, dtype=bool),
    )
    return refresh_basis(empty, op, meas, mesh,
                         range(n) if indices is None else indices, tol=tol)


def refresh_basis(space: CoarseSpace, op: LinearizedOperator, meas: MeasurementSet,
                  mesh: Mesh, indices, tol: float = 1e-10) -> CoarseSpace:
    """Recompute the selected bases against a new operator, keep the rest."""
    stale = np.ones(space.n_basis, dtype=bool)
    patches = list(space.patches)
    rows, cols, vals = [], [], []
    for i in indices:
        patches[i], nodes_pos, x = _solve_basis(
            op, meas, mesh, i, space.layers, patches[i], tol
        )
        rows.append(np.full(x.size, i))
        cols.append(nodes_pos)
        vals.append(x)
        stale[i] = False
    # rows not rebuilt are kept as they are, the rebuilt ones zeroed and
    # replaced by their new triplets
    basis = sp.diags(stale.astype(float)) @ space.basis
    if vals:
        basis = basis + sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=basis.shape,
        )
    return replace(
        space,
        basis=basis.tocsr(),
        patches=patches,
        built_from=op.fingerprint,
        stale=stale,
    )


def interpolate(w: np.ndarray, space: CoarseSpace, meas: MeasurementSet) -> np.ndarray:
    """w_I = sum_i (int psi_i w) phi_i over free nodes."""
    return space.basis.T @ (meas.matrix @ w)


def coarse_solve(op: LinearizedOperator, rhs: np.ndarray,
                 space: CoarseSpace) -> np.ndarray:
    """Galerkin solve in the coarse space; returns a free-node vector."""
    if space.built_from != op.fingerprint and not space.stale.any():
        log.warning("coarse space was built for a different operator")
    r = space.basis
    a_c = (r @ op.matrix @ r.T).toarray()
    b_c = r @ rhs
    try:
        y = np.linalg.solve(a_c, b_c)
    except np.linalg.LinAlgError as exc:
        raise sparsela.RankDeficiencyError(f"singular coarse matrix: {exc}") from exc
    return r.T @ y


def update_indicators(op_incr: LinearizedOperator, space: CoarseSpace) -> np.ndarray:
    """Energy of each basis in the operator linearized at the last increment."""
    prod = space.basis @ op_incr.matrix
    return np.asarray(prod.multiply(space.basis).sum(axis=1)).ravel()


def cache_path(mesh_fp: str, op_fp: str, layers) -> str | None:
    root = os.environ.get("QUASIHOM_CACHE")
    if not root:
        return None
    return os.path.join(root, f"basis_{mesh_fp}_{op_fp}_l{layers}.npz")


def save_cache(space: CoarseSpace, mesh_fp: str, path) -> None:
    """Persist the basis matrix; reload is bit-identical.

    Writes a temporary file in the same directory and renames it onto
    `path`, so concurrent readers see either no file or a complete one.
    """
    b = space.basis.tocsr()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.fspath(path)) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                mesh_fp=np.frombuffer(mesh_fp.encode(), dtype=np.uint8),
                op_fp=np.frombuffer(space.built_from.encode(), dtype=np.uint8),
                layers=np.array(-1 if space.layers is None else space.layers),
                shape=np.array(b.shape),
                data=b.data,
                indices=b.indices,
                indptr=b.indptr,
            )
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_cache(path, mesh_fp: str) -> CoarseSpace | None:
    try:
        # np.load leaks the handle it opens itself when the zip is truncated
        with open(path, "rb") as fh, np.load(fh) as z:
            if z["mesh_fp"].tobytes().decode() != mesh_fp:
                return None
            layers = int(z["layers"])
            basis = sp.csr_matrix(
                (z["data"], z["indices"], z["indptr"]), shape=tuple(z["shape"])
            )
            return CoarseSpace(
                basis=basis,
                layers=None if layers < 0 else layers,
                patches=[None] * basis.shape[0],
                built_from=z["op_fp"].tobytes().decode(),
                stale=np.zeros(basis.shape[0], dtype=bool),
            )
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return None
