"""Generalized rough polyharmonic splines: operator-adapted coarse bases.

Each basis minimizes the energy norm of the current linearized operator
subject to biorthogonality against the coarse-element indicator functions
(one constraint per coarse triangle, a row of the measurement matrix).
The fine nodes strictly inside a coarse element touch its constraint only,
so a build eliminates them once for every element (static condensation)
into one ``sparsela.Condensation`` over the skeleton nodes and constraints.
Bases on the same patch share that condensation cut to the patch, so a build
factors once per distinct patch and makes one checked saddle solve per
basis; a global space is the one patch that covers every free node and
coarse element. Coarse spaces need a mesh refined at least twice. An update
indicator lets the nonlinear driver skip recomputation of bases whose
operator coefficients barely changed; it and the coarse Galerkin matrix read
the basis in the same dense column blocks. The interpolation built on these
bases is a test oracle (``tests/oracles.py``): no solver step uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import structural_rank

from . import sparsela
from .mesh import Mesh, build_patch

COARSE_BLOCK = 64     # bases per dense block: no n_free x n_basis array is made


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
    n_coarse = mesh.n_coarse_triangles
    areas = mesh.areas
    rows = np.repeat(mesh.parent, 3)
    cols = mesh.triangles.reshape(-1)
    vals = np.repeat(areas / 3.0, 3)
    full = sp.coo_matrix(
        (vals, (rows, cols)), shape=(n_coarse, mesh.n_vertices)
    ).tocsr()
    return full[:, mesh.free_nodes].tocsr()


def _entries(mat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """mat[rows, cols] over the broadcast index arrays; 0 where cols is -1."""
    shape = np.broadcast_shapes(rows.shape, cols.shape)
    r, c = (np.broadcast_to(x, shape).flatten() for x in (rows, cols))
    vals = np.asarray(mat[r, c]) if r.size else 0.0   # no index: scipy gives a sparse matrix
    return np.where(c >= 0, vals, 0.0).reshape(shape)


def _singular_interiors(op: sp.csr_matrix, inner: np.ndarray,
                        a_ii: np.ndarray) -> dict[int, str]:
    """The coarse elements whose interior block is singular, with why."""
    bad = {}
    for t, (nodes, block) in enumerate(zip(inner, a_ii)):
        rank = structural_rank(op[nodes][:, nodes])
        if rank < nodes.size:
            bad[t] = (f"singular KKT system: structural rank {rank} < {nodes.size} "
                      f"in the interior of coarse element {t}")
            continue
        try:
            np.linalg.inv(block)
        except np.linalg.LinAlgError:
            bad[t] = f"singular KKT system: singular interior of coarse element {t}"
    return bad


def _sub(mat, major: np.ndarray, local: np.ndarray, n_minor: int):
    """mat (CSR or CSC) cut to the rows of a CSR, or the columns of a CSC,
    `major`, numbered by their place there, and to the minor indices where
    `local` >= 0, numbered by `local`. An increasing `local` keeps the
    indices sorted; an int32 one keeps scipy from copying them."""
    start = mat.indptr[major]
    counts = mat.indptr[major + 1] - start
    ends = np.cumsum(counts)
    at = np.repeat(start - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)
    minor = np.take(local, np.take(mat.indices, at))
    keep = minor >= 0
    # the entries left out are few: count them with a search, not a cumsum
    indptr = np.concatenate([[0], ends - np.searchsorted(np.flatnonzero(~keep), ends)])
    shape = (major.size, n_minor) if mat.format == "csr" else (n_minor, major.size)
    return type(mat)((np.take(mat.data, at[keep]), minor[keep], indptr.astype(np.int32)),
                     shape=shape)


def _condense(space: CoarseSpace, op: sp.csr_matrix) -> tuple[sparsela.Condensation, dict]:
    """Static condensation of every coarse element T, once per operator, and
    the elements whose interior block is singular, with why.

    The interior nodes of T, ``interior[T]``, are -coupling[T] @ [x on the
    skeleton of T's closure, lam_T], with coupling[T] = A_II^-1 [A_IS, b_I']
    from one batched dense solve. The reduced matrix over the skeleton nodes
    ``kept`` and every constraint is [[A_SS, B_S'], [B_S, 0]] minus each
    correction [A_IS, b_I']' coupling[T] (op is symmetric) over the skeleton
    of T's closure and T's constraint, the rows ``gather[T]``.

    A patch's condensation is this one cut to its skeleton nodes and
    constraints: every element that touches a skeleton node of the patch is
    in the patch. The correction blocks store every node of the closure,
    zeros too: the minimum-degree ordering finds less fill with whole blocks.
    """
    inner, skel = space.mesh.coarse_cells
    n_coarse, n_free = inner.shape[0], op.shape[0]
    is_skel = np.ones(n_free, dtype=bool)
    is_skel[inner] = False
    kept = np.flatnonzero(is_skel)
    n_s = kept.size
    index = np.full(n_free + 1, -1, dtype=np.int32)
    index[kept] = np.arange(n_s)

    n_i = inner.shape[1]
    rows = _entries(op, inner[:, :, None], np.concatenate([inner, skel], axis=1)[:, None, :])
    a_ii = rows[:, :, :n_i]
    b_i = _entries(space.meas, np.arange(n_coarse)[:, None], inner)
    right = np.concatenate([rows[:, :, n_i:], b_i[:, :, None]], axis=2)
    singular = {}
    try:
        coupling = np.linalg.solve(a_ii, right)
    except np.linalg.LinAlgError:
        singular = _singular_interiors(op, inner, a_ii)
        a_ii[list(singular)] = np.eye(n_i)   # never read: their patches fail
        coupling = np.linalg.solve(a_ii, right)

    a_ss = _sub(op, kept, index, n_s).tocoo()
    b_s = _sub(space.meas, np.arange(n_coarse), index, n_s).tocoo()
    gather = np.concatenate([index[skel], n_s + np.arange(n_coarse)[:, None]], axis=1)
    r, c = np.broadcast_arrays(gather[:, :, None], gather[:, None, :])
    keep = (r >= 0) & (c >= 0)
    rows = np.concatenate([a_ss.row, b_s.row + n_s, b_s.col, r[keep]])
    cols = np.concatenate([a_ss.col, b_s.col, b_s.row + n_s, c[keep]])
    vals = np.concatenate([a_ss.data, b_s.data, b_s.data,
                           -(right.transpose(0, 2, 1) @ coupling)[keep]])
    kkt = sp.csc_matrix((vals, (rows, cols)), shape=(n_s + n_coarse,) * 2)
    return sparsela.Condensation(kkt, kept, inner, gather, coupling), singular


def _patch_factor(space: CoarseSpace, op: sp.csr_matrix, cond: sparsela.Condensation,
                  ids: np.ndarray, pos: np.ndarray) -> sparsela.KKTFactor:
    """The KKT factor of the patch of coarse elements `ids` and free-node
    positions `pos`, factored over its skeleton nodes and constraints only:
    the whole problem's condensation `cond` cut to the patch."""
    # intp maps: scipy copies the cuts' indices to int32, and every saddle
    # solve then indexes with intp arrays, which is faster
    local = np.full(op.shape[0] + 1, -1)
    local[pos] = np.arange(pos.size)
    in_patch = local[cond.kept]
    skel = np.flatnonzero(in_patch >= 0)
    at = np.concatenate([skel, cond.kept.size + ids])
    red = np.full(cond.kkt.shape[0] + 1, -1)
    red[at] = np.arange(at.size)
    return sparsela.KKTFactor(
        _sub(op, pos, local, pos.size), _sub(space.meas, ids, local, pos.size),
        sparsela.Condensation(kkt=_sub(cond.kkt, at, red, at.size), kept=in_patch[skel],
                              interior=local[cond.interior[ids]],
                              gather=red[cond.gather[ids]], coupling=cond.coupling[ids]))


def _solve_patch(space: CoarseSpace, op: sp.csr_matrix, cond: sparsela.Condensation,
                 singular: dict[int, str], ids: np.ndarray, pos: np.ndarray,
                 bases: np.ndarray, outs: list[np.ndarray]) -> None:
    """Solve the bases `bases` of one patch (coarse elements `ids`, free-node
    positions `pos`) into `outs`: one KKT factorization, dropped on return,
    and one checked saddle solve per basis."""
    try:
        failed = next((singular[t] for t in ids.tolist() if t in singular), None)
        if failed:
            raise sparsela.RankDeficiencyError(failed)
        factor = _patch_factor(space, op, cond, ids, pos)
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
    ``default_layers`` radius. A mesh refined fewer than two times raises
    ValueError: its coarse elements have no interior nodes, and no basis exists."""
    if mesh.level < 2:
        raise ValueError(f"a coarse space needs mesh.refine >= 2, got {mesh.level}")
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
    cond, singular = _condense(space, op) if groups else (None, {})
    for ks in groups.values():
        ids, pos = support[ks[0]]
        _solve_patch(space, op, cond, singular, ids, pos, indices[ks],
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


def _column_blocks(r: sp.csr_matrix, out: np.ndarray, fill) -> np.ndarray:
    """out[..., cols] = fill(d) over R' COARSE_BLOCK columns `cols` at a time,
    d their dense block (free nodes by bases, in C order for the sparse
    products). No name holds d, so it is dropped before the next is made."""
    for j in range(0, r.shape[0], COARSE_BLOCK):
        cols = slice(j, j + COARSE_BLOCK)
        out[..., cols] = fill(np.ascontiguousarray(r[cols].toarray().T))
    return out


def _galerkin_matrix(op: sp.csr_matrix, r: sp.csr_matrix) -> np.ndarray:
    """The dense Galerkin matrix R A R', one column block at a time."""
    return _column_blocks(r, np.empty((r.shape[0],) * 2), lambda d: r @ (op @ d))


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
    """Energy of each basis in the operator linearized at the last increment:
    the diagonal of its Galerkin matrix, from the same column blocks."""
    return _column_blocks(space.basis, np.empty(space.n_basis),
                          lambda d: np.einsum("ij,ij->j", d, op_incr @ d))
