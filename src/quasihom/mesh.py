"""Structured triangulations of a rectangle with refinement and element patches.

The coarse grid splits an Nc_x x Nc_y array of squares along the (1,1)
diagonal (two triangles per square). Uniform refinement divides every
triangle into four congruent subtriangles, which for this layout is the same
structured triangulation at doubled resolution, so node numbering stays
row-major at every level and fine/coarse parent relations are arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


@dataclass
class Mesh:
    """Structured triangle mesh (`build_coarse_mesh`, `refine`).

    vertices: (nv, 2) coordinates. triangles: (nt, 3) CCW vertex indices.
    boundary_nodes: sorted indices of nodes on the region boundary.
    parent: per-triangle index of the level-0 coarse triangle containing it.
    A mesh made without the grid fields serves the element kernels only.
    Derived arrays are cached properties, computed at first access; patches
    holds each patch that `build_patch` grows, by (i, layers).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    level: int = 0
    parent: np.ndarray | None = None
    lx: float | None = None
    ly: float | None = None
    ncx: int | None = None
    ncy: int | None = None
    patches: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_coarse_triangles(self) -> int:
        return 2 * self.ncx * self.ncy

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        m = np.zeros(self.n_vertices, dtype=bool)
        m[self.boundary_nodes] = True
        return m

    @cached_property
    def free_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)

    @cached_property
    def free_pos(self) -> np.ndarray:
        """Position of each global node in the free-node list, -1 on boundary."""
        pos = np.full(self.n_vertices, -1, dtype=np.int64)
        pos[self.free_nodes] = np.arange(self.free_nodes.size)
        return pos

    @cached_property
    def geometry(self):
        """Per-triangle areas, hat gradients and barycenters.

        Returns (areas, gx, gy, bary): gx[t, i], gy[t, i] are the components
        of the gradient of the hat function of local vertex i on triangle t
        (constant on the triangle).
        """
        t = self.triangles
        x = self.vertices[t, 0]
        y = self.vertices[t, 1]
        area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (
            x[:, 2] - x[:, 0]
        ) * (y[:, 1] - y[:, 0])
        if np.any(area2 <= 0):
            raise ValueError("mesh contains non-CCW or degenerate triangles")
        nxt = [1, 2, 0]
        prv = [2, 0, 1]
        gx = (y[:, nxt] - y[:, prv]) / area2[:, None]
        gy = (x[:, prv] - x[:, nxt]) / area2[:, None]
        bary = np.stack([x.mean(axis=1), y.mean(axis=1)], axis=1)
        return 0.5 * area2, gx, gy, bary

    @property
    def areas(self) -> np.ndarray:
        return self.geometry[0]

    @cached_property
    def node_to_triangle_count(self) -> np.ndarray:
        return np.bincount(self.triangles.ravel(), minlength=self.n_vertices)

    @cached_property
    def coarse_incidence(self) -> sp.csr_matrix:
        """Coarse triangle-vertex incidence of the level-0 grid."""
        tris = _structured(self.ncx, self.ncy, self.lx, self.ly, 0).triangles
        return sp.csr_matrix((np.ones(tris.size, dtype=np.int64),
                              (np.repeat(np.arange(len(tris)), 3), tris.ravel())))

    @cached_property
    def coarse_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(interior, skeleton) free positions per coarse element, one row each.

        interior[t] holds the nodes strictly inside coarse element t, which
        touch no other element; skeleton[t] the nodes on the coarse edges of
        its closure, -1 for boundary nodes. Rows are sorted by node, and all
        rows of one array have the same width.
        """
        nv = self.n_vertices
        keys = np.unique(np.repeat(self.parent, 3) * nv + self.triangles.ravel())
        node = keys % nv
        inner = (np.bincount(node, minlength=nv)[node] == 1) & ~self.boundary_mask[node]
        n_coarse = self.n_coarse_triangles
        pos = self.free_pos[node]
        return pos[inner].reshape(n_coarse, -1), pos[~inner].reshape(n_coarse, -1)

    @cached_property
    def assembly_plan(self):
        """Free-free CSR pattern and the CSR slot of each of the 9 * n_t
        element-block entries; entries touching the boundary go to slot nnz."""
        t = self.triangles
        pos = self.free_pos
        rows = pos[np.repeat(t, 3, axis=1).reshape(-1)]
        cols = pos[np.tile(t, (1, 3)).reshape(-1)]
        keep = (rows >= 0) & (cols >= 0)
        n = self.free_nodes.size
        keys, inv = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        slots = np.full(rows.size, keys.size, dtype=np.int64)
        slots[keep] = inv
        return indptr, keys % n, slots

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """(2 n_t, n_v) CSR matrix taking nodal values to interleaved element
        gradients; each row keeps its triangle's vertex order (unsorted indices)."""
        _, gx, gy, _ = self.geometry
        nt = self.n_triangles
        data = np.stack([gx, gy], axis=1).reshape(-1)
        indices = np.repeat(self.triangles, 2, axis=0).reshape(-1)
        indptr = np.arange(0, 6 * nt + 1, 3)
        return sp.csr_matrix((data, indices, indptr), shape=(2 * nt, self.n_vertices))


@dataclass
class Patch:
    """Element-centered patch grown by vertex-sharing adjacency on the coarse grid."""

    elements: np.ndarray
    interior_fine_nodes: np.ndarray


def _structured(ncx: int, ncy: int, lx: float, ly: float, level: int) -> Mesh:
    nx = ncx << level
    ny = ncy << level
    hx = lx / nx
    hy = ly / ny
    ix, iy = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    verts = np.column_stack([(ix * hx).ravel(), (iy * hy).ravel()])

    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ci = ci.ravel()
    cj = cj.ravel()
    v00 = cj * (nx + 1) + ci
    v10 = v00 + 1
    v11 = v10 + (nx + 1)
    v01 = v00 + (nx + 1)
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])  # lower: hypotenuse along (1,1)
    tris[1::2] = np.column_stack([v00, v11, v01])

    bmask = (ix == 0) | (ix == nx) | (iy == 0) | (iy == ny)
    boundary = np.flatnonzero(bmask.ravel())

    # parent coarse triangle per fine triangle, resolved arithmetically
    s = 1 << level
    pci = ci // s
    pcj = cj // s
    li = ci % s
    lj = cj % s
    pkind = np.empty(2 * nx * ny, dtype=np.int64)
    for k in (0, 1):
        pkind[k::2] = np.where(li > lj, 0, np.where(li < lj, 1, k))
    cell = np.repeat(pcj * ncx + pci, 2)
    parent = 2 * cell + pkind

    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_nodes=boundary,
        level=level,
        parent=parent,
        lx=lx,
        ly=ly,
        ncx=ncx,
        ncy=ncy,
    )


def build_coarse_mesh(ncx: int, ncy: int, lx: float = 1.0, ly: float = 1.0) -> Mesh:
    """Coarse triangulation of [0,lx] x [0,ly] with 2*ncx*ncy triangles."""
    if ncx < 1 or ncy < 1:
        raise ValueError("cell counts must be >= 1")
    if not (0 < lx < np.inf and 0 < ly < np.inf):
        raise ValueError(f"domain lengths must be finite and positive, got {lx!r} x {ly!r}")
    return _structured(ncx, ncy, lx, ly, 0)


def refine(mesh: Mesh, j: int) -> Mesh:
    """Refine j times, each triangle into four congruent subtriangles."""
    if j < 0:
        raise ValueError("refinement count must be >= 0")
    return _structured(mesh.ncx, mesh.ncy, mesh.lx, mesh.ly, mesh.level + j)


def build_patch(mesh: Mesh, i: int, layers: int) -> Patch:
    """Grow the patch of coarse element i by vertex-sharing adjacency, layers
    times; once per mesh, which keeps the finished patch by (i, layers)."""
    n_coarse = mesh.n_coarse_triangles
    if not 0 <= i < n_coarse:
        raise IndexError(f"coarse element {i} out of range [0, {n_coarse})")
    if layers < 0:
        raise ValueError("layers must be >= 0")
    key = (int(i), layers)
    if key in mesh.patches:
        return mesh.patches[key]

    inc = mesh.coarse_incidence
    in_patch = np.zeros(n_coarse, dtype=bool)
    in_patch[i] = True
    for _ in range(layers):
        # triangles that share a vertex with the patch
        grown = inc @ (inc.T @ in_patch) > 0
        if np.array_equal(grown, in_patch):
            break
        in_patch = grown
    elements = np.flatnonzero(in_patch)

    sub_tris = mesh.triangles[in_patch[mesh.parent]]
    in_count = np.bincount(sub_tris.ravel(), minlength=mesh.n_vertices)
    total = mesh.node_to_triangle_count
    interior = np.flatnonzero((in_count == total) & (in_count > 0) & ~mesh.boundary_mask)
    # one assignment of a finished patch: threads sharing the mesh see it whole
    mesh.patches[key] = patch = Patch(elements=elements, interior_fine_nodes=interior)
    return patch
