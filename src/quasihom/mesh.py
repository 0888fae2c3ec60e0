"""Structured triangulations of a rectangle with refinement and element patches.

The coarse grid splits an Nc_x x Nc_y array of squares along the (1,1)
diagonal (two triangles per square). Uniform refinement divides every
triangle into four congruent subtriangles, which for this layout is the same
structured triangulation at doubled resolution, so node numbering stays
row-major at every level and fine/coarse parent relations are arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Mesh:
    """Triangle mesh; structured meshes also carry grid metadata.

    vertices: (nv, 2) coordinates. triangles: (nt, 3) CCW vertex indices.
    boundary_nodes: sorted indices of nodes on the region boundary.
    parent: per-triangle index of the level-0 coarse triangle containing it.
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
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def is_structured(self) -> bool:
        return self.ncx is not None

    @property
    def n_coarse_triangles(self) -> int:
        if not self.is_structured:
            raise ValueError("unstructured mesh has no coarse structure")
        return 2 * self.ncx * self.ncy

    @property
    def boundary_mask(self) -> np.ndarray:
        if "bmask" not in self._cache:
            m = np.zeros(self.n_vertices, dtype=bool)
            m[self.boundary_nodes] = True
            self._cache["bmask"] = m
        return self._cache["bmask"]

    @property
    def free_nodes(self) -> np.ndarray:
        if "free" not in self._cache:
            self._cache["free"] = np.flatnonzero(~self.boundary_mask)
        return self._cache["free"]

    @property
    def free_pos(self) -> np.ndarray:
        """Position of each global node in the free-node list, -1 on boundary."""
        if "fpos" not in self._cache:
            pos = np.full(self.n_vertices, -1, dtype=np.int64)
            pos[self.free_nodes] = np.arange(self.free_nodes.size)
            self._cache["fpos"] = pos
        return self._cache["fpos"]

    def geometry(self):
        """Per-triangle areas, hat gradients and barycenters.

        Returns (areas, gx, gy, bary): gx[t, i], gy[t, i] are the components
        of the gradient of the hat function of local vertex i on triangle t
        (constant on the triangle).
        """
        if "geom" not in self._cache:
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
            self._cache["geom"] = (0.5 * area2, gx, gy, bary)
        return self._cache["geom"]

    @property
    def areas(self) -> np.ndarray:
        return self.geometry()[0]

    def node_to_triangle_count(self) -> np.ndarray:
        if "ntc" not in self._cache:
            self._cache["ntc"] = np.bincount(
                self.triangles.ravel(), minlength=self.n_vertices
            )
        return self._cache["ntc"]


@dataclass
class Patch:
    """Element-centered patch grown by vertex-sharing adjacency on the coarse grid."""

    center_element: int
    layers: int
    elements: np.ndarray
    fine_elements: np.ndarray
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
    if lx <= 0 or ly <= 0:
        raise ValueError("domain lengths must be positive")
    return _structured(ncx, ncy, lx, ly, 0)


def refine(mesh: Mesh, j: int) -> Mesh:
    """Refine j times, each triangle into four congruent subtriangles."""
    if j < 0:
        raise ValueError("refinement count must be >= 0")
    if not mesh.is_structured:
        raise ValueError("only structured meshes support refinement")
    return _structured(mesh.ncx, mesh.ncy, mesh.lx, mesh.ly, mesh.level + j)


def _coarse_vertex_incidence(mesh: Mesh):
    """Coarse-grid triangle connectivity: (triangle vertices, vertex -> triangles)."""
    key = "coarse_inc"
    if key not in mesh._cache:
        coarse = _structured(mesh.ncx, mesh.ncy, mesh.lx, mesh.ly, 0)
        tris = coarse.triangles
        nvert = coarse.n_vertices
        order = np.argsort(tris.ravel(), kind="stable")
        tri_of = order // 3
        counts = np.bincount(tris.ravel(), minlength=nvert)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        mesh._cache[key] = (tris, tri_of, offsets)
    return mesh._cache[key]


def build_patch(mesh: Mesh, i: int, layers: int) -> Patch:
    """Grow the patch of coarse element i by vertex-sharing adjacency, layers times."""
    if not mesh.is_structured:
        raise ValueError("patches are defined on structured meshes")
    n_coarse = mesh.n_coarse_triangles
    if not 0 <= i < n_coarse:
        raise IndexError(f"coarse element {i} out of range [0, {n_coarse})")
    if layers < 0:
        raise ValueError("layers must be >= 0")

    tris, tri_of, offsets = _coarse_vertex_incidence(mesh)
    in_patch = np.zeros(n_coarse, dtype=bool)
    in_patch[i] = True
    for _ in range(layers):
        verts = np.unique(tris[in_patch].ravel())
        touched = np.unique(
            np.concatenate([tri_of[offsets[v] : offsets[v + 1]] for v in verts])
        )
        grown = in_patch.copy()
        grown[touched] = True
        if np.array_equal(grown, in_patch):
            break
        in_patch = grown
    elements = np.flatnonzero(in_patch)

    fine_elements = np.flatnonzero(np.isin(mesh.parent, elements))
    sub_tris = mesh.triangles[fine_elements]
    in_count = np.bincount(sub_tris.ravel(), minlength=mesh.n_vertices)
    total = mesh.node_to_triangle_count()
    interior = np.flatnonzero((in_count == total) & (in_count > 0) & ~mesh.boundary_mask)
    return Patch(
        center_element=i,
        layers=layers,
        elements=elements,
        fine_elements=fine_elements,
        interior_fine_nodes=interior,
    )
