import itertools

import numpy as np
import pytest

from quasihom.mesh import (
    Mesh,
    build_coarse_mesh,
    build_patch,
    refine,
)


def test_coarse_counts():
    m = build_coarse_mesh(2, 2, 1.0, 1.0)
    assert m.n_triangles == 8
    assert m.n_vertices == 9

    m1 = build_coarse_mesh(1, 1, 1.0, 1.0)
    assert m1.n_triangles == 2
    assert m1.n_vertices == 4

    mr = build_coarse_mesh(10, 3, 2.2, 0.6)
    assert mr.n_triangles == 60
    assert any(np.allclose(v, (2.2, 0.6)) for v in mr.vertices)


def test_coarse_invalid_args():
    with pytest.raises(ValueError):
        build_coarse_mesh(0, 2)
    with pytest.raises(ValueError):
        build_coarse_mesh(2, 2, -1.0, 1.0)


def test_positive_ccw_areas():
    m = refine(build_coarse_mesh(3, 2, 2.0, 1.0), 2)
    assert np.all(m.areas > 0)


def test_refine_counts_and_identity():
    m = build_coarse_mesh(1, 1)
    assert refine(m, 2).n_triangles == 32
    m8 = build_coarse_mesh(2, 2)
    same = refine(m8, 0)
    assert np.array_equal(same.triangles, m8.triangles)
    assert np.array_equal(same.vertices, m8.vertices)


def test_refine_edge_length():
    m = refine(build_coarse_mesh(4, 4), 5)
    # axis-aligned legs have length 2^-7
    v = m.vertices
    t = m.triangles[0]
    legs = np.linalg.norm(v[t[1]] - v[t[0]])
    assert legs == pytest.approx(2.0 ** -7, rel=1e-14)


def test_area_preservation_and_parent_tiling():
    for j in range(4):
        m = refine(build_coarse_mesh(3, 2, 1.5, 0.7), j)
        assert m.areas.sum() == pytest.approx(1.5 * 0.7, rel=1e-12)
        # children of each coarse triangle tile it exactly
        coarse = build_coarse_mesh(3, 2, 1.5, 0.7)
        child_area = np.bincount(m.parent, weights=m.areas,
                                 minlength=coarse.n_triangles)
        assert np.allclose(child_area, coarse.areas, rtol=1e-12)


def test_boundary_nodes():
    m = refine(build_coarse_mesh(2, 2), 1)
    v = m.vertices
    on_edge = (
        (v[:, 0] == 0) | (v[:, 0] == 1) | (v[:, 1] == 0) | (v[:, 1] == 1)
    )
    assert np.array_equal(np.flatnonzero(on_edge), np.sort(m.boundary_nodes))


def _brute_force_patch(mesh, i, layers):
    coarse = build_coarse_mesh(mesh.ncx, mesh.ncy, mesh.lx, mesh.ly)
    tris = coarse.triangles
    current = {i}
    for _ in range(layers):
        grown = set(current)
        for a, b in itertools.product(range(coarse.n_triangles), current):
            if set(tris[a]) & set(tris[b]):
                grown.add(a)
        current = grown
    return np.array(sorted(current))


def test_patch_base_case():
    m = refine(build_coarse_mesh(4, 4), 1)
    p = build_patch(m, 7, 0)
    assert np.array_equal(p.elements, [7])


def test_patch_matches_brute_force():
    m = refine(build_coarse_mesh(4, 4), 1)
    interior = 2 * (1 * 4 + 2)  # cell (2,1), lower triangle
    for layers in (1, 2):
        p = build_patch(m, interior, layers)
        assert np.array_equal(p.elements, _brute_force_patch(m, interior, layers))


def test_patch_saturates():
    m = refine(build_coarse_mesh(2, 2), 1)
    for i in range(m.n_coarse_triangles):
        p = build_patch(m, i, 3)
        assert np.array_equal(p.elements, np.arange(8))


def test_patch_monotone_and_idempotent():
    m = refine(build_coarse_mesh(4, 4), 1)
    prev = set()
    for layers in range(6):
        p = build_patch(m, 5, layers)
        cur = set(p.elements.tolist())
        assert prev <= cur
        prev = cur
    assert np.array_equal(build_patch(m, 5, 8).elements,
                          build_patch(m, 5, 9).elements)


def test_patch_index_error():
    m = build_coarse_mesh(2, 2)
    with pytest.raises(IndexError):
        build_patch(m, 99, 1)


def test_full_patch_covers_mesh():
    # a patch grown over the whole domain holds every fine element, and its
    # interior nodes are exactly the free nodes of the mesh
    m = refine(build_coarse_mesh(2, 2), 1)
    p = build_patch(m, 0, 4)
    assert np.array_equal(np.flatnonzero(np.isin(m.parent, p.elements)),
                          np.arange(m.n_triangles))
    assert np.array_equal(p.interior_fine_nodes, m.free_nodes)


def test_corner_triangle_submesh_boundary_flags():
    # single coarse-triangle patch at the domain corner: nodes strictly inside
    # the triangle are interior, everything on its edges is not
    m = refine(build_coarse_mesh(2, 2), 2)
    p = build_patch(m, 0, 0)
    interior = set(p.interior_fine_nodes.tolist())
    for g in np.unique(m.triangles[np.isin(m.parent, p.elements)].ravel()):
        x, y = m.vertices[g]
        on_domain_boundary = x in (0.0, 1.0) or y in (0.0, 1.0)
        if on_domain_boundary:
            assert g not in interior
        if g in interior:
            # strictly inside the lower triangle of the first coarse cell
            assert y < x and x < 0.5 and y > 0.0


def test_interior_fine_nodes_match_definition():
    m = refine(build_coarse_mesh(4, 4), 2)
    p = build_patch(m, 10, 1)
    fine_set = set(np.flatnonzero(np.isin(m.parent, p.elements)).tolist())
    tri_of_node = [[] for _ in range(m.n_vertices)]
    for t, tri in enumerate(m.triangles):
        for v in tri:
            tri_of_node[v].append(t)
    boundary = set(m.boundary_nodes.tolist())
    expected = [
        v for v in range(m.n_vertices)
        if tri_of_node[v] and v not in boundary
        and all(t in fine_set for t in tri_of_node[v])
    ]
    assert np.array_equal(p.interior_fine_nodes, expected)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_coarse_cells_partition_the_free_nodes(level):
    # every free node is interior to exactly one coarse element, where all
    # its fine triangles lie, or on the skeleton of each element it touches
    m = refine(build_coarse_mesh(3, 2, 1.5, 1.0), level)
    inner, skel = m.coarse_cells
    n_coarse, n_free = m.n_coarse_triangles, m.free_nodes.size
    assert inner.shape == (n_coarse, (2 ** level - 1) * (2 ** level - 2) // 2)
    assert skel.shape == (n_coarse, 3 * 2 ** level)
    assert np.unique(inner).size == inner.size
    on_skel = np.unique(skel[skel >= 0])
    assert np.intersect1d(inner, on_skel).size == 0
    assert np.array_equal(np.union1d(inner, on_skel), np.arange(n_free))
    node_of = m.free_nodes
    for t in range(n_coarse):
        touching = np.unique(m.triangles[m.parent == t])
        assert inner.shape[1] + skel.shape[1] == touching.size
        for v in node_of[inner[t]]:
            assert np.all(m.parent[(m.triangles == v).any(axis=1)] == t)
        free_skel = skel[t][skel[t] >= 0]
        assert np.all(np.isin(node_of[free_skel], touching))
        # the -1 pads stand for the boundary nodes of the closure
        assert np.sum(skel[t] < 0) == np.sum(m.boundary_mask[touching])
