"""Property tests of the assembly kernel against a dense per-element oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihom import coeff, fem, nfunc
from quasihom.mesh import build_coarse_mesh, refine

meshes = st.builds(
    lambda ncx, ncy, lx, ly, j: refine(build_coarse_mesh(ncx, ncy, lx, ly), j),
    st.integers(1, 3), st.integers(1, 3),
    st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.integers(0, 2),
)


def _hat_gradients(xy):
    """(3, 2) gradients of the three hats of one triangle and its area."""
    m = np.column_stack([np.ones(3), xy])
    return np.linalg.inv(m)[1:].T, 0.5 * abs(np.linalg.det(m))


def _dense(mesh, element_matrix):
    """Dense sum of element matrices, restricted to the free nodes."""
    a = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for e, tri in enumerate(mesh.triangles):
        grads, area = _hat_gradients(mesh.vertices[tri])
        a[np.ix_(tri, tri)] += area * element_matrix(e, tri, grads)
    free = mesh.free_nodes
    return a[np.ix_(free, free)]


def _check(matrix, dense):
    a = matrix.toarray()
    assert a.shape == dense.shape
    scale = max(abs(dense).max(initial=0.0), 1e-300)
    assert abs(a - dense).max(initial=0.0) <= 1e-13 * scale
    assert np.array_equal(a, a.T)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mesh=meshes, seed=st.integers(0, 2 ** 32 - 1))
def test_weighted_stiffness_matches_dense_oracle(mesh, seed):
    w = np.random.default_rng(seed).uniform(1e-3, 1e3, mesh.n_triangles)
    dense = _dense(mesh, lambda e, tri, g: w[e] * (g @ g.T))
    _check(fem.weighted_stiffness(mesh, w), dense)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mesh=meshes, seed=st.integers(0, 2 ** 32 - 1),
       p=st.sampled_from([2.0, 3.0, 5.0, 10.0]),
       mode=st.sampled_from(["pgd", "newton"]))
def test_linearized_operator_matches_dense_oracle(mesh, seed, p, mode):
    rng = np.random.default_rng(seed)
    kappa = coeff.ElementCoefficients(values=rng.uniform(0.1, 10.0, mesh.n_triangles))
    nf = nfunc.NFunction.from_eps_pow("reg_c1", p, 1e-6)
    u = np.zeros(mesh.n_vertices)
    u[mesh.free_nodes] = rng.standard_normal(mesh.free_nodes.size)

    def element(e, tri, g):
        grad_u = g.T @ u[tri]
        s = np.hypot(*grad_u)
        k = kappa.values[e]
        out = k * nfunc.eval_secant(nf, s) * (g @ g.T)
        if mode == "newton" and s > 0:
            _, dphi, ddphi = nfunc.eval(nf, s)
            d = g @ grad_u
            out = out + k * (ddphi * s - dphi) / s ** 3 * np.outer(d, d)
        return out

    op = fem.assemble_linearized(fem.FemState(mesh, u), kappa, nf, mode)
    _check(op, _dense(mesh, element))
