import threading

import numpy as np
import pytest
import scipy.sparse as sp

from quasihom import coeff, fem, nfunc, sparsela
from quasihom.fem import FemState
from quasihom.mesh import Mesh, build_coarse_mesh, build_patch, refine

from conftest import make_mesh, make_problem, random_state
from oracles import bregman, quasi_norm


def _reference_triangle():
    return Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_nodes=np.array([], dtype=int),
    )


def test_element_mass_matrix():
    m = _reference_triangle()
    mass = fem.assemble_mass(m).toarray()
    expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(mass, expected, rtol=1e-14)


def test_mass_row_sums_and_symmetry():
    m = refine(build_coarse_mesh(3, 2, 1.5, 0.5), 2)
    mass = fem.assemble_mass(m)
    assert mass.sum() == pytest.approx(1.5 * 0.5, rel=1e-12)
    assert np.all(mass.diagonal() > 0)
    assert abs(mass - mass.T).max() < 1e-15


def test_state_zeroes_boundary():
    m = refine(build_coarse_mesh(2, 2), 1)
    u = np.ones(m.n_vertices)
    st = FemState(m, u)
    assert np.all(st.u[m.boundary_nodes] == 0.0)


def test_grad_norms_match_hypot(rng):
    pr = make_problem(4, 2)
    st = random_state(pr, rng, scale=0.3)
    g = st.grads()
    ref = np.hypot(g[:, 0], g[:, 1])
    assert np.all(np.abs(st.grad_norms() - ref) <= np.spacing(ref))
    # squared sums that overflow or underflow take np.hypot's value exactly
    for scale in (1e200, 1e-200):
        big = FemState(pr.mesh, st.u, grads=scale * g)
        gb = big.grads()
        assert np.array_equal(big.grad_norms(), np.hypot(gb[:, 0], gb[:, 1]))


def test_energy_zero_state():
    pr = make_problem(2, 1, p=4.0, nf_kind="power")
    assert pr.energy(pr.state()) == 0.0


def test_energy_quadratic_hand_oracle(rng):
    # p=2, kappa=1: J(u) = 1/2 u'Ku - b'u against a dense assembly
    pr = make_problem(2, 2, p=2.0, nf_kind="power")
    m = pr.mesh
    k_free = fem.weighted_stiffness(m, np.ones(m.n_triangles))
    st = random_state(pr, rng, scale=1.0)
    uf = st.u[m.free_nodes]
    b = pr.load[m.free_nodes]
    expected = 0.5 * uf @ (k_free @ uf) - b @ uf
    assert pr.energy(st) == pytest.approx(expected, rel=1e-12)


def test_energy_decreases_under_refinement():
    # linear Poisson energy is monotone in nested spaces
    vals = []
    for j in range(1, 5):
        pr = make_problem(1, j, p=2.0, nf_kind="power")
        m = pr.mesh
        k = fem.weighted_stiffness(m, np.ones(m.n_triangles))
        u = sparsela.factorized_spd(k)(pr.load[m.free_nodes])
        vals.append(pr.energy(pr.state(pr.expand(u))))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_residual_linear_case_exact(rng):
    pr = make_problem(3, 1, p=2.0, kind="mstrig", nf_kind="power")
    m = pr.mesh
    st = random_state(pr, rng, scale=1.0)
    k = fem.weighted_stiffness(m, pr.kappa.values)
    expected = k @ st.u[m.free_nodes] - pr.load[m.free_nodes]
    assert np.allclose(pr.residual(st), expected, atol=1e-13)


def test_residual_at_minimizer_small():
    pr = make_problem(3, 2, p=2.0, kind="mstrig", nf_kind="power")
    m = pr.mesh
    k = fem.weighted_stiffness(m, pr.kappa.values)
    u = sparsela.factorized_spd(k)(pr.load[m.free_nodes])
    r = pr.residual(pr.state(pr.expand(u)))
    assert np.abs(r).max() <= 1e-12


@pytest.mark.parametrize("p", [2.0, 5.0, 10.0])
def test_gradient_fd_consistency(p, rng):
    pr = make_problem(4, 2, p=p, kind="mstrig")
    m = pr.mesh
    tau = 1e-6
    for _ in range(5):
        st = random_state(pr, rng, scale=0.3)
        v = np.zeros(m.n_vertices)
        v[m.free_nodes] = rng.standard_normal(m.free_nodes.size)
        jp = pr.energy(pr.state(st.u + tau * v))
        jm = pr.energy(pr.state(st.u - tau * v))
        fd = (jp - jm) / (2 * tau)
        rv = pr.residual(st) @ v[m.free_nodes]
        assert fd == pytest.approx(rv, rel=1e-6)


@pytest.mark.parametrize("p", [2.0, 5.0, 10.0])
def test_hessian_fd_consistency(p, rng):
    pr = make_problem(4, 2, p=p, kind="mstrig")
    m = pr.mesh
    tau = 1e-6
    for _ in range(5):
        st = random_state(pr, rng, scale=0.3)
        op = pr.operator(st, "newton")
        w = rng.standard_normal(m.free_nodes.size)
        v = rng.standard_normal(m.free_nodes.size)
        rp = pr.residual(pr.state(st.u + tau * pr.expand(w)))
        rm = pr.residual(pr.state(st.u - tau * pr.expand(w)))
        fd = (rp - rm) @ v / (2 * tau)
        aw = (op @ w) @ v
        assert fd == pytest.approx(aw, rel=1e-5)


def test_p2_newton_equals_pgd_equals_weighted_stiffness(rng):
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = random_state(pr, rng)
    a_n = pr.operator(st, "newton")
    a_g = pr.operator(st, "pgd")
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values)
    assert abs(a_n - a_g).max() < 1e-14
    assert abs(a_n - k).max() < 1e-13


def test_gd_mode_is_plain_laplacian(rng):
    pr = make_problem(3, 1, p=5.0, kind="mstrig")
    st = random_state(pr, rng)
    a_gd = pr.operator(st, "gd")
    lap = fem.weighted_stiffness(pr.mesh, np.ones(pr.mesh.n_triangles))
    assert abs(a_gd - lap).max() == 0.0


def test_newton_element_matrix_constant_gradient():
    # single triangle, grad u = (1, 0), p=4, kappa=1:
    # newton form = |grad u|^2 (grad li . grad lj) + 2 (dx li)(dx lj)
    m = _reference_triangle()
    kap = coeff.ElementCoefficients(values=np.ones(1))
    nf = nfunc.NFunction("power", 4.0)
    u = np.array([0.0, 1.0, 0.0])  # grad = (1, 0)
    st = FemState(m, u)
    op = fem.assemble_linearized(st, kap, nf, "newton")
    _, gx, gy, _ = m.geometry
    area = m.areas[0]
    g = np.stack([gx[0], gy[0]], axis=0)
    expected = area * (g.T @ g) + 2.0 * area * np.outer(gx[0], gx[0])
    assert np.allclose(op.toarray(), expected, rtol=1e-13)


def test_quasi_norm_values(rng):
    pr = make_problem(3, 1, p=2.0, kind="mstrig")
    m = pr.mesh
    st = random_state(pr, rng)
    assert quasi_norm(st, np.zeros(m.n_vertices), pr.kappa, pr.nf) == 0.0
    # p=2: independent of the state, equals int kappa |grad w|^2
    w = np.zeros(m.n_vertices)
    w[m.free_nodes] = rng.standard_normal(m.free_nodes.size)
    k = fem.weighted_stiffness(m, pr.kappa.values)
    qn = quasi_norm(st, w, pr.kappa, pr.nf)
    qn0 = quasi_norm(pr.state(), w, pr.kappa, pr.nf)
    assert qn == pytest.approx(w[m.free_nodes] @ (k @ w[m.free_nodes]), rel=1e-12)
    assert qn == pytest.approx(qn0, rel=1e-12)


def test_quasi_norm_single_triangle_hand():
    # unit-area triangle, p=4: phi'' = 3 t^2 -> 3 (|gu| + |gw|)^2 |gw|^2
    m = Mesh(
        vertices=np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_nodes=np.array([], dtype=int),
    )
    kap = coeff.ElementCoefficients(values=np.ones(1))
    nf = nfunc.NFunction("power", 4.0)
    u = np.array([0.0, 2.0, 0.0])   # grad u = (1, 0)
    w = np.array([0.0, 0.0, 3.0])   # grad w = (0, 3)
    st = FemState(m, u)
    expected = 1.0 * 3.0 * (1.0 + 3.0) ** 2 * 9.0
    assert quasi_norm(st, w, kap, nf) == pytest.approx(expected, rel=1e-13)


def test_bregman_properties(rng):
    pr = make_problem(3, 2, p=2.0, kind="mstrig", nf_kind="power")
    m = pr.mesh
    st = random_state(pr, rng, scale=1.0)
    assert bregman(st, st, pr.kappa, pr.nf, pr.load) == pytest.approx(0.0, abs=1e-14)
    # p=2: equals 1/2 |u - v|_K^2
    sv = random_state(pr, rng, scale=1.0)
    k = fem.weighted_stiffness(m, pr.kappa.values)
    d = (st.u - sv.u)[m.free_nodes]
    assert bregman(st, sv, pr.kappa, pr.nf, pr.load) == pytest.approx(
        0.5 * d @ (k @ d), rel=1e-10
    )


def test_bregman_nonnegative_and_quasinorm_equivalent(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    ratios = []
    for _ in range(100):
        su = random_state(pr, rng, scale=0.5)
        sv = random_state(pr, rng, scale=0.5)
        bd = bregman(su, sv, pr.kappa, pr.nf, pr.load)
        assert bd >= -1e-14
        qn = quasi_norm(sv, su.u - sv.u, pr.kappa, pr.nf)
        if qn > 0:
            ratios.append(bd / qn)
    ratios = np.array(ratios)
    print(f"bregman/quasi-norm ratio range: [{ratios.min():.4f}, {ratios.max():.4f}]")
    assert ratios.min() > 0
    assert ratios.max() / ratios.min() < 100.0


def test_residual_l2h_norm(rng):
    pr = make_problem(3, 2, p=2.0)
    m = pr.mesh
    n_free = m.free_nodes.size
    assert pr.residual_l2h(np.zeros(n_free)) == 0.0
    r = rng.standard_normal(n_free)
    eye_solve = sparsela.factorized_spd(sp.eye(n_free, format="csr"))
    assert fem.residual_l2h_norm(r, eye_solve) == pytest.approx(
        np.linalg.norm(r), rel=1e-9
    )


def test_residual_l2h_matches_dual_norm_oracle(rng):
    pr = make_problem(2, 2, p=2.0)
    m = pr.mesh
    n_free = m.free_nodes.size
    r = rng.standard_normal(n_free)
    norm = pr.residual_l2h(r)
    # dense-route oracle for the value itself
    dense = np.sqrt(r @ np.linalg.solve(pr.mass_free.toarray(), r))
    assert norm == pytest.approx(dense, rel=1e-10)
    # every test direction stays below the dual norm
    mass = pr.mass_free
    vs = rng.standard_normal((10 ** 4, n_free))
    vals = np.abs(vs @ r) / np.sqrt(np.einsum("ij,ij->i", vs @ mass.toarray(), vs))
    assert vals.max() <= norm * (1 + 1e-9)


def test_residual_l2h_dual_norm_attained_single_dof(rng):
    # one interior node: any direction attains the dual norm exactly
    pr = make_problem(1, 1, p=2.0)
    assert pr.mesh.free_nodes.size == 1
    r = np.array([0.37])
    norm = pr.residual_l2h(r)
    best = 0.0
    for _ in range(100):
        v = rng.standard_normal(1)
        best = max(best, abs(r @ v) / np.sqrt(v @ (pr.mass_free @ v)))
    assert best == pytest.approx(norm, rel=0.02)


def test_error_norms(rng):
    pr = make_problem(3, 1, p=3.0)
    st = random_state(pr, rng)
    assert fem.error_norms(st, st, 3.0) == (0.0, 0.0)
    sv = random_state(pr, rng)
    h1, w1p = fem.error_norms(st, sv, 2.0)
    assert h1 == pytest.approx(w1p, rel=1e-12)


def test_error_norms_single_hat_closed_form():
    m = refine(build_coarse_mesh(2, 2), 1)
    # single interior hat: per-element constant gradients sum in closed form
    node = m.free_nodes[0]
    u = np.zeros(m.n_vertices)
    u[node] = 1.0
    st = FemState(m, u)
    z = FemState(m)
    _, gx, gy, _ = m.geometry
    touching = np.nonzero((m.triangles == node).any(axis=1))[0]
    acc2 = acc4 = 0.0
    for t in touching:
        i = list(m.triangles[t]).index(node)
        g2 = gx[t, i] ** 2 + gy[t, i] ** 2
        acc2 += m.areas[t] * g2
        acc4 += m.areas[t] * g2 ** 2
    h1, w1p = fem.error_norms(st, z, 4.0)
    assert h1 == pytest.approx(np.sqrt(acc2), rel=1e-13)
    assert w1p == pytest.approx(acc4 ** 0.25, rel=1e-13)


def test_operator_spd_under_reg_defaults(rng):
    for p in (2.0, 5.0, 10.0):
        pr = make_problem(3, 1, p=p, kind="mstrig")
        st = random_state(pr, rng, scale=0.3)
        for mode in ("pgd", "newton"):
            a = pr.operator(st, mode).toarray()
            eigs = np.linalg.eigvalsh(a)
            assert eigs.min() > 0


def _first_mesh_uses(mesh):
    w = np.linspace(1.0, 2.0, mesh.n_triangles)
    u = np.sin(3.0 * mesh.vertices[:, 0]) * mesh.vertices[:, 1]
    k = fem.weighted_stiffness(mesh, w)
    grads = FemState(mesh, u).grads()
    patch = build_patch(mesh, 0, 2)
    return [k.data, k.indices, k.indptr, grads, patch.elements, patch.interior_fine_nodes]


def test_threads_sharing_a_fresh_mesh_match_a_serial_run():
    # the threads make the mesh's first accesses at once; from Python 3.12 a
    # cached property may then be computed twice, so only the values are checked
    expected = _first_mesh_uses(make_mesh(4, 2))
    mesh = make_mesh(4, 2)
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def run(k):
        barrier.wait()
        results[k] = _first_mesh_uses(mesh)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in results:
        assert got is not None
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
