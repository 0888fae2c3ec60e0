import numpy as np
import pytest
import scipy.sparse as sp

from quasihom import coeff, fem, grps, nfunc
from quasihom.grps import (
    CoarseSpace,
    build_measurements,
    compute_basis,
    coarse_solve,
    interpolate,
    refresh_basis,
    update_indicators,
)
from quasihom.mesh import build_coarse_mesh, build_patch, refine

from conftest import make_problem, random_state
from oracles import update_indicator


def _p2_operator(pr):
    return pr.operator(pr.state(), "pgd")


def test_measurement_row_sums():
    pr = make_problem(1, 1, p=2.0)
    m = pr.mesh
    meas = build_measurements(m)
    assert meas.matrix.shape == (2, m.free_nodes.size)
    # row sums equal |T_i| minus hat mass at boundary nodes
    full_rows = np.zeros(2)
    for t in range(m.n_triangles):
        full_rows[m.parent[t]] += m.areas[t]
    lost = np.zeros(2)
    for t, tri in enumerate(m.triangles):
        for v in tri:
            if m.boundary_mask[v]:
                lost[m.parent[t]] += m.areas[t] / 3.0
    assert np.allclose(np.asarray(meas.matrix.sum(axis=1)).ravel(),
                       full_rows - lost, rtol=1e-13)


def test_measurement_interior_node_support():
    pr = make_problem(2, 2, p=2.0)
    m = pr.mesh
    meas = build_measurements(m)
    # a fine node strictly inside a coarse triangle hits only that row
    for col, g in enumerate(m.free_nodes):
        rows = meas.matrix[:, col].nonzero()[0]
        touching = np.unique(m.parent[np.nonzero((m.triangles == g).any(axis=1))[0]])
        assert np.array_equal(np.sort(rows), np.sort(touching))


def test_measurement_partition_bound():
    pr = make_problem(2, 1, p=2.0)
    m = pr.mesh
    meas = build_measurements(m)
    coarse = build_coarse_mesh(2, 2)
    sums = np.asarray(meas.matrix.sum(axis=1)).ravel()
    assert np.all(sums <= coarse.areas + 1e-14)


def test_global_basis_biorthogonal():
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(op, meas, pr.mesh, layers=None)
    gram = (meas.matrix @ space.basis.T).toarray()
    assert np.allclose(gram, np.eye(meas.n_coarse), atol=1e-8)


def test_global_basis_matches_dense_kkt():
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(op, meas, pr.mesh, layers=None)
    a = op.toarray()
    b = meas.matrix.toarray()
    n, m = a.shape[0], b.shape[0]
    kkt = np.block([[a, b.T], [b, np.zeros((m, m))]])
    for i in range(m):
        rhs = np.zeros(n + m)
        rhs[n + i] = 1.0
        dense = np.linalg.solve(kkt, rhs)[:n]
        assert np.allclose(space.basis[i].toarray().ravel(), dense, atol=1e-9)


def test_localized_support():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    m = pr.mesh
    meas = build_measurements(m)
    space = compute_basis(op, meas, m, layers=1)
    for i in range(meas.n_coarse):
        patch = build_patch(m, i, 1)
        allowed = set(m.free_pos[patch.interior_fine_nodes].tolist())
        support = set(space.basis[i].nonzero()[1].tolist())
        assert support <= allowed


def test_localized_biorthogonal_in_patch():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    m = pr.mesh
    meas = build_measurements(m)
    space = compute_basis(op, meas, m, layers=2)
    for i in (0, 13, 25):
        patch = build_patch(m, i, 2)
        prods = meas.matrix @ space.basis[i].T
        for j in patch.elements:
            want = 1.0 if j == i else 0.0
            assert prods[j, 0] == pytest.approx(want, abs=1e-8)


def test_interpolate_reproduces_basis():
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(op, meas, pr.mesh, layers=None)
    for k in (0, 3, 7):
        phi = space.basis[k].toarray().ravel()
        w_i = interpolate(phi, space, meas)
        assert np.allclose(w_i, phi, atol=1e-8)


def test_interpolate_zero_measurements():
    pr = make_problem(2, 2, p=2.0)
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(op, meas, pr.mesh, layers=None)
    z = np.zeros(pr.mesh.free_nodes.size)
    assert np.array_equal(interpolate(z, space, meas), z)


def test_optimal_recovery_identity(rng):
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    a = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(a, meas, pr.mesh, layers=None)
    for _ in range(10):
        w = rng.standard_normal(pr.mesh.free_nodes.size)
        w_i = interpolate(w, space, meas)
        total = w @ (a @ w)
        split = w_i @ (a @ w_i) + (w - w_i) @ (a @ (w - w_i))
        assert split == pytest.approx(total, rel=1e-8)


def test_coarse_solve_zero_rhs():
    pr = make_problem(2, 2, p=2.0)
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(op, meas, pr.mesh, layers=None)
    out = coarse_solve(op, np.zeros(pr.mesh.free_nodes.size), space)
    assert np.allclose(out, 0.0, atol=1e-14)


def test_coarse_solve_identity_basis_reproduces_fine(rng):
    # degenerate limit: one basis per free node = identity matrix
    pr = make_problem(2, 1, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    n = pr.mesh.free_nodes.size
    space = CoarseSpace(
        basis=sp.eye(n, format="csr"), layers=None,
        patches=[None] * n,
    )
    rhs = rng.standard_normal(n)
    out = coarse_solve(op, rhs, space)
    fine = np.linalg.solve(op.toarray(), rhs)
    assert np.allclose(out, fine, atol=1e-9)


def test_coarse_stiffness_spd():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(op, meas, pr.mesh, layers=2)
    a_c = (space.basis @ op @ space.basis.T).toarray()
    assert np.allclose(a_c, a_c.T, atol=1e-12)
    assert np.linalg.eigvalsh(a_c).min() > 0


def test_coarse_h1_convergence_rate():
    # linear problem: Galerkin coarse solutions converge at least O(H) in H1
    from quasihom import sparsela, solvers
    errs = []
    for nc, j in ((2, 4), (4, 3), (8, 2)):
        m = refine(build_coarse_mesh(nc, nc), j)
        kap = coeff.sample_on_mesh(coeff.constant_field(1.0), m)
        nf = nfunc.NFunction("power", 2.0)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        pr = solvers.Problem(m, kap, nf, np.sin(np.pi * x) * np.sin(np.pi * y))
        b = pr.load[m.free_nodes]
        k = fem.weighted_stiffness(m, kap.values)
        u_fine = sparsela.factorized_spd(k)(b)
        op = pr.operator(pr.state(), "pgd")
        meas = build_measurements(m)
        space = compute_basis(op, meas, m, layers=grps.default_layers(m))
        u_h = coarse_solve(op, b, space)
        h1, _ = fem.error_norms(pr.state(pr.expand(u_h)), pr.state(pr.expand(u_fine)), 2.0)
        errs.append(h1)
    slope = np.polyfit(np.log([1 / 2, 1 / 4, 1 / 8]), np.log(errs), 1)[0]
    assert slope >= 0.8


def test_update_indicator_values(rng):
    pr = make_problem(3, 1, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    n = pr.mesh.free_nodes.size
    phi = rng.standard_normal(n)
    # p=2: indicator equals int kappa |grad phi|^2 independent of increment
    incr1 = random_state(pr, rng)
    incr2 = random_state(pr, rng)
    i1 = update_indicator(pr.operator(incr1, "pgd"), phi)
    i2 = update_indicator(pr.operator(incr2, "pgd"), phi)
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values)
    assert i1 == pytest.approx(phi @ (k @ phi), rel=1e-12)
    assert i1 == pytest.approx(i2, rel=1e-12)
    assert update_indicator(op, np.zeros(n)) == 0.0


def test_update_indicator_zero_increment_secant_floor(rng):
    p = 10.0
    pr = make_problem(3, 1, p=p, kind="mstrig")
    n = pr.mesh.free_nodes.size
    phi = rng.standard_normal(n)
    op0 = pr.operator(pr.state(), "pgd")  # zero increment
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values)
    floor = pr.nf.eps_minus ** (p - 2.0)
    assert update_indicator(op0, phi) == pytest.approx(
        floor * (phi @ (k @ phi)), rel=1e-10
    )


def test_update_indicators_vectorized(rng):
    pr = make_problem(3, 2, p=5.0, kind="mstrig")
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space = compute_basis(op, meas, pr.mesh, layers=1)
    incr = random_state(pr, rng)
    op_i = pr.operator(incr, "pgd")
    vec = update_indicators(op_i, space)
    for i in range(space.n_basis):
        assert vec[i] == pytest.approx(
            update_indicator(op_i, space.basis[i].toarray().ravel()), rel=1e-12
        )


def test_patch_order_independence():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    fwd = compute_basis(op, meas, pr.mesh, layers=2)
    n = meas.n_coarse
    bwd = compute_basis(op, meas, pr.mesh, layers=2, indices=list(reversed(range(n))))
    assert np.array_equal(fwd.basis.toarray(), bwd.basis.toarray())


def test_refresh_keeps_unselected(rng):
    pr = make_problem(3, 2, p=5.0, kind="mstrig")
    meas = build_measurements(pr.mesh)
    op0 = pr.operator(pr.state(), "pgd")
    space0 = compute_basis(op0, meas, pr.mesh, layers=2)
    op1 = pr.operator(random_state(pr, rng), "pgd")
    space1 = refresh_basis(space0, op1, meas, pr.mesh, indices=[0, 1])
    assert np.array_equal(space1.basis[5].toarray(), space0.basis[5].toarray())
    assert not np.array_equal(space1.basis[0].toarray(), space0.basis[0].toarray())


def test_refresh_reuses_held_patches(monkeypatch):
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    space0 = compute_basis(op, meas, pr.mesh, layers=1)
    assert all(p is not None for p in space0.patches)
    calls = []
    monkeypatch.setattr(grps, "build_patch",
                        lambda *a: calls.append(a) or build_patch(*a))
    space1 = refresh_basis(space0, op, meas, pr.mesh, indices=range(meas.n_coarse))
    assert calls == []
    assert np.array_equal(space1.basis.toarray(), space0.basis.toarray())


def test_degenerate_single_refinement_raises():
    # one refinement level leaves too few interior nodes per constraint
    from quasihom.sparsela import RankDeficiencyError
    pr = make_problem(2, 1, p=2.0)
    op = _p2_operator(pr)
    meas = build_measurements(pr.mesh)
    with pytest.raises(RankDeficiencyError):
        compute_basis(op, meas, pr.mesh, layers=None)
