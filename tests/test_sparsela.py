from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from quasihom import coeff, fem, grps
from quasihom.mesh import build_coarse_mesh, build_patch, refine
from quasihom.sparsela import (
    ConvergenceError,
    KKTFactor,
    RankDeficiencyError,
    factorized_spd,
    solve_saddle,
)


def test_identity():
    b = np.array([3.0, -1.0, 2.0])
    x = factorized_spd(sp.eye(3, format="csr"))(b)
    assert np.allclose(x, b, rtol=1e-12)


def test_hand_2x2():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = factorized_spd(a)(np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], rtol=1e-10)


def test_random_spd_residual(rng):
    m = rng.standard_normal((50, 50))
    a = sp.csr_matrix(m.T @ m + np.eye(50))
    b = rng.standard_normal(50)
    x = factorized_spd(a)(b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_zero_rhs():
    a = sp.eye(4, format="csr")
    assert np.array_equal(factorized_spd(a)(np.zeros(4)), np.zeros(4))


def test_factorized_matches_pcg(rng):
    m = rng.standard_normal((30, 30))
    a = sp.csr_matrix(m.T @ m + 5 * np.eye(30))
    b = rng.standard_normal(30)
    assert np.allclose(factorized_spd(a)(b), np.linalg.solve(a.toarray(), b), atol=1e-9)


def test_saddle_projection():
    factor = KKTFactor(sp.eye(2, format="csr"), sp.csr_matrix(np.array([[1.0, 0.0]])))
    x, lam = solve_saddle(factor, np.array([1.0]))
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert np.allclose(lam, [-1.0], atol=1e-12)


def test_saddle_against_dense_kkt(rng):
    n, m = 12, 3
    q = rng.standard_normal((n, n))
    a = q.T @ q + np.eye(n)
    b = rng.standard_normal((m, n))
    g = rng.standard_normal(m)
    kkt = np.block([[a, b.T], [b, np.zeros((m, m))]])
    dense = np.linalg.solve(kkt, np.concatenate([np.zeros(n), g]))
    x, lam = solve_saddle(KKTFactor(a, b), g)
    assert np.allclose(x, dense[:n], atol=1e-9)
    assert np.allclose(lam, dense[n:], atol=1e-9)


def test_saddle_residual_blocks(rng):
    n, m = 20, 4
    q = rng.standard_normal((n, n))
    a = sp.csr_matrix(q.T @ q + np.eye(n))
    b = sp.csr_matrix(rng.standard_normal((m, n)))
    g = rng.standard_normal(m)
    x, lam = solve_saddle(KKTFactor(a, b), g)
    scale = 1.0 + np.linalg.norm(g)
    assert np.linalg.norm(a @ x + b.T @ lam) <= 1e-8 * scale
    assert np.linalg.norm(b @ x - g) <= 1e-8 * scale


def test_saddle_rejects_bad_right_hand_side_and_non_finite_solution():
    factor = KKTFactor(sp.eye(3, format="csr"), sp.csr_matrix(np.eye(2, 3)))
    with pytest.raises(ValueError, match="3 entries for 2 constraints"):
        solve_saddle(factor, np.ones(3))
    factor.lu = SimpleNamespace(solve=lambda rhs: np.full(rhs.size, np.nan))
    with pytest.raises(RankDeficiencyError, match="non-finite"):
        solve_saddle(factor, np.ones(2))


def test_constrained_minimality(rng):
    n, m = 15, 3
    q = rng.standard_normal((n, n))
    a = sp.csr_matrix(q.T @ q + np.eye(n))
    bmat = rng.standard_normal((m, n))
    b = sp.csr_matrix(bmat)
    g = rng.standard_normal(m)
    x, _ = solve_saddle(KKTFactor(a, b), g)

    def objective(v):
        return 0.5 * v @ (a @ v)

    null = np.linalg.svd(bmat)[2][m:]  # basis of ker(B)
    for _ in range(20):
        z = null.T @ rng.standard_normal(n - m)
        assert objective(x + 0.1 * z) >= objective(x) - 1e-8


def test_rank_deficient_constraints():
    a = sp.eye(3, format="csr")
    b = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises((RankDeficiencyError, ConvergenceError)):
        solve_saddle(KKTFactor(a, b), np.array([1.0, 2.0]))


def test_kkt_without_stored_diagonal_entry_factors_when_structurally_nonsingular():
    # A = diag(1, 1, 1) with (0, 0) not stored: the structural guard checks
    # the KKT matrix itself, which the constraint on x0 makes nonsingular
    a = sp.csr_matrix((np.ones(2), ([1, 2], [1, 2])), shape=(3, 3))
    b = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
    x, lam = solve_saddle(KKTFactor(a, b), np.array([2.0]))
    assert np.array_equal(x, [2.0, 0.0, 0.0])
    assert np.array_equal(lam, [0.0])


def test_more_constraints_than_unknowns():
    a = sp.eye(2, format="csr")
    b = sp.csr_matrix(np.eye(3)[:, :2])
    with pytest.raises(RankDeficiencyError):
        KKTFactor(a, b)


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_factorized_free_node_mass_matches_dense(rng):
    mesh = refine(build_coarse_mesh(4, 3, 2.0, 1.5), 2)
    free = mesh.free_nodes
    mass = fem.assemble_mass(mesh)[free][:, free]
    b = rng.standard_normal(free.size)
    x = factorized_spd(mass)(b)
    assert _rel(x, np.linalg.solve(mass.toarray(), b)) <= 1e-12


def test_factorized_sparse_random_spd_matches_dense(rng):
    n = 200
    q = sp.random(n, n, density=0.02, random_state=np.random.default_rng(3))
    a = (q @ q.T + sp.diags(rng.uniform(1.0, 2.0, n))).tocsr()
    b = rng.standard_normal(n)
    assert _rel(factorized_spd(a)(b), np.linalg.solve(a.toarray(), b)) <= 1e-12


@pytest.mark.parametrize("n", [2, 10, 50])
def test_factorized_singular_neumann_laplacian_raises(n):
    # 1-d Neumann Laplacian: constants span its kernel, and its integer
    # entries make the last pivot exactly zero
    ones = np.ones(n - 1)
    lap = sp.diags([-ones, np.r_[1.0, 2.0 * ones[1:], 1.0], -ones], [-1, 0, 1])
    with pytest.raises(RankDeficiencyError):
        factorized_spd(lap)


def _patch_kkt(mesh, op, meas, i):
    """KKT blocks of the 1-layer localized basis of coarse element i, as in
    grps._solve_patch: operator and constraint rows sliced to the patch."""
    patch = build_patch(mesh, i, 1)
    pos = mesh.free_pos[patch.interior_fine_nodes]
    g = np.zeros(patch.elements.size)
    g[np.searchsorted(patch.elements, i)] = 1.0
    return op[pos][:, pos].tocsr(), meas[patch.elements][:, pos].tocsr(), g


def _assert_matches_dense(a, b, g):
    x, lam = solve_saddle(KKTFactor(a, b), g)
    m, n = b.shape
    kkt = np.block([[a.toarray(), b.T.toarray()], [b.toarray(), np.zeros((m, m))]])
    dense = np.linalg.solve(kkt, np.r_[np.zeros(n), g])
    assert _rel(x, dense[:n]) <= 1e-10
    assert _rel(lam, dense[n:]) <= 1e-10


def test_saddle_high_contrast_patch_matches_dense():
    # a localized basis problem: contrast-1e6 channel stiffness on a patch,
    # constraint rows of entries about h^2
    mesh = refine(build_coarse_mesh(8, 8), 3)
    field = coeff.synth_channels(64, 64, 3, 1e6, seed=1)
    kappa = coeff.sample_on_mesh(field, mesh).values
    op = fem.weighted_stiffness(mesh, kappa)
    meas = grps.build_measurements(mesh)
    checked = 0
    for i in range(0, mesh.n_coarse_triangles, 9):
        patch_kappa = kappa[np.isin(mesh.parent, build_patch(mesh, i, 1).elements)]
        if patch_kappa.max() / patch_kappa.min() < 1e6:
            continue
        _assert_matches_dense(*_patch_kkt(mesh, op, meas, i))
        checked += 1
    assert checked >= 3


def _random_contrast(nc, level):
    """Stiffness whose element weights are 1, or 1e6 with probability 0.3."""
    mesh = refine(build_coarse_mesh(nc, nc), level)
    rng = np.random.default_rng(1)
    weights = np.where(rng.random(mesh.n_triangles) < 0.3, 1e6, 1.0)
    return mesh, fem.weighted_stiffness(mesh, weights), grps.build_measurements(mesh)


@pytest.mark.parametrize("nc, level", [(4, 3), (8, 2)])
def test_saddle_random_contrast_patches_pass_backward_error_check(nc, level):
    # |A| |x| is about 1e6 times |rhs| here: a residual check scaled by the
    # right-hand side alone rejected several of these well-solved systems
    mesh, op, meas = _random_contrast(nc, level)
    for i in range(15):
        _assert_matches_dense(*_patch_kkt(mesh, op, meas, i))


def test_saddle_inaccurate_solve_raises(perturb_splu):
    mesh, op, meas = _random_contrast(4, 3)
    a, b, g = _patch_kkt(mesh, op, meas, 0)
    solve_saddle(KKTFactor(a, b), g)
    perturb_splu()
    shared = KKTFactor(a, b)
    for g in np.eye(b.shape[0])[:3]:
        with pytest.raises(ConvergenceError):
            solve_saddle(shared, g)


def test_kkt_factor_stores_the_transposed_constraints():
    # the backward-error check multiplies by a stored CSR B', and a factor
    # shared by several right-hand sides gives what a fresh one gives each
    mesh, op, meas = _random_contrast(4, 2)
    a, b, _ = _patch_kkt(mesh, op, meas, 3)
    factor = KKTFactor(a, b)
    assert factor.bt.format == "csr"
    assert np.array_equal(factor.bt.toarray(), b.T.toarray())
    for g in np.eye(b.shape[0])[:3]:
        x, lam = solve_saddle(KKTFactor(a, b), g)
        x_s, lam_s = solve_saddle(factor, g)
        assert np.array_equal(x, x_s) and np.array_equal(lam, lam_s)
