import numpy as np
import pytest
import scipy.sparse as sp

from quasihom.sparsela import (
    ConvergenceError,
    RankDeficiencyError,
    SaddleSystem,
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
    sys = SaddleSystem(
        a=sp.eye(2, format="csr"),
        b=sp.csr_matrix(np.array([[1.0, 0.0]])),
        rhs_primal=np.zeros(2),
        rhs_constraint=np.array([1.0]),
    )
    x, lam = solve_saddle(sys)
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert np.allclose(lam, [-1.0], atol=1e-12)


def test_saddle_empty_constraints():
    a = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 4.0]]))
    sys = SaddleSystem(a, sp.csr_matrix((0, 2)), np.array([2.0, 4.0]), np.zeros(0))
    x, lam = solve_saddle(sys)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-10)
    assert lam.size == 0


def test_saddle_against_dense_kkt(rng):
    n, m = 12, 3
    q = rng.standard_normal((n, n))
    a = q.T @ q + np.eye(n)
    b = rng.standard_normal((m, n))
    f = rng.standard_normal(n)
    g = rng.standard_normal(m)
    kkt = np.block([[a, b.T], [b, np.zeros((m, m))]])
    dense = np.linalg.solve(kkt, np.concatenate([f, g]))
    x, lam = solve_saddle(SaddleSystem(sp.csr_matrix(a), sp.csr_matrix(b), f, g))
    assert np.allclose(x, dense[:n], atol=1e-9)
    assert np.allclose(lam, dense[n:], atol=1e-9)


def test_saddle_residual_blocks(rng):
    n, m = 20, 4
    q = rng.standard_normal((n, n))
    a = sp.csr_matrix(q.T @ q + np.eye(n))
    b = sp.csr_matrix(rng.standard_normal((m, n)))
    f = rng.standard_normal(n)
    g = rng.standard_normal(m)
    x, lam = solve_saddle(SaddleSystem(a, b, f, g), tol=1e-10)
    scale = 1.0 + np.linalg.norm(np.concatenate([f, g]))
    assert np.linalg.norm(a @ x + b.T @ lam - f) <= 1e-8 * scale
    assert np.linalg.norm(b @ x - g) <= 1e-8 * scale


def test_constrained_minimality(rng):
    n, m = 15, 3
    q = rng.standard_normal((n, n))
    a = sp.csr_matrix(q.T @ q + np.eye(n))
    bmat = rng.standard_normal((m, n))
    b = sp.csr_matrix(bmat)
    f = rng.standard_normal(n)
    g = rng.standard_normal(m)
    x, _ = solve_saddle(SaddleSystem(a, b, f, g))

    def objective(v):
        return 0.5 * v @ (a @ v) - f @ v

    null = np.linalg.svd(bmat)[2][m:]  # basis of ker(B)
    for _ in range(20):
        z = null.T @ rng.standard_normal(n - m)
        assert objective(x + 0.1 * z) >= objective(x) - 1e-8


def test_rank_deficient_constraints():
    a = sp.eye(3, format="csr")
    b = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    sys = SaddleSystem(a, b, np.zeros(3), np.array([1.0, 2.0]))
    with pytest.raises((RankDeficiencyError, ConvergenceError)):
        solve_saddle(sys)


def test_more_constraints_than_unknowns():
    a = sp.eye(2, format="csr")
    b = sp.csr_matrix(np.eye(3)[:, :2])
    with pytest.raises(RankDeficiencyError):
        solve_saddle(SaddleSystem(a, b, np.zeros(2), np.zeros(3)))
