"""Sparse SPD and constrained saddle-point solves.

SPD systems go through a direct sparse factorization (``factorized_spd``)
that returns a solve closure for repeated right-hand sides. Saddle systems
(equality-constrained quadratic minimization) are solved by a direct
factorization of the KKT matrix; the residual of both blocks is checked
after the solve.

Every matrix factored here is symmetric, so both factorizations use one
symmetric setting of SuperLU (``SYMMETRIC_LU``): a minimum-degree ordering
of A' + A applied to rows and columns alike, and diagonal pivots. That keeps
the sparsity of the SPD and KKT structure and cuts the fill. SuperLU still
pivots off the diagonal where a diagonal entry is exactly zero, as in the
constraint block of a KKT matrix. Without threshold pivoting a badly scaled
KKT system could lose accuracy unnoticed; the residual check on both blocks
of ``solve_saddle`` is the guard that turns that into a ``ConvergenceError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# symmetric ordering with diagonal pivots, for every splu call of this module
SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})


class SolveError(Exception):
    pass


class ConvergenceError(SolveError):
    def __init__(self, message, achieved_residual):
        super().__init__(f"{message} (achieved relative residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


class RankDeficiencyError(SolveError):
    pass


def factorized_spd(a):
    """Direct sparse factorization returning a solve closure for repeated
    right-hand sides with one matrix (symmetric ordering, diagonal pivots)."""
    a = sp.csc_matrix(a)
    try:
        lu = spla.splu(a, **SYMMETRIC_LU)
    except RuntimeError as exc:
        raise RankDeficiencyError(str(exc)) from exc
    return lu.solve


@dataclass
class SaddleSystem:
    a: sp.spmatrix                 # n x n, SPD on ker(b)
    b: sp.spmatrix                 # m x n constraints
    rhs_primal: np.ndarray
    rhs_constraint: np.ndarray


def solve_saddle(system: SaddleSystem):
    """Minimize 1/2 x'Ax - f'x subject to Bx = g; returns (x, multipliers).

    The KKT matrix is factored without threshold pivoting, so the residual
    of both blocks is checked: ConvergenceError when either exceeds
    1e-8 * (1 + |rhs|).
    """
    a = sp.csr_matrix(system.a)
    b = sp.csr_matrix(system.b)
    f = np.asarray(system.rhs_primal, dtype=float)
    g = np.asarray(system.rhs_constraint, dtype=float)
    n = a.shape[0]
    m = b.shape[0]
    if b.shape[1] != n or f.size != n or g.size != m:
        raise ValueError("saddle system shape mismatch")
    if m == 0:
        return factorized_spd(a)(f), np.zeros(0)
    if m > n:
        raise RankDeficiencyError(f"more constraints ({m}) than unknowns ({n})")

    kkt = sp.bmat([[a, b.T], [b, None]], format="csc")
    rhs = np.concatenate([f, g])
    try:
        lu = spla.splu(kkt, **SYMMETRIC_LU)
    except RuntimeError as exc:
        raise RankDeficiencyError(f"singular KKT system: {exc}") from exc
    sol = lu.solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise RankDeficiencyError("KKT solve produced non-finite values")
    x = sol[:n]
    lam = sol[n:]

    scale = 1.0 + np.linalg.norm(rhs)
    res_primal = np.linalg.norm(a @ x + b.T @ lam - f)
    res_constraint = np.linalg.norm(b @ x - g)
    if max(res_primal, res_constraint) > 1e-8 * scale:
        raise ConvergenceError(
            "KKT residual too large", max(res_primal, res_constraint) / scale
        )
    return x, lam
