"""Sparse SPD and constrained saddle-point solves.

SPD systems go through a direct sparse factorization (``factorized_spd``)
that returns a solve closure for repeated right-hand sides. Saddle systems
(equality-constrained quadratic minimization) are solved by a direct
factorization of the KKT matrix; the residual of both blocks is checked
after the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
    right-hand sides with one matrix."""
    a = sp.csc_matrix(a)
    try:
        lu = spla.splu(a)
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

    Raises ConvergenceError when either block's residual exceeds
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
        lu = spla.splu(kkt)
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
