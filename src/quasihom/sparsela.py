"""Sparse SPD and constrained saddle-point solves.

SPD systems go through a direct sparse factorization (``factorized_spd``)
that returns a solve closure for repeated right-hand sides. A saddle system
(equality-constrained quadratic minimization) is factored once as a
``KKTFactor``; each constraint right-hand side, such as one coarse basis of
a patch, is one ``solve_saddle`` call against it, which checks the normwise
backward error of both blocks. A factor may hold a ``Condensation``: a
reduced KKT matrix from which groups of unknowns were eliminated ahead,
with what it takes to recover them; the check still runs on the full
system.

Every matrix factored here is symmetric, so both factorizations use one
symmetric setting of SuperLU (``SYMMETRIC_LU``): a minimum-degree ordering
of A' + A applied to rows and columns alike, and diagonal pivots. That keeps
the sparsity of the SPD and KKT structure and cuts the fill. SuperLU still
pivots off the diagonal where a diagonal entry is exactly zero, as in the
constraint block of a KKT matrix. Without threshold pivoting a badly scaled
KKT system could lose accuracy unnoticed; the backward-error check on both
blocks of ``solve_saddle`` is the guard that turns that into a
``ConvergenceError``. It measures each block's residual against the size of
its terms, so large operator entries (high contrast) alone fail no system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import structural_rank


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
class Condensation:
    """Unknowns of x eliminated from a KKT matrix before it is factored.

    ``kkt`` is the reduced KKT matrix over the kept unknowns x[kept], then
    the multipliers. The eliminated unknowns come in groups: with
    s = [x[kept], lam, 0], group k is x[interior[k]] = -coupling[k] @
    s[gather[k]], where an index -1 in ``gather`` reads the trailing 0.
    """

    kkt: sp.csc_matrix
    kept: np.ndarray          # (n_kept,)
    interior: np.ndarray      # (groups, n_i)
    gather: np.ndarray        # (groups, c)
    coupling: np.ndarray      # (groups, n_i, c)


class KKTFactor:
    """The factored KKT matrix [[A, B'], [B, 0]] of A and B, kept as CSR
    blocks A, B and B' with the Frobenius norms of A and B for the
    backward-error check. With a ``Condensation`` only its reduced matrix is
    factored; without one, nothing is eliminated and the full KKT matrix is.
    A structurally singular factored matrix, which can crash SuperLU, raises
    RankDeficiencyError before the factorization."""

    def __init__(self, a, b, condensation: Condensation | None = None):
        self.a, self.b = sp.csr_matrix(a), sp.csr_matrix(b)
        m, n = self.b.shape
        self.bt = self.b.T.tocsr()
        if condensation is None:
            condensation = Condensation(
                kkt=sp.bmat([[self.a, self.bt], [self.b, None]], format="csc"),
                kept=np.arange(n), interior=np.empty((0, 0), dtype=int),
                gather=np.empty((0, 0), dtype=int), coupling=np.empty((0, 0, 0)))
        self.condensation = condensation
        kkt = condensation.kkt
        rank = structural_rank(kkt)
        if rank < kkt.shape[0]:
            raise RankDeficiencyError(
                f"singular KKT system: structural rank {rank} < {kkt.shape[0]}")
        try:
            self.lu = spla.splu(kkt, **SYMMETRIC_LU)
        except RuntimeError as exc:
            raise RankDeficiencyError(f"singular KKT system: {exc}") from exc
        # Frobenius norms from the stored entries (spla.norm costs 100x more)
        self.norm_a, self.norm_b = np.linalg.norm(self.a.data), np.linalg.norm(self.b.data)


def solve_saddle(factor: KKTFactor, g):
    """Minimize 1/2 x'Ax subject to Bx = g for the A and B of the factored
    KKT matrix ``factor``; returns (x, multipliers).

    The KKT matrix is factored without threshold pivoting, so the normwise
    backward error of both blocks is checked: ConvergenceError when
    |Ax + B'lam| / (|A|_F |x| + |B|_F |lam|) or |Bx - g| / (|B|_F |x| + |g|)
    exceeds 1e-8.
    """
    a, b, bt = factor.a, factor.b, factor.bt
    g = np.asarray(g, dtype=float)
    m, n = b.shape
    if g.size != m:
        raise ValueError(f"constraint right-hand side has {g.size} entries "
                         f"for {m} constraints")
    c = factor.condensation
    n_kept = c.kept.size
    sol = factor.lu.solve(np.concatenate([np.zeros(n_kept), g]))
    x = np.empty(n)
    x[c.kept] = sol[:n_kept]
    x[c.interior] = -np.einsum("kij,kj->ki", c.coupling, np.append(sol, 0.0)[c.gather])
    lam = sol[n_kept:]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam))):
        raise RankDeficiencyError("KKT solve produced non-finite values")

    # a zero scale comes with a zero residual
    norm, tiny = np.linalg.norm, np.finfo(float).tiny
    err = max(
        norm(a @ x + bt @ lam)
        / max(factor.norm_a * norm(x) + factor.norm_b * norm(lam), tiny),
        norm(b @ x - g) / max(factor.norm_b * norm(x) + norm(g), tiny),
    )
    if err > 1e-8:
        raise ConvergenceError("KKT backward error too large", err)
    return x, lam
