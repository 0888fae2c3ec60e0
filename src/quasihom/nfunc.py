"""Power-law N-functions and their regularized variants.

The power kind is phi(t) = t^p / p. The two regularized kinds replace the
power law outside [eps_minus, eps_plus] by quadratic extensions: ``reg_c1``
is globally C^1 (second derivative jumps at the breakpoints), ``reg_c2`` is
globally C^2 (the outer pieces are second-order Taylor extensions of the
power law at the breakpoints). With eps_plus = inf only the lower
regularization is active, which is the solver default for p >= 2.

The lower pieces are shifted so that phi equals t^p / p above eps_minus, which
leaves phi(0) = (1/p - 1/2) eps_minus^p for ``reg_c1`` and
-(p-2) / (p (p+2)) eps_minus^p for ``reg_c2``: negative for p > 2, where an
N-function has phi(0) = 0. The energy J therefore carries the constant offset
phi(0) * int kappa. It moves no direction or step in exact arithmetic, but it
is part of every reported energy and of the relative energy decrease that
the stopping test divides by, and the benchmark's recorded energies include
it, so it is not shifted away here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("power", "reg_c1", "reg_c2")


@dataclass(frozen=True)
class NFunction:
    kind: str = "power"
    p: float = 2.0
    eps_minus: float = 0.0
    eps_plus: float = math.inf

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown N-function kind {self.kind!r}")
        if self.p <= 1:
            raise ValueError("exponent p must be > 1")
        if self.kind != "power":
            if self.eps_minus <= 0:
                raise ValueError("regularized kinds need eps_minus > 0")
            if self.eps_plus <= self.eps_minus:
                raise ValueError("need eps_plus > eps_minus")

    @staticmethod
    def from_eps_pow(kind: str, p: float, eps_minus_pow: float,
                     eps_plus: float = math.inf) -> "NFunction":
        """Build from the floor value eps_minus^(p-2) instead of eps_minus."""
        if p == 2.0:
            em = eps_minus_pow  # exponent 0 makes the floor meaningless; keep em>0
        else:
            try:
                em = eps_minus_pow ** (1.0 / (p - 2.0))
            except OverflowError:
                em = math.inf
            if eps_minus_pow > 0 and not 0.0 < em < math.inf:
                raise ValueError(
                    f"eps_minus = eps_minus_pow ** (1 / (p - 2)) "
                    f"{'underflows to 0' if em == 0.0 else 'overflows'} "
                    f"for p = {p!r}, eps_minus_pow = {eps_minus_pow!r}"
                )
        return NFunction(kind=kind, p=p, eps_minus=em, eps_plus=eps_plus)


def _power_eval(t, p):
    phi = t ** p / p
    dphi = t ** (p - 1.0)
    if p == 2.0:
        ddphi = np.ones_like(t)
    else:
        ddphi = (p - 1.0) * np.where(t > 0, t, 1.0) ** (p - 2.0)
        ddphi = np.where(t > 0, ddphi, 0.0)
    return phi, dphi, ddphi


def eval(nf: NFunction, t):
    """Return (phi(t), phi'(t), phi''(t)); t is a scalar or array, t >= 0."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("N-functions are evaluated at t >= 0")
    p = nf.p
    if nf.kind == "power":
        out = _power_eval(t, p)
        if scalar:
            return tuple(float(v[0]) for v in out)
        return out

    em, ep = nf.eps_minus, nf.eps_plus
    phi, dphi, ddphi = _power_eval(np.clip(t, em, ep if math.isfinite(ep) else None), p)
    phi = np.array(phi, copy=True)
    dphi = np.array(dphi, copy=True)
    ddphi = np.array(ddphi, copy=True)

    # at a breakpoint the lower/left piece applies (matters only for phi'')
    lo = t <= em
    hi = math.isfinite(ep) and (t > ep)
    tl = t[lo]
    if nf.kind == "reg_c1":
        c = em ** (p - 2.0)
        phi[lo] = 0.5 * c * tl ** 2 + (1.0 / p - 0.5) * em ** p
        dphi[lo] = c * tl
        ddphi[lo] = c
        if np.any(hi):
            th = t[hi]
            cp = ep ** (p - 2.0)
            phi[hi] = 0.5 * cp * th ** 2 + (1.0 / p - 0.5) * ep ** p
            dphi[hi] = cp * th
            ddphi[hi] = cp
    else:  # reg_c2
        c = em ** (p - 2.0)
        phi[lo] = (
            c / p * tl ** 2
            + (p - 2.0) / (p * p + 2.0 * p) * em ** -2.0 * tl ** (p + 2.0)
            - (p - 2.0) / (p * (p + 2.0)) * em ** p
        )
        dphi[lo] = 2.0 * c / p * tl + (p - 2.0) / p * em ** -2.0 * tl ** (p + 1.0)
        ddphi[lo] = 2.0 * c / p + (p - 2.0) * (p + 1.0) / p * em ** -2.0 * tl ** p
        if np.any(hi):
            # second-order Taylor extension of t^p/p at eps_plus
            th = t[hi]
            cp = ep ** (p - 2.0)
            phi[hi] = (
                0.5 * (p - 1.0) * cp * th ** 2
                + (2.0 - p) * ep ** (p - 1.0) * th
                + (p * p - 3.0 * p + 2.0) / (2.0 * p) * ep ** p
            )
            dphi[hi] = (p - 1.0) * cp * th + (2.0 - p) * ep ** (p - 1.0)
            ddphi[hi] = (p - 1.0) * cp
    if scalar:
        return float(phi[0]), float(dphi[0]), float(ddphi[0])
    return phi, dphi, ddphi


def eval_secant(nf: NFunction, t):
    """phi'(t)/t with the removable singularity at t = 0 resolved."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    p = nf.p
    if nf.kind == "power":
        if p == 2.0:
            sec = np.ones_like(t)
        else:
            sec = np.where(t > 0, np.where(t > 0, t, 1.0) ** (p - 2.0), 0.0)
    else:
        safe = np.where(t > 0, t, 1.0)
        _, dphi, _ = eval(nf, t)
        if nf.kind == "reg_c1":
            lim = nf.eps_minus ** (p - 2.0)
        else:
            lim = 2.0 / p * nf.eps_minus ** (p - 2.0)
        sec = np.where(t > 0, dphi / safe, lim)
    return float(sec[0]) if scalar else sec
