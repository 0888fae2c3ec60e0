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

``phi``, ``dphi`` and ``ddphi`` evaluate one derivative each.
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
        if not 1 < self.p < math.inf:
            raise ValueError("exponent p must be > 1 and finite")
        if self.kind != "power":
            if not self.eps_minus > 0:
                raise ValueError("regularized kinds need eps_minus > 0")
            if not self.eps_plus > self.eps_minus:
                raise ValueError("need eps_plus > eps_minus")

    @staticmethod
    def from_eps_pow(kind: str, p: float, eps_minus_pow: float,
                     eps_plus: float = math.inf) -> "NFunction":
        """Build from the floor value eps_minus^(p-2) instead of eps_minus."""
        if p == 2.0:
            em = eps_minus_pow  # exponent 0 makes the floor meaningless; keep em>0
        else:
            if not eps_minus_pow > 0:
                raise ValueError(f"eps_minus_pow must be > 0 for p != 2, got {eps_minus_pow!r}")
            try:
                em = eps_minus_pow ** (1.0 / (p - 2.0))
            except OverflowError:
                em = math.inf
            if not 0.0 < em < math.inf:
                raise ValueError(
                    f"eps_minus = eps_minus_pow ** (1 / (p - 2)) "
                    f"{'underflows to 0' if em == 0.0 else 'overflows'} "
                    f"for p = {p!r}, eps_minus_pow = {eps_minus_pow!r}"
                )
        return NFunction(kind=kind, p=p, eps_minus=em, eps_plus=eps_plus)


def _as_array(t):
    """(t as a 1-d float array, whether t was a scalar); rejects t < 0."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("N-functions are evaluated at t >= 0")
    return t, scalar


def _power(t, p, order):
    """Derivative `order` (0, 1 or 2) of t^p / p."""
    if order < 2:
        return t ** p / p if order == 0 else t ** (p - 1.0)
    if p == 2.0:
        return np.ones_like(t)
    return np.where(t > 0, (p - 1.0) * np.where(t > 0, t, 1.0) ** (p - 2.0), 0.0)


def _outer(nf: NFunction, t, order, lower):
    """Derivative `order` of the piece below eps_minus (lower) or above eps_plus."""
    p = nf.p
    e = nf.eps_minus if lower else nf.eps_plus
    c = e ** (p - 2.0)
    if nf.kind == "reg_c1":
        if order == 0:
            return 0.5 * c * t ** 2 + (1.0 / p - 0.5) * e ** p
        return c * t if order == 1 else c
    if lower:
        if order == 0:
            return (c / p * t ** 2
                    + (p - 2.0) / (p * p + 2.0 * p) * e ** -2.0 * t ** (p + 2.0)
                    - (p - 2.0) / (p * (p + 2.0)) * e ** p)
        if order == 1:
            return 2.0 * c / p * t + (p - 2.0) / p * e ** -2.0 * t ** (p + 1.0)
        return 2.0 * c / p + (p - 2.0) * (p + 1.0) / p * e ** -2.0 * t ** p
    # reg_c2 above eps_plus: second-order Taylor extension of t^p/p there
    if order == 0:
        return (0.5 * (p - 1.0) * c * t ** 2 + (2.0 - p) * e ** (p - 1.0) * t
                + (p * p - 3.0 * p + 2.0) / (2.0 * p) * e ** p)
    if order == 1:
        return (p - 1.0) * c * t + (2.0 - p) * e ** (p - 1.0)
    return (p - 1.0) * c


def _derivative(nf: NFunction, t, order: int):
    """phi (order 0), phi' (1) or phi'' (2) at t >= 0, a scalar or an array."""
    t, scalar = _as_array(t)
    if nf.kind == "power":
        out = _power(t, nf.p, order)
    else:
        em, ep = nf.eps_minus, nf.eps_plus
        out = _power(np.clip(t, em, ep if math.isfinite(ep) else None), nf.p, order)
        # at a breakpoint the lower/left piece applies (matters only for phi'')
        lo = t <= em
        out[lo] = _outer(nf, t[lo], order, lower=True)
        hi = math.isfinite(ep) and (t > ep)
        if np.any(hi):
            out[hi] = _outer(nf, t[hi], order, lower=False)
    return float(out[0]) if scalar else out


def phi(nf: NFunction, t):
    return _derivative(nf, t, 0)


def dphi(nf: NFunction, t):
    return _derivative(nf, t, 1)


def ddphi(nf: NFunction, t):
    return _derivative(nf, t, 2)


def eval_secant(nf: NFunction, t):
    """phi'(t)/t with the removable singularity at t = 0 resolved."""
    t, scalar = _as_array(t)
    p = nf.p
    if nf.kind == "power":
        if p == 2.0:
            sec = np.ones_like(t)
        else:
            sec = np.where(t > 0, np.where(t > 0, t, 1.0) ** (p - 2.0), 0.0)
    else:
        safe = np.where(t > 0, t, 1.0)
        lim = (1.0 if nf.kind == "reg_c1" else 2.0 / p) * nf.eps_minus ** (p - 2.0)
        sec = np.where(t > 0, dphi(nf, t) / safe, lim)
    return float(sec[0]) if scalar else sec
