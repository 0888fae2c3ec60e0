"""Iterated numerical homogenization for heterogeneous p-Laplacian problems."""

from . import coeff, fem, grps, mesh, nfunc, solvers, sparsela  # noqa: F401

__version__ = "0.1.0"
