from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from quasihom import coeff, nfunc, solvers, sparsela
from quasihom.mesh import build_coarse_mesh, refine


def make_mesh(nc=4, j=2, lx=1.0, ly=1.0):
    return refine(build_coarse_mesh(nc, nc, lx, ly), j)


def make_problem(nc=4, j=2, p=2.0, kind="constant", eps_pow=1e-6,
                 nf_kind="reg_c1", f_kind="sinpi", field=None):
    mesh = make_mesh(nc, j)
    if field is None:
        field = coeff.mstrig_eval if kind == "mstrig" else coeff.constant_field(1.0)
    kappa = coeff.sample_on_mesh(field, mesh)
    if nf_kind == "power":
        nf = nfunc.NFunction("power", p)
    else:
        nf = nfunc.NFunction.from_eps_pow(nf_kind, p, eps_pow)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    if f_kind == "sinpi":
        f = np.sin(np.pi * x) * np.sin(np.pi * y)
    else:
        f = np.ones(mesh.n_vertices)
    return solvers.Problem(mesh, kappa, nf, f)


def random_state(problem, rng, scale=0.1):
    u = np.zeros(problem.mesh.n_vertices)
    u[problem.mesh.free_nodes] = scale * rng.standard_normal(
        problem.mesh.free_nodes.size
    )
    return problem.state(u)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def perturb_splu(monkeypatch):
    """Call it to make every later spla.splu factor solve with a relative
    error of 1e-6, far above the 1e-8 backward-error threshold."""
    splu = spla.splu
    noise = np.random.default_rng(2)

    class Perturbed:
        def __init__(self, *args, **kwargs):
            self.lu = splu(*args, **kwargs)

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            return x * (1.0 + 1e-6 * noise.choice([-1.0, 1.0], x.size))

    return lambda: monkeypatch.setattr(spla, "splu", Perturbed)


@pytest.fixture
def kkt_calls(monkeypatch):
    """Call it to record the positional arguments of every later spla.splu
    call (in `.factors`) and sparsela.solve_saddle call (its factor and
    constraint right-hand side, in `.solves`) on the namespace it returns."""
    def record():
        calls = SimpleNamespace(factors=[], solves=[])
        splu, solve = spla.splu, sparsela.solve_saddle
        monkeypatch.setattr(spla, "splu",
                            lambda *a, **k: calls.factors.append(a) or splu(*a, **k))
        monkeypatch.setattr(sparsela, "solve_saddle",
                            lambda *a: calls.solves.append(a) or solve(*a))
        return calls

    return record
