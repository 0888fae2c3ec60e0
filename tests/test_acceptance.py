"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; plain ``pytest`` reports the same results through test outcomes.
"""

import functools
import math
import os

import numpy as np
import pytest

from quasihom import coeff, fem, grps, nfunc, solvers, sparsela
from quasihom.mesh import build_coarse_mesh, refine
from quasihom.solvers import SolverConfig

from oracles import interpolate

DATA = os.path.join(os.path.dirname(__file__), "data")

RNG_SEED = 7041


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} ({name}): FAIL", flush=True)
                raise
            print(f"criterion {num:02d} ({name}): PASS", flush=True)
        return wrapper
    return deco


def _problem(nc, j, p, field, nf_kind="reg_c1", eps_pow=1e-6):
    mesh = refine(build_coarse_mesh(nc, nc), j)
    kappa = coeff.sample_on_mesh(field, mesh)
    if nf_kind == "power":
        nf = nfunc.NFunction("power", p)
    else:
        nf = nfunc.NFunction.from_eps_pow(nf_kind, p, eps_pow)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return solvers.Problem(mesh, kappa, nf, np.sin(np.pi * x) * np.sin(np.pi * y))


def _fine_newton(problem, max_iters=120):
    return solvers.solve(problem, SolverConfig(method="newton", space="fine",
                                               max_iters=max_iters))


@criterion(1, "N-function smoothness")
def test_c01_nfunction_smoothness():
    kernels = (nfunc.phi, nfunc.dphi, nfunc.ddphi)
    for p in (2.0, 5.0, 10.0):
        for kind, orders in (("reg_c1", 2), ("reg_c2", 3)):
            nf = nfunc.NFunction.from_eps_pow(kind, p, 1e-6, eps_plus=3.0)
            for t0 in (nf.eps_minus, nf.eps_plus):
                below = [f(nf, np.nextafter(t0, 0.0)) for f in kernels]
                above = [f(nf, np.nextafter(t0, np.inf)) for f in kernels]
                for k in range(orders):
                    scale = max(abs(below[k]), abs(above[k]), 1e-300)
                    assert abs(below[k] - above[k]) / scale <= 1e-12


@criterion(2, "calculus consistency")
def test_c02_calculus_consistency():
    rng = np.random.default_rng(RNG_SEED)
    tau = 1e-6
    for p in (2.0, 5.0, 10.0):
        pr = _problem(4, 2, p, coeff.mstrig_eval)
        m = pr.mesh
        nfree = m.free_nodes.size
        for _ in range(5):
            u = np.zeros(m.n_vertices)
            u[m.free_nodes] = 0.3 * rng.standard_normal(nfree)
            st = pr.state(u)
            v = np.zeros(m.n_vertices)
            v[m.free_nodes] = rng.standard_normal(nfree)
            fd = (pr.energy(pr.state(u + tau * v)) -
                  pr.energy(pr.state(u - tau * v))) / (2 * tau)
            rv = pr.residual(st) @ v[m.free_nodes]
            assert abs(fd - rv) <= 1e-6 * abs(rv)

            op = pr.operator(st, "newton")
            w = rng.standard_normal(nfree)
            z = rng.standard_normal(nfree)
            rp = pr.residual(pr.state(u + tau * pr.expand(w)))
            rm = pr.residual(pr.state(u - tau * pr.expand(w)))
            fd2 = (rp - rm) @ z / (2 * tau)
            aw = (op @ w) @ z
            assert abs(fd2 - aw) <= 1e-5 * abs(aw)


@criterion(3, "linear reduction")
def test_c03_linear_reduction():
    fields = [coeff.constant_field(1.0), coeff.mstrig_eval]
    for field in fields:
        pr = _problem(4, 2, 2.0, field)
        m = pr.mesh
        st = pr.state()
        w, _ = solvers.direction(pr, st, SolverConfig(), pr.residual(st),
                                 pr.operator(st, "newton"), None)
        k = fem.weighted_stiffness(m, pr.kappa.values)
        u_lin = np.linalg.solve(k.toarray(), pr.load[m.free_nodes])
        assert np.linalg.norm(w - u_lin) <= 1e-10 * np.linalg.norm(u_lin)


@criterion(4, "optimal recovery")
def test_c04_optimal_recovery():
    rng = np.random.default_rng(RNG_SEED)
    pr = _problem(4, 2, 2.0, coeff.mstrig_eval)
    a = pr.operator(pr.state(), "pgd")
    space = grps.refresh_basis(grps.coarse_space(pr.mesh, None), a, range(32))
    for _ in range(10):
        w = rng.standard_normal(pr.mesh.free_nodes.size)
        w_i = interpolate(w, space)
        total = w @ (a @ w)
        split = w_i @ (a @ w_i) + (w - w_i) @ (a @ (w - w_i))
        assert abs(split - total) <= 1e-8 * abs(total)


@criterion(5, "localization decay")
def test_c05_localization_decay():
    pr = _problem(8, 3, 2.0, coeff.mstrig_eval)
    op = pr.operator(pr.state(), "pgd")
    global_space = grps.coarse_space(pr.mesh, None)
    for i in (2 * (3 * 8 + 3), 2 * (4 * 8 + 2) + 1):  # two interior bases
        glob = grps.refresh_basis(global_space, op, [i])
        phi = glob.basis[i].toarray().ravel()
        errs = []
        for ell in (1, 2, 3, 4):
            loc = grps.refresh_basis(grps.coarse_space(pr.mesh, ell), op, [i])
            d = phi - loc.basis[i].toarray().ravel()
            errs.append(math.sqrt(d @ (op @ d)))
        for e_next, e_prev in zip(errs[1:], errs[:-1]):
            assert e_next <= 0.7 * e_prev


@criterion(6, "coarse convergence rate")
def test_c06_coarse_convergence_rate():
    h1s, energies = [], []
    for nc, j in ((4, 4), (8, 3), (16, 2)):  # fixed fine mesh 64x64
        pr = _problem(nc, j, 2.0, coeff.constant_field(1.0), nf_kind="power")
        m = pr.mesh
        b = pr.load[m.free_nodes]
        k = fem.weighted_stiffness(m, pr.kappa.values)
        u_fine = sparsela.factorized_spd(k)(b)
        op = pr.operator(pr.state(), "pgd")
        space = grps.refresh_basis(grps.coarse_space(m, -1), op,
                                   range(m.n_coarse_triangles))
        u_h = grps.coarse_solve(op, b, space)
        s_h, s_f = pr.state(pr.expand(u_h)), pr.state(pr.expand(u_fine))
        h1s.append(fem.error_norms(s_h, s_f, 2.0)[0])
        energies.append(pr.energy(s_h) - pr.energy(s_f))
    hs = np.log([1 / 4, 1 / 8, 1 / 16])
    assert np.polyfit(hs, np.log(h1s), 1)[0] >= 0.8
    assert np.polyfit(hs, np.log(energies), 1)[0] >= 1.8


def _exponential_trend_ok(errs, j_ref, lo=2, hi=12):
    floor = 64 * np.finfo(float).eps * abs(j_ref)
    checked = 0
    window = []
    for n in range(lo, min(hi, len(errs) - 1)):
        if errs[n] <= floor or errs[n + 1] <= floor:
            break
        assert errs[n + 1] < errs[n]
        window.append(errs[n])
        checked += 1
    assert checked >= 3  # the window must be non-trivial before hitting noise
    slope = np.polyfit(np.arange(len(window)), np.log(window), 1)[0]
    assert slope < 0


@pytest.fixture(scope="module")
def mstrig_p5_fine_runs():
    pr = _problem(8, 2, 5.0, coeff.mstrig_eval)
    ref = _fine_newton(pr)
    j_ref = min(ref.final_energy, float(ref.energies.min()))
    runs = {}
    for method in ("newton", "pgd", "quasinorm", "gd"):
        iters = 21 if method == "gd" else 25
        runs[method] = solvers.solve(
            pr, SolverConfig(method=method, max_iters=iters), reference_energy=j_ref
        )
    return j_ref, runs


@criterion(7, "iterative convergence trends")
def test_c07_iterative_convergence_trends(mstrig_p5_fine_runs):
    j_ref, runs = mstrig_p5_fine_runs
    for method in ("newton", "pgd", "quasinorm"):
        rep = runs[method]
        energies = rep.energies
        assert np.all(np.diff(energies) <= 1e-14 * np.maximum(1, np.abs(energies[:-1])))
        errs = [r.energy_error for r in rep.records]
        _exponential_trend_ok(errs, j_ref)
    gd_err = runs["gd"].records[20].energy_error
    pgd_err = runs["pgd"].records[min(20, len(runs["pgd"].records) - 1)].energy_error
    assert gd_err > pgd_err


@pytest.fixture(scope="module")
def mstrig_p10_coarse_runs():
    pr = _problem(8, 2, 10.0, coeff.mstrig_eval)
    ref = _fine_newton(pr)
    j_ref = min(ref.final_energy, float(ref.energies.min()))
    reg = solvers.solve(
        pr,
        SolverConfig(method="newton", space="coarse",
                     line_search="residual_regularized", max_iters=30),
        reference_energy=j_ref,
    )
    unreg = solvers.solve(
        pr,
        SolverConfig(method="newton", space="coarse", line_search="none",
                     max_iters=30),
        reference_energy=j_ref,
    )
    return j_ref, reg, unreg


@criterion(8, "residual regularization behavior")
def test_c08_residual_regularization(mstrig_p10_coarse_runs):
    j_ref, reg, unreg = mstrig_p10_coarse_runs
    errs = np.array([r.energy_error for r in reg.records])
    # converges to a plateau: tail errors positive, level and nearly flat
    tail = errs[-5:]
    assert np.all(tail > 0)
    assert tail.max() <= 2.0 * tail.min()
    plateau = tail.min()
    assert plateau <= 0.5 * errs[0]

    # rho crosses the threshold within 15 iterations and the penalty
    # switches off afterwards (lambda recorded only while active)
    rhos = [r.rho for r in reg.records]
    cross = next(n for n, r in enumerate(rhos) if not math.isnan(r) and r <= 0.68)
    assert cross <= 15
    lams = [r.lam for r in reg.records]
    assert all(math.isnan(v) for v in lams[cross + 1:])

    # the run without regularization diverges or stalls above the plateau
    u_errs = np.array([r.energy_error for r in unreg.records])
    failed = (not unreg.converged and unreg.reason != "max_iters") or \
        not np.all(np.isfinite(u_errs))
    stalled_above = np.nanmax(u_errs[-1:]) > 2.0 * plateau
    assert failed or stalled_above


@criterion(9, "sparse updating")
def test_c09_sparse_updating():
    field = coeff.synth_channels(32, 32, 3, 1e4, seed=7)
    pr = _problem(8, 2, 20.0, field)
    ref = _fine_newton(pr)
    base = dict(method="newton", space="coarse",
                line_search="residual_regularized", max_iters=30)
    # threshold 0 rebuilds every basis without indicators; the smallest
    # positive threshold takes the indicator route and selects every basis
    rep_full = solvers.solve(pr, SolverConfig(delta_i=0.0, **base),
                             reference_energy=ref.final_energy)
    tiny = np.finfo(float).tiny
    rep_tiny = solvers.solve(pr, SolverConfig(delta_i=tiny, **base),
                             reference_energy=ref.final_energy)
    assert np.array_equal(rep_full.state.u, rep_tiny.state.u)

    h1_full = fem.error_norms(rep_full.state, ref.state, 20.0)[0]
    rep_sparse = solvers.solve(pr, SolverConfig(delta_i=0.3, **base),
                               reference_energy=ref.final_energy)
    m = pr.mesh.n_coarse_triangles
    ups = [r.bases_updated for r in rep_sparse.records[:-1]]
    frac = sum(ups[1:]) / (m * max(len(ups) - 1, 1))
    assert frac < 1.0
    h1_sparse = fem.error_norms(rep_sparse.state, ref.state, 20.0)[0]
    assert h1_sparse < 2.0 * h1_full


@criterion(10, "regularization error trend")
def test_c10_regularization_error_trend():
    field = coeff.mstrig_eval
    pr_ref = _problem(8, 2, 10.0, field, eps_pow=1e-10)
    ref = _fine_newton(pr_ref)
    power_pr = solvers.Problem(pr_ref.mesh, pr_ref.kappa,
                               nfunc.NFunction("power", 10.0), pr_ref.f_nodes)
    j_unreg = power_pr.energy(ref.state)
    gaps = []
    for eps_pow in (1e-2, 1e-4, 1e-6):
        pr = _problem(8, 2, 10.0, field, eps_pow=eps_pow)
        rep = _fine_newton(pr)
        assert rep.converged
        gaps.append(abs(j_unreg - rep.final_energy))
    assert gaps[0] > gaps[1] > gaps[2]


@criterion(11, "scaling-constant estimator")
def test_c11_cn_estimator(mstrig_p10_coarse_runs):
    # exact unit value in the quadratic case
    rng = np.random.default_rng(RNG_SEED)
    pr2 = _problem(4, 2, 2.0, coeff.mstrig_eval)
    u = np.zeros(pr2.mesh.n_vertices)
    u[pr2.mesh.free_nodes] = 0.5 * rng.standard_normal(pr2.mesh.free_nodes.size)
    st = pr2.state(u)
    op = pr2.operator(st, "newton")
    w0 = sparsela.factorized_spd(op)(-pr2.residual(st))
    assert solvers.estimate_cn(pr2, st, w0, op) == 1.0

    # on the strongly nonlinear run the sequence decays to O(1);
    # plateau noise allows a 1% per-step slack
    _, reg, _ = mstrig_p10_coarse_runs
    ct = [r.c_tilde for r in reg.records if not math.isnan(r.c_tilde)]
    assert len(ct) > 6
    for a, b in zip(ct[3:], ct[4:]):
        assert b <= a * 1.01
    assert ct[-1] < 10.0
    assert ct[-1] < ct[0] / 1000.0


@criterion(12, "grid-file loader")
def test_c12_grid_loader():
    field = coeff.load_grid(os.path.join(DATA, "toy_grid_4x3.txt"), 4, 3)
    expected = np.array([
        [1.5, 2.25, 3.0],
        [0.5, 10.0, 100.0],
        [7.0, 8.0, 9.0],
        [0.125, 0.25, 2000.0],
    ])
    assert np.array_equal(field.grid, expected)
    with pytest.raises(coeff.GridParseError):
        coeff.load_grid(os.path.join(DATA, "bad_token.txt"), 2, 2)
    with pytest.raises(coeff.GridDimensionError):
        coeff.load_grid(os.path.join(DATA, "toy_grid_4x3.txt"), 5, 3)
    with pytest.raises(coeff.GridValueError):
        coeff.load_grid(os.path.join(DATA, "nonpositive.txt"), 2, 2)
    with pytest.raises(coeff.GridFileError):
        coeff.load_grid(os.path.join(DATA, "does_not_exist.txt"), 1, 1)
