import math

import numpy as np
import pytest

from quasihom import coeff, fem, nfunc, solvers, sparsela
from quasihom.solvers import LineSearchError, SolverConfig

from conftest import make_problem, random_state
from oracles import quasi_norm


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="sgd").validate()
    with pytest.raises(ValueError):
        SolverConfig(space="medium").validate()
    with pytest.raises(ValueError):
        SolverConfig(delta=0.4).validate()
    with pytest.raises(ValueError):
        SolverConfig(method="quasinorm", space="coarse").validate()
    SolverConfig().validate()


def test_problem_rejects_wrong_kappa_size():
    pr = make_problem(2, 1)
    one = coeff.ElementCoefficients(values=np.ones(1))
    with pytest.raises(ValueError, match="kappa"):
        solvers.Problem(pr.mesh, one, pr.nf, pr.f_nodes)


def test_problem_rejects_wrong_f_size():
    pr = make_problem(2, 1)
    with pytest.raises(ValueError, match="f has"):
        solvers.Problem(pr.mesh, pr.kappa, pr.nf, pr.f_nodes[:-1])


def test_poisson_initial_is_p2_minimizer():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    assert np.abs(pr.residual(st)).max() <= 1e-11


def test_search_direction_descent(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    for method in ("gd", "pgd", "newton"):
        cfg = SolverConfig(method=method)
        for _ in range(10):
            st = random_state(pr, rng, scale=0.3)
            r = pr.residual(st)
            w = solvers.search_direction(pr, st, cfg, r=r)
            assert r @ w < 0


def test_direction_at_minimizer_is_tiny():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    w = solvers.search_direction(pr, st, SolverConfig(method="newton"))
    op = pr.operator(st, "newton")
    assert math.sqrt(abs(w @ (op @ w))) <= 1e-10


def test_p2_newton_step_is_linear_solve():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st0 = pr.state()
    w = solvers.search_direction(pr, st0, SolverConfig(method="newton"))
    st1 = pr.stepped(st0, 1.0, w)
    assert np.abs(pr.residual(st1)).max() <= 1e-10


def test_quasinorm_p2_single_exact_solve():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = pr.state()
    cfg = SolverConfig(method="quasinorm", cq=2.0)
    r = pr.residual(st)
    w, ok = solvers.quasinorm_direction(pr, st, cfg, r=r)
    assert ok
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values)
    exact = sparsela.factorized_spd((cfg.cq * k).tocsr())(-r)
    assert np.allclose(w, exact, rtol=0, atol=1e-13 * np.abs(exact).max())


def test_quasinorm_zero_residual_returns_zero():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    w, ok = solvers.quasinorm_direction(pr, st, SolverConfig(method="quasinorm"))
    assert ok
    assert np.abs(w).max() <= 1e-12


def test_quasinorm_defining_relation_defect(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    cfg = SolverConfig(method="quasinorm", inner_tol=1e-12, inner_cap=200)
    st = random_state(pr, rng, scale=0.3)
    r = pr.residual(st)
    w, ok = solvers.quasinorm_direction(pr, st, cfg, r=r)
    assert ok
    wn = fem.FemState(pr.mesh, pr.expand(w)).grad_norms()
    dd = nfunc.eval(pr.nf, st.grad_norms() + wn)[2]
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values * dd)
    defect = np.linalg.norm(cfg.cq * (k @ w) + r) / np.linalg.norm(r)
    assert defect <= 1e-8


def test_line_search_quadratic_full_step():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st = pr.state()
    r = pr.residual(st)
    w = solvers.search_direction(pr, st, SolverConfig(method="newton"), r=r)
    alpha, rho, lam = solvers.line_search(pr, st, w, SolverConfig(), mode="plain", r=r)
    assert alpha == pytest.approx(1.0, abs=1e-5)
    assert rho == pytest.approx(0.5, abs=1e-4)
    assert math.isnan(lam)


def test_line_search_half_direction_doubles_alpha():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st = pr.state()
    r = pr.residual(st)
    w = solvers.search_direction(pr, st, SolverConfig(method="newton"), r=r)
    a1, _, _ = solvers.line_search(pr, st, w, SolverConfig(), mode="plain", r=r)
    a2, _, _ = solvers.line_search(pr, st, 0.5 * w, SolverConfig(), mode="plain", r=r)
    assert a2 == pytest.approx(2.0 * a1, rel=1e-4)


def test_line_search_rejects_ascent(rng):
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = pr.state()
    r = pr.residual(st)
    w = solvers.search_direction(pr, st, SolverConfig(method="newton"), r=r)
    with pytest.raises(LineSearchError):
        solvers.line_search(pr, st, -w, SolverConfig(), mode="plain", r=r)


def test_regularized_alpha_smaller_on_coarse_direction():
    # coarse direction at strong nonlinearity: the residual penalty truncates
    # the step relative to the plain energy minimizer
    from quasihom import grps
    pr = make_problem(8, 2, p=10.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    r = pr.residual(st)
    op = pr.operator(st, "newton")
    meas = grps.build_measurements(pr.mesh)
    space = grps.compute_basis(op, meas, pr.mesh, layers=grps.default_layers(pr.mesh))
    w = grps.coarse_solve(op, -r, space)
    a_plain, _, _ = solvers.line_search(pr, st, w, SolverConfig(), mode="plain", r=r)
    a_reg, _, lam = solvers.line_search(
        pr, st, w, SolverConfig(), mode="residual_regularized", r=r
    )
    assert lam > 0
    assert a_reg < a_plain


def test_estimate_cn_p2_exactly_one(rng):
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st = random_state(pr, rng, scale=0.5)
    op = pr.operator(st, "newton")
    r = pr.residual(st)
    w0 = sparsela.factorized_spd(op)(-r)
    assert solvers.estimate_cn(pr, st, w0, op) == 1.0
    assert solvers.estimate_cn(pr, st, 7.3 * w0, op) == 1.0


def test_estimate_cn_solves_balance_equation(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    st = random_state(pr, rng, scale=0.3)
    op = pr.operator(st, "pgd")
    r = pr.residual(st)
    w0 = sparsela.factorized_spd(op)(-r)
    c = solvers.estimate_cn(pr, st, w0, op)
    assert c > 0
    wn = fem.FemState(pr.mesh, pr.expand(w0)).grad_norms()
    dd = nfunc.eval(pr.nf, st.grad_norms() + wn / c)[2]
    rhs = float(pr.mesh.areas @ (pr.kappa.values * dd * wn ** 2))
    lhs = c * float(w0 @ (op @ w0))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_solve_p2_two_records():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    rep = solvers.solve(pr, SolverConfig(method="newton", space="fine"))
    assert rep.converged
    assert len(rep.records) == 2


def test_solve_monotone_energy(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    for method in ("newton", "pgd", "quasinorm"):
        rep = solvers.solve(pr, SolverConfig(method=method, max_iters=25))
        e = rep.energies
        assert np.all(np.diff(e) <= 1e-14)


def test_solve_newton_beats_gd_at_20_iters():
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    ref = solvers.solve(pr, SolverConfig(method="newton", max_iters=60))
    j_ref = min(ref.final_energy, float(ref.energies.min()))
    nrep = solvers.solve(pr, SolverConfig(method="newton", max_iters=20),
                         reference_energy=j_ref)
    grep = solvers.solve(pr, SolverConfig(method="gd", max_iters=20),
                         reference_energy=j_ref)
    assert nrep.records[-1].energy_error < grep.records[-1].energy_error


def test_quasinorm_step_inequality(rng):
    # accepted quasi-norm steps decrease energy at least by the step quasi-norm
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    cfg = SolverConfig(method="quasinorm", max_iters=12)
    rep = solvers.solve(pr, cfg)
    st = solvers.poisson_initial(pr)
    for rec in rep.records[:-1]:
        if math.isnan(rec.alpha):
            break
        r = pr.residual(st)
        w, _ = solvers.quasinorm_direction(pr, st, cfg, r=r)
        new = pr.stepped(st, rec.alpha, w)
        drop = pr.energy(st) - pr.energy(new)
        # the line-searched drop dominates the unit-step bound for the
        # implicit direction; 10% slack absorbs inner-solve inexactness
        qn = quasi_norm(st, pr.expand(w), pr.kappa, pr.nf)
        noise = 1e-13 * abs(pr.energy(st))
        assert drop >= 0.9 * qn - noise
        st = new


def test_solve_coarse_sparse_zero_threshold_bitwise():
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    base = dict(method="newton", space="coarse", max_iters=8,
                line_search="plain")
    rep_full = solvers.solve(pr, SolverConfig(sparse_update_threshold=None, **base))
    rep_zero = solvers.solve(pr, SolverConfig(sparse_update_threshold=0.0, **base))
    assert np.array_equal(rep_full.state.u, rep_zero.state.u)
    assert rep_full.final_energy == rep_zero.final_energy
    # the zero-threshold path rebuilt every basis each iteration
    m = pr.mesh.n_coarse_triangles
    assert all(r.bases_updated == m for r in rep_zero.records[:-1])


def test_solve_coarse_sparse_positive_threshold_skips(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    base = dict(method="newton", space="coarse", max_iters=8, line_search="plain")
    rep = solvers.solve(pr, SolverConfig(sparse_update_threshold=100.0, **base))
    m = pr.mesh.n_coarse_triangles
    ups = [r.bases_updated for r in rep.records[:-1]]
    assert ups[0] == m                # full first build
    assert any(u < m for u in ups[1:])


def test_solve_reports_reference_error():
    pr = make_problem(3, 2, p=5.0, kind="mstrig")
    ref = solvers.solve(pr, SolverConfig(max_iters=40))
    rep = solvers.solve(pr, SolverConfig(max_iters=10),
                        reference_energy=ref.final_energy)
    errs = [r.energy_error for r in rep.records]
    assert errs[0] > 0
    assert all(e >= -1e-12 for e in errs)


def test_solve_stationary_flag_vs_failure(rng):
    # at the minimizer the zero direction reads as converged, not failed
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    rep = solvers.solve(pr, SolverConfig())
    assert rep.converged
    assert rep.reason in ("stationary", "energy_decrease_below_tol")


def test_coarse_plateau_shrinks_with_h():
    # fixed fine resolution, coarser spaces plateau at larger energy error
    from quasihom import coeff, nfunc
    from quasihom.mesh import build_coarse_mesh, refine

    plateaus = []
    for nc, j in ((2, 4), (4, 3), (8, 2)):
        m = refine(build_coarse_mesh(nc, nc), j)
        kap = coeff.sample_on_mesh(coeff.mstrig_field(), m)
        nf = nfunc.NFunction.from_eps_pow("reg_c1", 5.0, 1e-6)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        pr = solvers.Problem(m, kap, nf, np.sin(np.pi * x) * np.sin(np.pi * y))
        ref = solvers.solve(pr, SolverConfig(max_iters=60))
        rep = solvers.solve(
            pr, SolverConfig(method="newton", space="coarse", max_iters=25),
            reference_energy=ref.final_energy,
        )
        plateaus.append(rep.records[-1].energy_error)
    assert plateaus[0] > plateaus[1] > plateaus[2] > 0


def test_quasihom_cache_variable_is_ignored(tmp_path, monkeypatch):
    # coarse bases are always built, never read from or written to disk
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    cfg = SolverConfig(method="newton", space="coarse", max_iters=4,
                       line_search="plain")
    monkeypatch.delenv("QUASIHOM_CACHE", raising=False)
    plain = solvers.solve(pr, cfg)
    monkeypatch.setenv("QUASIHOM_CACHE", str(tmp_path))
    rep = solvers.solve(pr, cfg)
    assert list(tmp_path.iterdir()) == []
    assert np.array_equal(rep.state.u, plain.state.u)
    assert np.array_equal(rep.energies, plain.energies)


def _failing_record(rep):
    """The one record of the iteration that stopped the solve."""
    assert len(rep.records) == 2
    assert rep.records[1].n == 1
    rec = rep.records[0]
    assert rec.wall_time > 0
    return rec


def test_solve_energy_nonfinite_exit():
    pr = make_problem(3, 2, p=5.0, kind="mstrig")
    u0 = np.zeros(pr.mesh.n_vertices)
    u0[pr.mesh.free_nodes[0]] = np.nan
    rep = solvers.solve(pr, SolverConfig(max_iters=5), u0=u0)
    assert rep.reason == "energy_nonfinite"
    assert not rep.converged
    assert math.isnan(_failing_record(rep).energy)


def test_solve_solver_failure_exit():
    # too few interior nodes per constraint for global bases on a 2x1 mesh
    pr = make_problem(2, 1, p=2.0)
    rep = solvers.solve(pr, SolverConfig(space="coarse", global_basis=True))
    assert rep.reason.startswith("solver_failure: ")
    rec = _failing_record(rep)
    assert rec.energy == pr.energy(solvers.poisson_initial(pr))
    assert rec.bases_updated == 0


def test_solve_coarse_solve_failure_counts_built_bases(monkeypatch):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")

    def singular(*args, **kwargs):
        raise sparsela.RankDeficiencyError("singular coarse matrix")

    monkeypatch.setattr(solvers.grps, "coarse_solve", singular)
    rep = solvers.solve(pr, SolverConfig(space="coarse", global_basis=True))
    assert rep.reason == "solver_failure: singular coarse matrix"
    assert _failing_record(rep).bases_updated == pr.mesh.n_coarse_triangles


def test_solve_line_search_failure_exit(monkeypatch):
    pr = make_problem(3, 2, p=5.0, kind="mstrig")

    def no_decrease(*args, **kwargs):
        raise LineSearchError("no decrease along direction")

    monkeypatch.setattr(solvers, "line_search", no_decrease)
    rep = solvers.solve(pr, SolverConfig(max_iters=5))
    assert rep.reason == "line_search_failure: no decrease along direction"
    assert not rep.converged
    rec = _failing_record(rep)
    assert math.isfinite(rec.energy) and math.isfinite(rec.c_tilde)
    assert math.isnan(rec.alpha)
