import math
import os
import sys

import numpy as np
import pytest

from quasihom import cli, coeff, fem, nfunc, solvers, sparsela
from quasihom.solvers import LineSearchError, SolverConfig

from conftest import make_problem, random_state
from oracles import estimate_cn_bisection, quasi_norm

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="sgd").validate()
    with pytest.raises(ValueError):
        SolverConfig(space="medium").validate()
    with pytest.raises(ValueError):
        SolverConfig(delta=0.4).validate()
    with pytest.raises(ValueError):
        SolverConfig(method="quasinorm", space="coarse").validate()
    for bad in (dict(cq=0.0), dict(cq=-1.0), dict(cq=math.inf), dict(cq=math.nan),
                dict(max_iters=-1)):
        with pytest.raises(ValueError):
            SolverConfig(**bad).validate()
    SolverConfig().validate()
    SolverConfig(max_iters=0).validate()


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


def _newton_direction(pr, st, r):
    w, ok = solvers.direction(pr, st, SolverConfig(), r, pr.operator(st, "newton"), None)
    assert ok
    return w


def test_search_direction_descent(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    for method in ("gd", "pgd", "newton"):
        for _ in range(10):
            st = random_state(pr, rng, scale=0.3)
            r = pr.residual(st)
            w, ok = solvers.direction(pr, st, SolverConfig(method=method), r,
                                      pr.operator(st, method), None)
            assert ok
            assert r @ w < 0


@pytest.mark.parametrize("method", ["gd", "pgd", "newton"])
def test_direction_solves_in_its_space(monkeypatch, method):
    # one solve of op w = -r: factored in the fine space, a Galerkin solve
    # in a coarse one; the linearized operator is given, never assembled
    from quasihom import grps
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    r = pr.residual(st)
    op = pr.operator(st, method)
    space = grps.refresh_basis(grps.coarse_space(pr.mesh, 2), op, range(32))
    monkeypatch.setattr(pr, "operator", lambda *args: pytest.fail("operator assembled"))
    cfg = SolverConfig(method=method)
    w, ok = solvers.direction(pr, st, cfg, r, op, None)
    assert ok and np.array_equal(w, sparsela.factorized_spd(op)(-r))
    w, ok = solvers.direction(pr, st, cfg, r, op, space)
    assert ok and np.array_equal(w, grps.coarse_solve(op, -r, space))


def test_direction_at_minimizer_is_tiny():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    w = _newton_direction(pr, st, pr.residual(st))
    op = pr.operator(st, "newton")
    assert math.sqrt(abs(w @ (op @ w))) <= 1e-10


def test_p2_newton_step_is_linear_solve():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st0 = pr.state()
    w = _newton_direction(pr, st0, pr.residual(st0))
    st1 = pr.stepped(st0, 1.0, w)
    assert np.abs(pr.residual(st1)).max() <= 1e-10


def test_quasinorm_p2_single_exact_solve():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = pr.state()
    cfg = SolverConfig(method="quasinorm", cq=2.0)
    r = pr.residual(st)
    w, ok = solvers.direction(pr, st, cfg, r, None, None)
    assert ok
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values)
    exact = sparsela.factorized_spd((cfg.cq * k).tocsr())(-r)
    assert np.allclose(w, exact, rtol=0, atol=1e-13 * np.abs(exact).max())


def test_quasinorm_zero_residual_returns_zero():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    w, ok = solvers.direction(pr, st, SolverConfig(method="quasinorm"),
                              pr.residual(st), None, None)
    assert ok
    assert np.abs(w).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 199, 214, 216, 236])
def test_quasinorm_ok_implies_defining_relation(monkeypatch, seed):
    # seeds 199-236 used to stop on an Armijo step shrunk to 1e-6 or less
    # and return ok with a defect of 1.2e-8 to 3.7e-8
    monkeypatch.setattr(solvers, "QN_INNER_CAP", 200)
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    cfg = SolverConfig(method="quasinorm")
    st = random_state(pr, np.random.default_rng(seed), scale=0.3)
    r = pr.residual(st)
    w, ok = solvers.direction(pr, st, cfg, r, None, None)
    wn = fem.FemState(pr.mesh, pr.expand(w)).grad_norms()
    dd = nfunc.ddphi(pr.nf, st.grad_norms() + wn)
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values * dd)
    defect = np.linalg.norm(cfg.cq * (k @ w) + r) / np.linalg.norm(r)
    if ok:
        assert defect <= 1e-8
    assert ok or seed != 0       # seed 0 meets the relation to 4.4e-11


def _count_stiffness_and_factors(monkeypatch):
    counts = {"stiffness": 0, "factors": 0}
    stiffness, factorized = fem.weighted_stiffness, sparsela.factorized_spd

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fem, "weighted_stiffness", counted("stiffness", stiffness))
    monkeypatch.setattr(sparsela, "factorized_spd", counted("factors", factorized))
    return counts


def test_quasinorm_defect_check_reuses_the_last_stiffness(monkeypatch):
    # the check used to assemble K(w) once more after every inner loop; it
    # now does so only where w moved after the last pass assembled K
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = pr.state()
    counts = _count_stiffness_and_factors(monkeypatch)
    _, ok = solvers.direction(pr, st, SolverConfig(method="quasinorm"),
                              pr.residual(st), None, None)
    # p = 2: one exact step, then a pass whose first test stops the loop
    assert ok and counts == {"stiffness": 2, "factors": 2}

    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    direction = solvers.direction
    extra = []

    def spy(*args):
        before = dict(counts)
        out = direction(*args)
        extra.append((counts["stiffness"] - before["stiffness"])
                      - (counts["factors"] - before["factors"]))
        return out

    monkeypatch.setattr(solvers, "direction", spy)
    solvers.solve(pr, SolverConfig(method="quasinorm", max_iters=30))
    assert set(extra) == {0, 1}


def test_line_search_quadratic_full_step():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st = pr.state()
    r = pr.residual(st)
    w = _newton_direction(pr, st, r)
    alpha, rho, lam = solvers.line_search(pr, st, w, "plain", r)
    assert alpha == pytest.approx(1.0, abs=1e-5)
    assert rho == pytest.approx(0.5, abs=1e-4)
    assert math.isnan(lam)


def test_line_search_half_direction_doubles_alpha():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    st = pr.state()
    r = pr.residual(st)
    w = _newton_direction(pr, st, r)
    a1, _, _ = solvers.line_search(pr, st, w, "plain", r)
    a2, _, _ = solvers.line_search(pr, st, 0.5 * w, "plain", r)
    assert a2 == pytest.approx(2.0 * a1, rel=1e-4)


def test_line_search_rejects_ascent(rng):
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    st = pr.state()
    r = pr.residual(st)
    w = _newton_direction(pr, st, r)
    with pytest.raises(LineSearchError):
        solvers.line_search(pr, st, -w, "plain", r)


@pytest.mark.parametrize("config", ["mstrig_desk", "channels_sparse"])
def test_trial_point_energy_matches_stepped_state(config):
    # trial points combine element gradients instead of recomputing them
    pr = cli.build_problem(cli.parse_config(
        os.path.join(CONFIGS, f"{config}.cfg"), []))
    st = solvers.poisson_initial(pr)
    r = pr.residual(st)
    w = _newton_direction(pr, st, r)
    d = pr.state(pr.expand(w))
    for alpha in (-1e-6, 1e-6, 1e-4, 0.5, 2.0):
        trial = pr.along(st, d, alpha)
        stepped = pr.stepped(st, alpha, w)
        assert np.array_equal(trial.u, stepped.u)
        exact = fem.energy(stepped, pr.kappa, pr.nf, pr.load)
        assert abs(fem.energy(trial, pr.kappa, pr.nf, pr.load) - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("mode,calls", [
    ("none", 2), ("plain", 32), ("residual_regularized", 32)])
def test_line_search_energy_call_count(monkeypatch, mode, calls):
    # the counts of the search that built every trial state from nodal values
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    r = pr.residual(st)
    w = _newton_direction(pr, st, r)
    energy = fem.energy
    seen = []

    def counted(*args, **kwargs):
        seen.append(1)
        return energy(*args, **kwargs)

    monkeypatch.setattr(fem, "energy", counted)
    solvers.line_search(pr, st, w, mode, r)
    assert len(seen) == calls


def test_regularized_alpha_smaller_on_coarse_direction():
    # coarse direction at strong nonlinearity: the residual penalty truncates
    # the step relative to the plain energy minimizer
    from quasihom import grps
    pr = make_problem(8, 2, p=10.0, kind="mstrig")
    st = solvers.poisson_initial(pr)
    r = pr.residual(st)
    op = pr.operator(st, "newton")
    space = grps.refresh_basis(grps.coarse_space(pr.mesh, -1), op, range(128))
    w = grps.coarse_solve(op, -r, space)
    a_plain, _, _ = solvers.line_search(pr, st, w, "plain", r)
    a_reg, _, lam = solvers.line_search(pr, st, w, "residual_regularized", r)
    assert lam > 0
    assert a_reg < a_plain


def test_estimate_cn_p2_exactly_one(rng):
    for nf_kind in ("power", "reg_c1", "reg_c2"):
        pr = make_problem(4, 2, p=2.0, kind="mstrig", nf_kind=nf_kind)
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
    dd = nfunc.ddphi(pr.nf, st.grad_norms() + wn / c)
    rhs = float(pr.mesh.areas @ (pr.kappa.values * dd * wn ** 2))
    lhs = c * float(w0 @ (op @ w0))
    assert lhs == pytest.approx(rhs, rel=1e-6)


@pytest.mark.parametrize("nf_kind", ["power", "reg_c1", "reg_c2"])
@pytest.mark.parametrize("p", [3.0, 5.0, 10.0, 20.0])
def test_estimate_cn_matches_bisection_in_few_evaluations(nf_kind, p, rng, monkeypatch):
    pr = make_problem(4, 2, p=p, kind="mstrig", nf_kind=nf_kind)
    calls = []
    ddphi = nfunc.ddphi
    monkeypatch.setattr(nfunc, "ddphi", lambda nf, t: calls.append(t) or ddphi(nf, t))
    for scale, mode in ((0.3, "newton"), (0.05, "pgd"), (1.0, "newton")):
        st = random_state(pr, rng, scale=scale)
        op = pr.operator(st, mode)
        w0 = sparsela.factorized_spd(op)(-pr.residual(st))
        c_ref = estimate_cn_bisection(pr, st, w0, op)
        calls.clear()
        assert solvers.estimate_cn(pr, st, w0, op) == pytest.approx(c_ref, rel=1e-8, abs=0)
        assert len(calls) <= 20


@pytest.mark.parametrize("kappa", [1e14, 1e-8])
def test_estimate_cn_bracketing_failure(kappa, rng):
    # at p = 2 the root is kappa itself against the plain Laplacian, and
    # these lie outside the searched [1e-6, 1e12]
    pr = make_problem(4, 2, p=2.0, field=coeff.constant_field(kappa))
    st = random_state(pr, rng)
    op = pr.operator(st, "gd")
    w0 = rng.standard_normal(pr.mesh.free_nodes.size)
    for estimate in (solvers.estimate_cn, estimate_cn_bisection):
        with pytest.raises(ValueError, match="bracketing failure"):
            estimate(pr, st, w0, op)


def test_estimate_cn_overflow_is_bracketing_failure():
    # p = 20 from a state of scale 1e-3: the Newton direction is about 1e31,
    # so phi'' overflows at the c = 1e-6 end of the bracket (and J at the
    # first trial step of the line search); warnings are errors here
    pr = make_problem(4, 2, p=20.0, kind="mstrig", nf_kind="power")
    st = random_state(pr, np.random.default_rng(0), scale=1e-3)
    op = pr.operator(st, "newton")
    w0 = sparsela.factorized_spd(op)(-pr.residual(st))
    with pytest.raises(ValueError, match="bracketing failure"):
        solvers.estimate_cn(pr, st, w0, op)
    report = solvers.solve(pr, SolverConfig(max_iters=2), u0=st)
    assert math.isnan(report.records[0].c_tilde)


@pytest.mark.parametrize("mode, reason", [
    # the central differences of the penalty weight overflow, so it is nan
    ("residual_regularized", "line_search_failure: non-finite value at alpha = 0"),
    # the full step overflows J, and the next iteration stops on it
    ("none", "energy_nonfinite"),
])
def test_overflowing_step_stops_without_warning(mode, reason):
    # the p = 20 state above; warnings are errors here
    pr = make_problem(4, 2, p=20.0, kind="mstrig", nf_kind="power")
    st = random_state(pr, np.random.default_rng(0), scale=1e-3)
    report = solvers.solve(pr, SolverConfig(max_iters=2, line_search=mode), u0=st)
    assert report.reason == reason
    assert not report.converged
    if mode == "none":
        assert report.records[0].alpha == 1.0
        assert math.isinf(report.records[1].energy)
    else:
        assert math.isnan(report.records[0].alpha)
        assert np.array_equal(report.state.u, st.u)


@pytest.mark.parametrize("value, f0", [(math.nan, 0.0), (math.inf, 0.0),
                                       (-math.inf, 0.0), (-1.0, math.nan)])
def test_bracket_takes_no_non_finite_decrease(value, f0):
    with pytest.raises(LineSearchError):
        solvers._bracket_and_golden(lambda t: value, f0)


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
        w, _ = solvers.direction(pr, st, cfg, r, None, None)
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
    # the smallest positive threshold takes the indicator route, and every
    # indicator reaches it
    rep_tiny = solvers.solve(pr, SolverConfig(delta_i=np.finfo(float).tiny,
                                              **base))
    rep_zero = solvers.solve(pr, SolverConfig(delta_i=0.0, **base))
    assert np.array_equal(rep_tiny.state.u, rep_zero.state.u)
    assert rep_tiny.final_energy == rep_zero.final_energy
    # both routes rebuilt every basis each iteration
    m = pr.mesh.n_coarse_triangles
    assert all(r.bases_updated == m for r in rep_tiny.records[:-1])
    assert all(r.bases_updated == m for r in rep_zero.records[:-1])


def test_coarse_c_tilde_direction_is_factored_by_solve(monkeypatch):
    # the fine direction of a coarse run's c_tilde estimate is one sparse
    # factorization per iteration, called from solve itself, so that a trace
    # of solve counts it as the estimate's
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    callers = []
    factorized = sparsela.factorized_spd

    def spy(a):
        callers.append(sys._getframe(1).f_code)
        return factorized(a)

    monkeypatch.setattr(sparsela, "factorized_spd", spy)
    rep = solvers.solve(pr, SolverConfig(method="newton", space="coarse", max_iters=3,
                                         line_search="plain", estimate_cn=True))
    iters = len(rep.records) - 1
    assert iters == 3
    assert callers.count(solvers.solve.__code__) == iters
    assert all(math.isfinite(r.c_tilde) for r in rep.records[:-1])


def test_solve_coarse_zero_threshold_skips_indicators(monkeypatch):
    # threshold 0 rebuilds every basis from the one linearized operator of
    # each iteration, and so does the first iteration at any threshold: no
    # increment operator, no indicator pass
    from quasihom import grps
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    monkeypatch.setattr(grps, "update_indicators",
                        lambda *args: pytest.fail("indicators computed"))
    assembled = []
    operator = pr.operator
    monkeypatch.setattr(pr, "operator",
                        lambda *args: assembled.append(1) or operator(*args))
    for delta_i, max_iters in ((0.0, 4), (1e-3, 1)):
        assembled.clear()
        rep = solvers.solve(pr, SolverConfig(method="newton", space="coarse",
                                             line_search="plain", max_iters=max_iters,
                                             delta_i=delta_i))
        iters = len(rep.records) - 1
        assert iters == max_iters
        assert len(assembled) == iters
        assert all(r.bases_updated == 32 for r in rep.records[:-1])


def test_solve_coarse_sparse_positive_threshold_skips(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    base = dict(method="newton", space="coarse", max_iters=8, line_search="plain")
    rep = solvers.solve(pr, SolverConfig(delta_i=100.0, **base))
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


@pytest.mark.parametrize("max_iters, reason, iterations",
                         [(3, "max_iters", 3), (100, "energy_decrease_below_tol", 25)])
def test_quasinorm_inner_cap_is_recorded_not_a_stop_reason(monkeypatch, max_iters,
                                                           reason, iterations):
    # a capped inner solve used to set the reason and keep iterating: the
    # 3-iteration run reported inner_iteration_cap, the long run converged
    # with no trace of its capped directions
    monkeypatch.setattr(solvers, "QN_INNER_CAP", 1)
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    cfg = SolverConfig(method="quasinorm", max_iters=max_iters)
    rep = solvers.solve(pr, cfg)
    assert (rep.reason, len(rep.records) - 1) == (reason, iterations)
    assert rep.converged == (reason != "max_iters")
    assert all(rec.inner_unsolved for rec in rep.records[:-1])
    assert not rep.records[-1].inner_unsolved


def test_quasinorm_solve_assembles_no_operator(monkeypatch):
    # its direction builds its own stiffness, and c_tilde skips quasinorm,
    # so a linearized operator would go unused
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    monkeypatch.setattr(pr, "operator",
                        lambda *args: pytest.fail("operator assembled"))
    rep = solvers.solve(pr, SolverConfig(method="quasinorm", max_iters=3))
    assert len(rep.records) == 4


def test_coarse_plateau_shrinks_with_h():
    # fixed fine resolution, coarser spaces plateau at larger energy error
    from quasihom import coeff, nfunc
    from quasihom.mesh import build_coarse_mesh, refine

    plateaus = []
    for nc, j in ((2, 4), (4, 3), (8, 2)):
        m = refine(build_coarse_mesh(nc, nc), j)
        kap = coeff.sample_on_mesh(coeff.mstrig_eval, m)
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
    rep = solvers.solve(pr, SolverConfig(max_iters=5), u0=pr.state(u0))
    assert rep.reason == "energy_nonfinite"
    assert not rep.converged
    assert math.isnan(_failing_record(rep).energy)


def test_solve_solver_failure_exit(perturb_splu):
    # every basis solve of the first build fails its backward-error check
    pr = make_problem(2, 2, p=2.0)
    u0 = solvers.poisson_initial(pr)
    perturb_splu()
    rep = solvers.solve(pr, SolverConfig(space="coarse", global_basis=True), u0=u0)
    assert rep.reason.startswith("solver_failure: basis 0 (layers=None): KKT backward error")
    rec = _failing_record(rep)
    assert rec.energy == pr.energy(u0)
    assert rec.bases_updated == 0


def test_solve_divergence_exit():
    # full coarse steps at p = 10 overshoot: the energy leaves its initial
    # sublevel set after the first step and never returns
    pr = make_problem(4, 2, p=10.0, kind="mstrig")
    rep = solvers.solve(pr, SolverConfig(space="coarse", line_search="none",
                                         max_iters=8))
    assert rep.reason == "solver_failure: energy rose above its initial value"
    assert len(rep.records) == 3
    assert rep.records[1].energy > rep.records[0].energy


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
