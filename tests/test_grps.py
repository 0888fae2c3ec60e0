import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from quasihom import coeff, fem, grps, nfunc, solvers, sparsela
from quasihom.grps import (
    CoarseSpace,
    build_measurements,
    coarse_solve,
    coarse_space,
    refresh_basis,
    update_indicators,
)
from quasihom.mesh import build_coarse_mesh, build_patch, refine

from conftest import make_problem, random_state
from oracles import basis_per_row, interpolate, update_indicator


def _p2_operator(pr):
    return pr.operator(pr.state(), "pgd")


def test_measurement_row_sums():
    pr = make_problem(1, 1, p=2.0)
    m = pr.mesh
    meas = build_measurements(m)
    assert meas.shape == (2, m.free_nodes.size)
    # row sums equal |T_i| minus hat mass at boundary nodes
    full_rows = np.zeros(2)
    for t in range(m.n_triangles):
        full_rows[m.parent[t]] += m.areas[t]
    lost = np.zeros(2)
    for t, tri in enumerate(m.triangles):
        for v in tri:
            if m.boundary_mask[v]:
                lost[m.parent[t]] += m.areas[t] / 3.0
    assert np.allclose(np.asarray(meas.sum(axis=1)).ravel(),
                       full_rows - lost, rtol=1e-13)


def test_measurement_interior_node_support():
    pr = make_problem(2, 2, p=2.0)
    m = pr.mesh
    meas = build_measurements(m)
    # a fine node strictly inside a coarse triangle hits only that row
    for col, g in enumerate(m.free_nodes):
        rows = meas[:, col].nonzero()[0]
        touching = np.unique(m.parent[np.nonzero((m.triangles == g).any(axis=1))[0]])
        assert np.array_equal(np.sort(rows), np.sort(touching))


def test_measurement_partition_bound():
    pr = make_problem(2, 1, p=2.0)
    m = pr.mesh
    meas = build_measurements(m)
    coarse = build_coarse_mesh(2, 2)
    sums = np.asarray(meas.sum(axis=1)).ravel()
    assert np.all(sums <= coarse.areas + 1e-14)


@pytest.mark.parametrize("layers, want", [(None, None), (0, 0), (3, 3), (-1, 2)])
def test_coarse_space_starts_empty_with_its_measurements(layers, want):
    # a negative radius is the log(1/H) default: 2 on 4 x 4 cells
    pr = make_problem(4, 2, p=2.0)
    space = coarse_space(pr.mesh, layers)
    assert space.mesh is pr.mesh and space.layers == want
    assert (space.meas != build_measurements(pr.mesh)).nnz == 0
    assert space.basis.shape == space.meas.shape and space.basis.nnz == 0


def test_global_basis_biorthogonal():
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, None), op, range(8))
    gram = (space.meas @ space.basis.T).toarray()
    assert np.allclose(gram, np.eye(8), atol=1e-8)


def test_global_basis_matches_dense_kkt():
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, None), op, range(8))
    a = op.toarray()
    b = space.meas.toarray()
    n, m = a.shape[0], b.shape[0]
    kkt = np.block([[a, b.T], [b, np.zeros((m, m))]])
    for i in range(m):
        rhs = np.zeros(n + m)
        rhs[n + i] = 1.0
        dense = np.linalg.solve(kkt, rhs)[:n]
        assert np.allclose(space.basis[i].toarray().ravel(), dense, atol=1e-9)


def test_localized_support():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    m = pr.mesh
    space = refresh_basis(coarse_space(m, 1), op, range(32))
    for i in range(space.n_basis):
        patch = build_patch(m, i, 1)
        allowed = set(m.free_pos[patch.interior_fine_nodes].tolist())
        support = set(space.basis[i].nonzero()[1].tolist())
        assert support <= allowed


def test_localized_biorthogonal_in_patch():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    m = pr.mesh
    space = refresh_basis(coarse_space(m, 2), op, range(32))
    for i in (0, 13, 25):
        patch = build_patch(m, i, 2)
        prods = space.meas @ space.basis[i].T
        for j in patch.elements:
            want = 1.0 if j == i else 0.0
            assert prods[j, 0] == pytest.approx(want, abs=1e-8)


def test_interpolate_reproduces_basis():
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, None), op, range(8))
    for k in (0, 3, 7):
        phi = space.basis[k].toarray().ravel()
        w_i = interpolate(phi, space)
        assert np.allclose(w_i, phi, atol=1e-8)


def test_interpolate_zero_measurements():
    pr = make_problem(2, 2, p=2.0)
    op = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, None), op, range(8))
    z = np.zeros(pr.mesh.free_nodes.size)
    assert np.array_equal(interpolate(z, space), z)


def test_optimal_recovery_identity(rng):
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    a = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, None), a, range(32))
    for _ in range(10):
        w = rng.standard_normal(pr.mesh.free_nodes.size)
        w_i = interpolate(w, space)
        total = w @ (a @ w)
        split = w_i @ (a @ w_i) + (w - w_i) @ (a @ (w - w_i))
        assert split == pytest.approx(total, rel=1e-8)


def test_coarse_solve_zero_rhs():
    pr = make_problem(2, 2, p=2.0)
    op = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, None), op, range(8))
    out = coarse_solve(op, np.zeros(pr.mesh.free_nodes.size), space)
    assert np.allclose(out, 0.0, atol=1e-14)


def test_coarse_solve_identity_basis_reproduces_fine(rng):
    # degenerate limit: one basis per free node = identity matrix
    pr = make_problem(2, 1, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    n = pr.mesh.free_nodes.size
    space = CoarseSpace(mesh=None, meas=None, layers=None,
                        basis=sp.eye(n, format="csr"))
    rhs = rng.standard_normal(n)
    out = coarse_solve(op, rhs, space)
    fine = np.linalg.solve(op.toarray(), rhs)
    assert np.allclose(out, fine, atol=1e-9)


def test_coarse_stiffness_spd():
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, 2), op, range(32))
    a_c = (space.basis @ op @ space.basis.T).toarray()
    assert np.allclose(a_c, a_c.T, atol=1e-12)
    assert np.linalg.eigvalsh(a_c).min() > 0


def test_coarse_h1_convergence_rate():
    # linear problem: Galerkin coarse solutions converge at least O(H) in H1
    from quasihom import sparsela, solvers
    errs = []
    for nc, j in ((2, 4), (4, 3), (8, 2)):
        m = refine(build_coarse_mesh(nc, nc), j)
        kap = coeff.sample_on_mesh(coeff.constant_field(1.0), m)
        nf = nfunc.NFunction("power", 2.0)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        pr = solvers.Problem(m, kap, nf, np.sin(np.pi * x) * np.sin(np.pi * y))
        b = pr.load[m.free_nodes]
        k = fem.weighted_stiffness(m, kap.values)
        u_fine = sparsela.factorized_spd(k)(b)
        op = pr.operator(pr.state(), "pgd")
        space = refresh_basis(coarse_space(m, -1), op, range(m.n_coarse_triangles))
        u_h = coarse_solve(op, b, space)
        h1, _ = fem.error_norms(pr.state(pr.expand(u_h)), pr.state(pr.expand(u_fine)), 2.0)
        errs.append(h1)
    slope = np.polyfit(np.log([1 / 2, 1 / 4, 1 / 8]), np.log(errs), 1)[0]
    assert slope >= 0.8


def test_update_indicator_values(rng):
    pr = make_problem(3, 1, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    n = pr.mesh.free_nodes.size
    phi = rng.standard_normal(n)
    # p=2: indicator equals int kappa |grad phi|^2 independent of increment
    incr1 = random_state(pr, rng)
    incr2 = random_state(pr, rng)
    i1 = update_indicator(pr.operator(incr1, "pgd"), phi)
    i2 = update_indicator(pr.operator(incr2, "pgd"), phi)
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values)
    assert i1 == pytest.approx(phi @ (k @ phi), rel=1e-12)
    assert i1 == pytest.approx(i2, rel=1e-12)
    assert update_indicator(op, np.zeros(n)) == 0.0


def test_update_indicator_zero_increment_secant_floor(rng):
    p = 10.0
    pr = make_problem(3, 1, p=p, kind="mstrig")
    n = pr.mesh.free_nodes.size
    phi = rng.standard_normal(n)
    op0 = pr.operator(pr.state(), "pgd")  # zero increment
    k = fem.weighted_stiffness(pr.mesh, pr.kappa.values)
    floor = pr.nf.eps_minus ** (p - 2.0)
    assert update_indicator(op0, phi) == pytest.approx(
        floor * (phi @ (k @ phi)), rel=1e-10
    )


def _assert_indicators_match_oracle(pr, space, rng):
    op_i = pr.operator(random_state(pr, rng), "pgd")
    vec = update_indicators(op_i, space)
    assert vec.shape == (space.n_basis,)
    for i in range(space.n_basis):
        assert vec[i] == pytest.approx(
            update_indicator(op_i, space.basis[i].toarray().ravel()), rel=1e-12
        )
    assert np.all(update_indicators(sp.csr_matrix(op_i.shape), space) == 0.0)


def test_update_indicators_vectorized(rng):
    pr = make_problem(3, 2, p=5.0, kind="mstrig")
    op = _p2_operator(pr)
    space = refresh_basis(coarse_space(pr.mesh, 1), op, range(18))
    _assert_indicators_match_oracle(pr, space, rng)


@pytest.mark.parametrize("layers", [1, None], ids=["localized", "global"])
def test_update_indicators_over_column_blocks(rng, layers):
    # 72 bases: one full column block of 64 and a partial one of 8
    pr = make_problem(6, 2, p=5.0, kind="mstrig")
    space = refresh_basis(coarse_space(pr.mesh, layers), _p2_operator(pr), range(72))
    assert space.n_basis % grps.COARSE_BLOCK and space.n_basis > grps.COARSE_BLOCK
    _assert_indicators_match_oracle(pr, space, rng)


def test_patch_order_independence():
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    fwd = refresh_basis(coarse_space(pr.mesh, 2), op, range(18))
    bwd = refresh_basis(coarse_space(pr.mesh, 2), op, reversed(range(18)))
    assert np.array_equal(fwd.basis.toarray(), bwd.basis.toarray())


def test_refresh_keeps_unselected(rng):
    pr = make_problem(3, 2, p=5.0, kind="mstrig")
    op0 = pr.operator(pr.state(), "pgd")
    space0 = refresh_basis(coarse_space(pr.mesh, 2), op0, range(18))
    op1 = pr.operator(random_state(pr, rng), "pgd")
    space1 = refresh_basis(space0, op1, indices=[0, 1])
    assert np.array_equal(space1.basis[5].toarray(), space0.basis[5].toarray())
    assert not np.array_equal(space1.basis[0].toarray(), space0.basis[0].toarray())


def test_patches_grown_once_per_mesh_and_layer_count(monkeypatch):
    # two full builds on one mesh fetch every patch twice, and the second
    # fetch hands back the very patch the first one grew
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    fetched: dict[tuple, list] = {}

    def spy(mesh, i, layers):
        patch = build_patch(mesh, i, layers)
        fetched.setdefault((int(i), layers), []).append(patch)
        return patch

    monkeypatch.setattr(grps, "build_patch", spy)
    space0 = refresh_basis(coarse_space(pr.mesh, 1), op, range(18))
    space1 = refresh_basis(coarse_space(pr.mesh, 1), op, range(18))
    assert sorted(fetched) == [(i, 1) for i in range(18)]
    assert all(len(ps) == 2 and ps[1] is ps[0] for ps in fetched.values())
    assert np.array_equal(space1.basis.toarray(), space0.basis.toarray())


def test_degenerate_single_refinement_raises(kkt_calls):
    # below two refinements no coarse element has interior nodes, and with
    # every fine node on the skeleton, +1 on lower and -1 on upper triangles
    # is a left null vector of every constraint block: no basis exists, so
    # the space is refused before anything is factored
    calls = kkt_calls()
    for j in (0, 1):
        mesh = refine(build_coarse_mesh(4, 4), j)
        for layers in (None, 1, -1):
            with pytest.raises(ValueError, match=rf"mesh\.refine >= 2, got {j}"):
                coarse_space(mesh, layers)
    assert calls.factors == []


def _refreshed_per_row(mesh, layers, op, indices) -> np.ndarray:
    """Rows `indices` of the basis, each from its own refresh_basis call."""
    return np.array([refresh_basis(coarse_space(mesh, layers), op, [i]).basis[i].toarray()[0]
                     for i in indices])


def test_global_bases_bitwise_equal_to_per_basis_factorizations(rng):
    pr = make_problem(2, 2, p=5.0, kind="mstrig")
    op0 = pr.operator(pr.state(), "pgd")
    space0 = refresh_basis(coarse_space(pr.mesh, None), op0, range(8))
    assert np.array_equal(space0.basis.toarray(),
                          _refreshed_per_row(pr.mesh, None, op0, range(8)))
    op1 = pr.operator(random_state(pr, rng), "newton")
    sel = [6, 1, 3]
    space1 = refresh_basis(space0, op1, sel)
    dense = space1.basis.toarray()
    assert np.array_equal(dense[sel], _refreshed_per_row(pr.mesh, None, op1, sel))
    kept = np.setdiff1d(np.arange(8), sel)
    assert np.array_equal(dense[kept], space0.basis.toarray()[kept])


@pytest.mark.parametrize("indices", [None, [5, 0], []])
def test_global_build_factors_once(indices, kkt_calls):
    # None: every basis
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    indices = range(8) if indices is None else indices
    space = coarse_space(pr.mesh, None)
    calls = kkt_calls()
    refresh_basis(space, op, indices)
    factors, solves = calls.factors, calls.solves
    n = len(indices)
    assert len(factors) == (1 if n else 0)
    assert len(solves) == n
    assert all(factor is solves[0][0] for factor, _ in solves)


def test_saddle_solves_are_sized_like_the_tracer_sizes_them(kkt_calls):
    # perfbench/tracing.py wraps public module functions only, and sizes a
    # sparsela.solve_saddle span as first.a.shape[0] + first.b.shape[0]; a
    # basis solve made any other way would read as no saddle call at all
    fn = sparsela.solve_saddle
    assert inspect.isfunction(fn) and not fn.__name__.startswith("_")
    assert fn.__module__ == "quasihom.sparsela"
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    global_space, local_space = coarse_space(pr.mesh, None), coarse_space(pr.mesh, 1)
    calls = kkt_calls()
    refresh_basis(global_space, op, [4, 1])
    patch = build_patch(pr.mesh, 7, 1)
    refresh_basis(local_space, op, [7])
    sizes = [first.a.shape[0] + first.b.shape[0] for first, *_ in calls.solves]
    assert sizes == [op.shape[0] + global_space.n_basis] * 2 + [
        patch.interior_fine_nodes.size + patch.elements.size]


def test_global_build_inaccurate_solve_raises(perturb_splu):
    # every basis keeps its backward-error check against the shared factor
    pr = make_problem(2, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    space = coarse_space(pr.mesh, None)
    perturb_splu()
    with pytest.raises(sparsela.RankDeficiencyError, match=r"basis 0 \(layers=None\)") as info:
        refresh_basis(space, op, range(8))
    assert isinstance(info.value.__cause__, sparsela.ConvergenceError)


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_condensed_bases_match_direct_kkt_on_high_contrast_channels():
    # contrast 1e6, p = 20, at the solver's Poisson initial state: the
    # interiors eliminated once per build give the bases of one direct KKT
    # factorization per basis. (At a random state its patch KKT matrices
    # reach condition numbers of 1e17 and more, and no two solvers agree
    # to 1e-12 there.)
    field = coeff.synth_channels(64, 64, 3, 1e6, seed=1)
    pr = make_problem(8, 3, p=20.0, field=field)
    op = pr.operator(solvers.poisson_initial(pr), "newton")
    space = refresh_basis(coarse_space(pr.mesh, 1), op, range(128))
    checked = 0
    for i in range(0, 128, 5):
        kappa = pr.kappa.values[np.isin(pr.mesh.parent, build_patch(pr.mesh, i, 1).elements)]
        if kappa.max() / kappa.min() < 1e6:
            continue
        ref = basis_per_row(op, space.meas, [i], pr.mesh, 1)[0]
        assert _rel(space.basis[i].toarray()[0], ref) <= 1e-12
        checked += 1
    assert checked >= 3


def test_condensed_global_bases_match_direct_kkt(rng):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    op = pr.operator(random_state(pr, rng), "newton")
    space = refresh_basis(coarse_space(pr.mesh, None), op, range(32))
    ref = basis_per_row(op, space.meas, range(32))
    for got, want in zip(space.basis.toarray(), ref):
        assert _rel(got, want) <= 1e-12


@pytest.mark.parametrize("layers", [None, 1])
def test_refine_one_coarse_solve_is_refused_before_any_factorization(layers, kkt_calls):
    # this used to factor singular KKT matrices and stop at iteration 0
    pr = make_problem(4, 1, p=5.0, kind="mstrig")
    cfg = solvers.SolverConfig(space="coarse", global_basis=layers is None,
                               ell=1 if layers else -1)
    calls = kkt_calls()
    with pytest.raises(ValueError, match=r"mesh\.refine >= 2, got 1"):
        solvers.solve(pr, cfg)
    assert calls.factors == [] and calls.solves == []


def test_global_build_factors_the_whole_condensation(kkt_calls):
    # a global space is the one patch over the whole problem, and the cut
    # of the build's condensation to it is the identity
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    op = pr.operator(pr.state(), "newton")
    space = coarse_space(pr.mesh, None)
    cond, singular = grps._condense(space, op)
    assert singular == {}
    calls = kkt_calls()
    refresh_basis(space, op, range(32))
    [(factored, *_)] = calls.factors
    assert factored.format == cond.kkt.format == "csc"
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(factored, attr), getattr(cond.kkt, attr))
    cut = calls.solves[0][0].condensation
    for attr in ("kept", "interior", "gather", "coupling"):
        assert np.array_equal(getattr(cut, attr), getattr(cond, attr))


def test_each_patch_factors_its_skeleton_nodes_and_constraints(kkt_calls):
    # refine 2: three interior nodes per coarse element drop out of the
    # factored matrix of each distinct patch, in the order of first use
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    calls = kkt_calls()
    refresh_basis(coarse_space(pr.mesh, 2), op, range(32))
    sizes = []
    for group in _shared_patch_groups(pr.mesh, 2):
        patch = build_patch(pr.mesh, group[0], 2)
        m = patch.elements.size
        sizes.append(patch.interior_fine_nodes.size - 3 * m + m)
    assert [a[0].shape[0] for a in calls.factors] == sizes
    assert len(calls.solves) == 32


def _stored_in(coo, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The mask of the stored entries of coo in rows x cols."""
    return np.isin(coo.row, rows) & np.isin(coo.col, cols)


def test_patch_factors_store_every_entry_of_their_cut_zeros_included():
    # each patch's matrices hold exactly the stored entries of the whole
    # problem's that fall in the patch's rows and columns, the explicit
    # zeros of the condensation's correction blocks too: the minimum-degree
    # ordering depends on them
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    op = pr.operator(pr.state(), "newton")
    space = coarse_space(pr.mesh, 2)
    cond, _ = grps._condense(space, op)
    kkt, a, b = cond.kkt.tocoo(), op.tocoo(), space.meas.tocoo()
    zeros = 0
    for i in range(pr.mesh.n_coarse_triangles):
        patch = build_patch(pr.mesh, i, 2)
        ids, pos = patch.elements, pr.mesh.free_pos[patch.interior_fine_nodes]
        factor = grps._patch_factor(space, op, cond, ids, pos)
        at = np.concatenate([np.flatnonzero(np.isin(cond.kept, pos)), cond.kept.size + ids])
        assert np.all(np.diff(at) > 0)
        mask = _stored_in(kkt, at, at)
        want = sp.csc_matrix((kkt.data[mask], (np.searchsorted(at, kkt.row[mask]),
                                               np.searchsorted(at, kkt.col[mask]))),
                             shape=(at.size,) * 2)
        cut = factor.condensation.kkt
        assert cut.format == "csc" and cut.nnz == mask.sum()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(cut, attr), getattr(want, attr))
        assert factor.a.nnz == _stored_in(a, pos, pos).sum()
        assert factor.b.nnz == _stored_in(b, ids, pos).sum()
        zeros += np.count_nonzero(cut.data == 0)
    assert zeros > 0


@pytest.mark.parametrize("layers", [2, None], ids=["localized", "global"])
def test_refresh_of_no_basis_keeps_the_basis_and_factors_nothing(layers, rng, kkt_calls,
                                                                 monkeypatch):
    # an indicator pass may select no basis: every stored value comes back
    # as it was (the row scaling that zeroes rebuilt rows may reorder a row's
    # stored entries, not change them)
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    space = refresh_basis(coarse_space(pr.mesh, layers), pr.operator(pr.state(), "newton"),
                          range(32))
    monkeypatch.setattr(grps, "_condense", lambda *a: pytest.fail("condensed"))
    calls = kkt_calls()
    same = refresh_basis(space, pr.operator(random_state(pr, rng), "newton"), [])
    assert same.basis.nnz == space.basis.nnz
    assert np.array_equal(same.basis.toarray(), space.basis.toarray())
    assert calls.factors == [] and calls.solves == []


def _shared_patch_groups(mesh, layers):
    """Coarse elements grouped by the elements of their patch."""
    groups = {}
    for i in range(mesh.n_coarse_triangles):
        groups.setdefault(build_patch(mesh, i, layers).elements.tobytes(), []).append(i)
    return list(groups.values())


def test_localized_bases_on_one_patch_share_a_factorization(rng, kkt_calls):
    # 4 x 4 cells, 2 layers: 32 bases on 24 distinct patches
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    space = coarse_space(pr.mesh, 2)
    op0 = pr.operator(random_state(pr, rng), "newton")
    assert len(_shared_patch_groups(pr.mesh, 2)) == 24
    calls = kkt_calls()
    space0 = refresh_basis(space, op0, range(32))
    assert len(calls.factors) == 24
    assert len(calls.solves) == 32
    assert np.array_equal(space0.basis.toarray(),
                          _refreshed_per_row(pr.mesh, 2, op0, range(32)))


def test_refresh_of_one_shared_basis_rebuilds_only_its_row(rng, kkt_calls):
    pr = make_problem(4, 2, p=5.0, kind="mstrig")
    space0 = refresh_basis(coarse_space(pr.mesh, 2), pr.operator(pr.state(), "pgd"),
                           range(32))
    i, j = next(g for g in _shared_patch_groups(pr.mesh, 2) if len(g) > 1)[:2]
    op1 = pr.operator(random_state(pr, rng), "newton")
    calls = kkt_calls()
    space1 = refresh_basis(space0, op1, [i])
    assert (len(calls.factors), len(calls.solves)) == (1, 1)
    dense, dense0 = space1.basis.toarray(), space0.basis.toarray()
    assert np.array_equal(dense[i], _refreshed_per_row(pr.mesh, 2, op1, [i])[0])
    kept = np.arange(32) != i
    assert np.array_equal(dense[kept], dense0[kept])
    assert not np.array_equal(dense[i], dense0[i])
    assert np.array_equal(dense[j], dense0[j])


def test_singular_shared_patch_kkt_names_its_bases():
    # an operator of stored zeros makes the patch KKT matrix singular; the
    # one factorization of the shared patch fails and names both bases
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    group = next(g for g in _shared_patch_groups(pr.mesh, 2) if len(g) > 1)
    op = _p2_operator(pr)
    op.data[:] = 0.0
    with pytest.raises(sparsela.RankDeficiencyError,
                       match=rf"bases \[{group[0]}, {group[1]}\] \(layers=2\): singular"):
        refresh_basis(coarse_space(pr.mesh, 2), op, group[:2])


def test_structurally_singular_patch_kkt_never_reaches_splu(monkeypatch):
    # an operator that stores no entries makes the patch KKT matrix
    # structurally singular; SuperLU used to crash the process on it
    pr = make_problem(4, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    monkeypatch.setattr(sparsela.spla, "splu",
                        lambda *args, **kwargs: pytest.fail("splu reached"))
    with pytest.raises(sparsela.RankDeficiencyError,
                       match=r"\(layers=2\): singular KKT system: structural rank"):
        refresh_basis(coarse_space(pr.mesh, 2), sp.csr_matrix(op.shape), [2, 5])


@pytest.mark.parametrize("indices, match", [
    ([2, 2], r"repeated basis indices: \[2\]"),
    ([0, 3, 5, 3, 0], r"repeated basis indices: \[0, 3\]"),
    ([-1, 4], r"out of range 0\.\.17: \[-1\]"),
    ([4, 18], r"out of range 0\.\.17: \[18\]"),
])
def test_refresh_rejects_bad_indices_before_building(indices, match, monkeypatch,
                                                     kkt_calls):
    # a repeated index used to double its row, a negative one failed only
    # after every factorization
    pr = make_problem(3, 2, p=2.0, kind="mstrig")
    op = _p2_operator(pr)
    empty = coarse_space(pr.mesh, 2)
    patches = []
    monkeypatch.setattr(grps, "build_patch",
                        lambda *a: patches.append(a) or build_patch(*a))
    calls = kkt_calls()
    with pytest.raises(ValueError, match=match):
        refresh_basis(empty, op, indices)
    assert patches == [] and calls.factors == []


def test_blocked_galerkin_matrix_matches_dense():
    # 72 global bases: one full block of 64 and a partial one of 8
    pr = make_problem(6, 2, p=5.0, kind="mstrig")
    op = pr.operator(pr.state(), "newton")
    space = refresh_basis(coarse_space(pr.mesh, None), op, range(72))
    assert grps.COARSE_BLOCK < space.n_basis < 2 * grps.COARSE_BLOCK
    r = space.basis.toarray()
    dense = r @ op.toarray() @ r.T
    a_c = grps._galerkin_matrix(op, space.basis)
    assert np.linalg.norm(a_c - dense) <= 1e-12 * np.linalg.norm(dense)


def test_coarse_solve_never_densifies_the_whole_basis():
    # a random sparse basis of 6 blocks over a 1D Laplacian on 16,000 nodes:
    # a dense n_free x n_basis array alone would be about 49 MB
    n, n_basis = 16_000, 6 * grps.COARSE_BLOCK
    op = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                  [-1, 0, 1], format="csr")
    r = sp.random(n_basis, n, density=0.005, format="csr",
                  rng=np.random.default_rng(3))
    space = CoarseSpace(mesh=None, meas=None, layers=None, basis=r)
    rhs = np.ones(n)
    full = n * n_basis * 8
    tracemalloc.start()
    try:
        coarse_solve(op, rhs, space)
        update_indicators(op, space)        # the same column blocks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * full
