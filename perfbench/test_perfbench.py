"""Tests of the benchmark itself: span self times, the tracer, the gate, and
whole runs on tiny meshes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import record
import run
from tracing import RunProfile, Span, Tracer, self_times

run.import_program()


def span(sid, parent, name, start, end, size=0, failed=False, run_id="r"):
    return Span(sid, parent, run_id, name, start, end, size, failed)


@pytest.fixture
def nested():
    # root [0, 10] has children a [1, 4] and b [5, 7]; a has child c [2, 3]
    return [
        span(2, 1, "nfunc.eval", 2.0, 3.0),
        span(1, 0, "fem.energy", 1.0, 4.0),
        span(3, 0, "sparsela.solve_saddle", 5.0, 7.0, size=12, failed=True),
        span(0, -1, "solvers.solve", 0.0, 10.0),
    ]


def test_self_time_subtracts_direct_children_only(nested):
    got = self_times(nested)
    assert got == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    assert sum(got.values()) == pytest.approx(10.0)


def test_run_profile_aggregates(nested):
    p = RunProfile(nested)
    assert p.calls["fem.energy"] == 1
    assert p.total["fem.energy"] == 3.0
    assert p.self_s["fem.energy"] == 2.0
    assert p.size["sparsela.solve_saddle"] == 12
    assert p.failures["sparsela.solve_saddle"] == 1
    assert dict(p.layer_self) == {"solvers": 5.0, "fem": 2.0, "nfunc": 1.0, "sparsela": 2.0}
    assert [s.id for s in p.under("fem.energy", "nfunc.eval")] == [2]
    assert p.under("solvers.solve", "nfunc.eval") == []
    assert sum(p.layer_self.values()) == pytest.approx(nested[-1].duration)


def test_tracer_wraps_module_attributes_and_restores_them():
    from quasihom import fem, grps, mesh, nfunc, sparsela
    from quasihom.mesh import build_coarse_mesh, refine

    energy, build_patch = fem.energy, grps.build_patch
    m = refine(build_coarse_mesh(2, 2), 1)
    tracer = Tracer()
    tracer.install([fem, nfunc, grps, sparsela])
    try:
        tracer.run = "t"
        assert fem.energy is not energy
        from quasihom import coeff, solvers
        kappa = coeff.sample_on_mesh(coeff.constant_field(1.0), m)
        nf = nfunc.NFunction.from_eps_pow("reg_c1", 3.0, 1e-6)
        problem = solvers.Problem(m, kappa, nf, np.ones(m.n_vertices))
        problem.energy(problem.state())
        grps.build_patch(m, 0, 1)
        with pytest.raises(ValueError):
            sparsela.solve_saddle(sparsela.SaddleSystem(
                np.eye(2), np.ones((1, 3)), np.zeros(2), np.zeros(1)))
    finally:
        tracer.uninstall()
    assert fem.energy is energy and grps.build_patch is build_patch
    assert mesh.build_patch is build_patch

    p = RunProfile(tracer.spans)
    assert p.calls["fem.energy"] == 1
    assert len(p.under("fem.energy", "nfunc.eval")) == 1
    assert p.calls["mesh.build_patch"] == 1          # home module, not grps
    assert p.failures["sparsela.solve_saddle"] == 1
    assert p.size["sparsela.solve_saddle"] == 2 + 1
    assert p.calls["fem.assemble_mass"] == 1


def test_gate_rejects_failures_and_energy_drift():
    ok = {"reason": "max_iters", "final_energy": -1.0, "initial_energy": -0.5}
    energy = {"final_energy": -1.0}
    assert run.check_solve(ok, energy, None, 1e-6) is None
    assert run.check_solve(ok, {"final_energy": -1.0 + 2e-6}, None, 1e-6) is not None
    assert run.check_solve(ok, {}, -1.2, 1e-6) is None
    assert "below the fine reference" in run.check_solve(ok, {}, -0.9, 1e-6)
    assert "initial energy" in run.check_solve(
        dict(ok, initial_energy=-1.5), {}, -1.2, 1e-6)
    assert "no converged fine reference" in run.check_solve(ok, {}, None, 1e-6)
    for reason in ("solver_failure: x", "line_search_failure: y", "energy_nonfinite"):
        assert run.check_solve(dict(ok, reason=reason), energy, None, 1e-6)
    assert run.check_solve(dict(ok, final_energy=math.nan), {}, -1.2, 1e-6)
    assert run.check_solve({"error": "RuntimeError: boom"}, energy, None, 1e-6)


def test_gate_checks_recorded_counts_that_the_solve_has():
    ok = {"reason": "max_iters", "final_energy": -1.0, "initial_energy": -0.5,
          "iterations": 3}
    recorded = {"final_energy": -1.0,
                "counts": {"iterations": 3, "fem.energy_calls": 40}}
    assert run.check_solve(ok, recorded, None, 1e-6) is None
    assert run.check_solve(dict(ok, **{"fem.energy_calls": 40}), recorded, None, 1e-6) is None
    assert "fem.energy_calls is 41" in run.check_solve(
        dict(ok, **{"fem.energy_calls": 41}), recorded, None, 1e-6)
    assert "iterations is 4" in run.check_solve(dict(ok, iterations=4), recorded, None, 1e-6)


def test_reference_must_converge():
    def ref(**kw):
        return SimpleNamespace(**dict(
            {"converged": True, "reason": "stationary", "final_energy": -1.0}, **kw))

    assert run.reference_failure(ref()) is None
    assert "did not converge" in run.reference_failure(ref(converged=False, reason="max_iters"))
    assert "line_search_failure" in run.reference_failure(ref(reason="line_search_failure: x"))
    assert run.reference_failure(ref(final_energy=math.inf))


TINY = {
    "tiny-global": run.Workload(
        "configs/mstrig_desk.cfg",
        {"mesh.nc_x": "2", "mesh.nc_y": "2", "solver.global_basis": "true",
         "solver.max_iters": "3"}),
    "tiny-sparse": run.Workload(
        "configs/channels_sparse.cfg",
        {"mesh.nc_x": "4", "mesh.nc_y": "2", "mesh.refine": "2",
         "coeff.rows": "8", "coeff.cols": "16", "solver.delta_i": "1",
         "solver.max_iters": "3"},
        seeded=True),
    "tiny-fine": run.Workload(
        "configs/mstrig_desk.cfg",
        {"mesh.nc_x": "2", "mesh.nc_y": "2", "solver.space": "fine",
         "solver.line_search": "plain", "solver.max_iters": "200"}),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, wl in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, wl)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_run_on_tiny_mesh(tiny, name):
    spec = run.load_spec()
    result = run.Bench(name, 0.3, trace=False, workload_seed=3, run_seed=5).run()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert [k for k in result["metrics"]] == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    record = json.loads((tiny / f"{name}-seed5-trace0.json").read_text())
    assert record["environment"]["nproc"] >= 1
    assert {s["iterations"] for s in record["solves"]} == {result["metrics"]["iterations"]["value"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(tiny, name):
    spec = run.load_spec()
    result = run.Bench(name, 0.3, trace=True, workload_seed=3, run_seed=5).run()
    assert result["correct"]
    got = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(got) == [m["name"] for m in spec["per_layer"]]
    # the layers' self times account for the traced solve (each metric is a
    # median over the traced solves, so the sum matches only closely)
    layer_sum = sum(got[f"{layer}.self_s"] for layer in run.SOLVE_LAYERS)
    assert layer_sum == pytest.approx(got["trace.solve_s"], rel=0.05, abs=1e-3)
    assert abs(got["trace.unaccounted_s"]) < 0.01 * got["trace.solve_s"] + 1e-3
    assert got["fem.energy_calls"] > 0 and got["sparsela.factor_calls"] > 0
    assert got["coeff.sample_s"] > 0 and got["fem.mass_s"] > 0
    if name == "tiny-fine":
        assert got["sparsela.saddle_calls"] == 0 and got["energy_rel_err"] == 0
    else:
        assert got["sparsela.saddle_calls"] == got["grps.bases_rebuilt"] > 0
        assert got["energy_rel_err"] > 0 and got["h1_rel_err"] > 0
    if name == "tiny-sparse":
        assert got["mesh.patch_calls"] == got["grps.bases_rebuilt"]
        assert 0 < got["grps.reuse_ratio"] < 1
    spans = (tiny / f"{name}-seed5-trace1.spans.jsonl").read_text().splitlines()
    assert {"id", "parent", "run", "name", "start", "end"} <= set(json.loads(spans[0]))


def test_recorded_energy_is_checked(tiny, monkeypatch):
    monkeypatch.setattr(run, "load_expected", lambda: {
        "rtol": 1e-6, "workloads": {"tiny-global": {"fixed": {"final_energy": -123.0}}}})
    result = run.Bench("tiny-global", 0.1, trace=False).run()
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.fixture
def recorded(tiny, monkeypatch):
    """expected.json for the tiny workloads, written by record.py."""
    path = tiny / "expected.json"
    path.write_text(json.dumps({"rtol": 1e-6, "workloads": {}}))
    monkeypatch.setattr(run, "EXPECTED", str(path))
    assert record.main(["tiny-global", "tiny-sparse", "--workload-seed", "3"]) == 0
    return json.loads(path.read_text())


def test_record_writes_energies_and_counts(recorded):
    sparse = recorded["workloads"]["tiny-sparse"]["3"]
    assert set(sparse["counts"]) == set(run.EXACT_COUNTS)
    assert sparse["counts"]["sparsela.saddle_calls"] == sparse["counts"]["grps.bases_rebuilt"] > 0
    assert math.isfinite(recorded["workloads"]["tiny-global"]["fixed"]["final_energy"])


@pytest.mark.parametrize("trace", [False, True])
def test_runs_pass_against_recorded_values(recorded, trace):
    result = run.Bench("tiny-sparse", 0.2, trace=trace, workload_seed=3).run()
    assert result["correct"] and result["failed"] == 0


def test_traced_counts_are_checked_against_recorded_ones(recorded, monkeypatch):
    counts = recorded["workloads"]["tiny-global"]["fixed"]["counts"]
    counts["fem.energy_calls"] += 1
    monkeypatch.setattr(run, "load_expected", lambda: recorded)
    untraced = run.Bench("tiny-global", 0.1, trace=False).run()
    assert untraced["correct"]                # an untraced solve has no energy_calls
    traced = run.Bench("tiny-global", 0.1, trace=True).run()
    assert not traced["correct"]
    assert traced["failed"] >= run.MIN_SOLVES  # every traced solve
    assert traced["attempted"] >= 1 + 2 * run.MIN_SOLVES


@pytest.mark.parametrize("trace", [False, True])
def test_unconverged_reference_fails_the_run(tiny, monkeypatch, trace):
    stub = SimpleNamespace(converged=False, reason="max_iters", final_energy=-1e9)
    monkeypatch.setattr(run.Bench, "reference", lambda self: stub)
    # seed 4 has no recorded value, so the reference is computed and needed
    result = run.Bench("tiny-sparse", 0.1, trace=trace, workload_seed=4).run()
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"] == {}


def test_record_refuses_an_unconverged_reference(tiny, monkeypatch):
    path = tiny / "expected.json"
    path.write_text(json.dumps({"rtol": 1e-6, "workloads": {}}))
    monkeypatch.setattr(run, "EXPECTED", str(path))
    stub = SimpleNamespace(converged=False, reason="max_iters", final_energy=-1e9)
    monkeypatch.setattr(run.Bench, "reference", lambda self: stub)
    assert record.main(["tiny-global"]) == 1
    assert json.loads(path.read_text()) == {"rtol": 1e-6, "workloads": {}}


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for fname in ("run.py", "tracing.py", "expected.json"):
        shutil.copy(os.path.join(run.HERE, fname), bench_dir)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-global",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
