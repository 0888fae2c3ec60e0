"""End-to-end benchmark of the quasihom solvers, with an outside-in traced mode.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-global --seed 1 --seconds 35 --trace 0

Each workload is a preset config plus stated overrides, solved in-process
through the library calls of the README ("Library use"): ``cli.build_problem``
for the set-up and ``solvers.solve`` for the timed solve. One invocation sets
up the problem several times, then solves it again and again for ``--seconds``
(closed loop, one solve at a time, one process) and checks every solve.

All three workloads have fixed inputs, so ``--seed`` changes no input; it
names the run's record. The mstrig field is deterministic, and the channel
field is fixed by ``--workload-seed`` (``coeff.seed`` of ``channels-sparse``,
7 as in the preset). Another channel field changes how many bases each
iteration rebuilds by up to 40 %, which would swamp the run-to-run noise
that the bounds in BENCHMARK.json are set against.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` does a warm-up
solve and traced set-ups, then at least two pairs of an untraced and a traced
solve, and prints the per-layer metrics (medians over the traced solves). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the environment and every solve go
to ``perfbench/out/`` (and the spans of a traced run to a ``.jsonl`` there).

The BLAS thread variables are recorded, never set: the benchmark measures
the library as shipped. ``QUASIHOM_CACHE`` is removed from this process's
environment so that bases are always built, never loaded from disk.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

DEFAULT_WORKLOAD_SEED = 7  # coeff.seed of configs/channels_sparse.cfg
SETUP_REPS_MIN, SETUP_REPS_MAX = 9, 99   # timed set-ups per run
MIN_SOLVES = 2            # untraced solves (traced: pairs) per run, for a median
FAILURE_REASONS = ("solver_failure", "line_search_failure", "energy_nonfinite")
# Counts that must repeat exactly between solves of one workload and seed, and
# match those recorded in expected.json. An untraced solve has the first two.
EXACT_COUNTS = ("iterations", "grps.bases_rebuilt", "sparsela.saddle_calls",
                "sparsela.factor_calls", "fem.energy_calls")
SOLVE_LAYERS = ("mesh", "nfunc", "fem", "sparsela", "grps", "solvers")


@dataclass(frozen=True)
class Workload:
    config: str                   # preset, relative to the checkout root
    overrides: dict = field(default_factory=dict)
    seeded: bool = False          # --workload-seed sets coeff.seed

    def input_key(self, seed: int) -> str:
        """Key of the recorded expected energy for these inputs."""
        return str(seed) if self.seeded else "fixed"

    def overrides_for(self, seed: int) -> list[tuple[str, str]]:
        pairs = list(self.overrides.items())
        if self.seeded:
            pairs.append(("coeff.seed", str(seed)))
        return pairs


# max_iters caps keep each solve to a few seconds so that a run holds several.
WORKLOADS = {
    # 128 global bases on 33x33 nodes, all rebuilt every iteration (delta_i = 0):
    # the grps global path and the 128x128 dense coarse solve.
    "desk-global": Workload(
        "configs/mstrig_desk.cfg",
        {"solver.global_basis": "true", "solver.max_iters": "4"},
    ),
    # 264 localized bases, 4-layer patches, contrast 1e6, p = 20; the update
    # indicators skip some bases, so reuse is measured beside rebuild.
    "channels-sparse": Workload(
        "configs/channels_sparse.cfg",
        {"solver.delta_i": "1", "solver.max_iters": "3"},
        seeded=True,
    ),
    # The fine Newton reference at full scale (16,641 nodes); no grps calls.
    "fullscale-fine": Workload(
        "configs/mstrig_fullscale.cfg",
        {"solver.space": "fine", "solver.line_search": "plain",
         "solver.max_iters": "200"},
    ),
}


def import_program():
    """Import quasihom from this checkout's ``src``; exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "quasihom", "__init__.py")):
        print(f"error: no quasihom sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.pop("QUASIHOM_CACHE", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quasihom
    if os.path.dirname(os.path.abspath(quasihom.__file__)) != os.path.join(SRC, "quasihom"):
        print(f"error: imported quasihom from {quasihom.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return quasihom


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass

    def blas(mod):
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    threads = None                    # OS threads of this process, BLAS ones too
    try:
        with open("/proc/self/status") as fh:
            threads = next((int(ln.split()[1]) for ln in fh
                            if ln.startswith("Threads:")), None)
    except OSError:
        pass

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threads": threads,
    }


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units this benchmark prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_expected() -> dict:
    """expected.json: ``rtol`` and, per workload and input key, the recorded
    ``final_energy`` and exact ``counts`` of one solve."""
    with open(EXPECTED) as fh:
        return json.load(fh)


def reference_failure(report) -> str | None:
    """Why a fine Newton reference cannot anchor the gate, or None."""
    if report.reason.startswith(FAILURE_REASONS) or not report.converged:
        return f"fine reference did not converge ({report.reason})"
    if not math.isfinite(report.final_energy):
        return "fine reference energy is not finite"
    return None


def check_solve(rec: dict, recorded: dict, reference: float | None,
                rtol: float) -> str | None:
    """Correctness gate of one solve against its recorded values (``{}`` when
    none are recorded) or the fine reference energy; returns why it failed,
    or None."""
    if rec.get("error"):
        return rec["error"]
    if rec["reason"].startswith(FAILURE_REASONS):
        return f"stopped with {rec['reason']}"
    e = rec["final_energy"]
    if not math.isfinite(e):
        return "final energy is not finite"
    for key, n in recorded.get("counts", {}).items():
        if key in rec and rec[key] != n:
            return f"{key} is {rec[key]}, recorded {n}"
    expected = recorded.get("final_energy")
    if expected is not None:
        if abs(e - expected) > rtol * abs(expected):
            return f"final energy {e!r} differs from expected {expected!r} by more than {rtol:g} relative"
        return None
    if reference is None:
        return "no recorded final energy and no converged fine reference"
    # No recorded value: no state beats the fine minimizer, and the iteration
    # must have descended from its initial energy.
    if e < reference - rtol * abs(reference):
        return f"final energy {e!r} lies below the fine reference {reference!r}"
    if e > rec["initial_energy"]:
        return f"final energy {e!r} exceeds the initial energy {rec['initial_energy']!r}"
    return None


def traced_modules() -> list:
    """The modules whose public functions a traced run wraps."""
    from quasihom import cli, coeff, fem, grps, nfunc, solvers, sparsela
    return [nfunc, coeff, fem, sparsela, grps, solvers, cli]


def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(numpy.asarray(values, dtype=float), q))


def layer_metrics(profile, report, n_basis: int) -> dict:
    """Per-layer numbers of one traced solve."""
    it = len(report.records) - 1
    rebuilt = sum(r.bases_updated for r in report.records)
    searches = profile.calls["solvers.line_search"]
    m = {
        "sparsela.saddle_calls": profile.calls["sparsela.solve_saddle"],
        "sparsela.saddle_s": profile.total["sparsela.solve_saddle"],
        "sparsela.saddle_unknowns": profile.size["sparsela.solve_saddle"],
        "sparsela.saddle_failures": profile.failures["sparsela.solve_saddle"],
        "grps.build_self_s": profile.self_s["grps.compute_basis"]
        + profile.self_s["grps.refresh_basis"],
        "grps.bases_rebuilt": rebuilt,
        "grps.reuse_ratio": 1.0 - rebuilt / (n_basis * it) if n_basis and it else 0.0,
        "grps.coarse_solve_s": profile.total["grps.coarse_solve"],
        "grps.indicator_s": profile.total["grps.update_indicators"],
        "mesh.patch_calls": profile.calls["mesh.build_patch"],
        "mesh.patch_s": profile.total["mesh.build_patch"],
        "solvers.cn_factor_s": sum(
            s.duration for s in profile.under("solvers.solve", "sparsela.factorized_spd")),
        "solvers.cn_s": profile.total["solvers.estimate_cn"],
        "solvers.line_search_self_s": profile.self_s["solvers.line_search"],
        "solvers.ls_evals_per_search":
            len(profile.under("solvers.line_search", "fem.energy")) / searches
            if searches else 0.0,
        "fem.energy_calls": profile.calls["fem.energy"],
        "fem.energy_s": profile.total["fem.energy"],
        "fem.residual_s": profile.total["fem.residual"],
        "fem.assemble_calls": profile.calls["fem.assemble_linearized"]
        + profile.calls["fem.weighted_stiffness"],
        "fem.assemble_s": profile.total["fem.assemble_linearized"]
        + profile.total["fem.weighted_stiffness"],
        "nfunc.eval_calls": sum(n for k, n in profile.calls.items() if k.startswith("nfunc.")),
        "nfunc.eval_s": sum(t for k, t in profile.total.items() if k.startswith("nfunc.")),
        "sparsela.factor_calls": profile.calls["sparsela.factorized_spd"],
        "sparsela.factor_s": profile.total["sparsela.factorized_spd"],
        "sparsela.factor_unknowns": profile.size["sparsela.factorized_spd"],
        "iterations": it,
    }
    for layer in SOLVE_LAYERS:
        m[f"{layer}.self_s"] = profile.layer_self[layer]
    return m


def _median_dict(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


class Bench:
    """One invocation: set-ups, a time-bounded solve loop, the gate."""

    def __init__(self, name: str, seconds: float, trace: bool,
                 workload_seed: int = DEFAULT_WORKLOAD_SEED, run_seed: int = 0):
        import_program()
        from quasihom import cli

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = workload_seed
        self.run_seed = run_seed
        self.seconds = seconds
        self.trace = trace
        self.cfg = cli.parse_config(os.path.join(ROOT, self.workload.config),
                                    self.workload.overrides_for(workload_seed))
        self.scfg = cli.solver_config(self.cfg)
        self.coarse = self.scfg.space == "coarse"
        self.solves: list[dict] = []
        self.last_report = None
        self.problem = None

    def setup(self) -> float:
        from quasihom import cli
        self.problem = None                   # one problem alive at a time
        t0 = time.perf_counter()
        self.problem = cli.build_problem(self.cfg)
        return time.perf_counter() - t0

    def setup_reps(self) -> int:
        """Enough set-ups for a steady median: about a second's worth."""
        once = self.setup()                           # also warms up, untimed
        return min(SETUP_REPS_MAX, max(SETUP_REPS_MIN, math.ceil(1.0 / max(once, 1e-3))))

    def solve_once(self, kind: str) -> dict:
        from quasihom import solvers
        rec = {"kind": kind}
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            report = solvers.solve(self.problem, self.scfg)
        except Exception:  # the gate counts it; the traceback goes to stderr
            rec["seconds"] = time.perf_counter() - t0
            rec["error"] = traceback.format_exc().strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
            self.solves.append(rec)
            return rec
        rec["seconds"] = time.perf_counter() - t0
        rec["cpu_seconds"] = time.process_time() - cpu0
        gc.collect()                          # each solve starts from a clean heap
        rec.update({
            "iterations": len(report.records) - 1,
            "grps.bases_rebuilt": sum(r.bases_updated for r in report.records),
        })
        rec.update(
            reason=report.reason,
            initial_energy=report.records[0].energy,
            final_energy=report.final_energy,
            iter_s=[r.wall_time for r in report.records[:-1]],
        )
        self.last_report = report
        self.solves.append(rec)
        return rec

    def traced_solve(self, tracer, run_id: str) -> tuple[dict, dict | None]:
        """One solve with every layer traced: its record, which then also
        holds the EXACT_COUNTS, and its layer metrics (None on an error)."""
        tracer.run = run_id
        tracer.install(traced_modules())
        try:
            rec = self.solve_once("traced")
        finally:
            tracer.uninstall()
        if "error" in rec:
            return rec, None
        prof = tracing.RunProfile(s for s in tracer.spans if s.run == run_id)
        n_basis = self.problem.mesh.n_coarse_triangles if self.coarse else 0
        m = layer_metrics(prof, self.last_report, n_basis)
        m["trace.solve_s"] = rec["seconds"]
        m["trace.unaccounted_s"] = rec["seconds"] - sum(prof.layer_self.values())
        rec.update({key: m[key] for key in EXACT_COUNTS})
        return rec, m

    def timed_loop(self, step, t_begin: float, min_steps: int) -> None:
        """Run ``step`` ``min_steps`` times, then on while the next step should
        end within ``seconds`` of ``t_begin``; stop when a step fails."""
        durations = []
        while True:
            t0 = time.perf_counter()
            if not step():
                return
            durations.append(time.perf_counter() - t0)
            if len(durations) >= min_steps and time.perf_counter() - t_begin \
                    + statistics.median(durations) > self.seconds:
                return

    def reference(self):
        """Fine Newton reference on the same mesh (the workload itself when
        it is the fine Newton solve)."""
        from quasihom import cli, solvers
        if not self.coarse:
            return self.last_report
        ref_cfg = cli.solver_config(self.cfg, method="newton", space="fine",
                                    line_search="plain", max_iters=200, tol=1e-15)
        return solvers.solve(self.problem, ref_cfg)

    def traced_part(self, tracer, t_begin: float):
        """Traced set-ups, then pairs of one untraced and one traced solve.

        Returns (per-solve metrics, set-up profiles). Pairing the solves makes
        the tracing overhead a difference of neighbours, after the warm-up.
        """
        solve_metrics, setup_profiles = [], []
        tracer.install(traced_modules())
        try:
            for k in range(SETUP_REPS_MIN):
                tracer.run = f"setup-{k}"
                self.setup()
                setup_profiles.append(tracing.RunProfile(
                    s for s in tracer.spans if s.run == tracer.run))
        finally:
            tracer.uninstall()

        def pair() -> bool:
            untraced = self.solve_once("untraced")
            if "error" in untraced:
                return False
            rec, m = self.traced_solve(tracer, f"solve-{len(solve_metrics)}")
            if m is None:
                return False
            m["trace.overhead_s"] = rec["seconds"] - untraced["seconds"]
            solve_metrics.append(m)
            return True

        self.timed_loop(pair, t_begin, MIN_SOLVES)
        return solve_metrics, setup_profiles

    def run(self) -> dict:
        reps = self.setup_reps()
        tracer = None
        solve_metrics = []
        if self.trace:
            t_begin = time.perf_counter()
            self.solve_once("warm-up")        # first solve of a process is slower
            tracer = tracing.Tracer()
            if self.last_report is not None:
                solve_metrics, setup_profiles = self.traced_part(tracer, t_begin)
        else:
            setup_s = [self.setup() for _ in range(reps)]
            gc.collect()
            self.timed_loop(lambda: "error" not in self.solve_once("untraced"),
                            time.perf_counter(), MIN_SOLVES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Outside the timed region: the gate and the errors against the fine
        # Newton reference on the same mesh.
        expected_all = load_expected()
        rtol = expected_all["rtol"]
        recorded = expected_all["workloads"].get(self.name, {}).get(
            self.workload.input_key(self.seed), {})
        failures = []
        reference = None
        if (self.trace or "final_energy" not in recorded) and self.last_report is not None:
            reference = self.reference()
            why = reference_failure(reference)
            if why:
                failures.append(why)
                reference = None
        ref_energy = reference.final_energy if reference is not None else None

        for i, rec in enumerate(self.solves):
            why = check_solve(rec, recorded, ref_energy, rtol)
            rec["gate"] = why or "ok"
            if why:
                failures.append(f"solve {i}: {why}")
        for key in EXACT_COUNTS:
            seen = [rec[key] for rec in self.solves if key in rec]
            if len(set(seen)) > 1:
                failures.append(f"{key} differs between solves: {seen}")

        if self.trace:
            values = self.per_layer(solve_metrics, setup_profiles, reference) \
                if solve_metrics and reference is not None else {}
        else:
            values = self.end_to_end(setup_s, peak_rss_mb)
        listed = load_spec()["per_layer" if self.trace else "end_to_end"]
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in listed if m["name"] in values}
        result = {
            "correct": not failures,
            "attempted": len(self.solves),
            "failed": sum(1 for rec in self.solves if rec["gate"] != "ok"),
            "metrics": metrics,
        }
        self.write_record(result, failures, recorded, ref_energy, tracer)
        for why in failures:
            print(f"correctness: {why}", file=sys.stderr)
        return result

    def end_to_end(self, setup_s, peak_rss_mb) -> dict:
        ok = [rec for rec in self.solves if rec["gate"] == "ok"]
        if not ok:
            return {}
        iter_s = [t for rec in ok for t in rec["iter_s"]]
        return {
            "solve_s": statistics.median(rec["seconds"] for rec in ok),
            "iter_s_p50": percentile(iter_s, 50),
            "iter_s_p90": percentile(iter_s, 90),
            "setup_s": statistics.median(setup_s),
            "iterations": statistics.median(rec["iterations"] for rec in ok),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self, solve_metrics, setup_profiles, reference) -> dict:
        from quasihom import fem
        m = _median_dict(solve_metrics)
        m["coeff.sample_s"] = statistics.median(
            p.total["coeff.sample_on_mesh"] for p in setup_profiles)
        m["fem.mass_s"] = statistics.median(
            p.total["fem.assemble_mass"] for p in setup_profiles)
        state, ref = self.last_report.state, reference.state
        e, e_ref = self.last_report.final_energy, reference.final_energy
        m["energy_rel_err"] = abs(e - e_ref) / abs(e_ref)
        h1_ref = fem.error_norms(ref, self.problem.state(), 2.0)[0]
        m["h1_rel_err"] = fem.error_norms(state, ref, 2.0)[0] / h1_ref
        return m

    def write_record(self, result, failures, recorded, ref_energy, tracer) -> None:
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{self.name}-seed{self.run_seed}-trace{int(self.trace)}")
        record = {
            "workload": self.name, "seed": self.run_seed,
            "workload_seed": self.seed, "seconds": self.seconds,
            "config": self.workload.config,
            "overrides": dict(self.workload.overrides_for(self.seed)),
            "environment": environment(),
            "recorded": recorded, "reference_energy": ref_energy,
            "failures": failures, "solves": self.solves, "result": result,
        }
        with open(stem + ".json", "w") as fh:
            json.dump(record, fh, indent=1)
        if tracer is not None:
            tracer.write(stem + ".spans.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; names the run record (the inputs are fixed)")
    parser.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                        help="coeff.seed of channels-sparse; the mstrig workloads ignore it")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seconds, bool(args.trace),
                  workload_seed=args.workload_seed, run_seed=args.seed)
    result = bench.run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
