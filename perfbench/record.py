"""Record the final energies and exact counts that the benchmark's correctness
gate expects.

    python3 perfbench/record.py desk-global channels-sparse fullscale-fine

``--workload-seed`` sets ``coeff.seed`` of the seeded workload, as in
``run.py`` (default 7, as in the preset); the others have fixed inputs. Each
workload is solved once, traced, and must first pass the gate against a
converged fine Newton reference computed here (not below it, not above its
initial energy) before its final energy and counts are written to
``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import tracing


def record(name: str, seed: int, rtol: float) -> dict:
    """The recorded values of one workload; raises ValueError if its solve
    or its reference fails."""
    bench = run.Bench(name, 0.0, trace=False, workload_seed=seed)
    bench.setup()
    rec, _ = bench.traced_solve(tracing.Tracer(), "record")
    why = rec.get("error")
    if not why:
        ref = bench.reference()
        why = run.reference_failure(ref) or run.check_solve(
            rec, {}, ref.final_energy, rtol)
    if why:
        raise ValueError(f"{name}: {why}")
    print(f"{name} {bench.workload.input_key(seed)}: {rec['final_energy']!r} "
          f"({rec['iterations']} iterations, {rec['reason']})", file=sys.stderr)
    return {"final_energy": rec["final_energy"],
            "counts": {key: rec[key] for key in run.EXACT_COUNTS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(run.WORKLOADS))
    parser.add_argument("--workload-seed", type=int, default=run.DEFAULT_WORKLOAD_SEED)
    args = parser.parse_args(argv)

    expected = run.load_expected()
    for name in args.workloads:
        key = run.WORKLOADS[name].input_key(args.workload_seed)
        try:
            values = record(name, args.workload_seed, expected["rtol"])
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        expected["workloads"].setdefault(name, {})[key] = values
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
