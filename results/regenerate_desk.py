"""Regenerate ``results/desk/``: the outputs of five small experiment runs.

Each entry of ``COMMANDS`` is one ``quasihom`` command line; its outputs go
into ``results/desk/<name>/``. ``tests/test_results.py`` reruns the same
commands and compares their CSVs with the committed ones, so a change that
moves a number shows there.

    PYTHONPATH=src python results/regenerate_desk.py

rebuilds the directory from scratch: it writes into a temporary sibling
directory and swaps that in only after every command exits 0, so a failing
command leaves the committed results as they were. Commit the result
together with the change that moved the numbers, and name the moved files
and the reason.
"""

from __future__ import annotations

import os
import shutil
import sys

from quasihom import cli

HERE = os.path.dirname(os.path.abspath(__file__))
DESK = os.path.join(HERE, "desk")

_P = ["--mesh.nc_x", "4", "--mesh.nc_y", "4", "--mesh.refine", "2",
      "--nfunc.p", "5", "--coeff.kind", "mstrig"]

COMMANDS = {
    "solve": ["solve", *_P, "--solver.space", "coarse", "--solve.reference", "true"],
    "compare-methods": ["compare-methods", *_P],
    "regularization-study": ["regularization-study", *_P],
    "homogenization-error": ["homogenization-error", *_P,
                             "--hom.nc_list", "2,4", "--hom.fine_n", "16"],
    "sparse-update-study": [
        "sparse-update-study", "--nfunc.p", "20", "--coeff.kind", "channels",
        "--coeff.rows", "16", "--coeff.cols", "16", "--mesh.nc_x", "4",
        "--mesh.nc_y", "4", "--solver.line_search", "residual_regularized",
        "--solver.max_iters", "20", "--sparse.delta_list", "5,500"],
}


def run(out: str) -> None:
    """Run every command, writing into out/<name>; raises on a nonzero exit."""
    for name, args in COMMANDS.items():
        rc = cli.main([*args, "--out", os.path.join(out, name)])
        if rc != 0:
            raise RuntimeError(f"{name}: exit code {rc}")


def main() -> int:
    new, old = DESK + ".new", DESK + ".old"
    for path in (new, old):
        shutil.rmtree(path, ignore_errors=True)
    try:
        run(new)
        if os.path.exists(DESK):
            os.rename(DESK, old)
        os.rename(new, DESK)
    finally:
        shutil.rmtree(new, ignore_errors=True)
        shutil.rmtree(old, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
