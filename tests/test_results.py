"""The committed desk-scale results are what the code produces now.

Reruns the commands of ``results/regenerate_desk.py`` and compares the file
set and every CSV cell but ``wall_time`` with ``results/desk/`` to 1e-10
relative. A change that moves a number regenerates the directory with that
script and names the moved files in CHANGES.md.
"""

import importlib.util
import math
import os

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")
REL_TOL = 1e-10


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "regenerate_desk", os.path.join(RESULTS, "regenerate_desk.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _read_csv(path):
    """(meta dict, columns, rows of string cells) of a written CSV."""
    meta, lines = {}, []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            else:
                lines.append(line.split(","))
    return meta, lines[0], lines[1:]


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if not (math.isfinite(x) and math.isfinite(y)):
        return x == y or (math.isnan(x) and math.isnan(y))
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def test_desk_results_match_committed(tmp_path):
    script = _load_script()
    script.run(str(tmp_path))
    committed = _files(script.DESK)
    assert _files(tmp_path) == committed
    diffs = []
    for rel in sorted(f for f in committed if f.endswith(".csv")):
        meta_new, cols_new, rows_new = _read_csv(tmp_path / rel)
        meta_old, cols_old, rows_old = _read_csv(os.path.join(script.DESK, rel))
        assert (cols_new, meta_new.keys(), len(rows_new)) == \
            (cols_old, meta_old.keys(), len(rows_old)), rel
        diffs += [f"{rel} # {k}: {meta_old[k]} -> {meta_new[k]}"
                  for k in meta_old if not _close(meta_old[k], meta_new[k])]
        for n, (new, old) in enumerate(zip(rows_new, rows_old)):
            diffs += [f"{rel} row {n} {c}: {o} -> {v}"
                      for c, v, o in zip(cols_old, new, old)
                      if c != "wall_time" and not _close(o, v)]
    assert not diffs, "\n".join(diffs[:20])
