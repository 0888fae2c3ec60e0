"""Outside-in tracing of the quasihom layers.

A ``Tracer`` replaces the functions that callers look up as module attributes
(``fem.energy``, ``grps.build_patch``, ...) with wrappers that record one span
per call. Nothing under ``src/`` is edited: module functions call each other
through their module globals, so a wrapped attribute is seen by every caller,
inside its own module too.

A span is (id, parent, run, name, start, end, size, failed). ``name`` is
``<home module>.<function>``, so ``grps.build_patch`` (imported by name from
``mesh``) records as ``mesh.build_patch``. ``size`` is the problem size for
the solver kernels (n + m of a KKT system, n of a factorized matrix) and 0
elsewhere.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "quasihom"


class Span(NamedTuple):
    id: int
    parent: int            # -1 for a top-level call
    run: str
    name: str
    start: float
    end: float
    size: int
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _saddle_size(system, *_, **__) -> int:
    return int(system.a.shape[0] + system.b.shape[0])


def _matrix_size(a, *_, **__) -> int:
    return int(a.shape[0])


SIZES = {
    "sparsela.solve_saddle": _saddle_size,
    "sparsela.factorized_spd": _matrix_size,
}


class Tracer:
    """Records spans for every public quasihom function reachable as an
    attribute of the given modules, while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        sizer = SIZES.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            size = sizer(*args, **kwargs) if sizer else 0
            failed = True
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, self.run, name, start, end, size, failed))

        return traced

    def install(self, modules) -> None:
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{fn.__name__}"
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Children of one span run one after another (the program is single
    threaded), so their durations add without overlap.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


class RunProfile:
    """Aggregates of the spans of one run (one solve or one set-up)."""

    def __init__(self, spans):
        self.spans = list(spans)
        selfs = self_times(self.spans)
        names = {s.id: s.name for s in self.spans}
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.size: dict[str, int] = defaultdict(int)
        self.failures: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.by_parent: dict[tuple[str, str], list[Span]] = defaultdict(list)
        for s in self.spans:
            self.calls[s.name] += 1
            self.total[s.name] += s.duration
            self.self_s[s.name] += selfs[s.id]
            self.size[s.name] += s.size
            self.failures[s.name] += int(s.failed)
            self.layer_self[s.layer] += selfs[s.id]
            self.by_parent[(names.get(s.parent, ""), s.name)].append(s)

    def under(self, parent: str, name: str) -> list[Span]:
        """Spans of ``name`` called directly from a span of ``parent``."""
        return self.by_parent.get((parent, name), [])
