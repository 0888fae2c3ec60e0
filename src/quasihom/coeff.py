"""Heterogeneous coefficient fields and their sampling onto fine elements.

Supported kinds: the multiscale trigonometric formula, cell-centered grid
data loaded from plain-text files (SPE10-slice convention: row-major,
row 0 at y-min), constants, and a synthetic high-contrast channel generator
used as a stand-in when benchmark data is not available. A field is any
callable ``(x, y) -> values``; grid data and channels share ``GridField``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


class GridFileError(Exception):
    """Base class for coefficient-file problems."""


class GridParseError(GridFileError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


class GridDimensionError(GridFileError):
    pass


class GridValueError(GridFileError):
    pass


_SCALES = (1 / 5, 1 / 13, 1 / 17, 1 / 31, 1 / 65)


def mstrig_eval(x, y):
    """Multiscale trigonometric coefficient: five non-separable oscillation
    scales plus a slowly varying term; strictly positive everywhere."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    e1, e2, e3, e4, e5 = _SCALES
    two_pi = 2.0 * np.pi
    val = (
        (1.1 + np.sin(two_pi * x / e1)) / (1.1 + np.sin(two_pi * y / e1))
        + (1.1 + np.sin(two_pi * y / e2)) / (1.1 + np.cos(two_pi * x / e2))
        + (1.1 + np.cos(two_pi * x / e3)) / (1.1 + np.sin(two_pi * y / e3))
        + (1.1 + np.sin(two_pi * y / e4)) / (1.1 + np.cos(two_pi * x / e4))
        + (1.1 + np.cos(two_pi * x / e5)) / (1.1 + np.sin(two_pi * y / e5))
        + np.sin(4.0 * x * x * y * y)
        + 1.0
    ) / 6.0
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class GridField:
    """kappa from cell-centered grid data over extent (x0, x1, y0, y1)."""

    grid: np.ndarray                        # (rows, cols), row 0 at y-min
    extent: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x0, x1, y0, y1 = self.extent
        rows, cols = self.grid.shape
        eps = 1e-12
        if np.any(x < x0 - eps) or np.any(x > x1 + eps) or np.any(
            y < y0 - eps
        ) or np.any(y > y1 + eps):
            raise ValueError("sample point outside coefficient extent")
        ci = np.clip(((x - x0) / (x1 - x0) * cols).astype(int), 0, cols - 1)
        ri = np.clip(((y - y0) / (y1 - y0) * rows).astype(int), 0, rows - 1)
        out = self.grid[ri, ci]
        return out if np.ndim(out) else float(out)


def constant_field(value: float):
    if value <= 0:
        raise ValueError("coefficient must be positive")

    def field(x, y):
        out = np.full_like(np.asarray(x, dtype=float), value)
        return out if out.ndim else float(out)
    return field


def load_grid(path, rows: int, cols: int,
              extent=(0.0, 1.0, 0.0, 1.0)) -> GridField:
    """Load a whitespace-separated grid file: rows*cols positive decimals,
    row-major with row 0 at y-min."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid rows and cols must be >= 1, got {rows}x{cols}")
    values = []
    try:
        fh = open(path)
    except OSError as exc:
        raise GridFileError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            for tok in line.split():
                try:
                    v = float(tok)
                except ValueError:
                    raise GridParseError(path, lineno, f"bad token {tok!r}") from None
                if not np.isfinite(v):
                    raise GridParseError(path, lineno, f"non-finite value {tok!r}")
                values.append(v)
    if len(values) != rows * cols:
        raise GridDimensionError(
            f"{path}: expected {rows * cols} values ({rows}x{cols}), got {len(values)}"
        )
    grid = np.asarray(values, dtype=float).reshape(rows, cols)
    if np.any(grid <= 0):
        bad = np.argwhere(grid <= 0)[0]
        raise GridValueError(
            f"{path}: nonpositive value at row {bad[0]}, col {bad[1]}"
        )
    return GridField(grid, tuple(extent))


def synth_channels(rows: int, cols: int, n_channels: int, contrast: float,
                   seed: int, extent=(0.0, 1.0, 0.0, 1.0)) -> GridField:
    """Background-1 grid with meandering high-value bands, deterministic per seed."""
    if rows < 1 or cols < 1 or n_channels < 1:
        raise ValueError("counts must be >= 1")
    if contrast <= 1:
        raise ValueError("contrast must exceed 1")
    rng = np.random.default_rng(seed)
    grid = np.ones((rows, cols))
    for _ in range(n_channels):
        r = int(rng.integers(1, rows - 1)) if rows > 2 else 0
        width = max(1, rows // 20)
        for c in range(cols):
            lo = max(0, r - width + 1)
            grid[lo : r + 1, c] = contrast
            # meander: biased random walk in the row direction
            r += int(rng.integers(-1, 2))
            r = min(max(r, width - 1), rows - 1)
    return GridField(grid, tuple(extent))


@dataclass(frozen=True)
class ElementCoefficients:
    values: np.ndarray

    def __post_init__(self):
        if not np.all((self.values > 0) & np.isfinite(self.values)):
            raise ValueError("element coefficients must be finite and positive")


def sample_on_mesh(field, mesh: Mesh) -> ElementCoefficients:
    """One value per fine triangle: field(x, y) at the barycenter."""
    bary = mesh.geometry[3]
    vals = np.asarray(field(bary[:, 0], bary[:, 1]), dtype=float)
    return ElementCoefficients(values=vals)
