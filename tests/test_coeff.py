import os

import numpy as np
import pytest

from quasihom import coeff
from quasihom.coeff import (
    GridDimensionError,
    GridFileError,
    GridParseError,
    GridValueError,
    load_grid,
    mstrig_eval,
    sample_on_mesh,
    synth_channels,
)
from quasihom.mesh import build_coarse_mesh, refine

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_mstrig_origin_hand_value():
    # six terms evaluated by hand at (0, 0)
    expected = (1.0 + 1.1 / 2.1 + 2.1 / 1.1 + 1.1 / 2.1 + 2.1 / 1.1 + 0.0 + 1.0) / 6.0
    assert mstrig_eval(0.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_mstrig_reported_contrast():
    # reported contrast 37.10 is attained on the dyadic lattice of spacing 2^-8
    n = 256
    xs = np.arange(n + 1) / n
    x, y = np.meshgrid(xs, xs)
    v = mstrig_eval(x, y)
    contrast = v.max() / v.min()
    assert contrast == pytest.approx(37.10, rel=0.05)


def test_mstrig_barycenter_contrast_frozen():
    # barycenter sampling on the 2^-7 mesh gives a smaller contrast; frozen value
    mesh = refine(build_coarse_mesh(4, 4), 5)
    vals = sample_on_mesh(coeff.mstrig_eval, mesh).values
    assert vals.max() / vals.min() == pytest.approx(31.4248, rel=1e-3)


def test_mstrig_positive_everywhere(rng):
    pts = rng.random((10 ** 6, 2))
    v = mstrig_eval(pts[:, 0], pts[:, 1])
    assert np.all(v > 0)


def test_mstrig_bounded():
    xs = np.linspace(0, 1, 1201)
    x, y = np.meshgrid(xs, xs)
    v = mstrig_eval(x, y)
    assert v.min() > 0
    assert v.max() < 13.0  # bounded well below the worst-case term bound


def test_load_toy_grid_exact():
    field = load_grid(os.path.join(DATA, "toy_grid_4x3.txt"), 4, 3)
    expected = np.array([
        [1.5, 2.25, 3.0],
        [0.5, 10.0, 100.0],
        [7.0, 8.0, 9.0],
        [0.125, 0.25, 2000.0],
    ])
    assert np.array_equal(field.grid, expected)
    # row 0 sits at y-min; cell centers sample exactly
    assert field(1 / 6, 1 / 8) == 1.5
    assert field(5 / 6, 7 / 8) == 2000.0


def test_load_grid_errors():
    with pytest.raises(GridFileError):
        load_grid(os.path.join(DATA, "missing.txt"), 1, 1)
    with pytest.raises(GridParseError) as exc:
        load_grid(os.path.join(DATA, "bad_token.txt"), 2, 2)
    assert exc.value.lineno == 2
    with pytest.raises(GridDimensionError):
        load_grid(os.path.join(DATA, "toy_grid_4x3.txt"), 5, 3)
    with pytest.raises(GridValueError):
        load_grid(os.path.join(DATA, "nonpositive.txt"), 2, 2)
    for rows, cols in ((0, 0), (0, 3), (4, 0), (-1, 3)):
        with pytest.raises(ValueError, match=f"got {rows}x{cols}"):
            load_grid(os.path.join(DATA, "toy_grid_4x3.txt"), rows, cols)


def test_single_cell_grid(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("2.5\n")
    field = load_grid(path, 1, 1)
    for x, y in ((0.0, 0.0), (0.3, 0.9), (1.0, 1.0)):
        assert field(x, y) == 2.5


def test_grid_cell_lookup_finer_mesh(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("1 2\n3 4\n")
    field = load_grid(path, 2, 2)
    # mesh cells smaller than data cells pick the containing data cell
    assert field(0.1, 0.1) == 1.0
    assert field(0.9, 0.1) == 2.0
    assert field(0.1, 0.9) == 3.0
    assert field(0.76, 0.76) == 4.0


def test_sample_constant():
    mesh = refine(build_coarse_mesh(3, 3), 1)
    ec = sample_on_mesh(coeff.constant_field(3.0), mesh)
    assert np.all(ec.values == 3.0)
    assert ec.values.size == mesh.n_triangles


def test_sample_mstrig_matches_direct_scan():
    mesh = refine(build_coarse_mesh(4, 4), 3)
    ec = sample_on_mesh(coeff.mstrig_eval, mesh)
    bary = mesh.geometry[3]
    direct = mstrig_eval(bary[:, 0], bary[:, 1])
    assert np.array_equal(ec.values, direct)


def test_sample_outside_extent_raises(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("1 2\n3 4\n")
    field = load_grid(path, 2, 2, extent=(0.0, 0.5, 0.0, 0.5))
    mesh = build_coarse_mesh(2, 2)  # unit square exceeds the extent
    with pytest.raises(ValueError):
        sample_on_mesh(field, mesh)


def test_channels_determinism_and_range():
    a = synth_channels(60, 220, 3, 1e6, seed=7)
    b = synth_channels(60, 220, 3, 1e6, seed=7)
    assert np.array_equal(a.grid, b.grid)
    assert a.grid.min() == 1.0
    assert a.grid.max() == 1e6
    c = synth_channels(60, 220, 3, 1e6, seed=8)
    assert not np.array_equal(a.grid, c.grid)


def test_channels_invalid_args():
    with pytest.raises(ValueError):
        synth_channels(10, 10, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        synth_channels(0, 10, 1, 2.0, seed=0)


def test_constant_field_positive():
    with pytest.raises(ValueError):
        coeff.constant_field(0.0)
