"""Grid and path behavior: exact node times, zero-anchored paths, the
one-sided time-path distance, and modulus templates."""

import numpy as np
import pytest

from robuststop import (
    GridError,
    ModulusSpec,
    Path,
    PathError,
    TimeGrid,
    dist_dinfty,
)


def test_grid_nodes_exact():
    g = TimeGrid(0.0, 2.0, 4)
    assert g.dt == 0.5
    assert g.times().tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_grid_endpoints_exact_on_awkward_span():
    g = TimeGrid(0.25, 1.1, 7)
    assert g.time(0) == 0.25
    assert g.time(7) == 1.1


def test_grid_rejects_bad_bounds():
    with pytest.raises(GridError):
        TimeGrid(-1.0, 1.0, 2)
    with pytest.raises(GridError):
        TimeGrid(1.0, 1.0, 2)
    with pytest.raises(GridError):
        TimeGrid(1.0, 0.5, 1)


def test_grid_index_lookup():
    g = TimeGrid(0.0, 1.0, 3)
    assert g.index_of(g.time(2)) == 2
    with pytest.raises(GridError):
        g.index_of(0.4)
    assert g.floor_index(0.4) == 1
    assert g.floor_index(1.0) == 3
    with pytest.raises(GridError):
        g.floor_index(1.5)


def test_path_requires_zero_anchor():
    g = TimeGrid(0.0, 1.0, 1)
    with pytest.raises(PathError):
        Path(g, [0.1, 1.0])
    with pytest.raises(PathError):
        Path(g, [0.0, 1.0, 2.0])


def test_dist_identical_pairs_vanish():
    w = Path(TimeGrid(0.0, 2.0, 4), [0.0, 0.1, -0.2, 0.3, 0.0])
    assert dist_dinfty(1.0, w, 1.0, w) == 0.0


def test_dist_hand_example():
    g = TimeGrid(0.0, 2.0, 4)
    zero = Path(g, np.zeros(5))
    w2 = Path(g, [0.0, 0.3, 0.1, 0.8, 0.9])
    # stopped at t2=1, w2 freezes at 0.1; its peak before that is 0.3
    assert dist_dinfty(0.0, zero, 1.0, w2) == pytest.approx(1.3, abs=1e-15)


def test_dist_equal_stopped_paths_reduce_to_time_gap():
    g = TimeGrid(0.0, 2.0, 2)
    w = Path(g, [0.0, 0.3, 0.3])
    assert dist_dinfty(1.0, w, 2.0, w) == 1.0


def test_dist_degenerate_time_is_stopped_sup_gap():
    g = TimeGrid(0.0, 2.0, 2)
    a = Path(g, [0.0, 0.5, 1.5])
    b = Path(g, [0.0, 0.2, -2.0])
    assert dist_dinfty(1.0, a, 1.0, b) == pytest.approx(0.3, abs=1e-15)


def test_dist_rejects_reversed_times():
    w = Path(TimeGrid(0.0, 1.0, 1), [0.0, 1.0])
    with pytest.raises(GridError):
        dist_dinfty(1.0, w, 0.0, w)


def test_modulus_kinds():
    lin = ModulusSpec("linear", 2.0)
    assert lin(0.0) == 0.0
    assert lin(0.3) == 0.6
    pow2 = ModulusSpec("power", 1.5, exponent=2.0)
    assert pow2(0.0) == 0.0
    assert pow2(2.0) == 6.0
    aff = ModulusSpec("affine-power", 0.5, exponent=2.0)
    assert aff(0.0) == 0.5
    assert aff(3.0) == 5.0


def test_modulus_nondecreasing_on_grid():
    for spec in (
        ModulusSpec("linear", 0.7),
        ModulusSpec("power", 1.1, exponent=1.5),
        ModulusSpec("affine-power", 2.0, exponent=3.0),
    ):
        xs = np.linspace(0.0, 4.0, 50)
        ys = spec(xs)
        assert np.all(np.diff(ys) >= 0.0)


def test_modulus_validation():
    with pytest.raises(ValueError):
        ModulusSpec("cubic", 1.0)
    with pytest.raises(ValueError):
        ModulusSpec("linear", -0.1)
    with pytest.raises(ValueError):
        ModulusSpec("power", 1.0, exponent=0.5)
    with pytest.raises(ValueError):
        ModulusSpec("linear", 1.0)(-0.2)
