"""Grid and path behavior: exact node times, zero-anchored paths, the
one-sided time-path distance at node indices on one pair or a stack,
and modulus templates."""

import warnings

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
from robuststop.pathspace import _stopped_values


def test_grid_nodes_exact():
    g = TimeGrid(0.0, 2.0, 4)
    assert g.dt == 0.5
    assert g.times().tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_grid_endpoints_exact_on_awkward_span():
    g = TimeGrid(0.25, 1.1, 7)
    assert g.time(0) == 0.25
    assert g.time(7) == 1.1


@pytest.mark.parametrize(
    "grid",
    [
        TimeGrid(0.0, 1.0, 4),
        TimeGrid(1e6, 1e6 + 4e-7, 4),
        TimeGrid(0.1, 2.7, 1000),
        TimeGrid(0.0, 1.0, 500_000),
    ],
    ids=["unit", "shifted", "awkward", "long"],
)
def test_times_match_time_of_each_index_bitwise(grid):
    expected = np.array([grid.time(i) for i in range(grid.n_steps + 1)])
    times = grid.times()
    assert times.dtype == np.float64
    assert times.tobytes() == expected.tobytes()


def test_time_takes_node_indices_only():
    g = TimeGrid(0.0, 1.0, 4)
    assert g.time(np.int64(1)) == g.time(1) == 0.25
    for bad in (1.5, 1.0, True, np.bool_(True), np.float64(1.0)):
        with pytest.raises(TypeError, match="node index must be an integer"):
            g.time(bad)


def test_grid_rejects_bad_bounds():
    with pytest.raises(GridError):
        TimeGrid(-1.0, 1.0, 2)
    with pytest.raises(GridError):
        TimeGrid(1.0, 1.0, 2)
    with pytest.raises(GridError):
        TimeGrid(1.0, 0.5, 1)


def test_path_requires_zero_anchor():
    g = TimeGrid(0.0, 1.0, 1)
    with pytest.raises(PathError):
        Path(g, [0.1, 1.0])
    with pytest.raises(PathError):
        Path(g, [0.0, 1.0, 2.0])


def test_dist_identical_pairs_vanish():
    w = Path(TimeGrid(0.0, 2.0, 4), [0.0, 0.1, -0.2, 0.3, 0.0])
    assert dist_dinfty(2, w, 2, w) == 0.0


def test_dist_hand_example():
    g = TimeGrid(0.0, 2.0, 4)
    zero = Path(g, np.zeros(5))
    w2 = Path(g, [0.0, 0.3, 0.1, 0.8, 0.9])
    # stopped at node 2 (t=1), w2 freezes at 0.1; its peak before that is 0.3
    assert dist_dinfty(0, zero, 2, w2) == pytest.approx(1.3, abs=1e-15)


def test_dist_equal_stopped_paths_reduce_to_time_gap():
    g = TimeGrid(0.0, 2.0, 2)
    w = Path(g, [0.0, 0.3, 0.3])
    assert dist_dinfty(1, w, 2, w) == 1.0


def test_dist_degenerate_time_is_stopped_sup_gap():
    g = TimeGrid(0.0, 2.0, 2)
    a = Path(g, [0.0, 0.5, 1.5])
    b = Path(g, [0.0, 0.2, -2.0])
    assert dist_dinfty(1, a, 1, b) == pytest.approx(0.3, abs=1e-15)


def test_dist_rejects_reversed_times():
    w = Path(TimeGrid(0.0, 1.0, 1), [0.0, 1.0])
    with pytest.raises(GridError):
        dist_dinfty(1, w, 0, w)


@pytest.mark.parametrize("grid", [TimeGrid(0.0, 4e-7, 4), TimeGrid(1e6, 1e6 + 4e-7, 4)])
def test_dist_stops_at_the_index_on_a_fine_grid_far_from_zero(grid):
    # the step is far below 1e-12 of t_end, and the paths part after
    # node 1: stopped there they are equal wherever the grid sits
    a = Path(grid, [0.0, 1.0, 2.0, 3.0, 4.0])
    b = Path(grid, [0.0, 1.0, -3.0, -1.0, 0.0])
    assert dist_dinfty(1, a, 1, b) == 0.0


def _reference_dist(k1, v1, k2, v2, grid):
    """The one-pair distance written out with a loop over the nodes."""

    def stopped(v, k):
        out = v.copy()
        for i in range(k + 1, len(v)):
            out[i] = v[k]
        return out

    gap = stopped(v1, k1) - stopped(v2, k2)
    return (grid.time(k2) - grid.time(k1)) + float(np.max(np.linalg.norm(gap, axis=1)))


def _sampled_pairs(grid, d, n, rng):
    """n ordered pairs of node indices, the last three equal, on
    zero-anchored walks."""
    def walks():
        inc = rng.uniform(-1.0, 1.0, size=(n, grid.n_steps, d))
        return np.concatenate([np.zeros((n, 1, d)), np.cumsum(inc, axis=1)], axis=1)

    k1 = rng.integers(0, grid.n_steps + 1, size=n)
    k2 = rng.integers(k1, grid.n_steps + 1)
    k2[-3:] = k1[-3:]
    return k1, walks(), k2, walks()


@pytest.mark.parametrize("grid", [
    TimeGrid(0.0, 2.0, 4),
    TimeGrid(0.3, 1.7, 5),
    TimeGrid(0.25, 1.1, 7),
    TimeGrid(0.5, 0.5, 0),
])
@pytest.mark.parametrize("d", [1, 3])
def test_dist_stack_matches_single_pairs_bitwise(grid, d):
    rng = np.random.default_rng(17 + d)
    k1, v1, k2, v2 = _sampled_pairs(grid, d, 300, rng)
    stacked = dist_dinfty(k1, Path(grid, v1), k2, Path(grid, v2))
    single = [
        dist_dinfty(int(a), Path(grid, x), int(b), Path(grid, y))
        for a, x, b, y in zip(k1, v1, k2, v2)
    ]
    reference = [_reference_dist(*pair, grid) for pair in zip(k1, v1, k2, v2)]
    assert stacked.shape == (300,)
    assert all(type(x) is float for x in single)
    assert stacked.tobytes() == np.array(single).tobytes() == np.array(reference).tobytes()


def test_dist_at_d1_takes_the_absolute_gap():
    # np.linalg.norm over a size-1 axis squares the gap, so 1e200 read
    # inf with an overflow warning; |gap| is exact
    g = TimeGrid(0.0, 1.0, 2)
    far = np.array([[0.0], [1e200], [1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist_dinfty(2, Path(g, far), 2, Path(g, np.zeros((3, 1)))) == 1e200
        ends = np.full(2, 2)
        stacked = dist_dinfty(
            ends, Path(g, np.stack([far, -far])), ends, Path(g, np.zeros((2, 3, 1)))
        )
    assert stacked.tolist() == [1e200, 1e200]
    # elsewhere the bits of the norm: gaps from 1e-150 to 1e150 on a
    # stack of random d = 1 walks
    rng = np.random.default_rng(3)
    grid = TimeGrid(0.0, 1.0, 5)
    k1, v1, k2, v2 = _sampled_pairs(grid, 1, 2048, rng)
    scale = 10.0 ** rng.uniform(-150, 150, size=(2048, 1, 1))
    a, b = Path(grid, v1 * scale), Path(grid, v2 * scale)
    gap = _stopped_values(a, k1) - _stopped_values(b, k2)
    times = grid.times()
    expected = (times[k2] - times[k1]) + np.max(np.linalg.norm(gap, axis=2), axis=1)
    assert dist_dinfty(k1, a, k2, b).tobytes() == expected.tobytes()


def test_dist_stack_rejects_bad_rows_and_mismatches():
    g = TimeGrid(0.0, 1.0, 4)
    rng = np.random.default_rng(5)
    k1, v1, k2, v2 = _sampled_pairs(g, 2, 12, rng)
    a, b = Path(g, v1), Path(g, v2)
    late = k1.copy()
    late[7] = k2[7] + 1  # one row with k1 > k2
    with pytest.raises(GridError):
        dist_dinfty(late, a, k2, b)
    past = k2.copy()
    past[4] = g.n_steps + 1  # one row past the last node
    with pytest.raises(GridError):
        dist_dinfty(k1, a, past, b)
    before = k1.copy()
    before[2] = -1  # one row before the first node
    with pytest.raises(GridError):
        dist_dinfty(before, a, k2, b)
    with pytest.raises(GridError):  # one pair past the last node
        dist_dinfty(0, Path(g, v1[0]), g.n_steps + 1, Path(g, v2[0]))
    with pytest.raises(GridError):  # grids differ
        dist_dinfty(k1, a, k2, Path(TimeGrid(0.0, 2.0, 4), v2))
    with pytest.raises(GridError):  # dims differ
        dist_dinfty(k1, a, k2, Path(g, v2[:, :, :1]))
    with pytest.raises(GridError):  # row counts differ
        dist_dinfty(k1[:6], Path(g, v1[:6]), k2[:6], Path(g, v2[:5]))
    with pytest.raises(GridError):  # a single path against a stack
        dist_dinfty(0, Path(g, v1[0]), k2, b)
    with pytest.raises(TypeError):  # a time, not a node index
        dist_dinfty(0.0, Path(g, v1[0]), 1, Path(g, v2[0]))


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
