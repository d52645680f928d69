"""Old-vs-new parity for the per-level tree arrays.

The tree once stored, per level, a whole prefix block of shape
(n_l, k0 + l + 1, d).  It now stores the current states and their
running maxima per level and rebuilds prefixes on demand.  The
block-building expansion and the block-based reward evaluation are kept
below as referees, verbatim but for the reward-side pre-history splice
that the library no longer has; every array the new tree gives must match
them bit for bit: the states, the running maxima, the rewards of every
kind and every rebuilt prefix row.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import make_signed_zero_tree
from referees import prefix_key, prefix_keys
from robuststop import (
    ControlSet,
    DriftSpec,
    TimeGrid,
    american_put,
    constant_reward,
    custom_reward,
    drift_eval,
    expand_tree,
    lookback_max,
    reward_values,
    robust_envelope,
    running_sum,
    terminal_abs,
)
from robuststop.cli import _expand, _instance, cmd_solve
from robuststop.errors import SizeError
from robuststop.model import (
    DEFAULT_NODE_CAP,
    _control_kernel,
    _projected_node_count,
    state_norms,
)
from robuststop.pathspace import ModulusSpec


# -- referees: the block-building code the per-level arrays replaced -------


def _old_expand_blocks(grid, x0, drift, controls, node_cap=DEFAULT_NODE_CAP,
                       init_prefix=None):
    """The block-building expand_tree, returning its prefix blocks."""
    d = controls.dim
    if init_prefix is not None:
        root_prefix = np.atleast_2d(np.asarray(init_prefix, dtype=np.float64).T).T
        if root_prefix.shape[1] != d:
            raise ValueError(f"init_prefix dim {root_prefix.shape[1]} != controls dim {d}")
        k0 = root_prefix.shape[0] - 1
        if k0 > grid.n_steps:
            raise ValueError("init_prefix longer than the grid")
    else:
        root_prefix = np.broadcast_to(
            np.asarray(x0, dtype=np.float64).reshape(-1), (1, d)
        )
        k0 = 0
    if drift.kind == "custom-table" and len(drift.table) < grid.n_steps:
        raise ValueError(
            f"custom-table drift has {len(drift.table)} rows, the grid needs {grid.n_steps}"
        )

    dt = grid.dt
    kernels = [_control_kernel(u, dt) for u in controls]
    increments = np.array([inc for inc, _ in kernels])  # (C, B, d)
    weights = np.array([w for _, w in kernels])  # (C, B)
    weights.setflags(write=False)
    fanout = weights.size
    projected = _projected_node_count(grid.n_steps - k0, fanout)
    if projected > node_cap:
        raise SizeError.over_cap(projected, "tree nodes", node_cap, "solver.node_cap")

    root = root_prefix[None].copy()
    root.setflags(write=False)
    blocks = [root]
    for k in range(k0, grid.n_steps):
        prev = blocks[-1]
        n = prev.shape[0]
        shift = drift_eval(drift, k, prev, None) * dt
        step = shift[:, None, None, :] + increments[None]  # (n, C, B, d)
        block = np.empty((n * fanout, k + 2, d))
        view = block.reshape(n, fanout, k + 2, d)
        view[:, :, : k + 1, :] = prev[:, None]
        view[:, :, k + 1, :] = prev[:, None, -1, :] + step.reshape(n, fanout, d)
        block.setflags(write=False)
        blocks.append(block)
    return blocks


def _old_eval_reward(Y, k, prefix):
    p = np.atleast_2d(np.asarray(prefix, dtype=np.float64).T).T
    block = p[None] if p.ndim == 2 else p
    n, m, d = block.shape
    if m != k + 1:
        raise ValueError(f"prefix must hold k+1 = {k + 1} values, got {m}")
    track = Y.base + block
    out = _old_payoffs(Y, k, track)
    return float(out[0]) if p.ndim == 2 else out


def _old_payoffs(Y, k, track):
    n, _, d = track.shape
    if Y.kind == "constant":
        return np.full(n, float(Y.scale))
    if Y.kind == "terminal-abs":
        return Y.scale * state_norms(track[:, -1, :])
    if Y.kind == "custom-table":
        return np.array([float(Y.table(k, row)) for row in track])
    if d != 1:
        raise ValueError(f"{Y.kind} is a scalar-path reward, got dim {d}")
    # contiguous rows, so np.max and np.sum reduce each row as they
    # reduce a single track
    track = np.ascontiguousarray(track[:, :, 0])
    if Y.kind == "american-put":
        gap = Y.strike - track[:, -1]
        # keeps gap unless 0.0 is strictly larger, so a -0.0 gap stays
        return Y.scale * np.where(0.0 > gap, 0.0, gap)
    if Y.kind == "lookback-max":
        return Y.scale * np.max(track, axis=1)
    # running-sum
    return Y.scale * np.sum(track, axis=1)


def _old_reward_values(k0, blocks, Y):
    return np.concatenate([
        _old_eval_reward(Y, k0 + l, block) for l, block in enumerate(blocks)
    ])


# -- cases ------------------------------------------------------------------


PUT = (TimeGrid(0.0, 1.0, 8), 1.0, DriftSpec("zero"), ControlSet([0.5, 1.0], cap=1.0))
D2_CONTROLS = ControlSet(
    [np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([[1.0, 0.2], [0.2, 0.8]])], cap=1.2
)
# conftest.make_collision_tree's menu: the controls share their first
# column, so children under both observe the same states
COLLISION_CONTROLS = ControlSet([np.eye(2), np.diag([1.0, 2.0])], cap=2.0)

EXPANDED = {
    "solve-deep-put": (PUT, {}),
    "solve-deep-lookback": ((TimeGrid(0.0, 1.0, 8), 1.0, DriftSpec("running-max", kappa=1.0),
                             ControlSet([0.5, 1.0], cap=1.0)), {}),
    "solve-deep-d2": ((TimeGrid(0.0, 1.0, 5), np.array([0.0, 0.0]),
                       DriftSpec("mean-reversion", rate=0.5), D2_CONTROLS), {}),
    "collision-d2": ((TimeGrid(0.0, 1.0, 3), np.array([0.0, 0.0]), DriftSpec("zero"),
                      COLLISION_CONTROLS), {}),
    "collision-k0": ((TimeGrid(0.0, 1.0, 3), np.array([0.0, 0.0]), DriftSpec("zero"),
                      COLLISION_CONTROLS), {"init_prefix": [[0.0, 0.0], [0.0, 0.5]]}),
    "init-prefix-running-max": ((TimeGrid(0.0, 1.0, 5), 0.0, DriftSpec("running-max", kappa=1.0),
                                 ControlSet([0.5, 1.0], cap=1.0)),
                                {"init_prefix": [1.0, 1.3, 0.9]}),
    "init-prefix-full": ((TimeGrid(0.0, 1.0, 2), 0.0, DriftSpec("running-max", kappa=0.5),
                          ControlSet([0.5, 1.0], cap=1.0)),
                         {"init_prefix": [0.2, -0.4, 0.7]}),
    # the root's running max is -0.0, and paths that climb back to 0.0
    # tie it with +0.0, so the sign the carried max keeps is checked
    "signed-zero-init-prefix": ((TimeGrid(0.0, 1.0, 4), 0.0, DriftSpec("zero"),
                                 ControlSet([0.5], cap=1.0)), {"init_prefix": [0.0, -0.0]}),
    "custom-table-drift": ((TimeGrid(0.0, 1.0, 3), 0.5,
                            DriftSpec("custom-table", table=[[0.1], [-0.2], [0.3]]),
                            ControlSet([0.4, 0.8, 1.1], cap=1.2)), {}),
    "running-sum-n8": ((TimeGrid(0.0, 1.0, 8), 0.2,
                        DriftSpec("mean-reversion", rate=0.4, level=0.1),
                        ControlSet([0.5, 1.0], cap=1.0)), {}),
    "pre-history-tree": ((TimeGrid(0.0, 1.0, 5), 0.0, DriftSpec("zero"),
                          ControlSet([0.5, 1.0], cap=1.0)), {}),
}


def _rewards(tree):
    """One reward of every kind, as (name, Y), for the tree's dimension."""
    n = tree.grid.n_steps
    return [
        ("american-put", american_put(strike=1.0, base=0.0)),
        ("american-put-shifted", american_put(strike=0.2, base=-0.1, scale=-1.5)),
        ("lookback-max", lookback_max(0.0, 1.0)),
        ("lookback-max-shifted", lookback_max(base=0.1, scale=0.5)),
        ("lookback-max-neg-zero-base", lookback_max(base=-0.0)),
        ("terminal-abs", terminal_abs(0.0, 1.0)),
        ("terminal-abs-shifted", terminal_abs(base=0.3, scale=2.0)),
        ("running-sum", running_sum(base=0.3, scale=0.7, n_steps=n)),
        ("constant", constant_reward(0.25)),
        ("custom-table", custom_reward(
            lambda k, track: track.item(-1) - 0.5 * track.item(track.size // 2) - 0.1 * k,
            ModulusSpec("linear", 1.0), -10.0, base=0.2)),
    ]


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _reward_or_error(fn):
    try:
        return fn()
    except ValueError as exc:
        return ("ValueError", str(exc))


def _assert_parity(tree, blocks):
    assert not hasattr(tree, "blocks")
    assert tree.offsets == np.cumsum([0] + [len(b) for b in blocks]).tolist()
    _bitwise(tree.root_prefix, blocks[0][0])
    rng = np.random.default_rng(7)
    for l, block in enumerate(blocks):
        _bitwise(tree.states[l], block[:, -1, :])
        _bitwise(tree.peaks[l], np.max(block, axis=1))
        _bitwise(tree.level_prefixes(l), block)
        rows = rng.integers(0, len(block), size=min(len(block), 5))
        _bitwise(tree.level_prefixes(l, rows), block[rows])
        assert not tree.states[l].flags.writeable
        assert not tree.peaks[l].flags.writeable
    ids = np.arange(tree.n_nodes)
    assert prefix_keys(tree, ids) == [
        prefix_key(tree.k0 + l, row) for l, block in enumerate(blocks) for row in block
    ]
    for name, Y in _rewards(tree):
        new = _reward_or_error(lambda: reward_values(tree, Y))
        old = _reward_or_error(lambda: _old_reward_values(tree.k0, blocks, Y))
        if isinstance(old, tuple):
            assert new == old, name
        else:
            _bitwise(new, old)


@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_levels_match_the_block_expansion(name):
    args, kwargs = EXPANDED[name]
    _assert_parity(expand_tree(*args, **kwargs), _old_expand_blocks(*args, **kwargs))


def _old_signed_zero_blocks(n_steps):
    """The hand-built prefix blocks of the signed-zero tree."""
    level1 = np.array([[[0.0], [0.0]], [[0.0], [-0.0]]])
    blocks = [np.zeros((1, 1, 1)), level1]
    if n_steps == 2:
        step = np.tile([[[0.5]], [[-0.5]]], (2, 1, 1))
        blocks.append(np.concatenate([np.repeat(level1, 2, axis=0), step], axis=1))
    return blocks


@pytest.mark.parametrize("n_steps", [1, 2])
def test_signed_zero_tree_matches(n_steps):
    tree = make_signed_zero_tree(n_steps)
    blocks = _old_signed_zero_blocks(n_steps)
    for l, block in enumerate(blocks):
        _bitwise(tree.states[l], block[:, -1, :])
        _bitwise(tree.peaks[l], np.max(block, axis=1))
        _bitwise(tree.level_prefixes(l), block)
    for name, Y in _rewards(tree):
        _bitwise(reward_values(tree, Y), _old_reward_values(0, blocks, Y))


# every order of 0.0, -0.0 and -0.5, so a tie of the two zeros sits at
# every position of a prefix
SIGNED_ZERO_ROWS = [[0.0, -0.0, -0.5], [-0.0, 0.0, -0.5], [-0.0, -0.5, 0.0],
                    [0.0, -0.5, -0.0], [-0.5, -0.0, 0.0], [-0.5, 0.0, -0.0]]


def test_signed_zero_running_max_is_carried_like_the_row_max():
    # a running max over rows holding both zeros keeps the sign that the
    # row reduction keeps, at every position of the tie
    rows = np.array(SIGNED_ZERO_ROWS)
    carried = rows[:, :1].copy()
    for j in range(1, rows.shape[1]):
        carried = np.maximum(carried, rows[:, j:j + 1])
    _bitwise(carried[:, 0], np.max(rows, axis=1))


@pytest.mark.parametrize("drift", [DriftSpec("zero"), DriftSpec("mean-reversion", rate=0.4),
                                   DriftSpec("running-max", kappa=1.0)],
                         ids=lambda spec: spec.kind)
@pytest.mark.parametrize("row", range(len(SIGNED_ZERO_ROWS)))
def test_peaks_are_the_max_of_the_rebuilt_prefixes(drift, row):
    # a running-max drift reads the running maxima during expansion, which
    # carries them; any other tree builds them on the first read.  Both
    # must be the max over the whole prefix, the sign of a zero tie
    # included: with zero drift a path from +-0.0 is back at 0.0 two
    # steps later
    tree = expand_tree(TimeGrid(0.0, 1.0, 6), None, drift, ControlSet([0.5, 1.0], cap=1.0),
                       init_prefix=SIGNED_ZERO_ROWS[row])
    assert ("peaks" in vars(tree)) == (drift.kind == "running-max")
    for l in range(len(tree.states)):
        _bitwise(tree.peaks[l], np.max(tree.level_prefixes(l), axis=1))
        assert not tree.peaks[l].flags.writeable
    assert tree.peaks is tree.peaks


def test_tree_stores_constant_bytes_per_node():
    def bytes_per_node(n_steps, arrays):
        tree = expand_tree(TimeGrid(0.0, 1.0, n_steps), *PUT[1:])
        return sum(a.nbytes for a in arrays(tree)) / tree.n_nodes

    # a state of d = 1 float64 values per node, at any depth, and a
    # running max too once peaks is read
    for arrays, size in ((lambda t: t.states, 8.0), (lambda t: t.states + t.peaks, 16.0)):
        assert bytes_per_node(4, arrays) == bytes_per_node(8, arrays) == size


def _peak_bytes(fn):
    """The peak bytes traced while fn() ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expansion_keeps_running_maxima_only_when_read():
    # the n = 8 two-control put, 87,381 nodes: 8 bytes per node of states
    # until tree.peaks is read, 16 with it
    tracemalloc.start()
    try:
        tree = expand_tree(*PUT)
        kept = tracemalloc.get_traced_memory()[0]
        tree.peaks
        with_peaks = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tree.n_nodes == 87_381
    assert kept <= 8.1 * tree.n_nodes
    assert with_peaks - kept >= 8 * tree.n_nodes


def test_rewards_and_envelope_allocate_little_beyond_their_outputs():
    # the n = 8 two-control put: reward_values writes each level into its
    # slice of the 0.70 MB result, and robust_envelope holds y, z and
    # argmin (2.1 MB) plus the sweep's level buffers
    tree = expand_tree(*PUT)
    Y = american_put(strike=1.0, base=0.0)
    assert _peak_bytes(lambda: reward_values(tree, Y)) <= 0.8e6
    assert _peak_bytes(lambda: robust_envelope(tree, Y)) <= 2.8e6
    # solve-deep's d = 2 tree, 37,449 nodes: terminal-abs writes base +
    # the states of every level into one 0.52 MB buffer beside the
    # 0.30 MB result, where a new array per level peaked at 0.89 MB with
    # the last two levels' arrays held at once
    tree = expand_tree(TimeGrid(0.0, 1.0, 5), [0.0, 0.0],
                       DriftSpec("mean-reversion", rate=0.5), D2_CONTROLS)
    assert tree.n_nodes == 37_449
    assert _peak_bytes(lambda: reward_values(tree, terminal_abs())) <= 0.85e6


def test_solve_summarises_levels_without_copying_rows(capsys):
    # cmd_solve on the n = 8 put peaks where its expansion and envelope
    # do: each level is summarised by reductions over views of it, where
    # a copy of the stopped rows of the 512 KB leaf level adds 0.5 MB
    cfg = {
        "grid": {"t_end": 1.0, "n_steps": 8},
        "dynamics": {"x0": 1.0, "drift": {"kind": "zero"}},
        "controls": {"values": [0.5, 1.0], "cap": 1.0},
        "reward": {"kind": "american-put", "strike": 1.0},
    }
    inst = _instance(cfg)
    envelope = _peak_bytes(lambda: robust_envelope(_expand(inst), inst[4]))
    solve = _peak_bytes(lambda: cmd_solve(cfg, None, 1))
    assert len(capsys.readouterr().out) > 0
    assert solve - envelope <= 0.1e6


def test_deep_put_solves_in_bounded_memory():
    # the n = 10 two-control put, 1,398,101 nodes: the prefix blocks alone
    # were 114 MiB, and expansion plus the envelope peaked at 232 MB.  It
    # peaks at 36.1 MB (26 bytes a node) with an int8 argmin and the sweep's
    # buffer sized to one block; an int64 argmin adds 9.8 MB, and a buffer
    # sized to the widest interior level (262,144 nodes) adds 7.3 MB
    tracemalloc.start()
    try:
        tree = expand_tree(TimeGrid(0.0, 1.0, 10), *PUT[1:])
        sol = robust_envelope(tree, american_put(strike=1.0, base=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.n_nodes == 1_398_101
    assert np.isfinite(sol.root_value())
    assert peak <= 40e6
