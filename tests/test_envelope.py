"""Backward sweeps: the robust envelope, its stopping data, the classic
per-strategy Snell sweep, and the worst-case terminal expectation."""

import math

import numpy as np
import pytest

from robuststop import (
    ControlSet,
    ControlStrategy,
    DriftSpec,
    StrategyError,
    TimeGrid,
    american_put,
    classic_snell,
    constant_reward,
    expand_tree,
    nonlinear_expectation,
    reward_values,
    robust_envelope,
    stopped_value,
    tau_delta,
)
from robuststop.envelope import forward_pass


def test_inst_a_hand_values(inst_a):
    tree, Y = inst_a
    sol = robust_envelope(tree, Y)
    assert sol.root_value() == 0.5
    assert sol.z.tolist() == [0.5, 0.5, 0.5, 1.0, 1.0]
    assert sol.y.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]
    assert sol.argmin_control[0] == 0
    assert sol.stop.tolist() == [False, True, True, True, True]
    assert sol.tau == {(0,): 1, (1,): 1}


def test_inst_b_hand_values(inst_b):
    tree, Y = inst_b
    sol = robust_envelope(tree, Y)
    assert sol.root_value() == 0.5
    assert not sol.stop[0]
    leaves = slice(tree.offsets[-2], tree.n_nodes)
    assert np.array_equal(sol.z[leaves], sol.y[leaves])
    assert sorted(sol.y[leaves].tolist()) == [0.0, 1.0]


def test_put_roots_match_binomial_closed_forms(put_n2, put_n3):
    # the low control is optimal for the put, so the robust roots equal
    # the classic binomial Snell values sqrt(2)/8 and sqrt(3)/8
    sol2 = robust_envelope(*put_n2)
    sol3 = robust_envelope(*put_n3)
    assert abs(sol2.root_value() - math.sqrt(2.0) / 8.0) <= 1e-12
    assert abs(sol3.root_value() - math.sqrt(3.0) / 8.0) <= 1e-12


def test_envelope_dominates_reward(put_n3):
    tree, Y = put_n3
    sol = robust_envelope(tree, Y)
    assert np.all(sol.z >= sol.y)
    leaves = slice(tree.offsets[-2], tree.n_nodes)
    assert np.array_equal(sol.z[leaves], sol.y[leaves])


def test_constant_reward_stops_immediately(inst_a):
    tree, _ = inst_a
    sol = robust_envelope(tree, constant_reward(0.3))
    assert np.all(sol.z == 0.3)
    assert np.all(sol.stop)
    assert sol.tau == {(): 0}


def test_singleton_control_equals_classic_snell():
    grid = TimeGrid(0.0, 1.0, 4)
    tree = expand_tree(grid, 1.0, DriftSpec("zero"), ControlSet([0.7], cap=1.0))
    Y = american_put(strike=1.0, base=0.0)
    sol = robust_envelope(tree, Y)
    snell = classic_snell(tree, ControlStrategy(tree, {i: 0 for i in range(tree.offsets[-2])}), Y)
    assert sol.z.tolist() == snell.values.tolist()
    assert sol.root_value() == snell.root_value


def test_envelope_accepts_precomputed_values(inst_a):
    tree, Y = inst_a
    direct = robust_envelope(tree, Y)
    via_array = robust_envelope(tree, reward_values(tree, Y))
    assert via_array.z.tolist() == direct.z.tolist()
    assert via_array.tau == direct.tau


def test_delta_relaxation_stops_earlier(put_n2):
    tree, Y = put_n2
    sol = robust_envelope(tree, Y)
    assert tau_delta(sol, 0.0) == sol.tau
    assert tau_delta(sol, 5.0) == {(): 0}
    tight = sol.stop_flags(0.0)
    loose = sol.stop_flags(5.0)
    assert np.all(loose[tight])
    assert np.all(loose)


def test_stop_rule_map_is_prefix_keyed(put_n2):
    tree, Y = put_n2
    sol = robust_envelope(tree, Y)
    rm = sol.stop_rule_map(0.0)
    for (k, values), flag in rm.items():
        assert len(values) == k + 1
        assert isinstance(bool(flag), bool)
    # interior nodes with equal observed prefixes cannot disagree
    assert len(rm) == len({key for key in rm})


def test_stopped_envelope_values(inst_a):
    tree, Y = inst_a
    sol = robust_envelope(tree, Y)
    # stopping now freezes Z at the node; stopping at the terminal takes
    # the worst-case mean of the leaf values: both give the root value
    # because the envelope is a worst-case martingale up to tau_star
    assert stopped_value(sol, 0, 0) == 0.5
    assert stopped_value(sol, 0, 1) == 0.5


def test_nonlinear_expectation_picks_worst_control(inst_a):
    tree, _ = inst_a
    val = nonlinear_expectation(tree, lambda p: abs(float(p[-1, 0])))
    assert val == 0.5
    per_leaf = np.zeros(tree.n_nodes)
    per_leaf[tree.offsets[-2]:] = np.abs(tree.states_at(tree.grid.n_steps)[:, 0])
    assert nonlinear_expectation(tree, per_leaf) == 0.5


def test_pre_history_splice_matches_shifted_level():
    from robuststop import Path

    # the tree spans the canonical suffix space; the history path carries
    # the observed levels, its last value being the level at the root
    controls = ControlSet([0.5, 1.0], cap=1.0)
    grid = TimeGrid(0.0, 1.0, 2)
    Y = american_put(strike=1.0, base=0.0)
    canonical = expand_tree(grid, 0.0, DriftSpec("zero"), controls)
    pre = Path(TimeGrid(0.0, 1.0, 1), [0.0, 1.1])
    spliced = robust_envelope(canonical, Y, pre_history=pre)
    shifted_tree = expand_tree(grid, 1.1, DriftSpec("zero"), controls)
    shifted = robust_envelope(shifted_tree, Y)
    assert abs(spliced.root_value() - shifted.root_value()) <= 1e-12


def test_delta_guard_handles_scale():
    # a tie at z == y must register as a stop even when the values carry
    # rounding noise at large magnitude
    grid = TimeGrid(0.0, 1.0, 1)
    tree = expand_tree(grid, 1e9, DriftSpec("zero"), ControlSet([1.0], cap=1.0))
    sol = robust_envelope(tree, constant_reward(1e9))
    assert np.all(sol.stop)


def test_forward_pass_follows_a_strategy_to_its_stops(rand_instance):
    rng = np.random.default_rng(3)
    for _ in range(20):
        tree, _ = rand_instance(rng)
        strategy = {i: int(rng.integers(len(tree.controls))) for i in range(tree.offsets[-2])}
        flags = rng.random(tree.n_nodes) < 0.3
        flags[tree.root] = False
        out = forward_pass(tree, strategy=strategy, stops=flags.__getitem__)
        reached, stop, control, weight = out
        # the paths end where they stop or at a leaf, and d = 1 edge
        # weights are powers of two, so the end weights sum to 1 exactly
        ends = np.flatnonzero(stop)
        assert np.all(reached[ends])
        assert math.fsum(weight[ends]) == 1.0
        # only the reached nodes above a stop need a control
        needed = np.flatnonzero(control >= 0).tolist()
        assert needed
        partial = {i: strategy[i] for i in needed}
        again = forward_pass(tree, strategy=ControlStrategy(tree, partial),
                             stops=flags.__getitem__)
        for got, want in zip(again, out):
            assert np.array_equal(got, want)
        drop = needed[int(rng.integers(len(needed)))]
        del partial[drop]
        with pytest.raises(StrategyError, match=f"node {drop}$"):
            forward_pass(tree, strategy=ControlStrategy(tree, partial),
                         stops=flags.__getitem__)


def test_forward_pass_resolves_a_constant_strategy_per_level(put_n2):
    tree, _ = put_n2
    interior = range(tree.offsets[-2])
    for ci in (0, 1, np.int64(1)):
        by_node = forward_pass(tree, strategy={i: int(ci) for i in interior})
        for got, want in zip(forward_pass(tree, strategy=ci), by_node):
            assert np.array_equal(got, want)
    # an out-of-range index fails at the first node that needs a control
    with pytest.raises(StrategyError, match="control index 2 out of range at node 0$"):
        forward_pass(tree, strategy=2)
    with pytest.raises(StrategyError, match="control index -1 out of range at node 3$"):
        forward_pass(tree, 3, strategy=-1)
    # where every reached node stops, none needs one
    flags = np.ones(tree.n_nodes, dtype=bool)
    assert forward_pass(tree, strategy=5, stops=flags.__getitem__)[2].tolist() == [-1] * 21
