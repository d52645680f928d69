"""Brute-force game machinery: adapted stopping rules, control
strategies, expected rewards, minimax enumeration, and pasting."""

import math

import numpy as np
import pytest

from robuststop import (
    ControlSet,
    ControlStrategy,
    DriftSpec,
    ModulusSpec,
    PartitionError,
    SizeError,
    StoppingRule,
    StrategyError,
    TimeGrid,
    american_put,
    custom_reward,
    enumerate_stopping_rules,
    enumerate_strategies,
    expand_tree,
    expected_reward,
    game_values,
    paste_strategies,
    pasting_check,
    prefix_key,
    robust_envelope,
    state_law,
    terminal_abs,
    worst_case_stopped_reward,
)
from conftest import make_collision_tree, make_signed_zero_tree
from robuststop import model
from robuststop.envelope import backward_sweep, forward_pass, stop_mask
from robuststop.game import (
    count_strategies,
    stop_set_table,
    strategy_table,
)


def test_rule_count_one_step(inst_a):
    tree, _ = inst_a
    rules = list(enumerate_stopping_rules(tree))
    # one non-terminal prefix (the root): stop there or not
    assert len(rules) == 2
    assert all(r.terminal_index == 1 for r in rules)


def test_rule_count_two_steps_single_control():
    tree = expand_tree(
        TimeGrid(0.0, 1.0, 2), 1.0, DriftSpec("zero"), ControlSet([1.0], cap=1.0)
    )
    # three non-terminal prefixes (root and two depth-1 states) -> 8 maps
    assert len(list(enumerate_stopping_rules(tree))) == 8


def test_rule_enumeration_cap():
    tree = expand_tree(
        TimeGrid(0.0, 1.0, 3), 1.0, DriftSpec("zero"), ControlSet([0.5, 1.0], cap=1.0)
    )
    with pytest.raises(SizeError):
        list(enumerate_stopping_rules(tree, cap=3))


def test_rules_are_adapted(put_n2):
    tree, _ = put_n2
    from robuststop import RuleError

    for rule in enumerate_stopping_rules(tree):
        mask = stop_mask(tree, rule)
        # the nodes the mask evaluates: reached with no stop above them
        reached = forward_pass(tree, stops=mask.__getitem__)[0]
        for l, block in enumerate(tree.blocks):
            for j, row in enumerate(block):
                if reached[tree.offsets[l] + j]:
                    by_prefix = rule(tree.k0 + l, row.copy())
                    assert by_prefix == mask[tree.offsets[l] + j]
        assert rule(tree.grid.n_steps, tree.blocks[-1][-1])
    full = next(iter(enumerate_stopping_rules(tree)))
    with pytest.raises(RuleError):
        full(0, np.array([[42.0]]))


def test_strategy_counts(inst_a):
    tree_a, _ = inst_a
    assert count_strategies(tree_a) == 2
    assert len(list(enumerate_strategies(tree_a))) == 2
    t2 = expand_tree(
        TimeGrid(0.0, 1.0, 2), 1.0, DriftSpec("zero"), ControlSet([0.5, 1.0], cap=1.0)
    )
    # root choice times a choice at each of the two reachable children
    assert count_strategies(t2) == 8
    strategies = list(enumerate_strategies(t2))
    assert len(strategies) == 8
    for s in strategies:
        s.validate()


def test_strategy_validation(inst_a):
    tree, _ = inst_a
    with pytest.raises(StrategyError):
        ControlStrategy(tree, {}).validate()
    with pytest.raises(StrategyError):
        ControlStrategy(tree, {0: 5}).validate()
    ControlStrategy(tree, {0: 1}).validate()


def test_expected_reward_hand_values(inst_a):
    tree, Y = inst_a
    continue_rule = StoppingRule(1, {key: False for key in _nonterminal_keys(tree)})
    low = ControlStrategy(tree, {0: 0})
    high = ControlStrategy(tree, {0: 1})
    assert expected_reward(tree, low, continue_rule, Y) == 0.5
    assert expected_reward(tree, high, continue_rule, Y) == 1.0
    stop_rule = StoppingRule(1, {key: True for key in _nonterminal_keys(tree)})
    assert expected_reward(tree, high, stop_rule, Y) == 0.0


def _nonterminal_keys(tree):
    return {prefix_key(tree.k0 + l, row)
            for l, block in enumerate(tree.blocks[:-1]) for row in block}


def test_worst_case_stopped_reward(inst_a):
    tree, Y = inst_a
    continue_rule = StoppingRule(1, {key: False for key in _nonterminal_keys(tree)})
    assert worst_case_stopped_reward(tree, Y, continue_rule) == 0.5


def test_game_inst_a_full_agreement(inst_a):
    tree, Y = inst_a
    report = game_values(tree, Y)
    assert report.lower == 0.5
    assert report.upper == 0.5
    assert report.envelope_root == 0.5
    assert report.value_at_tau_star == 0.5
    assert report.max_gap == 0.0
    assert report.agree and report.saddle
    assert report.n_strategies == 2
    assert report.n_stopping_times == 2
    assert report.n_rule_maps == 2
    assert report.optimal_strategy.assignments[0] == 0


def test_game_put_n2(put_n2):
    tree, Y = put_n2
    report = game_values(tree, Y)
    assert report.agree and report.saddle
    assert abs(report.upper - math.sqrt(2.0) / 8.0) <= 1e-12
    assert report.n_strategies == 8
    assert report.n_rule_maps == 32


def test_lower_value_matches_rule_map_enumeration(put_n2):
    # independent route: best adapted stopping value over all explicit
    # prefix-keyed maps, controller best-responding each time
    tree, Y = put_n2
    report = game_values(tree, Y)
    best = -np.inf
    for rule in enumerate_stopping_rules(tree):
        best = max(best, worst_case_stopped_reward(tree, Y, rule))
    assert best == report.lower


def test_minimax_order_on_random_instances(rand_instance):
    rng = np.random.default_rng(99)
    for _ in range(30):
        tree, Y = rand_instance(rng)
        report = game_values(tree, Y)
        assert report.lower <= report.upper
        assert report.agree, report.max_gap


@pytest.mark.parametrize("n_steps, n_nodes, n_rule_maps, value", [
    (1, 9, 2, 1.4142135623730951),
    (2, 73, 128, 1.2071067811865475),
    pytest.param(None, 3, 2, 0.0, id="signed-zero"),
])
def test_prefix_collision_uses_rule_maps(n_steps, n_nodes, n_rule_maps, value):
    # two nodes observe the same prefix, so the lower value must
    # enumerate prefix maps, not node-keyed stop sets
    tree = make_signed_zero_tree() if n_steps is None else make_collision_tree(n_steps)
    assert tree.n_nodes == n_nodes
    assert np.any(tree.prefix_class != np.arange(tree.n_nodes))
    report = game_values(tree, terminal_abs())
    assert report.n_rule_maps == n_rule_maps
    assert report.lower == report.upper == value
    assert report.envelope_root == report.value_at_tau_star == value
    assert report.agree and report.saddle


def test_game_size_caps(put_n2, monkeypatch):
    tree, Y = put_n2
    # the collision check reads the prefix classes, so a rejected run
    # builds no prefix key
    keys = []
    monkeypatch.setattr(model, "prefix_key", lambda *args: keys.append(args))
    with pytest.raises(SizeError, match="solver.strategy_cap"):
        game_values(tree, Y, strategy_cap=3)
    with pytest.raises(SizeError, match="solver.stop_time_cap"):
        game_values(tree, Y, stop_time_cap=2)
    assert keys == []


def test_game_caps_come_before_the_payoff(put_n2):
    tree, _ = put_n2
    calls = []

    def table(k, track):
        calls.append(k)
        return float(track[-1, 0])

    Y = custom_reward(table, ModulusSpec("linear", 1.0), lower_bound=-10.0)
    with pytest.raises(SizeError, match="solver.strategy_cap"):
        game_values(tree, Y, strategy_cap=1)
    assert calls == []
    assert game_values(tree, Y).agree
    assert len(calls) == tree.n_nodes


def test_referee_tables_factor_into_sweeps(rand_instance):
    # the verify checks rest on these identities: the max and the min
    # over every stopping set, and the min over every strategy, are one
    # backward sweep each, bit for bit
    rng = np.random.default_rng(11)
    for _ in range(20):
        tree, Y = rand_instance(rng)
        sol = robust_envelope(tree, Y)
        z = sol.z
        stops = stop_set_table(tree, z)
        assert np.max(stops) == backward_sweep(tree, z, floor=z)[0][tree.root]
        assert np.min(stops) == backward_sweep(tree, z, ceiling=z)[0][tree.root]
        assert np.min(strategy_table(tree, sol.y)) == sol.root_value()


def test_state_law_is_a_probability(put_n2):
    tree, _ = put_n2
    law = state_law(tree, ControlStrategy(tree, {i: 0 for i in range(tree.offsets[-2])}))
    weights = np.array(list(law.values()))
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(weights > 0)
    assert len(law) == 4


def test_pasting_changes_law_only_below_switched_cell(put_n2):
    tree, _ = put_n2
    base = ControlStrategy(tree, {i: 0 for i in range(tree.offsets[-2])})
    piece = ControlStrategy(tree, {i: 1 for i in range(tree.offsets[-2])})
    up = lambda p: p[-1][0] > 1.0
    pasted = paste_strategies(base, 0.5, [lambda p: not up(p), up], [piece])
    law_base = state_law(tree, base)
    law_pasted = state_law(tree, pasted)
    down_atoms = {key: w for key, w in law_base.items() if key[1][1] < 1.0}
    for key, w in down_atoms.items():
        assert law_pasted[key] == w
    up_base = {k for k in law_base if k[1][1] > 1.0}
    up_pasted = {k for k in law_pasted if k[1][1] > 1.0}
    assert up_base.isdisjoint(up_pasted)


def test_pasting_check_zero_slack(put_n2):
    tree, Y = put_n2
    base = ControlStrategy(tree, {i: 0 for i in range(tree.offsets[-2])})
    piece = ControlStrategy(tree, {i: 1 for i in range(tree.offsets[-2])})
    up = lambda p: p[-1][0] > 1.0
    report = pasting_check(base, 0.5, [lambda p: not up(p), up], [piece], Y)
    assert report.ok
    assert report.worst_atom_gap == 0.0
    assert report.worst_marginal_gap == 0.0
    assert report.worst_snell_excess <= 0.0
    assert report.failures == []


def test_pasting_rejects_bad_partitions(put_n2):
    tree, _ = put_n2
    base = ControlStrategy(tree, {i: 0 for i in range(tree.offsets[-2])})
    piece = ControlStrategy(tree, {i: 1 for i in range(tree.offsets[-2])})
    always = lambda p: True
    with pytest.raises(PartitionError):
        paste_strategies(base, 0.5, [always, always], [piece])
    never = lambda p: False
    with pytest.raises(PartitionError):
        paste_strategies(base, 0.5, [never, never], [piece])
    with pytest.raises(PartitionError):
        paste_strategies(base, 0.5, [always], [piece])
