"""Brute-force game machinery: adapted stopping rules, control
strategies, expected rewards, minimax enumeration, and pasting."""

import math
import tracemalloc

import numpy as np
import pytest

from robuststop import (
    ControlSet,
    DriftSpec,
    GameReport,
    ModulusSpec,
    RuleError,
    SizeError,
    StoppingRule,
    StrategyError,
    TimeGrid,
    american_put,
    constant_reward,
    custom_reward,
    enumerate_stopping_rules,
    expand_tree,
    expected_reward,
    game_values,
    robust_envelope,
    terminal_abs,
    worst_case_stopped_reward,
)
from conftest import (
    make_collision_tree,
    make_put,
    make_signed_zero_tree,
    random_instance,
    rule_keys,
)
from referees import (
    PartitionError,
    as_strategy,
    enumerate_strategies,
    paste_strategies,
    pasting_check,
    prefix_key,
    state_law,
)
from robuststop import envelope, game
from robuststop.envelope import _y_array, backward_sweep, forward_pass, stop_mask
from robuststop.game import (
    _table_sizes,
    stop_set_max,
    stop_set_table,
    strategy_table,
)


def test_rule_count_one_step(inst_a):
    tree, _ = inst_a
    rules = list(enumerate_stopping_rules(tree))
    # one non-terminal prefix (the root): stop there or not
    assert [r.flags.tolist() for r in rules] == [[0, -1, -1, -1, -1], [1, -1, -1, -1, -1]]
    assert all(r.tree is tree for r in rules)


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
    interior = tree.offsets[-2]
    for rule in enumerate_stopping_rules(tree):
        mask = stop_mask(tree, rule)
        by_prefix = rule_keys(rule)
        # the nodes the mask evaluates: reached with no stop above them;
        # each stops by the decision on its own observed prefix
        reached = forward_pass(tree, stops=mask.__getitem__)[0]
        for l in range(len(tree.states) - 1):
            for j, row in enumerate(tree.level_prefixes(l)):
                if reached[tree.offsets[l] + j]:
                    assert by_prefix[prefix_key(tree.k0 + l, row)] == mask[tree.offsets[l] + j]
        assert np.all(mask[interior:])
    # a rule must decide every interior class, even below a stop: it
    # fails at the first undecided node, in level order
    flags = np.full(tree.n_nodes, -1, dtype=np.int8)
    with pytest.raises(RuleError, match="at node 0"):
        stop_mask(tree, StoppingRule(tree, flags))
    flags[0] = 1
    with pytest.raises(RuleError, match="at node 1"):
        stop_mask(tree, StoppingRule(tree, flags))
    flags[:interior] = 1
    assert np.all(stop_mask(tree, StoppingRule(tree, flags)))
    with pytest.raises(RuleError, match="another tree"):
        stop_mask(make_put(2)[0], StoppingRule(tree, flags))


def test_strategy_counts(inst_a):
    tree_a, _ = inst_a
    assert _table_sizes(tree_a)[0] == 2
    assert len(list(enumerate_strategies(tree_a))) == 2
    t2 = expand_tree(
        TimeGrid(0.0, 1.0, 2), 1.0, DriftSpec("zero"), ControlSet([0.5, 1.0], cap=1.0)
    )
    # root choice times a choice at each of the two reachable children
    assert _table_sizes(t2)[0] == 8
    strategies = list(enumerate_strategies(t2))
    assert len(strategies) == 8
    for s in strategies:
        assert s.dtype == np.int64 and s.shape == (t2.n_nodes,)
        forward_pass(t2, strategy=s)


def test_strategy_validation(inst_a):
    tree, _ = inst_a
    with pytest.raises(StrategyError, match="assigns no control to node 0$"):
        forward_pass(tree, strategy=as_strategy(tree, {}))
    with pytest.raises(StrategyError, match="control index 5 out of range at node 0$"):
        forward_pass(tree, strategy=as_strategy(tree, {0: 5}))
    # a negative index other than -1 is out of range, not a missing control
    with pytest.raises(StrategyError, match="control index -2 out of range at node 0$"):
        forward_pass(tree, strategy=as_strategy(tree, {0: -2}))
    forward_pass(tree, strategy=as_strategy(tree, {0: 1}))
    with pytest.raises(ValueError):
        forward_pass(tree, strategy=np.zeros(tree.n_nodes - 1, dtype=np.int64))


def test_expected_reward_hand_values(inst_a):
    tree, Y = inst_a
    continue_rule, stop_rule = enumerate_stopping_rules(tree)
    low = np.zeros(tree.n_nodes, dtype=np.int64)
    high = np.ones(tree.n_nodes, dtype=np.int64)
    assert expected_reward(tree, low, continue_rule, Y) == 0.5
    assert expected_reward(tree, high, continue_rule, Y) == 1.0
    assert expected_reward(tree, high, stop_rule, Y) == 0.0


def test_worst_case_stopped_reward(inst_a):
    tree, Y = inst_a
    continue_rule = next(enumerate_stopping_rules(tree))
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
    assert report.optimal_strategy[0] == 0


def test_game_put_n2(put_n2):
    tree, Y = put_n2
    report = game_values(tree, Y)
    assert report.agree and report.saddle
    assert abs(report.upper - math.sqrt(2.0) / 8.0) <= 1e-12
    assert report.n_strategies == 8
    assert report.n_rule_maps == 32


def test_game_gaps_scale_with_the_values(inst_a):
    # the agree and saddle gaps are bounded by tolerance * max(1, the
    # largest finite |value| compared): at 2.2e9 a gap of one ulp passes,
    # three times the scaled bound fails, and at unit scale the bound is
    # the tolerance itself; an infinite value scales nothing
    report = game_values(*inst_a)
    value = 2165063509.4610963
    bound = report.tolerance * value

    def remade(saddle_value, vals=(value,) * 4):
        fields = {k: getattr(report, k) for k in (
            "optimal_strategy", "optimal_rule", "n_strategies", "n_stopping_times",
            "n_rule_maps", "tolerance")}
        return GameReport(*vals, saddle_value=saddle_value, **fields)

    assert remade(math.nextafter(value, math.inf)).saddle
    assert remade(value + 0.9 * bound).saddle
    assert not remade(value + 3 * bound).saddle
    assert not remade(value, (value, value + 3 * bound, value, value)).agree
    assert remade(value, (value, value + 0.9 * bound, value, value)).agree
    assert not remade(0.5 + 2 * report.tolerance, (0.5,) * 4).saddle
    assert not remade(value, (value, math.inf, value, value)).agree


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


@pytest.mark.parametrize("budget", [1, 2000, None], ids=["one-rule", "few-rules", "default"])
def test_rule_columns_keep_the_first_best_rule_bit_for_bit(budget, monkeypatch):
    # the collision trees' rules swept as stop-mask columns, one, a few or
    # all to a sweep, against one worst_case_stopped_reward sweep per rule
    # kept by v > lower: payoffs whose rules tie at 0.0 and -0.0, and a NaN
    # leaf, where only the first of equal roots may win
    if budget is not None:
        monkeypatch.setattr(envelope, "COLUMN_BYTES", budget)
    for tree in (make_collision_tree(1), make_collision_tree(2), make_signed_zero_tree(2)):
        y = _y_array(tree, terminal_abs())
        nan = y.copy()
        nan[-1] = np.nan
        ties = np.where(np.arange(tree.n_nodes) % 3 == 0, 0.0, -0.0)
        for vals in (y, -y, ties, -ties, nan):
            lower = -np.inf
            for rule in enumerate_stopping_rules(tree):
                v = worst_case_stopped_reward(tree, vals, rule)
                if v > lower:
                    lower = v
            assert float(game._rules_max(tree, vals)).hex() == float(lower).hex()


def test_game_size_caps(put_n2, monkeypatch):
    tree, Y = put_n2
    # the collision check reads the prefix classes, so a rejected run
    # rebuilds no prefix
    keys = []
    monkeypatch.setattr(tree, "level_prefixes", lambda *args: keys.append(args))
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
        assert stop_set_max(tree, z) == np.max(stops)
        assert np.min(stops) == backward_sweep(tree, z, ceiling=z)[0][tree.root]
        assert np.min(strategy_table(tree, sol.y)) == sol.root_value()


def _put_n3(strike):
    tree = expand_tree(TimeGrid(0.0, 1.0, 3), 1.0, DriftSpec("zero"),
                       ControlSet([0.5, 1.0], cap=1.0))
    return tree, american_put(strike=strike, base=0.0)


def _stop_set_max_cases():
    """(tree, vals, whether the table's max is zero or NaN), for
    stop_set_max against the table it never builds."""
    rng = np.random.default_rng(26)
    for _ in range(20):
        tree, Y = random_instance(rng)
        yield tree, _y_array(tree, Y), False
    tree, Y = _put_n3(1.2)
    yield tree, _y_array(tree, Y), False
    three = expand_tree(TimeGrid(0.0, 1.0, 2), 0.2, DriftSpec("zero"),
                        ControlSet([0.4, 0.7, 1.0], cap=1.0))
    yield three, _y_array(three, american_put(strike=0.5, base=0.0)), False
    wide = expand_tree(TimeGrid(0.0, 1.0, 2), np.array([0.0, 0.0]),
                       DriftSpec("zero"),
                       ControlSet([0.5 * np.eye(2), np.array([[1.0, 0.2], [0.2, 0.8]])],
                                  cap=1.2))
    yield wide, _y_array(wide, terminal_abs()), False
    # every entry -0.0; then zeros of both signs; then one NaN leaf
    yield tree, _y_array(tree, constant_reward(-0.0)), True
    ties = np.where(np.arange(tree.n_nodes) % 3 == 0, 0.0, -0.0)
    yield tree, ties, True
    nan = _y_array(tree, Y).copy()
    nan[-1] = np.nan
    yield tree, nan, True


@pytest.mark.parametrize("slab", [1, 7, game._SLAB])
def test_stop_set_max_is_the_table_max_bit_for_bit(slab, monkeypatch):
    # slabs of one control-0 row, of a few rows, and of the default size;
    # only a zero or NaN max may build the table
    monkeypatch.setattr(game, "_SLAB", slab)
    built = []
    monkeypatch.setattr(game, "stop_set_table",
                        lambda *a: built.append(1) or stop_set_table(*a))
    for tree, vals, fallback in _stop_set_max_cases():
        built.clear()
        best = stop_set_max(tree, vals)
        assert bool(built) == fallback
        assert float(best).hex() == float(np.max(stop_set_table(tree, vals))).hex()


def test_a_zero_or_nan_max_builds_no_table_past_the_default_cap(monkeypatch):
    # the n = 3 put's 83,522 stopping sets, over a lowered default: a
    # zero or NaN max is refused before the slab pass, any other max is
    # still the table's
    tree, Y = _put_n3(1.2)
    y = _y_array(tree, Y)
    expected = float(np.max(stop_set_table(tree, y))).hex()
    nan = y.copy()
    nan[-1] = np.nan
    zeros = (_y_array(tree, constant_reward(-0.0)), np.zeros(tree.n_nodes), nan)
    over = "83522 stopping times exceed the cap 83521"
    monkeypatch.setattr(game, "STOP_TIME_CAP", 83_521)
    monkeypatch.setattr(game, "stop_set_table", None)
    assert float(stop_set_max(tree, y)).hex() == expected
    fold = game._stop_set_fold
    monkeypatch.setattr(game, "_stop_set_fold", lambda *a: pytest.fail("folded"))
    for vals in zeros:
        with pytest.raises(SizeError, match=over):
            stop_set_max(tree, vals)
    # where the sweep foresaw no zero, the slab pass's max is checked
    monkeypatch.setattr(game, "_stop_set_fold", fold)
    monkeypatch.setattr(game, "backward_sweep", lambda t, v, floor: (np.ones(t.n_nodes), None))
    for vals in zeros[:2]:
        with pytest.raises(SizeError, match=over):
            stop_set_max(tree, vals)


def test_stop_set_max_refuses_a_fold_past_its_byte_budget(monkeypatch):
    # the n = 3 put folds 2 * 17^2 entries at the root and reduces a slab
    # of _SLAB: 135,696 bytes at once, so one byte less is refused before
    # the fold; a tree that is only a root has no fold to refuse
    tree, Y = _put_n3(1.2)
    y = _y_array(tree, Y)
    expected = float(stop_set_max(tree, y)).hex()
    monkeypatch.setattr(game, "_HELD_BYTES", 135_696)
    assert float(stop_set_max(tree, y)).hex() == expected
    monkeypatch.setattr(game, "_HELD_BYTES", 135_695)
    fold = game._stop_set_fold
    monkeypatch.setattr(game, "_stop_set_fold", lambda *a: pytest.fail("folded"))
    with pytest.raises(SizeError, match="135696 bytes of stopping-set fold exceed the cap "
                                        "135695; .*solver.stop_time_cap"):
        stop_set_max(tree, y)
    monkeypatch.setattr(game, "_stop_set_fold", fold)
    root = expand_tree(TimeGrid(0.0, 1.0, 2), None, DriftSpec("zero"),
                       ControlSet([0.5, 1.0], cap=1.0), init_prefix=[[0.0], [1.0], [0.5]])
    monkeypatch.setattr(game, "_HELD_BYTES", 0)
    assert stop_set_max(root, np.array([0.25])) == 0.25


def test_stop_set_max_refuses_a_min_grid_past_its_entry_budget(monkeypatch):
    # the n = 3 put reduces a root min grid of 17^4 = 83,521 entries, one
    # per stopping set but the immediate stop: one entry less is refused
    # before the fold, and the default budget admits every count that the
    # default stop_time_cap admits
    assert game._GRID_ENTRIES >= game.STOP_TIME_CAP
    tree, Y = _put_n3(1.2)
    y = _y_array(tree, Y)
    expected = float(stop_set_max(tree, y)).hex()
    monkeypatch.setattr(game, "_GRID_ENTRIES", 83_521)
    assert float(stop_set_max(tree, y)).hex() == expected
    monkeypatch.setattr(game, "_GRID_ENTRIES", 83_520)
    monkeypatch.setattr(game, "_stop_set_fold", lambda *a: pytest.fail("folded"))
    with pytest.raises(SizeError, match="83521 entries of stopping-set min grid exceed the "
                                        "cap 83520; .*solver.stop_time_cap"):
        stop_set_max(tree, y)


def test_oracle_never_builds_the_root_stop_set_row():
    # the n = 3 two-control put: 83,522 stopping sets, a 0.67 MB root row;
    # building that row twice, as the min grid and with the immediate
    # stop, peaked at 1.35 MB
    tree, Y = _put_n3(1.2)
    assert _table_sizes(tree, stop_sets=True)[0] == 83_522
    tracemalloc.start()
    try:
        report = game_values(tree, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.agree and report.saddle
    assert peak < 0.5e6


def test_state_law_is_a_probability(put_n2):
    tree, _ = put_n2
    law = state_law(tree, np.zeros(tree.n_nodes, dtype=np.int64))
    weights = np.array(list(law.values()))
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(weights > 0)
    assert len(law) == 4


def test_pasting_changes_law_only_below_switched_cell(put_n2):
    tree, _ = put_n2
    base = np.zeros(tree.n_nodes, dtype=np.int64)
    piece = np.ones(tree.n_nodes, dtype=np.int64)
    up = lambda p: p[-1][0] > 1.0
    pasted = paste_strategies(tree, base, 1, [lambda p: not up(p), up], [piece])
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
    base = np.zeros(tree.n_nodes, dtype=np.int64)
    piece = np.ones(tree.n_nodes, dtype=np.int64)
    up = lambda p: p[-1][0] > 1.0
    report = pasting_check(tree, base, 1, [lambda p: not up(p), up], [piece], Y)
    assert report.ok
    assert report.worst_atom_gap == 0.0
    assert report.worst_marginal_gap == 0.0
    assert report.worst_snell_excess <= 0.0
    assert report.failures == []


def test_pasting_rejects_bad_partitions(put_n2):
    tree, _ = put_n2
    base = np.zeros(tree.n_nodes, dtype=np.int64)
    piece = np.ones(tree.n_nodes, dtype=np.int64)
    always = lambda p: True
    with pytest.raises(PartitionError):
        paste_strategies(tree, base, 1, [always, always], [piece])
    never = lambda p: False
    with pytest.raises(PartitionError):
        paste_strategies(tree, base, 1, [never, never], [piece])
    with pytest.raises(PartitionError):
        paste_strategies(tree, base, 1, [always], [piece])
