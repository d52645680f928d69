"""Backward sweeps: the robust envelope, its stopping data, the classic
per-strategy Snell sweep, and the worst-case terminal expectation."""

import bisect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import rule_keys
from referees import (
    as_strategy,
    max_control_envelope,
    nonlinear_expectation,
    scenario_tau,
    solution_tau,
    stopped_value,
)
from robuststop import (
    ControlSet,
    DriftSpec,
    StrategyError,
    TimeGrid,
    american_put,
    classic_snell,
    constant_reward,
    expand_tree,
    lookback_max,
    prefix_key,
    reward_values,
    robust_envelope,
    running_sum,
    terminal_abs,
)
import robuststop.envelope as envelope_module
from robuststop.envelope import forward_pass
from robuststop.verify import check_tau_monotone


def test_inst_a_hand_values(inst_a):
    tree, Y = inst_a
    sol = robust_envelope(tree, Y)
    assert sol.root_value() == 0.5
    assert sol.z.tolist() == [0.5, 0.5, 0.5, 1.0, 1.0]
    assert sol.y.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]
    assert sol.argmin_control[0] == 0
    assert sol.stop.tolist() == [False, True, True, True, True]
    assert solution_tau(sol) == {(0,): 1, (1,): 1}


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
    assert solution_tau(sol) == {(): 0}


def test_singleton_control_equals_classic_snell():
    grid = TimeGrid(0.0, 1.0, 4)
    tree = expand_tree(grid, 1.0, DriftSpec("zero"), ControlSet([0.7], cap=1.0))
    Y = american_put(strike=1.0, base=0.0)
    sol = robust_envelope(tree, Y)
    snell = classic_snell(tree, np.zeros(tree.n_nodes, dtype=np.int64), Y)
    assert sol.z.tolist() == snell.values.tolist()
    assert sol.root_value() == snell.root_value


def test_envelope_accepts_precomputed_values(inst_a):
    tree, Y = inst_a
    direct = robust_envelope(tree, Y)
    via_array = robust_envelope(tree, reward_values(tree, Y))
    assert via_array.z.tolist() == direct.z.tolist()
    assert solution_tau(via_array) == solution_tau(direct)


def test_delta_relaxation_stops_earlier(put_n2):
    tree, Y = put_n2
    sol = robust_envelope(tree, Y)
    tight = sol.stop_rule_map(0.0).flags[tree.prefix_class] == 1
    loose = sol.stop_rule_map(5.0).flags[tree.prefix_class] == 1
    assert np.array_equal(tight, sol.stop)
    assert scenario_tau(tree, loose, sol.argmin_control) == {(): 0}
    assert np.all(loose[tight])
    assert np.all(loose)


def test_stop_rule_map_is_prefix_keyed(put_n2):
    tree, Y = put_n2
    sol = robust_envelope(tree, Y)
    by_prefix = rule_keys(sol.stop_rule_map(0.0))
    # one decision per observed prefix, and each node stops by the
    # decision on its own prefix
    assert len(by_prefix) == len(set(tree.prefix_class.tolist()))
    for l in range(len(tree.states)):
        for j, row in enumerate(tree.level_prefixes(l)):
            assert by_prefix[prefix_key(tree.k0 + l, row)] == sol.stop[tree.offsets[l] + j]


def test_stop_flags_reject_a_negative_delta(put_n2):
    sol = robust_envelope(*put_n2)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        sol.stop_rule_map(-1.0)
    assert np.array_equal(sol.stop_rule_map(0.0).flags, sol.stop_rule_map().flags)


def test_envelope_rejects_a_negative_delta_at_the_call(put_n2):
    # the stop region is derived on first read, but a bad delta still
    # fails where it is passed
    with pytest.raises(ValueError, match="delta must be >= 0"):
        robust_envelope(*put_n2, delta=-1.0)


def test_stop_region_and_tau_are_derived_on_first_read(monkeypatch, put_n3):
    # tau* is read only through the stop region: solve's summary of it
    # derives the region once, and the region is kept
    calls = {"_meets": 0, "_tau_extent": 0}
    for name in calls:
        real = getattr(envelope_module, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(envelope_module, name, counted)
    tree, Y = put_n3
    sol = robust_envelope(tree, Y)
    assert calls == {"_meets": 0, "_tau_extent": 0}
    assert abs(sol.root_value() - math.sqrt(3.0) / 8.0) <= 1e-12
    assert calls == {"_meets": 0, "_tau_extent": 0}
    extent = sol.tau_extent()
    assert calls == {"_meets": 1, "_tau_extent": 1}
    stop = sol.stop
    assert sol.tau_extent() == extent and sol.stop is stop
    assert calls == {"_meets": 1, "_tau_extent": 2}
    assert np.array_equal(sol.stop, envelope_module._meets(sol.z, sol.y, 0.0))


def test_stop_rule_map_scales_to_the_deep_put():
    # the n = 10 two-control put: 1,398,101 nodes, each its own class
    tree = expand_tree(TimeGrid(0.0, 1.0, 10), 1.0, DriftSpec("zero"),
                       ControlSet([0.5, 1.0], cap=1.0))
    sol = robust_envelope(tree, american_put(strike=1.0, base=0.0))
    # the first rule also builds the tree's prefix classes, so the bound
    # covers both
    tracemalloc.start()
    try:
        rule = sol.stop_rule_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.n_nodes == 1_398_101
    assert np.array_equal(rule.flags[tree.prefix_class] == 1, sol.stop)
    assert peak <= 50e6


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


def test_init_prefix_matches_shifted_level():
    # resuming from a stored history at time 1/3 is solving from its last
    # level on the grid that starts there
    controls = ControlSet([0.5, 1.0], cap=1.0)
    Y = american_put(strike=1.0, base=0.0)
    resumed = expand_tree(TimeGrid(0.0, 1.0, 3), None, DriftSpec("zero"), controls,
                          init_prefix=[[0.0], [1.1]])
    shifted = expand_tree(TimeGrid(1.0 / 3.0, 1.0, 2), 1.1, DriftSpec("zero"), controls)
    value = robust_envelope(resumed, Y).root_value()
    assert value == robust_envelope(shifted, Y).root_value() == 0.11933756729740641


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
        strategy = as_strategy(tree, {i: int(rng.integers(len(tree.controls)))
                                      for i in range(tree.offsets[-2])})
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
        again = forward_pass(tree, strategy=as_strategy(tree, partial),
                             stops=flags.__getitem__)
        for got, want in zip(again, out):
            assert np.array_equal(got, want)
        drop = needed[int(rng.integers(len(needed)))]
        del partial[drop]
        with pytest.raises(StrategyError, match=f"node {drop}$"):
            forward_pass(tree, strategy=as_strategy(tree, partial),
                         stops=flags.__getitem__)


def test_forward_pass_resolves_a_constant_strategy_per_level(put_n2):
    tree, _ = put_n2
    interior = range(tree.offsets[-2])
    for ci in (0, 1, np.int64(1)):
        by_node = forward_pass(tree, strategy=as_strategy(tree, dict.fromkeys(interior, int(ci))))
        for got, want in zip(forward_pass(tree, strategy=ci), by_node):
            assert np.array_equal(got, want)
    # an out-of-range index fails at the first node that needs a control
    with pytest.raises(StrategyError, match="control index 2 out of range at node 0$"):
        forward_pass(tree, strategy=2)
    with pytest.raises(StrategyError, match="assigns no control to node 3$"):
        forward_pass(tree, 3, strategy=-1)
    with pytest.raises(StrategyError, match="control index -2 out of range at node 3$"):
        forward_pass(tree, 3, strategy=-2)
    # where every reached node stops, none needs one
    flags = np.ones(tree.n_nodes, dtype=bool)
    assert forward_pass(tree, strategy=5, stops=flags.__getitem__)[2].tolist() == [-1] * 21


@pytest.mark.parametrize("level", [0, 1])
def test_forward_pass_ends_at_the_first_level_it_does_not_reach(put_n3, level):
    # every node from `level` down stops, so the walk reaches levels 0
    # to `level` only: stops is called once on each and never on an
    # empty id array, and the levels below keep their starting values
    tree, _ = put_n3
    flags = np.zeros(tree.n_nodes, dtype=bool)
    flags[tree.offsets[level]:] = True
    calls = []

    def stops(ids):
        calls.append(ids.tolist())
        return flags[ids]

    reached, stop, control, weight = forward_pass(tree, strategy=0, stops=stops)
    assert len(calls) == level + 1 and all(calls)
    # control 0's two outcomes at the root, each with weight 1/2
    ends = [0] if level == 0 else [1, 2]
    assert np.flatnonzero(reached).tolist() == list(range(level)) + ends
    assert np.flatnonzero(stop).tolist() == ends
    assert control.tolist() == [0] * level + [-1] * (tree.n_nodes - level)
    assert weight[ends].tolist() == ([1.0] if level == 0 else [0.5, 0.5])
    assert not weight[tree.offsets[level + 1]:].any()


@pytest.mark.parametrize("node", [0, 1])
def test_sweep_marks_leaves_no_control_and_outside_the_subtree(put_n3, node):
    # a root sweep fills nothing up front, so numpy's cache of small
    # buffers is first filled with 7s, which an unwritten entry would show
    tree, Y = put_n3
    y = reward_values(tree, Y)
    allowed = np.ones((tree.n_nodes, 2), dtype=bool)
    allowed[[1, 5, 6], :] = False  # interior nodes with no control, all in node 1's subtree
    junk = [np.full(tree.n_nodes, 7, dtype=np.int64) for _ in range(8)]
    del junk
    v, argmin = envelope_module.backward_sweep(tree, y, allowed=allowed, node=node)
    inside = np.zeros(tree.n_nodes, dtype=bool)
    for lo, hi in tree.subtree_ranges(node):
        inside[lo:hi] = True
    leaves = np.arange(tree.n_nodes) >= tree.offsets[-2]
    none = ~allowed.any(axis=1) & ~leaves
    assert np.all(argmin[~inside | leaves | none] == -1)
    assert np.all(np.isin(argmin[inside & ~leaves & ~none], [0, 1]))
    assert np.all(np.isnan(v[~inside]))
    assert np.all(v[inside & none] == np.inf)
    assert np.array_equal(v[inside & leaves], y[inside & leaves])


# Known-answer laws at depth: each holds for any depth, and neither is a
# fold the sweep checks share, so both test the sweep against something
# outside it.  The trees are the zero-drift two-control put menu at
# x0 = 0 and 1, with 4 to 10 steps (up to 1,398,101 nodes).
LAW_STEPS = (4, 6, 8, 10)
LAW_PAYOFFS = {
    "put": american_put(1.0, base=0.0),
    "terminal-abs": terminal_abs(),
}


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n", LAW_STEPS)
def test_known_answer_laws_at_depth(n):
    grid = TimeGrid(0.0, 1.0, n)
    for x0 in (0.0, 1.0):
        tree = expand_tree(grid, x0, DriftSpec("zero"), ControlSet([0.5, 1.0], cap=1.0))
        low = expand_tree(grid, x0, DriftSpec("zero"), ControlSet([0.5], cap=1.0))
        for name, Y in LAW_PAYOFFS.items():
            case = (name, x0, n)
            sol = robust_envelope(tree, Y)
            # scaling by a power of two commutes with every operation of
            # the sweep (short of overflow and underflow)
            scaled = robust_envelope(tree, 8.0 * sol.y)
            assert _bits(scaled.z) == _bits(8.0 * sol.z), case
            # a convex payoff under martingale dynamics is worst at the
            # lowest volatility (uncertain volatility, G-expectation of a
            # convex function): the robust root is the sigma = 0.5 root
            assert _bits(sol.root_value()) == _bits(robust_envelope(low, Y).root_value()), case
            # the paper's theorem at every node: stopping at tau* attains z
            assert check_tau_monotone(sol).passed, case


def _expected_walk_max(n: int) -> Fraction:
    """E[max(0, S_1, ..., S_n)] for a simple random walk S, exactly: by the
    reflection principle P(max >= j) = P(S_n >= j) + P(S_n > j)."""
    law = {m: Fraction(math.comb(n, (n + m) // 2), 2**n) for m in range(-n, n + 1, 2)}
    return sum(
        sum(p for m, p in law.items() if m >= j) + sum(p for m, p in law.items() if m > j)
        for j in range(1, n + 1)
    )


@pytest.mark.parametrize("n", (8, 10))
@pytest.mark.parametrize("x0, base", [(0.0, 0.0), (1.0, -0.3)])
def test_lookback_and_menu_order_laws_at_depth(n, x0, base):
    # lookback-max under zero drift: the running max only grows, so
    # stopping at the horizon is optimal, and E[max] is convex in every
    # increment, so the worst case is sigma = 0.5 at every node; the
    # value is x0 + base + h * E[max(0, S_1..S_n)] with h the tree's step
    grid = TimeGrid(0.0, 1.0, n)
    Y = lookback_max(base)
    tree = expand_tree(grid, x0, DriftSpec("zero"), ControlSet([0.5, 1.0], cap=1.0))
    sol = robust_envelope(tree, Y)
    low = expand_tree(grid, x0, DriftSpec("zero"), ControlSet([0.5], cap=1.0))
    assert _bits(sol.root_value()) == _bits(robust_envelope(low, Y).root_value())
    h = 0.5 * math.sqrt(grid.dt)
    closed = float(Fraction(x0) + Fraction(base) + Fraction(h) * _expected_walk_max(n))
    assert abs(sol.root_value() - closed) <= math.ulp(closed)
    # the paper's theorem at every node, with nodes stopping before T
    assert np.count_nonzero(sol.stop[: tree.offsets[-2]]) > 0
    assert check_tau_monotone(sol).passed
    # the menu's order moves node ids, not values
    rev = expand_tree(grid, x0, DriftSpec("zero"), ControlSet([1.0, 0.5], cap=1.0))
    rsol = robust_envelope(rev, Y)
    assert _bits(rsol.root_value()) == _bits(sol.root_value())
    assert _bits(np.sort(rsol.z)) == _bits(np.sort(sol.z))
    # a sweep with max in place of min over controls breaks the law
    assert abs(max_control_envelope(tree, sol.y)[tree.root] - closed) > 0.01


# Two laws the paper's proof rests on that hold bitwise at any depth and
# for every reward and drift kind, so they need no oracle: re-expanding
# from a node's prefix gives that node's z (the DPP across trees), and a
# larger menu lowers the envelope (z_full <= z_sub wherever the sub-menu's
# tree embeds in the full menu's).  x0 = 1 throughout.
DEPTH_CASES = {
    "put": (american_put(strike=1.1, base=0.0), DriftSpec("zero")),
    "lookback-running-max": (lookback_max(), DriftSpec("running-max", kappa=1.0)),
    "running-sum-mean-reversion": (
        running_sum(n_steps=10), DriftSpec("mean-reversion", rate=0.5, level=0.0)
    ),
}


def _resume_mismatches(tree, z, Y, drift, nodes):
    """The nodes among nodes whose z differs, in any bit, from the root
    value of the tree re-expanded from their prefix."""
    off = tree.offsets
    bad = []
    for i in nodes:
        l = bisect.bisect_right(off, i) - 1
        prefix = tree.level_prefixes(l, [i - off[l]])[0]
        resumed = expand_tree(tree.grid, None, drift, tree.controls, init_prefix=prefix)
        if _bits(robust_envelope(resumed, Y).root_value()) != _bits(z[i]):
            bad.append(i)
    return bad


@pytest.mark.parametrize("n, n_nodes", [(8, 20), (10, 10)])
@pytest.mark.parametrize("case", sorted(DEPTH_CASES))
def test_resume_from_any_node_gives_its_envelope(case, n, n_nodes):
    Y, drift = DEPTH_CASES[case]
    tree = expand_tree(TimeGrid(0.0, 1.0, n), 1.0, drift, ControlSet([0.5, 1.0], cap=1.0))
    sol = robust_envelope(tree, Y)
    rng = np.random.default_rng(20260815 + n)
    # a level, then a node of it, so the nodes span every depth
    levels = rng.integers(0, n + 1, size=n_nodes)
    nodes = [int(tree.offsets[l] + rng.integers(tree.offsets[l + 1] - tree.offsets[l]))
             for l in levels]
    assert _resume_mismatches(tree, sol.z, Y, drift, nodes) == []
    # a z shifted at one node breaks the law there and nowhere else
    i = nodes[0]
    shifted = sol.z.copy()
    shifted[i] -= 0.1
    assert _resume_mismatches(tree, shifted, Y, drift, nodes) == [i]


@pytest.mark.parametrize("n, full, sub", [
    (7, [0.3, 0.6, 1.0], [0.3, 1.0]),
    (10, [0.5, 1.0], [1.0]),
])
def test_a_larger_menu_lowers_the_envelope(n, full, sub):
    grid = TimeGrid(0.0, 1.0, n)
    wrong = 0
    for case, (Y, drift) in sorted(DEPTH_CASES.items()):
        big = expand_tree(grid, 1.0, drift, ControlSet(full, cap=1.0))
        small = expand_tree(grid, 1.0, drift, ControlSet(sub, cap=1.0))
        C, B = big.weights.shape
        # a sub-menu node's children sit in its controls' slots of the
        # embedded full-menu node's children, outcome by outcome
        slots = (np.array([full.index(u) for u in sub])[:, None] * B + np.arange(B)).ravel()
        rows = [np.zeros(1, dtype=np.int64)]
        for _ in range(n):
            rows.append((rows[-1][:, None] * (C * B) + slots).ravel())
        ids = np.concatenate([big.offsets[l] + r for l, r in enumerate(rows)])
        assert len(ids) == small.n_nodes, case
        for l, r in enumerate(rows):
            assert _bits(big.states[l][r]) == _bits(small.states[l]), (case, l)
        z_small = robust_envelope(small, Y).z
        assert np.count_nonzero(robust_envelope(big, Y).z[ids] > z_small) == 0, case
        # a full-menu solver that takes the max over controls breaks the
        # law; not in every case, since under the lookback payoff the max
        # can pick the top volatility, which [1.0] holds too
        wrong += np.count_nonzero(max_control_envelope(big, reward_values(big, Y))[ids] > z_small)
    assert wrong > 0
