"""Backward sweeps: the robust envelope, its stopping data, the classic
per-strategy Snell sweep, and the worst-case terminal expectation."""

import bisect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_collision_tree, make_put, random_instance, rule_keys
from referees import (
    as_strategy,
    int64_envelope,
    max_control_envelope,
    nonlinear_expectation,
    prefix_key,
    scenario_tau,
    solution_tau,
    stopped_value,
    subtree,
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
    reward_values,
    robust_envelope,
    running_sum,
    terminal_abs,
)
import robuststop.envelope as envelope_module
from robuststop.cli import _expand, _instance
from robuststop.envelope import forward_pass
from robuststop.model import expand_recombined
from robuststop.verify import check_tau_monotone
from test_cli import _certify_pool


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
    assert sol.z.tolist() == snell.tolist()
    assert sol.root_value() == snell[tree.root]


def test_envelope_accepts_precomputed_values(inst_a):
    tree, Y = inst_a
    direct = robust_envelope(tree, Y)
    via_array = robust_envelope(tree, reward_values(tree, Y))
    assert via_array.z.tolist() == direct.z.tolist()
    assert solution_tau(via_array) == solution_tau(direct)


def test_delta_relaxation_stops_earlier(put_n2):
    tree, Y = put_n2
    sol = robust_envelope(tree, Y)
    tight = sol.stop_rule_map().flags[tree.prefix_class] == 1
    loose = robust_envelope(tree, Y, delta=5.0).stop_rule_map().flags[tree.prefix_class] == 1
    assert np.array_equal(tight, sol.stop)
    assert scenario_tau(tree, loose, sol.argmin_control) == {(): 0}
    assert np.all(loose[tight])
    assert np.all(loose)


def test_stop_rule_map_is_prefix_keyed(put_n2):
    tree, Y = put_n2
    sol = robust_envelope(tree, Y)
    by_prefix = rule_keys(sol.stop_rule_map())
    # one decision per observed prefix, and each node stops by the
    # decision on its own prefix
    assert len(by_prefix) == len(set(tree.prefix_class.tolist()))
    for l in range(len(tree.states)):
        for j, row in enumerate(tree.level_prefixes(l)):
            assert by_prefix[prefix_key(tree.k0 + l, row)] == sol.stop[tree.offsets[l] + j]


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
    # a tie at z == y registers as a stop at large magnitude too: where
    # the floor wins, the sweep writes y's own bits into z
    grid = TimeGrid(0.0, 1.0, 1)
    tree = expand_tree(grid, 1e9, DriftSpec("zero"), ControlSet([1.0], cap=1.0))
    sol = robust_envelope(tree, constant_reward(1e9))
    assert np.all(sol.stop)


def test_scaling_y_by_a_power_of_two_leaves_tau_star_in_place():
    # the paper's law: Z scales with Y and tau*, the first time Z meets
    # Y, stays where it is.  A power of two scales every float exactly,
    # so z scales bitwise and the stop set, the argmin and the tau*
    # summary keep their bits, on the acceptance instances, the certify
    # pool and both prefix-collision trees
    rng = np.random.default_rng(20260815)
    cases = [random_instance(rng) for _ in range(200)]
    for cfg in _certify_pool():
        inst = _instance(cfg)
        cases.append((_expand(inst), inst.Y))
    cases += [(make_collision_tree(n), terminal_abs()) for n in (1, 2)]
    for tree, Y in cases:
        sol = robust_envelope(tree, Y)
        for k in (-60, -20, 0, 20, 60):
            c = math.ldexp(1.0, k)
            scaled = robust_envelope(tree, sol.y * c)
            assert np.array_equal(scaled.z, sol.z * c)
            assert np.array_equal(scaled.stop, sol.stop)
            assert np.array_equal(scaled.argmin_control, sol.argmin_control)
            assert scaled.tau_extent() == sol.tau_extent()
            assert check_tau_monotone(scaled).worst == 0.0


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
    # an out-of-range index fails at the first node that needs a control:
    # control 1 at the root reaches nodes 3 and 4, and only 3 lacks one
    with pytest.raises(StrategyError, match="control index 2 out of range at node 0$"):
        forward_pass(tree, strategy=2)
    for ci, message in ((-1, "assigns no control to node 3$"),
                        (-2, "control index -2 out of range at node 3$")):
        strategy = np.ones(tree.n_nodes, dtype=np.int64)
        strategy[3] = ci
        with pytest.raises(StrategyError, match=message):
            forward_pass(tree, strategy=strategy)
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


def test_sweep_marks_leaves_and_nodes_with_no_control(put_n3):
    # the sweep fills nothing up front, so numpy's cache of small
    # buffers is first filled with 7s, which an unwritten entry would show
    tree, Y = put_n3
    y = reward_values(tree, Y)
    allowed = np.ones((tree.n_nodes, 2), dtype=bool)
    allowed[[1, 5, 6], :] = False  # interior nodes with no control
    junk = [np.full(tree.n_nodes, 7, dtype=t) for t in (np.int8, np.int64) for _ in range(4)]
    del junk
    v, argmin = envelope_module.backward_sweep(tree, y, allowed=allowed)
    leaves = np.arange(tree.n_nodes) >= tree.offsets[-2]
    none = ~allowed.any(axis=1) & ~leaves
    assert np.all(argmin[leaves | none] == -1)
    assert np.all(np.isin(argmin[~leaves & ~none], [0, 1]))
    assert np.all(v[none] == np.inf)
    assert np.array_equal(v[leaves], y[leaves])


def _column_trees(n_random=200):
    rng = np.random.default_rng(20260815)
    for _ in range(n_random):
        yield random_instance(rng)
    for n in (1, 2):
        yield make_collision_tree(n), terminal_abs()
    menu = ControlSet([0.3, 0.45, 0.6, 0.75, 0.9])
    rec = expand_recombined(TimeGrid(0.0, 1.0, 4), 0.0, DriftSpec("zero"), menu)
    yield rec, american_put(strike=0.1, base=0.0)


def test_a_column_sweep_is_each_columns_own_sweep():
    # m = 3 columns whose values, floor, ceiling, stop and allowed each
    # differ by column (some nodes with no allowed control, some NaN
    # values, a -0.0 floor where y is 0.0), in every combination the
    # callers use, and per-node inputs that serve every column: each
    # column of v and argmin is bit for bit the 1-D sweep of that
    # column's inputs
    rng = np.random.default_rng(44)
    m = 3
    for tree, Y in _column_trees():
        y = reward_values(tree, Y)
        n, C = tree.n_nodes, len(tree.controls)
        shift = rng.uniform(-0.2, 0.2, (n, m)) * (rng.random((n, m)) < 0.5)
        cols = {
            "values": np.where(rng.random((n, m)) < 0.05, np.nan, y[:, None] + shift),
            "floor": np.where(y == 0.0, -0.0, y)[:, None] - shift,
            "ceiling": y[:, None] + np.abs(shift) + 0.1,
            "stop": rng.random((n, m)) < 0.2,
            "allowed": rng.random((n, C, m)) < 0.8,
        }
        for names in (("floor",), ("ceiling", "stop"), ("floor", "allowed"),
                      ("floor", "ceiling", "stop", "allowed")):
            kwargs = {k: cols[k] for k in names}
            for values in (cols["values"], y):
                v, argmin = envelope_module.backward_sweep(tree, values, **kwargs)
                assert v.shape == argmin.shape == (n, m)
                for j in range(m):
                    own = {k: a[..., j] for k, a in kwargs.items()}
                    want = envelope_module.backward_sweep(
                        tree, values if values.ndim == 1 else values[:, j], **own)
                    assert v[:, j].tobytes() == want[0].tobytes(), (names, j)
                    assert np.array_equal(argmin[:, j], want[1])
        # the demo's shape: one allowed mask per column, the same at every node
        menus = cols["allowed"][:1]
        v = envelope_module.backward_sweep(tree, y, floor=y, allowed=menus)[0]
        for j in range(m):
            want = envelope_module.backward_sweep(
                tree, y, floor=y, allowed=np.repeat(menus[:, :, j], n, axis=0))[0]
            assert v[:, j].tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 3, 16])
def test_a_level_split_into_blocks_is_swept_bit_for_bit(monkeypatch, block):
    # a level wider than SWEEP_BLOCK is swept a block at a time, from a
    # slice of the next level on a ScenarioTree and from rows of the
    # children ids on a RecombinedTree: with and without columns, every
    # output is the one-block sweep's, and the envelope the referee's
    rng = np.random.default_rng(47)
    m, split = 2, set()
    for tree, Y in [*_column_trees(n_random=20), make_put(5)]:
        y = reward_values(tree, Y)
        n, C = tree.n_nodes, len(tree.controls)
        kwargs = {
            "floor": y[:, None] - rng.uniform(0.0, 0.2, (n, m)),
            "ceiling": y[:, None] + rng.uniform(0.0, 0.2, (n, m)),
            "stop": rng.random((n, m)) < 0.2,
            "allowed": rng.random((n, C, m)) < 0.8,
        }
        calls = [((y,), {"floor": y}), ((y,), kwargs)]
        whole = [envelope_module.backward_sweep(tree, *a, **k) for a, k in calls]
        with monkeypatch.context() as patched:
            patched.setattr(envelope_module, "SWEEP_BLOCK", block)
            for (a, k), want in zip(calls, whole):
                got = envelope_module.backward_sweep(tree, *a, **k)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        z, argmin = int64_envelope(tree, y)
        assert whole[0][0].tobytes() == z.tobytes()
        assert np.array_equal(whole[0][1], argmin)
        if tree.width > block:
            split.add(type(tree).__name__)
    assert split == {"ScenarioTree", "RecombinedTree"}


@pytest.mark.parametrize("kind", ["tree", "recombined"])
@pytest.mark.parametrize("C, dtype", [(127, np.int8), (128, np.int8), (129, np.int16)])
def test_argmin_takes_the_narrowest_type_that_holds_its_menu(C, dtype, kind):
    # argmin runs from -1 to C - 1, so int8 holds it up to 128 controls
    # and the index 128 of a 129th needs int16.  Random rewards put the
    # argmin on every control, and the concave -x**2 on the last one; the
    # values and argmin are the int64 referee's
    menu = ControlSet(0.3 + 0.6 * np.arange(C) / C)
    expand = expand_tree if kind == "tree" else expand_recombined
    tree = expand(TimeGrid(0.0, 1.0, 2), 0.0, DriftSpec("zero"), menu)
    x = np.concatenate(tree.states)[:, 0]
    for y in (np.random.default_rng(C).standard_normal(tree.n_nodes), -x * x):
        sol = robust_envelope(tree, y)
        z, argmin = int64_envelope(tree, y)
        assert sol.argmin_control.dtype == dtype
        assert np.array_equal(sol.argmin_control, argmin)
        assert sol.z.tobytes() == z.tobytes()
    interior = slice(0, tree.offsets[-2])
    assert (argmin[interior] == C - 1).all()


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


def _resumed_roots(tree, Y, nodes) -> list:
    """The root value of the tree re-expanded from each node's prefix."""
    off = tree.offsets
    roots = []
    for i in nodes:
        l = bisect.bisect_right(off, i) - 1
        prefix = tree.level_prefixes(l, [i - off[l]])[0]
        resumed = expand_tree(tree.grid, None, tree.drift, tree.controls, init_prefix=prefix)
        roots.append(robust_envelope(resumed, Y).root_value())
    return roots


def _resume_mismatches(z, nodes, roots) -> list:
    """The nodes among nodes whose z differs, in any bit, from their
    resumed root."""
    return [i for i, r in zip(nodes, roots) if _bits(r) != _bits(z[i])]


def _embedded_rows(big, full, sub) -> list:
    """Per level, the rows of big, the tree of the menu full, at which the
    tree of the sub-menu sub embeds, in the sub-menu tree's order: a
    sub-menu node's children sit in its controls' slots of the embedded
    full-menu node's children, outcome by outcome."""
    C, B = big.weights.shape
    slots = (np.array([full.index(u) for u in sub])[:, None] * B + np.arange(B)).ravel()
    rows = [np.zeros(1, dtype=np.int64)]
    for _ in range(len(big.states) - 1):
        rows.append((rows[-1][:, None] * (C * B) + slots).ravel())
    return rows


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
    roots = _resumed_roots(tree, Y, nodes)
    assert _resume_mismatches(sol.z, nodes, roots) == []
    # a z shifted at one node breaks the law there and nowhere else
    i = nodes[0]
    shifted = sol.z.copy()
    shifted[i] -= 0.1
    assert _resume_mismatches(shifted, nodes, roots) == [i]


@pytest.mark.parametrize("case", ["put", "lookback-running-max"])
def test_subtree_is_the_tree_resumed_from_its_prefix(case):
    # the referees that start from a node run on referees.subtree, so it
    # must be the resumed tree of the resume law above, bit for bit, and
    # carry the full tree's rewards, running maxima included
    Y, drift = DEPTH_CASES[case]
    tree = expand_tree(TimeGrid(0.0, 1.0, 5), 1.0, drift, ControlSet([0.5, 1.0], cap=1.0))
    y = reward_values(tree, Y)
    off = tree.offsets
    for node in range(off[-2]):
        l = bisect.bisect_right(off, node) - 1
        sub, ids = subtree(tree, node)
        prefix = tree.level_prefixes(l, [node - off[l]])[0]
        resumed = expand_tree(tree.grid, None, drift, tree.controls, init_prefix=prefix)
        assert sub.offsets == resumed.offsets and sub.k0 == resumed.k0 == l, node
        assert _bits(sub.root_prefix) == _bits(resumed.root_prefix), node
        for a, b in zip(sub.states, resumed.states):
            assert _bits(a) == _bits(b), node
        assert _bits(reward_values(sub, Y)) == _bits(y[ids]), node


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
        rows = _embedded_rows(big, full, sub)
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


def test_resume_and_menu_laws_on_the_acceptance_instances():
    # both laws on every reward and drift kind of the acceptance suite:
    # resumed from three seeded nodes of each instance, and for each
    # two-control instance against both of its one-control sub-menus.  A
    # solver with max in place of min over controls and a z shifted at
    # one node each break both laws somewhere
    rng = np.random.default_rng(20260815)
    pick = np.random.default_rng(25)
    resume_wrong = menu_checked = menu_wrong = menu_shifted = 0
    for _ in range(200):
        tree, Y = random_instance(rng)
        sol = robust_envelope(tree, Y)
        nodes = pick.choice(tree.n_nodes, size=3, replace=False).tolist()
        roots = _resumed_roots(tree, Y, nodes)
        assert _resume_mismatches(sol.z, nodes, roots) == []
        shifted = sol.z.copy()
        shifted[nodes[0]] -= 0.1
        assert _resume_mismatches(shifted, nodes, roots) == [nodes[0]]
        wrong = max_control_envelope(tree, sol.y)
        resume_wrong += len(_resume_mismatches(wrong, nodes, roots))

        full = tree.controls.scalars()
        for u in full if len(full) == 2 else []:
            small = expand_tree(tree.grid, tree.root_prefix[0], tree.drift,
                                ControlSet([u], cap=tree.controls.cap))
            rows = _embedded_rows(tree, full, [u])
            for l, r in enumerate(rows):
                assert _bits(tree.states[l][r]) == _bits(small.states[l])
            ids = np.concatenate([tree.offsets[l] + r for l, r in enumerate(rows)])
            z_small = robust_envelope(small, Y).z
            assert np.count_nonzero(sol.z[ids] > z_small) == 0
            menu_checked += 1
            menu_wrong += int(np.count_nonzero(wrong[ids] > z_small))
            raised = sol.z[ids]
            raised[0] += 0.1
            menu_shifted += int(np.count_nonzero(raised > z_small))
    assert (menu_checked, resume_wrong, menu_wrong, menu_shifted) == (206, 30, 207, 165)
