"""The stopper's information as one array: ScenarioTree.prefix_class
partitions the nodes exactly as the tuple prefix_key of tests/referees.py
does, the rule enumeration orders the classes as those keys sort,
stopping rules hold one flag per class and rebuild no prefix, and the
tuple keys built from a rule are built from each class's lowest node."""

import numpy as np
import pytest

from conftest import (
    make_collision_tree,
    make_put,
    make_signed_zero_tree,
    random_instance,
    rule_keys,
)
from robuststop import (
    ControlSet,
    DriftSpec,
    ScenarioTree,
    TimeGrid,
    classic_snell,
    enumerate_stopping_rules,
    expand_tree,
    expected_reward,
    game_values,
    robust_envelope,
    terminal_abs,
    worst_case_stopped_reward,
)
from referees import callable_mask, prefix_key, prefix_keys, state_law, stopped_value
from robuststop import envelope, game, model
from robuststop.envelope import stop_mask


def _classes_by_key(tree) -> list:
    """Per node, the lowest node id with an equal prefix_key."""
    first: dict = {}
    out = []
    for l in range(len(tree.states)):
        for j, row in enumerate(tree.level_prefixes(l)):
            out.append(first.setdefault(prefix_key(tree.k0 + l, row), tree.offsets[l] + j))
    return out


def _acceptance_trees():
    rng = np.random.default_rng(20260815)
    return [random_instance(rng)[0] for _ in range(200)]


def _named_trees():
    return {
        "collision-n1": make_collision_tree(1),
        "collision-n2": make_collision_tree(2),
        "collision-k0": make_collision_tree(3, init_prefix=[[0.0, 0.0], [0.0, 0.5]]),
        "signed-zero": make_signed_zero_tree(),
        "signed-zero-n2": make_signed_zero_tree(2),
        "init-prefix": expand_tree(TimeGrid(0.0, 1.0, 5), 0.0,
                                   DriftSpec("running-max", kappa=1.0),
                                   ControlSet([0.5, 1.0], cap=1.0),
                                   init_prefix=[1.0, 1.3, 0.9]),
    }


def test_prefix_class_matches_prefix_key_on_acceptance_instances():
    for tree in _acceptance_trees():
        assert tree.prefix_class.tolist() == _classes_by_key(tree)


@pytest.mark.parametrize("name", sorted(_named_trees()))
def test_prefix_class_matches_prefix_key(name):
    tree = _named_trees()[name]
    cls = tree.prefix_class
    assert cls.tolist() == _classes_by_key(tree)
    # every class is named by its lowest node, which names itself
    assert np.all(cls <= np.arange(tree.n_nodes))
    assert np.all(cls[cls] == cls)


def _heads_by_key(tree) -> list:
    """The non-terminal class heads in the sorted order of their tuple
    prefix keys."""
    cls = tree.prefix_class[: tree.offsets[-2]]
    heads = np.flatnonzero(cls == np.arange(len(cls)))
    keys = prefix_keys(tree, heads)
    return heads[sorted(range(len(heads)), key=keys.__getitem__)].tolist()


def test_rule_enumeration_orders_the_classes_as_their_tuple_keys_sort():
    # the lexsort over flattened prefixes gives the sorted tuple-key order,
    # signed zeros included, which the rule enumeration and the sweep
    # parity digests rest on
    trees = [*_named_trees().values(), make_collision_tree(3), *_acceptance_trees()]
    for tree in trees:
        got = game._nonterminal_heads(tree, cap=tree.n_nodes).tolist()
        assert got == _heads_by_key(tree)


def test_collision_trees_have_shared_classes():
    trees = _named_trees()
    for name in ("collision-n1", "collision-n2", "collision-k0", "signed-zero"):
        cls = trees[name].prefix_class
        assert np.any(cls != np.arange(len(cls))), name
    assert trees["collision-k0"].k0 == 1
    cls = trees["init-prefix"].prefix_class
    assert cls.tolist() == list(range(len(cls)))


def _no_negative_zero(key) -> bool:
    return not any(np.signbit(v) and v == 0.0 for v in key[1])


def test_signed_zero_keys_come_from_the_lowest_node():
    tree = make_signed_zero_tree()
    # nodes 1 and 2 share a class; node 2's row holds -0.0
    assert tree.prefix_class.tolist() == [0, 1, 1]
    want = repr((1, (np.float64(0.0), np.float64(0.0))))
    rule_map = rule_keys(robust_envelope(tree, terminal_abs()).stop_rule_map())
    assert [repr(k) for k in rule_map if k[0] == 1] == [want]
    law = state_law(tree, 0)
    assert [repr(k) for k in law] == [want]
    assert list(law.values()) == [1.0]

    # with a second step the shared prefix is non-terminal, so the rule
    # enumeration decides it too, once, at node 1
    tree = make_signed_zero_tree(2)
    for rule in enumerate_stopping_rules(tree):
        assert rule.flags[2] == -1
        keys = [k for k in rule_keys(rule) if k[0] == 1]
        assert [repr(k) for k in keys] == [want]
    rule_map = rule_keys(robust_envelope(tree, terminal_abs()).stop_rule_map())
    for keys in (rule_map, state_law(tree, 0)):
        assert all(_no_negative_zero(k) for k in keys)


def test_stop_mask_calls_a_callable_once_per_reached_class():
    tree = make_collision_tree(2)
    called = []

    def never(k, prefix):
        called.append(prefix_key(k, prefix))
        return False

    mask = stop_mask(tree, callable_mask(tree, never))
    # a rule that never stops early reaches every interior node once
    assert mask.tolist() == [False] * tree.offsets[-2] + [True] * (tree.n_nodes - tree.offsets[-2])
    interior = tree.prefix_class[: tree.offsets[-2]]
    assert len(called) == len(set(interior.tolist())) < tree.offsets[-2]
    assert len(set(called)) == len(called)


@pytest.mark.parametrize("n_steps", [2, 3])
def test_rule_paths_build_no_prefix_key(n_steps, monkeypatch):
    tree, Y = make_put(n_steps)
    assert np.all(tree.prefix_class == np.arange(tree.n_nodes))

    def refuse(*args):
        raise AssertionError("a prefix was rebuilt")

    # the package builds no tuple key at all, and without a collision the
    # oracle orders no rule enumeration, so nothing rebuilds a prefix
    assert not any(hasattr(m, "prefix_key") for m in (envelope, game, model))
    monkeypatch.setattr(tree, "level_prefixes", refuse)
    sol = robust_envelope(tree, Y)
    rule = sol.stop_rule_map()
    assert np.array_equal(rule.flags[tree.prefix_class] == 1, sol.stop)
    assert np.array_equal(stop_mask(tree, rule), sol.stop)
    report = game_values(tree, Y)
    assert report.agree and report.saddle
    assert classic_snell(tree, 0, Y)[tree.root] == sol.root_value()
    # the low control is optimal, so it plays the saddle against tau*
    assert expected_reward(tree, 0, rule, Y) == pytest.approx(sol.root_value(), abs=1e-15)
    assert worst_case_stopped_reward(tree, Y, rule) == report.value_at_tau_star
    # the referee builds node 0's subtree from its prefix
    monkeypatch.undo()
    assert stopped_value(sol, 0, rule) == sol.root_value()


def test_prefix_keys_read_the_level_rows():
    tree, _ = make_put(2)
    ids = np.arange(tree.n_nodes)
    want = [prefix_key(tree.k0 + l, row)
            for l in range(len(tree.states)) for row in tree.level_prefixes(l)]
    assert prefix_keys(tree, ids) == want
    assert prefix_keys(tree, ids[[0, 3, 7]]) == [want[0], want[3], want[7]]
    assert prefix_keys(tree, []) == []


def test_tree_keeps_no_per_node_views():
    tree, _ = make_put(2)
    gone = ("k", "prefixes", "node_key", "state", "is_leaf", "nodes_at", "leaves",
            "interior", "subtree_nodes")
    assert [name for name in gone if hasattr(ScenarioTree, name) or hasattr(tree, name)] == []
