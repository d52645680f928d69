"""The stopper's information as one array: ScenarioTree.prefix_class
partitions the nodes exactly as prefix_key does, and the tuple keys a
caller gets back are built from each class's lowest node."""

import numpy as np
import pytest

from conftest import make_collision_tree, make_put, make_signed_zero_tree, random_instance
from robuststop import (
    ControlSet,
    DriftSpec,
    ScenarioTree,
    TimeGrid,
    enumerate_stopping_rules,
    expand_tree,
    prefix_key,
    robust_envelope,
    state_law,
    terminal_abs,
)
from robuststop.envelope import stop_mask


def _classes_by_key(tree) -> list:
    """Per node, the lowest node id with an equal prefix_key."""
    first: dict = {}
    out = []
    for l, block in enumerate(tree.blocks):
        for j, row in enumerate(block):
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
    rule_map = robust_envelope(tree, terminal_abs()).stop_rule_map()
    assert [repr(k) for k in rule_map if k[0] == 1] == [want]
    law = state_law(tree, 0)
    assert [repr(k) for k in law] == [want]
    assert list(law.values()) == [1.0]

    # with a second step the shared prefix is non-terminal, so the rule
    # enumeration keys it too
    tree = make_signed_zero_tree(2)
    for rule in enumerate_stopping_rules(tree):
        keys = [k for k in rule.decisions if k[0] == 1]
        assert [repr(k) for k in keys] == [want]
    for keys in (robust_envelope(tree, terminal_abs()).stop_rule_map(), state_law(tree, 0)):
        assert all(_no_negative_zero(k) for k in keys)


def test_stop_mask_reads_a_decision_map_once_per_reached_class():
    tree = make_collision_tree(2)
    looked_up = []

    class Decisions(dict):
        def __getitem__(self, key):
            looked_up.append(key)
            return super().__getitem__(key)

    keys = {prefix_key(tree.k0 + l, row)
            for l, block in enumerate(tree.blocks[:-1]) for row in block}
    mask = stop_mask(tree, Decisions({key: False for key in keys}))
    # a rule that never stops early reaches every interior node once
    assert mask.tolist() == [False] * tree.offsets[-2] + [True] * (tree.n_nodes - tree.offsets[-2])
    interior = tree.prefix_class[: tree.offsets[-2]]
    assert len(looked_up) == len(set(interior.tolist())) < tree.offsets[-2]
    assert len(set(looked_up)) == len(looked_up)


def test_prefix_keys_read_the_level_rows():
    tree, _ = make_put(2)
    ids = np.arange(tree.n_nodes)
    want = [prefix_key(tree.k0 + l, row) for l, block in enumerate(tree.blocks) for row in block]
    assert tree.prefix_keys(ids) == want
    assert tree.prefix_keys(ids[[0, 3, 7]]) == [want[0], want[3], want[7]]
    assert tree.prefix_keys([]) == []


def test_tree_keeps_no_per_node_views():
    tree, _ = make_put(2)
    gone = ("k", "prefixes", "node_key", "state", "is_leaf", "nodes_at", "leaves",
            "interior", "subtree_nodes")
    assert [name for name in gone if hasattr(ScenarioTree, name) or hasattr(tree, name)] == []
