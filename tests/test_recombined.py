"""Recombined trees (model.expand_recombined): the parity gate against the
full tree, and the refusals of every read that needs one node per
prefix.

The gate maps each tree node to its merged node level by level (a tree
node's merged node is the merged parent's child in the same slot) and
requires bitwise-equal states, y, z, argmin_control and stop there, and
multiplicities that count the tree nodes of each merged node, summing to
fanout**l on level l.
"""

import numpy as np
import pytest

from robuststop import (
    ControlSet,
    DriftSpec,
    ModulusSpec,
    TimeGrid,
    american_put,
    constant_reward,
    custom_reward,
    expand_tree,
    lookback_max,
    reward_values,
    robust_envelope,
    running_sum,
    terminal_abs,
)
from robuststop.cli import main
from robuststop.envelope import forward_pass
from robuststop.model import expand_recombined
from test_cli import PINNED_DEMO, write_config


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_parity(grid, x0, drift, controls, rewards):
    tree = expand_tree(grid, x0, drift, controls)
    rec = expand_recombined(grid, x0, drift, controls)
    assert len(rec.states) == len(tree.states)
    # per level, the merged node of every tree node
    maps = [np.zeros(1, dtype=np.int64)]
    for kids in rec.children:
        maps.append(kids[maps[-1]].reshape(-1))
    for l, m in enumerate(maps):
        assert np.array_equal(_bits(tree.states[l]), _bits(rec.states[l][m]))
        mult = rec.multiplicity[l]
        assert mult.dtype == np.int64
        assert np.array_equal(mult, np.bincount(m, minlength=len(rec.states[l])))
        assert int(mult.sum()) == tree.fanout**l
    for Y in rewards:
        full, merged = robust_envelope(tree, Y), robust_envelope(rec, Y)
        for l, m in enumerate(maps):
            t = tree.level(l)
            r = slice(rec.offsets[l], rec.offsets[l + 1])
            for name in ("y", "z"):
                got = getattr(merged, name)[r][m]
                assert np.array_equal(_bits(getattr(full, name)[t]), _bits(got)), (name, l)
            assert np.array_equal(full.argmin_control[t], merged.argmin_control[r][m])
            assert np.array_equal(full.stop[t], merged.stop[r][m])
    return tree, rec


def test_demo_trees_match_their_full_trees(monkeypatch, tmp_path, capsys):
    # the menus the demo expands, on the wide config at strikes -5 and 1
    # and on the degenerate one at its three strikes
    import robuststop.cli as cli

    built, expand = [], cli.expand_recombined

    def record(grid, x0, drift, controls):
        built.append((grid, x0, drift, controls))
        return expand(grid, x0, drift, controls)

    monkeypatch.setattr(cli, "expand_recombined", record)
    for name in ("wide", "degenerate"):
        cfg = PINNED_DEMO[name]
        del built[:]
        assert main(["demo", "--config", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        assert len(built) == {"wide": 8, "degenerate": 1}[name]
        rewards = [american_put(strike=float(K), base=cfg["demo"]["base"])
                   for K in cfg["demo"]["strikes"]]
        sizes = [assert_parity(*args, rewards) for args in built]
        if name == "wide":
            assert sum(t.n_nodes for t, _ in sizes) == 165_622
            assert sum(r.n_nodes for _, r in sizes) == 1_990


def _random_config(rng):
    C = int(rng.integers(1, 4))
    n = int(rng.integers(1, {1: 9, 2: 8, 3: 6}[C]))
    grid = TimeGrid(0.0, float(rng.choice([0.5, 1.0, 2.0])), n)
    controls = ControlSet(np.round(rng.uniform(0.2, 1.5, size=C), 2), cap=2.0)
    kind = rng.choice(["zero", "custom-table", "mean-reversion"])
    if kind == "zero":
        drift = DriftSpec("zero")
    elif kind == "custom-table":
        drift = DriftSpec("custom-table", table=np.round(rng.uniform(-0.5, 0.5, (n, 1)), 2))
    else:
        drift = DriftSpec("mean-reversion", rate=float(rng.uniform(0.1, 0.9)),
                          level=float(rng.uniform(-0.3, 0.3)))
    x0 = float(np.round(rng.uniform(-0.5, 1.5), 2))
    rewards = [american_put(strike=float(rng.uniform(0.5, 1.5)), base=float(rng.uniform(0, 1))),
               terminal_abs(base=float(rng.uniform(-0.5, 0.5))),
               constant_reward(float(rng.uniform(-1, 1)))]
    return grid, x0, drift, controls, rewards


def test_seeded_configs_match_their_full_trees():
    rng = np.random.default_rng(20261020)
    merged = 0
    for _ in range(120):
        tree, rec = assert_parity(*_random_config(rng))
        merged += rec.n_nodes < tree.n_nodes
    # most configs merge something, so the gate reads real child ids
    assert merged > 60


def test_expansion_refuses_what_it_cannot_merge_exactly():
    grid = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="running-max"):
        expand_recombined(grid, 0.0, DriftSpec("running-max"), ControlSet([0.5]))
    with pytest.raises(ValueError, match="d = 1"):
        expand_recombined(grid, [0.0, 0.0], DriftSpec("zero"), ControlSet([np.eye(2)]))


@pytest.fixture
def rec():
    return expand_recombined(TimeGrid(0.0, 1.0, 2), 0.0, DriftSpec("zero"),
                             ControlSet([0.5, 1.0]))


REFUSALS = {
    "forward_pass": lambda rec: forward_pass(rec, strategy=0),
    "tau_extent": lambda rec: robust_envelope(rec, terminal_abs()).tau_extent(),
    "stop_rule_map": lambda rec: robust_envelope(rec, terminal_abs()).stop_rule_map(),
    "prefix_class": lambda rec: rec.prefix_class,
    "level_prefixes": lambda rec: rec.level_prefixes(1),
    "peaks": lambda rec: rec.peaks,
}


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_per_prefix_reads_refuse_a_recombined_tree(rec, entry):
    with pytest.raises(TypeError, match="RecombinedTree"):
        REFUSALS[entry](rec)


@pytest.mark.parametrize("Y", [
    lookback_max(),
    running_sum(),
    custom_reward(lambda k, x: 0.0, ModulusSpec("linear", 0.0), 0.0),
], ids=lambda Y: Y.kind)
def test_path_rewards_refuse_a_recombined_tree(rec, Y):
    with pytest.raises(ValueError, match=Y.kind):
        reward_values(rec, Y)
