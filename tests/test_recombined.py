"""Recombined trees (model.expand_recombined): the parity gate against the
full tree, and the refusals of every read that needs one node per
prefix.

The gate maps each tree node to its merged node level by level (a tree
node's merged node is the merged parent's child in the same slot) and
requires bitwise-equal states, y, z, argmin_control and stop there, and
multiplicities that count the tree nodes of each merged node, summing to
fanout**l on level l.
"""

import json

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
        mult = rec.multiplicity()[l]
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
    # the trees the demo expands, one on each config: the wide config's
    # nine-control menu at strikes -5 and 1, and the degenerate config's
    # one control at its three strikes
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
        assert len(built) == 1
        rewards = [american_put(strike=float(K), base=cfg["demo"]["base"])
                   for K in cfg["demo"]["strikes"]]
        tree, rec = assert_parity(*built[0], rewards)
        if name == "wide":
            assert (tree.n_nodes, rec.n_nodes) == (111_151, 750)


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


def _demo_intervals():
    # seeded intervals with sigma_hi up to 10 sigma_lo, then three edge
    # cases: sigma_lo outside every widening menu (sigma_hi > 3 sigma_lo,
    # the last lower edge one ulp off sigma_lo), lo == hi, and sigma_hi
    # the float after sigma_lo
    rng = np.random.default_rng(20261021)
    for _ in range(12):
        lo = float(np.round(rng.uniform(0.1, 1.0), 3))
        yield lo, float(np.round(lo * rng.uniform(1.0, 10.0), 3))
    yield 0.1, 0.7
    yield 0.6, 0.6
    yield 1.0, float(np.nextafter(1.0, 2.0))


def test_demo_menus_are_columns_of_the_tree_that_holds_them(monkeypatch, tmp_path, capsys):
    # every column demo sweeps gives, bit for bit, the root and the z at
    # each node its own controls reach that its menu's own recombined tree
    # gives, and the multiplicities its slots count are that tree's.  Each
    # run expands one tree, which holds every menu
    import robuststop.cli as cli

    swept, sweep = [], cli.backward_sweep
    built, expand = [], cli.expand_recombined

    def count(*args):
        built.append(args)
        return expand(*args)

    def record(tree, y, *, floor, allowed):
        v = sweep(tree, y, floor=floor, allowed=allowed)
        swept.append((tree, allowed[0], v[0]))
        return v

    monkeypatch.setattr(cli, "backward_sweep", record)
    monkeypatch.setattr(cli, "expand_recombined", count)
    grid = TimeGrid(0.0, 1.0, 3)
    trees = set()
    for lo, hi in _demo_intervals():
        cfg = {"demo": {"base": 1.0, "strikes": [1.1], "sigma_lo": lo, "sigma_hi": hi,
                        "t_end": 1.0, "n_steps": 3, "widenings": 3}}
        del swept[:], built[:]
        assert main(["demo", "--config", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        assert len(built) == 1
        trees.add(len(swept))
        put = american_put(strike=1.1, base=1.0)
        for tree, allowed, z in swept:
            scalars = np.array(tree.controls.scalars())
            for c in range(allowed.shape[1]):
                own = expand_recombined(grid, 0.0, DriftSpec("zero"),
                                        ControlSet(scalars[allowed[:, c]]))
                want = robust_envelope(own, put)
                counts = tree.multiplicity(allowed[:, c])
                for l, states in enumerate(own.states):
                    # the held tree's level is sorted by the same bit patterns
                    level = _bits(tree.states[l][:, 0])
                    ids = np.searchsorted(level, _bits(states[:, 0]))
                    assert np.array_equal(level[ids], _bits(states[:, 0]))
                    assert np.array_equal(np.flatnonzero(counts[l]), ids)
                    assert np.array_equal(counts[l][ids], own.multiplicity()[l])
                    got = z[tree.offsets[l] + ids, c]
                    assert np.array_equal(_bits(got), _bits(want.z[own.level(l)]))
    # one sweep of the one tree on every interval, the robust menu's own
    # column included
    assert trees == {1}


def test_many_widenings_sweep_in_a_fixed_byte_budget(tmp_path, capsys):
    # 800 widenings at n_steps 1: 803 menus of up to 1,601 controls, one
    # tree of 3,203 nodes.  Swept at once, its columns would hold about
    # 62 MB; in chunks the run's traced peak stays near COLUMN_BYTES
    import tracemalloc

    from robuststop.envelope import COLUMN_BYTES

    cfg = {"demo": {"strikes": [0.9, 1.1], "sigma_lo": 0.3, "sigma_hi": 0.9,
                    "n_steps": 1, "widenings": 800}}
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["demo", "--config", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["widening_monotone"]
    assert peak < COLUMN_BYTES + (12 << 20)
