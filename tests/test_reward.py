"""Reward functionals: payoff formulas, level base, a tree resumed from a
stored history, and the catalog's continuity certificates."""

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
    eval_reward,
    expand_tree,
    lookback_max,
    reward_values,
    running_sum,
    terminal_abs,
)
from robuststop.verify import check_y1, pair_sampler
from referees import builtin_catalog


def test_put_payoff():
    Y = american_put(strike=1.0, base=0.0)
    assert eval_reward(Y, 1, [[1.0], [0.7]]) == pytest.approx(0.3, abs=1e-15)
    assert eval_reward(Y, 1, [[1.0], [1.4]]) == 0.0
    scaled = american_put(strike=1.0, base=0.0, scale=2.0)
    assert eval_reward(scaled, 1, [[1.0], [0.7]]) == pytest.approx(0.6, abs=1e-15)


def test_base_shifts_the_level():
    # canonical path at 0 with base 1 sees the same level as an absolute
    # path at 1 with base 0
    canon = american_put(strike=1.0, base=1.0)
    absolute = american_put(strike=1.0, base=0.0)
    assert eval_reward(canon, 1, [[0.0], [-0.3]]) == eval_reward(
        absolute, 1, [[1.0], [0.7]]
    )


def test_lookback_and_terminal():
    pref = [[0.4], [0.9], [0.2]]
    assert eval_reward(lookback_max(), 2, pref) == 0.9
    assert eval_reward(lookback_max(base=0.5), 2, pref) == pytest.approx(1.4)
    assert eval_reward(terminal_abs(), 2, [[0.0], [1.0], [-3.0]]) == 3.0


def test_running_sum_and_constant():
    rs = running_sum(scale=0.5, n_steps=2, dt=0.5)
    assert eval_reward(rs, 2, [[1.0], [2.0], [3.0]]) == 3.0
    assert eval_reward(constant_reward(0.3), 0, [[5.0]]) == 0.3


def test_custom_table_sees_prefix_only():
    seen = []

    def table(k, track):
        seen.append((k, track.shape))
        return float(track[-1, 0])

    Y = custom_reward(table, ModulusSpec("linear", 1.0), lower_bound=-10.0)
    val = eval_reward(Y, 1, [[0.0], [0.25]])
    assert val == 0.25
    assert seen == [(1, (2, 1))]


def test_eval_validation():
    Y = american_put(base=0.0)
    with pytest.raises(ValueError):
        eval_reward(Y, 2, [[0.0], [1.0]])
    with pytest.raises(ValueError):
        eval_reward(Y, 0, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        lookback_max(scale=-1.0)


def test_reward_values_match_pointwise(inst_a):
    tree, Y = inst_a
    vals = reward_values(tree, Y)
    assert vals.shape == (tree.n_nodes,)
    for l in range(len(tree.states)):
        for j, row in enumerate(tree.level_prefixes(l)):
            assert vals[tree.offsets[l] + j] == eval_reward(Y, tree.k0 + l, row)
    assert sorted(vals[tree.offsets[-2]:].tolist()) == [0.5, 0.5, 1.0, 1.0]


def test_init_prefix_peak_dominates_lookback():
    # mirrors the shifted-functional law: a peak in the stored history
    # dominates a smaller maximum after it
    tree = expand_tree(TimeGrid(0.0, 1.0, 3), None, DriftSpec("zero"),
                       ControlSet([0.2], cap=0.2), init_prefix=[[0.0], [2.0], [1.0]])
    assert reward_values(tree, lookback_max()).tolist() == [2.0, 2.0, 2.0]


def test_catalog_entries_carry_certificates():
    cat = builtin_catalog()
    assert [e.name for e in cat] == [
        "american-put",
        "lookback-max",
        "terminal-abs",
        "running-sum",
        "constant",
    ]
    for entry in cat:
        assert entry.certificate
        assert entry.template.modulus is not None


def test_catalog_certificates_hold_on_samples():
    grid = TimeGrid(0.0, 1.0, 4)
    sampler = pair_sampler(grid)
    for entry in builtin_catalog():
        report = check_y1(entry.template, sampler, 1500)
        assert report.passed, (entry.name, report.worst)


def test_constant_reward_is_flat_in_both_arguments():
    Y = constant_reward(-0.7)
    assert eval_reward(Y, 0, [[3.0]]) == -0.7
    assert eval_reward(Y, 2, [[0.0], [5.0], [-5.0]]) == -0.7
    assert Y.modulus(10.0) == 0.0
