"""End-to-end acceptance suite.

One test per guarantee the package ships with, each printing a single
pass/fail line under -v:

  1. on 200 randomized instances the envelope root equals the enumerated
     game value (upper) within 1e-9 and lower = upper within 1e-9, with
     the whole sweep done in under 60 s
  2. stopping at tau* is worst-case optimal: the inf over strategies of
     the reward stopped at tau* equals the game value within 1e-9, and
     the tau check finds it equal to the envelope at every node
  3. the envelope dominates the reward everywhere and meets it at the
     leaves, exactly, on every instance in the suite
  4. full stopping-set enumeration confirms the supermartingale and
     stopped-martingale laws within 1e-9, and a 0.1 perturbation of a
     single node is rejected
  5. the hand-checkable single-step instance solves exactly
  6. 200 randomized strategy pastings reproduce the pasted law exactly
     (1e-12) with zero slack in the optimal-stopping comparison
  7. the dynamic-programming identity holds at every deterministic cut
     and at hitting-time cuts, within 1e-9
  8. Monte Carlo moment scaling of the driftless paths at 1e5 paths per
     step size fits a square-root exponent in [0.4, 0.6], in under 30 s
  9. the demo collapses to the classic binomial put when the volatility
     interval degenerates (1e-12), widening the interval never raises
     the value, and a worthless payoff prices to zero
 10. every CLI artifact is byte-identical across reruns
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import make_inst_a, make_put, random_instance
from referees import as_strategy, callable_mask, pasting_check, solution_tau
from robuststop.cli import main
from robuststop.envelope import robust_envelope
from robuststop.game import game_values
from robuststop.verify import (
    check_dpp,
    check_dpp_random_horizon,
    check_envelope_basic,
    check_martingale_to_tau,
    check_sde_moments,
    check_supermartingale,
    check_tau_monotone,
    corrupt_envelope,
)

N_INSTANCES = 200
GAME_TOL = 1e-9
PASTE_TOL = 1e-12


@pytest.fixture(scope="module")
def batch():
    """Solve and enumerate 200 seeded random instances once."""
    rng = np.random.default_rng(20260815)
    rows = []
    start = time.perf_counter()
    for _ in range(N_INSTANCES):
        tree, Y = random_instance(rng)
        sol = robust_envelope(tree, Y)
        rows.append((tree, Y, sol, game_values(tree, Y)))
    return rows, time.perf_counter() - start


def test_c01_envelope_equals_game_value_on_200_instances(batch):
    rows, elapsed = batch
    assert len(rows) == N_INSTANCES
    assert elapsed <= 60.0
    for _, _, sol, rep in rows:
        assert abs(sol.root_value() - rep.upper) <= GAME_TOL
        assert 0.0 <= rep.upper - rep.lower <= GAME_TOL


def test_c02_tau_star_attains_the_value(batch):
    rows, _ = batch
    for _, _, sol, rep in rows:
        assert abs(rep.value_at_tau_star - rep.upper) <= GAME_TOL
        # the tau check takes the same value from every node, not only
        # the root, and its root is the oracle's bit for bit
        report = check_tau_monotone(sol)
        assert report.passed
        assert report.details["value_at_tau_star"] == rep.value_at_tau_star


def test_c03_domination_and_leaf_equality_exact(batch):
    rows, _ = batch
    fixtures = [make_inst_a(), make_put(2), make_put(3)]
    sols = [sol for _, _, sol, _ in rows]
    sols += [robust_envelope(tree, Y) for tree, Y in fixtures]
    for sol in sols:
        report = check_envelope_basic(sol)
        assert report.passed and report.worst == 0.0
        assert np.all(sol.z >= sol.y)
        leaves = slice(sol.tree.offsets[-2], sol.tree.n_nodes)
        assert np.array_equal(sol.z[leaves], sol.y[leaves])


def test_c04_martingale_laws_and_mutation_rejection(batch):
    rows, _ = batch
    for i, (tree, _, sol, _) in enumerate(rows):
        assert check_supermartingale(tree, sol, GAME_TOL).passed
        assert check_martingale_to_tau(tree, sol, GAME_TOL).passed
        if i % 20 == 0:
            for amount in (0.1, -0.1):
                # a raised root on an everywhere-stopped instance keeps
                # both martingale laws (immediate stop realizes equality),
                # but no single-node shift survives the recomputed
                # terminal-cut recursion as well
                bad = corrupt_envelope(sol, amount=amount)
                rejected = (
                    not check_envelope_basic(bad).passed
                    or not check_supermartingale(tree, bad, GAME_TOL).passed
                    or not check_martingale_to_tau(tree, bad, GAME_TOL).passed
                    or not check_dpp(tree, bad, tree.grid.n_steps, GAME_TOL).passed
                )
                assert rejected


def test_c05_single_step_instance_exact():
    tree, Y = make_inst_a()
    sol = robust_envelope(tree, Y)
    assert sol.root_value() == 0.5
    assert tree.controls.scalars()[sol.argmin_control[tree.root]] == 0.5
    assert not sol.stop[tree.root]
    assert solution_tau(sol) == {(0,): 1, (1,): 1}
    rep = game_values(tree, Y)
    assert rep.lower == rep.upper == rep.value_at_tau_star == 0.5


def test_c06_random_pastings_exact():
    rng = np.random.default_rng(427)
    done = 0
    while done < N_INSTANCES:
        tree, Y = random_instance(rng)
        n_ctrl = len(tree.controls)
        interior = range(tree.offsets[-2])
        for _ in range(4):
            # one scalar draw per interior node, in id order; leaves need none
            base = as_strategy(tree, {i: int(rng.integers(n_ctrl)) for i in interior})
            pieces = [
                as_strategy(tree, {i: int(rng.integers(n_ctrl)) for i in interior})
                for _ in range(int(rng.integers(1, 3)))
            ]
            s_idx = int(rng.integers(0, tree.grid.n_steps + 1))
            states = tree.states_at(s_idx)[:, 0].tolist()
            cuts = np.sort(rng.uniform(min(states) - 0.1, max(states) + 0.1, len(pieces)))
            cells = [lambda p, c=cuts[0]: p[-1, 0] <= c]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                cells.append(lambda p, a=lo, b=hi: a < p[-1, 0] <= b)
            cells.append(lambda p, c=cuts[-1]: p[-1, 0] > c)
            report = pasting_check(tree, base, s_idx, cells, pieces, Y)
            assert report.ok, report.failures
            assert report.worst_atom_gap <= PASTE_TOL
            assert report.worst_marginal_gap <= PASTE_TOL
            assert report.worst_snell_excess <= PASTE_TOL
            done += 1
            if done == N_INSTANCES:
                break


def test_c07_dynamic_programming_identity(batch):
    rows, _ = batch
    rng = np.random.default_rng(11)
    sample = [(t, s) for t, _, s, _ in rows[:20]]
    sample += [
        (t, robust_envelope(t, Y)) for t, Y in (make_inst_a(), make_put(2), make_put(3))
    ]
    for tree, sol in sample:
        for s in range(tree.grid.n_steps + 1):
            assert check_dpp(tree, sol, s, GAME_TOL).passed
        level = float(rng.uniform(0.2, 1.0))
        barrier = callable_mask(tree, lambda k, pref: abs(float(pref[-1, 0])) >= level)
        assert check_dpp_random_horizon(tree, sol, barrier, GAME_TOL).passed
        relaxed = robust_envelope(tree, sol.y, delta=0.05).stop_rule_map()
        assert check_dpp_random_horizon(tree, sol, relaxed, GAME_TOL).passed


def test_c08_monte_carlo_moment_scaling():
    start = time.perf_counter()
    report = check_sde_moments(n_paths=100_000)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert 0.4 <= report.details["slope_p1"] <= 0.6
    assert elapsed <= 30.0


def test_c09_demo_degeneration_widening_and_zero_payoff(tmp_path, capsys):
    cfg = tmp_path / "demo.json"
    cfg.write_text(
        json.dumps(
            {
                "demo": {
                    "base": 1.0,
                    "strikes": [-5.0, 0.9, 1.0, 1.1],
                    "sigma_lo": 0.5,
                    "sigma_hi": 0.5,
                    "t_end": 1.0,
                    "n_steps": 6,
                    "widenings": 5,
                }
            }
        )
    )
    assert main(["demo", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["widening_monotone"]
    assert report["classic_gap"] <= 1e-12
    for row in report["values"]:
        assert abs(row["robust_value"] - row["classic_value_lo"]) <= 1e-12
        if row["strike"] == -5.0:
            assert row["robust_value"] == 0.0


def test_c10_reruns_byte_identical(tmp_path, capsys):
    solve_cfg = {
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 3},
        "dynamics": {"x0": 1.0, "drift": {"kind": "zero"}},
        "controls": {"values": [0.5, 1.0], "cap": 1.0},
        "reward": {"kind": "american-put", "strike": 1.0},
        "verify": {"n_samples": 500, "prehistory_pairs": 4, "moments_paths": 5000},
    }
    demo_cfg = {
        "demo": {
            "base": 1.0,
            "strikes": [0.9, 1.1],
            "sigma_lo": 0.4,
            "sigma_hi": 0.8,
            "t_end": 1.0,
            "n_steps": 4,
            "widenings": 3,
        }
    }
    paths = {
        "solve": tmp_path / "solve.json",
        "oracle": tmp_path / "solve.json",
        "verify": tmp_path / "solve.json",
        "demo": tmp_path / "demo.json",
    }
    paths["solve"].write_text(json.dumps(solve_cfg))
    paths["demo"].write_text(json.dumps(demo_cfg))
    for command, cfg in paths.items():
        out1 = tmp_path / f"{command}_1"
        out2 = tmp_path / f"{command}_2"
        for out in (out1, out2):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            capsys.readouterr()
        files = sorted(os.listdir(out1))
        assert files == sorted(os.listdir(out2)) and files
        for name in files:
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), (
                command,
                name,
            )
