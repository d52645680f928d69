"""One test pair per runnable check: the claim holds on healthy input and
the check rejects a deliberately corrupted one."""

import functools
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest

import robuststop.verify as verify_module
from robuststop import cli

from conftest import make_put, random_instance
from test_cli import PINNED_GAME, SMALL_VERIFY
from referees import callable_mask, max_control_envelope, solution_tau
from robuststop import (
    ControlSet,
    DriftSpec,
    ModulusSpec,
    ScenarioTree,
    SizeError,
    TimeGrid,
    american_put,
    constant_reward,
    custom_reward,
    expand_tree,
    lookback_max,
    robust_envelope,
    terminal_abs,
)
from robuststop.envelope import EnvelopeSolution, _meets, backward_sweep, stop_mask
from robuststop.pathspace import Path
from robuststop.verify import (
    check_continuity_in_prehistory,
    check_dpp,
    check_dpp_random_horizon,
    check_drift,
    check_envelope_basic,
    check_martingale_to_tau,
    check_sde_moments,
    check_supermartingale,
    check_tau_monotone,
    check_y1,
    corrupt_envelope,
    pair_sampler,
    prefix_sampler,
)


@pytest.fixture
def put_sol(put_n2):
    tree, Y = put_n2
    return tree, Y, robust_envelope(tree, Y)


def test_y1_catalog_put_passes():
    grid = TimeGrid(0.0, 1.0, 4)
    Y = american_put()
    report = check_y1(Y, pair_sampler(grid), 10_000)
    assert report.passed
    assert report.n_checked == 10_000
    assert report.worst <= report.tolerance


def test_y1_constant_passes_with_zero_margin():
    grid = TimeGrid(0.0, 1.0, 3)
    report = check_y1(constant_reward(2.0), pair_sampler(grid), 500)
    assert report.passed
    assert report.worst <= 0.0


def test_y1_rejects_time_decaying_reward():
    # the bound is one-sided: only a drop from the earlier to the later
    # value can violate it, so the negative control decays with time
    grid = TimeGrid(0.0, 1.0, 3)
    Y = custom_reward(
        lambda k, track: float(-k), ModulusSpec("linear", 0.0), lower_bound=-3.0
    )
    report = check_y1(Y, pair_sampler(grid), 500)
    assert not report.passed
    assert report.worst > 0.0
    # and a growing payoff with the same zero modulus stays acceptable
    up = custom_reward(
        lambda k, track: float(k), ModulusSpec("linear", 0.0), lower_bound=0.0
    )
    assert check_y1(up, pair_sampler(grid), 500).passed


NAN_REWARD = custom_reward(lambda k, track: math.nan, ModulusSpec("linear", 1.0), 0.0)


def _fails_with_nan(report):
    # as the tree checks report it: a NaN worst, and a failure
    assert math.isnan(report.worst)
    assert not report.passed
    assert report.as_dict()["passed"] is False


def test_y1_fails_on_a_nan_reward():
    # Python's max skips a NaN that does not come first, so this passed
    # with worst -inf
    _fails_with_nan(check_y1(NAN_REWARD, pair_sampler(TimeGrid(0.0, 1.0, 3)), 500))


def test_drift_fails_on_a_nan_rate():
    grid = TimeGrid(0.0, 1.0, 3)
    sampler = prefix_sampler(grid, ControlSet([0.5, 1.0], cap=1.0))
    _fails_with_nan(check_drift(DriftSpec("mean-reversion", rate=math.nan), sampler, 400))


def _one_pair(rng, m):
    # every draw compares node 0 of a zero path with node 1 of it
    paths = Path(TimeGrid(0.0, 1.0, 1), np.zeros((m, 2, 1)))
    return np.zeros(m, dtype=int), paths, np.ones(m, dtype=int), paths


def _one_prefix_pair(rng, m):
    # every draw compares the one-node prefixes 10 and 0, under u = 1
    p1 = np.full((m, 1, 1), 10.0)
    return np.zeros(m, dtype=int), p1, np.zeros_like(p1), np.ones((m, 1, 1)), np.ones(m)


def test_sampled_tolerances_take_only_finite_values():
    # a reward or drift past the float range leaves the tolerance at the
    # finite values' scale, here the floor, so its inf violation fails;
    # with the inf in the scale the tolerance would be inf and pass it
    Y = custom_reward(lambda k, track: math.inf if k == 0 else 0.0,
                      ModulusSpec("linear", 1.0), 0.0)
    spec = DriftSpec("mean-reversion", kappa=1.0, rate=1e308, level=0.0)
    with np.errstate(over="ignore"):
        reports = [check_y1(Y, _one_pair, 10), check_drift(spec, _one_prefix_pair, 10)]
    for report in reports:
        assert report.worst == math.inf and report.tolerance == 1e-12
        assert not report.passed


@pytest.mark.parametrize("scale", [1.0, 2e3, 1e307])
def test_sampled_tolerances_are_16_ulps_of_the_largest_value(scale):
    # the same pairs with finite values: the y1 rewards are 2 * scale and
    # 0, and the drifts -10 * scale, 0 and 0
    Y = custom_reward(lambda k, track: 2.0 * scale if k == 0 else 0.0,
                      ModulusSpec("linear", 1.0), 0.0)
    spec = DriftSpec("mean-reversion", kappa=1.0, rate=scale, level=0.0)
    ulps = 16 * np.finfo(np.float64).eps
    y1, drift = check_y1(Y, _one_pair, 10), check_drift(spec, _one_prefix_pair, 10)
    assert y1.tolerance == max(1e-12, ulps * 2.0 * scale)
    assert drift.tolerance == max(1e-12, ulps * 10.0 * scale)


@pytest.mark.parametrize("rho1", [ModulusSpec("linear", 1.0), None])
def test_continuity_fails_on_a_nan_reward(rho1):
    grid = TimeGrid(0.0, 1.0, 3)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    report = check_continuity_in_prehistory(
        grid, DriftSpec("zero"), controls, NAN_REWARD, split=1, rho1=rho1, n_pairs=4
    )
    _fails_with_nan(report)
    if rho1 is None:
        assert math.isnan(report.details["kappa_fit"])


def test_drift_zero_and_bounded_rate_pass():
    grid = TimeGrid(0.0, 1.0, 3)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    sampler = prefix_sampler(grid, controls)
    assert check_drift(DriftSpec("zero"), sampler, 400).passed
    mr = DriftSpec("mean-reversion", kappa=1.0, rate=0.8, level=0.1)
    report = check_drift(mr, sampler, 400)
    assert report.passed


def test_drift_rejects_rate_above_kappa():
    grid = TimeGrid(0.0, 1.0, 3)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    fast = DriftSpec("mean-reversion", kappa=1.0, rate=1.5, level=0.0)
    report = check_drift(fast, prefix_sampler(grid, controls), 400)
    assert not report.passed
    assert report.worst > 0.0


def test_envelope_basic_exact(put_sol):
    tree, _, sol = put_sol
    report = check_envelope_basic(sol)
    assert report.passed
    assert report.worst == 0.0
    assert report.tolerance == 0.0
    # every node is checked for domination and every leaf for equality
    assert report.n_checked == tree.n_nodes + tree.n_nodes - tree.offsets[-2]


def test_envelope_basic_rejects_corrupt_leaf(put_sol):
    tree, _, sol = put_sol
    leaf = tree.offsets[-2]
    bad = corrupt_envelope(sol, node=leaf)
    report = check_envelope_basic(bad)
    assert not report.passed
    # the original solution is untouched
    assert check_envelope_basic(sol).passed


def test_supermartingale_holds(inst_a, put_sol):
    tree_a, Y_a = inst_a
    sol_a = robust_envelope(tree_a, Y_a)
    assert check_supermartingale(sol_a).passed
    _, _, sol = put_sol
    report = check_supermartingale(sol)
    assert report.passed
    assert report.worst <= report.tolerance


def test_supermartingale_rejects_sunk_node(put_sol):
    _, _, sol = put_sol
    report = check_supermartingale(corrupt_envelope(sol))
    assert not report.passed
    assert report.worst > 0.09


def test_martingale_to_tau_exact_for_constant(inst_a):
    tree, _ = inst_a
    sol = robust_envelope(tree, constant_reward(0.4))
    report = check_martingale_to_tau(sol)
    assert report.passed
    assert report.worst == 0.0


def test_martingale_to_tau_on_fixtures(inst_a, put_sol):
    tree_a, Y_a = inst_a
    assert check_martingale_to_tau(robust_envelope(tree_a, Y_a)).passed
    _, _, sol = put_sol
    assert check_martingale_to_tau(sol).passed


def test_martingale_to_tau_rejects_corruption(put_sol):
    _, _, sol = put_sol
    assert not check_martingale_to_tau(corrupt_envelope(sol)).passed


def test_martingale_to_tau_rejects_a_stop_node_off_its_reward(put_sol):
    # a shift at a stop node moves z off y there by the whole shift, and
    # its ancestors' stopped means by less
    tree, _, sol = put_sol
    node = int(np.flatnonzero(sol.stop)[0])
    assert node < tree.offsets[-2]
    for amount in (-0.1, 0.1):
        report = check_martingale_to_tau(corrupt_envelope(sol, node=node, amount=amount))
        assert not report.passed
        assert report.worst == pytest.approx(0.1)
        assert report.n_checked == tree.n_nodes


@pytest.mark.parametrize("t_end, delta", [(1.0, 0.5), (1e20, 0.0)])
def test_martingale_to_tau_meets_y_within_the_stop_test(t_end, delta):
    # the stop region holds z up to delta + STOP_GUARD * (1 + |y|) above
    # y, past the check's tolerance here, and a solution passes at
    # any scale and any delta
    tree = expand_tree(TimeGrid(0.0, t_end, 3), 1.0, DriftSpec("zero"),
                       ControlSet([0.5, 1.0], cap=1.0))
    sol = robust_envelope(tree, american_put(strike=1.1, base=0.0), delta=delta)
    report = check_martingale_to_tau(sol)
    gap = (sol.z - sol.y)[sol.stop]
    assert np.max(gap) > report.tolerance
    assert report.passed


def test_martingale_to_tau_rejects_a_raised_node(put_sol):
    # every stopped mean stays below a node lifted before the stop
    # region, so only the lower side of the law sees the lift
    _, _, sol = put_sol
    report = check_martingale_to_tau(corrupt_envelope(sol, amount=0.1))
    assert not report.passed
    assert report.worst == pytest.approx(0.1)


def test_sweep_checks_count_the_nodes_they_compare(rand_instance):
    rng = np.random.default_rng(5)
    for _ in range(10):
        tree, Y = rand_instance(rng)
        sol = robust_envelope(tree, Y)
        assert check_supermartingale(sol).n_checked == tree.n_nodes
        assert check_martingale_to_tau(sol).n_checked == tree.n_nodes
        assert check_dpp(sol, 1).n_checked == tree.n_nodes
        nu = robust_envelope(tree, Y, delta=0.05).stop_rule_map()
        assert check_dpp_random_horizon(sol, nu).n_checked == tree.n_nodes


def test_dpp_terminal_slice_is_definition(put_sol):
    tree, _, sol = put_sol
    report = check_dpp(sol, tree.grid.n_steps)
    assert report.passed
    assert report.worst == 0.0


def test_dpp_interior_slices(put_n3):
    tree, Y = put_n3
    sol = robust_envelope(tree, Y)
    for s in (1, 2):
        report = check_dpp(sol, s)
        assert report.passed
        assert report.worst <= report.tolerance


def test_cuts_are_grid_indices_not_times(put_n3):
    tree, Y = put_n3
    sol = robust_envelope(tree, Y)
    with pytest.raises(TypeError):
        check_dpp(sol, 1.0)
    with pytest.raises(TypeError):
        check_continuity_in_prehistory(
            tree.grid, DriftSpec("zero"), ControlSet([1.0], cap=1.0), Y, split=1.0
        )


def test_dpp_random_instances(rand_instance):
    rng = np.random.default_rng(31)
    for _ in range(10):
        tree, Y = rand_instance(rng)
        sol = robust_envelope(tree, Y)
        assert check_dpp(sol, max(tree.grid.n_steps - 1, 1)).passed


def test_dpp_rejects_corrupt_root(put_sol):
    _, _, sol = put_sol
    assert not check_dpp(corrupt_envelope(sol, node=0), 1).passed


def test_dpp_random_horizon_variants(put_n3):
    tree, Y = put_n3
    sol = robust_envelope(tree, Y)
    terminal = check_dpp_random_horizon(sol, tree.grid.n_steps)
    assert terminal.passed and terminal.worst == 0.0
    barrier = check_dpp_random_horizon(
        sol, callable_mask(tree, lambda k, pref: abs(float(pref[-1, 0])) >= 1.2)
    )
    assert barrier.passed
    relaxed = robust_envelope(tree, Y, delta=0.05).stop_rule_map()
    delta_time = check_dpp_random_horizon(sol, relaxed)
    assert delta_time.passed


BARRIER_TREES = {
    "put": {
        "grid": {"t_end": 1.0, "n_steps": 5},
        "dynamics": {"x0": 1.0},
        "controls": {"values": [0.3, 0.7], "cap": 1.0},
        "reward": {"kind": "american-put", "strike": 1.1},
    },
    "d2": {
        "grid": {"t_end": 1.0, "n_steps": 3},
        "dynamics": {"x0": [1.0, -0.5]},
        "controls": {"values": [[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.2], [0.2, 0.8]]],
                     "cap": 2.0},
        "reward": {"kind": "terminal-abs"},
    },
}


@pytest.mark.parametrize("barrier", [1.2, 1.4, 1.7])
@pytest.mark.parametrize("name", sorted(BARRIER_TREES))
def test_dpp_random_barrier_is_a_state_mask(monkeypatch, name, barrier):
    # the barrier's hitting region is read off each level's states, so
    # the check builds no prefix class, and it cuts the horizon where the
    # barrier as a callable on the prefix cuts it
    cfg = {**BARRIER_TREES[name], "verify": {"barrier": barrier}}
    inst = cli._instance(cfg)
    tree = cli._expand(inst)
    inst = inst._replace(sol=robust_envelope(tree, inst.Y))
    num = functools.partial(cli._num, cfg["verify"], "verify")
    cuts, check = [], verify_module.check_dpp_random_horizon

    def refuse(self):
        raise AssertionError("the prefix classes were built")

    monkeypatch.setattr(verify_module, "check_dpp_random_horizon",
                        lambda sol, nu: cuts.append(nu) or check(sol, nu))
    monkeypatch.setattr(ScenarioTree, "prefix_class", property(refuse))
    report = verify_module.CHECKS["dpp-random"].run(inst, num, 0, False)
    monkeypatch.undo()
    hit = callable_mask(tree, lambda k, prefix: bool(np.linalg.norm(prefix[-1]) >= barrier))
    assert report.as_dict() == check(inst.sol, hit).as_dict()
    # the barrier is first hit below the root, and off the envelope the
    # cut decides the recomputed root
    assert not hit[tree.root] and hit[: tree.offsets[-2]].any()
    off = inst.sol.z + np.random.default_rng(1).random(tree.n_nodes)
    roots = [backward_sweep(tree, off, floor=inst.sol.y, stop=stop_mask(tree, nu))[0][tree.root]
             for nu in (cuts[0], hit)]
    assert roots[0] == roots[1]


def test_dpp_random_horizon_rejects_corrupt_root(put_n3):
    tree, Y = put_n3
    sol = robust_envelope(tree, Y)
    bad = corrupt_envelope(sol, node=0)
    assert not check_dpp_random_horizon(bad, tree.grid.n_steps).passed


def test_tau_monotone_constant_and_fixture(inst_a, put_n3):
    tree_a, _ = inst_a
    sol_c = robust_envelope(tree_a, constant_reward(0.2))
    report = check_tau_monotone(sol_c)
    assert report.passed and report.worst == 0.0
    assert report.details == {"value_at_tau_star": 0.2}
    tree, Y = put_n3
    sol = robust_envelope(tree, Y)
    report = check_tau_monotone(sol)
    assert report.passed
    assert report.name == "tau-optimal" and report.n_checked == tree.n_nodes
    assert report.tolerance == 1e-12 * (1.0 + float(np.max(np.abs(sol.y))))
    # the root of the sweep frozen at tau*, as the oracle takes it
    v = backward_sweep(tree, sol.y, stop=sol.stop)[0]
    assert report.details["value_at_tau_star"] == float(v[tree.root])


@pytest.mark.parametrize("case", ["scale-1e9", "t_end-1e20"])
def test_tau_monotone_tolerance_scales_with_the_reward(case):
    # float error grows with the values: both correct solutions miss the
    # sweep frozen at tau* by more than an absolute 1e-9, and stay far
    # inside the guarded stop test's slack
    controls = ControlSet([0.5, 1.0], cap=1.0)
    if case == "scale-1e9":
        grid, Y = TimeGrid(0.0, 1.0, 3), american_put(1.1, 0.0, 1e9)
    else:
        grid, Y = TimeGrid(0.0, 1e20, 8), american_put(1.0, 0.0, 1.0)
    sol = robust_envelope(expand_tree(grid, 1.0, DriftSpec("zero"), controls), Y)
    report = check_tau_monotone(sol)
    assert report.passed
    assert 1e-9 < report.worst < report.tolerance / 1e3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("node", [1, -1])
def test_tau_monotone_fails_on_a_non_finite_reward(put_n2, bad, node):
    tree, Y = put_n2
    y = robust_envelope(tree, Y).y.copy()
    y[node] = bad
    # inf - inf in the stop test and the check is NaN, as it should be
    with np.errstate(invalid="ignore"):
        report = check_tau_monotone(robust_envelope(tree, y))
    assert math.isnan(report.worst) and not report.passed


def _stop_early(sol):
    """Copy of a solution whose stop region also stops the prefix class of
    the continuing interior node with the largest z - y, or None if every
    interior node stops."""
    tree = sol.tree
    going = np.flatnonzero(~sol.stop[: tree.offsets[-2]])
    if not len(going):
        return None
    node = going[np.argmax((sol.z - sol.y)[going])]
    bad = EnvelopeSolution(tree, sol.delta, sol.y, sol.z, sol.argmin_control)
    bad.stop = sol.stop | (tree.prefix_class == tree.prefix_class[node])
    return bad


def test_tau_monotone_rejects_shifted_tau(put_sol):
    # tau* moved one class earlier no longer attains the envelope
    _, _, sol = put_sol
    assert not check_tau_monotone(_stop_early(sol)).passed
    assert not check_tau_monotone(corrupt_envelope(sol)).passed


def test_tau_check_rejects_every_corruption_on_the_acceptance_instances():
    # the check's power map: each single-node shift of z, a solver with
    # max in place of min over controls, and a tau* stopped one class
    # early are each rejected by the tau check alone
    rng = np.random.default_rng(20260815)
    n_shifts = n_wrong = n_early = 0
    for _ in range(200):
        tree, Y = random_instance(rng)
        sol = robust_envelope(tree, Y)
        clean = check_tau_monotone(sol)
        assert clean.passed
        for node in range(tree.n_nodes):
            for amount in (0.1, -0.1):
                bad = corrupt_envelope(sol, node=node, amount=amount)
                assert not check_tau_monotone(bad).passed, (node, amount)
                n_shifts += 1
        z = max_control_envelope(tree, sol.y)
        wrong = check_tau_monotone(EnvelopeSolution(tree, 0.0, sol.y, z, sol.argmin_control))
        # a wrong z passes only where it is the envelope up to rounding
        off = float(np.max(np.abs(z - sol.z)))
        assert wrong.passed == (off <= clean.tolerance), off
        n_wrong += off > clean.tolerance
        early = _stop_early(sol)
        if early is not None:
            assert not check_tau_monotone(early).passed
            n_early += 1
    assert (n_shifts, n_wrong, n_early) == (9012, 72, 150)


def test_continuity_zero_drift_put():
    grid = TimeGrid(0.0, 1.0, 3)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    Y = american_put(strike=1.0, base=0.0)
    report = check_continuity_in_prehistory(
        grid, DriftSpec("zero"), controls, Y, split=1, rho1=Y.modulus, n_pairs=8
    )
    assert report.passed
    assert report.worst <= report.tolerance
    assert report.details["bound_given"]


def test_continuity_identical_histories_are_exact():
    grid = TimeGrid(0.0, 1.0, 2)
    controls = ControlSet([1.0], cap=1.0)
    Y = american_put(strike=1.0, base=0.0)
    report = check_continuity_in_prehistory(
        grid, DriftSpec("zero"), controls, Y, split=1, rho1=Y.modulus, n_pairs=1
    )
    assert report.passed
    assert report.worst == 0.0


def test_continuity_fits_constant_for_history_driven_drift():
    grid = TimeGrid(0.0, 1.0, 3)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    Y = american_put(strike=1.0, base=0.0)
    drift = DriftSpec("running-max", kappa=0.4)
    report = check_continuity_in_prehistory(
        grid, drift, controls, Y, split=1, n_pairs=6
    )
    assert report.passed
    assert report.details["kappa_fit"] > 0.0
    assert report.details["n_zero_gap_pairs"] == 1


def test_continuity_rejects_zero_modulus():
    grid = TimeGrid(0.0, 1.0, 3)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    Y = american_put(strike=1.0, base=0.0)
    report = check_continuity_in_prehistory(
        grid,
        DriftSpec("zero"),
        controls,
        Y,
        split=1,
        rho1=ModulusSpec("linear", 0.0),
        n_pairs=8,
    )
    assert not report.passed


def test_sde_moments_scaling():
    report = check_sde_moments(n_paths=30_000)
    assert report.passed
    assert 0.4 <= report.details["slope_p1"] <= 0.6
    assert 0.8 <= report.details["slope_p2"] <= 1.2
    assert report.details["doob_excess"] <= 0.0


def test_sde_moments_degenerate_control():
    report = check_sde_moments(u=0.0, n_paths=2_000)
    assert report.passed


def test_sde_moments_drift_transfer():
    table = DriftSpec("custom-table", table=[[1.0]] * 16)
    honest = check_sde_moments(n_paths=10_000, drift=table, drift_bound=1.0)
    assert honest.passed
    lying = check_sde_moments(n_paths=10_000, drift=table, drift_bound=1e-6)
    assert not lying.passed


def test_sde_moments_fail_on_a_nan_drift():
    # the transfer excesses are NaN, and the max over the excesses skipped
    # them, so this passed on the driftless slopes alone
    nan_drift = DriftSpec("mean-reversion", rate=math.nan)
    report = check_sde_moments(n_paths=2_000, drift=nan_drift, drift_bound=1.0)
    _fails_with_nan(report)
    assert math.isnan(report.details["transfer_excess"])


def test_sde_moments_drift_without_bound_fails_before_simulating(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the arguments")

    monkeypatch.setattr(verify_module, "simulate_sup_distances", no_simulation)
    with pytest.raises(ValueError, match="sup bound"):
        check_sde_moments(n_paths=100_000, drift=DriftSpec("running-max"))


@pytest.mark.parametrize("drifted", [False, True])
def test_sde_moments_memory_stays_small(drifted):
    # only per-path suprema and per-block work buffers are kept: storing
    # the 100,000 x 17 paths alone would take 13.6 MB per simulation
    kwargs = {"n_paths": 100_000}
    if drifted:
        kwargs["drift"] = DriftSpec("custom-table", table=[[1.0]] * 16)
        kwargs["drift_bound"] = 1.0
    tracemalloc.start()
    try:
        check_sde_moments(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_corrupt_helpers_leave_original_alone(put_sol):
    _, _, sol = put_sol
    z_before = sol.z.copy()
    stop_before = sol.stop.copy()
    bad_z = corrupt_envelope(sol)
    assert np.array_equal(sol.z, z_before)
    assert np.array_equal(sol.stop, stop_before)
    # corrupt_envelope shifts one z and changes nothing else
    assert np.count_nonzero(bad_z.z != z_before) == 1
    for name in ("y", "argmin_control", "stop"):
        assert getattr(bad_z, name).tobytes() == getattr(sol, name).tobytes()
    assert (bad_z.tree, bad_z.delta) == (sol.tree, sol.delta)


@pytest.mark.parametrize("instance", ["put-3", "pool-0"])
def test_corrupt_envelope_keeps_the_original_stop_region(instance):
    # the copy's stop region is the original's, never one derived from
    # its shifted z, even when the original's was not read before; pool-0
    # is the first draw from the acceptance and certify pool seed
    if instance == "put-3":
        tree, Y = make_put(3)
    else:
        tree, Y = random_instance(np.random.default_rng(20260815))
    want = robust_envelope(tree, Y)
    flipped = 0
    for node in (None, tree.offsets[-2], tree.root):
        for amount in (-0.1, 0.1):
            bad = corrupt_envelope(robust_envelope(tree, Y), node=node, amount=amount)
            assert bad.stop.tobytes() == want.stop.tobytes()
            assert solution_tau(bad) == solution_tau(want)
            flipped += not np.array_equal(_meets(bad.z, bad.y, 0.0), want.stop)
    # some shifts move the stop region that the shifted z alone gives
    assert flipped > 0


# the verify-sampled bench config and a d = 2 one, each with the reward
# and drift that `verify` checks and the ones it checks under --mutate
def _chunk_cases(d):
    grid = TimeGrid(0.0, 1.0, 4)
    decaying = custom_reward(lambda k, track: float(-k), ModulusSpec("linear", 0.0), -4.0)
    mutated = DriftSpec("mean-reversion", kappa=0.5, rate=1.5, level=0.0)
    if d == 1:
        controls = ControlSet([0.5, 1.0], cap=1.0)
        Y, drift = lookback_max(), DriftSpec("running-max", kappa=1.0)
    else:
        controls = ControlSet(
            [np.diag([0.5, 0.5]), np.array([[1.0, 0.2], [0.2, 0.8]])], cap=1.2
        )
        Y, drift = terminal_abs(), DriftSpec("mean-reversion", rate=0.5)
    return [
        (check_y1, target, pair_sampler(grid, d))
        for target in (Y, decaying)
    ] + [
        (check_drift, spec, prefix_sampler(grid, controls))
        for spec in (drift, mutated)
    ]


@pytest.mark.parametrize("d", [1, 2])
def test_sampled_reports_do_not_depend_on_the_chunk_size(monkeypatch, d):
    # the draws and the worst value are the same whatever the chunking:
    # one draw per chunk, chunks that divide no count evenly, 512 and the
    # current size; the current size splits only the second count, and
    # one-draw chunks run only on the first, to keep the test quick
    current = verify_module.SAMPLE_CHUNK
    runs = ((205, (1, 7, 512, current)), (current + 3, (512, current)))
    for check, target, sampler in _chunk_cases(d):
        for n, chunks in runs:
            reports = set()
            for chunk in chunks:
                monkeypatch.setattr(verify_module, "SAMPLE_CHUNK", chunk)
                reports.add(json.dumps(check(target, sampler, n, seed=11).as_dict()))
            assert len(reports) == 1, (check.__name__, target, n)


@pytest.mark.parametrize("d", [1, 2])
def test_a_chunk_reads_at_most_chunk_words(monkeypatch, d):
    # a word budget of three draws splits 205 draws into 68 chunks of 3
    # and one of 1, with the report of the default chunks
    for check, target, sampler in _chunk_cases(d):
        default = check(target, sampler, 205, seed=11).as_dict()
        sizes = []

        def spy(rng, m):
            sizes.append(m)
            return sampler(rng, m)

        spy.words = sampler.words
        monkeypatch.setattr(verify_module, "CHUNK_WORDS", 3 * sampler.words + 2)
        assert check(target, spy, 205, seed=11).as_dict() == default
        assert sizes == [3] * 68 + [1]
        monkeypatch.undo()


def test_samplers_refuse_a_draw_over_chunk_words():
    grid = TimeGrid(0.0, 1.0, 1000)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    assert pair_sampler(grid).words == 2002
    assert prefix_sampler(grid, controls).words == 2003
    with pytest.raises(SizeError, match="words per draw exceed the cap 1048576; lower grid.n_steps"):
        pair_sampler(TimeGrid(0.0, 1.0, 2**19))
    with pytest.raises(SizeError, match="grid.n_steps"):
        prefix_sampler(TimeGrid(0.0, 1.0, 2**18), [np.eye(2)])


# each suite name's check function, as the benchmark's tracer wraps it
CHECK_FUNCTIONS = {
    "y1": "check_y1",
    "drift": "check_drift",
    "envelope": "check_envelope_basic",
    "supermartingale": "check_supermartingale",
    "martingale": "check_martingale_to_tau",
    "dpp": "check_dpp",
    "dpp-random": "check_dpp_random_horizon",
    "tau": "check_tau_monotone",
    "prehistory": "check_continuity_in_prehistory",
    "moments": "check_sde_moments",
}


def test_the_checks_take_only_what_varies():
    # each check sets its own tolerance, the tree checks read the tree
    # off the solution, and prefix_sampler reads d off its menu
    params = {name: inspect.signature(getattr(verify_module, name)).parameters
              for name in verify_module.__all__ if name.startswith("check_")}
    assert sorted(params) == sorted(CHECK_FUNCTIONS.values())
    assert not [name for name, p in params.items() if "tolerance" in p]
    for name in ("check_supermartingale", "check_martingale_to_tau", "check_dpp",
                 "check_dpp_random_horizon"):
        assert next(iter(params[name])) == "sol" and "tree" not in params[name]
    assert "dim" not in inspect.signature(prefix_sampler).parameters


def test_the_cli_lists_the_table_in_its_order():
    assert cli._SUITES == tuple(verify_module.CHECKS) == tuple(CHECK_FUNCTIONS)


# a certify pool instance whose root stops (a constant reward), where
# the martingale and supermartingale mutations once slipped through
ROOT_STOPS = PINNED_GAME["pool-68"]


@pytest.mark.parametrize("i, name", list(enumerate(verify_module.CHECKS)))
def test_each_check_passes_plain_and_rejects_its_mutation(monkeypatch, i, name):
    # in-process on the CLI tests' small verify config, with the seed
    # `verify --suite all` gives the check, and a check that reads the
    # tree on ROOT_STOPS too; a check that reads no tree runs on an
    # instance without one
    check = verify_module.CHECKS[name]
    configs = [SMALL_VERIFY, ROOT_STOPS] if check.reads_tree else [SMALL_VERIFY]
    # the entry calls the check by its module name, so a wrapper set on
    # the module, as the tracer sets one, sees every run
    calls = []
    fn = getattr(verify_module, CHECK_FUNCTIONS[name])
    monkeypatch.setattr(verify_module, CHECK_FUNCTIONS[name],
                        lambda *a, **k: calls.append(name) or fn(*a, **k))
    for cfg in configs:
        inst = cli._instance(cfg)
        if check.reads_tree:
            tree = cli._expand(inst)
            inst = inst._replace(sol=robust_envelope(tree, inst.Y))
            assert inst.sol.stop[tree.root] == (cfg is ROOT_STOPS)
        num = functools.partial(cli._num, cfg.get("verify", {}), "verify")
        plain = check.run(inst, num, 2026 + 101 * i, False)
        mutated = check.run(inst, num, 2026 + 101 * i, True)
        assert plain.passed, plain.as_dict()
        assert not mutated.passed, mutated.as_dict()
    assert calls == [name, name] * len(configs)
