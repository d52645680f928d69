"""Controlled dynamics: drift evaluation, control menus, the increment
kernels of the first expanded level, scenario-tree expansion, and the
path simulator."""

import math

import numpy as np
import pytest

from robuststop import (
    ControlSet,
    DriftSpec,
    SizeError,
    TimeGrid,
    drift_eval,
    expand_tree,
    simulate_paths,
)
from referees import prefix_key, prefix_keys
from robuststop.model import (
    _node_cap_error,
    _projected_node_count,
    min_state_norm,
    simulate_sup_distances,
    state_norms,
)


def test_drift_kinds_hand_values():
    p = np.array([[0.4], [0.9]])
    u = np.array([[1.0]])
    assert drift_eval(DriftSpec("zero"), 1, p, u).tolist() == [0.0]
    mr = DriftSpec("mean-reversion", kappa=1.0, rate=0.8, level=0.2)
    assert drift_eval(mr, 1, p, u) == pytest.approx([0.8 * (0.2 - 0.9)], abs=1e-15)
    rm = DriftSpec("running-max", kappa=1.0)
    assert drift_eval(rm, 1, p, u) == pytest.approx([-0.9], abs=1e-15)
    tab = DriftSpec("custom-table", table=[[0.3], [0.7]])
    assert drift_eval(tab, 0, p[:1], u).tolist() == [0.3]
    assert drift_eval(tab, 1, p, u).tolist() == [0.7]


def test_drift_validation():
    with pytest.raises(ValueError):
        DriftSpec("brownian-bridge")
    with pytest.raises(ValueError):
        DriftSpec("custom-table")
    with pytest.raises(ValueError):
        DriftSpec("custom-table", table=lambda k, prefix, u: [0.0])
    with pytest.raises(ValueError):
        DriftSpec("zero", kappa=-1.0)


def test_control_set_scalars_sorted_and_deduped():
    cs = ControlSet([1.0, 0.5, 0.5], cap=1.0)
    assert cs.scalars() == [0.5, 1.0]
    assert cs.dim == 1
    assert len(cs.controls) == 2


def test_control_set_holds_its_menu_in_one_array():
    # 100 nested scalar menus of 1, 3, ..., 199 controls: each menu is one
    # read-only (C, d, d) array and its controls are views of it, so the
    # menus hold about 8 bytes a control, not two arrays of their own
    # (about 240 bytes); a d = 2 menu keeps its order and entries too
    import tracemalloc

    vols = [0.5 + 0.001 * i for i in range(200)]
    tracemalloc.start()
    try:
        menus = [ControlSet(vols[: 2 * m + 1]) for m in range(100)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_controls = sum(len(cs) for cs in menus)
    assert n_controls == 10_000
    assert held < 32 * n_controls
    mats = [np.array([[1.0, 0.2], [0.2, 0.5]]), np.array([[0.5, 0.0], [0.0, 0.5]])]
    for cs in (*menus[:3], menus[-1], ControlSet(mats)):
        assert cs.controls.shape == (len(cs), cs.dim, cs.dim)
        assert not cs.controls.flags.writeable
        assert all(u.base is cs.controls for u in [*cs, cs[0], cs[len(cs) - 1]])
    assert [u.tolist() for u in ControlSet(mats)] == [mats[1].tolist(), mats[0].tolist()]
    assert mats[0].flags.writeable


def test_control_set_validation():
    with pytest.raises(ValueError):
        ControlSet([0.5, -0.2], cap=1.0)
    with pytest.raises(ValueError):
        ControlSet([0.0], cap=1.0)
    with pytest.raises(ValueError):
        ControlSet([0.5, 2.0], cap=1.0)
    with pytest.raises(ValueError):
        ControlSet([], cap=1.0)


def test_control_set_matrix_controls():
    m = np.array([[1.0, 0.2], [0.2, 0.5]])
    cs = ControlSet([m], cap=2.0)
    assert cs.dim == 2
    with pytest.raises(ValueError):
        ControlSet([np.array([[1.0, 0.8], [-0.8, 1.0]])], cap=2.0)


def test_control_set_default_cap_is_the_largest_norm():
    # the float the config front end took as its default cap: the largest
    # absolute eigenvalue over the menu, with duplicates
    for controls in ([0.5, 0.7, 0.7], [np.array([[1.0, 0.2], [0.2, 0.5]])] * 2):
        want = max(float(np.max(np.abs(np.linalg.eigvalsh(np.atleast_2d(m)))))
                   for m in controls)
        assert ControlSet(controls).cap == want
    with pytest.raises(ValueError, match="square matrix"):
        ControlSet([[1.0, 2.0]])


def _general_control_check(u, cap):
    """Referee: ControlSet's validation of one control through the general
    symmetric eigensolver, as it ran on every control before 1x1 controls
    took their entry as their eigenvalue.  Returns the stored matrix and
    its norm, or raises what ControlSet raised."""
    m = np.asarray(u, dtype=np.float64)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"control must be a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("control matrix must be symmetric")
    eig = np.linalg.eigvalsh(m)
    if eig[0] <= 0:
        raise ValueError(f"control must be positive definite, eigenvalues {eig}")
    if cap is not None and eig[-1] > cap * (1 + 1e-12):
        raise ValueError(f"control norm {eig[-1]} exceeds cap {cap}")
    return m, float(eig[-1])


SCALAR_CONTROLS = [
    0.5, 1.0, 3, True, 1e-5, 1e16, 0.1 + 0.2, -0.5, -3, 0.0, -0.0, 5e-324,
    2.2250738585072014e-308, -5e-324, 1e308, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"), -float("nan"),
    np.float32(0.3), [0.7], [[0.7]], np.array([[-0.25]]),
]


@pytest.mark.parametrize("cap", [None, 1.0, 0.0, 1e-5, 1e308, float("inf")])
def test_scalar_controls_match_the_general_eigensolver(cap):
    def outcome(check, u):
        try:
            m, norm = check(u)
        except ValueError as exc:
            return type(exc), str(exc)
        return m.tobytes(), m.shape, np.float64(norm).tobytes()

    def fast(u):
        cs = ControlSet([u], cap=cap)
        return cs[0], cs.cap if cap is None else float(np.max(cs[0]))

    for u in SCALAR_CONTROLS:
        assert outcome(fast, u) == outcome(lambda v: _general_control_check(v, cap), u), u
    # on a menu: the same controls, order and cap
    menu = [1.0, 0.5, 5e-324, 1e308, 0.5]
    if cap is None or cap >= 1e308:
        cs = ControlSet(menu, cap=cap)
        ref = [_general_control_check(u, cap) for u in menu]
        assert cs.scalars() == sorted({float(u) for u in menu})
        want = max(norm for _, norm in ref) if cap is None else float(cap)
        assert np.float64(cs.cap).tobytes() == np.float64(want).tobytes()


def _row(tree, i):
    """Time index and state prefix of node i, from the level layout."""
    l = next(l for l in range(len(tree.states)) if i < tree.offsets[l + 1])
    return tree.k0 + l, tree.level_prefixes(l, [i - tree.offsets[l]])[0]


def _leaf_states(tree):
    return tree.states_at(tree.grid.n_steps)[:, 0].tolist()


def _first_level_moments(tree):
    """Weights, mean and covariance of the root's increments under
    control 0, read off the first expanded level."""
    w = tree.weights[0]
    inc = tree.states_at(tree.k0 + 1)[: w.size] - tree.states_at(tree.k0)[0]
    mean = w @ inc
    centered = inc - mean
    return w, mean, (centered.T * w) @ centered


def test_first_level_kernel_moments():
    dt = 0.25
    spec = DriftSpec("mean-reversion", kappa=1.0, rate=0.6, level=0.0)
    tree = expand_tree(TimeGrid(0.0, dt, 1), 0.5, spec, ControlSet([0.7], cap=1.0))
    w, mean, cov = _first_level_moments(tree)
    assert w.tolist() == [0.5, 0.5]
    b = 0.6 * (0.0 - 0.5)
    assert np.allclose(mean, [b * dt], atol=1e-15)
    assert np.allclose(cov, [[0.49 * dt]], atol=1e-12)


def test_first_level_kernel_matrix_covariance():
    dt = 0.5
    u = np.array([[1.0, 0.3], [0.3, 0.8]])
    spec = DriftSpec("mean-reversion", kappa=1.0, rate=0.4, level=0.2)
    x0 = np.array([0.5, -1.0])
    tree = expand_tree(TimeGrid(0.0, dt, 1), x0, spec, ControlSet([u], cap=2.0))
    assert tree.branching == 4
    w, mean, cov = _first_level_moments(tree)
    assert w.tolist() == [0.25] * 4
    assert np.allclose(mean, 0.4 * (0.2 - x0) * dt, atol=1e-15)
    assert np.allclose(cov, u @ u.T * dt, atol=1e-12)


def test_state_norms_match_per_row_norm():
    # np.linalg.norm(a, axis=1) rounds differently on some rows for d > 1;
    # the edge rows hold signed zeros, the smallest subnormal, a value
    # whose square underflows and values whose squares overflow
    rng = np.random.default_rng(7)
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e155, -1e200])
    for d in (1, 2, 3):
        a = rng.normal(size=(4000, d)) * rng.choice([1e-3, 1.0, 1e3], size=(4000, 1))
        a = np.vstack([a, np.repeat(edge[:, None], d, axis=1), np.resize(edge, (8, d))])
        with np.errstate(over="ignore", under="ignore"):
            want = np.array([np.linalg.norm(row) for row in a])
            if d == 1:
                # the exact norm |x| on every row, np.linalg.norm's where
                # x * x is a normal float (or x is zero); the square of
                # the edge rows 5e-324, 1e-160, 1e155 and -1e200 is not
                x = a[:, 0]
                assert state_norms(a).tobytes() == np.abs(x).tobytes()
                sq = x * x
                normal = (x == 0) | (np.isfinite(sq) & (sq >= np.finfo(float).tiny))
                assert np.count_nonzero(~normal) == 12
                assert state_norms(a)[normal].tobytes() == want[normal].tobytes()
                continue
            assert state_norms(a).tobytes() == want.tobytes()
            assert state_norms(a[:, ::-1]).tobytes() == np.array(
                [np.linalg.norm(row) for row in a[:, ::-1]]).tobytes()


# math.hypot against min_state_norm on a row whose square overflows: at
# most 2 ulp apart on 20,000 random rows each at d = 2, 3 and 5
HYPOT_ULPS = 4


@pytest.mark.parametrize("d", [1, 2])
def test_min_state_norm_is_the_least_per_row_norm(d):
    # the least squared norm, rooted once, is the least np.linalg.norm of
    # a row, on states of signed zeros alone and mixed with small, large
    # and random rows; under a mask, taken over the whole array, it is
    # bit for bit the least over the selected rows gathered out.  At
    # d = 1 the norm is |x| with no square, so the rows whose square
    # underflows or overflows (5e-324, -1e-160, 1e155) keep their size.
    # At d = 2 the 1e155 row's square overflows, where np.linalg.norm
    # reads inf: its norm is math.hypot's, within HYPOT_ULPS
    def norm(row):
        """The row's norm, and whether it is np.linalg.norm's bit for bit."""
        if d == 1:
            return abs(float(row[0])), True
        exact = np.linalg.norm(row)
        return (exact, True) if exact < math.inf else (math.hypot(*row), False)

    def assert_norm(got, want):
        want, exact = want
        if exact:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert abs(got - want) <= HYPOT_ULPS * np.spacing(want)

    rng = np.random.default_rng(11)
    zeros = np.array([[0.0] * d, [-0.0] * d, [0.0, -0.0][:d]])
    edge = np.array([5e-324, -1e-160, 1e-150, -3.0, 1e155])
    cases = [zeros[:1], zeros[1:2], zeros]
    for scale in (1e-3, 1.0, 1e3):
        a = rng.normal(size=(500, d)) * scale
        cases += [a, np.vstack([a, zeros[1:2]]),
                  np.vstack([a, np.repeat(edge[:, None], d, axis=1)])]
    for a in cases:
        with np.errstate(over="ignore", under="ignore"):
            want = min(norm(row) for row in a)
            got = min_state_norm(a)
        assert type(got) is float
        assert_norm(got, want)
        masks = [rng.random(len(a)) < p for p in (0.01, 0.5, 0.99)]
        for mask in masks + [np.arange(len(a)) == len(a) - 1]:
            if not mask.any():
                continue
            with np.errstate(over="ignore", under="ignore"):
                want = min(norm(row) for row in a[mask])
                gathered = min_state_norm(a[mask])
                got = min_state_norm(a, where=mask)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(gathered).tobytes()
            assert_norm(got, want)


def test_min_state_norm_past_the_square_range_warns_nothing():
    # rows whose squares all overflow take the least of their scaled
    # norms, within HYPOT_ULPS of math.hypot, and a row past the float
    # range or holding an inf is inf; a smaller row is still exact
    rng = np.random.default_rng(12)
    big = rng.normal(size=(300, 2)) * 10.0 ** rng.uniform(155, 307, size=(300, 1))
    for a in (big, big * [[1.0, 1e-300]], np.array([[1e200, 0.0]]),
              np.vstack([big, [[np.inf, 1.0], [1.0, -np.inf]]])):
        want = min(math.hypot(*row) for row in a)
        got = min_state_norm(a)
        assert abs(got - want) <= HYPOT_ULPS * np.spacing(want)
    assert min_state_norm(np.array([[1e200, 0.0]])) == 1e200
    assert min_state_norm(np.array([[1.7e308, 1.7e308], [np.inf, 0.0]])) == math.inf
    a = np.array([[1e200, 1e200], [0.0, 3.0]])
    got = min_state_norm(a, where=np.array([True, False]))
    assert abs(got - math.hypot(1e200, 1e200)) <= HYPOT_ULPS * np.spacing(got)
    assert min_state_norm(a) == 3.0


def test_min_state_norm_at_d1_is_the_rooted_square():
    # |x| is bit for bit sqrt(x * x) wherever x * x is a normal float,
    # so taking the least |x| at d = 1 moves no output of a state whose
    # square neither overflows nor underflows
    rng = np.random.default_rng(17)
    exps = rng.integers(-500, 501, size=200_000)
    x = np.ldexp(rng.uniform(1.0, 2.0, size=exps.size), exps)
    x[::2] *= -1.0
    assert np.abs(x).min() >= 2.0**-500 and np.abs(x).max() < 2.0**501
    rooted = np.sqrt(x * x)
    for i in rng.choice(x.size, 2_000, replace=False).tolist():
        got = min_state_norm(x[i : i + 1, None])
        assert np.float64(got).tobytes() == rooted[i].tobytes()
    assert np.array_equal(np.abs(x), rooted)
    assert min_state_norm(x[:, None]) == float(rooted.min())


def test_prefix_key_distinguishes_paths():
    a = prefix_key(1, np.array([[0.0], [1.0]]))
    b = prefix_key(1, np.array([[0.0], [1.0]]))
    c = prefix_key(1, np.array([[0.0], [1.5]]))
    assert a == b
    assert a != c
    assert a != prefix_key(0, np.array([[0.0]]))


def test_inst_a_tree_shape(inst_a):
    tree, _ = inst_a
    assert tree.n_nodes == 5
    assert tree.root == 0
    assert tree.offsets == [0, 1, 5]
    assert tree.level(0) == slice(0, 1)
    assert tree.level(1) == slice(1, 5)
    # two controls, two outcomes each, half weight per edge
    assert sorted(_leaf_states(tree)) == [-1.0, -0.5, 0.5, 1.0]
    assert tree.weights.shape == (2, 2)
    assert np.all(tree.weights == 0.5)
    # the root's children, ids 1 to 4, run by control, then outcome: +u,
    # -u per control
    assert tree.offsets[2] - tree.offsets[1] == tree.fanout == 4
    assert _leaf_states(tree) == [0.5, -0.5, 1.0, -1.0]


def test_tree_node_counts_scale_with_depth():
    controls = ControlSet([0.5, 1.0], cap=1.0)
    t2 = expand_tree(TimeGrid(0.0, 1.0, 2), 1.0, DriftSpec("zero"), controls)
    t3 = expand_tree(TimeGrid(0.0, 1.0, 3), 1.0, DriftSpec("zero"), controls)
    assert t2.n_nodes == 1 + 4 + 16
    assert t3.n_nodes == 1 + 4 + 16 + 64


def test_tree_prefix_consistency(put_n2):
    tree, _ = put_n2
    for i in range(tree.n_nodes):
        k, pref = _row(tree, i)
        assert pref.shape[0] == k + 1
        l = k - tree.k0
        assert np.array_equal(tree.states_at(k)[i - tree.offsets[l]], pref[-1])
        if l > 0:
            parent = tree.offsets[l - 1] + (i - tree.offsets[l]) // tree.fanout
            assert np.array_equal(_row(tree, parent)[1], pref[:-1])
        assert prefix_keys(tree, [i])[0][0] == k


def test_tree_drift_moves_children():
    drift = DriftSpec("custom-table", table=[[0.5]])
    tree = expand_tree(TimeGrid(0.0, 1.0, 1), 0.0, drift, ControlSet([1.0], cap=1.0))
    kids = sorted(_leaf_states(tree))
    assert kids == pytest.approx([0.5 - 1.0, 0.5 + 1.0], abs=1e-15)


def test_tree_rejects_short_drift_table():
    drift = DriftSpec("custom-table", table=[[0.5], [0.1]])
    cs = ControlSet([1.0], cap=1.0)
    assert expand_tree(TimeGrid(0.0, 1.0, 2), 0.0, drift, cs).n_nodes == 7
    with pytest.raises(ValueError, match="rows"):
        expand_tree(TimeGrid(0.0, 1.0, 3), 0.0, drift, cs)


def test_tree_level_layout(put_n2):
    tree, _ = put_n2
    assert tree.offsets == [0, 1, 5, 21]
    assert [tree.level_prefixes(l).shape for l in range(3)] == [(1, 1, 1), (4, 2, 1), (16, 3, 1)]
    assert [s.shape for s in tree.states] == [p.shape for p in tree.peaks] == [(1, 1), (4, 1), (16, 1)]
    assert tree.weights.shape == (2, 2)
    for k in range(3):
        nodes = range(tree.offsets[k], tree.offsets[k + 1])
        assert list(range(tree.n_nodes))[tree.level(k)] == list(nodes)
        assert np.array_equal(tree.states_at(k), [_row(tree, i)[1][-1] for i in nodes])
    # children of node i at level l: offsets[l+1] + (i - offsets[l]) * C*B + ci*B + oi;
    # each child's prefix is its parent's plus one step of control ci,
    # up for outcome 0 and down for outcome 1, and every id is one child
    step = np.sqrt(tree.grid.dt)
    children = []
    for i in range(5):
        k, pref = _row(tree, i)
        l = k - tree.k0
        for ci, u in enumerate(tree.controls.scalars()):
            for oi, sign in enumerate((1.0, -1.0)):
                child = tree.offsets[l + 1] + (i - tree.offsets[l]) * 4 + ci * 2 + oi
                children.append(child)
                k_child, kid = _row(tree, child)
                assert k_child == k + 1
                assert np.array_equal(kid[:-1], pref)
                move = kid[-1, 0] - pref[-1, 0]
                assert move == pytest.approx(sign * u * step, abs=1e-15)
    assert children == list(range(1, tree.n_nodes))
    assert tree.offsets[-2] == 5


def test_tree_resume_from_pinned_prefix():
    g = TimeGrid(0.0, 1.0, 3)
    cs = ControlSet([0.5, 1.0], cap=1.0)
    tree = expand_tree(g, 0.0, DriftSpec("zero"), cs, init_prefix=[0.0, 0.4])
    assert tree.k0 == 1
    assert _row(tree, 0)[1].ravel().tolist() == [0.0, 0.4]
    assert tree.n_nodes == 1 + 4 + 16
    assert [tree.level_prefixes(l).shape[1] for l in range(3)] == [2, 3, 4]
    assert np.all(tree.level_prefixes(2)[:, 1, 0] == 0.4)
    with pytest.raises(ValueError):
        expand_tree(g, 0.0, DriftSpec("zero"), cs, init_prefix=np.zeros((5, 1)))


def test_tree_node_cap_is_enforced():
    g = TimeGrid(0.0, 1.0, 12)
    cs = ControlSet([0.5, 1.0], cap=1.0)
    with pytest.raises(SizeError) as exc:
        expand_tree(g, 0.0, DriftSpec("zero"), cs, node_cap=1000)
    assert "1000" in str(exc.value)


def test_node_cap_message_matches_the_exact_count():
    # the message takes its power of ten from logarithms of the closed
    # form, and prints a count below 10^12 in full, as the exact count does
    for fanout in (2, 4, 6, 8):
        for levels in range(1, 120):
            exact = SizeError.over_cap(_projected_node_count(levels, fanout),
                                       "tree nodes", 1, "solver.node_cap")
            assert str(_node_cap_error(levels, fanout, 1)) == str(exact)


def test_simulate_paths_deterministic():
    g = TimeGrid(0.0, 1.0, 4)
    u = np.array([[1.0]])
    a = simulate_paths(g, 0.0, DriftSpec("zero"), u, 7, seed=5)
    b = simulate_paths(g, 0.0, DriftSpec("zero"), u, 7, seed=5)
    c = simulate_paths(g, 0.0, DriftSpec("zero"), u, 7, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values.shape == (7, 5, 1)
    assert np.all(a.values[:, 0, 0] == 0.0)


def test_simulate_paths_block_boundary_stable():
    # n_paths above one RNG block must still be reproducible
    g = TimeGrid(0.0, 1.0, 2)
    u = np.array([[0.5]])
    a = simulate_paths(g, 1.0, DriftSpec("zero"), u, 5000, seed=11)
    b = simulate_paths(g, 1.0, DriftSpec("zero"), u, 5000, seed=11)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values[:, 0, 0] == 1.0)


def test_simulate_paths_sample_views():
    g = TimeGrid(0.0, 1.0, 3)
    sample = simulate_paths(g, 2.0, DriftSpec("zero"), np.array([[1.0]]), 4, seed=3)
    sup = sample.sup_distance_from_start()
    assert sup.shape == (4,)
    assert np.all(sup >= 0.0)
    ref = np.max(np.abs(sample.values[:, :, 0] - 2.0), axis=1)
    np.testing.assert_allclose(sup, ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sup_distances_match_stored_paths_bitwise(d):
    # every drift of one call steps on the same normals, and each row is
    # the supremum of the paths simulate_paths stores for that drift; the
    # sup-only kernel skips steps that change only the sign of a zero, so
    # the starts include both zeros and the controls a zero matrix, whose
    # increments are all signed zeros
    g = TimeGrid(0.3, 1.7, 7)
    u = 0.7 if d == 1 else np.eye(d) * 0.8 + 0.1
    drifts = [
        DriftSpec("zero"),
        DriftSpec("mean-reversion", rate=0.8, level=0.1),
        DriftSpec("mean-reversion", rate=0.8, level=0.0),
        DriftSpec("running-max", kappa=0.3),
        DriftSpec("custom-table", table=[[0.1 * (k - 3)] * d for k in range(7)]),
    ]
    for control in (u, 0.0 * np.asarray(u)):
        for x0 in (-1.5, 0.0, -0.0):
            for n_paths in (1, 4097, 2 * 4096 + 1):
                sups = simulate_sup_distances(g, x0, drifts, control, n_paths, seed=9)
                assert sups.shape == (len(drifts), n_paths)
                for row, spec in zip(sups, drifts):
                    ref = simulate_paths(g, x0, spec, control, n_paths, seed=9)
                    assert row.tobytes() == ref.sup_distance_from_start().tobytes()


def test_stored_paths_keep_the_matrix_products_zero_signs():
    # at d = 1 the stored increments are the product 0.0 + xi * u: with a
    # zero control every one is +0.0, where xi * 0.0 alone is -0.0 on a
    # negative draw, and only that sign decides the state after a -0.0
    # start and -0.0 shifts
    g = TimeGrid(0.0, 1.0, 3)
    drift = DriftSpec("custom-table", table=[[-0.0]] * 3)
    values = simulate_paths(g, -0.0, drift, 0.0, 64, seed=5).values
    assert values[:, 1:].tobytes() == np.zeros((64, 3, 1)).tobytes()


def test_sup_distances_rejects_empty_sample():
    with pytest.raises(ValueError, match="n_paths"):
        simulate_sup_distances(TimeGrid(0.0, 1.0, 2), 0.0, [DriftSpec("zero")], 1.0, 0, 1)
