"""Shared fixtures: hand-checkable instances and a seeded instance generator.

INST-A: one step on [0,1], x0=0, zero drift, controls {0.5, 1.0},
branching 2, reward |state|.  Its value is 0.5 under the low control
(enumerable by hand: 2 strategies x 2 stopping rules).

INST-B: one step on [0,1], x0=1, single control 1.0, zero drift,
American put at strike 1.  Value max(0, (0 + 1)/2) = 0.5, continue at
the root.

put_n2 / put_n3: the same put with controls {0.5, 1.0} on 2 and 3
steps.  The low control is optimal throughout, so the roots equal the
classic binomial Snell values sqrt(2)/8 and sqrt(3)/8.

make_collision_tree and make_signed_zero_tree build trees where nodes
reached under different controls observe the same state prefix.

rule_keys reads a StoppingRule as a map from prefix keys to decisions,
for the tests that compare rules by the prefixes the stopper observes.

Every report a test has the CLI emit in-process is also rendered with
json.dumps(sort_keys=True, indent=2), the referee of cli._json_text, and
the two texts must be equal (an autouse fixture).  alarm(seconds) makes
an in-process CLI run that outlives its seconds exit 4.
"""

import json
import signal

import numpy as np
import pytest

from robuststop import cli
from robuststop import (
    ControlSet,
    DriftSpec,
    ScenarioTree,
    TimeGrid,
    american_put,
    constant_reward,
    expand_tree,
    lookback_max,
    running_sum,
    terminal_abs,
)
from referees import prefix_keys


def make_inst_a():
    grid = TimeGrid(0.0, 1.0, 1)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    tree = expand_tree(grid, 0.0, DriftSpec("zero"), controls)
    return tree, terminal_abs()


def make_inst_b():
    grid = TimeGrid(0.0, 1.0, 1)
    tree = expand_tree(grid, 1.0, DriftSpec("zero"), ControlSet([1.0], cap=1.0))
    return tree, american_put(strike=1.0, base=0.0)


def make_put(n_steps):
    grid = TimeGrid(0.0, 1.0, n_steps)
    controls = ControlSet([0.5, 1.0], cap=1.0)
    tree = expand_tree(grid, 1.0, DriftSpec("zero"), controls)
    return tree, american_put(strike=1.0, base=0.0)


def make_collision_tree(n_steps, init_prefix=None):
    """d = 2, two controls that share their first column, so after one
    step a control-0 and a control-1 child observe the same state."""
    controls = ControlSet([np.eye(2), np.diag([1.0, 2.0])], cap=2.0)
    return expand_tree(TimeGrid(0.0, 1.0, n_steps), np.array([0.0, 0.0]),
                       DriftSpec("zero"), controls, init_prefix=init_prefix)


def make_signed_zero_tree(n_steps=1):
    """One control, two outcomes per node.  The first step's outcomes
    differ only in the sign of zero, so prefix_key, which compares
    floats, gives both one key; a second step moves by +-0.5."""
    states = [np.zeros((1, 1)), np.array([[0.0], [-0.0]])]
    if n_steps == 2:
        states.append(np.array([[0.5], [-0.5], [0.5], [-0.5]]))
    return ScenarioTree(TimeGrid(0.0, 1.0, n_steps), ControlSet([1.0], cap=1.0),
                        DriftSpec("zero"), np.zeros((1, 1)), states,
                        np.full((1, 2), 0.5))


def rule_keys(rule) -> dict:
    """prefix key -> stop, per decided class of a StoppingRule, each key
    built from the prefix of the class's lowest node."""
    heads = np.flatnonzero(rule.flags >= 0)
    return dict(zip(prefix_keys(rule.tree, heads), (rule.flags[heads] == 1).tolist()))


def random_instance(rng):
    """One random instance: d=1, N <= 3, <= 2 controls, branching 2,
    reward drawn from the builtin catalog."""
    n = int(rng.integers(1, 4))
    grid = TimeGrid(0.0, float(rng.choice([0.5, 1.0, 2.0])), n)
    vols = np.unique(np.round(rng.uniform(0.3, 1.4, size=int(rng.integers(1, 3))), 3))
    controls = ControlSet([float(v) for v in vols], cap=2.0)
    kind = rng.choice(["zero", "mean-reversion", "custom-table"])
    if kind == "zero":
        drift = DriftSpec("zero")
    elif kind == "mean-reversion":
        drift = DriftSpec(
            "mean-reversion",
            kappa=1.0,
            rate=float(rng.uniform(0.1, 0.9)),
            level=float(rng.uniform(-0.3, 0.3)),
        )
    else:
        drift = DriftSpec(
            "custom-table", table=[[float(rng.uniform(-0.5, 0.5))] for _ in range(n)]
        )
    x0 = float(rng.uniform(-0.5, 1.5))
    pick = int(rng.integers(0, 5))
    if pick == 0:
        Y = american_put(strike=float(rng.uniform(0.5, 1.5)), base=0.0)
    elif pick == 1:
        Y = lookback_max(base=float(rng.uniform(-0.5, 0.5)))
    elif pick == 2:
        Y = terminal_abs(base=float(rng.uniform(-0.5, 0.5)))
    elif pick == 3:
        Y = running_sum(scale=float(rng.uniform(-0.4, 0.4)), n_steps=n, dt=grid.dt)
    else:
        Y = constant_reward(float(rng.uniform(-1.0, 1.0)))
    tree = expand_tree(grid, x0, drift, controls)
    return tree, Y


@pytest.fixture
def inst_a():
    return make_inst_a()


@pytest.fixture
def inst_b():
    return make_inst_b()


@pytest.fixture
def put_n2():
    return make_put(2)


@pytest.fixture
def put_n3():
    return make_put(3)


@pytest.fixture
def rand_instance():
    return random_instance


@pytest.fixture(autouse=True)
def reports_render_as_json_dumps(monkeypatch):
    render = cli._json_text

    def refereed(report):
        text = render(report)
        assert text == json.dumps(report, sort_keys=True, indent=2)
        return text

    monkeypatch.setattr(cli, "_json_text", refereed)


@pytest.fixture
def alarm():
    """Turns a run that outlives its seconds into an exception, which
    main reports as exit 4, instead of a hung test session."""

    def expire(signum, frame):
        raise TimeoutError("run outlived its alarm")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
