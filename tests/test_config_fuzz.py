"""Seeded config fuzz: no config makes the CLI crash (exit 4) or hang.

Each case starts from a small put (at most 4 steps, small sample
counts) and sets one to three keys to values from a fixed list of
out-of-range and ill-typed values, then runs solve, oracle and verify
in-process.  Any exit code but 4 is accepted: 2 for a rejected config,
3 for a cap, 0 or 1 for a run that completes.  The listed values keep
every run small: a sample count is either rejected or over its cap in
verify.py, never a large valid one.  The solver caps draw the large
values too, and any cap of 1 or more is valid: a raised
solver.stop_time_cap admits the 4-step two-control put's 10^19
stopping sets, whose root fold the oracle refuses as too large to hold
(exit 3), so no cap makes a run outlast its alarm.

`demo` has its own small base, a two-strike interval on 2 steps, and
draws its `demo.*` keys and `solver.node_cap` from the same values,
with a 2 s alarm a run: the large valid widening counts and the
subnormal `demo.t_end` must be refused, not run for ever or crash.
Since those values stop most runs at the config layer, `demo` also
draws valid configs near its bounds (near_bound_demo_config).  A d = 2
fuzz draws starts near and past the float range of the state norm
(extreme_start_config).

Finite inputs near the float range (a drift rate of -1e300, say) can
overflow in numpy: a tree whose states or rewards overflow is then a
config error, and a check fails on the NaN it meets.  Every command
must do so without a numpy warning: they run with RuntimeWarnings as
errors, so a warning is a crash too.  verify runs twice, with its
whole suite and with its sampled checks alone, since a tree check
refuses rewards past the float range before the prehistory check
expands its own trees.
"""

import copy
import json
import math
import random

from robuststop.cli import DEMO_ROW_CAP, main
from test_demo_parity import _menu_nodes

BASE = {
    "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 2},
    "dynamics": {"x0": 1.0, "drift": {"kind": "zero"}},
    "controls": {"values": [0.5, 1.0], "cap": 1.0},
    "reward": {"kind": "american-put", "strike": 1.0},
    "solver": {"delta": 0.0},
    "verify": {"n_samples": 16, "prehistory_pairs": 2, "moments_steps": 2,
               "moments_paths": 64},
}
# valid drifts the base may take instead, so that their keys are read
DRIFTS = [
    {"kind": "zero"},
    {"kind": "mean-reversion", "kappa": 1.0, "rate": 0.5, "level": 0.2},
    {"kind": "running-max", "kappa": 1.0},
    {"kind": "custom-table", "table": [[0.1], [-0.1], [0.2], [0.0]]},
]
KEYS = [
    ("grid", "t_start"), ("grid", "t_end"), ("grid", "n_steps"),
    ("dynamics", "x0"), ("dynamics", "drift"), ("dynamics", "drift", "kind"),
    ("dynamics", "drift", "kappa"), ("dynamics", "drift", "rate"),
    ("dynamics", "drift", "level"), ("dynamics", "drift", "table"),
    ("controls", "values"), ("controls", "cap"),
    ("reward", "kind"), ("reward", "strike"), ("reward", "base"),
    ("reward", "scale"), ("reward", "value"), ("reward", "sample_range"),
    ("solver", "delta"), ("solver", "tolerance"), ("solver", "node_cap"),
    ("solver", "strategy_cap"), ("solver", "stop_time_cap"),
    ("solver", "rule_prefix_cap"),
    ("verify", "n_samples"), ("verify", "spread"), ("verify", "split"),
    ("verify", "prehistory_pairs"), ("verify", "dpp_s"), ("verify", "barrier"),
    ("verify", "moments_steps"), ("verify", "moments_paths"),
]
# the large valid counts, which every cap key accepts
LARGE = [1e12, 1e20, 1e300, 10**400]
VALUES = [
    0, -1, 0.5, -0.0, 5e-324, -1e300, float("nan"), float("inf"),
    float("-inf"), "1", "", True, False, None, [], [0], [[1.0]], [1.0, "x"],
    {}, {"kind": "zero"},
] + LARGE


DEMO_BASE = {
    "demo": {"base": 1.0, "strikes": [0.9, 1.1], "sigma_lo": 0.3, "sigma_hi": 0.9,
             "t_end": 1.0, "n_steps": 2, "widenings": 2},
}
DEMO_KEYS = [("demo", key) for key in sorted(DEMO_BASE["demo"])] + [("solver", "node_cap")]
# valid demo intervals near their bounds: the narrow ones hold one or two
# volatilities (sigma_lo == sigma_hi, sigma_hi the float after sigma_lo,
# subnormal ones), the wide ones gain volatilities as they widen, among
# them sigma_hi > 3 sigma_lo and edges near the float range, where the
# midpoint overflows or an edge rounds to 0.0 (exit 2)
NARROW = [(0.3, 0.3), (1.7, 1.7), (0.3, math.nextafter(0.3, 1.0)),
          (1.0, math.nextafter(1.0, 2.0)), (5e-324, 1e-323)]
WIDE = [(0.3, 0.9), (0.1, 0.7), (0.05, 40.0), (1e307, 8e307), (8.9e307, 8.98e307),
        (1e307, 1.7e308), (1e-300, 1.0)]
# subnormal (5e-324 over 2 steps rounds to 0.0, exit 2), the least normal
# float and one near the float range
T_ENDS = [5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, 1e300]


def fuzzed_config(rng: random.Random, base=BASE, keys=KEYS) -> dict:
    cfg = copy.deepcopy(base)
    if "grid" in cfg:
        cfg["grid"]["n_steps"] = rng.randint(1, 4)
        cfg["dynamics"]["drift"] = copy.deepcopy(rng.choice(DRIFTS))
    for path in rng.sample(keys, rng.randint(1, 3)):
        node = cfg
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[path[-1]] = copy.deepcopy(rng.choice(VALUES))
    return cfg


def near_bound_demo_config(rng: random.Random) -> dict:
    """A valid demo config drawn near its bounds: an interval, demo.t_end,
    and either demo.widenings one below, at or one past the row cap or a
    few widenings with solver.node_cap at or one below the menus' charge.

    At the row cap a wide interval meets the node cap at once; a narrow
    one passes it and is a valid full-size run (10^6 rows, about 400 MB
    and over 2 s), so the row cap draws wide intervals only."""
    sec = copy.deepcopy(DEMO_BASE["demo"])
    cfg = {"demo": sec}
    at_rows = rng.random() < 0.25
    sec["sigma_lo"], sec["sigma_hi"] = rng.choice(WIDE if at_rows else NARROW + WIDE)
    if rng.random() < 0.5:
        sec["t_end"] = rng.choice(T_ENDS)
    if at_rows:
        sec["widenings"] = DEMO_ROW_CAP // len(sec["strikes"]) - 1 + rng.choice([-1, 0, 1])
    else:
        sec["widenings"] = rng.randint(1, 6)
        cfg["solver"] = {"node_cap": _menu_nodes(sec) - rng.randint(0, 1)}
    return cfg


# verify's sampled checks alone: with a tree check in its suite, verify
# refuses a tree whose rewards overflow before any check runs
SAMPLED = ("verify", "--suite", "y1,drift,prehistory,moments")
COMMANDS = (("solve",), ("oracle",), ("verify",), SAMPLED)


def _crashes(tmp_path, capsys, alarm, configs, commands=COMMANDS, seconds=5.0) -> list:
    """(command, config, last stderr line) of every run of the commands,
    each a command and its options, on the configs that exits 4, a run
    past its alarm among them.  The suite keeps RuntimeWarnings as
    errors (pyproject.toml's filterwarnings), so that a numpy warning is
    a crash too."""
    crashes = []
    for i, cfg in enumerate(configs):
        path = tmp_path / f"config-{i}.json"
        path.write_text(json.dumps(cfg))
        for command in commands:
            alarm(seconds)
            code = main([*command, "--config", str(path)])
            alarm(0)
            err = capsys.readouterr().err
            if code == 4:
                crashes.append((" ".join(command), cfg, err.splitlines()[-1:]))
    return crashes


def test_no_fuzzed_config_exits_4(tmp_path, capsys, alarm):
    rng = random.Random(20261019)
    crashes = _crashes(tmp_path, capsys, alarm, [fuzzed_config(rng) for _ in range(300)])
    assert not crashes, crashes[:5]


def test_no_fuzzed_demo_config_exits_4(tmp_path, capsys, alarm):
    rng = random.Random(20261024)
    configs = [fuzzed_config(rng, DEMO_BASE, DEMO_KEYS) for _ in range(2000)]
    configs += [near_bound_demo_config(rng) for _ in range(400)]
    crashes = _crashes(tmp_path, capsys, alarm, configs, (("demo",),), 2.0)
    assert not crashes, crashes[:5]


# a d = 2 instance whose start lies near or past the float range of
# its state norm: each x0 component 0.0 or +-10**e, e in [150, 300]
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


def extreme_start_config(rng: random.Random) -> dict:
    x0 = [0.0, 0.0]
    for i in rng.sample([0, 1], rng.randint(1, 2)):
        x0[i] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(150, 300)
    return {
        "grid": {"t_end": 1.0, "n_steps": rng.randint(1, 3)},
        "dynamics": {"x0": x0, "drift": copy.deepcopy(rng.choice(DRIFTS[:3]))},
        "controls": {"values": [IDENTITY, [[0.5, 0.0], [0.0, 1.0]]][:rng.randint(1, 2)]},
        "reward": rng.choice([{"kind": "terminal-abs"}, {"kind": "constant", "value": 1.0}]),
        "verify": BASE["verify"],
    }


def test_no_d2_config_with_an_extreme_start_exits_4(tmp_path, capsys, alarm):
    # first the start whose terminal-abs rewards overflow to inf: x0
    # [1e200, 0.0], the identity control, zero drift and 2 steps, which
    # the prehistory check fails (exit 1) on its trees' infinite roots
    rng = random.Random(20261025)
    configs = [{"grid": {"t_end": 1.0, "n_steps": 2},
                "dynamics": {"x0": [1e200, 0.0], "drift": {"kind": "zero"}},
                "controls": {"values": [IDENTITY]}, "reward": {"kind": "terminal-abs"},
                "verify": BASE["verify"]}]
    configs += [extreme_start_config(rng) for _ in range(40)]
    crashes = _crashes(tmp_path, capsys, alarm, configs)
    assert not crashes, crashes[:5]


def test_no_large_valid_cap_exits_4(tmp_path, capsys, alarm):
    # each solver cap at each large value, on the largest base the fuzz
    # draws: the 4-step put, whose 10^19 stopping sets a raised
    # solver.stop_time_cap admits
    configs = []
    for key in ("node_cap", "strategy_cap", "stop_time_cap", "rule_prefix_cap"):
        for value in LARGE:
            cfg = copy.deepcopy(BASE)
            cfg["grid"]["n_steps"] = 4
            cfg["solver"][key] = value
            configs.append(cfg)
    crashes = _crashes(tmp_path, capsys, alarm, configs)
    assert not crashes, crashes[:5]


# every reward kind at a reward.scale near the float maximum; constant
# takes it as its value, since it reads no scale
HUGE_SCALES = [1e300, 1e307, 1e308, 1.7976931348623157e308]


def test_no_reward_scale_near_the_float_maximum_exits_4(tmp_path, capsys, alarm):
    configs = []
    for kind in ("american-put", "lookback-max", "terminal-abs", "constant", "running-sum"):
        for scale in HUGE_SCALES:
            cfg = copy.deepcopy(BASE)
            cfg["reward"] = {"kind": kind, "strike": 1.0, "scale": scale, "value": scale}
            configs.append(cfg)
    crashes = _crashes(tmp_path, capsys, alarm, configs)
    assert not crashes, crashes[:5]
