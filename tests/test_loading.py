"""What each entry point loads: the package and the CLI import the game
oracle and the verify checks only when a name or a command needs them,
every name the package re-exports still resolves to the object in its
module, and every name perfbench/tracer.py wraps still exists."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robuststop
from robuststop import cli, envelope, errors, game, model, pathspace, reward, verify

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(robuststop.__file__).resolve().parents[1]

# every name the package re-exports, by the module that defines it
EXPORTS = {
    envelope: [
        "EnvelopeSolution", "SnellResult", "StoppingRule", "classic_snell",
        "robust_envelope",
    ],
    errors: [
        "ConfigError", "GridError", "PathError", "RuleError", "SizeError",
        "StrategyError",
    ],
    game: [
        "GameReport", "enumerate_stopping_rules", "enumerate_strategies",
        "expected_reward", "game_values", "worst_case_stopped_reward",
    ],
    model: [
        "ControlSet", "DriftSpec", "PathSample", "ScenarioTree", "drift_eval",
        "expand_tree", "prefix_key", "simulate_paths",
    ],
    pathspace: ["ModulusSpec", "Path", "TimeGrid", "dist_dinfty"],
    reward: [
        "RewardFunctional", "american_put", "constant_reward", "custom_reward",
        "eval_reward", "lookback_max", "reward_values", "running_sum", "terminal_abs",
    ],
    verify: [
        "CheckReport", "check_continuity_in_prehistory", "check_dpp",
        "check_dpp_random_horizon", "check_drift", "check_envelope_basic",
        "check_martingale_to_tau", "check_sde_moments", "check_supermartingale",
        "check_tau_monotone", "check_y1",
    ],
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names}

SMALL = {
    "grid": {"t_end": 1.0, "n_steps": 2},
    "dynamics": {"x0": 1.0},
    "controls": {"values": [0.5, 1.0], "cap": 1.0},
    "reward": {"kind": "american-put", "strike": 1.0},
    "verify": {"n_samples": 100},
}

# run in a fresh interpreter: perform one step, then print which of the
# watched modules are loaded
PROBE = """
import contextlib, io, json, sys
step = sys.argv[1]
if step == "package":
    import robuststop
elif step == "package-check":
    import robuststop
    robuststop.check_y1
else:
    import robuststop.cli as cli
    if step != "import":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(sys.argv[2:])
        assert code == 0, code
watched = ("robuststop.game", "robuststop.verify", "fractions")
print(json.dumps([m for m in watched if m in sys.modules]))
"""


COMMANDS = ("solve", "oracle", "verify", "demo")


def _loaded(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("step, args, loaded", [
    ("package", [], []),
    ("package-check", [], ["robuststop.verify"]),
    ("import", [], []),
    ("solve", [], []),
    ("demo", [], []),
    ("oracle", [], ["robuststop.game"]),
    ("verify", ["--suite", "y1,envelope,tau"], ["robuststop.verify"]),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, step, args, loaded):
    cfg = SMALL
    if step == "demo":
        cfg = {"demo": {"strikes": [1.0], "sigma_lo": 0.5, "sigma_hi": 1.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    argv = [step, "--config", str(path), *args] if step in COMMANDS else []
    assert _loaded(step, *argv) == loaded


def test_every_exported_name_is_the_object_in_its_module():
    assert robuststop.__all__ == sorted(NAMES)
    assert set(NAMES) <= set(dir(robuststop))
    star = {}
    exec("from robuststop import *", star)
    for name, module in NAMES.items():
        obj = getattr(module, name)
        assert getattr(robuststop, name) is obj, name
        scope = {}
        exec(f"from robuststop import {name}", scope)
        assert scope[name] is obj, name
        assert star[name] is obj, name


def test_test_only_referees_are_not_in_the_package():
    # strategy pasting and two sweep wrappers live in tests/referees.py
    moved = {
        envelope: ["nonlinear_expectation", "stopped_value"],
        errors: ["PartitionError"],
        game: ["PastingReport", "paste_strategies", "pasting_check", "state_law",
               "_reachable_at", "_partition_index", "_at_level"],
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(robuststop, name), name


@pytest.mark.parametrize("name", ["no_such_name", "STRATEGY_CAP", "SAMPLE_CHUNK"])
def test_other_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(robuststop, name)


def test_submodules_still_import_by_name():
    scope = {}
    exec("from robuststop import game, verify", scope)
    assert scope["game"] is game and scope["verify"] is verify


def test_the_caps_live_in_model():
    assert (model.STRATEGY_CAP, model.STOP_TIME_CAP, model.RULE_PREFIX_CAP) == (
        1_000_000, 500_000, 22
    )
    assert game.STRATEGY_CAP is model.STRATEGY_CAP
    assert game.STOP_TIME_CAP is model.STOP_TIME_CAP
    assert game.RULE_PREFIX_CAP is model.RULE_PREFIX_CAP
    assert cli.build_solver({}) == {
        "delta": 0.0, "tolerance": 1e-9, "node_cap": model.DEFAULT_NODE_CAP,
        "strategy_cap": 1_000_000, "stop_time_cap": 500_000, "rule_prefix_cap": 22,
    }


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


MODULES = {"cli": cli, "envelope": envelope, "game": game, "verify": verify}


def test_every_name_the_tracer_wraps_exists():
    tracer = _tracer()
    for mod, attr, *_ in tracer.WRAPPED + tracer.PER_SAMPLE:
        assert callable(getattr(MODULES[mod], attr, None)), (mod, attr)


def test_traced_commands_reach_the_wrapped_names(tmp_path, capsys):
    # the oracle calls cli.game_values and verify its checks as vf.<name>,
    # so the wrappers the tracer installs see every call
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    module = _tracer()
    tracer = module.Tracer()
    before = {(m, a): getattr(MODULES[m], a) for m, a, *_ in module.WRAPPED}
    tracer.install(MODULES)
    try:
        assert tracer.call(0, cli.main, ["oracle", "--config", str(path)]) == 0
        argv = ["verify", "--config", str(path), "--suite", "y1,envelope,tau"]
        assert tracer.call(1, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {(m, a): getattr(MODULES[m], a) for m, a in before} == before
    names = [(span.op, span.name) for span in tracer.spans]
    assert names.count((0, "game.game_values")) == 1
    for check in ("check_y1", "check_envelope_basic", "check_tau_monotone"):
        assert names.count((1, "verify." + check)) == 1
