"""Worst-case optimal stopping on scenario trees.

A finite family of volatility controls drives a non-recombining tree of
state paths; the solver computes the worst-case value of stopping a
path-dependent reward (backward min over controls, max with the reward),
the first meeting time of value and reward, and certifies against an
exhaustive controller-stopper game oracle that stopping there is optimal
no matter which control law materializes.

The names re-exported from the game oracle and the verify checks are
served on first access (_LAZY, through the module __getattr__), so a
process that only solves never loads those two modules.
"""

import importlib
from types import ModuleType as _ModuleType

from .envelope import (
    EnvelopeSolution,
    SnellResult,
    StoppingRule,
    classic_snell,
    robust_envelope,
)
from .errors import (
    ConfigError,
    GridError,
    PathError,
    RuleError,
    SizeError,
    StrategyError,
)
from .model import (
    ControlSet,
    DriftSpec,
    PathSample,
    ScenarioTree,
    drift_eval,
    expand_tree,
    prefix_key,
    simulate_paths,
)
from .pathspace import ModulusSpec, Path, TimeGrid, dist_dinfty
from .reward import (
    RewardFunctional,
    american_put,
    constant_reward,
    custom_reward,
    eval_reward,
    lookback_max,
    reward_values,
    running_sum,
    terminal_abs,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on the name's first read
_LAZY = {
    **dict.fromkeys(
        (
            "GameReport",
            "enumerate_stopping_rules",
            "enumerate_strategies",
            "expected_reward",
            "game_values",
            "worst_case_stopped_reward",
        ),
        "game",
    ),
    **dict.fromkeys(
        (
            "CheckReport",
            "check_continuity_in_prehistory",
            "check_dpp",
            "check_dpp_random_horizon",
            "check_drift",
            "check_envelope_basic",
            "check_martingale_to_tau",
            "check_sde_moments",
            "check_supermartingale",
            "check_tau_monotone",
            "check_y1",
        ),
        "verify",
    ),
}

# every re-exported name, eager and lazy; the submodules are not in it
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LAZY)
)


def __getattr__(name):
    # a name outside the table raises AttributeError, so that `from
    # robuststop import game` still falls back to importing the submodule
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
