"""Worst-case optimal stopping on scenario trees.

A finite family of volatility controls drives a non-recombining tree of
state paths; the solver computes the worst-case value of stopping a
path-dependent reward (backward min over controls, max with the reward),
the first meeting time of value and reward, and certifies against an
exhaustive controller-stopper game oracle that stopping there is optimal
no matter which control law materializes.
"""

from .envelope import (
    EnvelopeSolution,
    SnellResult,
    StoppingRule,
    classic_snell,
    nonlinear_expectation,
    robust_envelope,
    stopped_value,
    tau_delta,
)
from .errors import (
    ConfigError,
    GridError,
    PartitionError,
    PathError,
    RuleError,
    SizeError,
    StrategyError,
)
from .game import (
    ControlStrategy,
    GameReport,
    PastingReport,
    enumerate_stopping_rules,
    enumerate_strategies,
    expected_reward,
    game_values,
    paste_strategies,
    pasting_check,
    state_law,
    worst_case_stopped_reward,
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
    builtin_catalog,
    constant_reward,
    custom_reward,
    eval_reward,
    lookback_max,
    reward_values,
    running_sum,
    terminal_abs,
)
from .verify import (
    CheckReport,
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
)

__version__ = "0.1.0"
