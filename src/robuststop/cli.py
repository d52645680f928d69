"""Configuration-driven command line front end.

Four subcommands: solve (backward sweep with slice summaries and the
stop-region boundary), oracle (exhaustive game enumeration against the
sweep), verify (the checks of verify.CHECKS by name; with --mutate each
runs on the broken input its entry builds, and must reject it), and demo
(American put under a volatility interval, with CSV tables).

One JSON document configures a run.  Validation is fail-closed: an
unknown section or key is an error, never a silently ignored typo.
Reports are JSON with sorted keys and no timestamps, written as
json.dumps(report, sort_keys=True, indent=2) writes them, byte for byte
(_json_text); tables are CSV with 17 significant digits.  Identical
config and seed always produce byte-identical files.

Exit codes: 0 all requested checks passed, 1 a check failed (or, under
--mutate, a mutation slipped through), 2 usage or configuration error,
3 a size cap or model error rejected the run (a SizeError, whose message
names the cap's config key, or a RuleError), 4 an internal error (any
other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import traceback
from typing import NamedTuple

import numpy as np

from .envelope import (
    EnvelopeSolution,
    backward_sweep,
    classic_snell,  # noqa: F401  perfbench/tracer.py wraps it here, though no command calls it
    column_chunk,
    robust_envelope,
)
from .errors import ConfigError, RuleError, SizeError
from .model import (
    DEFAULT_NODE_CAP,
    RULE_PREFIX_CAP,
    STOP_TIME_CAP,
    STRATEGY_CAP,
    ControlSet,
    DriftSpec,
    _projected_node_count,
    expand_recombined,
    expand_tree,
    min_state_norm,
)
from .pathspace import TimeGrid
from .reward import (
    RewardFunctional,
    american_put,
    constant_reward,
    lookback_max,
    reward_values,
    running_sum,
    terminal_abs,
)

__all__ = ["main"]

# The verify module, bound on the first verify command: no other command
# loads it.  The checks are read as vf.<name> attributes on every call.
vf = None

log = logging.getLogger("robuststop")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

# verify.CHECKS' names, in its order, for --help: building the parser
# does not load the verify module
_SUITES = (
    "y1",
    "drift",
    "envelope",
    "supermartingale",
    "martingale",
    "dpp",
    "dpp-random",
    "tau",
    "prehistory",
    "moments",
)


# ---------------------------------------------------------------------------
# config loading, fail-closed

_SECTIONS = {
    "grid": {"t_start", "t_end", "n_steps"},
    "dynamics": {"x0", "drift"},
    "controls": {"values", "cap"},
    "reward": {"kind", "strike", "base", "scale", "value", "sample_range"},
    "solver": {
        "delta",
        "tolerance",
        "node_cap",
        "strategy_cap",
        "stop_time_cap",
        "rule_prefix_cap",
    },
    "verify": {
        "n_samples",
        "spread",
        "split",
        "prehistory_pairs",
        "dpp_s",
        "barrier",
        "moments_steps",
        "moments_paths",
    },
    "demo": {
        "base",
        "strikes",
        "sigma_lo",
        "sigma_hi",
        "t_end",
        "n_steps",
        "widenings",
    },
}

_DRIFT_KEYS = {"kind", "kappa", "rate", "level", "table"}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    for name, allowed in _SECTIONS.items():
        if name not in cfg:
            continue
        if not isinstance(cfg[name], dict):
            raise ConfigError(f"section {name!r} must be an object")
        bad = set(cfg[name]) - allowed
        if bad:
            raise ConfigError(f"unknown key(s) in section {name!r}: {sorted(bad)}")
    return cfg


def _section(cfg: dict, name: str, required=()) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config needs a {name!r} section")
        return {}
    missing = [k for k in required if k not in sec]
    if missing:
        raise ConfigError(f"section {name!r} is missing {missing}")
    return sec


def _finite(v, what: str) -> float:
    """v as a float; NaN, infinities and ints beyond the float range are
    rejected (Python's json reads NaN, Infinity and 1e400 as floats)."""
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ConfigError(f"{what} must be finite, got {v!r}")
    return f


def _finite_numbers(v) -> bool | None:
    """None if the JSON value v holds anything but numbers (a bool is
    not one), else whether every float in it is finite."""
    if isinstance(v, list):
        oks = [_finite_numbers(e) for e in v]
        return None if None in oks else all(oks)
    if isinstance(v, float):
        return math.isfinite(v)
    return True if isinstance(v, int) and not isinstance(v, bool) else None


def _finite_array(v, what: str) -> np.ndarray:
    # numpy would convert "1.5" and true to floats, so the JSON types are
    # checked first, and the floats' finiteness in the same walk; an int
    # past the float range fails the conversion, as a ragged list does
    finite = _finite_numbers(v)
    if finite is None:
        raise ConfigError(f"{what} must hold numbers, got {v!r}")
    try:
        a = np.asarray(v, dtype=np.float64)
    except (ValueError, OverflowError):
        raise ConfigError(f"{what} must hold numbers, got {v!r}")
    if not finite:
        raise ConfigError(f"{what} must be finite, got {v!r}")
    return a


def _num(sec: dict, section: str, key: str, default=None, integer=False, minimum=None):
    if key not in sec:
        return default
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {v!r}")
    if integer:
        if isinstance(v, float) and not v.is_integer():
            raise ConfigError(f"{section}.{key} must be an integer, got {v!r}")
        out = int(v)
    else:
        out = _finite(v, f"{section}.{key}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum}, got {v!r}")
    return out


def build_grid(cfg: dict) -> TimeGrid:
    sec = _section(cfg, "grid", required=("t_end", "n_steps"))
    n = _num(sec, "grid", "n_steps", integer=True, minimum=1)
    t_start = _num(sec, "grid", "t_start", 0.0, minimum=0)
    t_end = _num(sec, "grid", "t_end")
    if not t_end > t_start:
        raise ConfigError(f"grid.t_end must exceed grid.t_start, got [{t_start}, {t_end}]")
    return _stepped(TimeGrid(t_start, t_end, n), "grid.t_end - grid.t_start", "grid.n_steps")


def _stepped(grid: TimeGrid, span: str, steps: str, normal: bool = True) -> TimeGrid:
    """grid, if its step, span over steps (the keys named), is a positive
    float, and a normal one unless normal is False (demo's grids)."""
    try:
        dt = grid.dt
    except OverflowError:  # an n_steps beyond the float range
        dt = 0.0
    # a subnormal step loses precision and one that underflows to 0 has no
    # kernel; demo has always taken subnormal steps
    if not (dt >= sys.float_info.min if normal else dt > 0):
        raise ConfigError(
            f"{span} over {steps} must give a positive{' normal' * normal} float step, "
            f"got {dt!r} for [{grid.t_start}, {grid.t_end}] in {grid.n_steps} steps"
        )
    return grid


def build_dynamics(cfg: dict, grid: TimeGrid, dim: int):
    sec = _section(cfg, "dynamics")
    x0 = sec.get("x0", 0.0)
    if isinstance(x0, list):
        x0 = _finite_array(x0, "dynamics.x0")
        if x0.size not in (1, dim):
            raise ConfigError(
                f"dynamics.x0 needs one entry or one per state dimension "
                f"(d = {dim}), got {sec['x0']!r}"
            )
    elif isinstance(x0, bool) or not isinstance(x0, (int, float)):
        raise ConfigError(f"dynamics.x0 must be a number or list, got {x0!r}")
    else:
        x0 = _finite(x0, "dynamics.x0")
    draw = sec.get("drift", {"kind": "zero"})
    if not isinstance(draw, dict):
        raise ConfigError("dynamics.drift must be an object")
    bad = set(draw) - _DRIFT_KEYS
    if bad:
        raise ConfigError(f"unknown key(s) in dynamics.drift: {sorted(bad)}")
    kind = draw.get("kind", "zero")
    if kind == "custom-table":
        table = draw.get("table")
        if not isinstance(table, list):
            raise ConfigError("custom-table drift needs a JSON list table")
        if len(table) < grid.n_steps:
            raise ConfigError(
                f"dynamics.drift.table has {len(table)} rows, grid.n_steps needs {grid.n_steps}"
            )
        for row in table:
            if _finite_array(row, "dynamics.drift.table").size != dim:
                raise ConfigError(
                    f"dynamics.drift.table rows need {dim} entries, one per "
                    f"state dimension, got {row!r}"
                )
    try:
        drift = DriftSpec(
            kind=kind,
            kappa=_num(draw, "drift", "kappa", 1.0),
            rate=_num(draw, "drift", "rate", 0.0),
            level=_num(draw, "drift", "level", 0.0),
            table=draw.get("table"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad drift: {exc}")
    return x0, drift


def build_controls(cfg: dict) -> ControlSet:
    sec = _section(cfg, "controls", required=("values",))
    values = sec["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("controls.values must be a nonempty list")
    mats = [_finite_array(v, "controls.values") for v in values]
    cap = _num(sec, "controls", "cap")
    try:
        return ControlSet(mats, cap=cap)
    except ValueError as exc:
        raise ConfigError(f"bad controls: {exc}")


def build_reward(cfg: dict, grid: TimeGrid) -> RewardFunctional:
    sec = _section(cfg, "reward", required=("kind",))
    kind = sec["kind"]
    base = _num(sec, "reward", "base", 0.0)
    scale = _num(sec, "reward", "scale", 1.0)
    try:
        if kind == "american-put":
            return american_put(_num(sec, "reward", "strike", 1.0), base, scale)
        if kind == "lookback-max":
            return lookback_max(base, scale)
        if kind == "terminal-abs":
            return terminal_abs(base, scale)
        if kind == "running-sum":
            rng = _num(sec, "reward", "sample_range", 8.0)
            return running_sum(base, scale, grid.n_steps, rng, grid.dt)
        if kind == "constant":
            return constant_reward(_num(sec, "reward", "value", 0.0))
    except ValueError as exc:
        raise ConfigError(f"bad reward: {exc}")
    raise ConfigError(f"unknown reward kind {kind!r}")


def build_solver(cfg: dict) -> dict:
    sec = _section(cfg, "solver")
    caps = {
        "node_cap": DEFAULT_NODE_CAP,
        "strategy_cap": STRATEGY_CAP,
        "stop_time_cap": STOP_TIME_CAP,
        "rule_prefix_cap": RULE_PREFIX_CAP,
    }
    out = {
        "delta": _num(sec, "solver", "delta", 0.0, minimum=0),
        "tolerance": _num(sec, "solver", "tolerance", 1e-9, minimum=0),
    }
    for key, default in caps.items():
        out[key] = _num(sec, "solver", key, default, integer=True, minimum=1)
    return out


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(out_dir: str, name: str, header: list, rows: list) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")
    return path


_ENCODE_STR = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    json runs its generator-based pure-Python encoder whenever indent is
    set; this writes the same text in one recursive pass.  Types are
    tested in json's order: str, None, True, False, int and float
    (subclasses included, through int.__repr__ and float.__repr__, with
    NaN and the infinities spelled as json spells them), list or tuple,
    then dict, whose keys must be str.  Anything else, a non-str key
    included, raises TypeError.
    """
    parts = []
    _render(obj, "\n", parts.append)
    return "".join(parts)


def _render(obj, nl: str, put) -> None:
    if isinstance(obj, str):
        put(_ENCODE_STR(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        put(_NON_FINITE.get(text, text))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            put(sep)
            _render(item, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + _ENCODE_STR(key) + ": ")
            _render(obj[key], inner, put)
            sep = "," + inner
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(report: dict, out_dir: str | None, csvs: dict | None = None) -> None:
    text = _json_text(report) + "\n"
    sys.stdout.write(text)
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    for name, (header, rows) in (csvs or {}).items():
        _write_csv(out_dir, name, header, rows)


class Instance(NamedTuple):
    """A config's parsed instance, and for verify's tree checks the
    expanded tree and its solution."""

    grid: TimeGrid
    x0: object
    drift: DriftSpec
    controls: ControlSet
    Y: RewardFunctional
    solver: dict
    tree: object = None
    sol: object = None


def _instance(cfg: dict) -> Instance:
    grid = build_grid(cfg)
    controls = build_controls(cfg)
    x0, drift = build_dynamics(cfg, grid, controls.dim)
    Y = build_reward(cfg, grid)
    if controls.dim != 1 and Y.kind in ("american-put", "lookback-max", "running-sum"):
        raise ConfigError(
            f"reward.kind {Y.kind!r} reads a scalar path, "
            f"but the controls give d = {controls.dim}"
        )
    return Instance(grid, x0, drift, controls, Y, build_solver(cfg))


def _expand(inst: Instance):
    tree = expand_tree(inst.grid, inst.x0, inst.drift, inst.controls,
                       node_cap=inst.solver["node_cap"])
    log.info("expanded tree with %d nodes", tree.n_nodes)
    # finite inputs can still overflow; a state past the float range stays
    # inf or NaN in all its descendants, so the leaves show any of them
    if not np.isfinite(tree.states[-1]).all():
        raise ConfigError(
            "the tree's states overflow the float range; lower grid.t_end, "
            "dynamics.x0, dynamics.drift or controls.values"
        )
    return tree


def _rewards(tree, Y, advice="lower dynamics.x0, reward.base or reward.scale") -> np.ndarray:
    """Y at every node of tree, the one array that the sweeps and the
    game read, refused unless every reward is finite: the ConfigError's
    advice names the keys that set the rewards."""
    # finite states can still give a payoff past the float range: at d > 1
    # the state norm squares the states, which overflows past about
    # 1.3e154, and base and scale move a finite state further.  The
    # refusal names the keys, so numpy's overflow warning stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        y = reward_values(tree, Y)
    if not np.isfinite(y).all():
        raise ConfigError(f"the tree's rewards overflow the float range; {advice}")
    return y


# ---------------------------------------------------------------------------
# solve


def _mean(values: np.ndarray) -> float:
    """values.mean(), or the sum of values / len(values) where the plain
    sum overflows: the mean of finite floats fits a float, their sum may
    not."""
    with np.errstate(over="ignore"):
        mean = values.mean()
    if np.isinf(mean):
        mean = (values / len(values)).sum()
    return float(mean)


def cmd_solve(cfg: dict, out_dir: str | None, seed: int) -> int:
    """Solve the configured instance and report the envelope level by level.

    Each level's summaries are reductions over views of the solution's
    whole level: the min, mean and max of z and y, the number of stopped
    nodes, and the least state norm among them (min_state_norm under the
    stop mask), so no level copies its stopped rows out.  The tau*
    summary comes from sol.tau_extent(), which builds no scenario map.
    """
    inst = _instance(cfg)
    grid, controls = inst.grid, inst.controls
    tree = _expand(inst)
    sol = robust_envelope(tree, _rewards(tree, inst.Y), delta=inst.solver["delta"])

    slices = []
    boundary_rows = []
    for k in range(tree.k0, grid.n_steps + 1):
        nodes = tree.level(k)
        z = sol.z[nodes]
        y = sol.y[nodes]
        stopped = sol.stop[nodes]
        n_stopped = int(np.count_nonzero(stopped))
        slices.append(
            {
                "k": k,
                "time": grid.time(k),
                "n_nodes": nodes.stop - nodes.start,
                "n_stopped": n_stopped,
                "z_min": float(np.minimum.reduce(z)),
                "z_mean": _mean(z),
                "z_max": float(np.maximum.reduce(z)),
                "y_min": float(np.minimum.reduce(y)),
                "y_max": float(np.maximum.reduce(y)),
            }
        )
        min_abs = min_state_norm(tree.states_at(k), where=stopped) if n_stopped else None
        boundary_rows.append(
            [k, grid.time(k), n_stopped, "" if min_abs is None else min_abs]
        )

    n_scenarios, earliest, latest = sol.tau_extent()
    n_interior = tree.offsets[-2]
    counts = np.bincount(sol.argmin_control[:n_interior], minlength=len(controls))
    freqs = (counts / max(n_interior, 1)).tolist()

    report = {
        "command": "solve",
        "seed": seed,
        "root_value": sol.root_value(),
        "delta": inst.solver["delta"],
        "n_nodes": tree.n_nodes,
        "n_controls": len(controls),
        "argmin_control_frequencies": freqs,
        "slices": slices,
        "stop_boundary": [
            {"k": r[0], "time": r[1], "n_stopped": r[2], "min_abs_state": r[3]}
            for r in boundary_rows
        ],
        "tau_star": {"n_scenarios": n_scenarios, "earliest": earliest, "latest": latest},
    }
    csvs = {
        # each slice dict lists its keys in the CSV's column order
        "slices.csv": (list(slices[0]), [list(s.values()) for s in slices]),
        "boundary.csv": (
            ["k", "time", "n_stopped", "min_abs_state_stopped"],
            boundary_rows,
        ),
    }
    _emit(report, out_dir, csvs)
    return 0


# ---------------------------------------------------------------------------
# oracle


def game_values(*args, **kwargs):
    """game.game_values, with the game module imported on the first call:
    only oracle plays the game, so no other command loads it."""
    from . import game

    return game.game_values(*args, **kwargs)


def cmd_oracle(cfg: dict, out_dir: str | None, seed: int) -> int:
    inst = _instance(cfg)
    solver = inst.solver
    tree = _expand(inst)
    rep = game_values(
        tree,
        _rewards(tree, inst.Y),
        tolerance=solver["tolerance"],
        strategy_cap=solver["strategy_cap"],
        stop_time_cap=solver["stop_time_cap"],
        rule_prefix_cap=solver["rule_prefix_cap"],
    )
    # the non-terminal prefix classes where the tau* rule stops
    stops = int(np.count_nonzero(rep.optimal_rule.flags[: tree.offsets[-2]] == 1))
    report = {
        "command": "oracle",
        "seed": seed,
        "lower": rep.lower,
        "upper": rep.upper,
        "envelope_root": rep.envelope_root,
        "value_at_tau_star": rep.value_at_tau_star,
        "saddle_value": rep.saddle_value,
        "max_gap": rep.max_gap,
        "agree": rep.agree,
        "saddle": rep.saddle,
        "tolerance": rep.tolerance,
        "n_strategies": rep.n_strategies,
        "n_stopping_times": rep.n_stopping_times,
        "n_rule_maps": rep.n_rule_maps,
        "optimal_rule_stops": stops,
        "optimal_strategy_nodes": int(np.count_nonzero(rep.optimal_strategy >= 0)),
    }
    _emit(report, out_dir)
    return 0 if (rep.agree and rep.saddle) else 1


# ---------------------------------------------------------------------------
# verify


def _parse_suite(spec: str) -> list:
    checks = vf.CHECKS
    if spec is None or spec.strip() == "":
        raise ConfigError(f"empty check selector; pick from {', '.join(checks)} or 'all'")
    if spec.strip() == "all":
        return list(checks)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    bad = [s for s in names if s not in checks]
    if bad:
        raise ConfigError(f"unknown check name(s): {bad}; pick from {', '.join(checks)}")
    # the report keys each check by name, so a repeat would hide a run
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise ConfigError(f"check name(s) given more than once: {repeated}")
    if not names:
        raise ConfigError("empty check selector")
    return names


def cmd_verify(cfg: dict, suite_spec: str, out_dir: str | None, seed: int,
               threads: int, mutate: bool) -> int:
    global vf
    if vf is None:
        from . import verify as vf
    # --threads is still parsed and range-checked so existing command
    # lines keep working, but the checks always run in order here
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    names = _parse_suite(suite_spec)
    inst = _instance(cfg)
    if any(vf.CHECKS[name].reads_tree for name in names):
        tree = _expand(inst)
        sol = robust_envelope(tree, _rewards(tree, inst.Y), delta=inst.solver["delta"])
        inst = inst._replace(tree=tree, sol=sol)
    num = functools.partial(_num, _section(cfg, "verify"), "verify")
    # read and checked before the first check, whichever checks read them
    vf.sample_keys(num)

    reports = []
    for i, name in enumerate(names):
        rep = vf.CHECKS[name].run(inst, num, seed + 101 * i, mutate)
        log.info("check %s: %s", name, "pass" if rep.passed else "FAIL")
        reports.append((name, rep))

    if mutate:
        ok = all(not rep.passed for _, rep in reports)
    else:
        ok = all(rep.passed for _, rep in reports)
    report = {
        "command": "verify",
        "seed": seed,
        "mutate": mutate,
        "suite": names,
        "checks": {name: rep.as_dict() for name, rep in reports},
        "all_passed": all(rep.passed for _, rep in reports),
        "ok": ok,
    }
    _emit(report, out_dir)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# demo

# The widening rows a demo holds, widenings + 1 per strike, take about
# 413 bytes each (in-process at 10^6 rows): this fixed cap keeps ~400 MB.
DEMO_ROW_CAP = 10**6


def _held(held: int, size: int, n_steps: int, node_cap: int) -> int:
    """held plus the tree nodes of a demo menu of size volatilities (2 * size
    children a node), refused past node_cap."""
    held += _projected_node_count(n_steps, 2 * size, node_cap - held)
    if held > node_cap:
        raise SizeError(
            f"the demo's trees together exceed the cap {node_cap} tree nodes; "
            f"lower demo.widenings or raise solver.node_cap to allow more"
        )
    return held


def cmd_demo(cfg: dict, out_dir: str | None, seed: int) -> int:
    sec = _section(cfg, "demo", required=("strikes", "sigma_lo", "sigma_hi"))
    base = _num(sec, "demo", "base", 1.0)
    strikes = sec["strikes"]
    if not isinstance(strikes, list) or not strikes:
        raise ConfigError("demo.strikes must be a nonempty list")
    for K in strikes:
        if isinstance(K, bool) or not isinstance(K, (int, float)):
            raise ConfigError(f"demo.strikes entries must be numbers, got {K!r}")
        _finite(K, "demo.strikes")
    lo = _num(sec, "demo", "sigma_lo")
    hi = _num(sec, "demo", "sigma_hi")
    if not 0 < lo <= hi:
        raise ConfigError(f"need 0 < sigma_lo <= sigma_hi, got [{lo}, {hi}]")
    t_end = _num(sec, "demo", "t_end", 1.0)
    if not t_end > 0:
        raise ConfigError(f"demo.t_end must be > 0, got {t_end}")
    n_steps = _num(sec, "demo", "n_steps", 3, integer=True, minimum=1)
    widenings = _num(sec, "demo", "widenings", 4, integer=True, minimum=1)

    node_cap = build_solver(cfg)["node_cap"]
    mid = (lo + hi) / 2.0

    # every widening edge moves monotonically with j, and so does its
    # rounding, so the edges at j = 0 and j = widenings bound the rest:
    # near the float range the midpoint overflows (NaN edges) or a lower
    # edge rounds to 0.0.  The rows are bounded before any is built
    for frac in (0.0, 1.0):
        for edge in (mid + (lo - mid) * frac, mid + (hi - mid) * frac):
            if not (math.isfinite(edge) and edge > 0):
                raise ConfigError(
                    f"demo.sigma_lo and demo.sigma_hi give the widening edge {edge!r}; "
                    f"every edge must be a finite number > 0"
                )
    rows = (widenings + 1) * len(strikes)
    if rows > DEMO_ROW_CAP:
        raise SizeError.over_cap(rows, "widening rows", DEMO_ROW_CAP, "demo.widenings", advice=(
            "lower demo.widenings (solver.node_cap bounds the trees, not the rows)"))

    # each distinct menu is held to the cap as if it kept its own tree, in
    # the order met: the robust menu, the classic ones, then the widening
    # ones.  These nest, so the inf runs over a superset and the value
    # cannot increase: joined lists the volatilities in the order they
    # join, and widening menu j is its first size_j, named by that size
    named = [frozenset(menu) for menu in ({lo, hi}, {lo}, {hi})]
    fixed, held = dict.fromkeys(named), 0
    for menu in fixed:
        held = _held(held, len(menu), n_steps, node_cap)
    joined, sizes, steps = {mid: None}, [], []
    for j in range(widenings + 1):
        frac = j / widenings
        edges = [mid + (lo - mid) * frac, mid + (hi - mid) * frac]
        joined.update(dict.fromkeys(edges))
        if j == 0 or len(joined) > sizes[-1]:
            sizes.append(len(joined))
            if len(joined) <= 2 and frozenset(joined) in fixed:
                fixed[frozenset(joined)] = len(sizes) - 1
            else:
                held = _held(held, len(joined), n_steps, node_cap)
        steps.append((j, edges, len(joined), len(sizes) - 1))
    # a robust or classic menu reads the widening column that repeats it
    # (met above), or else a column of its own after the widening ones.
    # sigma_lo and sigma_hi join last, so their rank is past every size
    own = [menu for menu, col in fixed.items() if col is None]
    fixed.update((menu, len(sizes) + i) for i, menu in enumerate(own))
    joined.update(dict.fromkeys((lo, hi)))
    grid = _stepped(TimeGrid(0.0, t_end, n_steps), "demo.t_end", "demo.n_steps", normal=False)

    # a sub-menu's envelope is its menu's recursion with the min over its
    # own controls, which share their kernels and sorted order, so it is
    # a column of one sweep on the tree of every volatility, bitwise its
    # own tree's values where its controls reach.  A widening column
    # allows the sorted controls whose join index (rank) is below its
    # size.  With a zero drift and a put of the current state the tree is
    # recombined
    vols = list(joined)
    rank, ctl = np.argsort(vols), np.sort(vols)
    own_allowed = np.array([[u in menu for menu in own] for u in ctl], dtype=bool)
    tree = expand_recombined(grid, 0.0, DriftSpec("zero"), ControlSet(vols))
    # the stop boundary reads the robust column; its nodes and their
    # multiplicities are those that its menu's slots reach
    rc = fixed[named[0]]
    multiplicity = tree.multiplicity((ctl == lo) | (ctl == hi))
    n, step = len(sizes), column_chunk(tree)

    value_rows, boundary_rows, widening_rows = [], [], []
    monotone, classic_gap = True, 0.0
    for K in strikes:
        # strike - (base + x) overflows where K and base are far apart
        y = _rewards(tree, american_put(strike=float(K), base=base),
                     "bring demo.base and demo.strikes nearer to 0")
        # every column's root, in chunks of columns that keep the sweep's
        # buffers in a fixed budget, each chunk with its own mask
        roots = []
        for a in range(0, n + len(own), step):
            allowed = np.concatenate([rank[:, None] < sizes[a:a + step],
                                      own_allowed[:, max(a, n) - n:max(a + step, n) - n]],
                                     axis=1)
            z, argmin = backward_sweep(tree, y, floor=y, allowed=allowed[None])
            if a <= rc < a + step:
                sol = EnvelopeSolution(tree, 0.0, y, z[:, rc - a].copy(),
                                       argmin[:, rc - a].copy())
            roots += z[tree.root].tolist()
            del z, argmin  # so that the next chunk's sweep holds the budget alone
        robust, classic_lo, classic_hi = (roots[fixed[menu]] for menu in named)
        if lo == hi:
            classic_gap = max(classic_gap, abs(robust - classic_lo))
        value_rows.append([float(K), lo, hi, robust, classic_lo, classic_hi])

        # a merged node stands for multiplicity tree nodes of its state,
        # and for none where the robust menu does not reach it.  A merged
        # level orders its states unlike the tree, which can move
        # Python's max only between 0.0 and -0.0 or around a NaN, and no
        # state here is either: from x0 = 0.0 each step adds a finite
        # increment to a 0.0 drift shift, then the parent's state
        for l, states in enumerate(tree.states):
            stopped = sol.stop[tree.offsets[l]:tree.offsets[l + 1]] & (multiplicity[l] > 0)
            n_stopped = int(multiplicity[l][stopped].sum())
            level = max((base + states[stopped, 0]).tolist()) if n_stopped else ""
            boundary_rows.append([float(K), l, grid.time(l), n_stopped, level])

        prev = None
        for j, edges, size, col in steps:
            val = roots[col]
            if prev is not None and val > prev:
                monotone = False
            prev = val
            widening_rows.append([float(K), j, *edges, size, val])

    passed = monotone and (lo != hi or classic_gap <= 1e-12)
    report = {
        "command": "demo",
        "seed": seed,
        "sigma_lo": lo,
        "sigma_hi": hi,
        "base": base,
        "n_steps": n_steps,
        "values": [
            {
                "strike": r[0],
                "robust_value": r[3],
                "classic_value_lo": r[4],
                "classic_value_hi": r[5],
            }
            for r in value_rows
        ],
        "widening_monotone": monotone,
        "classic_gap": classic_gap if lo == hi else None,
        "passed": passed,
    }
    csvs = {
        "values.csv": (
            ["strike", "sigma_lo", "sigma_hi", "robust_value",
             "classic_value_lo", "classic_value_hi"],
            value_rows,
        ),
        "boundary.csv": (
            ["strike", "k", "time", "n_stopped", "max_level_stopped"],
            boundary_rows,
        ),
        "widening.csv": (
            ["strike", "step", "sigma_lo", "sigma_hi", "menu_size", "value"],
            widening_rows,
        ),
    }
    _emit(report, out_dir, csvs)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its command sub-parsers by name, built on
    the first main call and shared by every later one in the process;
    parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="robuststop",
        description="worst-case optimal stopping on scenario trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text in (
        ("solve", "backward envelope sweep with slice summaries"),
        ("oracle", "exhaustive game enumeration against the sweep"),
        ("verify", "run structural checks from a config"),
        ("demo", "American put under a volatility interval"),
    ):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="directory for report and CSVs")
        p.add_argument("--seed", type=int, default=2026, help="base seed (u64)")
        if name == "verify":
            p.add_argument(
                "--threads",
                type=int,
                default=1,
                help="ignored: checks run in order (must be >= 1)",
            )
            p.add_argument(
                "--suite",
                default="all",
                help=f"comma-separated checks: {', '.join(_SUITES)} or 'all'",
            )
            p.add_argument(
                "--mutate",
                action="store_true",
                help="run each check on a broken input and demand rejection",
            )
    return parser, commands


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed as the top-level parser parses it, in one argparse pass.

    The top-level parser hands everything after the command name to that
    command's sub-parser, so a command's arguments go to it directly.
    Only what the sub-parser leaves over (an error the top-level parser
    reports), no command or an unknown one, a top-level option and a
    "--" take the full parse, so every usage message and exit code is
    the full parser's.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands and "--" not in argv:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


@functools.cache
def _log_handler() -> logging.Handler:
    """The robuststop logger's stderr handler, attached on the first
    main call and kept for the process.  The logger's records stop at
    it: a host whose root logger has a handler would print each twice."""
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    log.addHandler(handler)
    log.propagate = False
    return handler


def _setup_logging() -> None:
    """Set the robuststop logger's level from ROBUSTSTOP_LOG, on every
    call.  Its one handler writes to the sys.stderr of the call; the
    root logger, and with it the host process's logging, is left alone."""
    raw = os.environ.get("ROBUSTSTOP_LOG", "warn")
    if raw not in _LOG_LEVELS:
        raise ConfigError(
            f"ROBUSTSTOP_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}"
        )
    _log_handler().stream = sys.stderr
    log.setLevel(_LOG_LEVELS[raw])


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _setup_logging()
        if args.seed < 0 or args.seed >= 2**64:
            raise ConfigError(f"--seed must be a u64, got {args.seed}")
        cfg = load_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg, args.out, args.seed)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.out, args.seed)
        if args.command == "verify":
            return cmd_verify(
                cfg, args.suite, args.out, args.seed, args.threads, args.mutate
            )
        return cmd_demo(cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SizeError, RuleError) as exc:
        # the model errors a valid config can meet: a cap, and a stop
        # region that is not adapted to the observed prefixes (the
        # oracle's tau* rule); any other ValueError is a defect
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
