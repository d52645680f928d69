"""Path-dependent reward functionals.

A reward Y assigns a real payoff to every (time index, state prefix).
Evaluation happens on absolute levels: the canonical zero-anchored path is
shifted by the base level x0, and an optional stored pre-history path is
spliced in front, so Y sees the whole concatenated trajectory.

Every functional declares a one-sided continuity modulus (how much Y can
exceed its value at a later, nearby time-path pair) and a finite lower
bound.  The built-in catalog documents why each declaration holds; the
verify module samples both claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import state_norms
from .pathspace import ModulusSpec, Path

__all__ = [
    "RewardFunctional",
    "CatalogEntry",
    "eval_reward",
    "reward_values",
    "builtin_catalog",
    "american_put",
    "lookback_max",
    "terminal_abs",
    "running_sum",
    "constant_reward",
    "custom_reward",
]

_KINDS = (
    "american-put",
    "lookback-max",
    "terminal-abs",
    "running-sum",
    "constant",
    "custom-table",
)

# Absolute-level range the catalog certificates assume for the kinds whose
# constants depend on it (running-sum); check_y1's default sampler stays
# inside this range.
CATALOG_RANGE = 8.0


@dataclass(frozen=True)
class RewardFunctional:
    """Reward Y_k(prefix) with declared modulus and lower bound.

    strike is the put strike K; base is the level x0 added to the
    canonical path; scale multiplies the payoff.  For kind "constant" the
    payoff is scale itself.  kind "custom-table" evaluates table, a
    callable (k, absolute_values) -> real on the absolute path through k.
    """

    kind: str
    modulus: ModulusSpec
    lower_bound: float
    strike: float = 0.0
    base: float = 0.0
    scale: float = 1.0
    table: object = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")
        if not np.isfinite(self.lower_bound):
            raise ValueError("lower_bound must be finite")
        if self.kind == "custom-table" and not callable(self.table):
            raise ValueError("custom-table reward needs a callable table")
        if self.kind in ("lookback-max", "terminal-abs") and self.scale < 0:
            raise ValueError(f"{self.kind} needs scale >= 0 to stay bounded below")


def _absolute_track(Y: RewardFunctional, k: int, prefix, pre_history: Path | None):
    """Absolute path values through the evaluation node.

    Returns (values, idx): values is the spliced absolute trajectory,
    idx the index of the current node within it.
    """
    p = np.atleast_2d(np.asarray(prefix, dtype=np.float64).T).T
    if p.shape[0] != k + 1:
        raise ValueError(f"prefix must hold k+1 = {k + 1} values, got {p.shape[0]}")
    if pre_history is None:
        return Y.base + p, k
    if pre_history.dim != p.shape[1]:
        raise ValueError("pre-history dim differs from prefix dim")
    pre = pre_history.values
    spliced = np.concatenate([pre, pre[-1] + p[1:]], axis=0)
    return Y.base + spliced, pre.shape[0] - 1 + k


def eval_reward(
    Y: RewardFunctional, k: int, prefix, pre_history: Path | None = None
) -> float:
    """Payoff at time index k on the given state prefix (length k+1)."""
    track, idx = _absolute_track(Y, k, prefix, pre_history)
    d = track.shape[1]
    if Y.kind == "constant":
        return float(Y.scale)
    if Y.kind == "terminal-abs":
        return float(Y.scale * np.linalg.norm(track[idx]))
    if Y.kind == "custom-table":
        return float(Y.table(k, track[: idx + 1]))
    if d != 1:
        raise ValueError(f"{Y.kind} is a scalar-path reward, got dim {d}")
    if Y.kind == "american-put":
        return float(Y.scale * max(Y.strike - track[idx, 0], 0.0))
    if Y.kind == "lookback-max":
        return float(Y.scale * np.max(track[: idx + 1, 0]))
    # running-sum
    return float(Y.scale * np.sum(track[: idx + 1, 0]))


def reward_values(tree, Y: RewardFunctional, pre_history: Path | None = None) -> np.ndarray:
    """Y evaluated at every tree node, indexed by node id.

    All envelope and game sweeps share this array so their comparisons see
    bit-identical payoffs.  Catalog kinds are evaluated one tree level at a
    time, with the same floating-point operations eval_reward performs on
    each node; custom-table callables are called node by node.
    """
    if Y.kind == "custom-table":
        out = np.empty(tree.n_nodes)
        for i in range(tree.n_nodes):
            out[i] = eval_reward(Y, tree.k[i], tree.prefixes[i], pre_history)
        return out
    return np.concatenate([_level_rewards(Y, block, pre_history) for block in tree.blocks])


def _level_rewards(Y: RewardFunctional, block: np.ndarray, pre_history: Path | None):
    """Catalog payoff at every row of a prefix block of shape (n, k+1, d)."""
    n, _, d = block.shape
    if pre_history is None:
        track = Y.base + block
    else:
        if pre_history.dim != d:
            raise ValueError("pre-history dim differs from prefix dim")
        pre = pre_history.values
        track = Y.base + np.concatenate(
            [np.broadcast_to(pre, (n,) + pre.shape), pre[-1] + block[:, 1:, :]], axis=1
        )
    if Y.kind == "constant":
        return np.full(n, float(Y.scale))
    if Y.kind == "terminal-abs":
        return Y.scale * state_norms(track[:, -1, :])
    if d != 1:
        raise ValueError(f"{Y.kind} is a scalar-path reward, got dim {d}")
    # contiguous rows, so np.max and np.sum reduce each row as they reduce
    # the single track in eval_reward
    track = np.ascontiguousarray(track[:, :, 0])
    if Y.kind == "american-put":
        gap = Y.strike - track[:, -1]
        # Python's max(gap, 0.0): keeps gap unless 0.0 is strictly larger
        return Y.scale * np.where(0.0 > gap, 0.0, gap)
    if Y.kind == "lookback-max":
        return Y.scale * np.max(track, axis=1)
    # running-sum
    return Y.scale * np.sum(track, axis=1)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    template: RewardFunctional
    certificate: str


def american_put(strike: float = 1.0, base: float = 1.0, scale: float = 1.0) -> RewardFunctional:
    return RewardFunctional(
        kind="american-put",
        strike=strike,
        base=base,
        scale=scale,
        modulus=ModulusSpec("linear", abs(scale)),
        lower_bound=min(0.0, scale * strike),
    )


def lookback_max(base: float = 0.0, scale: float = 1.0) -> RewardFunctional:
    # running max of the absolute track is at least its time-0 level
    return RewardFunctional(
        kind="lookback-max",
        base=base,
        scale=scale,
        modulus=ModulusSpec("linear", scale),
        lower_bound=scale * base,
    )


def terminal_abs(base: float = 0.0, scale: float = 1.0) -> RewardFunctional:
    return RewardFunctional(
        kind="terminal-abs",
        base=base,
        scale=scale,
        modulus=ModulusSpec("linear", scale),
        lower_bound=0.0,
    )


def running_sum(
    base: float = 0.0,
    scale: float = 1.0,
    n_steps: int = 8,
    sample_range: float = CATALOG_RANGE,
    dt: float | None = None,
) -> RewardFunctional:
    """Cumulative sum of absolute levels through the current node.

    The one-sided modulus constant depends on how many terms the sum can
    hold and how large the levels can get: the shared terms move by at
    most (n_steps + 1) per unit of path distance, and the terms dropped
    between t1 and t2 number (t2 - t1)/dt, each bounded by the level
    range.  The declared constant is only valid while |x0 + path| stays
    within sample_range, which the default check sampler respects.
    """
    if dt is None:
        dt = 1.0 / n_steps
    level = abs(base) + sample_range
    kappa = abs(scale) * ((n_steps + 1) + level / dt)
    return RewardFunctional(
        kind="running-sum",
        base=base,
        scale=scale,
        modulus=ModulusSpec("linear", kappa),
        lower_bound=-abs(scale) * (n_steps + 1) * level,
    )


def constant_reward(value: float = 0.0) -> RewardFunctional:
    return RewardFunctional(
        kind="constant",
        scale=value,
        modulus=ModulusSpec("linear", 0.0),
        lower_bound=value,
    )


def custom_reward(
    table, modulus: ModulusSpec, lower_bound: float, base: float = 0.0
) -> RewardFunctional:
    """Wrap a callable (k, absolute_values) -> real.

    No certificate is derived: the caller owns the declared modulus and
    bound, and check_y1 will sample them like any other functional.
    """
    return RewardFunctional(
        kind="custom-table",
        table=table,
        base=base,
        modulus=modulus,
        lower_bound=lower_bound,
    )


def builtin_catalog() -> list[CatalogEntry]:
    """Built-in rewards with their continuity certificates."""
    return [
        CatalogEntry(
            "american-put",
            american_put(),
            "|(K-a)+ - (K-b)+| <= |a-b|, and the current level moves by at "
            "most the stopped-path gap, so the one-sided bound is linear "
            "with constant |scale|.",
        ),
        CatalogEntry(
            "lookback-max",
            lookback_max(),
            "Running maxima over nested windows: the earlier max is taken "
            "over a subset of the later window, so the one-sided excess is "
            "at most the stopped-path sup gap; linear with constant scale.",
        ),
        CatalogEntry(
            "terminal-abs",
            terminal_abs(),
            "Reverse triangle inequality on the current level; linear with "
            "constant scale.",
        ),
        CatalogEntry(
            "running-sum",
            running_sum(),
            "Shared terms move by at most (n_steps+1) per unit of path "
            "distance; dropped tail terms are bounded by the declared "
            f"sample range {CATALOG_RANGE}.  Constant valid on that range "
            "only (documented restriction).",
        ),
        CatalogEntry(
            "constant",
            constant_reward(0.25),
            "Constant payoff: the modulus is identically zero.",
        ),
    ]
