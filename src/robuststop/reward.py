"""Path-dependent reward functionals.

A reward Y assigns a real payoff to every (time index, state prefix).
Evaluation happens on absolute levels: the canonical zero-anchored path
is shifted by the base level x0.  A stored history is resumed by
starting the tree from it (model.expand_tree's init_prefix), so the
drift and the reward see the same track and k counts its values.
Each payoff formula is written once, in _payoffs, which reads the
current values of a stack of tracks, or their running maxima for
lookback-max, and the whole tracks only for the kinds that need them.
eval_reward derives those from a single prefix or a stack of prefixes of
one length; reward_values reads a tree's per-level states or running
maxima directly, writes each level's payoffs into its slice of the
result, and rebuilds prefixes only for the kinds that read the whole
track.

Every functional declares a one-sided continuity modulus (how much Y can
exceed its value at a later, nearby time-path pair) and a finite lower
bound.  The tests' reward catalog (tests/referees.py) gives the argument
for each built-in declaration; the verify module samples the modulus
(check_y1) and checks only that the bound is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import state_norms
from .pathspace import ModulusSpec

__all__ = [
    "RewardFunctional",
    "eval_reward",
    "reward_values",
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


def eval_reward(Y: RewardFunctional, k: int, prefix):
    """Payoff at time index k on a state prefix of k+1 values.

    prefix is one prefix, of shape (k+1, d) or (k+1,), and gives a float;
    or a stack of n prefixes of shape (n, k+1, d), and gives n payoffs.
    A custom-table callable is called once per prefix on its absolute
    track.
    """
    p = np.atleast_2d(np.asarray(prefix, dtype=np.float64).T).T
    block = p[None] if p.ndim == 2 else p
    _, m, _ = block.shape
    if m != k + 1:
        raise ValueError(f"prefix must hold k+1 = {k + 1} values, got {m}")
    track = Y.base + block
    x = np.max(track, axis=1) if Y.kind == "lookback-max" else track[:, -1, :]
    out = _payoffs(Y, k, x, track)
    return float(out[0]) if p.ndim == 2 else out


def _payoffs(Y: RewardFunctional, k: int, x: np.ndarray, track, out=None) -> np.ndarray:
    """Payoff of n absolute tracks from x, shape (n, d): their current
    values, or for lookback-max their running maxima.  Only running-sum
    and custom-table read track, the whole (n, m, d) stack of absolute
    tracks.  The payoffs are written into out, an (n,) array that x may
    be a view of, or into a new array when out is None."""
    n, d = x.shape
    if out is None:
        out = np.empty(n)
    if Y.kind == "constant":
        out.fill(float(Y.scale))
        return out
    if Y.kind == "terminal-abs":
        return np.multiply(Y.scale, state_norms(x, out), out=out)
    if Y.kind == "custom-table":
        out[:] = [float(Y.table(k, row)) for row in track]
        return out
    if d != 1:
        raise ValueError(f"{Y.kind} is a scalar-path reward, got dim {d}")
    if Y.kind == "american-put":
        gap = np.subtract(Y.strike, x[:, 0], out=out)
        # keeps gap unless 0.0 is strictly larger, so a -0.0 gap stays
        np.copyto(gap, 0.0, where=gap < 0.0)
        return np.multiply(Y.scale, gap, out=out)
    if Y.kind == "lookback-max":
        return np.multiply(Y.scale, x[:, 0], out=out)
    # running-sum: contiguous rows, so np.sum reduces each row as it
    # reduces a single track
    return np.multiply(Y.scale, np.sum(np.ascontiguousarray(track[:, :, 0]), axis=1), out=out)


def reward_values(tree, Y: RewardFunctional) -> np.ndarray:
    """Y evaluated at every tree node, indexed by node id.

    All envelope and game sweeps share this array so their comparisons see
    bit-identical payoffs.  american-put and terminal-abs read each
    level's states, lookback-max its running maxima (base + max(x) is
    max(base + x), as rounding is monotone), and constant none.  Each
    level's payoffs are written into its slice of the result, and at
    d = 1 so is base + the states or maxima they read, so a level
    allocates at most a comparison mask.  The kinds that read the whole
    track, running-sum and custom-table, take one eval_reward call per
    level on the level's rebuilt prefixes.
    """
    if Y.kind == "constant":
        return np.full(tree.n_nodes, float(Y.scale))
    rebuild = Y.kind in ("running-sum", "custom-table")
    levels = tree.peaks if Y.kind == "lookback-max" else tree.states
    out = np.empty(tree.n_nodes)
    for l, (lo, hi) in enumerate(zip(tree.offsets, tree.offsets[1:])):
        k = tree.k0 + l
        if rebuild:
            out[lo:hi] = eval_reward(Y, k, tree.level_prefixes(l))
            continue
        level, payoffs = levels[l], out[lo:hi]
        x = np.add(Y.base, level, out=payoffs[:, None] if level.shape[1] == 1 else None)
        _payoffs(Y, k, x, None, payoffs)
    return out


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
