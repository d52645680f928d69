"""Snell envelopes on scenario trees, all from one backward sweep.

Every value in this module is one step of the paper's nonlinear
expectation, applied level by level from the leaves:

    v = max(floor, min over allowed u of E_u[v next]),

with v frozen where a stop mask holds.  backward_sweep runs that step;
the public functions only choose its inputs:

* robust_envelope: the worst-case envelope Z = max(Y, min_u E_u[Z next])
  (floor Y), with the argmin control per node and the hitting time tau*;
* classic_snell: the envelope under one fixed strategy (floor Y, one
  allowed control per reachable node), with its first-meeting rule;
* nonlinear_expectation: the worst-case mean of leaf values (no floor);
* stopped_value: the worst-case mean of Z frozen by a stopping rule.

The game module's worst-case stopped reward is the same sweep with Y
frozen by a rule, and the verify module's supermartingale, martingale
and dynamic-programming checks are the same sweep with Z as the floor,
the ceiling or the terminal value.  Because every caller shares one
fold, cross-sweep inequalities (lower game value <= upper game value,
stopped values <= envelope values) hold exactly in floating point.
The min over controls and the max with the running reward commute at a
node because the reward there does not depend on the control; the game
module certifies the recursion against direct enumeration instead of
trusting that argument.

forward_pass, the sweep's forward twin, follows a strategy from a node
down to a stop rule, one step per level; every forward walk runs on it.
stop_mask turns a stopping description (grid index, prefix-keyed rule,
or callable) into the per-node mask the sweep takes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import RuleError, StrategyError
from .model import prefix_key
from .reward import RewardFunctional, reward_values

__all__ = [
    "EnvelopeSolution",
    "SnellResult",
    "backward_sweep",
    "forward_pass",
    "stop_mask",
    "robust_envelope",
    "classic_snell",
    "nonlinear_expectation",
    "tau_delta",
    "stopped_value",
]

# Relative guard for testing Z == Y in floating point; tau_star uses
# delta = 0 plus this guard.
STOP_GUARD = 1e-12


def control_index_at(strategy, tree, node: int) -> int:
    """Resolve a strategy (mapping, constant index, or callable) at a node."""
    if isinstance(strategy, (int, np.integer)):
        ci = int(strategy)
    elif callable(strategy):
        ci = int(strategy(node))
    else:
        try:
            ci = int(strategy[node])
        except KeyError:
            raise StrategyError(f"strategy assigns no control to node {node}")
    if not 0 <= ci < len(tree.controls):
        raise StrategyError(f"control index {ci} out of range at node {node}")
    return ci


def stop_mask(tree, rule, node: int = 0) -> np.ndarray:
    """Per-node stop flags of a stopping description, from node down.

    rule is a grid time index (stop once k >= index), a mapping from
    prefix keys to booleans (or an object holding one as .decisions,
    such as a game.StoppingRule), or a callable (k, prefix) -> bool.
    Leaves stop regardless.  A mapping or callable is evaluated by
    forward_pass from node, once per reached prefix class on its lowest
    node's row, so a partial map fails only where a decision is needed.
    Interior nodes below a stop keep False; no sweep reads them.
    """
    mask = np.zeros(tree.n_nodes, dtype=bool)
    mask[tree.offsets[-2]:] = True
    if isinstance(rule, (int, np.integer)):
        l = min(max(int(rule) - tree.k0, 0), len(tree.offsets) - 1)
        mask[tree.offsets[l]:] = True
        return mask
    decisions = getattr(rule, "decisions", rule)
    if callable(decisions):
        decide = lambda k, row: bool(decisions(k, row))
    else:
        def decide(k, row):
            key = prefix_key(k, row)
            return bool(decisions[key]) if key in decisions else -1  # no decision

    def stops(ids):
        if not len(ids):
            return []
        l = bisect.bisect_right(tree.offsets, ids[0]) - 1
        at = (tree.prefix_class[ids] - tree.offsets[l]).tolist()
        block = tree.blocks[l]
        by_class = {j: decide(tree.k0 + l, block[j]) for j in dict.fromkeys(at)}
        flags = [by_class[j] for j in at]
        if -1 in flags:
            raise RuleError(f"rule has no decision for prefix at node {ids[flags.index(-1)]}")
        return flags

    return mask | forward_pass(tree, node, stops=stops)[1]


def forward_pass(tree, node: int = 0, strategy=None, stops=None):
    """The forward twin of backward_sweep: one vectorised step per level
    over the subtree of node, following the strategy's control at each
    node (every control without one), cut off where stops holds.

    stops(ids) gives the flags of one level's reached interior nodes, and
    the strategy (anything control_index_at resolves, a constant once a
    level) the control at each reached interior node that does not stop;
    neither is asked about any other node, so a partial rule or strategy
    fails only where a decision is needed.  Returns per-node arrays
    (reached, stop, control, weight): stop holds at reached nodes that
    stop and at reached leaves, control is -1 where no strategy's control
    is in force, and weight is 1 at node, a child's its parent's times
    weights[ci, oi], 0 if unreached.
    """
    C, B = tree.weights.shape
    w = tree.weights.reshape(-1)
    reached = np.zeros(tree.n_nodes, dtype=bool)
    stop = np.zeros(tree.n_nodes, dtype=bool)
    control = np.full(tree.n_nodes, -1, dtype=np.int64)
    weight = np.zeros(tree.n_nodes)
    reached[node] = True
    weight[node] = 1.0
    ranges = tree.subtree_ranges(node)
    # each level's children are the next level's range, C * B per node
    for (lo, hi), (klo, khi) in zip(ranges, ranges[1:]):
        go = reached[lo:hi]
        if stops is not None:
            ids = lo + np.flatnonzero(go)
            stop[ids] = stops(ids)
            go = go & ~stop[lo:hi]
        if strategy is None:
            kids = np.repeat(go, C * B)
        else:
            ids = lo + np.flatnonzero(go)
            asked = ids[:1] if isinstance(strategy, (int, np.integer)) else ids
            control[ids] = [control_index_at(strategy, tree, i) for i in asked.tolist()]
            kids = np.repeat(control[lo:hi, None] == np.arange(C), B)
        reached[klo:khi] = kids
        weight[klo:khi] = np.where(kids, (weight[lo:hi, None] * w).reshape(-1), 0.0)
    lo, hi = ranges[-1]
    stop[lo:hi] = reached[lo:hi]
    return reached, stop, control, weight


def backward_sweep(tree, values, *, floor=None, ceiling=None, stop=None,
                   allowed=None, node=0):
    """One backward pass of v = max(floor, min over allowed u of E_u[v next]),
    a vectorised step per level over the subtree of node.

    Leaves, and nodes where the stop mask holds, take values.  Every
    other node takes the min over the controls allowed there
    (allowed[i, ci], every control when None) of the left-to-right
    weighted fold of its children's v, then the max with floor[i] when a
    floor is given and the min with ceiling[i] when a ceiling is given.
    The min starts at +inf and moves only on a strictly smaller value,
    so ties go to the smallest control index and a node with no allowed
    control gets +inf; the max keeps floor unless the min is strictly
    larger, as Python's max(floor, best) does, and the min keeps ceiling
    unless the min is strictly smaller.  Keeping
    this one operation order for every caller makes cross-sweep
    inequalities hold exactly in floating point, because rounding is
    monotone term by term.

    Returns per-node arrays (v, continuation, argmin), where continuation
    is the min before floor and stop apply.  All three are NaN, NaN, -1
    outside the subtree, and continuation and argmin are NaN and -1 at
    leaves.
    """
    w = tree.weights
    C, B = w.shape
    v = np.full(tree.n_nodes, np.nan)
    cont = np.full(tree.n_nodes, np.nan)
    argmin = np.full(tree.n_nodes, -1, dtype=np.int64)
    ranges = tree.subtree_ranges(node)
    lo, hi = ranges[-1]
    v[lo:hi] = values[lo:hi]
    # each level's children are the next level's range, in order
    for (lo, hi), (klo, khi) in zip(ranges[-2::-1], ranges[:0:-1]):
        kids = v[klo:khi].reshape(hi - lo, C, B)
        acc = w[:, 0] * kids[:, :, 0]
        for j in range(1, B):
            acc = acc + w[:, j] * kids[:, :, j]
        best = np.full(hi - lo, np.inf)
        best_ci = np.full(hi - lo, -1, dtype=np.int64)
        for ci in range(C):
            better = acc[:, ci] < best
            if allowed is not None:
                better &= allowed[lo:hi, ci]
            best = np.where(better, acc[:, ci], best)
            best_ci[better] = ci
        cont[lo:hi] = best
        argmin[lo:hi] = best_ci
        if floor is not None:
            best = np.where(best > floor[lo:hi], best, floor[lo:hi])
        if ceiling is not None:
            best = np.where(best < ceiling[lo:hi], best, ceiling[lo:hi])
        if stop is not None:
            best = np.where(stop[lo:hi], values[lo:hi], best)
        v[lo:hi] = best
    return v, cont, argmin


def _y_array(tree, Y, pre_history=None) -> np.ndarray:
    if isinstance(Y, RewardFunctional):
        return reward_values(tree, Y, pre_history)
    return np.asarray(Y, dtype=np.float64)


@dataclass
class EnvelopeSolution:
    """Worst-case envelope, per node, plus the stop region.

    continuation is NaN and argmin_control is -1 at leaves.  stop holds
    Z <= Y + delta with a relative floating-point guard; tau maps each
    argmin-consistent scenario (outcome tuple, possibly partial) to its
    first stopping index.
    """

    tree: object
    delta: float
    y: np.ndarray
    z: np.ndarray
    continuation: np.ndarray
    argmin_control: np.ndarray
    stop: np.ndarray
    tau: dict = field(repr=False)

    def stop_flags(self, delta: float | None = None) -> np.ndarray:
        """Recompute the stop region for another delta (guarded)."""
        if delta is None:
            return self.stop
        return self.z - self.y <= delta + STOP_GUARD * (1.0 + np.abs(self.y))

    def stop_rule_map(self, delta: float | None = None) -> dict:
        """Stop/continue decision per observed prefix key.

        The envelope is a function of the prefix, so nodes sharing a
        prefix must agree; a conflict means the solution is corrupt.
        """
        return _prefix_rule(self.tree, np.arange(self.tree.n_nodes), self.stop_flags(delta))

    def root_value(self) -> float:
        return float(self.z[self.tree.root])


def _prefix_rule(tree, ids, flags, conflict="conflicting stop flags for one prefix") -> dict:
    """The flags at increasing node ids as a prefix-keyed map, keyed from
    each class's first node in ids, which every other node must match."""
    first, heads = tree.class_firsts(ids)
    bad = np.flatnonzero(flags != flags[first])
    if len(bad):
        raise RuleError(f"{conflict} at node {ids[bad[0]]}")
    return dict(zip(tree.prefix_keys(ids[heads]), flags[heads].tolist()))


def _scenario_tau(tree, flags, argmin_control) -> dict:
    """First stopping index along every argmin-consistent trajectory.

    A depth-first walk over the argmin-consistent nodes only, with child
    ids computed from the level layout, so it reads no per-node view.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    last = len(off) - 2
    out = {}
    stack = [(0, 0, ())]
    while stack:
        node, l, outcomes = stack.pop()
        if l == last or flags[node]:
            out[outcomes] = tree.k0 + l
            continue
        # argmin -1 (no finite continuation) follows the last control,
        # as a Python index of -1 would
        ci = int(argmin_control[node]) % C
        first = off[l + 1] + (node - off[l]) * C * B + ci * B
        stack.extend((first + oi, l + 1, outcomes + (oi,)) for oi in reversed(range(B)))
    return out


def robust_envelope(
    tree,
    Y,
    delta: float = 0.0,
    pre_history=None,
) -> EnvelopeSolution:
    """Backward sweep of Z = max(Y, min_u E_u[Z next]) from the leaves.

    Y is a RewardFunctional or a precomputed per-node payoff array.  Ties
    in the control argmin go to the smallest control index, so the output
    is deterministic.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    y = _y_array(tree, Y, pre_history)
    z, cont, argmin = backward_sweep(tree, y, floor=y)
    flags = z - y <= delta + STOP_GUARD * (1.0 + np.abs(y))
    tau = _scenario_tau(tree, flags, argmin)
    return EnvelopeSolution(tree, delta, y, z, cont, argmin, flags, tau)


@dataclass
class SnellResult:
    """Classic envelope under one strategy: values on reachable nodes
    (NaN elsewhere), the first-meeting rule keyed by prefix, and the
    root value."""

    tree: object
    from_node: int
    values: np.ndarray
    rule: dict
    root_value: float


def classic_snell(tree, strategy, Y, from_node: int = 0) -> SnellResult:
    """V = max(Y, E[V next]) under a fixed strategy, from from_node down.

    Y may be a RewardFunctional or a precomputed per-node array.  The
    strategy is resolved by forward_pass over the nodes it reaches, then the
    sweep runs with that one control allowed per node.  The returned
    rule stops at the first node where V meets Y (relative guard), which
    is the optimal stopping rule under that single law; reachable nodes
    that share a prefix must agree on it.
    """
    y = _y_array(tree, Y)
    reached, _, control, _ = forward_pass(tree, from_node, strategy)
    allowed = control[:, None] == np.arange(len(tree.controls))
    swept = backward_sweep(tree, y, floor=y, allowed=allowed, node=from_node)[0]
    values = np.where(reached, swept, np.nan)
    ids = np.flatnonzero(reached)
    flags = (values - y <= STOP_GUARD * (1.0 + np.abs(y)))[ids]
    rule = _prefix_rule(tree, ids, flags, "strategy-reachable prefixes disagree")
    return SnellResult(tree, from_node, values, rule, float(values[from_node]))


def nonlinear_expectation(tree, xi, from_node: int = 0) -> float:
    """Backward min over controls of expectations: the worst-case mean of
    a terminal functional, no stopping involved.

    xi is a callable on the leaf's full state prefix, or an array/mapping
    of per-leaf values indexed by node id.
    """
    lo, hi = tree.subtree_ranges(from_node)[-1]
    leaf = np.full(tree.n_nodes, np.nan)
    if callable(xi):
        rows = tree.blocks[-1][lo - tree.offsets[-2]:hi - tree.offsets[-2]]
        leaf[lo:hi] = [float(xi(row)) for row in rows]
    else:
        leaf[lo:hi] = [float(xi[i]) for i in range(lo, hi)]
    return float(backward_sweep(tree, leaf, node=from_node)[0][from_node])


def tau_delta(sol: EnvelopeSolution, delta: float) -> dict:
    """First index with Z <= Y + delta along argmin-consistent scenarios.

    delta = 0 (with the floating-point guard) is tau_star, the first
    meeting time of the envelope and the reward.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    flags = sol.stop_flags(delta)
    return _scenario_tau(sol.tree, flags, sol.argmin_control)


def stopped_value(sol: EnvelopeSolution, node: int, rule_or_time) -> float:
    """Worst-case expected value of the envelope stopped by a rule.

    Computes the nonlinear expectation from node of Z frozen at the
    rule's stopping nodes (see stop_mask): stopping immediately returns
    Z at the node, stopping at the terminal returns the worst-case mean
    of Y there.
    """
    stops = stop_mask(sol.tree, rule_or_time, node)
    return float(backward_sweep(sol.tree, sol.z, stop=stops, node=node)[0][node])
