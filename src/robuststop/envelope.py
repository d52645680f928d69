"""Snell envelopes on scenario trees.

Two sweeps share one arithmetic kernel:

* classic_snell: the envelope under a single fixed strategy,
  V = max(Y, E[V next]), with its first-meeting stopping rule;
* robust_envelope: the worst-case envelope over the whole control menu,
  Z = max(Y, min_u E_u[Z next]), with the argmin control per node.

The worst-case form is the one-step dynamic programming recursion; the
min over controls and the max with the running reward commute at a node
because the reward there does not depend on the control.  The game module
certifies the recursion against direct enumeration instead of trusting
that argument.

Also here: the nonlinear expectation (backward min over controls with no
reward max), the hitting times tau_delta / tau_star, and stopped-envelope
evaluation for the supermartingale and martingale checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RuleError, StrategyError
from .reward import RewardFunctional, reward_values

__all__ = [
    "EnvelopeSolution",
    "SnellResult",
    "robust_envelope",
    "classic_snell",
    "nonlinear_expectation",
    "tau_delta",
    "stopped_value",
]

# Relative guard for testing Z == Y in floating point; tau_star uses
# delta = 0 plus this guard.
STOP_GUARD = 1e-12


def _expect(weights, values) -> float:
    """Left-to-right weighted fold, the single reduction used by every
    sweep in the package.  Keeping one operation order makes cross-sweep
    inequalities (lower game value <= upper game value, stopped values
    <= envelope values) hold exactly in floating point, because rounding
    is monotone term by term."""
    acc = weights[0] * values[0]
    for i in range(1, len(weights)):
        acc = acc + weights[i] * values[i]
    return float(acc)


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


def _stop_predicate(rule_or_time, tree):
    """Normalize a stopping description to a node -> bool predicate.

    Accepts a grid time index (stop once k >= index), a mapping from
    prefix keys to booleans, or a callable (k, prefix) -> bool.  Terminal
    nodes stop regardless.
    """
    if isinstance(rule_or_time, (int, np.integer)):
        r = int(rule_or_time)
        return lambda i: tree.k[i] >= r
    if callable(rule_or_time):
        return lambda i: bool(rule_or_time(tree.k[i], tree.prefixes[i]))
    decisions = getattr(rule_or_time, "decisions", rule_or_time)

    def from_map(i):
        key = tree.node_key(i)
        if key not in decisions:
            raise RuleError(f"rule has no decision for prefix at node {i}")
        return bool(decisions[key])

    return from_map


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
        flags = self.stop_flags(delta)
        out = {}
        for i in range(self.tree.n_nodes):
            key = self.tree.node_key(i)
            want = bool(flags[i])
            if out.setdefault(key, want) != want:
                raise RuleError(f"conflicting stop flags for one prefix at node {i}")
        return out

    def root_value(self) -> float:
        return float(self.z[self.tree.root])


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
        # as list indexing of the per-node children did
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
    is deterministic.  Each level is one vectorised step with the
    arithmetic of _expect and the scalar min/max of a per-node loop.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if isinstance(Y, RewardFunctional):
        y = reward_values(tree, Y, pre_history)
    else:
        y = np.asarray(Y, dtype=np.float64)
    n = tree.n_nodes
    z = np.empty(n)
    cont = np.full(n, np.nan)
    argmin = np.full(n, -1, dtype=np.int64)
    off = tree.offsets
    w = tree.weights
    C, B = w.shape
    z[off[-2]:] = y[off[-2]:]
    for l in range(len(off) - 3, -1, -1):
        lo, hi = off[l], off[l + 1]
        kids = z[hi : off[l + 2]].reshape(hi - lo, C, B)
        # _expect's left-to-right fold, for every node and control at once
        acc = w[:, 0] * kids[:, :, 0]
        for j in range(1, B):
            acc = acc + w[:, j] * kids[:, :, j]
        best = np.full(hi - lo, np.inf)
        best_ci = np.full(hi - lo, -1, dtype=np.int64)
        for ci in range(C):
            better = acc[:, ci] < best
            best = np.where(better, acc[:, ci], best)
            best_ci[better] = ci
        cont[lo:hi] = best
        argmin[lo:hi] = best_ci
        # Python's max(y, best): keeps y unless best is strictly larger
        z[lo:hi] = np.where(best > y[lo:hi], best, y[lo:hi])
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
    returned rule stops at the first node where V meets Y (relative
    guard), which is the optimal stopping rule under that single law.
    """
    if isinstance(Y, RewardFunctional):
        y = reward_values(tree, Y)
    else:
        y = np.asarray(Y, dtype=np.float64)
    values = np.full(tree.n_nodes, np.nan)
    rule = {}

    def visit(node) -> float:
        if tree.is_leaf(node):
            v = y[node]
        else:
            ci = control_index_at(strategy, tree, node)
            kids = tree.children[node][ci]
            w = tree.edge_weights[node][ci]
            e = _expect(w, [visit(c) for c in kids])
            v = max(y[node], e)
        values[node] = v
        stop = v - y[node] <= STOP_GUARD * (1.0 + abs(y[node]))
        key = tree.node_key(node)
        if rule.setdefault(key, stop) != stop:
            raise RuleError(f"strategy-reachable prefixes disagree at node {node}")
        return v

    root_value = visit(from_node)
    return SnellResult(tree, from_node, values, rule, float(root_value))


def nonlinear_expectation(tree, xi, from_node: int = 0) -> float:
    """Backward min over controls of expectations: the worst-case mean of
    a terminal functional, no stopping involved.

    xi is a callable on the leaf's full state prefix, or an array/mapping
    of per-leaf values indexed by node id.
    """

    def leaf_value(i):
        if callable(xi):
            return float(xi(tree.prefixes[i]))
        return float(xi[i])

    def visit(node) -> float:
        if tree.is_leaf(node):
            return leaf_value(node)
        best = np.inf
        for kids, w in zip(tree.children[node], tree.edge_weights[node]):
            e = _expect(w, [visit(c) for c in kids])
            if e < best:
                best = e
        return best

    return float(visit(from_node))


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
    rule's stopping nodes: stopping immediately returns Z at the node,
    stopping at the terminal returns the worst-case mean of Y there.
    """
    tree = sol.tree
    stops = _stop_predicate(rule_or_time, tree)

    def visit(nd) -> float:
        if tree.is_leaf(nd) or stops(nd):
            return float(sol.z[nd])
        best = np.inf
        for kids, w in zip(tree.children[nd], tree.edge_weights[nd]):
            e = _expect(w, [visit(c) for c in kids])
            if e < best:
                best = e
        return best

    return float(visit(node))
