"""Snell envelopes on scenario trees, all from one backward sweep.

Every value in this module is one step of the paper's nonlinear
expectation, applied level by level from the leaves:

    v = max(floor, min over allowed u of E_u[v next]),

with v frozen where a stop mask holds.  backward_sweep runs that step;
the public functions only choose its inputs:

* robust_envelope: the worst-case envelope Z = max(Y, min_u E_u[Z next])
  (floor Y) and the argmin control per node, from which the stop region
  {Z = Y}, where the hitting time tau* stops, is derived on first read;
* classic_snell: the envelope under one fixed strategy (floor Y, one
  allowed control per reachable node).

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
down to a stop rule, one step per level; every strategy and rule walk
runs on it.  A strategy is what the controller, who knows its own past
choices, picks on the tree: one control per node, held as an int64
array with -1 where it assigns none, or one constant control index.
stop_mask turns a stopping description (grid index, StoppingRule, or
callable) into the per-node mask the sweep takes.  A StoppingRule, what
stop_rule_map returns, holds one int8 flag per prefix class of its
tree, so its per-node flags are one gather and no prefix key is built.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RuleError, StrategyError
from .reward import RewardFunctional, reward_values

__all__ = [
    "EnvelopeSolution",
    "SnellResult",
    "StoppingRule",
    "backward_sweep",
    "forward_pass",
    "stop_mask",
    "robust_envelope",
    "classic_snell",
]

# Relative guard for testing Z == Y in floating point; tau* stops where
# Z <= Y + delta within this guard.
STOP_GUARD = 1e-12
# Nodes per block of the stop test, so that on deep trees its two float
# temporaries take no more memory than the sweep's level buffers did.
_MEETS_BLOCK = 1 << 15


@dataclass(eq=False)
class StoppingRule:
    """Adapted stopping rule on one tree: stop/continue per observed prefix.

    flags is one int8 per node id: at each prefix-class head (the lowest
    node of its class, see ScenarioTree.prefix_class) 1 to stop, 0 to
    continue or -1 for no decision, and -1 at every other node, so the
    rule at node i is flags[tree.prefix_class[i]].  Leaves stop whatever
    their flag.
    """

    tree: object
    flags: np.ndarray


def stop_mask(tree, rule, node: int = 0) -> np.ndarray:
    """Per-node stop flags of a stopping description, from node down.

    rule is a grid time index (stop once k >= index), a StoppingRule of
    this tree, or a callable (k, prefix) -> bool.  Leaves stop
    regardless.  A StoppingRule must decide every interior class of
    node's subtree (RuleError at the first node whose class it leaves
    undecided) and is gathered per node; a callable is evaluated by
    forward_pass from node, once per reached prefix class on the class's
    lowest node's row.  Interior nodes below a stop, or outside the
    subtree, may hold either flag; no sweep from node reads them.
    """
    mask = np.zeros(tree.n_nodes, dtype=bool)
    mask[tree.offsets[-2]:] = True
    if isinstance(rule, (int, np.integer)):
        l = min(max(int(rule) - tree.k0, 0), len(tree.offsets) - 1)
        mask[tree.offsets[l]:] = True
        return mask
    if isinstance(rule, StoppingRule):
        if rule.tree is not tree:
            raise RuleError("the stopping rule belongs to another tree")
        flags = rule.flags[tree.prefix_class]
        for lo, hi in tree.subtree_ranges(node)[:-1]:
            undecided = np.flatnonzero(flags[lo:hi] < 0)
            if len(undecided):
                raise RuleError(f"rule has no decision for prefix at node {lo + undecided[0]}")
        return mask | (flags == 1)

    def stops(ids):
        l = bisect.bisect_right(tree.offsets, ids[0]) - 1
        at = (tree.prefix_class[ids] - tree.offsets[l]).tolist()
        heads = list(dict.fromkeys(at))
        rows = tree.level_prefixes(l, heads)
        by_class = {j: bool(rule(tree.k0 + l, row)) for j, row in zip(heads, rows)}
        return [by_class[j] for j in at]

    return mask | forward_pass(tree, node, stops=stops)[1]


def forward_pass(tree, node: int = 0, strategy=None, stops=None):
    """The forward twin of backward_sweep: one vectorised step per level
    over the subtree of node, following the strategy's control at each
    node (every control without one), cut off where stops holds.

    stops(ids) gives the flags of one level's reached interior nodes; the
    walk ends at the first level it does not reach, so ids is never
    empty, and the levels below keep the values the walk starts from.
    The strategy is one control index for every node, or an int array of
    length tree.n_nodes with one per node, -1 where it assigns none; its
    controls are gathered a level at a time at the reached interior nodes
    that do not stop.  Neither is read at any other node, so a partial
    strategy fails only where a decision is needed: StrategyError at the
    first such node, in id order, whose index is not a control.
    Returns per-node arrays (reached, stop, control, weight): stop holds
    at reached nodes that stop and at reached leaves, control is -1
    where no strategy's control is in force, and weight is 1 at node, a
    child's its parent's times weights[ci, oi], 0 if unreached.  Each
    level's weights are one product written at the reached children
    only; the others keep the zero the walk starts from.
    """
    C, B = tree.weights.shape
    w = tree.weights.reshape(-1)
    controls = np.arange(C)
    reached = np.zeros(tree.n_nodes, dtype=bool)
    stop = np.zeros(tree.n_nodes, dtype=bool)
    control = np.full(tree.n_nodes, -1, dtype=np.int64)
    weight = np.zeros(tree.n_nodes)
    reached[node] = True
    weight[node] = 1.0
    if strategy is not None:
        strategy = np.broadcast_to(strategy, tree.n_nodes)
    ranges = tree.subtree_ranges(node)
    # each level's children are the next level's range, C * B per node
    for (lo, hi), (klo, khi) in zip(ranges, ranges[1:]):
        go = reached[lo:hi]
        if not go.any():
            break
        if stops is not None:
            ids = lo + np.flatnonzero(go)
            stop[ids] = stops(ids)
            go = go & ~stop[lo:hi]
        if strategy is None:
            kids = np.repeat(go, C * B)
        else:
            ids = lo + np.flatnonzero(go)
            ci = strategy[ids]
            # a negative index wraps past C, so one comparison checks both ends
            bad = np.flatnonzero(ci.astype(np.uint64) >= C)
            if len(bad):
                i, c = int(ids[bad[0]]), int(ci[bad[0]])
                if c == -1:
                    raise StrategyError(f"strategy assigns no control to node {i}")
                raise StrategyError(f"control index {c} out of range at node {i}")
            control[ids] = ci
            kids = np.repeat(control[lo:hi, None] == controls, B)
        reached[klo:khi] = kids
        np.multiply(weight[lo:hi, None], w, out=weight[klo:khi].reshape(hi - lo, C * B),
                    where=kids.reshape(hi - lo, C * B))
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

    Each level is computed in place: every child's weighted term is one
    broadcast product into a buffer allocated once per call, sized to
    the widest level, and the fold adds the terms into their first
    column, so the level costs the same few numpy calls whatever its
    width.  The min and its control are written straight into the
    level's slices of the outputs.

    Returns per-node arrays (v, argmin), where argmin is the control
    attaining the min before floor and stop apply, and -1 at leaves and
    where no control is allowed.  A sweep from the root writes every
    entry, so its outputs start unfilled; from another node they are NaN
    and -1 outside the subtree.
    """
    w = tree.weights
    C, B = w.shape
    if node:
        v = np.full(tree.n_nodes, np.nan)
        argmin = np.full(tree.n_nodes, -1, dtype=np.int64)
    else:
        v = np.empty(tree.n_nodes)
        argmin = np.empty(tree.n_nodes, dtype=np.int64)
    ranges = tree.subtree_ranges(node)
    lo, hi = ranges[-1]
    v[lo:hi] = values[lo:hi]
    argmin[lo:hi] = -1
    # levels widen downward, so the deepest interior level is the widest
    width = ranges[-2][1] - ranges[-2][0] if len(ranges) > 1 else 0
    terms = np.empty((width, C, B))
    mask = np.empty(width, dtype=bool)
    # each level's children are the next level's range, in order
    for (lo, hi), (klo, khi) in zip(ranges[-2::-1], ranges[:0:-1]):
        n = hi - lo
        prod, better = terms[:n], mask[:n]
        np.multiply(v[klo:khi].reshape(n, C, B), w, out=prod)
        # the left-to-right fold of the terms, in their first column
        acc = prod[:, :, 0]
        for j in range(1, B):
            acc += prod[:, :, j]
        best, best_ci = v[lo:hi], argmin[lo:hi]
        best.fill(np.inf)
        best_ci.fill(-1)
        for ci in range(C):
            col = acc[:, ci]
            np.less(col, best, out=better)
            if allowed is not None:
                better &= allowed[lo:hi, ci]
            np.copyto(best, col, where=better)
            best_ci[better] = ci
        # floor and ceiling win unless best is strictly past them, NaN included
        if floor is not None:
            np.greater(best, floor[lo:hi], out=better)
            np.copyto(best, floor[lo:hi], where=np.logical_not(better, out=better))
        if ceiling is not None:
            np.less(best, ceiling[lo:hi], out=better)
            np.copyto(best, ceiling[lo:hi], where=np.logical_not(better, out=better))
        if stop is not None:
            np.copyto(best, values[lo:hi], where=stop[lo:hi])
    return v, argmin


def _y_array(tree, Y) -> np.ndarray:
    if isinstance(Y, RewardFunctional):
        return reward_values(tree, Y)
    return np.asarray(Y, dtype=np.float64)


@dataclass
class EnvelopeSolution:
    """Worst-case envelope per node, as the sweep leaves it.

    argmin_control is -1 at leaves.  stop holds Z <= Y + delta with a
    relative floating-point guard (_meets); it is derived on first read
    and kept.
    """

    tree: object
    delta: float
    y: np.ndarray
    z: np.ndarray
    argmin_control: np.ndarray

    @cached_property
    def stop(self) -> np.ndarray:
        return _meets(self.z, self.y, self.delta)

    def tau_extent(self) -> tuple[int, int, int]:
        """The number of argmin-consistent scenarios and their earliest
        and latest tau* (see _tau_extent)."""
        return _tau_extent(self.tree, self.stop, self.argmin_control)

    def stop_rule_map(self, delta: float | None = None) -> StoppingRule:
        """The stop region as a rule, one decision per prefix class; for
        a delta >= 0 other than None, the guarded region at that delta.

        The envelope is a function of the prefix, so nodes sharing a
        prefix must agree; a conflict means the solution is corrupt.
        """
        stop = self.stop if delta is None else _meets(self.z, self.y, delta)
        return _prefix_rule(self.tree, stop)

    def root_value(self) -> float:
        return float(self.z[self.tree.root])


def _meets(z, y, delta: float) -> np.ndarray:
    """The guarded stop test Z <= Y + delta, for delta >= 0: per node
    z - y <= delta + STOP_GUARD * (1.0 + |y|), in that operation order,
    with two float temporaries, _MEETS_BLOCK nodes at a time."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if len(z) > _MEETS_BLOCK:
        out = np.empty(len(z), dtype=bool)
        for lo in range(0, len(z), _MEETS_BLOCK):
            hi = lo + _MEETS_BLOCK
            out[lo:hi] = _meets(z[lo:hi], y[lo:hi], delta)
        return out
    guard = np.abs(y)
    guard += 1.0
    guard *= STOP_GUARD
    guard += delta
    return z - y <= guard


def _prefix_rule(tree, stop):
    """Per-node stop flags as a rule: a class stops where one of its
    nodes stops, and every node must match its class."""
    cls = tree.prefix_class
    flags = np.full(tree.n_nodes, -1, dtype=np.int8)
    flags[cls] = 0
    flags[cls[stop]] = 1
    bad = np.flatnonzero(flags[cls] != stop)
    if len(bad):
        raise RuleError(f"conflicting stop flags for one prefix at node {bad[0]}")
    return StoppingRule(tree, flags)


def _tau_extent(tree, flags, argmin_control) -> tuple[int, int, int]:
    """The number of argmin-consistent scenarios and their earliest and
    latest first stopping index.

    A scenario follows the argmin control from the root, down every
    outcome, to its first node where flags holds (or a leaf); argmin -1
    (no finite continuation) follows the last control, as a Python index
    of -1 would.  The walk goes a level at a time over lists of node ids,
    with child ids computed from the level layout, and counts the
    scenarios that end on each level, so it reads no per-node view and
    builds no per-scenario key.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    last = len(off) - 2
    count, earliest, nodes = 0, None, [0]
    for l in range(last + 1):
        going = [node for node in nodes if not flags[node]] if l < last else []
        if len(going) < len(nodes):
            count += len(nodes) - len(going)
            if earliest is None:
                earliest = l
        if not going:
            return count, tree.k0 + earliest, tree.k0 + l
        lo, first = off[l], off[l + 1]
        starts = [first + ((node - lo) * C + int(argmin_control[node]) % C) * B
                  for node in going]
        nodes = [start + oi for start in starts for oi in range(B)]


def robust_envelope(tree, Y, delta: float = 0.0) -> EnvelopeSolution:
    """Backward sweep of Z = max(Y, min_u E_u[Z next]) from the leaves.

    Y is a RewardFunctional or a precomputed per-node payoff array.  Ties
    in the control argmin go to the smallest control index, so the output
    is deterministic.  The stop region is derived on first read.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    y = _y_array(tree, Y)
    return EnvelopeSolution(tree, delta, y, *backward_sweep(tree, y, floor=y))


@dataclass
class SnellResult:
    """Classic envelope under one strategy: values on reachable nodes
    (NaN elsewhere) and the root value."""

    tree: object
    from_node: int
    values: np.ndarray
    root_value: float


def classic_snell(tree, strategy, Y, from_node: int = 0) -> SnellResult:
    """V = max(Y, E[V next]) under a fixed strategy, from from_node down.

    Y may be a RewardFunctional or a precomputed per-node array.  The
    strategy is resolved by forward_pass over the nodes it reaches, then the
    sweep runs with that one control allowed per node.
    """
    y = _y_array(tree, Y)
    reached, _, control, _ = forward_pass(tree, from_node, strategy)
    allowed = control[:, None] == np.arange(len(tree.controls))
    swept = backward_sweep(tree, y, floor=y, allowed=allowed, node=from_node)[0]
    values = np.where(reached, swept, np.nan)
    return SnellResult(tree, from_node, values, float(values[from_node]))

