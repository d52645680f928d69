"""Snell envelopes on scenario trees, all from one backward sweep.

Every value in this module is one step of the paper's nonlinear
expectation, applied level by level from the leaves:

    v = max(floor, min over allowed u of E_u[v next]),

with v frozen where a stop mask holds.  backward_sweep runs that step,
for one value column or side by side for many (one per sub-menu, or
per stopping rule); the public functions only choose its inputs:

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

forward_pass, the sweep's forward twin, follows a strategy from the
root down to a stop rule, one step per level; every strategy and rule
walk runs on it.  Both run over the whole tree: a value from a later
node is the root value of the tree expanded from that node's prefix
(expand_tree's init_prefix).  A strategy is what the controller, who
knows its own past choices, picks on the tree: one control per node,
held as an int64 array with -1 where it assigns none, or one constant
control index.  stop_mask turns a stopping description (grid index,
StoppingRule, or per-node bool mask) into the mask the sweep takes.  A
StoppingRule, what stop_rule_map returns, holds one int8 flag per
prefix class of its tree, so its per-node flags are one gather and no
prefix key is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RuleError, StrategyError
from .reward import RewardFunctional, reward_values

__all__ = [
    "EnvelopeSolution",
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
# Bytes of outputs and buffers that one column sweep may hold (column_chunk).
COLUMN_BYTES = 1 << 24
# Nodes per block of a backward_sweep level and of the stop test, so that
# their buffers and temporaries stay the same size however wide the tree
# grows.  It is past the widest level that has children in every
# perfbench workload's trees (16,384 nodes, on the n = 8 two-control
# put), so those sweep each level in one numpy pass.
SWEEP_BLOCK = 1 << 15


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


def stop_mask(tree, rule) -> np.ndarray:
    """Per-node stop flags of a stopping description.

    rule is a grid time index (stop once k >= index), a StoppingRule of
    this tree, or a bool array of length tree.n_nodes.  Leaves stop
    regardless.  A StoppingRule must decide every interior class
    (RuleError at the first node whose class it leaves undecided) and is
    gathered per node.  Interior nodes below a stop may hold either
    flag; no sweep reads them.
    """
    mask = np.zeros(tree.n_nodes, dtype=bool)
    interior = tree.offsets[-2]
    mask[interior:] = True
    if isinstance(rule, (int, np.integer)):
        l = min(max(int(rule) - tree.k0, 0), len(tree.offsets) - 1)
        mask[tree.offsets[l]:] = True
        return mask
    if isinstance(rule, StoppingRule):
        if rule.tree is not tree:
            raise RuleError("the stopping rule belongs to another tree")
        flags = rule.flags[tree.prefix_class]
        undecided = np.flatnonzero(flags[:interior] < 0)
        if len(undecided):
            raise RuleError(f"rule has no decision for prefix at node {undecided[0]}")
        return mask | (flags == 1)
    return mask | rule


def forward_pass(tree, *, strategy=None, stops=None):
    """The forward twin of backward_sweep: one vectorised step per level
    from the root, following the strategy's control at each node (every
    control without one), cut off where stops holds.

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
    where no strategy's control is in force, and weight is 1 at the
    root, a child's its parent's times weights[ci, oi], 0 if unreached.
    Each level's weights are one product written at the reached children
    only; the others keep the zero the walk starts from.  A strategy
    reads the controller's past choices, which a RecombinedTree merges
    away, so the walk refuses one (TypeError).
    """
    if tree.children is not None:
        tree.refuse("forward_pass")
    C, B = tree.weights.shape
    w = tree.weights.reshape(-1)
    controls = np.arange(C)
    reached = np.zeros(tree.n_nodes, dtype=bool)
    stop = np.zeros(tree.n_nodes, dtype=bool)
    control = np.full(tree.n_nodes, -1, dtype=np.int64)
    weight = np.zeros(tree.n_nodes)
    reached[0] = True
    weight[0] = 1.0
    if strategy is not None:
        strategy = np.broadcast_to(strategy, tree.n_nodes)
    off = tree.offsets
    # the children of level lo:hi are the next level, hi:end, C * B per node
    for lo, hi, end in zip(off, off[1:], off[2:]):
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
        reached[hi:end] = kids
        np.multiply(weight[lo:hi, None], w, out=weight[hi:end].reshape(hi - lo, C * B),
                    where=kids.reshape(hi - lo, C * B))
    stop[off[-2]:] = reached[off[-2]:]
    return reached, stop, control, weight


def backward_sweep(tree, values, *, floor=None, ceiling=None, stop=None,
                   allowed=None):
    """One backward pass of v = max(floor, min over allowed u of E_u[v next]),
    a vectorised step per level from the leaves to the root.

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

    The inputs may carry a trailing column axis, and then one pass runs
    m sweeps side by side, each column bit for bit the sweep of its own
    inputs: values, floor, ceiling and stop broadcast to (n_nodes, m)
    and allowed to (n_nodes, C, m), where a per-node input without the
    axis (values of shape (n_nodes,), allowed of (n_nodes, C)) serves
    every column.  A smaller menu is the same recursion with the min
    restricted to its controls, so on the tree of a menu every sub-menu
    is a column whose allowed mask holds its controls:

    >>> from robuststop import ControlSet, DriftSpec, TimeGrid, american_put
    >>> from robuststop.model import expand_recombined
    >>> grid, zero, put = TimeGrid(0.0, 1.0, 3), DriftSpec("zero"), american_put(strike=1.1)
    >>> tree = expand_recombined(grid, 0.0, zero, ControlSet([0.3, 0.6, 0.9]))
    >>> menus = [(0.3, 0.6, 0.9), (0.3, 0.9), (0.3,), (0.9,)]
    >>> allowed = np.array([[u in menu for menu in menus] for u in (0.3, 0.6, 0.9)])
    >>> y = reward_values(tree, put)
    >>> v, _ = backward_sweep(tree, y, floor=y, allowed=allowed[None])
    >>> v.shape, v[tree.root].round(6).tolist()
    ((63, 4), [0.179904, 0.179904, 0.179904, 0.439711])
    >>> v[tree.root].tolist() == [robust_envelope(
    ...     expand_recombined(grid, 0.0, zero, ControlSet(menu)), put).root_value()
    ...     for menu in menus]
    True

    Each level is computed in place, in blocks of at most SWEEP_BLOCK
    nodes: every child's weighted term is one broadcast product into a
    buffer allocated once per call, sized to one block (or to the
    widest interior level when that is narrower), with a row per
    (control, branch) slot and a column per node (and per column of the
    sweep), and the fold adds each control's rows into its first, so a
    block costs the same few numpy calls whatever its width.  The min
    and its control are written straight into the block's slices of the
    outputs.  Every node sees the same operations in the same order in
    any block, so the blocks change no output bit.  On a ScenarioTree a
    block's children are a contiguous run of the next level, read by a
    reshape; on a RecombinedTree they are gathered by its rows of
    children ids, and the values are those of the tree, node for node,
    wherever the merge is exact (see model).  Per column, a pass holds
    8 bytes of v and one argmin item per node, and 8 * C * B + 1 bytes
    per node of the buffer's block: 9 * n_nodes + (8 * C * B + 1) *
    min(tree.width, SWEEP_BLOCK) bytes when C <= 128 (column_chunk).

    Returns per-node arrays (v, argmin), each with the column axis when
    the inputs have one, where argmin is the control attaining the min
    before floor and stop apply, and -1 at leaves and where no control
    is allowed.  argmin takes the narrowest signed integer type that
    holds -C (np.min_scalar_type): int8 up to 128 controls, int16 up to
    32,768.  The sweep writes every entry, so its outputs start
    unfilled.
    """
    w = tree.weights
    C, B = w.shape
    shape, slot_w = (tree.n_nodes,), w.reshape(C * B, 1)
    if (values.ndim > 1 or floor is not None and floor.ndim > 1
            or ceiling is not None and ceiling.ndim > 1 or stop is not None and stop.ndim > 1
            or allowed is not None and allowed.ndim > 2):
        values, floor, ceiling, stop, allowed = _columns(tree.n_nodes, C, values, floor,
                                                         ceiling, stop, allowed)
        shape, slot_w = values.shape, slot_w[:, :, None]
    cols = shape[1:]
    v = np.empty(shape)
    argmin = np.empty(shape, dtype=np.min_scalar_type(-C))
    off = tree.offsets
    kids = tree.children
    v[off[-2]:] = values[off[-2]:]
    argmin[off[-2]:] = -1
    block = min(tree.width, SWEEP_BLOCK)
    terms = np.empty((C * B, block) + cols)
    mask = np.empty((block,) + cols, dtype=bool)
    fan = (C * B,) + cols
    # the children of level l, lo:hi, are in the next level, hi:end, and
    # those of its block a:b are rows a - lo .. b - lo of them
    for l in range(len(off) - 3, -1, -1):
        lo, hi, end = off[l], off[l + 1], off[l + 2]
        nxt = v[hi:end]
        for a in range(lo, hi, block):
            b = min(a + block, hi)
            n = b - a
            prod, better = terms[:, :n], mask[:n]
            # one row per (control, branch) slot, one column per node;
            # gathered children go straight into the buffer and are
            # weighted there
            if kids is None:
                part = nxt[(a - lo) * C * B:(b - lo) * C * B]
                np.multiply(part.reshape((n,) + fan).swapaxes(0, 1), slot_w, out=prod)
            else:
                np.take(nxt, kids[l][a - lo:b - lo].T, axis=0, out=prod, mode="wrap")
                np.multiply(prod, slot_w, out=prod)
            # the left-to-right fold of each control's terms, in its first row
            acc = prod[0::B]
            for j in range(1, B):
                acc += prod[j::B]
            best, best_ci = v[a:b], argmin[a:b]
            best.fill(np.inf)
            best_ci.fill(-1)
            for ci in range(C):
                col = acc[ci]
                np.less(col, best, out=better)
                if allowed is not None:
                    better &= allowed[a:b, ci]
                np.copyto(best, col, where=better)
                best_ci[better] = ci
            # floor and ceiling win unless best is strictly past them, NaN included
            if floor is not None:
                np.greater(best, floor[a:b], out=better)
                np.copyto(best, floor[a:b], where=np.logical_not(better, out=better))
            if ceiling is not None:
                np.less(best, ceiling[a:b], out=better)
                np.copyto(best, ceiling[a:b], where=np.logical_not(better, out=better))
            if stop is not None:
                np.copyto(best, values[a:b], where=stop[a:b])
    return v, argmin


def _columns(n_nodes: int, C: int, values, floor, ceiling, stop, allowed):
    """backward_sweep's inputs broadcast to one shared column axis: the
    per-node ones to (n_nodes, m), allowed to (n_nodes, C, m), as views."""
    per_node = [a if a is None or a.ndim > 1 else a[:, None]
                for a in (values, floor, ceiling, stop)]
    if allowed is not None and allowed.ndim == 2:
        allowed = allowed[:, :, None]
    cols = np.broadcast_shapes(*(a.shape[1:] for a in per_node if a is not None),
                               *(() if allowed is None else (allowed.shape[2:],)))
    per_node = [a if a is None else np.broadcast_to(a, (n_nodes, *cols)) for a in per_node]
    if allowed is not None:
        allowed = np.broadcast_to(allowed, (n_nodes, C, *cols))
    return (*per_node, allowed)


def column_chunk(tree) -> int:
    """The number of columns, at least 1, whose backward_sweep on tree
    holds no more than COLUMN_BYTES: per column 8 bytes a node for v and
    one argmin item a node (1 byte up to 128 controls), and 8 * C * B + 1
    bytes a node of one block (the widest interior level, if narrower)
    for the product and the mask.  A caller with more columns sweeps them
    in chunks of this many."""
    C = tree.weights.shape[0]
    per_node = 8 + np.min_scalar_type(-C).itemsize
    per_column = per_node * tree.n_nodes + (8 * tree.fanout + 1) * min(tree.width, SWEEP_BLOCK)
    return max(1, COLUMN_BYTES // per_column)


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

    def stop_rule_map(self) -> StoppingRule:
        """The stop region as a rule, one decision per prefix class.

        The envelope is a function of the prefix, so nodes sharing a
        prefix must agree; a conflict means the solution is corrupt.
        """
        return _prefix_rule(self.tree, self.stop)

    def root_value(self) -> float:
        return float(self.z[self.tree.root])


def _meets(z, y, delta: float) -> np.ndarray:
    """The guarded stop test z - y <= _stop_slack(y, delta), delta >= 0,
    with two float temporaries, SWEEP_BLOCK nodes at a time."""
    if len(z) > SWEEP_BLOCK:
        out = np.empty(len(z), dtype=bool)
        for lo in range(0, len(z), SWEEP_BLOCK):
            hi = lo + SWEEP_BLOCK
            out[lo:hi] = _meets(z[lo:hi], y[lo:hi], delta)
        return out
    return z - y <= _stop_slack(y, delta)


def _stop_slack(y, delta: float) -> np.ndarray:
    """How far the stop test lets z exceed y: delta + STOP_GUARD * (1.0 +
    |y|), in that operation order, in one new array."""
    slack = np.abs(y)
    slack += 1.0
    slack *= STOP_GUARD
    slack += delta
    return slack


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
    of -1 would.  A level at a time, stopped rows add their scenario
    counts to the total and the rest push theirs to the argmin control's
    B children: from the level layout on a ScenarioTree, from children[l]
    on a RecombinedTree, where np.add.at sums a shared child's.  Counts
    are int64 while B**levels fits, and Python ints past it.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    last = len(off) - 2
    dtype = np.int64 if B**last <= np.iinfo(np.int64).max else object
    count, earliest, rows, n = 0, None, np.zeros(1, dtype=np.int64), np.ones(1, dtype=dtype)
    for l in range(last + 1):
        stop = flags[off[l] + rows] | (l == last)
        count += n[stop].sum()
        if earliest is None and stop.any():
            earliest = l
        if stop.all():
            return int(count), tree.k0 + earliest, tree.k0 + l
        rows, n = rows[~stop], n[~stop]
        slots = (argmin_control[off[l] + rows].astype(np.int64) % C)[:, None] * B + np.arange(B)
        if tree.children is None:
            rows, n = (rows[:, None] * (C * B) + slots).reshape(-1), np.repeat(n, B)
        else:
            rows, at = np.unique(tree.children[l][rows[:, None], slots], return_inverse=True)
            n, pushed = np.zeros(len(rows), dtype=dtype), np.repeat(n, B)
            np.add.at(n, at.reshape(-1), pushed)


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


def classic_snell(tree, strategy, Y) -> np.ndarray:
    """V = max(Y, E[V next]) under a fixed strategy: per-node values, NaN
    where the strategy does not reach.

    Y may be a RewardFunctional or a precomputed per-node array.  The
    strategy is resolved by forward_pass over the nodes it reaches, then the
    sweep runs with that one control allowed per node.
    """
    y = _y_array(tree, Y)
    reached, _, control, _ = forward_pass(tree, strategy=strategy)
    allowed = control[:, None] == np.arange(len(tree.controls))
    swept = backward_sweep(tree, y, floor=y, allowed=allowed)[0]
    return np.where(reached, swept, np.nan)

