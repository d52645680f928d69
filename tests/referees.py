"""Referees that live in the tests, not the package: strategy pasting,
two sweep wrappers that no command calls, and the scenario map of tau*.
as_strategy writes a partial node -> control map as the package's
strategy array.

Every sweep and walk of the package runs from the root.  A referee that
starts from a later node runs on that node's subtree, built by subtree
as a tree of its own: the tree expand_tree resumes from the node's
prefix, whose node ids in the full tree are its ids.  callable_mask
turns a stopping callable (k, prefix) -> bool into the per-node mask
stop_mask takes, calling it once per reached prefix class.

The paper assumes the control family is weakly stable under pasting.  On
the scenario tree that holds by construction: the family is every
node-wise choice of control, and the backward sweep minimises over the
controls at each node without ever pasting a strategy.  The pasting
construction below (paste_strategies, state_law, pasting_check) checks
that claim directly, in acceptance gate 6 and the game tests, and the
sweep parity gate pins its outputs.  nonlinear_expectation and
stopped_value are the worst-case mean of leaf values and of the envelope
frozen by a rule; the sweep parity gate pins both.  scenario_tau keys
each argmin-consistent scenario by its outcome tuple: solve's tau*
summary (envelope._tau_extent) is its len, min and max on a
ScenarioTree, and the tree parity gate pins it.  max_control_envelope is a wrong solver for the
tests that show a check or a law rejects one; int64_envelope is the
sweep's recursion written out a whole level at a time with an int64
argmin, the referee for the sweep's narrow argmin type and its blocks.
builtin_catalog lists the built-in rewards with the argument for each
one's declared modulus; the reward tests sample those and the sampled
parity gate pins them.
prefix_key and prefix_keys name an observed prefix by a hashable tuple,
the referee for ScenarioTree.prefix_class and for the order of the
collision-rule enumeration; enumerate_strategies yields every strategy
in strategy_table row order, the referee for that order.

All but max_control_envelope, int64_envelope, solution_tau, as_strategy,
subtree and the helpers that move a rule, a strategy or the classic
Snell values between a tree and a subtree (_rule_on, _strategy_on,
snell_values) is the package's code as it was when it moved here, with
the same operation order, so every recorded digest still holds;
paste_strategies has since pasted strategy arrays with one gather where
it merged node -> control maps, which picks the same control at every
node, and the referees that start from a node have since run on its
subtree, which gives each node the bits the sweep from that node gave.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from robuststop.envelope import (
    EnvelopeSolution,
    StoppingRule,
    _y_array,
    backward_sweep,
    classic_snell,
    forward_pass,
    stop_mask,
)
from robuststop.errors import SizeError
from robuststop.game import _strategy_at, _table_sizes
from robuststop.model import STRATEGY_CAP, ScenarioTree
from robuststop.reward import (
    CATALOG_RANGE,
    RewardFunctional,
    american_put,
    constant_reward,
    lookback_max,
    running_sum,
    terminal_abs,
)


class PartitionError(ValueError):
    """Predicates fail to partition the reachable prefixes at a pasting time."""


def as_strategy(tree, mapping: dict) -> np.ndarray:
    """A strategy array with mapping's control at each of its nodes and
    none (-1) at every other node."""
    strategy = np.full(tree.n_nodes, -1, dtype=np.int64)
    strategy[list(mapping)] = list(mapping.values())
    return strategy


def prefix_key(k: int, values: np.ndarray) -> tuple:
    """Hashable identity of an observed state prefix.

    Float equality semantics (0.0 == -0.0), so two nodes whose prefixes
    agree as real vectors share a key.  This is the stopper's information:
    rules are keyed on these, never on tree node ids.
    """
    return (k, tuple(np.asarray(values, dtype=np.float64).flat))


def prefix_keys(tree, ids) -> list[tuple]:
    """prefix_key of each of the increasing node ids of tree."""
    ids = np.asarray(ids, dtype=np.int64)
    cuts = np.searchsorted(ids, tree.offsets).tolist()
    return [prefix_key(tree.k0 + l, row)
            for l in range(len(tree.states)) if cuts[l] < cuts[l + 1]
            for row in tree.level_prefixes(l, ids[cuts[l]:cuts[l + 1]] - tree.offsets[l])]


def enumerate_strategies(tree, cap: int = STRATEGY_CAP):
    """Every strategy, in strategy_table row order, as an int64 array of
    one control per node it reaches (-1 elsewhere): the control at the
    root varies slowest, then the strategies of the children it reaches,
    the first child the most significant."""
    sizes = _table_sizes(tree)
    if sizes[0] > cap:
        raise SizeError.over_cap(sizes[0], "strategies", cap, "solver.strategy_cap")
    for row in range(sizes[0]):
        yield _strategy_at(tree, sizes, row)


def subtree(tree, node: int):
    """node's subtree as a tree of its own, and the ids in tree of its
    nodes, in its id order.  m levels below node its nodes are one run
    of fanout**m ids, and its root prefix is node's whole prefix, so it
    is the tree expand_tree resumes from that prefix."""
    off = tree.offsets
    l = bisect.bisect_right(off, node) - 1
    first, count = node - off[l], 1
    states, ids = [], []
    for m in range(l, len(off) - 1):
        states.append(tree.states[m][first:first + count])
        ids.append(np.arange(off[m] + first, off[m] + first + count))
        first, count = first * tree.fanout, count * tree.fanout
    root_prefix = tree.level_prefixes(l, [node - off[l]])[0]
    sub = ScenarioTree(tree.grid, tree.controls, tree.drift, root_prefix, states, tree.weights)
    return sub, np.concatenate(ids)


def callable_mask(tree, fn) -> np.ndarray:
    """Per-node stop flags of a callable (k, prefix) -> bool, for
    stop_mask: evaluated by forward_pass from the root, once per reached
    prefix class on the class's lowest node's row.  Reached leaves stop;
    nodes below a stop hold False, and no sweep reads them."""

    def stops(ids):
        l = bisect.bisect_right(tree.offsets, ids[0]) - 1
        at = (tree.prefix_class[ids] - tree.offsets[l]).tolist()
        heads = list(dict.fromkeys(at))
        rows = tree.level_prefixes(l, heads)
        by_class = {j: bool(fn(tree.k0 + l, row)) for j, row in zip(heads, rows)}
        return [by_class[j] for j in at]

    return forward_pass(tree, stops=stops)[1]


def _rule_on(tree, sub, ids, rule):
    """A grid index, a StoppingRule of tree or a callable (k, prefix) ->
    bool as a stopping description of its subtree sub over ids."""
    if isinstance(rule, StoppingRule):
        flags = np.full(sub.n_nodes, -1, dtype=np.int8)
        flags[sub.prefix_class] = rule.flags[tree.prefix_class[ids]]
        return StoppingRule(sub, flags)
    if callable(rule):
        return callable_mask(sub, rule)
    return rule


def _strategy_on(strategy, ids):
    """A strategy of a tree (one control index, or one per node) as one
    of its subtree over ids."""
    strategy = np.asarray(strategy)
    return strategy[ids] if strategy.ndim else strategy


def nonlinear_expectation(tree, xi, node: int = 0) -> float:
    """Backward min over controls of expectations, from node: the
    worst-case mean of a terminal functional, no stopping involved.

    xi is a callable on the leaf's full state prefix, or an array/mapping
    of per-leaf values indexed by node id.
    """
    sub, ids = subtree(tree, node)
    lo = sub.offsets[-2]
    leaf = np.full(sub.n_nodes, np.nan)
    if callable(xi):
        leaf[lo:] = [float(xi(row)) for row in sub.level_prefixes(len(sub.states) - 1)]
    else:
        leaf[lo:] = [float(xi[i]) for i in ids[lo:].tolist()]
    return float(backward_sweep(sub, leaf)[0][sub.root])


def stopped_value(sol: EnvelopeSolution, node: int, rule_or_time) -> float:
    """Worst-case expected value of the envelope stopped by a rule.

    Computes the nonlinear expectation from node of Z frozen at the
    rule's stopping nodes (a grid index, a StoppingRule or a callable
    (k, prefix) -> bool): stopping immediately returns Z at the node,
    stopping at the terminal returns the worst-case mean of Y there.
    """
    sub, ids = subtree(sol.tree, node)
    stops = stop_mask(sub, _rule_on(sol.tree, sub, ids, rule_or_time))
    return float(backward_sweep(sub, sol.z[ids], stop=stops)[0][sub.root])


def snell_values(tree, strategy, y, node: int = 0) -> np.ndarray:
    """classic_snell from node, run on its subtree, as per-node values of
    tree: NaN wherever the strategy does not reach from node."""
    sub, ids = subtree(tree, node)
    values = np.full(tree.n_nodes, np.nan)
    values[ids] = classic_snell(sub, _strategy_on(strategy, ids), y[ids])
    return values


def scenario_tau(tree, flags, argmin_control) -> dict:
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


def solution_tau(sol: EnvelopeSolution) -> dict:
    """scenario_tau of a solution's stop region and argmin controls."""
    return scenario_tau(sol.tree, sol.stop, sol.argmin_control)


def max_control_envelope(tree, y) -> np.ndarray:
    """A deliberately wrong solver, max(y, max_u E_u[z next]) with max in
    place of min over controls: minus the sweep of -y with -y as ceiling.
    Negation is exact, so the fold is the sweep's own."""
    return -backward_sweep(tree, -y, ceiling=-y)[0]


def int64_envelope(tree, y, allowed=None) -> tuple[np.ndarray, np.ndarray]:
    """max(y, min over allowed u of E_u[z next]) per node, and the int64
    control attaining the min, -1 at leaves and where none is allowed.

    One level at a time, with no blocks: every child's value times its
    weight, folded left to right over the outcomes, then the first
    smallest over the allowed controls (allowed, one bool per control,
    or every control when None), kept where it is strictly above y.
    For finite y these are backward_sweep(tree, y, floor=y)'s operations
    on every node, so its values are bitwise the sweep's."""
    C, B = tree.weights.shape
    z = np.array(y, dtype=np.float64)
    argmin = np.full(tree.n_nodes, -1, dtype=np.int64)
    off = tree.offsets
    for l in range(len(off) - 3, -1, -1):
        lo, hi, end = off[l], off[l + 1], off[l + 2]
        kids = np.arange(end - hi) if tree.children is None else tree.children[l]
        terms = z[hi:end][kids.reshape(hi - lo, C, B)] * tree.weights
        acc = terms[:, :, 0]
        for j in range(1, B):
            acc = acc + terms[:, :, j]
        if allowed is not None:
            acc = np.where(allowed, acc, np.inf)
        ci = np.argmin(acc, axis=1)
        best = acc[np.arange(hi - lo), ci]
        argmin[lo:hi] = np.where(best < np.inf, ci, -1)
        z[lo:hi] = np.where(best > z[lo:hi], best, z[lo:hi])
    return z, argmin


def _reachable_at(tree, strategy, depth: int) -> list[tuple[int, float]]:
    """(node, probability) pairs at the given depth under a strategy."""
    l = max(depth - tree.k0, 0)
    first, end = tree.offsets[l], tree.offsets[l + 1]
    reached, _, _, weight = forward_pass(tree, strategy=strategy,
                                         stops=lambda ids: ids >= first)
    ids = first + np.flatnonzero(reached[first:end])
    return list(zip(ids.tolist(), weight[ids].tolist()))


def _partition_index(partition, prefix) -> int:
    hits = [j for j, pred in enumerate(partition) if pred(prefix)]
    if len(hits) != 1:
        kind = "gap" if not hits else "overlap"
        raise PartitionError(
            f"predicates do not partition (found {kind} at a prefix): {hits}"
        )
    return hits[0]


def _at_level(tree, k: int, fn) -> dict:
    """fn of each node's state prefix up to time index k, by node id over
    k's level (the root's, if k is before it), called once per prefix
    class, on the class's lowest node."""
    l = max(k - tree.k0, 0)
    lo = tree.offsets[l]
    cls = (tree.prefix_class[lo:tree.offsets[l + 1]] - lo).tolist()
    heads = [j for j, c in enumerate(cls) if j == c]
    at = {j: fn(row[: k + 1]) for j, row in zip(heads, tree.level_prefixes(l, heads))}
    return {lo + j: at[c] for j, c in enumerate(cls)}


def paste_strategies(tree, base, s: int, partition, pieces) -> np.ndarray:
    """Follow base strictly before grid index s; from s on, follow piece
    j on the cell A_j, and keep base on the remainder cell A_0 =
    partition[0].

    base and pieces are strategy arrays of tree.  partition is a list of
    predicates on the prefix up to s; its first entry is the keep-base
    cell, the rest pair up with pieces.  The paste is validated by
    following it from the root (StrategyError at a gap).
    """
    if len(partition) != len(pieces) + 1:
        raise PartitionError(
            f"{len(partition)} cells need {len(partition) - 1} pieces, "
            f"got {len(pieces)}"
        )
    i_s = operator.index(s)
    off = tree.offsets
    l = max(i_s - tree.k0, 0)
    # the cells must split every prefix observable at s, whatever strategy
    # produced it; from s on a node follows its ancestor's cell (0: base)
    cell = np.zeros(tree.n_nodes, dtype=np.int64)
    cells = _at_level(tree, i_s, partial(_partition_index, partition))
    cell[off[l]:off[l + 1]] = list(cells.values())
    for a, b, c in zip(off[l:], off[l + 1:], off[l + 2:]):
        cell[b:c] = np.repeat(cell[a:b], tree.fanout)

    pasted = np.stack([base, *pieces])[cell, np.arange(tree.n_nodes)]
    forward_pass(tree, strategy=pasted)
    return pasted


def state_law(tree, strategy, node: int = 0) -> dict:
    """Induced distribution over state paths from node: leaf prefix key
    -> weight.

    Distinct tree leaves with coincident state paths merge, since the law
    lives on the observable process.
    """
    sub, ids = subtree(tree, node)
    reached, _, _, weight = forward_pass(sub, strategy=_strategy_on(strategy, ids))
    lo = sub.offsets[-2]
    leaves = lo + np.flatnonzero(reached[lo:])
    # one group per class, its weights in id order, named by its head
    cls = sub.prefix_class[leaves]
    order = np.argsort(cls, kind="stable")
    heads, starts = np.unique(cls[order], return_index=True)
    groups = np.split(weight[leaves[order]], starts[1:])
    return dict(sorted(zip(prefix_keys(sub, heads), map(math.fsum, groups))))


@dataclass
class PastingReport:
    ok: bool
    worst_atom_gap: float
    worst_marginal_gap: float
    worst_snell_excess: float
    n_atoms: int
    n_marginal_events: int
    failures: list

    def __bool__(self):
        return self.ok


def pasting_check(
    tree,
    base,
    s: int,
    partition,
    pieces,
    Y,
    A=None,
    tolerance: float = 1e-12,
) -> PastingReport:
    """Verify the pasted law against its defining decomposition.

    Three families are checked: (a) every state-path atom's pasted weight
    equals base-weight-to-s times the piece's conditional weight (or the
    base weight on the keep cell), (b) the marginal at s is untouched,
    and (c) on each cell intersected with the F_s event A, the optimal
    stopping value under the pasted law never exceeds the piece's own
    optimal value from the same node (zero slack: discrete pasting is
    exact).  base and pieces are strategy arrays of tree.
    """
    y = _y_array(tree, Y)
    i_s = operator.index(s)
    pasted = paste_strategies(tree, base, s, partition, pieces)

    p_law = state_law(tree, base)
    hat_law = state_law(tree, pasted)
    failures = []

    sources = [base, *pieces]
    cells = _at_level(tree, i_s, partial(_partition_index, partition))
    in_A = _at_level(tree, i_s, A or (lambda prefix: True))

    # (a) atom decomposition over every leaf state path of either support
    level = _reachable_at(tree, base, i_s)
    worst_atom = 0.0
    atom_keys = sorted(set(p_law) | set(hat_law))
    expected: dict = {}
    for node, wgt in level:
        sub_law = state_law(tree, sources[cells[node]], node)
        for key, w in sub_law.items():
            expected[key] = expected.get(key, 0.0) + wgt * w
    for key in atom_keys:
        gap = abs(hat_law.get(key, 0.0) - expected.get(key, 0.0))
        worst_atom = max(worst_atom, gap)
        if gap > tolerance:
            failures.append(f"atom {key}: pasted weight off by {gap:.3e}")

    # (b) marginal at s, per prefix class, restricted to A
    cls = tree.prefix_class
    worst_marg = 0.0
    base_marg: dict = {}
    pasted_marg: dict = {}
    for node, wgt in level:
        base_marg[cls[node]] = base_marg.get(cls[node], 0.0) + wgt
    for node, wgt in _reachable_at(tree, pasted, i_s):
        pasted_marg[cls[node]] = pasted_marg.get(cls[node], 0.0) + wgt
    n_marginal = 0
    for node, _ in level:
        if not in_A[node]:
            continue
        n_marginal += 1
        gap = abs(base_marg.get(cls[node], 0.0) - pasted_marg.get(cls[node], 0.0))
        worst_marg = max(worst_marg, gap)
        if gap > tolerance:
            key = prefix_keys(tree, [node])[0]
            failures.append(f"marginal event {key}: off by {gap:.3e}")

    # (c) cell-wise optimal stopping from s: pasted value vs piece value
    worst_excess = -np.inf
    for node, wgt in level:
        if not in_A[node]:
            continue
        lhs = wgt * float(snell_values(tree, pasted, y, node)[node])
        rhs = wgt * float(snell_values(tree, sources[cells[node]], y, node)[node])
        worst_excess = max(worst_excess, lhs - rhs)
        if lhs - rhs > tolerance:
            failures.append(
                f"stopping value after pasting exceeds the piece value at "
                f"node {node} by {lhs - rhs:.3e}"
            )

    return PastingReport(
        ok=not failures,
        worst_atom_gap=worst_atom,
        worst_marginal_gap=worst_marg,
        worst_snell_excess=float(worst_excess),
        n_atoms=len(atom_keys),
        n_marginal_events=n_marginal,
        failures=failures,
    )


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    template: RewardFunctional
    certificate: str



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
