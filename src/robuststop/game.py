"""Brute-force oracle for the controller-stopper game, plus strategy
pasting.

The stopper picks an adapted stopping rule, the controller picks a
volatility strategy; the payoff is the expected reward at the stop.  The
oracle computes

    lower = max over stopping rules of  min over strategies,
    upper = min over strategies of  max over stopping rules,

by exhaustive enumeration, and compares both to the envelope solver's
root value and to the worst-case value of stopping at tau_star.

Both enumerations are tables built once per tree, level by level from
the leaves (all nodes of a level have tables of one size):

* strategy_table: the optimally-stopped value of every strategy (in
  enumerate_strategies order, which decodes a row arithmetically);
* stop_set_table: the controller's best response to every stopping set;
* count_strategies: the size of either table, without building it.

The verify checks range over the same strategies and stopping sets with
backward sweeps instead; these tables are the referee they are tested
against.

The one structural decision that matters: stopping rules are keyed by the
observed state-path prefix, never by tree node identity.  The stopper
watches the state process only, so a rule must act identically on
coincident state paths produced by different control choices; rules,
laws and partition predicates act once per ScenarioTree.prefix_class.
Strategies, by contrast, are keyed by node (prefix plus control history):
the controller knows its own past choices.  Stopping sets are keyed by
node, so they match the adapted rules only when no two nodes share a
prefix; on a tree with a prefix collision the lower value enumerates the
2^m prefix maps instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .envelope import (
    _prefix_rule,
    _y_array,
    backward_sweep,
    classic_snell,
    forward_pass,
    robust_envelope,
    stop_mask,
)
from .errors import PartitionError, RuleError, SizeError
from .model import prefix_key
from .reward import reward_values  # noqa: F401  perfbench/tracer.py wraps it here

__all__ = [
    "StoppingRule",
    "ControlStrategy",
    "GameReport",
    "count_strategies",
    "strategy_table",
    "stop_set_table",
    "enumerate_stopping_rules",
    "enumerate_strategies",
    "expected_reward",
    "worst_case_stopped_reward",
    "game_values",
    "paste_strategies",
    "pasting_check",
    "state_law",
]

RULE_PREFIX_CAP = 22
STRATEGY_CAP = 1_000_000
STOP_TIME_CAP = 500_000


class StoppingRule:
    """Adapted stopping rule: stop/continue per observed prefix.

    decisions maps prefix keys of non-terminal prefixes to booleans;
    terminal prefixes stop by construction.  Calling the rule with
    (k, prefix) resolves a decision; a missing prefix is an error, not a
    default, so incomplete rules fail loudly.
    """

    def __init__(self, terminal_index: int, decisions: dict):
        self.terminal_index = terminal_index
        self.decisions = dict(decisions)

    def __call__(self, k: int, prefix) -> bool:
        if k >= self.terminal_index:
            return True
        key = prefix_key(k, prefix)
        if key not in self.decisions:
            raise RuleError(f"rule has no decision for prefix at time {k}")
        return bool(self.decisions[key])

    def __repr__(self):
        stops = sum(1 for v in self.decisions.values() if v)
        return f"StoppingRule({stops}/{len(self.decisions)} prefixes stop)"


class ControlStrategy:
    """Control assignment per tree node.

    Only nodes reachable under the strategy itself need an assignment;
    validate() follows the strategy forward and rejects gaps.
    """

    def __init__(self, tree, assignments: dict):
        self.tree = tree
        self.assignments = dict(assignments)

    def __getitem__(self, node: int) -> int:
        return self.assignments[node]

    def validate(self) -> None:
        """Raise StrategyError at a reached interior node with no valid
        control."""
        forward_pass(self.tree, strategy=self.assignments)

    def __repr__(self):
        return f"ControlStrategy({len(self.assignments)} nodes)"


def _nonterminal_prefix_keys(tree, cap: int = RULE_PREFIX_CAP) -> tuple[list, np.ndarray]:
    """The sorted keys of the non-terminal prefixes, at most cap of them,
    and per interior node the position of its key in that list."""
    cls = tree.prefix_class[: tree.offsets[-2]]
    heads = np.flatnonzero(cls == np.arange(len(cls)))
    if len(heads) > cap:
        raise SizeError.over_cap(
            len(heads), "non-terminal prefixes", cap, "solver.rule_prefix_cap"
        )
    keys = tree.prefix_keys(heads)
    index = {key: j for j, key in enumerate(sorted(keys))}
    col = np.array([index[key] for key in keys], dtype=np.int64)
    return list(index), col[np.searchsorted(heads, cls)]


def enumerate_stopping_rules(tree, cap: int = RULE_PREFIX_CAP):
    """All 2^m stop/continue maps over the m non-terminal reachable
    prefixes (not deduplicated by induced stopping time)."""
    keys = _nonterminal_prefix_keys(tree, cap)[0]
    terminal = tree.grid.n_steps
    for bits in range(1 << len(keys)):
        decisions = {key: bool((bits >> j) & 1) for j, key in enumerate(keys)}
        yield StoppingRule(terminal, decisions)


def _table_sizes(tree, stop_sets: bool = False) -> list[int]:
    """Row count of a node's strategy table (or, with stop_sets, its
    stopping-set table), per level from the root down.

    A strategy picks one of C controls, then a strategy in each of its B
    children; a stopping set either stops at the node or picks a set in
    each of the C * B children.  Leaves count 1.  Python integers, so
    counts far beyond any cap stay exact.
    """
    C, B = tree.weights.shape
    sizes = [1]
    for _ in range(len(tree.offsets) - 2):
        s = sizes[0]
        sizes.insert(0, 1 + s ** (C * B) if stop_sets else C * s**B)
    return sizes


def count_strategies(tree, stop_sets: bool = False) -> int:
    """The row count of strategy_table, or with stop_sets of stop_set_table."""
    return _table_sizes(tree, stop_sets)[0]


def _strategy_at(tree, sizes: list[int], row: int) -> dict:
    """Row row of strategy_table as a node -> control map.

    Row r of a node's table of C * P rows (P = S**B, S the size of its
    children's tables) picks control r // P, and r % P, read as B digits
    in base S, one row of each child table under that control, the first
    child the most significant digit.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    out = {}
    level = [(0, row)]
    for l, S in enumerate(sizes[1:]):
        nxt = []
        for node, r in level:
            ci, r = divmod(r, S**B)
            out[node] = ci
            first = off[l + 1] + (node - off[l]) * C * B + ci * B
            nxt += [(first + j, r // S ** (B - 1 - j) % S) for j in range(B)]
        level = nxt
    return out


def enumerate_strategies(tree, cap: int = STRATEGY_CAP):
    """Every strategy, in strategy_table row order: the control at the
    root varies slowest, then the strategies of the children it reaches,
    the first child the most significant."""
    sizes = _table_sizes(tree)
    if sizes[0] > cap:
        raise SizeError.over_cap(sizes[0], "strategies", cap, "solver.strategy_cap")
    for row in range(sizes[0]):
        yield ControlStrategy(tree, _strategy_at(tree, sizes, row))


def expected_reward(tree, strategy, rule, Y) -> float:
    """E[Y at the stop] under one strategy and one rule: the exactly
    rounded sum over stopped trajectories, weights multiplying per step.
    rule is anything stop_mask accepts."""
    y = _y_array(tree, Y)
    stops = stop_mask(tree, rule)
    _, end, _, weight = forward_pass(tree, strategy=strategy, stops=stops.__getitem__)
    ends = np.flatnonzero(end)
    return math.fsum(weight[ends] * y[ends])


def worst_case_stopped_reward(tree, Y, rule, from_node: int = 0) -> float:
    """min over strategies of E[Y at the stop] for a fixed rule (anything
    stop_mask accepts), by backward induction: the controller observes
    everything, so node-wise minimization is exact."""
    y = _y_array(tree, Y)
    stops = stop_mask(tree, rule, from_node)
    return float(backward_sweep(tree, y, stop=stops, node=from_node)[0][from_node])


def _fold(tree, kids) -> np.ndarray:
    """Per node and control, the left-to-right weighted fold of the B
    child tables in kids, shape (n, C, B, S), over every combination of
    their rows: shape (n, C, S**B), the first child's row the most
    significant, in backward_sweep's operation order."""
    n, C, B, S = kids.shape
    acc = None
    for j in range(B):
        shape = [n, C] + [1] * B
        shape[2 + j] = S
        term = tree.weights[:, j].reshape([1, C] + [1] * B) * kids[:, :, j].reshape(shape)
        acc = term if acc is None else acc + term
    return acc.reshape(n, C, -1)


def strategy_table(tree, y) -> np.ndarray:
    """Optimally-stopped value of every strategy, in enumerate_strategies
    order.

    Level by level from the leaves, a node's table holds max(y, E[table
    next]) for every control assignment on its subtree: under each
    control in turn, every combination of its children's rows.  Leaves
    hold y.  Row r is classic_snell's root value under strategy r.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    tab = y[off[-2]:off[-1], None]
    for lo, hi in reversed(list(zip(off, off[1:-1]))):
        acc = _fold(tree, tab.reshape(hi - lo, C, B, -1))
        tab = np.maximum(y[lo:hi, None, None], acc).reshape(hi - lo, -1)
    return tab[0]


def stop_set_table(tree, vals) -> np.ndarray:
    """Worst-case mean of vals frozen at every stopping set, at the root.

    Level by level from the leaves, row r of a node's table is the
    backward min over controls of the expectation of vals frozen at
    stopping set r of its subtree; row 0 is the immediate stop, and
    leaves have no other.  The other rows pick one row of every child
    table, across all controls (control 0's children most significant),
    which is a superset of the prefix-adapted rules; without a prefix
    collision they induce exactly those rules.  Each table is swept with
    the same left-to-right fold as backward_sweep, so its values stay
    exactly comparable with the envelope's.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    tab = vals[off[-2]:off[-1], None]
    for lo, hi in reversed(list(zip(off, off[1:-1]))):
        n = hi - lo
        acc = _fold(tree, tab.reshape(n, C, B, -1))
        P = acc.shape[2]
        cont = None
        for ci in range(C):
            shape = [n] + [1] * C
            shape[1 + ci] = P
            part = acc[:, ci].reshape(shape)
            cont = part if cont is None else np.minimum(cont, part)
        cont = np.broadcast_to(cont, [n] + [P] * C).reshape(n, -1)
        tab = np.concatenate([vals[lo:hi, None], cont], axis=1)
    return tab[0]


@dataclass
class GameReport:
    """Both game values, the envelope root, and the tau_star value, with
    the pair that witnesses the saddle."""

    lower: float
    upper: float
    envelope_root: float
    value_at_tau_star: float
    optimal_strategy: ControlStrategy
    optimal_rule: StoppingRule
    n_strategies: int
    n_stopping_times: int
    n_rule_maps: int
    tolerance: float
    saddle_value: float
    max_gap: float = field(init=False)
    agree: bool = field(init=False)
    saddle: bool = field(init=False)

    def __post_init__(self):
        vals = (self.lower, self.upper, self.envelope_root, self.value_at_tau_star)
        self.max_gap = max(vals) - min(vals)
        self.agree = self.max_gap <= self.tolerance
        self.saddle = abs(self.saddle_value - self.upper) <= self.tolerance


def game_values(
    tree,
    Y,
    tolerance: float = 1e-9,
    strategy_cap: int = STRATEGY_CAP,
    stop_time_cap: int = STOP_TIME_CAP,
    rule_prefix_cap: int = RULE_PREFIX_CAP,
) -> GameReport:
    """Enumerate the game and report all four value computations.

    The upper value is the min of the strategy table, and the optimal
    strategy is the enumerated strategy at its first minimal row.  The
    lower value is the max of the stopping-set table when prefixes are
    unique, and otherwise the max over all 2^m prefix maps of the
    controller's best response.  The inequality lower <= upper is
    asserted exactly, before any tolerance enters.
    """
    # every cap is checked before any table or payoff is built
    sizes = _table_sizes(tree)
    n_strategies = sizes[0]
    if n_strategies > strategy_cap:
        raise SizeError.over_cap(
            n_strategies, "strategies", strategy_cap, "solver.strategy_cap"
        )
    n_stop_times = count_strategies(tree, stop_sets=True)
    # whether two nodes share a prefix_key: a node's class is a lower node
    collision = bool(np.any(tree.prefix_class != np.arange(tree.n_nodes)))
    if not collision and n_stop_times > stop_time_cap:
        raise SizeError.over_cap(
            n_stop_times, "stopping times", stop_time_cap, "solver.stop_time_cap"
        )
    m = tree.offsets[-2]  # without a collision each non-terminal node is its own prefix
    if collision:
        keys, col = _nonterminal_prefix_keys(tree, rule_prefix_cap)
        m = len(keys)
    y = _y_array(tree, Y)

    values = strategy_table(tree, y)
    best = int(np.argmin(values))
    upper = values[best]
    best_strategy = ControlStrategy(tree, _strategy_at(tree, sizes, best))

    if collision:
        # rare engineered case: fall back to explicit prefix-map rules,
        # one sweep per map with the map's bits as the interior stop flags
        interior = tree.offsets[-2]
        mask = np.ones(tree.n_nodes, dtype=bool)
        lower = -np.inf
        for bits in range(1 << m):
            mask[:interior] = (bits >> col) & 1
            v = backward_sweep(tree, y, stop=mask)[0][tree.root]
            if v > lower:
                lower = v
    else:
        lower = np.max(stop_set_table(tree, y))

    assert lower <= upper, f"minimax inequality violated: {lower} > {upper}"

    sol = robust_envelope(tree, y)
    # stop_rule_map() on the non-terminal prefixes: terminal ones stop anyway
    ids = np.arange(tree.offsets[-2])
    tau_rule = StoppingRule(tree.grid.n_steps, _prefix_rule(tree, ids, sol.stop[ids]))
    value_at_tau = backward_sweep(tree, y, stop=sol.stop)[0][tree.root]
    saddle_value = expected_reward(tree, best_strategy, tau_rule, y)

    return GameReport(
        lower=float(lower),
        upper=float(upper),
        envelope_root=sol.root_value(),
        value_at_tau_star=float(value_at_tau),
        optimal_strategy=best_strategy,
        optimal_rule=tau_rule,
        n_strategies=n_strategies,
        n_stopping_times=n_stop_times,
        n_rule_maps=1 << m,
        tolerance=tolerance,
        saddle_value=float(saddle_value),
    )


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
    at = {j: fn(tree.blocks[l][j, : k + 1]) for j, c in enumerate(cls) if j == c}
    return {lo + j: at[c] for j, c in enumerate(cls)}


def paste_strategies(base: ControlStrategy, s: float, partition, pieces) -> ControlStrategy:
    """Follow base strictly before s; from s on, follow piece j on the
    cell A_j, and keep base on the remainder cell A_0 = partition[0].

    partition is a list of predicates on the prefix up to s; its first
    entry is the keep-base cell, the rest pair up with pieces.
    """
    tree = base.tree
    if len(partition) != len(pieces) + 1:
        raise PartitionError(
            f"{len(partition)} cells need {len(partition) - 1} pieces, "
            f"got {len(pieces)}"
        )
    i_s = tree.grid.index_of(s)
    off = tree.offsets
    l = max(i_s - tree.k0, 0)
    # the cells must split every prefix observable at s, whatever strategy
    # produced it; from s on a node follows its ancestor's cell (0: base)
    cell = np.zeros(tree.n_nodes, dtype=np.int64)
    cells = _at_level(tree, i_s, partial(_partition_index, partition))
    cell[off[l]:off[l + 1]] = list(cells.values())
    for a, b, c in zip(off[l:], off[l + 1:], off[l + 2:]):
        cell[b:c] = np.repeat(cell[a:b], tree.fanout)

    sources = [base, *pieces]
    assignments = {}
    for node, j in enumerate(cell[: off[-2]].tolist()):
        if node in sources[j].assignments:
            assignments[node] = sources[j].assignments[node]
    pasted = ControlStrategy(tree, assignments)
    pasted.validate()
    return pasted


def state_law(tree, strategy, from_node: int = 0) -> dict:
    """Induced distribution over state paths: leaf prefix key -> weight.

    Distinct tree leaves with coincident state paths merge, since the law
    lives on the observable process.
    """
    reached, _, _, weight = forward_pass(tree, from_node, strategy)
    lo = tree.offsets[-2]
    ids = lo + np.flatnonzero(reached[lo:])
    first, heads = tree.class_firsts(ids)
    # one group per class, its weights in id order, named by its first leaf
    order = np.argsort(first, kind="stable")
    groups = np.split(weight[ids[order]], np.searchsorted(first[order], heads[1:]))
    return dict(sorted(zip(tree.prefix_keys(ids[heads]), map(math.fsum, groups))))


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
    base: ControlStrategy,
    s: float,
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
    exact).
    """
    tree = base.tree
    y = _y_array(tree, Y)
    i_s = tree.grid.index_of(s)
    pasted = paste_strategies(base, s, partition, pieces)

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
        sub_law = state_law(tree, sources[cells[node]], from_node=node)
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
            key = tree.prefix_keys([node])[0]
            failures.append(f"marginal event {key}: off by {gap:.3e}")

    # (c) cell-wise optimal stopping from s: pasted value vs piece value
    worst_excess = -np.inf
    for node, wgt in level:
        if not in_A[node]:
            continue
        lhs = wgt * classic_snell(tree, pasted, y, from_node=node).root_value
        rhs = wgt * classic_snell(tree, sources[cells[node]], y, from_node=node).root_value
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
