"""Brute-force oracle for the controller-stopper game, plus strategy
pasting.

The stopper picks an adapted stopping rule, the controller picks a
volatility strategy; the payoff is the expected reward at the stop.  The
oracle computes

    lower = max over stopping rules of  min over strategies,
    upper = min over strategies of  max over stopping rules,

by exhaustive enumeration, and compares both to the envelope solver's
root value and to the worst-case value of stopping at tau_star.

Both enumerations are tables built once per tree:

* strategy_table: the optimally-stopped value of every strategy (in
  enumerate_strategies order);
* stop_set_table: the controller's best response to every stopping set;
* count_strategies: the size of either table, without building it.

The verify checks range over the same strategies and stopping sets with
backward sweeps instead; these tables are the referee they are tested
against.

The one structural decision that matters: stopping rules are keyed by the
observed state-path prefix, never by tree node identity.  The stopper
watches the state process only, so a rule must act identically on
coincident state paths produced by different control choices.  Strategies,
by contrast, are keyed by node (prefix plus control history): the
controller knows its own past choices.  Stopping sets are keyed by node,
so they match the adapted rules only when no two nodes share a prefix;
on a tree with a prefix collision the lower value enumerates the 2^m
prefix maps instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .envelope import (
    _y_array,
    backward_sweep,
    classic_snell,
    control_index_at,
    robust_envelope,
    stop_mask,
)
from .errors import PartitionError, RuleError, SizeError, StrategyError
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

    def stops_at(self, tree, node: int) -> bool:
        if tree.is_leaf(node):
            return True
        key = tree.node_key(node)
        if key not in self.decisions:
            raise RuleError(f"rule has no decision for node {node}")
        return bool(self.decisions[key])

    def __repr__(self):
        stops = sum(1 for v in self.decisions.values() if v)
        return f"StoppingRule({stops}/{len(self.decisions)} prefixes stop)"


class ControlStrategy:
    """Control assignment per tree node.

    Only nodes reachable under the strategy itself need an assignment;
    validate() walks that subtree and rejects gaps.
    """

    def __init__(self, tree, assignments: dict):
        self.tree = tree
        self.assignments = dict(assignments)

    def __getitem__(self, node: int) -> int:
        return self.assignments[node]

    def get(self, node, default=None):
        return self.assignments.get(node, default)

    def validate(self) -> None:
        for node in self.reachable_interior():
            if node not in self.assignments:
                raise StrategyError(f"strategy assigns no control to node {node}")

    def reachable_interior(self) -> list[int]:
        tree = self.tree
        out = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if tree.is_leaf(node):
                continue
            out.append(node)
            ci = control_index_at(self.assignments, tree, node)
            stack.extend(tree.children[node][ci])
        return out

    def __repr__(self):
        return f"ControlStrategy({len(self.assignments)} nodes)"


def _nonterminal_prefix_keys(tree) -> list:
    keys = {tree.node_key(i) for i in range(tree.n_nodes) if not tree.is_leaf(i)}
    return sorted(keys)


def enumerate_stopping_rules(tree, cap: int = RULE_PREFIX_CAP):
    """All 2^m stop/continue maps over the m non-terminal reachable
    prefixes (not deduplicated by induced stopping time)."""
    keys = _nonterminal_prefix_keys(tree)
    m = len(keys)
    if m > cap:
        raise SizeError.over_cap(m, "non-terminal prefixes", cap, "solver.rule_prefix_cap")
    terminal = tree.grid.n_steps
    for bits in range(1 << m):
        decisions = {key: bool((bits >> j) & 1) for j, key in enumerate(keys)}
        yield StoppingRule(terminal, decisions)


def count_strategies(tree, stop_sets: bool = False) -> int:
    """Number of self-consistent strategies, or with stop_sets the number
    of stopping sets; the row count of strategy_table or stop_set_table.

    A strategy picks one control per reached node, so the per-control
    products of the children's counts add up; a stopping set either
    stops at the node or picks a set in every child subtree under every
    control, so it is 1 plus the product over all children.  Leaves
    count 1.  Python integers, so counts far beyond any cap stay exact.
    """
    C, B = tree.weights.shape
    ranges = tree.subtree_ranges(tree.root)
    counts = np.ones(ranges[-1][1] - ranges[-1][0], dtype=object)
    for lo, hi in ranges[-2::-1]:
        kids = counts.reshape(hi - lo, C, B)
        if stop_sets:
            counts = 1 + kids.reshape(hi - lo, C * B).prod(axis=1)
        else:
            counts = kids.prod(axis=2).sum(axis=1)
    return int(counts[0])


def enumerate_strategies(tree, cap: int = STRATEGY_CAP):
    """Depth-first product over reachable nodes: at each node pick a
    control, then branch into the children that choice makes reachable."""
    total = count_strategies(tree)
    if total > cap:
        raise SizeError.over_cap(total, "strategies", cap, "solver.strategy_cap")

    def gen(node):
        if tree.is_leaf(node):
            yield {}
            return
        for ci, kids in enumerate(tree.children[node]):
            for combo in itertools.product(*(list(gen(c)) for c in kids)):
                merged = {node: ci}
                for part in combo:
                    merged.update(part)
                yield merged

    for assignments in gen(tree.root):
        yield ControlStrategy(tree, assignments)


def expected_reward(tree, strategy, rule, Y) -> float:
    """E[Y at the stop] under one strategy and one rule: the literal
    weighted sum over stopped trajectories, weights multiplying per step.
    rule is anything stop_mask accepts."""
    y = _y_array(tree, Y)
    stops = stop_mask(tree, rule)
    terms = []

    def walk(node, weight):
        if stops[node]:
            terms.append(weight * y[node])
            return
        ci = control_index_at(strategy, tree, node)
        kids = tree.children[node][ci]
        w = tree.edge_weights[node][ci]
        for j, c in enumerate(kids):
            walk(c, weight * w[j])

    walk(tree.root, 1.0)
    return math.fsum(terms)


def worst_case_stopped_reward(tree, Y, rule, from_node: int = 0) -> float:
    """min over strategies of E[Y at the stop] for a fixed rule (anything
    stop_mask accepts), by backward induction: the controller observes
    everything, so node-wise minimization is exact."""
    y = _y_array(tree, Y)
    stops = stop_mask(tree, rule, from_node)
    return float(backward_sweep(tree, y, stop=stops, node=from_node)[0][from_node])


def _has_prefix_collision(tree) -> bool:
    """Whether two nodes share a prefix_key.  Keys carry the time index,
    so only rows of one level's prefix block can collide.  Sorting the
    rows puts equal ones next to each other, and == compares neighbours
    as prefix_key does (0.0 == -0.0); np.unique would import numpy.ma."""
    for block in tree.blocks:
        rows = block.reshape(block.shape[0], -1)
        rows = rows[np.lexsort(rows.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            return True
    return False


def strategy_table(tree, y) -> np.ndarray:
    """Optimally-stopped value of every strategy, in enumerate_strategies
    order.

    table(node) holds max(y, E[table next]) at node for every control
    assignment on its subtree, and y at leaves; row r is classic_snell's
    root value under strategy r.
    """

    def table(node) -> np.ndarray:
        if tree.is_leaf(node):
            return np.array([y[node]])
        parts = []
        for kids, w in zip(tree.children[node], tree.edge_weights[node]):
            tabs = [table(c) for c in kids]
            sizes = [t.shape[0] for t in tabs]
            acc = None
            for j, t in enumerate(tabs):
                shape = [1] * len(sizes)
                shape[j] = sizes[j]
                term = w[j] * t.reshape(shape)
                acc = term if acc is None else acc + term
            parts.append(np.maximum(y[node], acc).reshape(-1))
        return np.concatenate(parts)

    return table(tree.root)


def stop_set_table(tree, vals) -> np.ndarray:
    """Worst-case mean of vals frozen at every stopping set, at the root.

    table(node)[r] is the backward min over controls of the expectation
    of vals frozen at stopping set r of the subtree; entry 0 is the
    immediate stop, and leaves have no other.  Stopping sets pick a set
    in every child subtree across all controls, which is a superset of
    the prefix-adapted rules; without a prefix collision they induce
    exactly those rules.  Each table is swept with the same
    left-to-right fold as backward_sweep, so its values stay exactly
    comparable with the envelope's.
    """

    def table(node) -> np.ndarray:
        if tree.is_leaf(node):
            return np.array([vals[node]])
        all_kids = [c for kids in tree.children[node] for c in kids]
        tables = [table(c) for c in all_kids]
        sizes = [t.shape[0] for t in tables]
        axis = {c: i for i, c in enumerate(all_kids)}
        cont = None
        for kids, w in zip(tree.children[node], tree.edge_weights[node]):
            acc = None
            for j, c in enumerate(kids):
                shape = [1] * len(sizes)
                shape[axis[c]] = sizes[axis[c]]
                term = w[j] * tables[axis[c]].reshape(shape)
                acc = term if acc is None else acc + term
            cont = acc if cont is None else np.minimum(cont, acc)
        cont = np.broadcast_to(cont, sizes).reshape(-1)
        return np.concatenate([[vals[node]], cont])

    return table(tree.root)


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
    y = _y_array(tree, Y)

    # every cap is checked before any table is built
    n_strategies = count_strategies(tree)
    if n_strategies > strategy_cap:
        raise SizeError.over_cap(
            n_strategies, "strategies", strategy_cap, "solver.strategy_cap"
        )
    n_stop_times = count_strategies(tree, stop_sets=True)
    collision = _has_prefix_collision(tree)
    if not collision and n_stop_times > stop_time_cap:
        raise SizeError.over_cap(
            n_stop_times, "stopping times", stop_time_cap, "solver.stop_time_cap"
        )

    values = strategy_table(tree, y)
    best = int(np.argmin(values))
    upper = values[best]
    best_strategy = next(
        itertools.islice(enumerate_strategies(tree, cap=strategy_cap), best, None)
    )

    m = len(_nonterminal_prefix_keys(tree))
    if collision:
        # rare engineered case: fall back to explicit prefix-map rules
        lower = -np.inf
        for rule in enumerate_stopping_rules(tree, cap=rule_prefix_cap):
            v = worst_case_stopped_reward(tree, y, rule)
            if v > lower:
                lower = v
    else:
        lower = np.max(stop_set_table(tree, y))

    assert lower <= upper, f"minimax inequality violated: {lower} > {upper}"

    sol = robust_envelope(tree, y)
    tau_rule = StoppingRule(
        tree.grid.n_steps,
        {k: v for k, v in sol.stop_rule_map().items() if k[0] < tree.grid.n_steps},
    )
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
    level = [(tree.root, 1.0)]
    for _ in range(depth - tree.k[tree.root]):
        nxt = []
        for node, wgt in level:
            ci = control_index_at(strategy, tree, node)
            kids = tree.children[node][ci]
            w = tree.edge_weights[node][ci]
            nxt.extend((c, wgt * w[j]) for j, c in enumerate(kids))
        level = nxt
    return level


def _partition_index(partition, prefix) -> int:
    hits = [j for j, pred in enumerate(partition) if pred(prefix)]
    if len(hits) != 1:
        kind = "gap" if not hits else "overlap"
        raise PartitionError(
            f"predicates do not partition (found {kind} at a prefix): {hits}"
        )
    return hits[0]


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
    # the cells must split every prefix observable at s, whatever strategy
    # produced it
    for node in tree.nodes_at(i_s):
        _partition_index(partition, tree.prefixes[node])

    assignments = {}
    for node in range(tree.n_nodes):
        if tree.is_leaf(node):
            continue
        if tree.k[node] < i_s:
            if node in base.assignments:
                assignments[node] = base.assignments[node]
            continue
        # prefix up to s decides the source strategy for this subtree
        cut = tree.prefixes[node][: i_s + 1]
        j = _partition_index(partition, cut)
        source = base if j == 0 else pieces[j - 1]
        if node in source.assignments:
            assignments[node] = source.assignments[node]
    pasted = ControlStrategy(tree, assignments)
    pasted.validate()
    return pasted


def state_law(tree, strategy, from_node: int = 0) -> dict:
    """Induced distribution over state paths: leaf prefix key -> weight.

    Distinct tree leaves with coincident state paths merge, since the law
    lives on the observable process.
    """
    bags: dict = {}

    def walk(node, weight):
        if tree.is_leaf(node):
            bags.setdefault(tree.node_key(node), []).append(weight)
            return
        ci = control_index_at(strategy, tree, node)
        kids = tree.children[node][ci]
        w = tree.edge_weights[node][ci]
        for j, c in enumerate(kids):
            walk(c, weight * w[j])

    walk(from_node, 1.0)
    return {key: math.fsum(ws) for key, ws in sorted(bags.items())}


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
    if A is None:
        A = lambda prefix: True
    pasted = paste_strategies(base, s, partition, pieces)

    p_law = state_law(tree, base)
    hat_law = state_law(tree, pasted)
    failures = []

    # (a) atom decomposition over every leaf state path of either support
    level = _reachable_at(tree, base, i_s)
    worst_atom = 0.0
    atom_keys = sorted(set(p_law) | set(hat_law))
    expected: dict = {}
    for node, wgt in level:
        cut = tree.prefixes[node]
        j = _partition_index(partition, cut)
        source = base if j == 0 else pieces[j - 1]
        sub_law = state_law(tree, source, from_node=node)
        for key, w in sub_law.items():
            expected[key] = expected.get(key, 0.0) + wgt * w
    for key in atom_keys:
        gap = abs(hat_law.get(key, 0.0) - expected.get(key, 0.0))
        worst_atom = max(worst_atom, gap)
        if gap > tolerance:
            failures.append(f"atom {key}: pasted weight off by {gap:.3e}")

    # (b) marginal at s, split by cell and restricted to A
    worst_marg = 0.0
    base_marg: dict = {}
    pasted_marg: dict = {}
    for node, wgt in level:
        base_marg[tree.node_key(node)] = base_marg.get(tree.node_key(node), 0.0) + wgt
    for node, wgt in _reachable_at(tree, pasted, i_s):
        pasted_marg[tree.node_key(node)] = (
            pasted_marg.get(tree.node_key(node), 0.0) + wgt
        )
    n_marginal = 0
    for node, _ in level:
        cut = tree.prefixes[node]
        if not A(cut):
            continue
        key = tree.node_key(node)
        n_marginal += 1
        gap = abs(base_marg.get(key, 0.0) - pasted_marg.get(key, 0.0))
        worst_marg = max(worst_marg, gap)
        if gap > tolerance:
            failures.append(f"marginal event {key}: off by {gap:.3e}")

    # (c) cell-wise optimal stopping from s: pasted value vs piece value
    worst_excess = -np.inf
    for node, wgt in level:
        cut = tree.prefixes[node]
        if not A(cut):
            continue
        j = _partition_index(partition, cut)
        source = base if j == 0 else pieces[j - 1]
        lhs = wgt * classic_snell(tree, pasted, y, from_node=node).root_value
        rhs = wgt * classic_snell(tree, source, y, from_node=node).root_value
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
