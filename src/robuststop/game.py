"""Brute-force oracle for the controller-stopper game.

The stopper picks an adapted stopping rule, the controller picks a
volatility strategy; the payoff is the expected reward at the stop.  The
oracle computes

    lower = max over stopping rules of  min over strategies,
    upper = min over strategies of  max over stopping rules,

by exhaustive enumeration, and compares both to the envelope solver's
root value and to the worst-case value of stopping at tau_star.

Both enumerations are tables built once per tree, level by level from
the leaves (all nodes of a level have tables of one size):

* strategy_table: the optimally-stopped value of every strategy (row r
  decodes arithmetically into its strategy, see _strategy_at);
* stop_set_table: the controller's best response to every stopping set;
* _table_sizes: the size of either table, without building it.

The verify checks range over the same strategies and stopping sets with
backward sweeps instead; these tables are the referee they are tested
against.  expected_reward and worst_case_stopped_reward value one rule
(anything stop_mask accepts) at the root, as every sweep and walk does.

The one structural decision that matters: stopping rules act on the
observed state-path prefix, never on tree node identity.  The stopper
watches the state process only, so a rule must act identically on
coincident state paths produced by different control choices; a
StoppingRule holds one flag per ScenarioTree.prefix_class.  Strategies,
by contrast, are keyed by node (prefix plus control history): the
controller knows its own past choices, so a strategy is one int64
control index per node, -1 where it assigns none.  Stopping sets are
keyed by node, so they match the adapted rules only when no two nodes
share a prefix; on a tree with a prefix collision the lower value
enumerates the 2^m rules over the m non-terminal classes instead,
ordered by time index, then lexicographically by prefix, and sweeps
them as stop-mask columns (_rules_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envelope import (
    StoppingRule,
    _y_array,
    backward_sweep,
    classic_snell,  # noqa: F401  perfbench/tracer.py wraps it here
    column_chunk,
    forward_pass,
    robust_envelope,
    stop_mask,
)
from .errors import SizeError
from .model import RULE_PREFIX_CAP, STOP_TIME_CAP, STRATEGY_CAP
from .reward import reward_values  # noqa: F401  perfbench/tracer.py wraps it here

__all__ = [
    "StoppingRule",
    "GameReport",
    "strategy_table",
    "stop_set_table",
    "stop_set_max",
    "enumerate_stopping_rules",
    "expected_reward",
    "worst_case_stopped_reward",
    "game_values",
]

_SLAB = 1 << 14  # entries of the root's min grid that stop_set_max holds at once
_HELD_BYTES = 1 << 30  # bytes of the root's fold and one slab that stop_set_max may hold
_GRID_ENTRIES = 1 << 28  # entries of the root's min grid that stop_set_max reduces at most


def _nonterminal_heads(tree, cap: int = RULE_PREFIX_CAP) -> np.ndarray:
    """The heads of the non-terminal prefix classes, at most cap of them,
    level by level, each level in the lexicographic order of the heads'
    prefixes as flat rows (a stable lexsort, 0.0 equal to -0.0): sorted
    tuple keys' order, but a NaN sorts last here and has no defined order
    among tuples (the CLI admits no non-finite tree)."""
    cls = tree.prefix_class[: tree.offsets[-2]]
    heads = np.flatnonzero(cls == np.arange(len(cls)))
    if len(heads) > cap:
        raise SizeError.over_cap(
            len(heads), "non-terminal prefixes", cap, "solver.rule_prefix_cap"
        )
    cuts = np.searchsorted(heads, tree.offsets).tolist()
    out = []
    for l in range(len(tree.states) - 1):
        ids = heads[cuts[l]:cuts[l + 1]]
        rows = tree.level_prefixes(l, ids - tree.offsets[l]).reshape(len(ids), -1)
        out.append(ids[np.lexsort(rows.T[::-1])])
    return np.concatenate(out) if out else heads


def enumerate_stopping_rules(tree, cap: int = RULE_PREFIX_CAP):
    """All 2^m stop/continue rules over the m non-terminal prefix
    classes, bit j of the rule's number deciding the j-th class in
    _nonterminal_heads order (not deduplicated by induced stopping time)."""
    heads = _nonterminal_heads(tree, cap)
    for bits in range(1 << len(heads)):
        flags = np.full(tree.n_nodes, -1, dtype=np.int8)
        flags[heads] = (bits >> np.arange(len(heads))) & 1
        yield StoppingRule(tree, flags)


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


def _strategy_at(tree, sizes: list[int], row: int) -> np.ndarray:
    """Row row of strategy_table as a strategy: one control per node it
    reaches, -1 at every other node.

    Row r of a node's table of C * P rows (P = S**B, S the size of its
    children's tables) picks control r // P, and r % P, read as B digits
    in base S, one row of each child table under that control, the first
    child the most significant digit.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    out = np.full(tree.n_nodes, -1, np.int64)
    # rows stay Python ints: a raised strategy_cap admits rows past int64
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


def expected_reward(tree, strategy, rule, Y) -> float:
    """E[Y at the stop] under one strategy and one rule: the exactly
    rounded sum over stopped trajectories, weights multiplying per step.
    strategy is anything forward_pass accepts, rule anything stop_mask
    accepts."""
    y = _y_array(tree, Y)
    stops = stop_mask(tree, rule)
    _, end, _, weight = forward_pass(tree, strategy=strategy, stops=stops.__getitem__)
    ends = np.flatnonzero(end)
    return math.fsum(weight[ends] * y[ends])


def worst_case_stopped_reward(tree, Y, rule) -> float:
    """min over strategies of E[Y at the stop] for a fixed rule (anything
    stop_mask accepts), by backward induction: the controller observes
    everything, so node-wise minimization is exact."""
    y = _y_array(tree, Y)
    stops = stop_mask(tree, rule)
    return float(backward_sweep(tree, y, stop=stops)[0][tree.root])


def _rules_max(tree, y, cap: int = RULE_PREFIX_CAP) -> float:
    """The max over enumerate_stopping_rules of worst_case_stopped_reward,
    bit for bit: the first rule in enumeration order that beats every
    earlier one by v > lower, from -inf.

    The rules are swept as stop-mask columns of backward_sweep, a chunk
    of column_chunk(tree) of them at a time: column r of a chunk stops
    each interior node where bit j of its rule's number is set, j the
    position of the node's class head among the heads (_nonterminal_heads),
    and every leaf.  np.argmax takes the first of equal maxima, as the
    v > lower comparison keeps the first, and a NaN root, which never
    beats lower, is read as -inf.
    """
    heads = _nonterminal_heads(tree, cap)
    interior = tree.offsets[-2]
    bit = np.empty(tree.n_nodes, dtype=np.int64)
    bit[heads] = np.arange(len(heads))
    bit = bit[tree.prefix_class[:interior]]
    n_rules = 1 << len(heads)
    step = column_chunk(tree)
    lower = -np.inf
    for a in range(0, n_rules, step):
        rules = np.arange(a, min(a + step, n_rules))
        flags = (rules >> np.arange(len(heads))[:, None]) & 1 == 1  # per head and rule
        stops = np.ones((tree.n_nodes, len(rules)), dtype=bool)
        np.take(flags, bit, axis=0, out=stops[:interior])
        roots = backward_sweep(tree, y, stop=stops)[0][tree.root]
        roots[~(roots > lower)] = -np.inf
        best = roots[np.argmax(roots)]
        if best > lower:
            lower = best
    return lower


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
    """Optimally-stopped value of every strategy, row r the strategy
    _strategy_at decodes.

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


def _min_grid(acc, rows=slice(None)) -> np.ndarray:
    """Per node, the min over controls of its per-control folds acc,
    shape (n, C, P), at every combination of one fold row per control,
    control 0's row the most significant: shape (n, P**C), or with rows
    only control 0's rows in that slice."""
    n, C, _ = acc.shape
    cont = None
    for ci in range(C):
        part = acc[:, ci, rows] if ci == 0 else acc[:, ci]
        shape = [n] + [1] * C
        shape[1 + ci] = part.shape[1]
        part = part.reshape(shape)
        cont = part if cont is None else np.minimum(cont, part)
    return cont.reshape(n, -1)


def _stop_set_fold(tree, vals) -> np.ndarray:
    """The root's per-control fold of its children's stopping-set tables,
    shape (C, P): every level below the root of stop_set_table, run once.

    Level by level from the leaves, row r of a node's table is the
    backward min over controls of the expectation of vals frozen at
    stopping set r of its subtree; row 0 is the immediate stop, and
    leaves have no other.  The other rows pick one row of every child
    table, across all controls (control 0's children most significant),
    which is a superset of the prefix-adapted rules; without a prefix
    collision they induce exactly those rules.  Each table is swept with
    the same left-to-right fold as backward_sweep, so its values stay
    exactly comparable with the envelope's.  A tree that is only a root
    has no fold: P is 0.
    """
    C, B = tree.weights.shape
    off = tree.offsets
    tab = vals[off[-2]:off[-1], None]
    for lo, hi in reversed(list(zip(off, off[1:-1]))):
        acc = _fold(tree, tab.reshape(hi - lo, C, B, -1))
        if lo == 0:
            return acc[0]
        tab = np.concatenate([vals[lo:hi, None], _min_grid(acc)], axis=1)
    return np.empty((C, 0))


def stop_set_table(tree, vals) -> np.ndarray:
    """Worst-case mean of vals frozen at every stopping set, at the root:
    the immediate stop, then the min over controls of the root's fold at
    every combination of its children's stopping sets (see
    _stop_set_fold)."""
    acc = _stop_set_fold(tree, vals)
    return np.concatenate([vals[tree.root, None], _min_grid(acc[None])[0]])


def stop_set_max(tree, vals) -> float:
    """np.max(stop_set_table(tree, vals)), bit for bit, without the root's
    table: its min grid is reduced in slabs of control-0 rows of about
    _SLAB entries each, so memory stays at the root's fold plus one slab.

    A max of nonzero floats has the same bits whatever order the entries
    are compared in.  A zero may be either sign and a NaN any payload, so
    on those the table itself is built and reduced as before, if it has
    no more than STOP_TIME_CAP entries; a larger one raises SizeError.
    Past STOP_TIME_CAP entries that is foreseen before the slab pass: a
    NaN in vals makes a NaN entry, and without one the table's max is
    the root of the sweep with vals as floor, as the verify checks rest
    on.  The slab pass's own max is checked too.

    A raised solver.stop_time_cap admits counts whose fold no machine
    holds (about 10^19 stopping sets on a 4-step two-control tree fold
    to 104 GiB), so the fold and one slab must fit in _HELD_BYTES, or
    SizeError.  Their sizes come from the table sizes that give n_sets.
    It also admits counts whose fold fits but whose slab pass takes
    minutes or more (7.5 * 10^10 stopping sets on a 3-step three-control
    tree, in 143 MB slabs), so a min grid of more than _GRID_ENTRIES
    entries, one per stopping set but the immediate stop, raises
    SizeError as well: that is about two seconds of slab work.
    """
    sizes = _table_sizes(tree, stop_sets=True)
    n_sets = sizes[0]
    if n_sets > STOP_TIME_CAP and (
        np.isnan(vals).any() or backward_sweep(tree, vals, floor=vals)[0][tree.root] == 0.0
    ):
        raise _whole_table_error(n_sets)
    if len(sizes) > 1:  # a tree that is only a root has no fold
        C, B = tree.weights.shape
        P = sizes[1] ** B
        held = 8 * (C * P + max(_SLAB, P ** (C - 1)))
        if held > _HELD_BYTES:
            raise SizeError.over_cap(
                held, "bytes of stopping-set fold", _HELD_BYTES, "solver.stop_time_cap",
                advice="the oracle holds no more at once, "
                "whatever solver.stop_time_cap allows",
            )
    if n_sets - 1 > _GRID_ENTRIES:
        raise SizeError.over_cap(
            n_sets - 1, "entries of stopping-set min grid", _GRID_ENTRIES,
            "solver.stop_time_cap",
            advice="the oracle reduces no more, whatever solver.stop_time_cap allows",
        )
    acc = _stop_set_fold(tree, vals)
    C, P = acc.shape
    step = max(1, _SLAB // max(P, 1) ** (C - 1))
    maxima = [vals[tree.root]]
    for a in range(0, P, step):
        maxima.append(np.max(_min_grid(acc[None], slice(a, a + step))))
    best = np.max(maxima)
    if best == 0.0 or np.isnan(best):
        if n_sets > STOP_TIME_CAP:
            raise _whole_table_error(n_sets)
        best = np.max(stop_set_table(tree, vals))
    return best


def _whole_table_error(n_sets: int) -> SizeError:
    return SizeError.over_cap(
        n_sets, "stopping times", STOP_TIME_CAP, "solver.stop_time_cap",
        advice="a zero or NaN lower value is read off the whole table, "
        "which solver.stop_time_cap cannot raise past its default",
    )


@dataclass
class GameReport:
    """Both game values, the envelope root, and the tau_star value, with
    the pair that witnesses the saddle: optimal_strategy, the strategy at
    the first minimal row of the strategy table (one control per node it
    reaches, -1 elsewhere), and optimal_rule, the rule of tau_star.

    agree and saddle allow each gap tolerance * max(1.0, the largest
    finite |value| compared): the four computations fold the same floats
    in different orders, which leaves gaps of a few ulp of the values,
    so at large values an absolute tolerance would read rounding as
    disagreement.  A gap that involves an infinite value is infinite or
    NaN, and fails."""

    lower: float
    upper: float
    envelope_root: float
    value_at_tau_star: float
    optimal_strategy: np.ndarray
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
        self.agree = self.max_gap <= self._bound(*vals)
        self.saddle = abs(self.saddle_value - self.upper) <= self._bound(
            self.saddle_value, self.upper)

    def _bound(self, *vals) -> float:
        return self.tolerance * max([1.0] + [abs(v) for v in vals if math.isfinite(v)])


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
    strategy is the one at its first minimal row.  The
    lower value is the max of the stopping-set table (stop_set_max, which
    never builds the table's root row) when prefixes are unique, and
    otherwise the max over all 2^m rules on the non-terminal
    prefix classes of the controller's best response.  The inequality
    lower <= upper is asserted exactly, before any tolerance enters.
    """
    # every cap is checked before any table or payoff is built
    sizes = _table_sizes(tree)
    n_strategies = sizes[0]
    if n_strategies > strategy_cap:
        raise SizeError.over_cap(
            n_strategies, "strategies", strategy_cap, "solver.strategy_cap"
        )
    n_stop_times = _table_sizes(tree, stop_sets=True)[0]
    # whether two nodes share a prefix: a node's class is a lower node
    collision = bool(np.any(tree.prefix_class != np.arange(tree.n_nodes)))
    if not collision and n_stop_times > stop_time_cap:
        raise SizeError.over_cap(
            n_stop_times, "stopping times", stop_time_cap, "solver.stop_time_cap"
        )
    m = tree.offsets[-2]  # without a collision each non-terminal node is its own prefix
    if collision:
        m = len(_nonterminal_heads(tree, rule_prefix_cap))
    y = _y_array(tree, Y)

    values = strategy_table(tree, y)
    best = int(np.argmin(values))
    upper = values[best]
    best_strategy = _strategy_at(tree, sizes, best)

    if collision:
        lower = _rules_max(tree, y, rule_prefix_cap)
    else:
        lower = stop_set_max(tree, y)

    assert lower <= upper, f"minimax inequality violated: {lower} > {upper}"

    sol = robust_envelope(tree, y)
    tau_rule = sol.stop_rule_map()
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
