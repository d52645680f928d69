"""Referees that live in the tests, not the package: strategy pasting,
two sweep wrappers that no command calls, and the scenario map of tau*.
as_strategy writes a partial node -> control map as the package's
strategy array.

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
summary (envelope._tau_extent) is its len, min and max, and the tree
parity gate pins it.  max_control_envelope is a wrong solver for the
tests that show a check or a law rejects one.  builtin_catalog lists the
built-in rewards with the argument for each one's declared modulus; the
reward tests sample those and the sampled parity gate pins them.

All but max_control_envelope, solution_tau and as_strategy is the
package's code as it was when it moved here, with the same operation
order, so every recorded digest still holds; paste_strategies has since
pasted strategy arrays with one gather where it merged node -> control
maps, which picks the same control at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from robuststop.envelope import (
    EnvelopeSolution,
    _y_array,
    backward_sweep,
    classic_snell,
    forward_pass,
    stop_mask,
)
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


def nonlinear_expectation(tree, xi, from_node: int = 0) -> float:
    """Backward min over controls of expectations: the worst-case mean of
    a terminal functional, no stopping involved.

    xi is a callable on the leaf's full state prefix, or an array/mapping
    of per-leaf values indexed by node id.
    """
    lo, hi = tree.subtree_ranges(from_node)[-1]
    leaf = np.full(tree.n_nodes, np.nan)
    if callable(xi):
        first = lo - tree.offsets[-2]
        rows = tree.level_prefixes(len(tree.states) - 1, np.arange(first, first + hi - lo))
        leaf[lo:hi] = [float(xi(row)) for row in rows]
    else:
        leaf[lo:hi] = [float(xi[i]) for i in range(lo, hi)]
    return float(backward_sweep(tree, leaf, node=from_node)[0][from_node])


def stopped_value(sol: EnvelopeSolution, node: int, rule_or_time) -> float:
    """Worst-case expected value of the envelope stopped by a rule.

    Computes the nonlinear expectation from node of Z frozen at the
    rule's stopping nodes (see stop_mask): stopping immediately returns
    Z at the node, stopping at the terminal returns the worst-case mean
    of Y there.
    """
    stops = stop_mask(sol.tree, rule_or_time, node)
    return float(backward_sweep(sol.tree, sol.z, stop=stops, node=node)[0][node])


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


def paste_strategies(tree, base, s: float, partition, pieces) -> np.ndarray:
    """Follow base strictly before s; from s on, follow piece j on the
    cell A_j, and keep base on the remainder cell A_0 = partition[0].

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

    pasted = np.stack([base, *pieces])[cell, np.arange(tree.n_nodes)]
    forward_pass(tree, strategy=pasted)
    return pasted


def state_law(tree, strategy, from_node: int = 0) -> dict:
    """Induced distribution over state paths: leaf prefix key -> weight.

    Distinct tree leaves with coincident state paths merge, since the law
    lives on the observable process.
    """
    reached, _, _, weight = forward_pass(tree, from_node, strategy)
    lo = tree.offsets[-2]
    ids = lo + np.flatnonzero(reached[lo:])
    # one group per class, its weights in id order, named by its head
    cls = tree.prefix_class[ids]
    order = np.argsort(cls, kind="stable")
    heads, starts = np.unique(cls[order], return_index=True)
    groups = np.split(weight[ids[order]], starts[1:])
    return dict(sorted(zip(tree.prefix_keys(heads), map(math.fsum, groups))))


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
    exact).  base and pieces are strategy arrays of tree.
    """
    y = _y_array(tree, Y)
    i_s = tree.grid.index_of(s)
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
