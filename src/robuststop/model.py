"""Controlled dynamics on scenario trees.

The state process follows the Euler step

    X_{k+1} = X_k + b(t_k, X_{0..k}, u_k) * dt + u_k * sqrt(dt) * xi_k

where b is a path-dependent drift with Lipschitz/growth constant kappa and
u_k ranges over a finite set of symmetric positive-definite volatility
matrices.  Two carriers are provided:

* exhaustive scenario trees with two-point (d = 1) or 2d-point (d > 1)
  increment kernels whose first two moments match b*dt and u*u^T*dt, and
* Gaussian Monte Carlo samples for checking the moment estimates, from
  one blocked Euler kernel that either stores the paths (simulate_paths)
  or keeps only each path's running supremum, for several drifts on one
  draw of the normals (simulate_sup_distances).  The kernel resolves a
  drift that reads no state into a table of per-step shifts once per
  call, and the sup-only run skips the steps that can change only the
  sign of a zero (a zero shift, the d = 1 stand-in for the matrix
  product's 0.0 + xi * u, and X_k - x0 at a zero start): squaring erases
  that sign, so its suprema are bit for bit those of the stored paths.

A tree is stored level by level as numpy arrays of the current states
per time index, and expansion, reward evaluation and the worst-case
sweep each run one vectorised step per level; a node's whole prefix is
rebuilt on demand from its ancestors' states, and the running max of
every prefix is built from the states on its first read, unless
expansion carried it for a running-max drift.  Every drift kind is
written once, in _drift_into, which reads at most the current states and
their running max: expansion feeds it a level's arrays, drift_eval
reduces stacks of prefixes for the sampled checks, and the Euler kernel
carries the two arrays per path.

expand_tree's trees are non-recombining, because a running-max drift and
the path-dependent rewards look at more of the history than the current
state.  Merging is exact where nothing does: at d = 1, with a drift that
reads at most the current state (every kind but running-max) and a
reward that reads only the current state (american-put, terminal-abs,
constant), a node's whole subtree, its rewards and its envelope are a
function of its level and its state's bits, since every child is formed
from them by the same float operations.  So nodes whose states are
bitwise equal carry bitwise-equal values, and expand_recombined keeps
one node per distinct state and level (a RecombinedTree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SizeError
from .pathspace import TimeGrid

__all__ = [
    "DriftSpec",
    "ControlSet",
    "ScenarioTree",
    "RecombinedTree",
    "PathSample",
    "drift_eval",
    "expand_tree",
    "expand_recombined",
    "simulate_paths",
    "simulate_sup_distances",
    "state_norms",
    "min_state_norm",
    "DEFAULT_NODE_CAP",
    "STRATEGY_CAP",
    "STOP_TIME_CAP",
    "RULE_PREFIX_CAP",
]

# The default size caps, each overridden by its solver.* config key: tree
# nodes (expand_tree), and, for the game oracle, strategies, stopping
# times and the non-terminal prefix classes whose rules are enumerated
# on a tree with a prefix collision.
DEFAULT_NODE_CAP = 5_000_000
STRATEGY_CAP = 1_000_000
STOP_TIME_CAP = 500_000
RULE_PREFIX_CAP = 22

_DRIFT_KINDS = ("zero", "mean-reversion", "running-max", "custom-table")


@dataclass(frozen=True)
class DriftSpec:
    """Path-dependent drift b(t_k, prefix, u).

    kind "zero":           b = 0.
    kind "mean-reversion":  b = rate * (level - x_k), componentwise.
    kind "running-max":     b = -min(kappa, running max of the prefix),
                            componentwise (pulls large excursions down).
    kind "custom-table":    table is a sequence indexed by k: a time table
                            of drift vectors, one row per grid step.

    kappa is the Lipschitz/growth constant the drift is declared to obey;
    verify.check_drift samples the two bounds.  For running-max the
    Lipschitz constant is max(kappa, sqrt(d)): each component moves by
    at most the change of its running max, which the sup gap of the
    paths bounds whatever kappa, and a norm over d components adds
    sqrt(d).
    """

    kind: str
    kappa: float = 1.0
    rate: float = 0.0
    level: float = 0.0
    table: object = None

    def __post_init__(self):
        if self.kind not in _DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.kind == "custom-table" and (self.table is None or callable(self.table)):
            raise ValueError("custom-table drift needs a table of per-step drift vectors")


def drift_eval(spec: DriftSpec, k: int, prefix, u) -> np.ndarray:
    """Drift at time index k on a state prefix of k+1 values.

    prefix is one prefix, of shape (k+1, d) or (k+1,), and gives a (d,)
    vector; or a stack of n prefixes of shape (n, k+1, d), and gives an
    (n, d) array.  u is the control in force, one matrix or one per
    prefix of a stack; no drift kind reads it, so a caller that shares
    one drift across every control passes None.
    """
    p = np.atleast_2d(np.asarray(prefix, dtype=np.float64).T).T
    block = p[None] if p.ndim == 2 else p
    n, m, d = block.shape
    if m != k + 1:
        raise ValueError(f"prefix must hold k+1 = {k + 1} values, got {m}")
    peak = np.max(block, axis=1) if spec.kind == "running-max" else None
    out = _drift_into(spec, k, block[:, -1, :], peak, np.empty((n, d)))
    return out[0] if p.ndim == 2 else out


def _drift_into(spec: DriftSpec, k: int, last, peak, out) -> np.ndarray:
    """Write the drift at time index k of a stack of prefixes into out,
    an (n, d) array, and return it.

    Every drift kind reads at most the current values last, shape (n, d),
    and, for running-max, the running max peak of each prefix, shape
    (n, d); so expansion and the Euler kernel evaluate drifts from two
    carried arrays, where drift_eval reduces whole prefixes.
    """
    if spec.kind == "zero":
        out.fill(0.0)
    elif spec.kind == "mean-reversion":
        np.subtract(spec.level, last, out=out)
        np.multiply(spec.rate, out, out=out)
    elif spec.kind == "running-max":
        np.minimum(spec.kappa, peak, out=out)
        np.negative(out, out=out)
    else:
        row = np.asarray(spec.table[k], dtype=np.float64).reshape(out.shape[1])
        if not np.all(np.isfinite(row)):
            raise ValueError(f"custom drift returned non-finite value at k={k}")
        out[...] = row
    return out


class ControlSet:
    """Finite volatility menu: SPD d x d matrices with operator norm <= cap.

    Scalars are accepted for d = 1.  The menu is deduplicated and sorted
    lexicographically on the matrix entries, so control indices are a
    stable total order, and kept as one read-only (C, d, d) array: each
    control is a view of it.  Without a cap, the cap is the largest operator
    norm on the menu.
    """

    def __init__(self, controls, cap: float | None = None):
        mats = []
        norms = []
        for u in controls:
            m = np.asarray(u, dtype=np.float64)
            if m.ndim == 0:
                m = m.reshape(1, 1)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"control must be a square matrix, got shape {m.shape}")
            if m.shape == (1, 1):
                # LAPACK returns A(1,1) itself as the eigenvalue when N = 1,
                # and NaN is the one entry that differs from its transpose
                lo = hi = m.item()
                if lo != lo:
                    raise ValueError("control matrix must be symmetric")
            elif not np.array_equal(m, m.T):
                raise ValueError("control matrix must be symmetric")
            else:
                eig = np.linalg.eigvalsh(m)
                lo, hi = eig[0], eig[-1]
            if lo <= 0:
                raise ValueError(
                    f"control must be positive definite, eigenvalues {np.linalg.eigvalsh(m)}"
                )
            if cap is not None and hi > cap * (1 + 1e-12):
                raise ValueError(f"control norm {np.float64(hi)} exceeds cap {cap}")
            mats.append(m)
            norms.append(float(hi))
        if not mats:
            raise ValueError("control set must be nonempty")
        dims = {m.shape[0] for m in mats}
        if len(dims) != 1:
            raise ValueError(f"controls have mixed dimensions {sorted(dims)}")
        # dedupe on exact entries, then sort lexicographically, into one
        # read-only (C, d, d) array whose rows are the controls
        uniq = {tuple(m.flat): m for m in mats}
        self.controls = np.array([uniq[key] for key in sorted(uniq)])
        self.controls.setflags(write=False)
        self.cap = max(norms) if cap is None else float(cap)
        self.dim = self.controls.shape[1]

    def __len__(self):
        return len(self.controls)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.controls[i]

    def __iter__(self):
        return iter(self.controls)

    def scalars(self) -> list[float]:
        """Scalar view for d = 1 menus."""
        if self.dim != 1:
            raise ValueError("scalar view only for d = 1")
        return [float(m[0, 0]) for m in self.controls]

    def __repr__(self):
        if self.dim == 1:
            return f"ControlSet({self.scalars()}, cap={self.cap})"
        return f"ControlSet({len(self)} matrices, d={self.dim}, cap={self.cap})"


def _control_kernel(u, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Driftless kernel of one control: increments +c_0, -c_0, +c_1, ...
    of shape (2d, d) and their weights, each 1 / (2d).

    For d = 1, c_0 = u * sqrt(dt); for d > 1, c_j is column j of u
    scaled by sqrt(d * dt), so the increments have mean zero and
    covariance u u^T dt.  Adding the drift shift gives shift + c_j and
    shift + (-c_j), bit for bit the same as shift - c_j.  u is a
    ControlSet entry, so it is square and positive definite already.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    d = u.shape[0]
    if d == 1:
        cols = float(u[0, 0]) * math.sqrt(dt)
    else:
        cols = u.T * math.sqrt(d * dt)
    inc = np.empty((2 * d, d))
    inc[0::2] = cols
    inc[1::2] = -cols
    return inc, np.full(2 * d, 1.0 / (2 * d))


def _squared_norms(states: np.ndarray, out=None) -> np.ndarray:
    """Squared Euclidean norm of each row of an (n, d) array, written into
    out, an (n,) array that states may be a view of, or into a new one.

    Bit for bit what np.linalg.norm(row) takes the square root of: the
    BLAS dot product row.dot(row), whose dot routine the stacked matmul
    below reaches too.  np.linalg.norm(states, axis=1)
    sums the squares without it and differs in the last bit on some rows.
    """
    states = np.ascontiguousarray(states)
    sq = np.matmul(states[:, None, :], states[:, :, None],
                   out=None if out is None else out.reshape(-1, 1, 1))
    return sq.reshape(-1)


def state_norms(states: np.ndarray, out=None) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) array, written into out,
    an (n,) array that states may be a view of, or into a new one.

    At d = 1 it is |x|, the exact norm, which is np.linalg.norm(row) bit
    for bit wherever x * x is a normal float and, unlike a square, never
    overflows or underflows.  At d > 1 it is np.linalg.norm(row) bit for
    bit on every row.
    """
    if states.shape[1] == 1:
        return np.abs(states[:, 0], out=out)
    out = _squared_norms(states, out)
    return np.sqrt(out, out=out)


def min_state_norm(states: np.ndarray, where=True) -> float:
    """The least of state_norms(states) over the rows where the (n,) mask
    where holds (every row by default; at least one row must), bit for
    bit.

    The square root is monotone and correctly rounded, so the root of the
    least squared norm is the least norm, and only one root is taken.  A
    squared norm is never -0.0 (a sum of squares is at least +0.0), so
    the min picks the same float that Python's min over the rows would.
    A row's squared norm does not depend on the other rows, so the min
    is taken over the whole array under the mask, with no copy of the
    selected rows: the same float as over states[where].  At d = 1 a
    row's norm is sqrt(x * x), which is |x| wherever x * x is a normal
    float, so the min is taken over |x| with no square, which neither
    overflows nor underflows.  At d > 1, where every selected square
    overflows (a row past about 1.3e154) and some selected row is finite,
    the min is taken over the finite rows' norms scaled by each row's
    largest |x|: within a few ulp of math.hypot, where np.linalg.norm
    gives inf.
    """
    if states.shape[1] == 1:
        return float(np.minimum.reduce(np.abs(states[:, 0]), where=where, initial=np.inf))
    with np.errstate(over="ignore"):
        least = np.minimum.reduce(_squared_norms(states), where=where, initial=np.inf)
    if least == np.inf:
        rows = states[np.broadcast_to(where, states.shape[:1])]
        rows = rows[np.isfinite(rows).all(axis=1)]
        if len(rows):
            big = np.max(np.abs(rows), axis=1)
            with np.errstate(over="ignore"):
                scaled = big * np.sqrt(_squared_norms(rows / big[:, None]))
            return float(np.minimum.reduce(scaled))
    return math.sqrt(least)


class _LevelTree:
    """What both tree kinds hold: the grid, the control menu, the drift,
    the root's whole prefix root_prefix of shape (k0 + 1, d), per level l
    (time index k0 + l) the read-only (n_l, d) array states[l] of the
    nodes' current states, and the (C, B) edge weights, the same at every
    node.  Level l holds the node ids offsets[l] .. offsets[l+1] - 1, and
    children is None where the ids of a node's children follow from this
    layout (ScenarioTree), or per level the array of them
    (RecombinedTree).  width is the node count of the widest level that
    has children (0 when the root is a leaf), which bounds the width of
    envelope.backward_sweep's buffer."""

    children = None

    def __init__(self, grid, controls, drift, root_prefix: np.ndarray, states: list,
                 weights: np.ndarray):
        self.grid = grid
        self.controls = controls
        self.drift = drift
        self.root_prefix = root_prefix
        self.k0 = root_prefix.shape[0] - 1
        self.states = states
        self.weights = weights
        self.branching = weights.shape[1]
        self.offsets = [0]
        for level in states:
            self.offsets.append(self.offsets[-1] + level.shape[0])
        self.width = max(map(len, states[:-1]), default=0)

    @property
    def n_nodes(self) -> int:
        return self.offsets[-1]

    @property
    def root(self) -> int:
        return 0

    @property
    def fanout(self) -> int:
        return self.weights.size

    def level(self, k: int) -> slice:
        """Node ids at time index k, as a slice."""
        l = k - self.k0
        return slice(self.offsets[l], self.offsets[l + 1])

    def states_at(self, k: int) -> np.ndarray:
        """Current values of the nodes at time index k, shape (n_k, d)."""
        return self.states[k - self.k0]


class ScenarioTree(_LevelTree):
    """Control-expanded non-recombining tree, stored level by level.

    With C controls of B outcomes each, row j of states[l] is the
    current state of node offsets[l] + j, and peaks[l], shape (n_l, d),
    the componentwise running max of that node's prefix.  peaks is built
    from the states on its first read, unless the tree was given it
    (expansion carries it only for a running-max drift), so until then a
    tree holds 8 * d bytes per node.  Ids run level by level, then by
    parent, control and outcome, so node i of level l has the children

        offsets[l+1] + (i - offsets[l]) * C * B + ci * B + oi

    for control index ci and outcome index oi, and row j of level l has
    the ancestor row j // fanout**(l - m) at level m: level_prefixes
    gathers whole prefixes along those rows.  Every walk over the tree
    runs from the root and computes child ids from this layout: the
    backward sweep, the forward pass of strategy and rule walks, and the
    tau* summary (envelope).  The tree below a later node is the one
    expand_tree resumes from that node's prefix (init_prefix).

    Nodes with bitwise-equal states on one level carry equal values only
    where the drift and the reward read no more than the current state
    (the module docstring says when); expand_recombined merges them
    there, and this tree keeps every node, so it serves every config.

    The stopper sees the state path only, so nodes reached under
    different controls can share its information: prefix_class holds,
    per node, the lowest node id whose prefix equals its own as a float
    vector (0.0 equal to -0.0).
    """

    def __init__(self, grid, controls, drift, root_prefix: np.ndarray, states: list,
                 weights: np.ndarray, peaks: list | None = None):
        super().__init__(grid, controls, drift, root_prefix, states, weights)
        if peaks is not None:
            self.__dict__["peaks"] = peaks  # what the cached property would build

    @cached_property
    def peaks(self) -> list:
        """Per level, the componentwise running max of each node's
        prefix, shape (n_l, d), read-only: the root prefix's max, then
        each level from its parents' (see _child_peaks)."""
        d = self.root_prefix.shape[1]
        out = [np.max(self.root_prefix[None], axis=1)]
        for level in self.states[1:]:
            kids = level.reshape(out[-1].shape[0], self.fanout, d)
            out.append(_child_peaks(out[-1], kids))
        for a in out:
            a.setflags(write=False)
        return out

    def level_prefixes(self, l: int, rows=None) -> np.ndarray:
        """State prefixes of the given rows of level l (every row when
        None), shape (len(rows), k0 + l + 1, d): the root's prefix, then
        the state of each row's ancestor at levels 1 .. l."""
        if rows is None:
            rows = np.arange(self.offsets[l + 1] - self.offsets[l])
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((len(rows), self.k0 + l + 1, self.root_prefix.shape[1]))
        out[:, : self.k0 + 1] = self.root_prefix
        for m in range(l, 0, -1):
            out[:, self.k0 + m] = self.states[m][rows]
            rows = rows // self.fanout
        return out

    @cached_property
    def prefix_class(self) -> np.ndarray:
        """Per node, the lowest node id whose prefix equals its own as a
        float vector, so 0.0 equals -0.0 and a NaN equals nothing: two
        prefixes agree when their parents' do and their states are
        equal, so each level takes one stable lexsort over (the state with
        -0.0 made 0.0, the parent's class), compares the sorted keys one
        column at a time to bound memory, and gives each run of equal keys
        its first node's id."""
        out = np.zeros(self.n_nodes, dtype=np.int64)
        for l in range(1, len(self.states)):
            lo, hi = self.offsets[l], self.offsets[l + 1]
            parent = np.repeat(out[self.offsets[l - 1]:lo], self.fanout)
            cols = [col + 0.0 for col in self.states[l].T]
            order = np.lexsort(cols + [parent])
            parent.sort()  # the primary key, so this is parent[order]
            new = np.zeros(hi - lo, dtype=bool)
            new[1:] = parent[1:] != parent[:-1]
            del parent
            while cols:
                col = cols.pop()[order]
                new[1:] |= col[1:] != col[:-1]
                del col
            start = np.where(new, np.arange(hi - lo), 0)
            np.maximum.accumulate(start, out=start)  # where each sorted row's run starts
            start = order[start]
            start += lo
            out[lo:hi][order] = start
        return out


class RecombinedTree(_LevelTree):
    """The tree of expand_tree with the nodes of each level whose states
    are bitwise equal merged into one, stored level by level
    (expand_recombined).

    states[l], shape (n_l, 1), holds the distinct states of level l,
    ordered by their bit patterns read as int64 (np.unique's order).
    children[l], an int64 array of shape (n_l, C * B), holds the ids of
    each node's children in the tree's (control, outcome) order, counted
    from the first id of level l + 1: the one part of the layout that a
    walk reads here and computes on a ScenarioTree.  multiplicity()[l]
    counts the tree nodes each node of level l stands for.

    A node stands for every tree node with its state, whatever their
    prefixes, so the running maxima, prefix classes and prefixes of a
    ScenarioTree, and envelope.forward_pass, raise a TypeError here.
    """

    def __init__(self, grid, controls, drift, root_prefix: np.ndarray, states: list,
                 weights: np.ndarray, children: list):
        super().__init__(grid, controls, drift, root_prefix, states, weights)
        self.children = children

    def multiplicity(self, allowed=None) -> list:
        """Per level, an int64 array: the tree nodes each node stands
        for, summed over the children slots of its parents, or with
        allowed, one bool per control, over the slots of those controls
        only: the nodes of that sub-menu's tree, 0 where it does not
        reach.  Level l sums to (slots per node)**l, so a count whose
        deepest level passes int64 raises a SizeError."""
        C, B = self.weights.shape
        slots = np.arange(C * B) if allowed is None else np.flatnonzero(np.repeat(allowed, B))
        if len(slots) ** (len(self.states) - 1) > np.iinfo(np.int64).max:
            raise SizeError("the tree's deepest level holds more nodes than int64 counts")
        out = [np.ones(1, dtype=np.int64)]
        for kids, level in zip(self.children, self.states[1:]):
            count = np.zeros(level.shape[0], dtype=np.int64)
            np.add.at(count, kids[:, slots].reshape(-1), np.repeat(out[-1], len(slots)))
            out.append(count)
        return out

    def refuse(self, what: str):
        """Raise the TypeError of a read that needs one node per prefix."""
        raise TypeError(
            f"{what} needs one node per prefix, and a RecombinedTree merges every "
            f"node with an equal state; expand the tree with expand_tree"
        )

    @property
    def peaks(self):
        self.refuse("running maxima")

    @property
    def prefix_class(self):
        self.refuse("prefix classes")

    def level_prefixes(self, l: int, rows=None):
        self.refuse("level_prefixes")


def _child_peaks(peak: np.ndarray, kids: np.ndarray) -> np.ndarray:
    """Running maxima of the children kids, shape (n, fanout, d), of n
    nodes with running maxima peak, shape (n, d), as an (n * fanout, d)
    array.

    On a tie of 0.0 and -0.0 np.maximum keeps its second argument, as
    np.max over a prefix keeps the later value, so the result is bit for
    bit the max over the whole prefix.
    """
    return np.maximum(peak[:, None, :], kids).reshape(-1, kids.shape[2])


def _projected_node_count(n_levels: int, fanout: int, cap=math.inf) -> int:
    """Nodes of the complete tree with n_levels levels below the root and
    fanout children per node, counted level by level.  The count stops
    as soon as it passes cap, so it takes about log(cap) steps at most,
    and a result above cap says only that the tree is over it."""
    total = 0
    level = 1
    for _ in range(n_levels + 1):
        total += level
        if total > cap:
            break
        level *= fanout
    return total


def _node_cap_error(n_levels: int, fanout: int, cap: int) -> SizeError:
    """The error for a tree over cap.  Its node count is
    (F^(L+1) - 1) / (F - 1), with F = fanout >= 2 and L = n_levels.  At
    10^12 and over the message gives a power of ten from logarithms of
    that form, taken in exact rationals so that no n_levels overflows a
    float; below, the exact count."""
    from fractions import Fraction  # only this error path needs it

    log10 = (n_levels + 1) * Fraction(math.log10(fanout)) - Fraction(math.log10(fanout - 1))
    count = _projected_node_count(n_levels, fanout) if log10 < 13 else None
    return SizeError.over_cap(count, "tree nodes", cap, "solver.node_cap", log10)


def _kernels(grid: TimeGrid, drift: DriftSpec, controls: ControlSet):
    """The (C, B, d) increments and (C, B) read-only weights of every
    control's kernel on grid, once the drift is known to cover it."""
    if drift.kind == "custom-table" and len(drift.table) < grid.n_steps:
        raise ValueError(
            f"custom-table drift has {len(drift.table)} rows, the grid needs {grid.n_steps}"
        )
    kernels = [_control_kernel(u, grid.dt) for u in controls]
    increments = np.array([inc for inc, _ in kernels])  # (C, B, d)
    weights = np.array([w for _, w in kernels])  # (C, B)
    weights.setflags(write=False)
    return increments, weights


def _child_states(drift: DriftSpec, k: int, prev: np.ndarray, peak, increments: np.ndarray,
                  dt: float) -> np.ndarray:
    """The children of the states prev, shape (n, d), at time index k,
    as an (n, C * B, d) array: x + (b * dt + c) for every increment c of
    increments, shape (C, B, d), with the drift b from one _drift_into
    call on prev and its running maxima peak."""
    n, d = prev.shape
    shift = _drift_into(drift, k, prev, peak, np.empty((n, d)))
    shift *= dt
    step = shift[:, None, None, :] + increments[None]  # (n, C, B, d)
    step += prev[:, None, None, :]
    return step.reshape(n, -1, d)


def expand_tree(
    grid: TimeGrid,
    x0,
    drift: DriftSpec,
    controls: ControlSet,
    node_cap: int = DEFAULT_NODE_CAP,
    init_prefix=None,
) -> ScenarioTree:
    """Expand the complete scenario tree on grid.

    The root holds prefix [x0] at time index 0, or init_prefix (an array
    of shape (k0+1, d) covering grid nodes 0..k0) when resuming from a
    later time.  Every interior node gets |controls| * branching children,
    one per (control, outcome) pair, with branching 2 for d = 1 and 2d
    for d > 1.  Child states are x + (b * dt + c) for each increment c
    of the control's kernel, with the drift b from one _drift_into call
    on the level's states.  Only a running-max drift reads running
    maxima during expansion, so only then are they carried, a child's
    the max of its parent's and its own state; otherwise tree.peaks
    builds them on its first read.  No prefix is stored.
    """
    d = controls.dim
    if init_prefix is not None:
        root_prefix = np.atleast_2d(np.asarray(init_prefix, dtype=np.float64).T).T
        if root_prefix.shape[1] != d:
            raise ValueError(f"init_prefix dim {root_prefix.shape[1]} != controls dim {d}")
        k0 = root_prefix.shape[0] - 1
        if k0 > grid.n_steps:
            raise ValueError("init_prefix longer than the grid")
    else:
        # one value, or one per state dimension
        root_prefix = np.empty((1, d))
        root_prefix[0] = np.asarray(x0, dtype=np.float64).reshape(-1)
        k0 = 0
    increments, weights = _kernels(grid, drift, controls)
    fanout = weights.size
    if _projected_node_count(grid.n_steps - k0, fanout, node_cap) > node_cap:
        raise _node_cap_error(grid.n_steps - k0, fanout, node_cap)

    root = root_prefix.copy()
    states = [root[-1:].copy()]
    peaks = [np.max(root[None], axis=1)] if drift.kind == "running-max" else None
    dt = grid.dt
    for k in range(k0, grid.n_steps):
        kids = _child_states(drift, k, states[-1], peaks[-1] if peaks else None,
                             increments, dt)
        states.append(kids.reshape(-1, d))
        if peaks:
            peaks.append(_child_peaks(peaks[-1], kids))
    for a in (root, *states, *(peaks or ())):
        a.setflags(write=False)
    return ScenarioTree(grid, controls, drift, root, states, weights, peaks)


def expand_recombined(grid: TimeGrid, x0, drift: DriftSpec, controls: ControlSet) -> RecombinedTree:
    """expand_tree(grid, x0, drift, controls) with the nodes of each
    level whose states are bitwise equal merged into one.

    Each level takes expand_tree's child step on the merged nodes of the
    level above, then keeps its distinct states, found by np.unique on
    their int64 bit patterns, so 0.0 and -0.0 stay apart.  The merge is
    exact only at d = 1 and for a drift that reads no running max (see
    the module docstring), and other inputs raise ValueError.  The
    merged tree is no larger than the tree, so a caller bounds it by the
    tree's projected node count.

    The widest menu of the demo's widenings from [0.3, 0.9] in four
    steps has nine controls, and at n_steps 4 its 111,151 tree nodes
    hold 750 distinct (level, state) pairs:

    >>> mid = (0.3 + 0.9) / 2
    >>> menu = ControlSet({mid + (e - mid) * (j / 4) for j in range(5) for e in (0.3, 0.9)})
    >>> grid, zero = TimeGrid(0.0, 1.0, 4), DriftSpec("zero")
    >>> len(menu), expand_tree(grid, 0.0, zero, menu).n_nodes
    (9, 111151)
    >>> expand_recombined(grid, 0.0, zero, menu).n_nodes
    750
    """
    if controls.dim != 1:
        raise ValueError(f"a recombined tree needs d = 1, got d = {controls.dim}")
    if drift.kind == "running-max":
        raise ValueError("a running-max drift reads the whole prefix, so its tree cannot merge")
    increments, weights = _kernels(grid, drift, controls)
    root = np.array(x0, dtype=np.float64).reshape(1, 1)
    states, children = [root], []
    dt = grid.dt
    for k in range(grid.n_steps):
        kids = _child_states(drift, k, states[-1], None, increments, dt).reshape(-1)
        distinct, inverse = np.unique(kids.view(np.int64), return_inverse=True)
        states.append(distinct.view(np.float64)[:, None])
        children.append(inverse.reshape(-1, weights.size))
    for a in (*states, *children):
        a.setflags(write=False)
    return RecombinedTree(grid, controls, drift, root, states, weights, children)


@dataclass
class PathSample:
    """Monte Carlo sample of Euler paths, absolute values from x0."""

    grid: TimeGrid
    x0: np.ndarray
    values: np.ndarray  # (n_paths, n_steps + 1, d)
    seed: int

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def sup_distance_from_start(self) -> np.ndarray:
        """Per path: max_k | X_k - x0 | (Euclidean), _SUP_ROWS paths at a
        time so the temporaries stay in cache."""
        out = np.empty(self.n_paths)
        for start in range(0, self.n_paths, _SUP_ROWS):
            rows = self.values[start : start + _SUP_ROWS]
            dev = rows - rows[:, :1, :]
            out[start : start + _SUP_ROWS] = np.max(np.linalg.norm(dev, axis=2), axis=1)
        return out


# paths per simulation block, each with its own derived seed
_BLOCK = 4096
# paths per slice of sup_distance_from_start: on 100,000 paths of 17
# nodes a 1024-row slice took half the time of the whole sample at d = 1
# and 0.8 of it at d = 2 and 3, while 4096 rows gained nothing at d = 1
_SUP_ROWS = 1024


def _euler_inputs(x0, strategy, n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """The control matrix u and the (d,) start x0 of a simulation."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    u = np.asarray(strategy, dtype=np.float64)
    if u.ndim == 0:
        u = u.reshape(1, 1)
    d = u.shape[0]
    return u, np.broadcast_to(np.asarray(x0, dtype=np.float64).reshape(-1), (d,))


def _euler(grid: TimeGrid, x0, drifts, u, n_paths: int, seed: int, values=None):
    """Blocked Gaussian Euler kernel behind simulate_paths and
    simulate_sup_distances.

    Paths run in blocks of _BLOCK, block b on the normals drawn at once
    from the b-th SeedSequence(seed).spawn child, so the result does not
    depend on scheduling.  At each step the increment u xi_k sqrt(dt) is
    formed once and every drift in drifts takes it, as

        X_{k+1} = (X_k + b * dt) + (xi_k @ u.T) * sqrt(dt).

    A drift that reads the state (mean-reversion, running-max) takes b
    from _drift_into on the carried state and running max at every step;
    one that does not (zero, custom-table) is resolved once per call
    into a table of the shifts b_k * dt, each row validated once.

    With values, an (n_paths, n_steps + 1, d) array, the one drift's
    states are written there, by exactly the operations above.
    Otherwise (sup mode) the kernel keeps the running max of |X_k - x0|^2
    per path, reduced over the components like np.linalg.norm(axis=...),
    and returns the (len(drifts), n_paths) square roots: sqrt is monotone
    and correctly rounded, so that is bit for bit the max of the per-node
    norms.  Sup mode skips three operations that can only change the
    sign of a zero: adding a zero drift's shift, the 0.0 + xi * u that
    stands for the d = 1 matrix product, and, when x0 is zero, taking
    X_k - x0 before squaring.  A state then differs from the stored one
    at most in the sign of a zero, every later sum, product, min and max
    keeps the difference to that, and squaring erases it, so every
    supremum is bit for bit the one of the stored paths.

    Every work buffer is allocated once per call and reused by every
    block: temporaries above glibc's mmap threshold (128 KB) cost a page
    fault per page on every allocation.
    """
    d = u.shape[0]
    n = grid.n_steps
    dt = grid.dt
    sqdt = math.sqrt(dt) if n > 0 else 0.0
    ut = u.T
    sup_mode = values is None
    tables = [None] * len(drifts)
    for j, spec in enumerate(drifts):
        if spec.kind == "custom-table" or (spec.kind == "zero" and not sup_mode):
            tables[j] = np.empty((n, d))
            for k in range(n):
                _drift_into(spec, k, None, None, tables[j][k:k + 1])
            tables[j] *= dt
    from_zero = sup_mode and not np.any(x0)
    rows = min(_BLOCK, n_paths)
    noise = np.empty((rows, n, d))
    inc = np.empty((rows, d)) if d > 1 else None
    shift = np.empty((rows, d))
    state = np.empty((len(drifts), rows, d))
    peak = np.empty_like(state)
    dev = np.empty((rows, d))
    sq = dev[:, 0] if d == 1 else np.empty(rows)
    sup = np.zeros((len(drifts), n_paths)) if sup_mode else None
    seeds = np.random.SeedSequence(seed).spawn(-(-n_paths // _BLOCK))
    for b, ss in enumerate(seeds):
        start = b * _BLOCK
        m = min(_BLOCK, n_paths - start)
        stop = start + m
        xi = noise[:m]
        np.random.Generator(np.random.PCG64(ss)).standard_normal(out=xi)
        if d == 1:
            # each (m, 1) @ (1, 1) product is 0.0 + xi * u elementwise,
            # so the whole block's increments are formed in place at once;
            # the 0.0 + only turns -0.0 into +0.0, so sup mode skips it
            np.multiply(xi, u[0, 0], out=xi)
            if not sup_mode:
                xi += 0.0
            xi *= sqdt
        shift_m, dev_m, sq_m = shift[:m], dev[:m], sq[:m]
        states = [
            (spec, tables[j], state[j, :m], peak[j, :m],
             None if sup is None else sup[j, start:stop])
            for j, spec in enumerate(drifts)
        ]
        state[:, :m] = x0
        peak[:, :m] = x0
        for k in range(n):
            if d == 1:
                inc_k = xi[:, k, :]
            else:
                inc_k = np.matmul(xi[:, k, :], ut, out=inc[:m])
                inc_k *= sqdt
            for spec, table, x, peak_j, sup_j in states:
                if table is not None:
                    x += table[k]
                elif spec.kind != "zero":  # a zero drift in sup mode adds nothing
                    _drift_into(spec, k, x, peak_j, shift_m)
                    shift_m *= dt
                    x += shift_m
                x += inc_k
                if spec.kind == "running-max":
                    np.maximum(peak_j, x, out=peak_j)
                if sup_j is None:
                    values[start:stop, k + 1] = x
                    continue
                dx = x if from_zero else np.subtract(x, x0, out=dev_m)
                np.multiply(dx, dx, out=dev_m)
                if d > 1:
                    np.add.reduce(dev_m, axis=1, out=sq_m)
                np.maximum(sup_j, sq_m, out=sup_j)
    if values is not None:
        values[:, 0] = x0
        return values
    return np.sqrt(sup, out=sup)


def simulate_paths(
    grid: TimeGrid,
    x0,
    drift: DriftSpec,
    strategy,
    n_paths: int,
    seed: int,
) -> PathSample:
    """Gaussian Euler simulation, deterministic given seed.

    strategy is a constant control, a scalar or an SPD matrix.  Paths are
    generated in fixed-size blocks with per-block derived seeds, so the
    output does not depend on scheduling.
    """
    u, x0v = _euler_inputs(x0, strategy, n_paths)
    values = np.empty((n_paths, grid.n_steps + 1, u.shape[0]))
    _euler(grid, x0v, [drift], u, n_paths, seed, values)
    return PathSample(grid, x0v, values, seed)


def simulate_sup_distances(
    grid: TimeGrid,
    x0,
    drifts,
    strategy,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Per drift and path: max_k |X_k - x0| (Euclidean), without storing
    the paths.

    Row j is bit for bit simulate_paths(grid, x0, drifts[j], strategy,
    n_paths, seed).sup_distance_from_start(): every drift steps on the
    same normals, drawn once.  Returns shape (len(drifts), n_paths).
    """
    u, x0v = _euler_inputs(x0, strategy, n_paths)
    return _euler(grid, x0v, list(drifts), u, n_paths, seed)
