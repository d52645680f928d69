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
  draw of the normals (simulate_sup_distances).

Trees are non-recombining and keep the full state prefix of every node:
both the drift and the rewards downstream may look at the whole history,
so merging nodes would be unsound.  A tree is stored level by level as
numpy arrays (one prefix block per time index), and expansion, reward
evaluation and the worst-case sweep each run one vectorised step per
level.  Every drift kind is written once, in _drift_into, which reads
at most the current states and their running max: drift_eval feeds it
from stacks of prefixes, for expansion (once per level) and the sampled
checks, and the Euler kernel from the two arrays it carries per path.
"""

from __future__ import annotations

import bisect
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
    "PathSample",
    "drift_eval",
    "expand_tree",
    "simulate_paths",
    "simulate_sup_distances",
    "prefix_key",
    "state_norms",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 5_000_000

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
    verify.check_drift samples the two bounds.
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
    (n, d); so the Euler kernel can evaluate drifts from two carried
    arrays where drift_eval reduces whole prefixes.
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
    stable total order.
    """

    def __init__(self, controls, cap: float):
        mats = []
        for u in controls:
            m = np.asarray(u, dtype=np.float64)
            if m.ndim == 0:
                m = m.reshape(1, 1)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"control must be a square matrix, got shape {m.shape}")
            if not np.array_equal(m, m.T):
                raise ValueError("control matrix must be symmetric")
            eig = np.linalg.eigvalsh(m)
            if eig[0] <= 0:
                raise ValueError(f"control must be positive definite, eigenvalues {eig}")
            if eig[-1] > cap * (1 + 1e-12):
                raise ValueError(f"control norm {eig[-1]} exceeds cap {cap}")
            m.setflags(write=False)
            mats.append(m)
        if not mats:
            raise ValueError("control set must be nonempty")
        dims = {m.shape[0] for m in mats}
        if len(dims) != 1:
            raise ValueError(f"controls have mixed dimensions {sorted(dims)}")
        # dedupe on exact entries, then sort lexicographically
        uniq = {tuple(m.flat): m for m in mats}
        self.controls = [uniq[key] for key in sorted(uniq)]
        self.cap = float(cap)
        self.dim = self.controls[0].shape[0]

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
    shift + (-c_j), bit for bit the same as shift - c_j.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 0:
        u = u.reshape(1, 1)
    d = u.shape[0]
    eig = np.linalg.eigvalsh(u)
    if eig[0] <= 0:
        raise ValueError(f"control must be positive definite, eigenvalues {eig}")
    if d == 1:
        cols = float(u[0, 0]) * math.sqrt(dt)
    else:
        cols = u.T * math.sqrt(d * dt)
    inc = np.empty((2 * d, d))
    inc[0::2] = cols
    inc[1::2] = -cols
    return inc, np.full(2 * d, 1.0 / (2 * d))


def prefix_key(k: int, values: np.ndarray) -> tuple:
    """Hashable identity of an observed state prefix.

    Float equality semantics (0.0 == -0.0), so two nodes whose prefixes
    agree as real vectors share a key.  This is the stopper's information:
    rules are keyed on these, never on tree node ids.
    """
    return (k, tuple(np.asarray(values, dtype=np.float64).flat))


def state_norms(states: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) array.

    Bit for bit np.linalg.norm(row) on every row: that takes the square
    root of the BLAS dot product row.dot(row), and the stacked matmul
    below reaches the same dot routine.  np.linalg.norm(states, axis=1)
    sums the squares without it and differs in the last bit on some rows.
    With one column the dot product of a row is its single product x * x,
    so that case is np.sqrt(x * x), with no BLAS call per row.
    """
    if states.shape[1] == 1:
        x = states[:, 0]
        return np.sqrt(x * x)
    states = np.ascontiguousarray(states)
    return np.sqrt((states[:, None, :] @ states[:, :, None]).reshape(-1))


class ScenarioTree:
    """Control-expanded non-recombining tree, stored level by level.

    With C controls of B outcomes each, level l (time index k0 + l)
    holds the node ids offsets[l] .. offsets[l+1] - 1 and a read-only
    prefix block blocks[l] of shape (n_l, k0 + l + 1, d) whose row j is
    the state prefix of node offsets[l] + j.  Ids run level by level,
    then by parent, control and outcome, so node i of level l has the
    children

        offsets[l+1] + (i - offsets[l]) * C * B + ci * B + oi

    for control index ci and outcome index oi.  weights[ci] holds the B
    edge weights of control ci, the same at every node.  Every walk over
    the tree, backward (envelope.backward_sweep) or forward
    (envelope.forward_pass), computes child ids from this layout.

    The stopper sees the state path only, so nodes reached under
    different controls can share its information: prefix_class holds,
    per node, the lowest node id with the same prefix_key.
    """

    def __init__(self, grid, controls, drift, k0: int, blocks: list, weights: np.ndarray):
        self.grid = grid
        self.controls = controls
        self.drift = drift
        self.k0 = k0
        self.blocks = blocks
        self.weights = weights
        self.branching = weights.shape[1]
        self.offsets = [0]
        for block in blocks:
            self.offsets.append(self.offsets[-1] + block.shape[0])

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
        return self.blocks[k - self.k0][:, -1, :]

    def subtree_ranges(self, i: int) -> list[tuple[int, int]]:
        """The subtree of node i as one id range (lo, hi) per level, from
        i's level down to the leaves; the children of range l are range
        l + 1, in order."""
        l = bisect.bisect_right(self.offsets, i) - 1
        first, count = i - self.offsets[l], 1
        out = []
        for start in self.offsets[l:-1]:
            out.append((start + first, start + first + count))
            first, count = first * self.fanout, count * self.fanout
        return out

    @cached_property
    def prefix_class(self) -> np.ndarray:
        """Per node, the lowest node id whose prefix_key equals its own:
        two prefixes agree when their parents' do and their states are
        equal, so each level takes one stable lexsort over (the parent's
        class, the state with -0.0 made 0.0); == splits the sorted rows."""
        out = np.zeros(self.n_nodes, dtype=np.int64)
        for l in range(1, len(self.blocks)):
            lo, hi = self.offsets[l], self.offsets[l + 1]
            parent = np.repeat(out[self.offsets[l - 1]:lo], self.fanout)
            rows = np.column_stack((parent, self.blocks[l][:, -1, :])) + 0.0
            order = np.lexsort(rows.T)
            rows = rows[order]
            new = np.ones(hi - lo, dtype=bool)
            new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
            out[lo + order] = lo + order[new][np.cumsum(new) - 1]
        return out

    def class_firsts(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """For increasing node ids: per id, the position in ids of the
        first id of its prefix class; and those positions, increasing."""
        cls = self.prefix_class[ids]
        first = np.full(self.n_nodes, len(ids))
        np.minimum.at(first, cls, np.arange(len(ids)))
        first = first[cls]
        return first, np.flatnonzero(first == np.arange(len(ids)))

    def prefix_keys(self, ids) -> list[tuple]:
        """prefix_key of each of the increasing node ids."""
        ids = np.asarray(ids, dtype=np.int64)
        cuts = np.searchsorted(ids, self.offsets).tolist()
        return [prefix_key(self.k0 + l, block[j]) for l, block in enumerate(self.blocks)
                for j in (ids[cuts[l]:cuts[l + 1]] - self.offsets[l]).tolist()]


def _projected_node_count(n_levels: int, fanout: int) -> int:
    total = 0
    level = 1
    for _ in range(n_levels + 1):
        total += level
        level *= fanout
    return total


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
    of the control's kernel, with the drift b from one drift_eval call on
    the level's prefix block.
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
        root_prefix = np.broadcast_to(
            np.asarray(x0, dtype=np.float64).reshape(-1), (1, d)
        )
        k0 = 0
    if drift.kind == "custom-table" and len(drift.table) < grid.n_steps:
        raise ValueError(
            f"custom-table drift has {len(drift.table)} rows, the grid needs {grid.n_steps}"
        )

    dt = grid.dt
    kernels = [_control_kernel(u, dt) for u in controls]
    increments = np.array([inc for inc, _ in kernels])  # (C, B, d)
    weights = np.array([w for _, w in kernels])  # (C, B)
    weights.setflags(write=False)
    fanout = weights.size
    projected = _projected_node_count(grid.n_steps - k0, fanout)
    if projected > node_cap:
        raise SizeError.over_cap(projected, "tree nodes", node_cap, "solver.node_cap")

    root = root_prefix[None].copy()
    root.setflags(write=False)
    blocks = [root]
    for k in range(k0, grid.n_steps):
        prev = blocks[-1]
        n = prev.shape[0]
        shift = drift_eval(drift, k, prev, None) * dt
        step = shift[:, None, None, :] + increments[None]  # (n, C, B, d)
        block = np.empty((n * fanout, k + 2, d))
        view = block.reshape(n, fanout, k + 2, d)
        view[:, :, : k + 1, :] = prev[:, None]
        view[:, :, k + 1, :] = prev[:, None, -1, :] + step.reshape(n, fanout, d)
        block.setflags(write=False)
        blocks.append(block)
    return ScenarioTree(grid, controls, drift, k0, blocks, weights)


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

        X_{k+1} = (X_k + b * dt) + (xi_k @ u.T) * sqrt(dt),

    with b from _drift_into on the carried state and running max.  With
    values, an (n_paths, n_steps + 1, d) array, the one drift's states
    are written there; otherwise the kernel keeps the running max of
    |X_k - x0|^2 per path, reduced over the components like
    np.linalg.norm(axis=...), and returns the (len(drifts), n_paths)
    square roots: sqrt is monotone and correctly rounded, so that is bit
    for bit the max of the per-node norms.

    Every work buffer is allocated once per call and reused by every
    block: temporaries above glibc's mmap threshold (128 KB) cost a page
    fault per page on every allocation.
    """
    d = u.shape[0]
    n = grid.n_steps
    dt = grid.dt
    sqdt = math.sqrt(dt) if n > 0 else 0.0
    ut = u.T
    rows = min(_BLOCK, n_paths)
    noise = np.empty((rows, n, d))
    inc = np.empty((rows, d)) if d > 1 else None
    shift = np.empty((rows, d))
    state = np.empty((len(drifts), rows, d))
    peak = np.empty_like(state)
    dev = np.empty((rows, d))
    sq = dev[:, 0] if d == 1 else np.empty(rows)
    sup = None if values is not None else np.zeros((len(drifts), n_paths))
    seeds = np.random.SeedSequence(seed).spawn(-(-n_paths // _BLOCK))
    for b, ss in enumerate(seeds):
        start = b * _BLOCK
        m = min(_BLOCK, n_paths - start)
        stop = start + m
        xi = noise[:m]
        np.random.Generator(np.random.PCG64(ss)).standard_normal(out=xi)
        if d == 1:
            # each (m, 1) @ (1, 1) product is 0.0 + xi * u elementwise,
            # so the whole block's increments are formed in place at once
            np.multiply(xi, u[0, 0], out=xi)
            xi += 0.0
            xi *= sqdt
        shift_m, dev_m, sq_m = shift[:m], dev[:m], sq[:m]
        states = [
            (spec, state[j, :m], peak[j, :m], None if sup is None else sup[j, start:stop])
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
            for spec, x, peak_j, sup_j in states:
                _drift_into(spec, k, x, peak_j, shift_m)
                shift_m *= dt
                x += shift_m
                x += inc_k
                if spec.kind == "running-max":
                    np.maximum(peak_j, x, out=peak_j)
                if sup_j is None:
                    values[start:stop, k + 1] = x
                    continue
                np.subtract(x, x0, out=dev_m)
                np.multiply(dev_m, dev_m, out=dev_m)
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
