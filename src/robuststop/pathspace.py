"""Discrete canonical path space: uniform grids, zero-anchored paths,
and the one-sided time-path distance used by continuity checks.

All paths live on uniform grids and start at zero, and a grid position
is always a node index, never a time.  Path equality is exact: no
comparison in this module carries a tolerance.

Usage, stopping one path at nodes 1 and 2 (times 1.0 and 2.0):

>>> g = TimeGrid(0.0, 2.0, 2)
>>> w = Path(g, [0.0, 1.0, 3.0])
>>> dist_dinfty(1, w, 2, w)  # time gap 1 plus stopped-path gap 2
3.0

A Path may also hold a stack of paths on one grid, and dist_dinfty then
takes one pair of indices per row and gives one distance per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, PathError

__all__ = [
    "TimeGrid",
    "Path",
    "ModulusSpec",
    "dist_dinfty",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps intervals.

    Node times are computed as t_i = t_start + (i/n)(t_end - t_start) so
    that t_0 and t_n are exact and no rounding accumulates.  A grid with
    zero steps is the degenerate single-point grid (t_start == t_end).
    A node is named by its int index, never by a time or a bool:

    >>> g = TimeGrid(0.0, 1.0, 4)
    >>> g.times().tolist()
    [0.0, 0.25, 0.5, 0.75, 1.0]
    >>> g.time(1.5)
    Traceback (most recent call last):
        ...
    TypeError: node index must be an integer, got float
    """

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.t_start < 0:
            raise GridError(f"t_start must be >= 0, got {self.t_start}")
        if self.n_steps < 0:
            raise GridError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.n_steps == 0:
            if self.t_end != self.t_start:
                raise GridError("zero-step grid needs t_end == t_start")
        elif self.t_end <= self.t_start:
            raise GridError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def dt(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return (self.t_end - self.t_start) / self.n_steps

    def time(self, i: int) -> float:
        """Node time t_i, computed directly from the int index i."""
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise TypeError(f"node index must be an integer, got {type(i).__name__}")
        if not 0 <= i <= self.n_steps:
            raise GridError(f"node index {i} outside [0, {self.n_steps}]")
        if i == self.n_steps:
            return self.t_end
        return self.t_start + (i / self.n_steps) * (self.t_end - self.t_start)

    def times(self) -> np.ndarray:
        """Every node time, bit for bit time(i) of each index i."""
        n = self.n_steps
        inner = self.t_start + (np.arange(n) / n) * (self.t_end - self.t_start)
        return np.append(inner, self.t_end)


@dataclass(frozen=True, eq=False)
class Path:
    """Zero-anchored path: one d-dimensional value per grid node.

    values has shape (n_steps + 1, d); a flat sequence is accepted for
    d = 1.  A stack of n paths on the grid has shape (n, n_steps + 1, d).
    The first value of every path must be exactly zero in every
    component.  The stored array is frozen after construction.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim not in (2, 3):
            raise PathError(f"values must be 1- to 3-dimensional, got shape {v.shape}")
        if v.shape[-2] != self.grid.n_steps + 1:
            raise PathError(
                f"expected {self.grid.n_steps + 1} node values, got {v.shape[-2]}"
            )
        if not np.all(v[..., 0, :] == 0.0):
            raise PathError("paths start at zero, got a nonzero initial value")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def __eq__(self, other) -> bool:
        # exact, bitwise
        if not isinstance(other, Path):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __repr__(self):
        n = f"{self.values.shape[0]} paths, " if self.values.ndim == 3 else ""
        return (
            f"Path([{self.grid.t_start}, {self.grid.t_end}], "
            f"{n}n={self.grid.n_steps}, d={self.dim})"
        )


def _stopped_values(path: Path, k) -> np.ndarray:
    """Node values of the stopped paths ω(· ∧ t_k), one row per path,
    each frozen from its own node index k on."""
    v = path.values.reshape((-1,) + path.values.shape[-2:])
    i = np.broadcast_to(k, v.shape[:1])[:, None, None]
    nodes = np.arange(v.shape[1])[None, :, None]
    return np.where(nodes > i, np.take_along_axis(v, i, axis=1), v)


def _gap_norms(gap: np.ndarray) -> np.ndarray:
    """Euclidean norms of path gaps over their last (component) axis.  At
    d = 1 the norm is |gap|: np.linalg.norm's bits wherever gap**2 is a
    normal float, and no overflow past 1e154 (as model.state_norms)."""
    return np.abs(gap[..., 0]) if gap.shape[-1] == 1 else np.linalg.norm(gap, axis=-1)


def dist_dinfty(k1, om1: Path, k2, om2: Path):
    """One-sided distance (t_k2 − t_k1) + sup-norm of the gap between the
    paths stopped at nodes k1 and k2.

    One pair, with int indices and single paths, gives a float.  A stack
    of n pairs, with length-n int arrays and path stacks of n rows, gives
    n distances, each the one its pair alone would give.  Defined for
    0 <= k1 <= k2 <= n_steps only, in every row; both sides must share
    grid, dimension and row count.
    """
    ka, kb = np.broadcast_arrays(np.asarray(k1), np.asarray(k2))
    if ka.dtype.kind not in "iu" or kb.dtype.kind not in "iu":
        raise TypeError(f"node indices must be integers, got {ka.dtype} and {kb.dtype}")
    late = np.flatnonzero(ka > kb)
    if late.size:
        r = late[0]
        row = f" in row {r}" if ka.ndim else ""
        raise GridError(
            f"one-sided distance needs k1 <= k2, got {ka.flat[r]} > {kb.flat[r]}{row}"
        )
    if om1.grid != om2.grid or om1.values.shape != om2.values.shape:
        raise GridError("paths must share grid, dim and row count")
    n = om1.grid.n_steps
    # with k1 <= k2 in every row, these two bound every index
    if np.any(ka < 0) or np.any(kb > n):
        raise GridError(f"node indices must lie in [0, {n}]")
    times = om1.grid.times()
    gap = _stopped_values(om1, ka) - _stopped_values(om2, kb)
    out = (times[kb] - times[ka]) + np.max(_gap_norms(gap), axis=1)
    return float(out[0]) if om1.values.ndim == 2 else out


@dataclass(frozen=True)
class ModulusSpec:
    """Modulus-of-continuity template.

    kind:
        "linear"       rho(x) = kappa * x
        "power"        rho(x) = kappa * x**exponent
        "affine-power" rho(x) = kappa * (1 + x**exponent), the growth
                       envelope form (does not vanish at zero).
    """

    kind: str
    kappa: float
    exponent: float = 1.0

    _KINDS = ("linear", "power", "affine-power")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.exponent < 1.0:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")

    def __call__(self, delta):
        d = np.asarray(delta, dtype=np.float64)
        if np.any(d < 0):
            raise ValueError("modulus argument must be >= 0")
        if self.kind == "linear":
            out = self.kappa * d
        elif self.kind == "power":
            out = self.kappa * d**self.exponent
        else:
            out = self.kappa * (1.0 + d**self.exponent)
        return float(out) if np.isscalar(delta) else out
