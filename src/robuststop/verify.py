"""Runnable checks behind the property-test suite.

Every claim the solver leans on has one callable check here: reward and
drift regularity, envelope structure, the supermartingale and martingale
laws of the worst-case envelope, both dynamic-programming identities, the
optimality of the hitting time tau* from every node, continuity in the
stored pre-history, and the Monte Carlo moment scaling.  Each check
returns a CheckReport carrying the worst violation it saw, so a failure
localizes itself.

The supermartingale and martingale laws and both dynamic-programming
identities range over every stopping set or truncated strategy without
enumerating them: child subtrees are independent and the fold is
monotone, so each max or min over them is one envelope.backward_sweep,
bit for bit the game module's enumeration tables, in linear time.  The
value of stopping at tau* is one such sweep too, the game module's
value_at_tau_star at every node instead of the root only.

Checks are deterministic given their seeds, and each one can genuinely
fail.  CHECKS, the suite by name, reads each check's config keys and
runs it plain or on the broken input of its mutation, for the verify
command and for any caller in-process.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .envelope import (
    STOP_GUARD,
    EnvelopeSolution,
    _stop_slack,
    backward_sweep,
    robust_envelope,
    stop_mask,
)
from .errors import ConfigError, SizeError
from .model import (
    DriftSpec,
    drift_eval,
    expand_tree,
    simulate_paths,  # noqa: F401 (perfbench/tracer.py wraps this name)
    simulate_sup_distances,
    state_norms,
)
from .pathspace import ModulusSpec, Path, TimeGrid, _gap_norms, dist_dinfty
from .reward import RewardFunctional, custom_reward, eval_reward

__all__ = [
    "CheckReport",
    "pair_sampler",
    "prefix_sampler",
    "check_y1",
    "check_drift",
    "check_envelope_basic",
    "check_supermartingale",
    "check_martingale_to_tau",
    "check_dpp",
    "check_dpp_random_horizon",
    "check_tau_monotone",
    "check_continuity_in_prehistory",
    "check_sde_moments",
    "corrupt_envelope",
    "Check",
    "CHECKS",
]

@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check.

    worst is the largest violation encountered (signed: anything at or
    below tolerance passes, and a NaN worst fails); n_checked counts the
    work the worst was taken over, such as samples or tree nodes (each
    check says which).  details holds check-specific diagnostics, all
    JSON-friendly scalars and lists.
    """

    name: str
    worst: float
    tolerance: float
    n_checked: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst": float(self.worst),
            "tolerance": float(self.tolerance),
            "n_checked": int(self.n_checked),
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# sampled regularity checks

# Samplers draw this many samples per call, and the checks evaluate them
# with one stacked call per time index: a call per draw costs more than a
# stacked one, and stacking every draw at once holds all their prefixes
# in memory.  A sampler decodes each chunk, on a grid of any length,
# from one block of raw PCG64 words (see _PCG64Words), about 160 KB at
# this size on a 4-step grid.
# On the 4-step d = 1 config of the verify-sampled benchmark, the plain
# and mutated check_y1 on 10,000 samples took 16.3 ms at 512, 11.4 ms at
# 2048 and 11.2 ms at 10,000, and check_drift 15.0, 11.4 and 9.9 ms
# (medians of 16, one pinned CPU of a 2-CPU AMD EPYC VM): past a few
# thousand draws the fixed cost per chunk is paid off, and larger chunks
# gain little for the memory they hold.
SAMPLE_CHUNK = 2048

# A chunk's block holds at most CHUNK_WORDS raw words (8 MiB), so on a
# long grid a chunk holds fewer than SAMPLE_CHUNK draws, and the default
# samplers refuse a grid on which one draw alone would take more.  The
# decoder's array of the block's 32-bit halves (16 bytes a word) and the
# walks and rewards of a chunk take a few times the block: on one draw of
# 10^6 words (500,000 steps), check_y1 peaked at 85 MB of RSS and
# check_drift at 101 MB, 55 and 71 MB over the process's start.  Draws
# of up to 512 words (n_steps x d up to 255) keep chunks of SAMPLE_CHUNK.
CHUNK_WORDS = 1 << 20

# Bounds on the sampled checks' work, so that no config runs for hours or
# asks numpy for terabytes: draws of check_y1 and check_drift and the raw
# words they read in all, pairs of check_continuity_in_prehistory (two
# tree solves each), and Euler steps of check_sde_moments (paths x steps
# x len(MOMENT_DELTAS)).  Each is checked before the first draw or
# allocation.  The CLI's defaults, 10,000 draws (100,000 words on a
# 4-step grid), 12 pairs and 8e6 Euler steps, sit far below them.
SAMPLE_CAP = 10**7
SAMPLE_WORD_CAP = 10**9
PAIR_CAP = 10**5
EULER_STEP_CAP = 10**8

# The checks' tolerances, set here and not by their callers: the sweep
# checks form the solver's sums again, so they meet it up to rounding,
# and the sampled checks allow SAMPLE_TOL, or for y1 and drift 16 ulps
# of the largest finite value compared where that is more.
SWEEP_TOL = 1e-9
SAMPLE_TOL = 1e-12


def _bound_work(count: int, cap: int, what: str, key: str) -> None:
    if count > cap:
        raise SizeError.over_cap(count, what, cap, key, advice=f"lower {key}")


def _chunk_size(n: int, sampler) -> int:
    """Draws per chunk of a sampled check on n draws from sampler, after
    bounding its draws and its raw words: SAMPLE_CHUNK, or as many as
    fit CHUNK_WORDS at sampler.words a draw (1 word for a sampler that
    does not say)."""
    _bound_work(n, SAMPLE_CAP, "samples", "verify.n_samples")
    words = getattr(sampler, "words", 1)
    _bound_work(
        n * words, SAMPLE_WORD_CAP, "random words", "verify.n_samples or grid.n_steps"
    )
    return max(1, min(SAMPLE_CHUNK, CHUNK_WORDS // words))


def _bound_draw(words: int) -> int:
    """words, the raw words of one sampler draw, if they fit a chunk."""
    _bound_work(words, CHUNK_WORDS, "random words per draw", "grid.n_steps")
    return words


def bound_moment_steps(n_steps: int, n_paths: int) -> None:
    """SizeError if check_sde_moments with n_steps and n_paths would take
    more than EULER_STEP_CAP Euler steps."""
    _bound_work(
        len(MOMENT_DELTAS) * n_paths * n_steps, EULER_STEP_CAP, "Euler steps",
        "verify.moments_paths or verify.moments_steps",
    )


def _max_or_nan(worst: float, values) -> float:
    """Python's max over worst and then values, in that order, so that
    ties between 0.0 and -0.0 resolve as a per-draw max would; NaN when
    a value is NaN, which max would skip unless it came first."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        return math.nan
    return max([worst] + values.tolist())


def _sampled_tolerance(tol: float, *values) -> float:
    """The larger of tol and 16 ulps of each array's largest finite |x|,
    since rounding grows with the values compared.  A max cannot
    overflow as a sum could, and an x past the float range adds nothing,
    so a check it breaks still fails."""
    ulps = 16 * np.finfo(np.float64).eps
    return max([tol] + [ulps * float(np.max(np.abs(v), initial=0.0, where=np.isfinite(v)))
                        for v in values])


def _per_index(fn, ks) -> np.ndarray:
    """fn(k, ids) once per distinct time index k, in the order k is
    first drawn, on the ids of the draws at k, with the results put back
    in draw order.  max() over them is then the same as over per-draw
    values."""
    out = None
    for k in dict.fromkeys(ks.tolist()):
        ids = np.flatnonzero(ks == k)
        vals = fn(k, ids)
        if out is None:
            out = np.empty((len(ks),) + vals.shape[1:])
        out[ids] = vals
    return out


class _PCG64Words:
    """Generator.random, uniform and integers draws, decoded from raw
    words of the Generator's PCG64 bit generator.

    As numpy implements them, a double is (word >> 11) * 2**-53 of the
    next 64-bit word and uniform(lo, hi) is lo + (hi - lo) times one.
    integers(a, b) draws nothing when b - 1 == a, and is otherwise
    Lemire's bounded method, rejection loop included, on 32-bit draws.
    Those come from PCG64's half-word buffer: a fresh word gives its low
    half and keeps its high half for the next 32-bit draw, across calls;
    doubles leave the buffer alone.

    The reader takes one random_raw block of n_words.  A sampler decodes
    a whole chunk from halves(), one array of the block's 32-bit halves
    that the reader keeps, moves the reader past it with seek(), and
    close() leaves the generator exactly where the per-draw calls would
    have left it and gives the doubles of the block's words, indexed
    like the words.  A chunk in which a 32-bit draw is rejected is not
    decoded: rewind() puts the generator back where the chunk started,
    and the sampler makes numpy's own per-draw calls.  Any other bit
    generator raises TypeError: its draws follow other rules.
    """

    def __init__(self, rng, n_words: int):
        bg = rng.bit_generator
        if not isinstance(bg, np.random.PCG64):
            raise TypeError(
                f"the samplers replay PCG64 draws, got a Generator on {type(bg).__name__}"
            )
        self._bg, self._start = bg, bg.state
        self._has, self._half = self._start["has_uint32"], self._start["uinteger"]
        self._block = bg.random_raw(n_words)
        self._pos = 0

    def halves(self):
        """(half, state): the 32-bit halves of the block as int64, indexed
        by chain state, and the chain state the block starts at.

        A chain state s indexes the halves in the order next_uint32 takes
        them: half[0] is the generator's uinteger, and word i's low and
        high halves are half[2i + 1] and half[2i + 2].  One 0 follows,
        past the block.  A decoder's state is the half the next 32-bit
        draw takes: even for a buffered high half, odd for the low half of
        a fresh word.  A double moves an odd state on by 2, a 32-bit draw
        moves any state on by 1, and a buffered half drawn after doubles
        leaves the odd state of the word they end at."""
        half = np.zeros(2 * len(self._block) + 2, dtype=np.int64)
        half[0] = self._half
        # a little-endian word is its low half, then its high half
        half[1:-1] = np.asarray(self._block, dtype="<u8").view("<u4")
        self._halves = half
        return half, 1 - self._has

    def seek(self, pos: int, state: int, last) -> None:
        """Move past a decoded chunk: pos words read, state the chain state
        after it, and last the state of its last 32-bit half, None if it
        drew none, which keeps the buffer.  uinteger keeps the high half
        of the last fresh word, buffered or not.  The reader lets go of
        its halves, which a draw of 500,000 steps would otherwise hold
        while the chunk is assembled."""
        self._pos = pos
        if last is not None:
            self._has = 1 - (state & 1)
            self._half = int(self._halves[last + (last & 1)])
        self._halves = None

    def close(self) -> np.ndarray:
        bg = self._bg
        bg.state = self._start
        bg.advance(self._pos)
        state = bg.state
        state["has_uint32"], state["uinteger"] = self._has, self._half
        bg.state = state
        return (self._block >> 11) * 2.0**-53

    def rewind(self) -> None:
        """Put the generator back where the chunk started."""
        self._bg.state = self._start


def _walk(steps: np.ndarray, base: int, state: int, m: int):
    """The chain states m draws start from, as an array, and the state
    after them, where a draw from state s moves to s + base + steps[s].

    steps is an unsigned integer table, read through a memoryview:
    indexing it gives Python ints, with no list of the table, so the
    walk is m lookups and adds."""
    steps = memoryview(steps)
    starts = [0] * m
    for i in range(m):
        starts[i] = state
        state += base + steps[state]
    return np.array(starts), state


def _lemire(halves: np.ndarray, excl):
    """integers(0, excl) from each 32-bit half by Lemire's product, and
    whether numpy rejects that half.  halves and excl are int64 or
    Python ints, with excl below 2**31, so the product is exact in int64
    (a uint64 mixed with an int64 would become float64 and lose bits)."""
    prod = halves * excl
    return prod >> 32, prod % (1 << 32) < (1 << 32) % excl


def pair_sampler(grid, dim: int = 1, spread: float = 1.0):
    """Default sampler of ordered time-path pairs for check_y1.

    sampler(rng, m) -> (k1, om1, k2, om2) draws m pairs: index arrays
    k1 <= k2 of length m, and two Path stacks on grid, each of shape
    (m, n_steps + 1, dim).  Each pair is two zero-anchored walks with
    uniform increments of magnitude at most spread * sqrt(dt); half the
    time the second walk is a small perturbation of the first, so tiny
    distances are exercised.  With the default spread the paths stay
    well inside the catalog's declared sampling range.

    The draws are bit for bit those of one draw at a time with
    rng.uniform (first walk), rng.random (fresh or perturbed),
    rng.uniform (second walk) and rng.integers (k1, then k2), and rng
    ends in the same state.  A chunk reads them from one block of raw
    words, so rng must run on PCG64 (TypeError otherwise).  It decodes
    the block with no loop per draw but _walk's: a draw's length moves
    only with whether k1 == n, which one comparison of k1's 32-bit half
    tells; the walks of all m draws are then gathered and summed in one
    stacked cumsum.  A chunk with a rejected 32-bit draw (a chance below
    (n_steps + 1) / 2**32 per integer) is drawn instead by numpy's own
    per-draw calls from the chunk's start: rng.random(2 * n_steps * dim
    + 1), then rng.integers for k1 and k2.  sampler.words is the raw
    words a draw reads, 2 * n_steps * dim + 2; a grid on which that
    passes CHUNK_WORDS is refused (SizeError).
    """
    n = grid.n_steps
    per_draw = _bound_draw(2 * n * dim + 2)
    step = spread * math.sqrt(grid.dt) if n > 0 else 0.0
    full = (-step, step)
    small = (-step * 0.05, step * 0.05)
    # the (low, high) ends of each walk's increments, by [fresh][walk]
    ends = np.array([[full, small], [full, full]])
    lo, span = ends[..., :1], ends[..., 1:] - ends[..., :1]
    # per draw: the first walk, the fresh double, the second walk
    walk = np.array([[0], [n * dim + 1]]) + np.arange(n * dim)

    n_doubles = 2 * n * dim + 1
    # a draw steps the chain by 2 per double and 1 per 32-bit draw; k1
    # is n exactly when its half is at least top, and k2 then draws none
    steps_k1_n = 2 * n_doubles + (n > 0)
    top = -(-(n << 32) // (n + 1))

    def decode(words, m):
        """(at, k1, k2) as the per-draw calls give them, with words moved
        past the chunk, or None if one of its 32-bit draws is rejected."""
        half, state = words.halves()
        # the states a draw can start from are those of the first P words;
        # k1 takes the buffered half at an even one, and the low half past
        # the doubles at an odd one
        P = (m - 1) * per_draw + 1
        k1_below_n = np.empty(2 * P, dtype=np.uint8)
        np.less(half[0 : 2 * P : 2], top, out=k1_below_n[0::2].view(bool))
        past = 2 * n_doubles + 1
        np.less(half[past : past + 2 * P : 2], top, out=k1_below_n[1::2].view(bool))
        s, end = _walk(k1_below_n, steps_k1_n, state, m)
        i1 = s + 2 * n_doubles * (s % 2)
        i2 = s + 2 * n_doubles + 1
        k1, bad1 = _lemire(half[i1], n + 1)
        dk, bad2 = _lemire(half[i2], n + 1 - k1)
        if bad1.any() or bad2.any():
            return None
        last = int(i2[-1] if k1[-1] < n else i1[-1]) if n else None
        words.seek(end >> 1, end, last)
        return s >> 1, k1.astype(np.int_), (k1 + dk).astype(np.int_)

    def draw(rng, m):
        words = _PCG64Words(rng, m * per_draw)
        decoded = decode(words, m) if m else None
        if decoded is None:
            words.rewind()
            u = np.empty((m, n_doubles))
            k1, k2 = np.empty(m, dtype=np.int_), np.empty(m, dtype=np.int_)
            for i in range(m):
                rng.random(out=u[i])
                k1[i] = rng.integers(0, n + 1)
                k2[i] = rng.integers(k1[i], n + 1)
            at, u = np.arange(m) * n_doubles, u.ravel()
        else:
            at, k1, k2 = decoded
            u = words.close()
        fresh = u[at + n * dim] < 0.5
        pick = fresh.astype(np.intp)
        inc = lo[pick] + span[pick] * u[at[:, None, None] + walk]
        walks = np.zeros((m, 2, n + 1, dim))
        np.cumsum(np.reshape(inc, (m, 2, n, dim)), axis=2, out=walks[:, :, 1:])
        first, second = walks[:, 0], walks[:, 1]
        second = np.where(fresh[:, None, None], second, first + second)
        return k1, Path(grid, first), k2, Path(grid, second)

    draw.words = per_draw
    return draw


def check_y1(Y: RewardFunctional, sampler, n: int, seed: int = 2026) -> CheckReport:
    """One-sided continuity of the reward in the time-path pair.

    On n sampled ordered pairs (k1, om1) <= (k2, om2), the earlier value
    may exceed the later one by at most the declared modulus of the
    one-sided distance.  sampler(rng, m) -> (k1, om1, k2, om2) draws m
    pairs: index arrays with k1 <= k2 and two Path stacks of m rows on
    one grid.  Per chunk of draws (_chunk_size) the rewards take one
    stacked call per time index, the distances one dist_dinfty call on
    the stacks and the modulus one call on the distances.  The tolerance
    is SAMPLE_TOL, or 16 ulps of the largest finite |reward| drawn.
    """

    def reward(ks, om):
        return _per_index(lambda k, ids: eval_reward(Y, k, om.values[ids, : k + 1]), ks)

    chunk = _chunk_size(n, sampler)
    rng = np.random.default_rng(seed)
    worst, tol = -np.inf, SAMPLE_TOL
    for start in range(0, n, chunk):
        k1, om1, k2, om2 = sampler(rng, min(chunk, n - start))
        early, late = reward(k1, om1), reward(k2, om2)
        tol = _sampled_tolerance(tol, early, late)
        rhs = Y.modulus(dist_dinfty(k1, om1, k2, om2))
        worst = _max_or_nan(worst, early - late - rhs)
    return CheckReport(
        name="y1",
        worst=float(worst),
        tolerance=tol,
        n_checked=n,
        details={"modulus_kind": Y.modulus.kind, "kappa": Y.modulus.kappa},
    )


def prefix_sampler(grid, controls, *, spread: float = 1.0):
    """Default sampler of (k, prefix, prefix', u) draws for check_drift.

    sampler(rng, m) -> (k, p1, p2, u, u_norm) draws m samples: an index
    array k of length m, two prefix stacks of shape (m, K, dim) whose
    row i holds its prefix in its first k[i] + 1 entries (K is the
    longest prefix the grid allows, and dim the menu's d), the controls
    u of shape (m, d, d) and their operator norms.  Prefixes are
    independent bounded random walks; the control is drawn uniformly
    from the menu, and each menu control's norm is taken once.

    The draws are bit for bit those of one draw at a time with
    rng.integers (k), then per walk rng.uniform (increments) and
    rng.uniform (start), then rng.integers (the control), and rng ends
    in the same state.  A chunk reads them from one block of raw words,
    so rng must run on PCG64 (TypeError otherwise).  It decodes the
    block with no loop per draw but _walk's: a draw's length moves with
    k, which Lemire's product on every candidate 32-bit half gives; the
    walks of all m draws are then gathered and summed in one stacked
    cumsum over zero-padded increments.  A chunk with a rejected 32-bit
    draw (a chance below max(K, len(controls)) / 2**32 per integer) is
    drawn instead by numpy's own per-draw calls from the chunk's start:
    rng.integers (k), rng.random(2 * (k + 2) * dim), then rng.integers
    (the control).  sampler.words is the most raw words a draw reads, 2
    * (K + 1) * dim + 1; a grid on which that passes CHUNK_WORDS is
    refused (SizeError).
    """
    step = spread * math.sqrt(grid.dt) if grid.n_steps > 0 else spread
    menu = np.array([np.atleast_2d(np.asarray(u, dtype=np.float64)) for u in controls])
    K, dim = max(grid.n_steps, 1), menu.shape[-1]
    per_draw = _bound_draw(2 * (K + 1) * dim + 1)
    norms = np.array([np.linalg.norm(u, 2) for u in menu])
    rows = np.arange(K)[:, None] * dim + np.arange(dim)

    # whether k and the control take a 32-bit half
    a, c = int(K > 1), int(len(menu) > 1)

    def decode(words, m):
        """(k, at, pick) as the per-draw calls give them, with words moved
        past the chunk, or None if one of its 32-bit draws is rejected."""
        half, state = words.halves()
        # k takes the half at its state, and a draw from there steps by 2
        # per double, 4 * (k + 2) * dim in all, and by 1 per 32-bit draw;
        # a step spans at most two draws' doubles, 8 * dim * (K + 1)
        P = (m - 1) * per_draw + 1
        steps = half[: 2 * P] * K
        steps >>= 32
        steps += 2
        steps *= 4 * dim
        steps = steps.astype(np.min_scalar_type(8 * dim * (K + 1)))
        base = a + c
        if a and not c:
            # a fresh draw leaves its high half to the next draw, past its
            # own doubles: it steps to that half, and the draw from there
            # steps past both draws' doubles
            steps[2::2] += steps[1:-1:2]
            steps[1::2] = 0
            base = 1
        s, end = _walk(steps, base, state, m)
        k, bad_k = _lemire(half[s], K)
        # the control's half: the high half k left, or the low half past
        # the doubles
        after_k = s + a
        at_pick = after_k + (k + 2) * (4 * dim) * (after_k % 2)
        pick, bad_c = _lemire(half[at_pick], len(menu))
        if bad_k.any() or bad_c.any():
            return None
        at = (s >> 1) + a * (s % 2)
        if a and not c:
            # a buffered draw starts past the doubles of the draw before
            gap = ((half[s - 1] * K >> 32) + 2) * (2 * dim)
            at += np.where(s % 2 + (s == 0), 0, gap)
        at = np.stack([at, at + (k + 2) * dim], axis=1)
        # the last draw ends past its doubles, and past the control's
        # word if that is fresh
        words.seek(
            int(at[-1, 1] + (k[-1] + 2) * dim + c * (after_k[-1] % 2)), end,
            int(at_pick[-1]) if c else int(s[-1]) if a else None,
        )
        return k.astype(np.int_), at, pick

    def draw(rng, m):
        words = _PCG64Words(rng, m * per_draw)
        decoded = decode(words, m) if m else None
        if decoded is None:
            words.rewind()
            u = np.empty(m * per_draw)
            k, pick = np.empty(m, dtype=np.int_), np.empty(m, dtype=np.intp)
            at = np.empty((m, 2), dtype=np.intp)
            end = 0
            for i in range(m):
                k[i] = rng.integers(0, K)
                # each walk: k + 1 increments, then its start
                walk = (k[i] + 2) * dim
                at[i] = end, end + walk
                end += 2 * walk
                rng.random(out=u[at[i, 0] : end])
                pick[i] = rng.integers(0, len(menu))
        else:
            k, at, pick = decoded
            u = words.close()
        at = np.reshape(at, (m, 2, 1, 1))
        # the increments of each walk, zero past its prefix
        padded = np.zeros((m, 2, K, dim))
        within = np.broadcast_to(np.arange(K) <= k[:, None, None], (m, 2, K))
        padded[within] = -step + (step - -step) * u[(at + rows)[within]]
        start = at + (k[:, None, None, None] + 1) * dim + np.arange(dim)
        offset = -spread + (spread - -spread) * u[start]
        walks = np.cumsum(padded, axis=2) - padded[:, :, :1] + offset
        return k, walks[:, 0], walks[:, 1], menu[pick], norms[pick]

    draw.words = per_draw
    return draw


def check_drift(spec: DriftSpec, sampler, n: int, seed: int = 2026) -> CheckReport:
    """Growth and Lipschitz bounds of the drift, sampled.

    At the zero prefix the drift norm must stay below kappa * (1 + |u|);
    between two prefixes it must move by at most kappa times their sup
    gap, or for running-max by max(kappa, sqrt(d)) times it: each of its
    d components moves by at most the change of its running max, which
    is at most the sup gap, whatever kappa.  sampler(rng, m) -> (k, p1,
    p2, u, u_norm) draws m samples (see prefix_sampler).  Per chunk of draws
    (_chunk_size) each drift and each sup gap takes one stacked call per
    time index.  The tolerance is SAMPLE_TOL, or 16 ulps of the largest
    finite drift component drawn, which at d = 1 is the drift norm.
    """
    chunk = _chunk_size(n, sampler)
    rng = np.random.default_rng(seed)
    worst, tol = -np.inf, SAMPLE_TOL
    for start in range(0, n, chunk):
        ks, p1, p2, u, unorm = sampler(rng, min(chunk, n - start))
        lip_const = spec.kappa
        if spec.kind == "running-max":
            lip_const = max(spec.kappa, math.sqrt(p1.shape[2]))

        def drift(p):
            return _per_index(
                lambda k, ids: drift_eval(spec, k, p[ids, : k + 1], u[ids]), ks
            )

        b0, b1, b2 = drift(np.zeros_like(p1)), drift(p1), drift(p2)
        growth = state_norms(b0) - spec.kappa * (1.0 + unorm)
        tol = _sampled_tolerance(tol, b0, b1, b2)
        gap = _gap_norms(p1 - p2)
        sup = _per_index(lambda k, ids: np.max(gap[ids, : k + 1], axis=1), ks)
        lip = state_norms(b1 - b2) - lip_const * sup
        # scan growth_0, lip_0, growth_1, ...: the order of a per-draw
        # max(worst, growth, lip)
        worst = _max_or_nan(worst, np.column_stack([growth, lip]).ravel())
    return CheckReport(
        name="drift-bounds",
        worst=float(worst),
        tolerance=tol,
        n_checked=2 * n,
        details={"kind": spec.kind, "kappa": spec.kappa},
    )


# ---------------------------------------------------------------------------
# structural envelope checks


def check_envelope_basic(sol: EnvelopeSolution) -> CheckReport:
    """Envelope dominates the reward everywhere and meets it at leaves,
    with no tolerance at all: both facts are assignments in the sweep."""
    tree = sol.tree
    worst = float(np.max(sol.y - sol.z))
    leaves = slice(tree.offsets[-2], tree.offsets[-1])
    leaf_gap = float(np.max(np.abs(sol.z[leaves] - sol.y[leaves])))
    worst = max(worst, leaf_gap)
    return CheckReport(
        name="envelope-basic",
        worst=worst,
        tolerance=0.0,
        n_checked=tree.n_nodes + tree.offsets[-1] - tree.offsets[-2],
        details={"leaf_gap": leaf_gap},
    )


def check_supermartingale(sol: EnvelopeSolution) -> CheckReport:
    """Worst-case means of the stopped envelope never exceed the envelope.

    At every node (n_checked counts them), the largest worst-case mean of
    the envelope frozen at a stopping set of the subtree is compared
    against the node value; that max is the sweep W = max(z, min_u
    E_u[W next]).  Immediate stop realizes equality, so the worst
    violation is >= 0 up to rounding, which SWEEP_TOL allows.
    """
    worst = float(np.max(backward_sweep(sol.tree, sol.z, floor=sol.z)[0] - sol.z))
    return CheckReport("supermartingale", worst, SWEEP_TOL, sol.tree.n_nodes)


def check_martingale_to_tau(sol: EnvelopeSolution) -> CheckReport:
    """The envelope is flat, in the worst-case mean, up to the meeting
    time, and meets the reward there.

    Stopping sets are restricted to act at or before the stop region, so
    every worst-case mean of the frozen envelope must reproduce the node
    value (within SWEEP_TOL), not just stay below it.  The largest
    and smallest of those means are the sweeps W+ = max(z, min_u
    E_u[W+ next]) and W- = min(z, min_u E_u[W- next]), both frozen at the
    stop region, compared at every node (n_checked counts them): the law
    holds from any start.  On the stop region z must meet y: the worst
    takes max(y - z, z - y - slack) there, where the slack is the stop
    test's own, delta + STOP_GUARD * (1 + |y|), so a solution passes at
    any scale and any delta.
    """
    tree, z, y, stop = sol.tree, sol.z, sol.y, sol.stop
    upper = backward_sweep(tree, z, floor=z, stop=stop)[0]
    lower = backward_sweep(tree, z, ceiling=z, stop=stop)[0]
    worst = float(np.max(np.maximum(upper - z, z - lower)))
    gap = z[stop] - y[stop]
    # the flat part is >= +0.0 and wins ties, so a clean report keeps
    # its bits; a NaN in either part shows
    meet = float(np.max(np.maximum(-gap, gap - _stop_slack(y[stop], sol.delta))))
    if math.isnan(meet) or meet > worst:
        worst = meet
    return CheckReport("martingale-to-tau", worst, SWEEP_TOL, tree.n_nodes)


# ---------------------------------------------------------------------------
# dynamic programming identities


def _dpp_check(name, sol, cut, details) -> CheckReport:
    """Root value against the min over truncated strategies of the
    optimally-stopped value that ends in the solver's z at the cut.

    The controller sees everything, so that min is the sweep v = max(y,
    min_u E_u[v next]) with z frozen at the cut; n_checked counts the
    nodes swept, and the two roots meet within SWEEP_TOL.
    """
    tree = sol.tree
    recomputed = float(backward_sweep(tree, sol.z, floor=sol.y, stop=cut)[0][tree.root])
    worst = abs(recomputed - sol.root_value())
    return CheckReport(name, worst, SWEEP_TOL, tree.n_nodes,
                       {**details, "recomputed_root": recomputed})


def check_dpp(sol: EnvelopeSolution, s) -> CheckReport:
    """One-step-at-a-time identity against the truncated game.

    The root value must equal, within SWEEP_TOL, the min over control
    assignments on the horizon before s of the optimally-stopped value
    whose terminal slice is the solver's own slice-s values.  s is a
    grid index (a float raises TypeError).
    """
    s_idx, tree = operator.index(s), sol.tree
    if not tree.k0 <= s_idx <= tree.grid.n_steps:
        raise ValueError(f"cut {s_idx} outside the tree's horizon")
    return _dpp_check("dpp-deterministic", sol, stop_mask(tree, s_idx), {"s": s_idx})


def check_dpp_random_horizon(sol: EnvelopeSolution, nu) -> CheckReport:
    """Same identity within SWEEP_TOL, the horizon cut at a hitting time.

    nu is a grid index, a StoppingRule on the tree, such as the
    stop_rule_map of a solution at some delta, or a per-node bool mask
    whose first hit ends the horizon; leaves end it regardless (see
    stop_mask).
    """
    return _dpp_check("dpp-random-horizon", sol, stop_mask(sol.tree, nu), {})


# ---------------------------------------------------------------------------
# optimality of tau*


def check_tau_monotone(sol: EnvelopeSolution) -> CheckReport:
    """tau* is optimal from every node: the worst-case value of stopping
    at the solution's stop region equals its envelope there.

    That value is the sweep v = min_u E_u[v next], frozen to y on the
    stop region, whose root is the game module's value_at_tau_star
    (reported in details).  The worst is max(z - v - delta, v - z) over
    every node (n_checked counts them), so at delta = 0 it is max |z - v|;
    a stop region relaxed by delta only bounds v below by z - delta.  The
    tolerance, STOP_GUARD * (1 + max |y|), is the most that the guarded
    stop test lets z exceed y + delta at a stop node.  A NaN or infinite
    y gives a NaN worst.  v does not read z, so a shifted z shows at its
    own node.

    The name is kept from the check's first law, that the delta-relaxed
    hitting times tighten monotonically to tau*, because the benchmark's
    tracer wraps the check by it.
    """
    tree, z, y = sol.tree, sol.z, sol.y
    v = backward_sweep(tree, y, stop=sol.stop)[0]
    tolerance = STOP_GUARD * (1.0 + float(np.max(np.abs(y))))
    worst = float(np.max(np.maximum(z - v - sol.delta, v - z)))
    if not math.isfinite(tolerance):
        worst = math.nan
    return CheckReport("tau-optimal", worst, tolerance, tree.n_nodes,
                       {"value_at_tau_star": float(v[tree.root])})


# ---------------------------------------------------------------------------
# continuity in the stored pre-history


def check_continuity_in_prehistory(
    grid,
    drift: DriftSpec,
    controls,
    Y: RewardFunctional,
    split,
    x0=0.0,
    n_pairs: int = 20,
    spread: float = 0.5,
    rho1=None,
    seed: int = 2026,
) -> CheckReport:
    """Root value moves by at most a modulus of the pre-history gap.

    Expands the tree twice from perturbed history prefixes covering grid
    nodes 0..split and compares root values; split is a grid index (a
    float raises TypeError).  With rho1 given, the bound is asserted;
    without it, the first pair is identical (zero gap must give zero
    difference, exactly) and the best linear constant over the rest is
    fitted and reported.  The tolerance is SAMPLE_TOL.
    """
    _bound_work(n_pairs, PAIR_CAP, "pre-history pairs", "verify.prehistory_pairs")
    rng = np.random.default_rng(seed)
    s_idx = operator.index(split)
    if not 0 <= s_idx <= grid.n_steps:
        raise ValueError(f"split {s_idx} outside the grid")
    d = controls.dim
    x0v = np.broadcast_to(np.asarray(x0, dtype=np.float64).reshape(-1), (d,))
    step = spread * math.sqrt(grid.dt) if grid.n_steps else 0.0

    def history(scale, base=None):
        inc = rng.uniform(-step * scale, step * scale, size=(s_idx, d))
        bumps = np.concatenate([np.zeros((1, d)), np.cumsum(inc, axis=0)])
        return (x0v if base is None else base) + bumps

    def root_value(pre):
        tree = expand_tree(grid, x0, drift, controls, init_prefix=pre)
        return robust_envelope(tree, Y).root_value()

    worst = -np.inf
    worst_zero = 0.0
    kappa_fit = 0.0
    n_zero = 0
    for i in range(n_pairs):
        pre1 = history(1.0)
        if i == 0:
            pre2 = pre1
        else:
            pre2 = history(float(2.0 ** -rng.integers(0, 6)), base=pre1)
        dist = float(np.max(_gap_norms(pre1 - pre2)))
        dz = abs(root_value(pre1) - root_value(pre2))
        if rho1 is not None:
            worst = _max_or_nan(worst, [dz - float(rho1(dist))])
        elif dist == 0.0:
            n_zero += 1
            worst_zero = _max_or_nan(worst_zero, [dz])
        else:
            kappa_fit = _max_or_nan(kappa_fit, [dz / dist])
    if rho1 is None:
        worst = worst_zero
    return CheckReport(
        name="prehistory-continuity",
        worst=float(worst),
        tolerance=SAMPLE_TOL,
        n_checked=n_pairs,
        details={
            "split": s_idx,
            "kappa_fit": float(kappa_fit),
            "n_zero_gap_pairs": n_zero,
            "bound_given": rho1 is not None,
        },
    )


# ---------------------------------------------------------------------------
# Monte Carlo moment scaling

# Step sizes of check_sde_moments, the window its fitted log-log slope
# must land in, and its room for sampling noise in the Doob bound.
MOMENT_DELTAS = (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8)
SLOPE_WINDOW = (0.4, 0.6)
DOOB_SLACK = 0.05


def check_sde_moments(
    u=1.0,
    n_steps: int = 16,
    n_paths: int = 100_000,
    seed: int = 20260815,
    drift: DriftSpec | None = None,
    drift_bound: float | None = None,
) -> CheckReport:
    """Scaling of the running supremum of driftless Euler paths.

    For each step size in MOMENT_DELTAS, n_steps Gaussian steps are
    simulated and the mean of sup_k |X_k| (and its square) estimated.
    The fitted log-log slope against the horizon must land in
    SLOPE_WINDOW for the first moment and in twice the window for the
    second; the second moment must also respect four times the terminal
    variance (with DOOB_SLACK of room for sampling noise).  When a drift
    and its sup bound are supplied, drifted paths stepped on the same
    normals must obey the pathwise transfer mean sup |X| <= mean sup |M|
    + bound * horizon.  The worst is the largest excess, and the bounds
    hold their margins, so the tolerance is 0.0.  Only the per-path
    suprema are kept, never the paths.
    """
    if drift is not None and drift_bound is None:
        raise ValueError("transfer check needs the drift's sup bound")
    bound_moment_steps(n_steps, n_paths)
    um = np.atleast_2d(np.asarray(u, dtype=np.float64))
    drifts = [DriftSpec("zero")] + ([] if drift is None else [drift])
    horizons = []
    m1 = []
    m2 = []
    m1_drift = []
    for i, dlt in enumerate(MOMENT_DELTAS):
        grid_i = TimeGrid(0.0, n_steps * dlt, n_steps)
        sups = simulate_sup_distances(grid_i, 0.0, drifts, um, n_paths, seed + i)
        sup = sups[0]
        horizons.append(n_steps * dlt)
        m1.append(float(np.mean(sup)))
        m2.append(float(np.mean(sup**2)))
        if drift is not None:
            m1_drift.append(float(np.mean(sups[1])))

    excesses = []
    details: dict = {"horizons": horizons, "m1": m1, "m2": m2}
    if all(v == 0.0 for v in m1):
        details["degenerate"] = True
    elif any(v <= 0.0 for v in m1):
        excesses.append(np.inf)
    else:
        logt = np.log(horizons)
        slope1 = float(np.polyfit(logt, np.log(m1), 1)[0])
        slope2 = float(np.polyfit(logt, np.log(m2), 1)[0])
        details["slope_p1"] = slope1
        details["slope_p2"] = slope2
        lo, hi = SLOPE_WINDOW
        excesses += [lo - slope1, slope1 - hi, 2 * lo - slope2, slope2 - 2 * hi]
        var_rate = float(np.trace(um @ um.T))
        doob = _max_or_nan(-math.inf, [
            m2_i - 4.0 * var_rate * t_i * (1.0 + DOOB_SLACK)
            for m2_i, t_i in zip(m2, horizons)
        ])
        details["doob_excess"] = doob
        excesses.append(doob)
    if drift is not None:
        transfer = _max_or_nan(-math.inf, [
            md - (m0 + drift_bound * t)
            for md, m0, t in zip(m1_drift, m1, horizons)
        ])
        details["transfer_excess"] = transfer
        details["m1_drift"] = m1_drift
        excesses.append(transfer)

    worst = _max_or_nan(-math.inf, excesses) if excesses else 0.0
    return CheckReport(
        name="moment-scaling",
        worst=worst,
        tolerance=0.0,
        n_checked=len(MOMENT_DELTAS) * n_paths,
        details=details,
    )


# ---------------------------------------------------------------------------
# deliberate breakage for the negative tests


def corrupt_envelope(sol: EnvelopeSolution, node=None, amount: float = -0.1):
    """Copy of a solution with one envelope value shifted.

    Default target is the first interior node still strictly above its
    reward (the root, failing that), where a downward shift contradicts
    both martingale laws.  The copy keeps the original's stop region
    rather than deriving it from the shifted z, so the corruption is
    visible to every consistency check: the value of stopping at tau*,
    for one, does not move with z.  The tau check allows z to exceed that
    value by delta, so verify --mutate shifts its target by -(delta +
    0.1), which is -0.1 bit for bit at delta = 0.
    """
    if node is None:
        going = np.flatnonzero(~sol.stop[: sol.tree.offsets[-2]])
        node = int(going[0]) if len(going) else sol.tree.root
    z = sol.z.copy()
    z[node] += amount
    bad = replace(sol, z=z)
    bad.stop = sol.stop
    return bad


# ---------------------------------------------------------------------------
# the suite: each check with its config keys and its mutation


class Check(NamedTuple):
    """A check of the suite.  run(inst, num, seed, mutate) -> CheckReport
    reads the check's verify keys through num(key, default, integer,
    minimum), which parses them, and runs the check on inst, the parsed
    instance, or with mutate on a broken input it must reject (which may
    move the check's parameters too).  It calls its check, corrupt_envelope
    and the samplers by their module names when it runs, so a wrapper set
    on the module sees every call.  Each check sets its own tolerance, so
    run passes none.  reads_tree: run reads inst.sol, the configured
    tree's solution, and the tree as inst.sol.tree."""

    run: Callable[..., CheckReport]
    reads_tree: bool


def sample_keys(num) -> tuple[int, float]:
    """verify.n_samples and verify.spread, which the sampled checks read
    and every run of the suite checks before its first check."""
    n_samples = num("n_samples", 10_000, integer=True, minimum=1)
    spread = num("spread", 1.0)
    if not spread > 0:
        raise ConfigError(f"verify.spread must be > 0, got {spread}")
    return n_samples, spread


def _run_y1(inst, num, seed, mutate):
    n_samples, spread = sample_keys(num)
    grid, target = inst.grid, inst.Y
    if mutate:
        # payoff that decays with time but claims a zero modulus, so
        # the early value exceeds the later one on every ordered pair
        target = custom_reward(
            lambda k, track: float(-k), ModulusSpec("linear", 0.0), -float(grid.n_steps)
        )
    sampler = pair_sampler(grid, inst.controls.dim, spread)
    return check_y1(target, sampler, n_samples, seed=seed)


def _run_drift(inst, num, seed, mutate):
    n_samples, spread = sample_keys(num)
    spec = inst.drift
    if mutate:
        spec = DriftSpec("mean-reversion", kappa=0.5, rate=1.5, level=0.0)
    sampler = prefix_sampler(inst.grid, inst.controls, spread=spread)
    return check_drift(spec, sampler, n_samples, seed=seed)


def _run_envelope(inst, num, seed, mutate):
    sol = inst.sol
    target = corrupt_envelope(sol, node=sol.tree.offsets[-2]) if mutate else sol
    return check_envelope_basic(target)


def _run_supermartingale(inst, num, seed, mutate):
    tree, target = inst.sol.tree, inst.sol
    if mutate:
        # the root 0.1 below its continuation, the sweep's own fold of z
        # with no floor, up to rounding: waiting one step beats it by 0.1
        root = tree.root
        cont = backward_sweep(tree, target.z, stop=stop_mask(tree, tree.k0 + 1))[0][root]
        target = corrupt_envelope(target, node=root, amount=cont - 0.1 - target.z[root])
    return check_supermartingale(target)


def _run_martingale(inst, num, seed, mutate):
    target = corrupt_envelope(inst.sol) if mutate else inst.sol
    return check_martingale_to_tau(target)


def _run_dpp(inst, num, seed, mutate):
    n = inst.grid.n_steps
    s = num("dpp_s", n, integer=True)
    if not 0 <= s <= n:
        raise ConfigError(f"verify.dpp_s must lie in [0, {n}]")
    target = inst.sol
    if mutate:
        target = corrupt_envelope(inst.sol, node=inst.sol.tree.root)
        s = max(s, 1)
    return check_dpp(target, s)


def _run_dpp_random(inst, num, seed, mutate):
    barrier = num("barrier")
    if mutate or barrier is None:
        nu = inst.grid.n_steps
    else:
        # the nodes whose state's norm is at or past the barrier
        nu = np.concatenate([state_norms(level) >= barrier for level in inst.sol.tree.states])
    target = corrupt_envelope(inst.sol, node=inst.sol.tree.root) if mutate else inst.sol
    return check_dpp_random_horizon(target, nu)


def _run_tau(inst, num, seed, mutate):
    sol = inst.sol
    # the check lets z sit up to delta above the value of stopping at
    # tau*, so the shift reaches past that slack
    target = corrupt_envelope(sol, amount=-(sol.delta + 0.1)) if mutate else sol
    return check_tau_monotone(target)


def _run_prehistory(inst, num, seed, mutate):
    _, spread = sample_keys(num)
    n = inst.grid.n_steps
    split = num("split", min(1, n), integer=True)
    if not 0 <= split <= n:
        raise ConfigError(f"verify.split must lie in [0, {n}]")
    pairs = num("prehistory_pairs", 12, integer=True, minimum=1)
    # with a path-independent drift the reward's own modulus transfers
    # to the root value; otherwise fit and report
    rho1 = inst.Y.modulus if inst.drift.kind in ("zero", "custom-table") else None
    target = inst.Y
    if mutate:
        # payoff that reads the pre-history but claims a zero modulus,
        # so the root value moves on every pair with a gap, whatever
        # the configured reward; a gap needs a split past 0 and a pair
        # past the first, identical one
        split, pairs = max(split, 1), max(pairs, 2)
        target = custom_reward(
            lambda k, track: float(np.sum(np.abs(track[: split + 1]))),
            ModulusSpec("linear", 0.0), 0.0,
        )
        rho1 = ModulusSpec("linear", 0.0)
    return check_continuity_in_prehistory(
        inst.grid, inst.drift, inst.controls, target, split,
        x0=inst.x0, n_pairs=pairs, spread=spread, rho1=rho1, seed=seed,
    )


def _run_moments(inst, num, seed, mutate):
    steps = num("moments_steps", 16, integer=True, minimum=1)
    paths = num("moments_paths", 100_000, integer=True, minimum=1)
    # checked before the mutation's drift table of `steps` rows is built
    bound_moment_steps(steps, paths)
    dim = inst.controls.dim
    kwargs = {"u": inst.controls[0], "n_steps": steps, "n_paths": paths, "seed": seed}
    if mutate:
        # constant unit push with an understated declared bound
        kwargs["drift"] = DriftSpec("custom-table", table=[[1.0] * dim] * steps)
        kwargs["drift_bound"] = 1e-6
    return check_sde_moments(**kwargs)


# every check by its suite name, in the order `--suite all` runs them
CHECKS = {
    "y1": Check(_run_y1, reads_tree=False),
    "drift": Check(_run_drift, reads_tree=False),
    "envelope": Check(_run_envelope, reads_tree=True),
    "supermartingale": Check(_run_supermartingale, reads_tree=True),
    "martingale": Check(_run_martingale, reads_tree=True),
    "dpp": Check(_run_dpp, reads_tree=True),
    "dpp-random": Check(_run_dpp_random, reads_tree=True),
    "tau": Check(_run_tau, reads_tree=True),
    "prehistory": Check(_run_prehistory, reads_tree=False),
    "moments": Check(_run_moments, reads_tree=False),
}
