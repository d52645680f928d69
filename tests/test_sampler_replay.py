"""Old-vs-new parity of the default samplers.

The referees below are the per-draw samplers the block readers replaced,
copied verbatim apart from their docstrings: one set of Generator calls
per draw.  The samplers now decode each chunk from one block of raw
PCG64 words, and must give byte-identical arrays and leave the generator
in the same state after every chunk, from a fresh start and from a
buffered 32-bit half, on grids short and long and on ranges that draw
nothing.  A chunk with a rejected 32-bit draw is not decoded but drawn
by numpy's own per-draw calls, and is checked the same way.
"""

import math

import numpy as np
import pytest

from robuststop import Path, TimeGrid
from robuststop import verify
from robuststop.verify import _PCG64Words, pair_sampler, prefix_sampler


def referee_pair_sampler(grid, dim: int = 1, spread: float = 1.0):
    """pair_sampler as it was: the generator calls of each draw in turn."""
    n = grid.n_steps
    step = spread * math.sqrt(grid.dt) if n > 0 else 0.0
    full = (-step, step)
    small = (-step * 0.05, step * 0.05)

    def draw(rng, m):
        uniform, random, integers = rng.uniform, rng.random, rng.integers
        inc, fresh, k1, k2 = [], [], [], []
        for _ in range(m):
            inc.append(uniform(*full, size=(n, dim)))
            fresh.append(random() < 0.5)
            inc.append(uniform(*(full if fresh[-1] else small), size=(n, dim)))
            k1.append(int(integers(0, n + 1)))
            k2.append(int(integers(k1[-1], n + 1)))
        walks = np.zeros((m, 2, n + 1, dim))
        np.cumsum(np.reshape(inc, (m, 2, n, dim)), axis=2, out=walks[:, :, 1:])
        first, second = walks[:, 0], walks[:, 1]
        second = np.where(np.array(fresh)[:, None, None], second, first + second)
        return np.array(k1), Path(grid, first), np.array(k2), Path(grid, second)

    return draw


def referee_prefix_sampler(grid, controls, *, spread: float = 1.0):
    """prefix_sampler as it was: the generator calls of each draw in turn."""
    step = spread * math.sqrt(grid.dt) if grid.n_steps > 0 else spread
    K = max(grid.n_steps, 1)
    menu = np.array([np.atleast_2d(np.asarray(u, dtype=np.float64)) for u in controls])
    dim = menu.shape[-1]
    norms = np.array([np.linalg.norm(u, 2) for u in menu])

    def draw(rng, m):
        uniform, integers = rng.uniform, rng.integers
        ks, inc, offset, pick = [], [], [], []
        for _ in range(m):
            ks.append(int(integers(0, K)))
            for _ in range(2):
                inc.append(uniform(-step, step, size=(ks[-1] + 1, dim)))
                offset.append(uniform(-spread, spread, dim))
            pick.append(int(integers(0, len(menu))))
        k = np.array(ks)
        # the increments of each walk, zero past its prefix
        padded = np.zeros((m, 2, K, dim))
        within = np.broadcast_to(np.arange(K) <= k[:, None, None], (m, 2, K))
        padded[within] = np.concatenate(inc)
        offset = np.reshape(offset, (m, 2, 1, dim))
        walks = np.cumsum(padded, axis=2) - padded[:, :, :1] + offset
        return k, walks[:, 0], walks[:, 1], menu[pick], norms[pick]

    return draw


def _grid(n_steps):
    return TimeGrid(0.0, 1.0 if n_steps else 0.0, n_steps)


def _menu(d, n_controls):
    return [s * np.eye(d) + 0.1 * (1 - np.eye(d)) for s in (1.0, 0.5, 0.8)[:n_controls]]


def _raw(part):
    part = part.values if isinstance(part, Path) else part
    return part.dtype, part.shape, part.tobytes()


CHUNKS = (1, 3, 512, 3)


def _assert_same_draws(old, new, seed, chunks=CHUNKS):
    # from a fresh start, and from a buffered half (the high half of the
    # word integers(0, 5) drew), which the first draw may take
    for buffered in (False, True):
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            assert ra.integers(0, 5) == rb.integers(0, 5)
            assert rb.bit_generator.state["has_uint32"] == 1
        for m in chunks:
            a, b = old(ra, m), new(rb, m)
            assert [_raw(p) for p in a] == [_raw(p) for p in b]
            assert ra.bit_generator.state == rb.bit_generator.state
        assert ra.random() == rb.random()
        assert ra.integers(0, 7) == rb.integers(0, 7)


@pytest.mark.parametrize("buffered", [False, True])
def test_halves_are_the_32_bit_draws_in_chain_order(buffered):
    # from the chain state a reader starts at, its halves are the 32-bit
    # draws of a copy of the generator (over the full range numpy returns
    # next_uint32 as it is), the buffered half first if there is one, and
    # one 0 follows the block
    rng = np.random.default_rng(41)
    if buffered:
        rng.integers(0, 5)
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    half, state = _PCG64Words(rng, 9).halves()
    assert state == (0 if buffered else 1)
    assert half.dtype == np.int64 and len(half) == 2 * 9 + 2
    want = twin.integers(0, 2**32, size=2 * 9 + 1 - state, dtype=np.uint32)
    assert half[state:-1].tolist() == want.tolist()
    assert half[-1] == 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [0, 1, 4, 7])
def test_pair_sampler_matches_per_draw_calls(n_steps, d):
    grid = _grid(n_steps)
    _assert_same_draws(referee_pair_sampler(grid, d), pair_sampler(grid, d), 11 + n_steps)


@pytest.mark.parametrize("n_controls", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [0, 1, 4, 7])
def test_prefix_sampler_matches_per_draw_calls(n_steps, d, n_controls):
    # a one-control menu draws no integer for the pick, and a zero- or
    # one-step grid none for k
    grid, menu = _grid(n_steps), _menu(d, n_controls)
    _assert_same_draws(
        referee_prefix_sampler(grid, menu, spread=0.7), prefix_sampler(grid, menu, spread=0.7),
        29 + d,
    )


def _pairs(n_steps, d, n_controls=2):
    grid, menu = _grid(n_steps), _menu(d, n_controls)
    return [
        (referee_pair_sampler(grid, d), pair_sampler(grid, d)),
        (referee_prefix_sampler(grid, menu, spread=0.7), prefix_sampler(grid, menu, spread=0.7)),
    ]


def _count_per_draw_calls(monkeypatch):
    """The chunks drawn by numpy's per-draw calls, one entry each, in a
    list that grows as they run."""
    rewind, replays = _PCG64Words.rewind, []

    def counted(self):
        replays.append(len(self._block))
        return rewind(self)

    monkeypatch.setattr(_PCG64Words, "rewind", counted)
    return replays


@pytest.mark.parametrize("which", [0, 1], ids=["pair", "prefix"])
def test_the_decoder_takes_the_default_grid(monkeypatch, which):
    # the verify-sampled shape: 4 steps, d = 1, two controls, full chunks
    replays = _count_per_draw_calls(monkeypatch)
    old, new = _pairs(4, 1)[which]
    _assert_same_draws(old, new, 5, chunks=(2048, 1808, 1))
    assert replays == []


@pytest.mark.parametrize("which", [0, 1], ids=["pair", "prefix"])
@pytest.mark.parametrize("n_steps, d", [(4, 1), (7, 3)])
@pytest.mark.parametrize("draw", ["first", "second"])
def test_a_rejected_draw_replays_the_chunk(monkeypatch, draw, n_steps, d, which):
    # one visited 32-bit draw of the second chunk reports a rejection, in
    # its first integer (k1 or k) or its second (k2 or the control), so
    # that chunk goes through the per-draw calls from the chunk's start
    lemire, calls = verify._lemire, []

    def reject_one(halves, excl):
        value, rejected = lemire(halves, excl)
        calls.append(len(halves))
        if len(calls) == (3 if draw == "first" else 4):
            rejected = rejected.copy()
            rejected[len(halves) // 2] = True
        return value, rejected

    monkeypatch.setattr(verify, "_lemire", reject_one)
    replays = _count_per_draw_calls(monkeypatch)
    old, new = _pairs(n_steps, d)[which]
    _assert_same_draws(old, new, 17, chunks=(64, 512, 3))
    # only the second chunk of the first (unbuffered) pass
    assert replays == [512 * new.words]


@pytest.mark.parametrize(
    "which, n_controls", [(0, 2), (1, 1), (1, 3)], ids=["pair", "prefix-1", "prefix-3"]
)
@pytest.mark.parametrize("n_steps, d", [(40, 1), (40, 3), (100, 1), (100, 3)])
def test_the_decoder_takes_long_draws(monkeypatch, n_steps, d, which, n_controls):
    # 40 steps at d = 1: a pair draw reads 82 words and a prefix draw 83;
    # 100 steps at d = 3, 602 and 607.  The prefix step tables of all
    # four grids pass uint8
    replays = _count_per_draw_calls(monkeypatch)
    old, new = _pairs(n_steps, d, n_controls)[which]
    _assert_same_draws(old, new, 23, chunks=(1, 300))
    assert replays == []


@pytest.mark.parametrize("make", [pair_sampler, prefix_sampler])
def test_samplers_refuse_other_bit_generators(make):
    grid = _grid(2)
    sampler = make(grid) if make is pair_sampler else make(grid, [1.0])
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TypeError, match="MT19937"):
        sampler(rng, 3)
    # and draws nothing first
    assert rng.random() == np.random.Generator(np.random.MT19937(1)).random()
