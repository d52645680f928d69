"""Old-vs-new parity of the default samplers, and the raw-word reader
they share.

The referees below are the per-draw samplers the block readers replaced,
copied verbatim apart from their docstrings: one set of Generator calls
per draw.  The samplers now decode each chunk from one block of raw
PCG64 words, and must give byte-identical arrays and leave the generator
in the same state after every chunk, from a fresh start and from a
buffered 32-bit half.  The decoder's fallback, the reader's per-draw
calls, is checked on a chunk with a rejected draw and on draws too long
for the decoder.  The reader is also checked on the paths the samplers
almost never reach: Lemire rejections, ranges that draw nothing, and a
half-word buffer that is full at the start or carried from one chunk to
the next.
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


def referee_prefix_sampler(grid, controls, dim: int = 1, spread: float = 1.0):
    """prefix_sampler as it was: the generator calls of each draw in turn."""
    step = spread * math.sqrt(grid.dt) if grid.n_steps > 0 else spread
    K = max(grid.n_steps, 1)
    menu = np.array([np.atleast_2d(np.asarray(u, dtype=np.float64)) for u in controls])
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
        referee_prefix_sampler(grid, menu, d, 0.7), prefix_sampler(grid, menu, d, 0.7),
        29 + d,
    )


def _pairs(n_steps, d, n_controls=2):
    grid, menu = _grid(n_steps), _menu(d, n_controls)
    return [
        (referee_pair_sampler(grid, d), pair_sampler(grid, d)),
        (referee_prefix_sampler(grid, menu, d, 0.7), prefix_sampler(grid, menu, d, 0.7)),
    ]


def _count_per_draw_calls(monkeypatch):
    """The ranges of the reader's per-draw integer calls, in a list that
    grows as they run."""
    integer, ranges = _PCG64Words.integer, []

    def counted(self, r):
        ranges.append(r)
        return integer(self, r)

    monkeypatch.setattr(_PCG64Words, "integer", counted)
    return ranges


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
    assert len(replays) >= 512


@pytest.mark.parametrize("which", [0, 1], ids=["pair", "prefix"])
def test_draws_past_the_walk_table_take_the_per_draw_calls(monkeypatch, which):
    # 40 steps: a pair draw reads 82 words and a prefix draw 83, more than
    # the decoder's uint8 steps hold
    replays = _count_per_draw_calls(monkeypatch)
    old, new = _pairs(40, 1)[which]
    assert new.words > verify._WALK_WORDS
    _assert_same_draws(old, new, 23, chunks=(1, 300))
    assert replays


# ---------------------------------------------------------------------------
# the reader on its own

# integers ranges b - a: rejection is frequent just above 2**31 (about
# every other draw) and at 2**31 + 2**30 (one in four); 2**32 - 1 is the
# widest, and 1 draws nothing
RANGES = (2**31 + 1, 2**31 + 2**30 + 1, 2**32 - 1, 2**32, 1, 3, 7)


def _ops(seed, n_ops):
    """A seeded mix of ("uniform", lo, hi, size), ("random",) and
    ("integers", a, b) calls."""
    pick = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = pick.integers(0, 3)
        if kind == 0:
            ops.append(("uniform", -0.3, 0.7, int(pick.integers(0, 4))))
        elif kind == 1:
            ops.append(("random",))
        else:
            a = int(pick.integers(-5, 5))
            ops.append(("integers", a, a + RANGES[pick.integers(0, len(RANGES))]))
    return ops


def _plain(rng, ops):
    out = []
    for op in ops:
        if op[0] == "uniform":
            out.extend(rng.uniform(op[1], op[2], size=op[3]).tolist())
        elif op[0] == "random":
            out.append(rng.random())
        else:
            out.append(int(rng.integers(op[1], op[2])))
    return out


def _replayed(rng, ops, n_words):
    """_plain's values, read through one reader: doubles by the index of
    their first word, integers as drawn."""
    words = _PCG64Words(rng, n_words)
    at = []
    for op in ops:
        if op[0] == "integers":
            at.append(op[1] + words.integer(op[2] - 1 - op[1]))
        else:
            at.append(words.doubles(op[3] if op[0] == "uniform" else 1))
    u = words.close()
    out = []
    for op, a in zip(ops, at):
        if op[0] == "uniform":
            out.extend((op[1] + (op[2] - op[1]) * u[a:a + op[3]]).tolist())
        elif op[0] == "random":
            out.append(float(u[a]))
        else:
            out.append(a)
    return out, words


@pytest.mark.parametrize("n_words", [1, 4096])
@pytest.mark.parametrize("buffered", [False, True])
def test_reader_matches_generator_calls(buffered, n_words):
    # n_words = 1 makes every later word a read past the block
    ops = _ops(3, 400)
    plain, replay = np.random.default_rng(8), np.random.default_rng(8)
    if buffered:
        # leaves the high half of a word in the buffer
        assert plain.integers(0, 5) == replay.integers(0, 5)
        assert replay.bit_generator.state["has_uint32"] == 1
    expected = _plain(plain, ops)
    got, words = _replayed(replay, ops, n_words)
    assert [v.hex() if isinstance(v, float) else v for v in got] == [
        v.hex() if isinstance(v, float) else v for v in expected
    ]
    assert replay.bit_generator.state == plain.bit_generator.state
    # rejections happened: more words than one double each and one
    # 32-bit half per draw
    n_doubles = sum(op[3] if op[0] == "uniform" else op[0] == "random" for op in ops)
    n_halves = sum(op[0] == "integers" and op[2] - op[1] > 1 for op in ops)
    assert words._pos > n_doubles + (n_halves + 1) // 2 + 5


def test_reader_carries_the_buffer_across_chunks():
    # an odd number of 32-bit draws leaves the buffer full at the end of
    # the first chunk, and the second chunk starts from it
    first = [("integers", 0, 3), ("random",), ("integers", 0, 10), ("integers", 0, 3)]
    second = [("integers", 0, 1), ("integers", 2, 9), ("uniform", 0.0, 1.0, 2)]
    plain, replay = np.random.default_rng(41), np.random.default_rng(41)
    expected = _plain(plain, first)
    assert _replayed(replay, first, 2)[0] == expected
    assert replay.bit_generator.state == plain.bit_generator.state
    assert replay.bit_generator.state["has_uint32"] == 1
    # its doubles run past a one-word block, to be read at close
    expected = _plain(plain, second)
    assert _replayed(replay, second, 1)[0] == expected
    assert replay.bit_generator.state == plain.bit_generator.state


def test_ranges_of_one_draw_nothing():
    plain, replay = np.random.default_rng(5), np.random.default_rng(5)
    plain.integers(0, 5)
    replay.integers(0, 5)
    before = replay.bit_generator.state
    ops = [("integers", 4, 5)] * 3
    got, words = _replayed(replay, ops, 8)
    assert got == _plain(plain, ops) == [4, 4, 4]
    assert words._pos == 0
    assert replay.bit_generator.state == plain.bit_generator.state == before


@pytest.mark.parametrize("make", [pair_sampler, prefix_sampler])
def test_samplers_refuse_other_bit_generators(make):
    grid = _grid(2)
    sampler = make(grid) if make is pair_sampler else make(grid, [1.0])
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TypeError, match="MT19937"):
        sampler(rng, 3)
    # and draws nothing first
    assert rng.random() == np.random.Generator(np.random.MT19937(1)).random()
