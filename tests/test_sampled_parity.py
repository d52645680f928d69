"""Bitwise parity gate for the sampled checks and the reward and drift
evaluators.

Pinned by sha256 digests:

* the JSON form of check_y1 for every catalog reward, two custom-table
  rewards (one of them the decaying payoff that `verify --mutate` uses)
  and a few non-default catalog parameters, at d = 1 and d = 2;
* the JSON form of check_drift for every drift kind and for the
  `--mutate` drift (mean reversion with rate above kappa), at d = 1 and
  d = 2;
* check_y1 and check_drift on an off-origin grid with non-dyadic
  spacing and on a zero-step grid, which pin the node times that enter
  the time-path distance;
* eval_reward and drift_eval on single prefixes: the returned value's
  type, shape and raw bytes, or the name of the exception raised;
* simulate_paths values and sup_distance_from_start at d = 1, 2 and 3
  for every drift kind, with sample sizes inside one block, at a block
  boundary and across several blocks;
* the JSON form of check_sde_moments at d = 1 and 2, with no drift, the
  `--mutate` custom-table drift, mean reversion and running max, for a
  unit and a zero control and for path counts inside one block, at a
  block boundary, one past it and across several blocks.

Sample counts straddle several evaluation chunks, and one count is zero.
The digests were recorded from the per-sample evaluators, which called
eval_reward and drift_eval once per sampled prefix; the odd-grid and
simulator digests from per-draw samplers, which built a Path per walk
and took one distance per draw, and from a whole-sample supremum; the
moment digest from the path simulator, whose paths were stored whole and
reduced afterwards, re-drawing the noise for the drifted run.  The
eval-reward digest was recorded again when the reward-side pre-history
splice was removed: from the stacked evaluator that still had it, on
the calls without a pre-history only.  The drift-d1, drift-d2 and
odd-grid digests were recorded again when check_drift began to bound
the running-max drift's Lipschitz term by max(kappa, sqrt(d)) in place
of kappa: only the running-max reports with kappa below sqrt(d) moved,
each of them from a failing report to a passing one.  Any change in the
order of floating-point operations, in the RNG draw order, in a
reduction's tie-break or in an exception type shows up as a mismatch.
To print the digests of the current code:

    PYTHONPATH=src python tests/test_sampled_parity.py
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from robuststop import (
    ControlSet,
    DriftSpec,
    ModulusSpec,
    TimeGrid,
    simulate_paths,
    american_put,
    custom_reward,
    drift_eval,
    eval_reward,
    lookback_max,
    running_sum,
)
from robuststop.verify import (
    check_drift,
    check_sde_moments,
    check_y1,
    pair_sampler,
    prefix_sampler,
)
from referees import builtin_catalog

COUNTS = (0, 1, 1300)
SEEDS = (2026, 7)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _report(fn, *args, **kwargs):
    """A check's JSON document, or the name of the exception it raised."""
    try:
        return json.dumps(fn(*args, **kwargs).as_dict(), sort_keys=True)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc).__name__


def _value(fn, *args):
    """Type, shape and raw bytes of a result, or the exception's name."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc).__name__
    a = np.asarray(out)
    return (type(out).__name__, a.dtype.str, a.shape, a.tobytes())


def _controls(d):
    if d == 1:
        return ControlSet([0.5, 1.0], cap=1.0)
    return ControlSet([np.diag([0.5, 0.5]), np.array([[1.0, 0.2], [0.2, 0.8]])], cap=1.2)


def _rewards():
    decaying = custom_reward(
        lambda k, track: float(-k), ModulusSpec("linear", 0.0), -4.0
    )
    # reads the whole absolute track, so a row handed to the callable
    # must hold the same values a single prefix did
    reader = custom_reward(
        lambda k, track: float(np.sum(track[:, 0] ** 2) - k * np.max(track[:, -1])),
        ModulusSpec("power", 2.0, 1.5), -50.0, base=0.3,
    )
    return [e.template for e in builtin_catalog()] + [
        decaying,
        reader,
        american_put(strike=0.2, base=-0.1, scale=-1.5),
        lookback_max(base=1.0, scale=0.5),
        running_sum(base=0.5, scale=2.0, n_steps=4),
    ]


def _drifts(d):
    return [
        DriftSpec("zero"),
        DriftSpec("mean-reversion", kappa=1.0, rate=0.8, level=0.1),
        DriftSpec("running-max", kappa=1.0),
        DriftSpec("running-max", kappa=0.3),
        DriftSpec("custom-table", table=[[0.1 * (k - 1.5)] * d for k in range(4)]),
        # the drift `verify --mutate` checks
        DriftSpec("mean-reversion", kappa=0.5, rate=1.5, level=0.0),
    ]


def _y1(d):
    grid = TimeGrid(0.0, 1.0, 4)
    parts = []
    for Y in _rewards():
        for spread in (1.0, 0.25):
            sampler = pair_sampler(grid, d, spread)
            for n in COUNTS:
                for seed in SEEDS:
                    parts.append(_report(check_y1, Y, sampler, n, seed=seed))
    return _sha(parts)


def _drift(d):
    grid = TimeGrid(0.0, 1.0, 4)
    controls = _controls(d)
    parts = []
    for spec in _drifts(d):
        for spread in (1.0, 3.0):
            sampler = prefix_sampler(grid, controls, d, spread)
            for n in COUNTS:
                for seed in SEEDS:
                    parts.append(_report(check_drift, spec, sampler, n, seed=seed))
    return _sha(parts)


# an off-origin grid whose node times are not multiples of dt, and the
# single-point grid
ODD_GRIDS = (TimeGrid(0.3, 1.7, 5), TimeGrid(0.5, 0.5, 0))


def _odd_grids():
    parts = []
    for grid in ODD_GRIDS:
        for d in (1, 2):
            for Y in _rewards():
                for n in (1, 700):
                    parts.append(_report(check_y1, Y, pair_sampler(grid, d), n, seed=3))
            sampler = prefix_sampler(grid, _controls(d), d, 2.0)
            for spec in _drifts(d)[:3]:
                for n in (1, 700):
                    parts.append(_report(check_drift, spec, sampler, n, seed=3))
    return _sha(parts)


def _simulate():
    grid = TimeGrid(0.0, 1.0, 4)
    controls = {
        1: 0.7,
        2: np.array([[1.0, 0.2], [0.2, 0.8]]),
        3: np.array([[0.9, 0.1, 0.0], [0.1, 0.7, 0.2], [0.0, 0.2, 0.6]]),
    }
    parts = []
    for d, u in controls.items():
        drifts = _drifts(d)[:3] + [
            DriftSpec("custom-table", table=[[0.1 * (k - 1.5)] * d for k in range(4)])
        ]
        for spec in drifts:
            for n_paths in (1, 4096, 5000, 12289):
                for x0 in (0.0, 1.5):
                    sample = simulate_paths(grid, x0, spec, u, n_paths, seed=17)
                    parts.append(_value(lambda: sample.values))
                    parts.append(_value(sample.sup_distance_from_start))
    return _sha(parts)


def _moments():
    controls = {
        1: (1.0, 0.0),
        2: (np.array([[1.0, 0.2], [0.2, 0.8]]), np.zeros((2, 2))),
    }
    parts = []
    for d, menu in controls.items():
        drifts = [
            (None, None),
            # the drift and bound `verify --mutate` checks
            (DriftSpec("custom-table", table=[[1.0] * d] * 7), 1e-6),
            (DriftSpec("mean-reversion", kappa=1.0, rate=0.8, level=0.1), 1.0),
            (DriftSpec("running-max", kappa=0.3), 0.3),
        ]
        for u in menu:
            for drift, bound in drifts:
                for n_paths in (1, 4096, 4097, 10_000):
                    parts.append(_report(
                        check_sde_moments, u, n_steps=7, n_paths=n_paths, seed=29,
                        drift=drift, drift_bound=bound,
                    ))
    return _sha(parts)


def _prefixes(rng, d):
    """(k, prefix) pairs: 2-D prefixes of every length up to 9, a 1-D
    prefix at d = 1, and a prefix one value too short."""
    out = []
    for k in range(10):
        p = np.cumsum(rng.uniform(-0.6, 0.6, size=(k + 1, d)), axis=0)
        out.append((k, p))
    if d == 1:
        out.append((3, rng.uniform(-1, 1, size=4)))
        out.append((2, [[0.0], [1.0], [-0.5]]))
    out.append((3, np.zeros((3, d))))
    return out


def _eval_reward():
    rng = np.random.default_rng(3)
    parts = []
    for d in (1, 2):
        prefixes = _prefixes(rng, d)
        for Y in _rewards():
            for k, p in prefixes:
                parts.append(_value(eval_reward, Y, k, p))
    return _sha(parts)


def _drift_eval():
    rng = np.random.default_rng(5)
    parts = []
    for d in (1, 2):
        prefixes = _prefixes(rng, d)
        u = _controls(d)[1]
        for spec in _drifts(d):
            for k, p in prefixes:
                if k < 4:
                    parts.append(_value(drift_eval, spec, k, p, u))
    return _sha(parts)


CASES = {
    "y1-d1": lambda: _y1(1),
    "y1-d2": lambda: _y1(2),
    "drift-d1": lambda: _drift(1),
    "drift-d2": lambda: _drift(2),
    "eval-reward": _eval_reward,
    "drift-eval": _drift_eval,
    "odd-grids": _odd_grids,
    "simulate": _simulate,
    "moments": _moments,
}

RECORDED = {
    'drift-d1': '70462c5963f8c924eec09356439404f7a95ad24ff283d43e137c0ab84d40ee81',
    'drift-d2': '2d30cd57be87fdbd7b16e9dd4cc7bf3c6772fc8e1209643ceefa9067c66cea7c',
    'drift-eval': 'a22f7d8a501954e509a4a40ed606bdf7889e9b7b1f0f779863d664445a36643c',
    'moments': 'dae7295efe974001f8d8c824af0502ad8bef747a7a6e11d2ec9a1f0d2b6136e2',
    'eval-reward': '8a29e7ec70a404992e844a02b0aa11bda657b265cd397a739a9e09f550d73954',
    'odd-grids': 'eefbd9d09978de55b10468e087babb8f01cb50bb6f2e915a9756b0342ad69be9',
    'simulate': 'e350fd801d9a74b8229fc67ae2ceaa94b22dd50d6dc1dc1fb318ffe1bbd8067b',
    'y1-d1': '1cf6c7fc1eaea3c0dd37d8ad63578cf4974ee749b782189c56444d906a8f4158',
    'y1-d2': 'f9e2af54347472db90a5c88ecccc3f536b2750d8c05a871d5e8e938241f81ce9',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sampled_outputs_match_recorded_digests(case):
    assert CASES[case]() == RECORDED[case], f"{case} differs from the recorded digest"


if __name__ == "__main__":
    print("RECORDED = {")
    for case in sorted(CASES):
        print(f"    {case!r}: {CASES[case]()!r},")
        sys.stdout.flush()
    print("}")
