"""Bitwise parity gate for the backward sweeps, the game oracle and the
enumeration checks.

Every value below is pinned by a sha256 digest: the classic Snell
values of every enumerated strategy, the nonlinear expectation, stopped
envelope values, the worst-case stopped reward of enumerated stopping
rules, every GameReport field, and the JSON form of the
supermartingale, martingale, dpp and dpp-random reports, on clean and
corrupted envelopes.  The digests were recorded from the recursive
per-node sweeps that the level-ordered sweep replaced; any change in
the order of floating-point operations, in a tie-break or in a game
count shows up as a mismatch.  The verify reports are hashed without
their work counts (n_checked and the stopping-set count in details),
which were recorded from the stopping-set and strategy enumeration
that the checks' backward sweeps replaced; every worst, pass flag and
recomputed root is pinned.  The classic_snell digests pin values and
root values only: they were re-recorded, on the code that still built
it, without the first-meeting rule that classic_snell's result no longer
carries.  They and the nonlinear expectation and stopped values were
recorded from sweeps that started at the node; those now run on the
node's subtree (referees.subtree), and the classic values are scattered
back to full size, NaN outside it.  The barrier and relaxed rules of the
dpp-random reports were a callable and stop_rule_map(0.05); they are now
the callable's mask (referees.callable_mask) and the rule of the
envelope solved at delta = 0.05, whose z is the same.
The acceptance verify digest was recorded again when the martingale
check began to compare at every node and to test that z meets y on the
stop region: only its reports on the two corrupted envelopes moved.

The 200 acceptance instances are folded into one digest per field (the
sha256 of their per-instance digests, in draw order).  To print the
digests of the current code:

    PYTHONPATH=src python tests/test_sweep_parity.py
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from conftest import make_collision_tree, make_put, random_instance, rule_keys
from referees import (
    callable_mask,
    enumerate_strategies,
    nonlinear_expectation,
    pasting_check,
    snell_values,
    stopped_value,
)
from robuststop import (
    StoppingRule,
    enumerate_stopping_rules,
    game_values,
    reward_values,
    robust_envelope,
    terminal_abs,
    worst_case_stopped_reward,
)
from robuststop.verify import (
    check_dpp,
    check_dpp_random_horizon,
    check_martingale_to_tau,
    check_supermartingale,
    corrupt_envelope,
)
from robuststop.game import _nonterminal_heads

FIELDS = ("classic_snell", "nonlinear_expectation", "stopped_value",
          "worst_case_stopped_reward", "game", "verify")

# rule maps over more prefixes than this are sampled, not enumerated
ALL_RULES_UP_TO = 10
RULE_SAMPLES = 512


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _outcome(fn, *args):
    """A float result, or the name of the exception it raised."""
    try:
        return float(fn(*args))
    except Exception as exc:  # the exception type is part of the contract
        return type(exc).__name__


def _snell_part(tree, strategy, y, node=0):
    try:
        values = snell_values(tree, strategy, y, node)
    except Exception as exc:
        return (type(exc).__name__,)
    return (values.tobytes(), float(values[node]))


def _rules(tree, rng):
    """Every adapted rule on small trees, a seeded sample otherwise; bit
    j of a sample decides the j-th non-terminal class in the order the
    enumeration uses."""
    heads = _nonterminal_heads(tree, cap=tree.n_nodes)
    if len(heads) <= ALL_RULES_UP_TO:
        return list(enumerate_stopping_rules(tree))
    bits = rng.integers(0, 2, size=(RULE_SAMPLES, len(heads)))
    rules = []
    for row in bits:
        flags = np.full(tree.n_nodes, -1, dtype=np.int8)
        flags[heads] = row
        rules.append(StoppingRule(tree, flags))
    return rules


def _game_part(tree, y):
    try:
        r = game_values(tree, y)
    except Exception as exc:
        return (type(exc).__name__,)
    return (
        float(r.lower), float(r.upper), float(r.envelope_root),
        float(r.value_at_tau_star), float(r.saddle_value), float(r.max_gap),
        bool(r.agree), bool(r.saddle), float(r.tolerance),
        int(r.n_strategies), int(r.n_stopping_times), int(r.n_rule_maps),
        # the strategy's assigned (node, control) pairs, in node order
        [(i, c) for i, c in enumerate(r.optimal_strategy.tolist()) if c >= 0],
        # the tau* rule's horizon and its decisions on non-terminal prefixes
        tree.grid.n_steps,
        sorted(kv for kv in rule_keys(r.optimal_rule).items() if kv[0][0] < tree.grid.n_steps),
    )


def _verify_part(tree, sol):
    n = tree.grid.n_steps
    barrier = callable_mask(tree, lambda k, pref: abs(float(pref[-1, 0])) >= 1.0)
    relaxed = robust_envelope(tree, sol.y, delta=0.05).stop_rule_map()
    out = []
    for target in (sol, corrupt_envelope(sol), corrupt_envelope(sol, node=tree.root)):
        reports = [check_supermartingale(target), check_martingale_to_tau(target)]
        reports += [check_dpp(target, s) for s in range(n + 1)]
        reports += [check_dpp_random_horizon(target, nu) for nu in (n, barrier, relaxed)]
        out += [json.dumps(_count_free(r.as_dict()), sort_keys=True) for r in reports]
    return out


def _count_free(report: dict) -> dict:
    """A report without its work counts, which depend on how the check
    is computed; worst, passed and every other detail stay pinned."""
    report = {k: v for k, v in report.items() if k != "n_checked"}
    report["details"] = {k: v for k, v in report["details"].items()
                         if k != "root_stopping_sets"}
    return report


def digests(tree, Y, rng) -> dict:
    y = reward_values(tree, Y)
    sol = robust_envelope(tree, Y)
    level1 = list(range(*tree.offsets[1:3]))
    starts = [tree.root] + level1
    xi = lambda p: float(np.sum(p * p)) - float(p[-1, 0])
    stop_rules = (0, tree.grid.n_steps, sol.stop_rule_map(),
                  lambda k, pref: float(pref[-1, 0]) <= float(pref[0, 0]))
    parts = {
        "classic_snell": [
            _snell_part(tree, s, y) for s in enumerate_strategies(tree)
        ] + [_snell_part(tree, sol.argmin_control % len(tree.controls), y, node)
             for node in level1],
        "nonlinear_expectation": [
            _outcome(nonlinear_expectation, tree, xi_, node)
            for xi_ in (y, xi) for node in starts
        ],
        "stopped_value": [
            _outcome(stopped_value, sol, node, rule)
            for rule in stop_rules for node in starts
        ],
        "worst_case_stopped_reward": [
            _outcome(worst_case_stopped_reward, tree, y, rule)
            for rule in _rules(tree, rng)
        ],
        "game": _game_part(tree, y),
        "verify": _verify_part(tree, sol),
    }
    return {f: _sha(parts[f]) for f in FIELDS}


def _fold(per: list) -> dict:
    return {f: hashlib.sha256("".join(d[f] for d in per).encode()).hexdigest()
            for f in FIELDS}


def _acceptance():
    rng = np.random.default_rng(20260815)
    rules_rng = np.random.default_rng(7)
    return _fold([digests(tree, Y, rules_rng)
                  for tree, Y in (random_instance(rng) for _ in range(200))])


def _prefix_collision():
    rng = np.random.default_rng(7)
    return _fold([digests(make_collision_tree(n), terminal_abs(), rng) for n in (1, 2)])


def _pasting_from_node():
    tree, Y = make_put(3)
    interior = range(tree.offsets[-2])
    base = np.zeros(tree.n_nodes, dtype=np.int64)
    piece = np.ones(tree.n_nodes, dtype=np.int64)
    up = lambda p: p[-1][0] > 1.0
    parts = []
    for s in (1, 2):
        r = pasting_check(tree, base, s, [lambda p: not up(p), up], [piece], Y)
        parts.append((bool(r.ok), float(r.worst_atom_gap), float(r.worst_marginal_gap),
                      float(r.worst_snell_excess), r.n_atoms, r.n_marginal_events,
                      r.failures))
    y = reward_values(tree, Y)
    for node in interior:
        parts.append(_snell_part(tree, base, y, node))
        parts.append(_snell_part(tree, piece, y, node))
    return {f: _sha(parts) if f == "classic_snell" else "-" for f in FIELDS}


CASES = {
    "acceptance-200": _acceptance,
    "prefix-collision": _prefix_collision,
    "pasting-from-node": _pasting_from_node,
}

RECORDED = {
    'acceptance-200': {
        'classic_snell': '9f4dc399436d36640b7748049c4f963535b6786d452e1597f91c6fa99f7d2fbb',
        'nonlinear_expectation': 'a0d91cbcf8301c4d37ea7ebf2fdd790bc27d457d351fc082bb9135adbb0e8e9e',
        'stopped_value': '94685e884e9d8cbb3f7e92c77919ddee7c1673f9f2a2b2c0ba9258a8da13557e',
        'worst_case_stopped_reward': 'b5d43f4660e1a1a3b8e7252d33f546cbdf6998341f99f1c54b4cd9d36e72b76a',
        'game': '7ede147b8e204fcd92d4769665efebb230c1056e78cebae13587f06a0f3a97a4',
        'verify': 'da5bed1b9407f43964925cf83a9cd492eb924c8d19e916c48bbfbdd16d4681b3',
    },
    'pasting-from-node': {
        'classic_snell': '85adee425d1d4d6e8ef46c04b44b87272efcc92b9c4b03ee4c5ea1463a8019c6',
        'nonlinear_expectation': '-',
        'stopped_value': '-',
        'worst_case_stopped_reward': '-',
        'game': '-',
        'verify': '-',
    },
    'prefix-collision': {
        'classic_snell': 'd2d1210f02cd1717f026818f94d39b1e24586a671486f24f55f5ba257ccf1e90',
        'nonlinear_expectation': '6e4d3850842b52dcf721a4dff22adfb91c4fb266786c2cccd89841ecdb36928e',
        'stopped_value': '7f6da26c2daf2e83e50408d6fab03895fd0e9052ee8d30273e52635ce94c8f4a',
        'worst_case_stopped_reward': '6555c2228a5994c840a79e310ebda48f807c3b58bfaf94abb3e1078e874643e7',
        'game': 'f95fdd8fec28d6089a5ed6ace35f4689aaf25cfa1dceb4b91712b8cb9dbd873b',
        'verify': '03177f5751d6d93750b25160f19c0ca6d11c1e3d10125cdf6e0bfbdb43f9eb08',
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_outputs_match_recorded_digests(case):
    got = CASES[case]()
    want = RECORDED[case]
    changed = [f for f in FIELDS if got[f] != want[f]]
    assert not changed, f"{case}: {changed} differ from the recorded digests"


if __name__ == "__main__":
    print("RECORDED = {")
    for case in sorted(CASES):
        print(f"    {case!r}: {{")
        for f, d in CASES[case]().items():
            print(f"        {f!r}: {d!r},")
        print("    },")
        sys.stdout.flush()
    print("}")
