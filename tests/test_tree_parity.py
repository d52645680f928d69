"""Bitwise parity gate for tree expansion, reward evaluation and the
worst-case sweep.

Every float the solver produces is pinned here by a sha256 digest of the
raw bytes of each per-node output array: node states, rewards y,
envelope z, argmin controls (cast to int64), stop flags, and the sorted
tau* items of the scenario-map referee (referees.solution_tau).  The
digests were recorded from the per-node tree (one Python object per node)
that the level-ordered array tree replaced; any change to the order of
floating-point operations in expansion, reward or sweep shows up as a
mismatch.

The 200 acceptance instances are folded into one digest per field (the
sha256 of their per-instance digests, in draw order); every other tree
has its own.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_tree_parity.py
"""

import hashlib
import sys

import numpy as np
import pytest

from conftest import random_instance
from referees import solution_tau
from robuststop import (
    ControlSet,
    DriftSpec,
    TimeGrid,
    american_put,
    custom_reward,
    expand_tree,
    lookback_max,
    robust_envelope,
    running_sum,
    terminal_abs,
)
from robuststop.pathspace import ModulusSpec

FIELDS = ("states", "y", "z", "argmin_control", "stop", "tau")


def _array_digest(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(repr((a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def digests(tree, sol) -> dict:
    # the sweep keeps argmin in its narrowest integer type, int8 for these
    # menus of at most 9 controls; the digests were recorded from int64,
    # which holds every one of its values unchanged
    assert sol.argmin_control.dtype == np.int8
    states = np.concatenate(tree.states)
    out = {"states": _array_digest(states)}
    for name in FIELDS[1:-1]:
        a = getattr(sol, name)
        out[name] = _array_digest(a.astype(np.int64) if name == "argmin_control" else a)
    out["tau"] = hashlib.sha256(repr(sorted(solution_tau(sol).items())).encode()).hexdigest()
    return out


def _acceptance():
    rng = np.random.default_rng(20260815)
    per = [digests(tree, robust_envelope(tree, Y))
           for tree, Y in (random_instance(rng) for _ in range(200))]
    return {f: hashlib.sha256("".join(d[f] for d in per).encode()).hexdigest()
            for f in FIELDS}


def _solved(tree, Y, **kwargs):
    return digests(tree, robust_envelope(tree, Y, **kwargs))


def _solve_put():
    tree = expand_tree(TimeGrid(0.0, 1.0, 8), 1.0, DriftSpec("zero"),
                       ControlSet([0.5, 1.0], cap=1.0))
    return _solved(tree, american_put(1.0, 0.0, 1.0))


def _solve_lookback():
    tree = expand_tree(TimeGrid(0.0, 1.0, 8), 1.0, DriftSpec("running-max", kappa=1.0),
                       ControlSet([0.5, 1.0], cap=1.0))
    return _solved(tree, lookback_max(0.0, 1.0))


def _solve_d2():
    controls = ControlSet(
        [np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([[1.0, 0.2], [0.2, 0.8]])], cap=1.2
    )
    tree = expand_tree(TimeGrid(0.0, 1.0, 5), np.array([0.0, 0.0]),
                       DriftSpec("mean-reversion", rate=0.5), controls)
    return _solved(tree, terminal_abs(0.0, 1.0))


def _demo_menu(vols):
    tree = expand_tree(TimeGrid(0.0, 1.0, 4), 0.0, DriftSpec("zero"),
                       ControlSet(vols, cap=0.9))
    return _solved(tree, american_put(strike=1.0, base=1.0))


def _demo_widest_menu():
    # the demo's last widening of [0.3, 0.9] in four steps
    lo, hi, mid = 0.3, 0.9, 0.6
    vols = [mid]
    for j in range(5):
        vols += [mid + (lo - mid) * (j / 4), mid + (hi - mid) * (j / 4)]
    vols = sorted(set(vols))
    assert len(vols) == 9
    return _demo_menu(vols)


def _init_prefix():
    tree = expand_tree(TimeGrid(0.0, 1.0, 5), 0.0, DriftSpec("running-max", kappa=1.0),
                       ControlSet([0.5, 1.0], cap=1.0), init_prefix=[1.0, 1.3, 0.9])
    return _solved(tree, lookback_max(0.0, 1.0))


def _running_sum_n8():
    tree = expand_tree(TimeGrid(0.0, 1.0, 8), 0.2,
                       DriftSpec("mean-reversion", rate=0.4, level=0.1),
                       ControlSet([0.5, 1.0], cap=1.0))
    return _solved(tree, running_sum(base=0.3, scale=0.7, n_steps=8))


def _custom_reward():
    tree = expand_tree(TimeGrid(0.0, 1.0, 3), 0.5,
                       DriftSpec("custom-table", table=[[0.1], [-0.2], [0.3]]),
                       ControlSet([0.4, 0.8, 1.1], cap=1.2))
    Y = custom_reward(lambda k, track: float(np.sum(track[:, 0] ** 2)) - 0.1 * k,
                      ModulusSpec("linear", 1.0), -10.0)
    return _solved(tree, Y, delta=0.01)


CASES = {
    "acceptance-200": _acceptance,
    "solve-deep-put": _solve_put,
    "solve-deep-lookback": _solve_lookback,
    "solve-deep-d2": _solve_d2,
    "demo-menu-1": lambda: _demo_menu([0.6]),
    "demo-menu-2": lambda: _demo_menu([0.3, 0.9]),
    "demo-menu-9": _demo_widest_menu,
    "init-prefix": _init_prefix,
    "running-sum-n8": _running_sum_n8,
    "custom-reward": _custom_reward,
}

RECORDED = {
    'acceptance-200': {
        'states': '12d123587deabd17bdfe10f57f0d3db117656f5d5335c21cce614686aa42ef4d',
        'y': '2524c7caf1088c34421b4e34290e4eada8bde8f4bf7ce8ca92eb257b5160dc8a',
        'z': '01baf38a4352df8615f086a9fba691703e6034a644d763720087091aa461bbce',
        'argmin_control': 'affdcdac65ae1b8ed473220bf29578f49cd8aa03eab3e2ec232ab79ba5d9f45e',
        'stop': '1b2f837fa8b63b3bdf36d76a1e1756a9b27d212ea3bd4a7ddce9d74ba7e1dc2e',
        'tau': '2944b203f82a3a1d8ad6799688da683ff7e413016304e5ad69b1bf5b8777e7bc',
    },
    'custom-reward': {
        'states': '378e8b994d1b5fca0a3a591149b687b9acb000dfce9a0dd539652bfcbfb429a9',
        'y': '4b2a614a8d730e8c3cb70df989c9cf11757af2ee97958d8d28c6656cfa6ed291',
        'z': 'f4906f651adcf54d1d9c75894b9c1278976c515c8ba388bd28e4d1297fb84617',
        'argmin_control': '398eb5db1c4b103c4ccff12beac4788e37b911c1b01b094ef7cb9ea571cb4778',
        'stop': '32d09626909fb78e731e2db85e8fe5acac0ef1ac42ebd66f819ca8e63e13c910',
        'tau': '7f1870a3b7257f6e379dc0e42da3100644321b2438df64d88ffdab45e1c5afd1',
    },
    'demo-menu-1': {
        'states': '3eb4d9aa50bc4ee66492e3c48a270ac721e9bd6294d9382b03a6676d669d9e49',
        'y': '5ad4c856d18f8bd066fbb7fd09afd59cd9c2351d04d6bc2235e8b531620baaa0',
        'z': 'be2763d7a58183375bed1a0012f6b713b2b37eceab987d014a0119215d4abef2',
        'argmin_control': 'df86df0c924ff7518b6f666d9db757f2e1859c7863de4ad03b1e7b51048bf0a2',
        'stop': 'c51ff47eb030ea16fda363506efc78254832d87e7c4b8f200f451d0a8941bebb',
        'tau': '3158a4786087f19bc8822b0dab9983541b82d4283e42293fe927fb217a65176d',
    },
    'demo-menu-2': {
        'states': '669321e9cc67be4ffdaaf590e0e7405b8432b26e6d76ad1ae2d168f29e568fce',
        'y': 'a79981e6b213a68f86312894fca796dda84d5d8cd9a2ddcf4911a04708a3cfa7',
        'z': 'daa15b8fc8bc99c1ff64f0e4d704f53ae1f61ff6dedbf0b95335a9411e579aec',
        'argmin_control': '0002629de89ca697f4550a10121be42c7041b8f95faac8683298410d47e226be',
        'stop': 'bf783313a797c1ca822987792112edabc515e1b0012433c2ef5b17b028ce8e3a',
        'tau': '3158a4786087f19bc8822b0dab9983541b82d4283e42293fe927fb217a65176d',
    },
    'demo-menu-9': {
        'states': '02017ad7fc1d3f2507685139c6a55276e5023d09fb40744eb66a95a5d0eeb70f',
        'y': 'fef846d27cebd2ab7592819f0e5080e7ac28b47cfce5e7333f622ee821bc4b82',
        'z': '55349b71aa6a4aed5cdcf966b7e0435d07cffeadd7d9a20079e260e3b87470a4',
        'argmin_control': '263dcd884b3e1e28e6444ac05dc47a8b550c1c70c1b3c5c53aa3256d88604dbf',
        'stop': '4de1bc07cabc2dc830d98269cef1496508104ed5be010a0347779c966b1ca531',
        'tau': '3158a4786087f19bc8822b0dab9983541b82d4283e42293fe927fb217a65176d',
    },
    'init-prefix': {
        'states': '7b37dd5c313bcf7085cd463aa88ea1dba37c889e7b029350e9567154acb3e375',
        'y': '7fab61919916285c1e91b23a8f73ee3c71fda284e559d3037f3d9f1fdfbb5690',
        'z': '01f197bbb2399d0cffbc47ef0398a0c932e57a98be00ed9654fcab061ff45176',
        'argmin_control': '77fa4d59ca3d667e58e2e29c993683ddc6f7535effba4e65e7a7517acead46f8',
        'stop': '5c680972a2b58dff72ebe549fc91e656287bcfc26a5df7cdbd720edfc5a24396',
        'tau': 'e53396270eb14904e4d4ba04af92934242addd97aa24f86f0bf04dabd79aa827',
    },
    'running-sum-n8': {
        'states': 'f6aea6c559c0b5d869ac34489d4105b46e46bea1ce730e474ab30e936cec492c',
        'y': '0054c34a4296ed412bcaf59b087ec39c819be6fcf812782d8d5adf61008d6ed4',
        'z': '23ecc8883000411d5a5d80c3fbdcb2fbe306cec3bf8bbba1e48ffaf7e1cc8a61',
        'argmin_control': 'a29c5ea9c503d8aa6875582c8cdf935307a04f59e39ce394a75f46eb917f6cc5',
        'stop': 'bb06c3bb19e1a6e207a6aae11d276e339900692a79bc237abda47b18461c0ca2',
        'tau': '15531ee7c77a62f8453452ba72513713c024bad157a356bad5a17c7358da5733',
    },
    'solve-deep-d2': {
        'states': '6286386ce1b78213ffda2f6f9dbc417242a97b17bc44e1b487780113c2ba6e2d',
        'y': '434941ddf61caee4c08ccc4b7760598918bd544a14bf505c14319e58c3097ca9',
        'z': 'f795e272773e62c20e38f6059839e3fb042aff3598cd1c0b579f932ca0f4dbd7',
        'argmin_control': 'dda15fbd134e08d5aba90e05a02aea135ced1a3a3b3a3b6492439c2c88bbe55e',
        'stop': '03180add4b4893a14a1b787fe3737fdc02cce26e403cf97fd664a765f3615184',
        'tau': '7da4c0dbe4f1b0db61d10870d4f8b7976b09cb3c4705f1cf2462f78a387d183f',
    },
    'solve-deep-lookback': {
        'states': 'fac60c442d68bf1b0d7fcfa7e4222a212c41cc166d5ee075cd6093cb123b1ff1',
        'y': 'a41803ab60ab19b1fad3ffa4ffb1f6e0819335496ddf6e2ad53dc6fd039dd27d',
        'z': 'c7d177f7a071cf011707b4b973b6ca5c8e52738c764144d731dbabf796b87432',
        'argmin_control': '92d70c5ef29582589b26a5bf117e6e687701cb486108d4d89d75ee4ff8972e1e',
        'stop': 'de934513c8c49104623bcf3e92f2c8d14a485bca72d9c773e957d02a0cd38703',
        'tau': '248d70146012b81dfc1b40b7d02efb15852cba3d58b6ef79ec192cc99a905db0',
    },
    'solve-deep-put': {
        'states': '7ac35607728899158011961111868f1667e61f50c7b790776c579f0683a594c4',
        'y': '72fc196cf97f1683e904af8edd334fd49b53b53bbf95e336f82c86ebdb2dc913',
        'z': 'f7e296036fd35661286ea598fcbdc8ad03f4751117bdefe1297b99d0a2e767b0',
        'argmin_control': '736c26713276bc0138e067c000910056e564bb8aad6f8797df7c6dd68c610579',
        'stop': '492a1fdfbaf4723f203a5fb0ad38270cafea0183101acbdcbc4690273bd10351',
        'tau': '0ba176ee6506cdca8a42204c9f05ad63f4e190ecbe2ed2ed9e007145c6842dde',
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tree_outputs_match_recorded_digests(case):
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
