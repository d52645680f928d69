"""cli._json_text writes json.dumps(obj, sort_keys=True, indent=2) byte
for byte, without json's pure-Python encoder.  json.dumps is the referee:
on the reports of every command, on a seeded fuzz of nested values, and
on the types it rejects."""

import enum
import json
import random

import numpy as np
import pytest

from robuststop.cli import _json_text, main


def referee(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


class Count(enum.IntEnum):
    TWO = 2


class Ratio(float):
    pass


LEAVES = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
    1e16, 1e-7, 0.1, 1.7976931348623157e308, 2**64, -(2**64), 0, -1, 10**30,
    np.float64(0.3), np.float64("nan"), np.float64("-inf"), np.float64(-0.0),
    Count.TWO, Ratio(2.5), True, False, None,
    "", "plain", 'quo"te', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f",
    "café", "  ", "\U0001f600", "\ud800",
]
KEYS = ["", "a", "b", "B", "aa", "zé", 'k"q', "\n", "10", "9", "\U0001f600"]


def random_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return rng.choice(LEAVES)
    size = rng.choice([0, 1, 2, 3, 5])
    if roll < 0.65:
        return [random_value(rng, depth - 1) for _ in range(size)]
    if roll < 0.75:
        return tuple(random_value(rng, depth - 1) for _ in range(size))
    return {rng.choice(KEYS): random_value(rng, depth - 1) for _ in range(size)}


def test_renderer_matches_json_dumps_on_a_seeded_fuzz():
    rng = random.Random(20261019)
    for _ in range(3000):
        obj = random_value(rng, rng.randint(0, 5))
        assert _json_text(obj) == referee(obj), obj


@pytest.mark.parametrize("obj", LEAVES + [[], {}, (), [[]], {"a": {}}, ([], ())],
                         ids=repr)
def test_renderer_matches_json_dumps_on_each_leaf_and_empty_container(obj):
    assert _json_text(obj) == referee(obj)
    assert _json_text([obj, {"k": obj}]) == referee([obj, {"k": obj}])


@pytest.mark.parametrize("obj", [
    {1: "int key"},
    {"a": 1, 2.5: "float key"},
    {None: 0},
    {(1, 2): 0},
    {"nested": {True: 0}},
])
def test_non_str_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


@pytest.mark.parametrize("obj", [
    np.int64(3), np.bool_(True), np.array([1.0]), {1, 2}, b"bytes", object(),
    {"a": [1, np.float32(0.5)]}, 1 + 2j,
])
def test_unsupported_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        referee(obj)
    with pytest.raises(TypeError):
        _json_text(obj)


PUT = {
    "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 2},
    "dynamics": {"x0": 1.0, "drift": {"kind": "zero"}},
    "controls": {"values": [0.5, 1.0], "cap": 1.0},
    "reward": {"kind": "american-put", "strike": 1.0},
    "verify": {"n_samples": 300, "prehistory_pairs": 3, "moments_paths": 3000},
}
DEMO = {"demo": {"strikes": [0.9, 1.1], "sigma_lo": 0.3, "sigma_hi": 0.9,
                 "n_steps": 3, "widenings": 2}}


@pytest.mark.parametrize("argv", [
    ["solve"], ["oracle"], ["verify"], ["verify", "--mutate"], ["demo"],
], ids=" ".join)
def test_every_command_prints_its_report_as_json_dumps(tmp_path, capsys, monkeypatch, argv):
    # the report is captured before rendering and rendered again by the
    # referee, so this holds whether or not conftest's autouse check runs
    seen = []
    render = _json_text

    def keep(report):
        seen.append(report)
        return render(report)

    monkeypatch.setattr("robuststop.cli._json_text", keep)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DEMO if argv[0] == "demo" else PUT))
    code = main([argv[0], "--config", str(path), *argv[1:]])
    assert code == 0
    assert len(seen) == 1
    assert capsys.readouterr().out == referee(seen[0]) + "\n"
