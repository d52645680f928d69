"""Parity harness for `demo`: one sha256 over seeded intervals, the
minimal node cap that admits a run, the bookkeeping's memory before the
tree is expanded, and that tree's size against the cap's charge.

The digest covers each run's exit code, stdout and --out files.  It
was recorded before the menu table gave way to menus named by their
size, and it held when the robust menu's own tree gave way to one tree
of every volatility; any later change to how `demo` builds, places or
sweeps its menus must leave it as it is.  The intervals cover sigma_lo
== sigma_hi, sigma_hi the float after sigma_lo, intervals where
sigma_lo is in no widening menu (sigma_hi > 3 sigma_lo, where the last
lower edge can miss it), and node caps at and one below the summed node
count of the distinct menus (on every edge-case interval and on a
quarter of the seeded ones), which `_menu_nodes` recounts here from
sorted volatility tuples."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from robuststop import (
    ControlSet,
    DriftSpec,
    TimeGrid,
    american_put,
    classic_snell,
    expand_tree,
)
from referees import int64_envelope
from robuststop.cli import main
from test_cli import write_config


def _menu_nodes(sec) -> int:
    """Tree nodes of the demo's distinct menus together: the robust
    menu, the two classic ones and each widening menu, each counted once
    as a complete tree of 2 * len(menu) children per node."""
    lo, hi, w, n = sec["sigma_lo"], sec["sigma_hi"], sec["widenings"], sec["n_steps"]
    mid = (lo + hi) / 2.0
    vols, menus = {mid}, {(lo,), (hi,), tuple(sorted({lo, hi})), (mid,)}
    for j in range(w + 1):
        vols |= {mid + (lo - mid) * (j / w), mid + (hi - mid) * (j / w)}
        menus.add(tuple(sorted(vols)))
    return sum(sum((2 * len(m)) ** level for level in range(n + 1)) for m in menus)


def _intervals():
    rng = np.random.default_rng(20261022)
    for _ in range(16):
        lo = float(np.round(rng.uniform(0.1, 1.0), 3))
        yield lo, float(np.round(lo * rng.uniform(1.0, 10.0), 3))
    for lo in (0.25, 0.6, 1.7):
        yield lo, lo
        yield lo, float(np.nextafter(lo, 2 * lo))
    yield 0.1, 0.7
    yield 0.2, 0.9


def _configs():
    rng = np.random.default_rng(20261023)
    for i, (lo, hi) in enumerate(_intervals()):
        strikes = np.round(rng.uniform(0.5, 1.5, size=int(rng.integers(1, 4))), 2)
        sec = {"base": 1.0, "strikes": [float(K) for K in strikes], "sigma_lo": lo,
               "sigma_hi": hi, "t_end": float(rng.choice([0.5, 1.0, 2.0])),
               "n_steps": int(rng.integers(1, 5)), "widenings": int(rng.integers(1, 7))}
        yield {"demo": sec}
        if i >= 16 or rng.random() < 0.25:
            nodes = _menu_nodes(sec)
            for cap in (nodes, nodes - 1):
                yield {"demo": sec, "solver": {"node_cap": cap}}


def test_seeded_demo_runs_are_pinned(tmp_path, capsys):
    configs = list(_configs())
    h = hashlib.sha256()
    codes = []
    for i, cfg in enumerate(configs):
        out = tmp_path / f"out-{i}"
        code = main(["demo", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--seed", "1"])
        codes.append(code)
        h.update(f"{code}\0".encode() + capsys.readouterr().out.encode() + b"\0")
        for path in sorted(out.iterdir()) if out.exists() else ():
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert (len(configs), codes.count(0), codes.count(3)) == (46, 35, 11)
    assert h.hexdigest() == "c0835d7bc435a8757fbfbb8dbb88ea937f807b73b2c09bf3c81ea2febef50e1a"


@pytest.mark.parametrize("lo, hi, cap", [
    (0.6, 0.6, 7),
    (1.0, float(np.nextafter(1.0, 2.0)), 35),
    (0.1, 0.7, 196),
    (0.3, 0.9, 196),
])
def test_demo_node_cap_thresholds(tmp_path, capsys, lo, hi, cap):
    # n_steps 2, 2 widenings, one strike: cap is the least node_cap that
    # admits the run, the summed nodes of its distinct menus
    sec = {"strikes": [1.0], "sigma_lo": lo, "sigma_hi": hi, "n_steps": 2, "widenings": 2}
    assert _menu_nodes(sec) == cap
    for node_cap, code in ((cap, 0), (cap - 1, 3)):
        cfg = {"demo": sec, "solver": {"node_cap": node_cap}}
        assert main(["demo", "--config", write_config(tmp_path, cfg)]) == code
        capsys.readouterr()


@pytest.mark.parametrize("widenings, node_cap, budget", [
    # the widest n_steps 1 demo the default cap admits: 1,579 widenings,
    # menus of up to 3,159 controls
    (1579, None, 12 << 20),
    # 4,001 widening columns over 8,001 controls: a whole-run column mask
    # would take 32 MB, so each chunk of columns builds its own
    (4000, 10**12, 8 << 20),
], ids=["default-cap", "4000-widenings"])
def test_demo_bookkeeping_fits_a_fixed_budget(tmp_path, capsys, monkeypatch, widenings,
                                              node_cap, budget):
    # everything demo holds before it expands its tree stays under the
    # budget of traced memory
    import robuststop.cli as cli

    peaks = []

    def stop(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise RuntimeError("stop before the first expansion")

    monkeypatch.setattr(cli, "expand_recombined", stop)
    cfg = {"demo": {"strikes": [0.9, 1.1], "sigma_lo": 0.3, "sigma_hi": 0.9,
                    "n_steps": 1, "widenings": widenings}}
    if node_cap is not None:
        cfg["solver"] = {"node_cap": node_cap}
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["demo", "--config", path]) == 4
    finally:
        tracemalloc.stop()
    assert "stop before the first expansion" in capsys.readouterr().err
    assert len(peaks) == 1 and peaks[0] < budget


def test_the_one_tree_fits_the_menus_node_charge(tmp_path, capsys, monkeypatch):
    # the cap charges each distinct menu a full tree of its own, and the
    # one tree demo expands, which merges equal states, holds no more
    # nodes than that charge on any run of the digest, so the cap still
    # bounds what is expanded
    import robuststop.cli as cli

    built, expand = [], cli.expand_recombined

    def record(*args):
        built.append(expand(*args))
        return built[-1]

    monkeypatch.setattr(cli, "expand_recombined", record)
    ratios = []
    for cfg in _configs():
        del built[:]
        code = main(["demo", "--config", write_config(tmp_path, cfg)])
        capsys.readouterr()
        assert len(built) == (code != 3)
        if built:
            ratios.append(built[0].n_nodes / _menu_nodes(cfg["demo"]))
    assert len(ratios) == 35 and max(ratios) <= 1


def test_a_widening_menu_past_128_controls_keeps_the_int64_values(tmp_path, capsys,
                                                                 monkeypatch):
    # 64 widenings join 129 volatilities, so the sweep's argmin is int16;
    # every column of every chunk has the argmin and the values of the
    # int64 referee on that column's menu
    import robuststop.cli as cli

    sweep, types = cli.backward_sweep, []

    def checked(tree, y, *, floor, allowed):
        v, argmin = sweep(tree, y, floor=floor, allowed=allowed)
        for j in range(v.shape[1]):
            z, want = int64_envelope(tree, y, allowed[0, :, j])
            assert np.array_equal(argmin[:, j], want)
            assert v[:, j].tobytes() == z.tobytes()
        types.append(argmin.dtype)
        return v, argmin

    monkeypatch.setattr(cli, "backward_sweep", checked)
    cfg = {"demo": {"strikes": [0.9, 1.1], "sigma_lo": 0.3, "sigma_hi": 0.9,
                    "n_steps": 2, "widenings": 64}}
    assert main(["demo", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["values"]) == 2 and set(types) == {np.dtype(np.int16)}


@pytest.mark.parametrize("sec", [
    # the acceptance suite's degenerate demo (c09) and test_cli's
    {"base": 1.0, "strikes": [-5.0, 0.9, 1.0, 1.1], "sigma_lo": 0.5, "sigma_hi": 0.5,
     "t_end": 1.0, "n_steps": 6, "widenings": 5},
    {"base": 1.0, "strikes": [0.9, 1.0, 1.1], "sigma_lo": 0.6, "sigma_hi": 0.6,
     "t_end": 1.0, "n_steps": 4, "widenings": 3},
], ids=["c09", "test_cli"])
def test_degenerate_robust_value_is_the_classic_snell_root(tmp_path, capsys, sec):
    # with sigma_lo == sigma_hi the robust and classic menus are one
    # menu, so the report's classic_gap compares a column with itself.
    # The referee here is independent of demo's menus: classic_snell on
    # the full non-recombining tree of the one control
    assert main(["demo", "--config", write_config(tmp_path, {"demo": sec})]) == 0
    report = json.loads(capsys.readouterr().out)
    lo = sec["sigma_lo"]
    tree = expand_tree(TimeGrid(0.0, sec["t_end"], sec["n_steps"]), 0.0, DriftSpec("zero"),
                       ControlSet([lo]))
    assert [row["strike"] for row in report["values"]] == sec["strikes"]
    for row in report["values"]:
        want = classic_snell(tree, 0, american_put(row["strike"], sec["base"]))[tree.root]
        assert np.float64(row["robust_value"]).tobytes() == np.float64(want).tobytes()
