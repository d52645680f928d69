"""Config-driven front end: fail-closed parsing, the four subcommands,
exit codes, and byte-identical reruns."""

import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import robuststop
from robuststop.cli import _build_parser, main

INST_A = {
    "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 1},
    "dynamics": {"x0": 0.0, "drift": {"kind": "zero"}},
    "controls": {"values": [0.5, 1.0], "cap": 1.0},
    "reward": {"kind": "terminal-abs"},
}

PUT_N2 = {
    "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 2},
    "dynamics": {"x0": 1.0, "drift": {"kind": "zero"}},
    "controls": {"values": [0.5, 1.0], "cap": 1.0},
    "reward": {"kind": "american-put", "strike": 1.0},
}

SMALL_VERIFY = {
    **PUT_N2,
    "verify": {"n_samples": 400, "prehistory_pairs": 4, "moments_paths": 4000},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_solve_inst_a(tmp_path, capsys):
    cfg = write_config(tmp_path, INST_A)
    code, report = run(capsys, "solve", "--config", cfg)
    assert code == 0
    assert report["root_value"] == 0.5
    assert report["argmin_control_frequencies"] == [1.0, 0.0]
    assert report["tau_star"] == {"earliest": 1, "latest": 1, "n_scenarios": 2}
    boundary = {row["k"]: row for row in report["stop_boundary"]}
    assert boundary[0]["min_abs_state"] == ""
    assert boundary[1]["min_abs_state"] == 0.5
    assert [row["k"] for row in report["slices"]] == [0, 1]


def test_solve_constant_reward_stops_everywhere(tmp_path, capsys):
    cfg = dict(INST_A)
    cfg["reward"] = {"kind": "constant", "value": 0.25}
    code, report = run(capsys, "solve", "--config", write_config(tmp_path, cfg))
    assert code == 0
    assert report["root_value"] == 0.25
    for row in report["slices"]:
        assert row["n_stopped"] == row["n_nodes"]
    for row in report["stop_boundary"]:
        assert row["min_abs_state"] != ""


def test_solve_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, PUT_N2)
    out = tmp_path / "out"
    code, report = run(capsys, "solve", "--config", cfg, "--out", str(out))
    assert code == 0
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report
    slices = (out / "slices.csv").read_text().splitlines()
    assert slices[0] == "k,time,n_nodes,n_stopped,z_min,z_mean,z_max,y_min,y_max"
    assert len(slices) == 1 + 3
    assert (out / "boundary.csv").exists()


def test_oracle_inst_a_all_equal(tmp_path, capsys):
    cfg = write_config(tmp_path, INST_A)
    code, report = run(capsys, "oracle", "--config", cfg)
    assert code == 0
    assert report["agree"] and report["saddle"]
    assert report["lower"] == report["upper"] == 0.5
    assert report["envelope_root"] == 0.5
    assert report["value_at_tau_star"] == 0.5
    assert report["n_strategies"] == 2
    assert report["n_stopping_times"] == 2


def test_oracle_put_n2(tmp_path, capsys):
    cfg = write_config(tmp_path, PUT_N2)
    code, report = run(capsys, "oracle", "--config", cfg)
    assert code == 0
    assert report["agree"]
    assert abs(report["envelope_root"] - math.sqrt(2.0) / 8.0) <= 1e-12


def test_oracle_node_cap_exits_3(tmp_path, capsys):
    cfg = {**PUT_N2, "solver": {"node_cap": 4}}
    code = main(["oracle", "--config", write_config(tmp_path, cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert "cap" in err


def test_oracle_cap_message_is_short_and_names_the_key(tmp_path, capsys):
    # 65,535 nodes and about 10^5797 stopping sets: a count Python
    # refuses to print in full
    cfg = {
        **PUT_N2,
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 15},
        "controls": {"values": [1.0], "cap": 1.0},
    }
    assert main(["oracle", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "solver.stop_time_cap" in err
    assert len(err) < 200


def test_verify_tree_checks_on_a_deep_tree(tmp_path, capsys):
    # 87,381 nodes, far past what enumerating stopping sets or
    # strategies could reach; each check is a backward sweep
    suite = "supermartingale,martingale,dpp,dpp-random"
    cfg = {**PUT_N2, "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 8}}
    argv = ["verify", "--config", write_config(tmp_path, cfg), "--suite", suite]
    code, report = run(capsys, *argv)
    assert code == 0
    assert sorted(report["checks"]) == sorted(suite.split(","))
    assert all(c["passed"] for c in report["checks"].values())
    code, report = run(capsys, *argv, "--mutate")
    assert code == 0
    assert not any(c["passed"] for c in report["checks"].values())


def test_verify_expands_the_tree_only_for_tree_checks(tmp_path, capsys):
    # 5,592,405 nodes, past the default node cap: checks that draw their
    # own samples still run, and a check that reads the tree hits the cap
    cfg = {**SMALL_VERIFY, "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 11}}
    path = write_config(tmp_path, cfg)
    code, report = run(capsys, "verify", "--config", path, "--suite", "y1,drift,moments")
    assert code == 0
    assert sorted(report["checks"]) == ["drift", "moments", "y1"]
    assert main(["verify", "--config", path, "--suite", "envelope"]) == 3
    assert "solver.node_cap" in capsys.readouterr().err


def test_verify_full_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_VERIFY)
    code, report = run(capsys, "verify", "--config", cfg)
    assert code == 0
    assert report["ok"] and report["all_passed"]
    assert len(report["checks"]) == 10
    assert all(c["passed"] for c in report["checks"].values())


def test_verify_subset_and_mutation(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_VERIFY)
    code, report = run(capsys, "verify", "--config", cfg, "--suite", "y1,drift")
    assert code == 0
    assert sorted(report["checks"]) == ["drift", "y1"]
    code, report = run(
        capsys, "verify", "--config", cfg, "--suite", "y1,envelope", "--mutate"
    )
    assert code == 0
    assert report["ok"]
    assert not any(c["passed"] for c in report["checks"].values())


@pytest.mark.parametrize("verify", [{}, {"split": 0, "prehistory_pairs": 1}])
def test_verify_mutation_breaks_prehistory_on_constant_reward(tmp_path, capsys, verify):
    # a constant payoff's root value ignores the pre-history, so the
    # mutation must swap in a payoff that reads it
    cfg = {
        **SMALL_VERIFY,
        "reward": {"kind": "constant", "value": 0.5},
        "verify": {**SMALL_VERIFY["verify"], **verify},
    }
    code, report = run(
        capsys, "verify", "--config", write_config(tmp_path, cfg),
        "--suite", "prehistory", "--mutate",
    )
    assert code == 0
    assert report["ok"]
    assert not report["checks"]["prehistory"]["passed"]
    assert report["checks"]["prehistory"]["worst"] > 0.0


def test_verify_empty_suite_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_VERIFY)
    code = main(["verify", "--config", cfg, "--suite", ""])
    assert code == 2
    assert "selector" in capsys.readouterr().err


def test_verify_repeated_check_is_usage_error(tmp_path, capsys):
    # the report holds one entry per check name, so a second run of a
    # check would be counted in "ok" but not shown
    cfg = write_config(tmp_path, SMALL_VERIFY)
    code = main(["verify", "--config", cfg, "--suite", "y1,envelope, y1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "['y1']" in captured.err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_thread_count_below_one_is_usage_error(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, SMALL_VERIFY)
    code = main(["verify", "--config", cfg, "--suite", "envelope", "--threads", threads])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads" in captured.err


def test_verify_starts_no_thread_whatever_the_thread_count(tmp_path, capsys, monkeypatch):
    import threading

    def refuse(self):
        raise AssertionError("verify started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = write_config(tmp_path, SMALL_VERIFY)
    code = main(["verify", "--config", cfg, "--suite", "envelope,tau", "--threads", "4"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_unknown_config_keys_fail_closed(tmp_path, capsys):
    for broken in (
        {**INST_A, "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 1}},
        {**INST_A, "extras": {}},
        {**INST_A, "grid": [0.0, 1.0, 1]},
        {**INST_A, "reward": {}},
    ):
        code = main(["solve", "--config", write_config(tmp_path, broken)])
        assert code == 2
        capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_log_env_var(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, INST_A)
    monkeypatch.setenv("ROBUSTSTOP_LOG", "debug")
    assert main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    monkeypatch.setenv("ROBUSTSTOP_LOG", "loud")
    assert main(["solve", "--config", cfg]) == 2
    assert "ROBUSTSTOP_LOG" in capsys.readouterr().err


def test_demo_degenerate_interval_matches_classic(tmp_path, capsys):
    cfg = {
        "demo": {
            "base": 1.0,
            "strikes": [0.9, 1.0, 1.1],
            "sigma_lo": 0.6,
            "sigma_hi": 0.6,
            "t_end": 1.0,
            "n_steps": 4,
            "widenings": 3,
        }
    }
    code, report = run(capsys, "demo", "--config", write_config(tmp_path, cfg))
    assert code == 0
    assert report["passed"]
    assert report["classic_gap"] == 0.0
    for row in report["values"]:
        assert row["robust_value"] == row["classic_value_lo"]


def test_demo_zero_payoff_and_widening(tmp_path, capsys):
    cfg = {
        "demo": {
            "base": 1.0,
            "strikes": [-5.0, 1.0],
            "sigma_lo": 0.3,
            "sigma_hi": 0.9,
            "t_end": 1.0,
            "n_steps": 4,
            "widenings": 4,
        }
    }
    out = tmp_path / "demo_out"
    code, report = run(
        capsys, "demo", "--config", write_config(tmp_path, cfg), "--out", str(out)
    )
    assert code == 0
    assert report["widening_monotone"]
    dead = next(r for r in report["values"] if r["strike"] == -5.0)
    assert dead["robust_value"] == 0.0
    for name in ("report.json", "values.csv", "boundary.csv", "widening.csv"):
        assert (out / name).exists()


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_VERIFY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    capsys.readouterr()
    files = sorted(os.listdir(out1))
    assert files == sorted(os.listdir(out2))
    for name in files:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_usage_errors_raise_system_exit(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
    # the shared parser still serves the next call
    code, report = run(capsys, "solve", "--config", write_config(tmp_path, INST_A))
    assert code == 0
    assert report["root_value"] == 0.5


def test_parser_is_shared_and_keeps_no_flag_between_calls(tmp_path, capsys):
    argv = ["verify", "--config", write_config(tmp_path, SMALL_VERIFY),
            "--suite", "envelope,tau", "--threads", "1"]
    _build_parser.cache_clear()
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--mutate"]) == 0
    assert json.loads(capsys.readouterr().out)["mutate"] is True
    assert main(argv) == 0
    again = capsys.readouterr().out
    assert json.loads(again)["mutate"] is False
    assert again == first
    assert _build_parser() is _build_parser()


def test_one_shot_entry_point_matches_main(tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(robuststop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def entry(*argv):
        return subprocess.run([sys.executable, "-m", "robuststop", *argv],
                              env=env, capture_output=True, timeout=120)

    assert entry("--help").returncode == 0
    cfg = write_config(tmp_path, PUT_N2)
    one_shot = entry("solve", "--config", cfg)
    assert one_shot.returncode == 0
    assert main(["solve", "--config", cfg]) == 0
    assert one_shot.stdout == capsys.readouterr().out.encode()


DEMO_SMALL = {
    "demo": {"strikes": [1.0], "sigma_lo": 0.3, "sigma_hi": 0.9, "n_steps": 2,
             "widenings": 1}
}


def test_demo_honours_the_node_cap(tmp_path, capsys):
    # the trees of DEMO_SMALL run from 7 nodes to 43 (the three-control
    # widening menu), and the first, the robust two-control tree, has 21
    for cap, code in ((None, 0), (43, 0), (42, 3), (10, 3)):
        cfg = DEMO_SMALL if cap is None else {**DEMO_SMALL, "solver": {"node_cap": cap}}
        assert main(["demo", "--config", write_config(tmp_path, cfg)]) == code
        assert ("solver.node_cap" in capsys.readouterr().err) == (code == 3)


def test_demo_expands_each_menu_once(tmp_path, capsys, monkeypatch):
    # two strikes and 4 widenings: the robust menu, two singles and five
    # widening menus, each expanded once and swept for both strikes
    import robuststop.cli as cli

    menus, expand = [], cli.expand_tree

    def counting(grid, x0, drift, controls, **kwargs):
        menus.append(tuple(controls.scalars()))
        return expand(grid, x0, drift, controls, **kwargs)

    monkeypatch.setattr(cli, "expand_tree", counting)
    cfg = write_config(tmp_path, PINNED_DEMO["wide"])
    assert main(["demo", "--config", cfg]) == 0
    assert len(menus) == len(set(menus)) == 8
    assert len(json.loads(capsys.readouterr().out)["values"]) == 2


# (command, config, raw JSON token standing in for the value, key named)
NON_FINITE = {
    "x0-nan": ("solve", {**PUT_N2, "dynamics": {"x0": "@"}}, "NaN", "dynamics.x0"),
    "x0-list-nan": (
        "solve", {**PUT_N2, "dynamics": {"x0": ["@"]}}, "NaN", "dynamics.x0"
    ),
    "strike-overflow": (
        "solve", {**PUT_N2, "reward": {"kind": "american-put", "strike": "@"}},
        "1e400", "reward.strike",
    ),
    "t-end-infinity": (
        "solve", {**PUT_N2, "grid": {"t_end": "@", "n_steps": 2}}, "Infinity",
        "grid.t_end",
    ),
    "control-nan": (
        "solve", {**PUT_N2, "controls": {"values": [0.5, "@"]}}, "NaN",
        "controls.values",
    ),
    "demo-strike-nan": (
        "demo", {"demo": {**DEMO_SMALL["demo"], "strikes": [1.0, "@"]}}, "NaN",
        "demo.strikes",
    ),
    "drift-table-inf": (
        "solve",
        {**PUT_N2, "dynamics": {"x0": 1.0, "drift": {
            "kind": "custom-table", "table": [[0.1], ["@"]]}}},
        "-Infinity", "dynamics.drift.table",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_numbers_fail_closed(tmp_path, capsys, case):
    command, cfg, token, key = NON_FINITE[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"@"', token))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err


def test_short_drift_table_is_config_error(tmp_path, capsys):
    cfg = {**PUT_N2, "dynamics": {"x0": 1.0, "drift": {
        "kind": "custom-table", "table": [[0.1]]}}}
    assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
    assert "dynamics.drift.table" in capsys.readouterr().err


# JSON values numpy would read as numbers, an x0 or a drift row of the wrong width
NOT_NUMBERS = {
    "x0-string": ({**PUT_N2, "dynamics": {"x0": ["1.5"]}}, "dynamics.x0"),
    "control-bool": (
        {**PUT_N2, "controls": {"values": [0.5, True], "cap": 1.0}}, "controls.values"
    ),
    "x0-too-long": (
        {**PUT_N2, "dynamics": {"x0": [1.0, 2.0]}}, "dynamics.x0"
    ),
    "x0-empty": ({**PUT_N2, "dynamics": {"x0": []}}, "dynamics.x0"),
    "drift-row-width": (
        {**PUT_N2, "dynamics": {"x0": 1.0, "drift": {
            "kind": "custom-table", "table": [[0.1, 0.2], [0.1, 0.2]]}}},
        "dynamics.drift.table",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_malformed_config_arrays_fail_closed(tmp_path, capsys, case):
    cfg, key = NOT_NUMBERS[case]
    assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
    assert key in capsys.readouterr().err


def test_internal_error_exits_4_with_traceback(tmp_path, capsys, monkeypatch):
    import robuststop.cli as cli

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_solve", broken)
    assert main(["solve", "--config", write_config(tmp_path, INST_A)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_library_value_error_exits_4(tmp_path, capsys, monkeypatch):
    # exit 3 is kept for the size caps and model errors a config can
    # meet; a ValueError from anywhere else is a defect
    import robuststop.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("library defect")

    monkeypatch.setattr(cli, "robust_envelope", broken)
    assert main(["solve", "--config", write_config(tmp_path, INST_A)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: library defect" in err


def test_scalar_reward_on_a_vector_state_is_config_error(tmp_path, capsys):
    cfg = {**PUT_N2, "dynamics": {"x0": [1.0, 1.0]},
           "controls": {"values": [[[1.0, 0.0], [0.0, 1.0]]], "cap": 1.0}}
    assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
    assert "reward.kind" in capsys.readouterr().err


# (command, suite, config, key named): counts and caps below 1, a
# non-positive spread or tolerance, a split off the grid, an empty grid
OUT_OF_RANGE = {
    "n-samples-0": ("verify", "y1", {"verify": {"n_samples": 0}}, "verify.n_samples"),
    "prehistory-pairs-0": (
        "verify", "prehistory", {"verify": {"prehistory_pairs": 0}},
        "verify.prehistory_pairs",
    ),
    "moments-steps-0": (
        "verify", "moments", {"verify": {"moments_steps": 0}}, "verify.moments_steps"
    ),
    "moments-paths-0": (
        "verify", "moments", {"verify": {"moments_paths": 0}}, "verify.moments_paths"
    ),
    "split-past-grid": ("verify", "prehistory", {"verify": {"split": 5}}, "verify.split"),
    "spread-negative": ("verify", "drift", {"verify": {"spread": -1}}, "verify.spread"),
    "t-end-equals-t-start": (
        "solve", None, {"grid": {"t_start": 0.5, "t_end": 0.5, "n_steps": 2}},
        "grid.t_end",
    ),
    "tolerance-negative": ("oracle", None, {"solver": {"tolerance": -1}}, "solver.tolerance"),
    "strategy-cap-negative": (
        "oracle", None, {"solver": {"strategy_cap": -5}}, "solver.strategy_cap"
    ),
    "stop-time-cap-0": ("oracle", None, {"solver": {"stop_time_cap": 0}}, "solver.stop_time_cap"),
    "rule-prefix-cap-0": (
        "oracle", None, {"solver": {"rule_prefix_cap": 0}}, "solver.rule_prefix_cap"
    ),
    "node-cap-0": ("solve", None, {"solver": {"node_cap": 0}}, "solver.node_cap"),
    "demo-t-end-0": ("demo", None, {"demo": {**DEMO_SMALL["demo"], "t_end": 0}}, "demo.t_end"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_numbers_fail_closed(tmp_path, capsys, case):
    command, suite, override, key = OUT_OF_RANGE[case]
    argv = [command, "--config", write_config(tmp_path, {**PUT_N2, **override})]
    if suite is not None:
        argv += ["--suite", suite, "--threads", "1"]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


# The sampled suite on the verify-sampled bench config (d = 1, 4 steps,
# running-max drift, lookback-max reward, default n_samples) and on a
# d = 2 two-matrix config, plain and with --mutate.  moments_paths is
# lowered to keep the run short; everything else is the default.
SAMPLED_D1 = {
    "grid": {"t_end": 1.0, "n_steps": 4},
    "dynamics": {"x0": 1.0, "drift": {"kind": "running-max", "kappa": 1.0}},
    "controls": {"values": [0.5, 1.0], "cap": 1.0},
    "reward": {"kind": "lookback-max"},
    "verify": {"moments_paths": 2000},
}
SAMPLED_D2 = {
    "grid": {"t_end": 1.0, "n_steps": 4},
    "dynamics": {"x0": [0.0, 0.0], "drift": {"kind": "mean-reversion", "rate": 0.5}},
    "controls": {
        "values": [[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.2], [0.2, 0.8]]],
        "cap": 1.2,
    },
    "reward": {"kind": "terminal-abs"},
    "verify": {"moments_paths": 2000},
}
# sha256 of each verify stdout, recorded from the per-draw samplers
SAMPLED_DIGESTS = {
    ("d1", False):
        "fc90b0fb8b4338720482711105a1208412cbbc517f4b3082d0820c83fdb3c0f7",
    ("d1", True):
        "cc4cd5702805d33831e4361e7f831555eb865cb5749a88b64c286351b4c63162",
    ("d2", False):
        "571b9c52fbd13fb95a4fa5880b3b2c7711cf9626c8ff2751414e6d996a6388ea",
    ("d2", True):
        "bde5674751653693a92b9f540025839a4158ac82d0b58e4604c7ad3f0646e0b5",
}


@pytest.mark.parametrize("name, mutate", sorted(SAMPLED_DIGESTS))
def test_sampled_suite_reports_are_pinned(tmp_path, capsys, name, mutate):
    cfg = {"d1": SAMPLED_D1, "d2": SAMPLED_D2}[name]
    argv = ["verify", "--config", write_config(tmp_path, cfg),
            "--suite", "y1,drift,prehistory,moments", "--threads", "1"]
    assert main(argv + ["--mutate"] * mutate) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLED_DIGESTS[name, mutate]


# solve on the three solve-deep bench configs, demo on the demo-wide
# bench config and on a degenerate interval: the sha256 of stdout and of
# every --out file, in name order, recorded before the level loops wrote
# into per-call buffers and demo shared one tree per menu
PINNED_SOLVE = {
    "put": {
        "grid": {"t_end": 1.0, "n_steps": 8},
        "dynamics": {"x0": 1.0, "drift": {"kind": "zero"}},
        "controls": {"values": [0.5, 1.0], "cap": 1.0},
        "reward": {"kind": "american-put", "strike": 1.0},
    },
    "lookback": {
        "grid": {"t_end": 1.0, "n_steps": 8},
        "dynamics": {"x0": 1.0, "drift": {"kind": "running-max", "kappa": 1.0}},
        "controls": {"values": [0.5, 1.0], "cap": 1.0},
        "reward": {"kind": "lookback-max"},
    },
    "d2": {
        "grid": {"t_end": 1.0, "n_steps": 5},
        "dynamics": {"x0": [0.0, 0.0], "drift": {"kind": "mean-reversion", "rate": 0.5}},
        "controls": {
            "values": [[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.2], [0.2, 0.8]]],
            "cap": 1.2,
        },
        "reward": {"kind": "terminal-abs"},
    },
}
PINNED_DEMO = {
    "wide": {"demo": {"base": 1.0, "strikes": [-5.0, 1.0], "sigma_lo": 0.3,
                      "sigma_hi": 0.9, "t_end": 1.0, "n_steps": 4, "widenings": 4}},
    "degenerate": {"demo": {"base": 1.0, "strikes": [0.9, 1.0, 1.1], "sigma_lo": 0.6,
                            "sigma_hi": 0.6, "t_end": 1.0, "n_steps": 4,
                            "widenings": 3}},
}
PINNED_DIGESTS = {
    ("demo", "degenerate"):
        "615e8b582151d492883ab20dfc5368328891b979acc5dcf8797e8dea5309ec8d",
    ("demo", "wide"):
        "bead950531330694d9b16d824e1a1d026dfcb9aff1df325c2b2aae61675b71cf",
    ("solve", "d2"):
        "5e1ac9a560638ebeff2373ce2bd5685d6b3fe47862be846fae715e7fdc0f229e",
    ("solve", "lookback"):
        "83688fd1280378526a0ba980bd2fa033b0c5f25e69debb0362706cc7cc7f09aa",
    ("solve", "put"):
        "ea7ea3fabcd437c71bc99be66ad6fd55ff98a862a6764a4ca39e1ead271b12ef",
}


@pytest.mark.parametrize("command, name", sorted(PINNED_DIGESTS))
def test_solve_and_demo_outputs_are_pinned(tmp_path, capsys, command, name):
    cfg = (PINNED_SOLVE if command == "solve" else PINNED_DEMO)[name]
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(out),
            "--seed", "1"]
    assert main(argv) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode())
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert h.hexdigest() == PINNED_DIGESTS[command, name]
