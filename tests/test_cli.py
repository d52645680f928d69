"""Config-driven front end: fail-closed parsing, the four subcommands,
exit codes, and byte-identical reruns."""

import filecmp
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import robuststop
from robuststop import (
    ControlSet,
    DriftSpec,
    TimeGrid,
    american_put,
    expand_tree,
    robust_envelope,
)
from robuststop.cli import _build_parser, _expand, _instance, _parse_args, main
from conftest import random_instance
from referees import solution_tau

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


def test_oracle_agrees_at_a_large_value_scale(tmp_path, capsys):
    # at t_end 1e20 the game's values reach 2.2e9, and saddle_value, a
    # forward fsum in another order than the strategy table's fold, lies
    # one ulp above upper: the gaps are bounded relative to that scale
    cfg = {**PUT_N2, "grid": {"t_start": 0.0, "t_end": 1e20, "n_steps": 3}}
    code, report = run(capsys, "oracle", "--config", write_config(tmp_path, cfg))
    assert code == 0
    assert report["agree"] and report["saddle"]
    assert report["lower"] == report["upper"] == report["envelope_root"] == 2165063509.4610963
    assert report["saddle_value"] == math.nextafter(report["upper"], math.inf)


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


def test_oracle_zero_game_past_the_default_stop_time_cap_exits_3(tmp_path, capsys, alarm):
    # every payoff -0.0 on the 4-step put, whose root fold alone would
    # take 104 GiB: a zero lower value is read off the whole table, so a
    # raised cap is refused before the fold is built (it exited 4)
    cfg = {
        **PUT_N2,
        "grid": {"t_end": 1.0, "n_steps": 4},
        "reward": {"kind": "american-put", "strike": 1.0, "scale": -0.0},
        "solver": {"stop_time_cap": 1e20},
    }
    alarm(5.0)
    start = time.perf_counter()
    code = main(["oracle", "--config", write_config(tmp_path, cfg)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3, err
    assert elapsed < 1.0
    assert "about 10^19 stopping times exceed the cap 500000" in err
    assert "solver.stop_time_cap" in err


@pytest.mark.parametrize("n_steps, controls", [
    (4, [0.5, 1.0]),
    (3, [0.25, 0.5, 0.75, 1.0]),
])
def test_oracle_stop_time_cap_past_what_the_fold_holds_exits_3(
    tmp_path, capsys, alarm, n_steps, controls
):
    # about 10^19 stopping sets on each, under a raised cap: the 4-step
    # put's root fold would take 104 GiB and the 3-step four-control
    # tree's slab over 32 GiB, so both are refused before the fold (they
    # exited 4)
    cfg = {
        **PUT_N2,
        "grid": {"t_end": 1.0, "n_steps": n_steps},
        "controls": {"values": controls, "cap": 1.0},
        "solver": {"stop_time_cap": 1e20},
    }
    alarm(5.0)
    start = time.perf_counter()
    code = main(["oracle", "--config", write_config(tmp_path, cfg)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3, err
    assert elapsed < 1.0
    assert "bytes of stopping-set fold exceed the cap 1073741824" in err
    assert "solver.stop_time_cap" in err


def test_oracle_stop_time_cap_past_the_slab_work_budget_exits_3(tmp_path, capsys, alarm):
    # 7.5 * 10^10 stopping sets on the 3-step three-control put, under a
    # raised cap: the fold and one 143 MB slab fit in game._HELD_BYTES,
    # but reducing all of them takes minutes (it ran past any timeout)
    cfg = {
        **PUT_N2,
        "grid": {"t_end": 1.0, "n_steps": 3},
        "controls": {"values": [0.5, 0.75, 1.0], "cap": 1.0},
        "solver": {"stop_time_cap": 1e20},
    }
    alarm(5.0)
    start = time.perf_counter()
    code = main(["oracle", "--config", write_config(tmp_path, cfg)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3, err
    assert elapsed < 1.0
    assert "75418890625 entries of stopping-set min grid exceed the cap 268435456" in err
    assert "solver.stop_time_cap" in err


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


def test_tau_mutation_shows_past_the_delta_slack(tmp_path, capsys):
    # a one-control, one-step certify pool instance at delta 0.5: its root
    # stops with z 0.38 above y, the value of stopping there, so a shift
    # of z by -0.1 alone would stay inside the delta the tau check allows
    cfg = {
        "grid": {"t_end": 0.5, "n_steps": 1},
        "dynamics": {"x0": 1.0643688288659674,
                     "drift": {"kind": "custom-table", "table": [[-0.32234063425628845]]}},
        "controls": {"values": [1.298], "cap": 2.0},
        "reward": {"kind": "lookback-max", "base": -0.03422858449433208},
        "solver": {"delta": 0.5},
    }
    path = write_config(tmp_path, cfg)
    code, report = run(capsys, "verify", "--config", path, "--suite", "tau")
    assert code == 0 and report["checks"]["tau"]["passed"]
    code, report = run(capsys, "verify", "--config", path, "--suite", "tau", "--mutate")
    assert code == 0 and report["ok"]
    assert not report["checks"]["tau"]["passed"]


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


def test_sampled_gaps_at_d1_do_not_overflow(tmp_path, capsys):
    # at d = 1 check_drift's sup gap and the pre-history distance are
    # |gap|, as in dist_dinfty: squared, a gap near 1e200 overflows, a
    # warning that exits 4 here, and the inf gap left the Lipschitz term
    # at -inf and kappa_fit at 0.0, so the drift mutation went through
    cfg = {
        **SMALL_VERIFY,
        "dynamics": {"x0": 1.0, "drift": {"kind": "mean-reversion", "rate": 0.5}},
        "verify": {**SMALL_VERIFY["verify"], "spread": 1e200},
    }
    argv = ["verify", "--config", write_config(tmp_path, cfg), "--suite", "drift,prehistory"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run(capsys, *argv)
        assert (code, report["all_passed"]) == (0, True)
        assert report["checks"]["prehistory"]["details"]["kappa_fit"] > 0.0
        code, report = run(capsys, *argv, "--mutate")
    assert (code, report["ok"]) == (0, True)
    assert not any(c["passed"] for c in report["checks"].values())


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


def test_log_level_applies_on_every_call_and_leaves_the_root_logger(
    tmp_path, capsys, monkeypatch
):
    import logging

    cfg = write_config(tmp_path, INST_A)
    root = logging.getLogger()
    # a host that logs from its root logger sees no robuststop line twice
    host = logging.Handler(logging.DEBUG)
    host.emit = lambda record: pytest.fail(f"the root logger got {record.getMessage()!r}")
    root.addHandler(host)
    handlers, level = list(root.handlers), root.level
    monkeypatch.setenv("ROBUSTSTOP_LOG", "warn")
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("ROBUSTSTOP_LOG", "info")
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().err == "robuststop INFO expanded tree with 5 nodes\n"
    monkeypatch.setenv("ROBUSTSTOP_LOG", "error")
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    assert (root.handlers, root.level) == (handlers, level)
    root.removeHandler(host)
    assert len(logging.getLogger("robuststop").handlers) == 1


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


USAGE = "usage: robuststop [-h] {solve,oracle,verify,demo} ...\n"
VERIFY_USAGE = (
    "usage: robuststop verify [-h] --config CONFIG [--out OUT] [--seed SEED]\n"
    "                         [--threads THREADS] [--suite SUITE] [--mutate]\n"
)
# (argv, exit code, stdout, stderr) of argparse's usage errors and help,
# as the two-pass parse through the top-level parser gave them; argparse
# words them alike on Python 3.10 to 3.13
USAGE_PINS = {
    "no-command": ([], 2, "", USAGE + (
        "robuststop: error: the following arguments are required: command\n")),
    "unknown-command": (["bogus"], 2, "", USAGE + (
        "robuststop: error: argument command: invalid choice: 'bogus' "
        "(choose from 'solve', 'oracle', 'verify', 'demo')\n")),
    "no-config": (["solve"], 2, "", (
        "usage: robuststop solve [-h] --config CONFIG [--out OUT] [--seed SEED]\n"
        "robuststop solve: error: the following arguments are required: --config\n")),
    "bad-threads": (["verify", "--config", "c.json", "--threads", "x"], 2, "", VERIFY_USAGE + (
        "robuststop verify: error: argument --threads: invalid int value: 'x'\n")),
    "leftover": (["oracle", "--config", "c.json", "--bogus"], 2, "", USAGE + (
        "robuststop: error: unrecognized arguments: --bogus\n")),
    "help": (["--help"], 0, USAGE + (
        "\n"
        "worst-case optimal stopping on scenario trees\n"
        "\n"
        "positional arguments:\n"
        "  {solve,oracle,verify,demo}\n"
        "    solve               backward envelope sweep with slice summaries\n"
        "    oracle              exhaustive game enumeration against the sweep\n"
        "    verify              run structural checks from a config\n"
        "    demo                American put under a volatility interval\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), ""),
    "verify-help": (["verify", "--help"], 0, VERIFY_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --config CONFIG    JSON config path\n"
        "  --out OUT          directory for report and CSVs\n"
        "  --seed SEED        base seed (u64)\n"
        "  --threads THREADS  ignored: checks run in order (must be >= 1)\n"
        "  --suite SUITE      comma-separated checks: y1, drift, envelope,\n"
        "                     supermartingale, martingale, dpp, dpp-random, tau,\n"
        "                     prehistory, moments or 'all'\n"
        "  --mutate           run each check on a broken input and demand rejection\n"), ""),
}


@pytest.mark.parametrize("case", list(USAGE_PINS))
def test_usage_errors_and_help_are_pinned(monkeypatch, capsys, case):
    argv, code, out, err = USAGE_PINS[case]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "c.json"],
    ["oracle", "--seed", "7", "--config=c.json", "--out", "o"],
    ["verify", "--config", "c.json", "--threads", "-3", "--suite", "y1,tau", "--mutate"],
    ["demo", "--conf", "c.json", "--seed", "-1"],
    ["verify", "--config", "c.json", "--", "--mutate"],
])
def test_arguments_parse_as_the_top_level_parser_parses_them(capsys, argv):
    # a command's arguments go straight to its sub-parser; what the
    # top-level parser would make of them is the reference
    parser, _ = _build_parser()
    try:
        expected = vars(parser.parse_args(argv))
    except SystemExit as exc:
        expected = exc.code
    reference = capsys.readouterr()
    try:
        got = vars(_parse_args(argv))
    except SystemExit as exc:
        got = exc.code
    assert got == expected
    assert capsys.readouterr() == reference


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


def entry(*argv, timeout=120, flags=()):
    """python flags -m robuststop argv in a subprocess, on this package."""
    src = os.path.dirname(os.path.dirname(robuststop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "robuststop", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, timeout=timeout)


def test_one_shot_entry_point_matches_main(tmp_path, capsys):
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
    # DEMO_SMALL keeps five trees, which hold 85 nodes together: the
    # robust two-control tree has 21, the two classic trees and the
    # one-control widening menu 7 each, and the three-control one 43
    for cap, code in ((None, 0), (85, 0), (84, 3), (43, 3), (42, 3), (10, 3)):
        cfg = DEMO_SMALL if cap is None else {**DEMO_SMALL, "solver": {"node_cap": cap}}
        assert main(["demo", "--config", write_config(tmp_path, cfg)]) == code
        err = capsys.readouterr().err
        assert ("solver.node_cap" in err) == ("demo.widenings" in err) == (code == 3)


def test_demo_bounds_its_widenings_before_expanding(tmp_path, capsys, monkeypatch):
    # a billion widenings are refused before the first tree is expanded,
    # by the row cap, whose message names solver.node_cap as bounding the
    # trees only
    import robuststop.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a tree was expanded")

    monkeypatch.setattr(cli, "expand_recombined", refuse)
    cfg = {"demo": {**DEMO_SMALL["demo"], "widenings": 10**9}}
    assert main(["demo", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "demo.widenings" in err and "solver.node_cap" in err


@pytest.mark.parametrize("widenings", [1e20, 1e300, 10**400], ids=["1e20", "1e300", "10**400"])
def test_demo_bounds_its_rows_before_the_widening_loop(tmp_path, capsys, monkeypatch,
                                                       alarm, widenings):
    # (widenings + 1) rows per strike over cli.DEMO_ROW_CAP are refused at
    # once; at 10^300 no edge leaves mid for about 10^283 steps, so no
    # node cap could stop the loop
    import robuststop.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a tree was expanded")

    monkeypatch.setattr(cli, "expand_recombined", refuse)
    cfg = {"demo": {**DEMO_SMALL["demo"], "widenings": widenings}}
    alarm(2.0)
    code = main(["demo", "--config", write_config(tmp_path, cfg)])
    alarm(0)
    assert code == 3
    err = capsys.readouterr().err
    assert "widening rows" in err and "demo.widenings" in err


def test_demo_row_cap_counts_every_strike(tmp_path, capsys, monkeypatch):
    import robuststop.cli as cli

    monkeypatch.setattr(cli, "DEMO_ROW_CAP", 12)
    for widenings, code in ((5, 0), (6, 3)):
        cfg = {"demo": {**DEMO_SMALL["demo"], "strikes": [0.9, 1.1], "widenings": widenings}}
        assert main(["demo", "--config", write_config(tmp_path, cfg)]) == code
        assert ("demo.widenings" in capsys.readouterr().err) == (code == 3)


@pytest.mark.parametrize("t_end, n_steps, code", [(5e-324, 2, 2), (5e-324, 3, 2),
                                                  (5e-324, 1, 0), (1e-310, 2, 0)])
def test_demo_refuses_a_step_that_underflows(tmp_path, capsys, t_end, n_steps, code):
    # demo's grid passes the step check that build_grid uses, but, as it
    # always has, takes a subnormal step: only a step that rounds to 0.0,
    # which has no kernel, is refused
    cfg = {"demo": {**DEMO_SMALL["demo"], "t_end": t_end, "n_steps": n_steps}}
    assert main(["demo", "--config", write_config(tmp_path, cfg)]) == code
    err = capsys.readouterr().err
    assert ("demo.t_end" in err and "demo.n_steps" in err) == (code == 2)


@pytest.mark.parametrize("lo, hi", [(1e308, 1e308), (1e-300, 1.0)])
def test_demo_refuses_widening_edges_it_cannot_hold(tmp_path, capsys, monkeypatch, lo, hi):
    # at 1e308 the midpoint (lo + hi) / 2 overflows and every edge is
    # NaN; at 1e-300 the last lower edge mid + (lo - mid) rounds to 0.0.
    # No control can take either edge, so the config is refused before
    # any tree is expanded
    import robuststop.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a tree was expanded")

    monkeypatch.setattr(cli, "expand_recombined", refuse)
    cfg = {"demo": {**DEMO_SMALL["demo"], "sigma_lo": lo, "sigma_hi": hi}}
    assert main(["demo", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "demo.sigma_lo" in err and "demo.sigma_hi" in err


def _count_sweeps(monkeypatch):
    # one entry per backward_sweep call demo makes: the tree's id and the
    # menus of its columns, each the tuple of its allowed controls
    import robuststop.cli as cli

    swept, sweep = [], cli.backward_sweep

    def call(tree, *args, allowed, **kwargs):
        scalars = tree.controls.scalars()
        swept.append((id(tree), [tuple(u for u, on in zip(scalars, col) if on)
                                 for col in allowed[0].T]))
        return sweep(tree, *args, allowed=allowed, **kwargs)

    monkeypatch.setattr(cli, "backward_sweep", call)
    return swept


def test_demo_expands_each_menu_once(tmp_path, capsys, monkeypatch):
    # two strikes and 4 widenings: the robust menu, two singles and five
    # widening menus, all held by the last widening menu, whose edges
    # land on sigma_lo and sigma_hi.  So that nine-control menu is the one
    # tree expanded, and each strike sweeps it once with the eight menus
    # as columns
    import robuststop.cli as cli

    menus, expand = [], cli.expand_recombined

    def counting(grid, x0, drift, controls, **kwargs):
        menus.append(tuple(controls.scalars()))
        return expand(grid, x0, drift, controls, **kwargs)

    monkeypatch.setattr(cli, "expand_recombined", counting)
    swept = _count_sweeps(monkeypatch)
    cfg = write_config(tmp_path, PINNED_DEMO["wide"])
    assert main(["demo", "--config", cfg]) == 0
    assert len(json.loads(capsys.readouterr().out)["values"]) == 2
    assert [len(menu) for menu in menus] == [9]
    assert len(swept) == 2 and swept[0] == swept[1]
    columns = swept[0][1]
    assert len(columns) == len(set(columns)) == 8
    assert sorted(map(len, columns)) == [1, 1, 1, 2, 3, 5, 7, 9]
    assert all(set(col) <= set(menus[0]) for col in columns)


def test_demo_sweeps_a_menu_the_robust_one_repeats_once(tmp_path, capsys, monkeypatch):
    # sigma_hi is the float after sigma_lo, so mid rounds to sigma_lo and
    # the five widening menus are {lo} and, once an edge rounds up to hi,
    # the robust menu {lo, hi}: one tree, swept once per strike with three
    # columns, the robust menu and the singles {lo} and {hi}
    swept = _count_sweeps(monkeypatch)
    lo, hi = 1.0, float(np.nextafter(1.0, 2.0))
    cfg = {"demo": {**PINNED_DEMO["wide"]["demo"], "sigma_lo": lo, "sigma_hi": hi}}
    assert main(["demo", "--config", write_config(tmp_path, cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["widening_monotone"]
    assert len(swept) == 2 and swept[0] == swept[1]
    assert sorted(swept[0][1]) == [(lo,), (lo, hi), (hi,)]


def test_demo_sweeps_a_degenerate_interval_once_per_strike(tmp_path, capsys, monkeypatch):
    # with sigma_lo == sigma_hi every widening menu is the robust menu, so
    # 20,001 widening rows per strike read the root of one one-column
    # sweep; the widening.csv digest is the one recorded when each row
    # swept its tree again
    swept = _count_sweeps(monkeypatch)
    cfg = {"demo": {"strikes": [0.9, 1.1], "sigma_lo": 0.6, "sigma_hi": 0.6,
                    "n_steps": 1, "widenings": 20_000}}
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["demo", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert [columns for _, columns in swept] == [[(0.6,)], [(0.6,)]]
    assert elapsed < 5.0
    digest = hashlib.sha256((out / "widening.csv").read_bytes()).hexdigest()
    assert digest == "fda265c86e7fda972ac1b2326fbed6cbe2e3af1336a594fd56221af3833e8fa4"


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


@pytest.mark.parametrize("text, verdict", [
    ("[0.5, [1, 2]]", "hold numbers"),      # ragged
    ("[NaN, [1, 2]]", "hold numbers"),      # ragged before non-finite
    ("[NaN, \"1.5\"]", "hold numbers"),     # a string before non-finite
    ("[1e400, true]", "hold numbers"),      # a bool before non-finite
    ("[NaN, 1" + "0" * 400 + "]", "hold numbers"),  # an int past the float range
    ("[[1.0, -Infinity], [3, 4]]", "be finite"),
    ("[1e400]", "be finite"),
])
def test_config_arrays_report_a_non_number_before_a_non_finite_one(text, verdict):
    from robuststop.cli import ConfigError, _finite_array

    with pytest.raises(ConfigError, match=f"^k must {verdict}, got "):
        _finite_array(json.loads(text), "k")


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


def test_non_square_control_is_config_error_with_or_without_a_cap(tmp_path, capsys):
    # the default cap comes from the eigenvalues ControlSet takes after
    # checking the shape; without a cap this exited 4 with a LinAlgError
    for controls in ({"values": [[1.0, 2.0]]}, {"values": [[1.0, 2.0]], "cap": 1.0}):
        cfg = {**PUT_N2, "controls": controls}
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "bad controls: control must be a square matrix" in capsys.readouterr().err


def test_sampled_checks_fail_on_nan_values(tmp_path):
    # 10 * (1e308 - x) overflows the put's payoff to inf, so the y1 and
    # prehistory violations are inf - inf = NaN; numpy's overflow warning
    # is an error under pytest, so the run goes in a subprocess
    cfg = {"grid": {"t_end": 1.0, "n_steps": 4}, "dynamics": {"x0": 1.0},
           "controls": {"values": [0.5]},
           "reward": {"kind": "american-put", "strike": 1e308, "scale": 10}}
    done = entry("verify", "--config", write_config(tmp_path, cfg), "--suite",
                 "y1,prehistory")
    assert done.returncode == 1
    report = json.loads(done.stdout)
    assert sorted(report["checks"]) == ["prehistory", "y1"]
    for check in report["checks"].values():
        assert check["passed"] is False
        assert math.isnan(check["worst"])
    assert report["all_passed"] is False and report["ok"] is False


# rounding error grows with the values compared: with an absolute 1e-12
# a correct put failed y1 from reward.scale 2e3 (worst 1.36e-12), and a
# mean-reversion drift at rate = kappa = 5e3 failed drift (3.64e-12)
@pytest.mark.parametrize("suite, scale", [("y1", s) for s in (2e3, 1e6, 1e9, 1e100, 1e307)]
                         + [("drift", s) for s in (5e3, 1e6, 1e9, 1e100, 1e307)])
def test_sampled_checks_pass_at_any_value_scale(tmp_path, capsys, suite, scale):
    cfg = {"grid": {"t_end": 1.0, "n_steps": 4}, "dynamics": {"x0": 1.0},
           "controls": {"values": [0.5, 1.0], "cap": 1.0},
           "reward": {"kind": "american-put", "strike": 1.1}}
    if suite == "y1":
        cfg["reward"]["scale"] = scale
    else:
        cfg["dynamics"]["drift"] = {"kind": "mean-reversion", "rate": scale, "kappa": scale}
    argv = ["verify", "--config", write_config(tmp_path, cfg), "--suite", suite]
    code, report = run(capsys, *argv)
    check = report["checks"][suite]
    assert (code, check["passed"]) == (0, True), check
    # past the absolute floor, and within 16 ulps of a few times the scale
    assert 1e-12 < check["worst"] <= check["tolerance"] < 1e-13 * scale
    code, report = run(capsys, *argv, "--mutate")
    assert (code, report["ok"], report["checks"][suite]["passed"]) == (0, True, False)


def test_solve_near_the_float_range_warns_nothing(tmp_path):
    # at d = 1 the stop boundary's least state norm is the least |x|, so
    # states near 1e300 give their size there, where squaring them
    # overflowed to inf with a numpy warning (exit 4 under -W error)
    cfg = {"grid": {"t_end": 1.0, "n_steps": 3},
           "dynamics": {"x0": 1e300, "drift": {"kind": "running-max", "kappa": 1.0}},
           "controls": {"values": [0.5, 1.0], "cap": 1.0},
           "reward": {"kind": "american-put", "strike": 1.0}}
    done = entry("solve", "--config", write_config(tmp_path, cfg), flags=("-W", "error"))
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    boundary = json.loads(done.stdout)["stop_boundary"]
    assert [row["min_abs_state"] for row in boundary] == [1e300] * 4


def test_solve_level_means_near_the_float_range_warn_nothing(tmp_path, capsys):
    # a put struck at the largest float holds z there at every node, so a
    # level's plain sum overflowed: z_mean read Infinity at levels 1 to 3,
    # with a numpy warning (exit 4 under warnings as errors)
    top = 1.7976931348623157e308
    cfg = {"grid": {"t_end": 1.0, "n_steps": 3},
           "dynamics": {"x0": 1.0, "drift": {"kind": "zero"}},
           "controls": {"values": [0.5, 1.0], "cap": 1.0},
           "reward": {"kind": "american-put", "strike": top, "base": 0}}
    code, report = run(capsys, "solve", "--config", write_config(tmp_path, cfg))
    assert code == 0
    assert [s["z_mean"] for s in report["slices"]] == [top] * 4


def test_solve_least_stopped_norm_past_the_square_range(tmp_path, capsys):
    # at d = 2 a state of 1e200 squares past the float range: the stop
    # boundary read Infinity at every level, with a numpy warning (exit 4
    # under warnings as errors), where the norm is 1e200
    cfg = {"grid": {"t_end": 1.0, "n_steps": 2},
           "dynamics": {"x0": [1e200, 0.0], "drift": {"kind": "zero"}},
           "controls": {"values": [[[1.0, 0.0], [0.0, 1.0]]]},
           "reward": {"kind": "constant", "value": 1.0}}
    code, report = run(capsys, "solve", "--config", write_config(tmp_path, cfg))
    assert code == 0
    assert [row["min_abs_state"] for row in report["stop_boundary"]] == [1e200] * 3


def test_terminal_abs_near_the_float_range_warns_nothing(tmp_path):
    # at d = 1 the payoff's state norm is |x|, so states near 1e300 give
    # their size; a square would overflow to an inf y, whose NaN z - y
    # leaves argmin -1 at a node and fails the control count (exit 4)
    cfg = {"grid": {"t_end": 1.0, "n_steps": 3},
           "dynamics": {"x0": 1e300, "drift": {"kind": "running-max", "kappa": 1.0}},
           "controls": {"values": [0.5, 1.0], "cap": 1.0},
           "reward": {"kind": "terminal-abs"}}
    done = entry("solve", "--config", write_config(tmp_path, cfg), flags=("-W", "error"))
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    assert json.loads(done.stdout)["root_value"] == 1e300


@pytest.mark.parametrize("argv", [
    ("solve",), ("oracle",),
    *(("verify", "--suite", s) for s in
      ("envelope", "supermartingale", "martingale", "dpp", "dpp-random", "tau")),
], ids=lambda argv: argv[-1])
def test_rewards_past_the_float_range_are_a_config_error(tmp_path, capsys, argv):
    # at d = 2 the terminal-abs payoff squares the state, which overflows
    # past about 1.3e154: an inf reward at every node left argmin -1 and
    # no node stopping, so solve and the martingale check crashed (exit 4)
    # and the other commands failed.  Such a tree is refused, quietly
    # under warnings as errors, and a state just below the overflow runs
    for x, code in ((1e200, 2), (-1e200, 2), (1e154, 0)):
        cfg = {"grid": {"t_end": 1.0, "n_steps": 2},
               "dynamics": {"x0": [x, 0.0], "drift": {"kind": "zero"}},
               "controls": {"values": [[[1.0, 0.0], [0.0, 1.0]]]},
               "reward": {"kind": "terminal-abs"}}
        assert main([*argv, "--config", write_config(tmp_path, cfg)]) == code
        err = capsys.readouterr().err
        assert ("dynamics.x0" in err and "reward.scale" in err) == (code == 2), err


def test_demo_payoffs_past_the_float_range_are_a_config_error(tmp_path, capsys):
    # the put's strike - (base + x) overflows when a strike and base are
    # far apart: every value printed as Infinity and the run exited 0, or
    # 4 under warnings as errors.  Such a run is refused before it prints
    # anything, even after a strike that fits, and one that fits runs
    for strikes, base, code in (([1e308], -1e308, 2), ([1.0, 1e308], -1e308, 2),
                                ([1e307], -1e307, 0)):
        cfg = {"demo": {"base": base, "strikes": strikes, "sigma_lo": 0.3, "sigma_hi": 0.9}}
        assert main(["demo", "--config", write_config(tmp_path, cfg)]) == code
        out, err = capsys.readouterr()
        assert ("demo.base" in err and "demo.strikes" in err) == (code == 2), err
        assert (out == "") == (code == 2)


def test_demo_states_past_the_float_range_are_a_config_error(tmp_path, capsys):
    # sigma_hi 8e307 over t_end 1e300 in 2 steps: a child state overflows
    # to inf and its children add inf and -inf, a NaN.  That warned
    # "invalid value" (exit 4 under warnings as errors), then the NaN
    # rewards were refused naming demo.base and demo.strikes.  The tree
    # is refused before any reward, naming the keys that set its states
    cfg = {"demo": {"strikes": [1.0], "sigma_lo": 1e307, "sigma_hi": 8e307,
                    "t_end": 1e300, "n_steps": 2}}
    assert main(["demo", "--config", write_config(tmp_path, cfg)]) == 2
    out, err = capsys.readouterr()
    assert "demo.sigma_hi" in err and "demo.t_end" in err and "demo.base" not in err, err
    assert out == ""


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_huge_n_steps_hits_the_node_cap_at_once(tmp_path, command):
    # a level-by-level count of 10^300 levels never ends, so the run goes
    # in a subprocess that a timeout stops
    cfg = {**PUT_N2, "grid": {"t_end": 1.0, "n_steps": 1e300}}
    done = entry(command, "--config", write_config(tmp_path, cfg), timeout=20)
    assert done.returncode == 3
    assert b"solver.node_cap" in done.stderr
    assert b"about 10^60205999132796" in done.stderr


# (command, suite, config, key named): counts and caps below 1, a
# non-positive spread (also where no check of the suite reads it) or
# tolerance, a split or dpp_s off the grid, a barrier that is not a
# number, an empty grid, a step that underflows to 0.0 or an n_steps
# past the float range
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
    "spread-negative-envelope": (
        "verify", "envelope", {"verify": {"spread": -1}}, "verify.spread"
    ),
    "dpp-s-past-grid": ("verify", "dpp", {"verify": {"dpp_s": 5}}, "verify.dpp_s"),
    "barrier-not-a-number": (
        "verify", "dpp-random", {"verify": {"barrier": "high"}}, "verify.barrier"
    ),
    "t-end-equals-t-start": (
        "solve", None, {"grid": {"t_start": 0.5, "t_end": 0.5, "n_steps": 2}},
        "grid.t_end",
    ),
    "t-end-underflows-solve": (
        "solve", None, {"grid": {"t_end": 5e-324, "n_steps": 3}}, "grid.t_end"
    ),
    "t-end-underflows-oracle": (
        "oracle", None, {"grid": {"t_end": 5e-324, "n_steps": 3}}, "grid.t_end"
    ),
    "n-steps-past-the-float-range": (
        "solve", None, {"grid": {"t_end": 1e10, "n_steps": 10**400}}, "grid.n_steps"
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


@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
def test_states_past_the_float_range_are_a_config_error(tmp_path, capsys, command):
    # finite keys whose tree overflows: the states turn inf and NaN, and
    # the commands reported values of them (at 3 steps solve's control
    # count and the oracle's minimax assertion met them as exit 4);
    # numpy still warns about the overflow on its way
    drift = {"kind": "mean-reversion", "rate": 1e300}
    cfg = {**PUT_N2, "dynamics": {"x0": 1.0, "drift": drift}}
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main([command, "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "overflow the float range" in capsys.readouterr().err


# (suite, verify keys, key named, grid.n_steps): sampled checks whose
# work exceeds its cap in verify.py.  Before the caps the moments cases
# asked numpy for terabytes (exit 4) and the others ran for hours; on a
# grid of 10^6 steps y1 and drift asked for a 30.5 GiB chunk of random
# words (exit 4), and 10^7 draws on 1,000 steps read 2e10 words.
OVER_WORK_CAP = {
    "moments-paths-1e12": ("moments", {"moments_paths": 1e12}, "verify.moments_paths", 2),
    "moments-paths-1e20": ("moments", {"moments_paths": 1e20}, "verify.moments_paths", 2),
    "moments-steps-1e12": ("moments", {"moments_steps": 1e12}, "verify.moments_steps", 2),
    "n-samples-1e12-y1": ("y1", {"n_samples": 1e12}, "verify.n_samples", 2),
    "n-samples-1e12-drift": ("drift", {"n_samples": 1e12}, "verify.n_samples", 2),
    "prehistory-pairs-1e12": (
        "prehistory", {"prehistory_pairs": 1e12}, "verify.prehistory_pairs", 2
    ),
    "n-steps-1e6-y1": ("y1", {}, "grid.n_steps", 10**6),
    "n-steps-1e6-drift": ("drift", {}, "grid.n_steps", 10**6),
    "words-1e7-draws-y1": (
        "y1", {"n_samples": 10**7}, "verify.n_samples or grid.n_steps", 1000
    ),
    "words-1e7-draws-drift": (
        "drift", {"n_samples": 10**7}, "verify.n_samples or grid.n_steps", 1000
    ),
}


@pytest.mark.parametrize("mutate", [False, True])
@pytest.mark.parametrize("case", sorted(OVER_WORK_CAP))
def test_sampled_work_over_its_cap_exits_3_at_once(tmp_path, capsys, alarm, case, mutate):
    suite, keys, key, n_steps = OVER_WORK_CAP[case]
    cfg = {**PUT_N2, "grid": {"t_end": 1.0, "n_steps": n_steps}, "verify": keys}
    argv = ["verify", "--config", write_config(tmp_path, cfg),
            "--suite", suite] + ["--mutate"] * mutate
    alarm(5.0)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3, err
    assert elapsed < 1.0
    assert key in err and "exceed the cap" in err


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
        "c18e9b5abd9cc7213be6e7e1d713e42d9a431ab645572a4dbdd228019e57ef15",
    ("demo", "wide"):
        "0dd43f2cef7d0e77f55bf55219cb6361e99c17576ca6ec97d1185375d94895e5",
    ("solve", "d2"):
        "5e1ac9a560638ebeff2373ce2bd5685d6b3fe47862be846fae715e7fdc0f229e",
    ("solve", "lookback"):
        "83688fd1280378526a0ba980bd2fa033b0c5f25e69debb0362706cc7cc7f09aa",
    ("solve", "put"):
        "df707cc601ba2ec9f064ead304d3287ea31901fb0258a4294964ad7ce6afc221",
}


def test_tau_extent_is_the_scenario_maps_summary():
    # solve's tau* summary, read without the scenario map, on the 200
    # acceptance instances (plain and at delta 0.5), the three solve-deep
    # configs, the 384 certify pool instances, a tree resumed from a
    # stored history (k0 = 1), and NaN leaves, where no continuation is
    # finite and the walk follows argmin -1 to the last control
    sols = []
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        tree, Y = random_instance(rng)
        sols += [robust_envelope(tree, Y), robust_envelope(tree, Y, delta=0.5)]
    for cfg in [*PINNED_SOLVE.values(), *_certify_pool()]:
        inst = _instance(cfg)
        sols.append(robust_envelope(_expand(inst), inst.Y))
    controls = ControlSet([0.5, 1.0], cap=1.0)
    resumed = expand_tree(TimeGrid(0.0, 1.0, 3), None, DriftSpec("zero"), controls,
                          init_prefix=[[0.0], [1.1]])
    sols.append(robust_envelope(resumed, american_put(strike=1.0, base=0.0)))
    put = expand_tree(TimeGrid(0.0, 1.0, 3), 1.0, DriftSpec("zero"), controls)
    y = np.zeros(put.n_nodes)
    y[put.offsets[-2]:] = np.nan
    sols.append(robust_envelope(put, y))
    assert (sols[-1].argmin_control[: put.offsets[-2]] == -1).all()
    for sol in sols:
        tau = solution_tau(sol)
        assert sol.tau_extent() == (len(tau), min(tau.values()), max(tau.values()))
    assert sols[-2].tau_extent()[1] >= 1


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


@pytest.mark.parametrize("name, n_steps", [("put", 5), ("d2", 4)])
def test_stop_boundary_is_the_least_norm_of_the_stopped_rows(tmp_path, capsys, name,
                                                             n_steps):
    # a level with no stopped node reports "", any other the least
    # np.linalg.norm among its stopped rows, gathered out, bit for bit
    cfg = {**PINNED_SOLVE[name], "grid": {"t_end": 1.0, "n_steps": n_steps}}
    code, report = run(capsys, "solve", "--config", write_config(tmp_path, cfg))
    assert code == 0
    inst = _instance(cfg)
    tree = _expand(inst)
    sol = robust_envelope(tree, inst[4])
    got = [row["min_abs_state"] for row in report["stop_boundary"]]
    want = []
    for k in range(n_steps + 1):
        rows = tree.states_at(k)[sol.stop[tree.level(k)]]
        want.append(min(float(np.linalg.norm(r)) for r in rows) if len(rows) else "")
    assert "" in want and want.count("") < len(want)
    assert [repr(v) for v in got] == [repr(v) for v in want]


# the n = 8 two-control put with strike 1.1 at a given reward.scale
def _scaled_put(scale):
    return {**PINNED_SOLVE["put"],
            "reward": {"kind": "american-put", "strike": 1.1, "scale": scale}}


def test_solve_reports_the_same_tau_star_at_a_tiny_reward_scale(tmp_path, capsys):
    # tau* is where z meets y, which scaling the reward leaves in place:
    # at scale 1e-12 every z - y is below 1e-12, yet the root stops only
    # where it stops at scale 1
    for scale in (1.0, 1e-12):
        code, report = run(capsys, "solve", "--config", write_config(tmp_path, _scaled_put(scale)))
        assert code == 0
        assert report["tau_star"] == {"earliest": 4, "latest": 8, "n_scenarios": 126}


def test_verify_mutate_rejects_at_a_large_reward_scale(tmp_path, capsys):
    # at scale 1e12 the 0.1 mutations are far below max |y|, and every
    # tree check, tau's included, still rejects its broken input
    code, report = run(capsys, "verify", "--suite", GAME_SUITE, "--mutate",
                       "--config", write_config(tmp_path, _scaled_put(1e12)))
    assert code == 0
    assert not any(c["passed"] for c in report["checks"].values())


@pytest.mark.parametrize("name", sorted(PINNED_DEMO))
def test_demo_widening_values_are_the_envelope_root(tmp_path, capsys, name):
    # each widening row's value is robust_envelope's root value, bit for
    # bit, on the nested menu the rows up to it build
    sec = PINNED_DEMO[name]["demo"]
    out = tmp_path / "out"
    assert main(["demo", "--config", write_config(tmp_path, PINNED_DEMO[name]),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    grid = TimeGrid(0.0, sec["t_end"], sec["n_steps"])
    rows = [line.split(",") for line in (out / "widening.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(sec["strikes"]) * (sec["widenings"] + 1)
    vols = []
    for strike, step, lo, hi, size, value in rows:
        if step == "0":
            vols = [(sec["sigma_lo"] + sec["sigma_hi"]) / 2.0]
        vols += [float(lo), float(hi)]
        menu = ControlSet(sorted(set(vols)), cap=sec["sigma_hi"])
        assert len(menu) == int(size)
        tree = expand_tree(grid, 0.0, DriftSpec("zero"), menu)
        Y = american_put(strike=float(strike), base=sec["base"])
        want = robust_envelope(tree, Y).root_value()
        assert np.float64(value).tobytes() == np.float64(want).tobytes()


# oracle and the tree checks of verify, plain and --mutate, on ten certify
# pool instances (drawn from the acceptance suite's seed, every reward and
# drift kind among them) and on the two prefix-collision trees of the sweep
# parity gate: the exit code and the sha256 of stdout of each call
GAME_SUITE = "envelope,supermartingale,martingale,dpp,dpp-random,tau"
COLLISION = {
    "dynamics": {"x0": [0.0, 0.0], "drift": {"kind": "zero"}},
    "controls": {"values": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]],
                 "cap": 2.0},
    "reward": {"kind": "terminal-abs"},
}
PINNED_GAME = {
    "pool-1": {
        "grid": {"t_end": 0.5, "n_steps": 1},
        "dynamics": {"x0": 1.0643688288659674, "drift": {"kind": "custom-table", "table": [[-0.32234063425628845]]}},
        "controls": {"values": [1.298], "cap": 2.0},
        "reward": {"kind": "lookback-max", "base": -0.03422858449433208},
    },
    "pool-64": {
        "grid": {"t_end": 0.5, "n_steps": 1},
        "dynamics": {"x0": 0.9895347109051464, "drift": {"kind": "custom-table", "table": [[-0.3018268988114242]]}},
        "controls": {"values": [0.303, 0.48], "cap": 2.0},
        "reward": {"kind": "american-put", "strike": 0.6401525814742268},
    },
    "pool-68": {
        "grid": {"t_end": 1.0, "n_steps": 1},
        "dynamics": {"x0": 1.4542591934863978, "drift": {"kind": "mean-reversion", "kappa": 1.0, "rate": 0.39963089074058933, "level": -0.23403284554826143}},
        "controls": {"values": [0.709, 0.797], "cap": 2.0},
        "reward": {"kind": "constant", "value": 0.8218539191823158},
    },
    "pool-131": {
        "grid": {"t_end": 1.0, "n_steps": 2},
        "dynamics": {"x0": -0.24339144267135948, "drift": {"kind": "zero"}},
        "controls": {"values": [1.079], "cap": 2.0},
        "reward": {"kind": "running-sum", "scale": -0.13416566184145168},
    },
    "pool-192": {
        "grid": {"t_end": 2.0, "n_steps": 2},
        "dynamics": {"x0": -0.44177533532501556, "drift": {"kind": "mean-reversion", "kappa": 1.0, "rate": 0.5152072719709292, "level": -0.252088457629032}},
        "controls": {"values": [0.685, 1.096], "cap": 2.0},
        "reward": {"kind": "terminal-abs", "base": 0.23542016263137577},
    },
    "pool-195": {
        "grid": {"t_end": 2.0, "n_steps": 2},
        "dynamics": {"x0": 0.9816974358636477, "drift": {"kind": "zero"}},
        "controls": {"values": [0.349, 0.715], "cap": 2.0},
        "reward": {"kind": "lookback-max", "base": 0.07828030356855054},
    },
    "pool-197": {
        "grid": {"t_end": 1.0, "n_steps": 2},
        "dynamics": {"x0": 0.6090250462718076, "drift": {"kind": "custom-table", "table": [[-0.11992377077006733], [0.4374343440967742]]}},
        "controls": {"values": [0.517, 1.251], "cap": 2.0},
        "reward": {"kind": "american-put", "strike": 0.9540612821450152},
    },
    "pool-260": {
        "grid": {"t_end": 0.5, "n_steps": 3},
        "dynamics": {"x0": 1.4958258181579305, "drift": {"kind": "zero"}},
        "controls": {"values": [0.654], "cap": 2.0},
        "reward": {"kind": "terminal-abs", "base": -0.1884322352785046},
    },
    "pool-320": {
        "grid": {"t_end": 1.0, "n_steps": 3},
        "dynamics": {"x0": -0.17998957078238487, "drift": {"kind": "mean-reversion", "kappa": 1.0, "rate": 0.11211680633256203, "level": 0.28882153627157664}},
        "controls": {"values": [0.717, 1.152], "cap": 2.0},
        "reward": {"kind": "american-put", "strike": 0.659536627188322},
    },
    "pool-322": {
        "grid": {"t_end": 0.5, "n_steps": 3},
        "dynamics": {"x0": 0.8844108892855373, "drift": {"kind": "custom-table", "table": [[0.1630514530897802], [-0.3654135601652093], [-0.0021055578798098162]]}},
        "controls": {"values": [0.571, 1.026], "cap": 2.0},
        "reward": {"kind": "constant", "value": -0.0033298431735977463},
    },
    "collision-n1": {"grid": {"t_end": 1.0, "n_steps": 1}, **COLLISION},
    "collision-n2": {"grid": {"t_end": 1.0, "n_steps": 2}, **COLLISION},
}
GAME_CALLS = {
    "oracle": ["oracle"],
    "verify": ["verify", "--suite", GAME_SUITE, "--threads", "1"],
    "verify --mutate": ["verify", "--suite", GAME_SUITE, "--threads", "1", "--mutate"],
}
GAME_DIGESTS = {
    ("oracle", "collision-n1"):
        (0, "27d58f5b484d87dd62cf2c66bfae680e35fef1d2557fcbfed91e5f7148f09c00"),
    ("oracle", "collision-n2"):
        (0, "8da84777619768ea1dca46d5fb74f89929c70b1856cead0efa48f637805acd82"),
    ("oracle", "pool-1"):
        (0, "f47b05e0e16ab8c85c3e97b5342b7dc364062a4cd284ed74329cf1aa95c724bf"),
    ("oracle", "pool-131"):
        (0, "92e02fa404589efe163c69c921bb16c3eccd69a69ac5ee7202be8b2795cdd3f7"),
    ("oracle", "pool-192"):
        (0, "836275c6d8ab07a130dd1a61b773697ddaea7f0a26046def05a681c1397d084e"),
    ("oracle", "pool-195"):
        (0, "5dbf7554b01890f106231c64913691798fbef035c19747313f1b6df70ecc8954"),
    ("oracle", "pool-197"):
        (0, "9d04015b69eded8dcc97dcb9ae04826c7384fa5101bebf535270271a2cf31862"),
    ("oracle", "pool-260"):
        (0, "16fd5989dfdb119cad1a8ec4b4ec105c7583a80743e5cd3caf648966d0fd375b"),
    ("oracle", "pool-320"):
        (0, "9602a5c82fce50ca1cab9c687a5473e52ae497c5c836286ef4f3f161066824ab"),
    ("oracle", "pool-322"):
        (0, "2283454a0fc208faa41caa75b991e0303e59ae9b4767ec03b2583e2d57a81a71"),
    ("oracle", "pool-64"):
        (0, "9876ddb730b5d5a009e30210b9c991d5d6c91c8caf566349174ca2fd24aac4ec"),
    ("oracle", "pool-68"):
        (0, "f87b56447a0f1bc80d6d0e996cf0ac9a0d84feea51887c4640d93c8f564035e3"),
    ("verify", "collision-n1"):
        (0, "83e1b7e04326719627e8687bed5883d2d30e3171efd955ebb3ee82d6cf10abc3"),
    ("verify", "collision-n2"):
        (0, "b9f13af8ebac86d2a1424346aa664f049aab47ddb3c67e71cd1685e0eafbf0c7"),
    ("verify", "pool-1"):
        (0, "76a9c72e127522bbb2084365c2ad13dfd85211064d053455bbea36e75493d711"),
    ("verify", "pool-131"):
        (0, "295b7516e3005ec0764c8a12bb6bc78826c0a2d6a7d931b5bcc69a8d2fb7b533"),
    ("verify", "pool-192"):
        (0, "936936c2392db5fd3187aa753cfbc71a3c64ea9df6a306f0df31f5b2f87cfaca"),
    ("verify", "pool-195"):
        (0, "c0c01d73c52f5ac7e0917b28b51edf619556bea85d36b4948a0c36990f308315"),
    ("verify", "pool-197"):
        (0, "0aed451c4536e68c9baa0d0971a20ce029f78b0ae96a09b8b451695e01cd74fa"),
    ("verify", "pool-260"):
        (0, "8547d27bc2d632096a3d7ee97d3a293d65d3d138021d7e7dabe711bbe0382495"),
    ("verify", "pool-320"):
        (0, "26e583cfceda3745b9e5fb322d02e39d58e358a4a7c3f100ffed9c7a0a8be278"),
    ("verify", "pool-322"):
        (0, "974fa2a3ef93a939558ea77276bcfbec92575a64f01da8d7c80a03c44af7d10e"),
    ("verify", "pool-64"):
        (0, "1f33d4df6544e28dd390fd139eddd1737a8e72db4f413475bec4515c586ed734"),
    ("verify", "pool-68"):
        (0, "fe931c1790815776ff7be051d5d80df6241dba3a747dd3f8b488b18e84befeb7"),
    ("verify --mutate", "collision-n1"):
        (0, "d26d3e770682358671c963b03ac60ee56af8521944e20b171fc3e5efb96b3b07"),
    ("verify --mutate", "collision-n2"):
        (0, "45efbddbe09357ba402728977616a7eb7ef5e7e7c93e00f9da332ebe5c526f56"),
    ("verify --mutate", "pool-1"):
        (0, "500789fcaa9edd2eaf59abbd9632d08292dc808b890f740a42a93229e2e145c2"),
    ("verify --mutate", "pool-131"):
        (0, "218ce8e601661b0b4affa47ddf3cce79cee58aa92c6ec9e4a1eb0902918af9a1"),
    ("verify --mutate", "pool-192"):
        (0, "301fe1d30641389d35ea5431efa6ee09f7f032dc1fef9c10782253402ed8ec04"),
    ("verify --mutate", "pool-195"):
        (0, "ceeb23fb3036cdb6d4bd05e3c6712855be3952cae84ea94bb94ec851c28175a1"),
    ("verify --mutate", "pool-197"):
        (0, "e907ccc2a3d3f2f8589064941df05049bdfb4b57272acc0d144bc67282a02fe5"),
    ("verify --mutate", "pool-260"):
        (0, "d3968dc54b0d6a03435c232c2feb13ad9d9a5d0831955f1dcf2e3d751a4c276e"),
    ("verify --mutate", "pool-320"):
        (0, "3b833097c366e38ec724a188bdea6ee04396f114ed6f55c9457fb9bb3d80a9b7"),
    ("verify --mutate", "pool-322"):
        (0, "9de3aaf15ba639ccb667eef18b00a3aff491c91675d42a8e06ac6b03c4581cc5"),
    ("verify --mutate", "pool-64"):
        (0, "48242b5f6307a244a4e78a72870ab40b7d43d0371e6bcc92924f6fd83e4901fa"),
    ("verify --mutate", "pool-68"):
        (0, "eb24e385b088dece36d0428739f00bc4b37fabb1c61a56f14a18b29092544bea"),
}


@pytest.mark.parametrize("call, name", sorted(GAME_DIGESTS))
def test_oracle_and_tree_verify_outputs_are_pinned(tmp_path, capsys, call, name):
    argv = GAME_CALLS[call] + ["--config", write_config(tmp_path, PINNED_GAME[name]),
                               "--seed", "1"]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GAME_DIGESTS[call, name]


def _certify_pool() -> list:
    """The benchmark's certify pool, from perfbench/workloads.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.certify_pool()


def test_the_tree_checks_reject_every_mutation_on_the_certify_pool(tmp_path, capsys):
    # every law holds on the solver's own solution and every mutation
    # breaks its law, on all 384 pool instances, in-process
    pool = _certify_pool()
    assert len(pool) == 384
    for i, cfg in enumerate(pool):
        # a new file per instance: truncating one file 384 times is slow
        path = write_config(tmp_path, cfg, f"pool-{i}.json")
        base = ["verify", "--config", path, "--suite", GAME_SUITE, "--seed", "1"]
        code, report = run(capsys, *base)
        assert (code, report["all_passed"]) == (0, True), i
        code, report = run(capsys, *base, "--mutate")
        assert code == 0, (i, report)
        assert not any(c["passed"] for c in report["checks"].values()), i


# the running-max drift at d = 2 with kappa 1 and at d = 1 with kappa 0.5:
# its Lipschitz constant is max(kappa, sqrt(d)), below which the check
# failed on these configs
RUNNING_MAX_DRIFT = {
    "d2-kappa-1": {
        "grid": {"t_end": 1.0, "n_steps": 4},
        "dynamics": {"x0": [0.0, 0.0], "drift": {"kind": "running-max", "kappa": 1.0}},
        "controls": {"values": [[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.2], [0.2, 0.8]]],
                     "cap": 1.2},
        "reward": {"kind": "terminal-abs"},
    },
    "d1-kappa-0.5": {
        "grid": {"t_end": 1.0, "n_steps": 4},
        "dynamics": {"x0": 1.0, "drift": {"kind": "running-max", "kappa": 0.5}},
        "controls": {"values": [0.5, 1.0], "cap": 1.0},
        "reward": {"kind": "lookback-max"},
    },
}


@pytest.mark.parametrize("name", sorted(RUNNING_MAX_DRIFT))
def test_verify_drift_passes_on_a_running_max_below_sqrt_d(tmp_path, capsys, name):
    cfg = write_config(tmp_path, RUNNING_MAX_DRIFT[name])
    code, report = run(capsys, "verify", "--config", cfg, "--suite", "drift", "--seed", "1")
    assert (code, report["all_passed"]) == (0, True), report
    assert report["checks"]["drift"]["n_checked"] == 20_000
