"""Workload inputs, operations and the correctness gate.

Each workload is a list of operations ("ops") run closed-loop, one after
another, by calling ``robuststop.cli.main`` in-process on generated JSON
config files.  An op returns the raw CLI results; ``check`` turns them
into observations, compares those with the reference values recorded in
``reference.json`` and decides whether the op failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

WORKLOADS = ("solve-deep", "demo-wide", "certify", "verify-sampled")

# solve-deep: a deep two-control put, the same grid with a path-dependent
# drift and reward, and a d=2 mean-reversion instance.
SOLVE_CONFIGS = {
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

DEMO_CONFIG = {
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

SAMPLED_CONFIG = {
    "grid": {"t_end": 1.0, "n_steps": 4},
    "dynamics": {"x0": 1.0, "drift": {"kind": "running-max", "kappa": 1.0}},
    "controls": {"values": [0.5, 1.0], "cap": 1.0},
    "reward": {"kind": "lookback-max"},
}
SAMPLED_SUITE = "y1,drift,prehistory,moments"

CERTIFY_SUITE = "envelope,supermartingale,martingale,dpp,dpp-random,tau"
# The certify pool is drawn once from this seed (the acceptance suite's)
# and its reference values are recorded; a workload seed picks a round of
# instances from it.  Instances are bucketed by (n_steps, n_controls) and
# every round holds a fixed number from each bucket, so the mix of tree
# sizes, and with it the timing distribution, is the same for every seed.
# Op times order the buckets roughly as (1,*) < (2,1) < (3,1) < (2,2) <
# (3,2); the counts below put the median and the 90th percentile inside a
# bucket rather than at the gap between two, where a single slow op would
# move them.
POOL_SEED = 20260815
POOL_PER_CLASS = 64
ROUND = {(1, 1): 8, (1, 2): 8, (2, 1): 8, (2, 2): 12, (3, 1): 12, (3, 2): 12}
CLASSES = list(ROUND)


def random_instance(rng) -> dict:
    """One config shaped like the acceptance suite's random instances:
    d=1, 1-3 steps, 1-2 controls, and every drift and catalog reward the
    suite draws."""
    n = int(rng.integers(1, 4))
    t_end = float(rng.choice([0.5, 1.0, 2.0]))
    vols = np.unique(np.round(rng.uniform(0.3, 1.4, size=int(rng.integers(1, 3))), 3))
    kind = str(rng.choice(["zero", "mean-reversion", "custom-table"]))
    if kind == "zero":
        drift = {"kind": "zero"}
    elif kind == "mean-reversion":
        drift = {
            "kind": "mean-reversion",
            "kappa": 1.0,
            "rate": float(rng.uniform(0.1, 0.9)),
            "level": float(rng.uniform(-0.3, 0.3)),
        }
    else:
        drift = {
            "kind": "custom-table",
            "table": [[float(rng.uniform(-0.5, 0.5))] for _ in range(n)],
        }
    x0 = float(rng.uniform(-0.5, 1.5))
    pick = int(rng.integers(0, 5))
    if pick == 0:
        reward = {"kind": "american-put", "strike": float(rng.uniform(0.5, 1.5))}
    elif pick == 1:
        reward = {"kind": "lookback-max", "base": float(rng.uniform(-0.5, 0.5))}
    elif pick == 2:
        reward = {"kind": "terminal-abs", "base": float(rng.uniform(-0.5, 0.5))}
    elif pick == 3:
        reward = {"kind": "running-sum", "scale": float(rng.uniform(-0.4, 0.4))}
    else:
        reward = {"kind": "constant", "value": float(rng.uniform(-1.0, 1.0))}
    return {
        "grid": {"t_end": t_end, "n_steps": n},
        "dynamics": {"x0": x0, "drift": drift},
        "controls": {"values": [float(v) for v in vols], "cap": 2.0},
        "reward": reward,
    }


def certify_pool() -> list:
    """POOL_PER_CLASS instances per class, in CLASSES order."""
    rng = np.random.default_rng(POOL_SEED)
    buckets = {c: [] for c in CLASSES}
    while any(len(b) < POOL_PER_CLASS for b in buckets.values()):
        cfg = random_instance(rng)
        b = buckets[(cfg["grid"]["n_steps"], len(cfg["controls"]["values"]))]
        if len(b) < POOL_PER_CLASS:
            b.append(cfg)
    return [cfg for c in CLASSES for cfg in buckets[c]]


def pool_digest(pool: list) -> str:
    return hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()


def certify_round(seed: int) -> list:
    """Pool indices of one round: ROUND[class] distinct instances from
    each class, in a seeded order."""
    rng = np.random.default_rng(seed)
    picks = [
        ci * POOL_PER_CLASS + int(j)
        for ci, cls in enumerate(CLASSES)
        for j in rng.choice(POOL_PER_CLASS, ROUND[cls], replace=False)
    ]
    return [picks[int(i)] for i in rng.permutation(len(picks))]


# ---------------------------------------------------------------------------
# running the CLI


def call_cli(main, argv: list) -> dict:
    """One in-process CLI call: exit code and captured stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is an op failure, not a benchmark error
        code = f"crash: {type(exc).__name__}: {exc}"
    return {"argv": argv, "code": code, "stdout": buf.getvalue()}


def _dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class Op:
    """One unit of closed-loop work: a fixed list of CLI calls.

    ``key`` names the input; ops with equal keys must produce
    byte-identical artifacts.  ``kind`` selects the check.
    """

    def __init__(self, key: str, kind: str, calls: list, out_dirs=(), ref=None):
        self.key = key
        self.kind = kind
        self.calls = calls
        self.out_dirs = list(out_dirs)
        self.ref = ref

    def prepare(self) -> None:
        """Empty the --out directories; runs outside the timed region."""
        for d in self.out_dirs:
            shutil.rmtree(d, ignore_errors=True)

    def run(self, main) -> list:
        return [call_cli(main, argv) for argv in self.calls]

    def artifact_digest(self, results: list) -> str:
        h = hashlib.sha256()
        for r in results:
            h.update(r["stdout"].encode())
        for d in self.out_dirs:
            h.update(_dir_digest(d).encode() if os.path.isdir(d) else b"missing")
        return h.hexdigest()


def build_ops(workload: str, seed: int, work: str, threads: int, reference: dict,
              instances=None) -> list:
    """Write the workload's config files under ``work`` and return its
    round of ops.  ``instances`` overrides the certify round's pool
    indices.  Raises ValueError if the certify pool no longer matches the
    recorded one."""
    os.makedirs(work, exist_ok=True)

    def config(name: str, cfg: dict) -> str:
        path = os.path.join(work, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, sort_keys=True)
        return path

    s = str(seed)
    if workload == "solve-deep":
        calls, outs = [], []
        for name, cfg in SOLVE_CONFIGS.items():
            out = os.path.join(work, "out-" + name)
            calls.append(["solve", "--config", config(name, cfg), "--out", out, "--seed", s])
            outs.append(out)
        return [Op("solve-deep", "solve", calls, outs, reference.get("solve"))]
    if workload == "demo-wide":
        out = os.path.join(work, "out-demo")
        calls = [["demo", "--config", config("demo", DEMO_CONFIG), "--out", out, "--seed", s]]
        return [Op("demo-wide", "demo", calls, [out], reference.get("demo"))]
    verify = ["--threads", str(threads), "--seed", s]
    if workload == "verify-sampled":
        path = config("sampled", SAMPLED_CONFIG)
        base = ["verify", "--config", path, "--suite", SAMPLED_SUITE] + verify
        return [Op("verify-sampled", "sampled", [base, base + ["--mutate"]])]
    if workload == "certify":
        pool = certify_pool()
        refs = reference.get("certify")
        if refs and pool_digest(pool) != refs["pool_digest"]:
            raise ValueError("the certify pool differs from the recorded one")
        ops = []
        for i in certify_round(seed) if instances is None else instances:
            path = config(f"instance-{i:03d}", pool[i])
            base = ["verify", "--config", path, "--suite", CERTIFY_SUITE] + verify
            calls = [["oracle", "--config", path, "--seed", s], base, base + ["--mutate"]]
            ops.append(Op(f"instance-{i}", "certify", calls,
                          ref=refs["instances"][i] if refs else None))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# observations and the correctness gate


def _report(result: dict) -> dict:
    return json.loads(result["stdout"]) if result["stdout"] else {}


def observe(kind: str, results: list) -> dict:
    """The values the gate compares, parsed from the CLI reports."""
    reports = [_report(r) for r in results]
    if kind == "solve":
        return {
            "root_value": [rep.get("root_value") for rep in reports],
            "z": [[[s["z_min"], s["z_max"]] for s in rep.get("slices", [])] for rep in reports],
        }
    if kind == "demo":
        rep = reports[0]
        return {
            "values": [
                [v["strike"], v["robust_value"], v["classic_value_lo"], v["classic_value_hi"]]
                for v in rep.get("values", [])
            ],
            "passed": rep.get("passed"),
        }
    # certify and sampled: the last call is verify --mutate
    obs = {"misses": sorted(
        name for name, c in reports[-1].get("checks", {}).items() if c["passed"]
    )}
    if kind == "certify":
        obs["oracle"] = [reports[0].get(k) for k in ORACLE_KEYS]
    return obs


ORACLE_KEYS = ("lower", "upper", "envelope_root", "agree", "saddle")


def same_bits(a, b) -> bool:
    """Structural equality with floats compared bit for bit."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and a.hex() == b.hex()
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def check(op: Op, results: list) -> tuple:
    """Judge one op.  Returns (failed, deviations).

    An op fails on a non-zero exit, a changed value, a check that reports
    failure, or a mutation that is not rejected.  A deviation is a
    difference from the behaviour recorded in reference.json.  A mutation
    that slips through where the reference recorded it too is a failure
    but not a deviation; one rejected where the reference let it through
    is neither.
    """
    crashed = [r for r in results if not isinstance(r["code"], int)]
    if crashed:
        return True, [f"{r['argv'][0]} {r['code']}" for r in crashed]
    obs = observe(op.kind, results)
    expected = [0] * len(results)
    if obs.get("misses"):
        expected[-1] = 1  # verify --mutate exits 1 when a mutation slips through
    deviations = [
        f"{r['argv'][0]} exited {r['code']}"
        for r, want in zip(results, expected)
        if r["code"] != want
    ]
    if op.kind in ("solve", "demo"):
        if not same_bits(obs, op.ref):
            deviations.append(f"{op.kind} values differ from the reference")
        return bool(deviations), deviations
    if not _report(results[-2]).get("all_passed"):
        deviations.append("the clean verify suite failed")
    known = op.ref["misses"] if op.kind == "certify" else []
    new = sorted(set(obs["misses"]) - set(known))
    if new:
        deviations.append(f"mutations not rejected: {new}")
    if op.kind == "certify" and not same_bits(obs["oracle"], op.ref["oracle"]):
        deviations.append(f"oracle values {obs['oracle']} != reference {op.ref['oracle']}")
    return bool(deviations or obs["misses"]), deviations
