"""robuststop benchmark driver.

Runs one workload closed-loop (each op starts after the previous one
finished) by calling ``robuststop.cli.main`` in-process on generated
config files, checks every op against reference.json, and prints one
JSON result as the last line of stdout.  Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

A run does a fixed number of rounds of the workload's ops, sized so that
it lasts about --seconds on the baseline machine.  --trace 0 reports the
end-to-end metrics.  --trace 1 first runs half the rounds untraced, then
wraps the package's functions (tracer.py) for the other half and reports
per-layer metrics, per op, from the traced half.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads as wl
from speed import SpeedSampler
from tracer import CHECKS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 9
# Seconds one round of a workload's ops takes on the machine the baseline
# was measured on (README.md).  A run does a fixed number of rounds,
# --seconds / ROUND_SECONDS rounded, so the ops it attempts, and with them
# the ops that fail, depend only on the seed and --seconds, not on how fast
# the machine happens to be.
ROUND_SECONDS = {"solve-deep": 6.5, "demo-wide": 8.5, "certify": 0.85, "verify-sampled": 5.0}
# verify --threads.  The checks are mostly Python code that holds the
# interpreter lock, so a second pool thread adds lock contention and no
# overlap; with one, the layers' self times add up to the op's time.
VERIFY_THREADS = 1
NPROC = len(os.sched_getaffinity(0))  # before SpeedSampler pins the process
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import robuststop.cli; "
    "print(time.perf_counter() - t, robuststop.cli.__file__)"
)


def measure_setup(speed: SpeedSampler) -> tuple:
    """Median seconds a fresh interpreter spends importing robuststop.cli,
    at the reference speed and as wall time.  The first import is
    untimed: it may write the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, walls = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        t1 = time.perf_counter()
        seconds, path = out.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported robuststop from {path}, not from {SRC}")
        if i:
            walls.append(float(seconds))
            times.append(float(seconds) * speed.speed(t0, t1))
    return statistics.median(times), statistics.median(walls)


class Runner:
    """Runs ops closed-loop and keeps the gate's verdicts."""

    def __init__(self, main, ops: list):
        self.main = main
        self.ops = ops
        self.digests = {}
        self.deviations = []
        self.attempted = 0
        self.failed = 0
        self.mutations = [0, 0]  # [checks run on a corrupted input, rejected]
        self.keys = []  # input key of every op run, by op number

    def one(self, op, timed: bool, tracer: Tracer | None = None) -> tuple:
        """Run and check one op.  Returns its (start, end) in perf_counter
        seconds."""
        number = len(self.keys)
        self.keys.append(op.key)
        main = self.main if tracer is None else functools.partial(tracer.call, number, self.main)
        op.prepare()
        t0 = time.perf_counter()
        results = op.run(main)
        t1 = time.perf_counter()

        failed, deviations = wl.check(op, results)
        digest = op.artifact_digest(results)
        if self.digests.setdefault(op.key, digest) != digest:
            failed = True
            deviations.append("artifacts differ from an earlier op on the same input")
        self.deviations += [f"{op.key}: {d}" for d in deviations]
        for r in results:
            if "--mutate" in r["argv"] and r["stdout"]:
                checks = json.loads(r["stdout"])["checks"].values()
                self.mutations[0] += len(checks)
                self.mutations[1] += sum(not c["passed"] for c in checks)
        if timed:
            self.attempted += 1
            self.failed += failed
        return t0, t1

    def phase(self, rounds: int, tracer: Tracer | None = None) -> tuple:
        """``rounds`` whole rounds of ops.  Returns each op's (start, end)
        and the phase's (start, end)."""
        spans = []
        start = time.perf_counter()
        for _ in range(rounds):
            spans += [self.one(op, True, tracer) for op in self.ops]
        return spans, (start, time.perf_counter())


def layer_metrics(tracer: Tracer, n_ops: int, speed: float) -> dict:
    """Per-layer self time, calls and counts, per traced op.  Times are
    scaled by ``speed``, the CPU's speed over the traced phase."""
    agg = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, tracer.self_times()):
        a = agg[span.name]
        a["self_s"] += own * speed
        a["calls"] += 1
        for k, v in (span.counts or {}).items():
            a[k] += v
        for layer, (calls, sec) in span.inner.items():
            agg[layer]["self_s"] += sec * speed
            agg[layer]["calls"] += calls

    def per_op(layer, key):
        return agg[layer][key] / n_ops

    m = {"cli.self_s": per_op("cli.main", "self_s")}
    for layer in ("model.expand_tree", "envelope.robust_envelope", "envelope.classic_snell",
                  "model.simulate_paths", "reward.reward_values", "game.game_values",
                  "reward.eval_reward", "model.drift_eval", "pathspace.dist_dinfty"):
        m[layer + ".self_s"] = per_op(layer, "self_s")
        m[layer + ".calls"] = per_op(layer, "calls")
    ex = agg["model.expand_tree"]
    m["model.nodes"] = per_op("model.expand_tree", "nodes")
    m["model.expand_tree.us_per_node"] = 1e6 * ex["self_s"] / ex["nodes"] if ex["nodes"] else 0.0
    m["model.paths"] = per_op("model.simulate_paths", "paths")
    m["reward.nodes_evaluated"] = per_op("reward.reward_values", "nodes_evaluated")
    game = agg["game.game_values"]
    m["game.strategies"] = per_op("game.game_values", "strategies")
    m["game.stopping_times"] = per_op("game.game_values", "stopping_times")
    m["game.agree_ratio"] = game["agree"] / game["calls"] if game["calls"] else 0.0
    for c in CHECKS:
        m[f"verify.{c}.self_s"] = per_op("verify." + c, "self_s")
        m[f"verify.{c}.n_checked"] = per_op("verify." + c, "n_checked")
    return m


def count_flags(tracer: Tracer, keys: list) -> list:
    """Inputs whose traced counts differ between two ops."""
    per_op = defaultdict(lambda: defaultdict(int))
    for span in tracer.spans:
        sig = per_op[span.op]
        sig[span.name + ".calls"] += 1
        for k, v in (span.counts or {}).items():
            sig[f"{span.name}.{k}"] += v
        for layer, (calls, _) in span.inner.items():
            sig[layer + ".calls"] += calls
    first = {}
    flags = []
    for op, sig in sorted(per_op.items()):
        if first.setdefault(keys[op], sig) != sig and keys[op] not in flags:
            flags.append(keys[op])
    return flags


def environment(threads: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "verify_threads": threads,
    }


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def run(args) -> int:
    if not (SRC / "robuststop" / "cli.py").is_file():
        print(f"perfbench: no robuststop sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    speed = SpeedSampler()
    speed.start()
    try:
        return measure(args, speed)
    finally:
        speed.stop()


def measure(args, speed: SpeedSampler) -> int:
    units = declared_metrics(args.trace)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    setup_s, wall_setup_s = (None, None) if args.trace else measure_setup(speed)
    sys.path.insert(0, str(SRC))
    from robuststop import cli, envelope, game, verify

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported robuststop from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        runner = Runner(cli.main, wl.build_ops(args.workload, args.seed, str(work), VERIFY_THREADS,
                                               reference))
        t0, t1 = runner.one(runner.ops[0], timed=False)
        warm_up = t1 - t0
        untraced, span = runner.phase(
            rounds(args.workload, args.seconds / 2 if args.trace else args.seconds))
        op_s = [speed.scale(*s) for s in untraced]
        if args.trace:
            tracer = Tracer()
            tracer.install({"cli": cli, "envelope": envelope, "game": game, "verify": verify})
            runner.mutations = [0, 0]
            try:
                traced, traced_span = runner.phase(rounds(args.workload, args.seconds / 2),
                                                   tracer)
                traced_s = [speed.scale(*s) for s in traced]
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, len(traced), speed.speed(*traced_span))
            checked, rejected = runner.mutations
            metrics["verify.mutations_rejected_ratio"] = rejected / checked if checked else 0.0
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced_s) / statistics.median(op_s) - 1.0
            )
            flags = count_flags(tracer, runner.keys)
            tracer.write(str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = {
                "setup_s": setup_s,
                "op_s_p50": statistics.median(op_s),
                "op_s_p90": float(np.quantile(op_s, 0.9)),
                "ops_per_s": len(op_s) / speed.scale(*span),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            flags = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    if flags:
        print(f"perfbench: counts did not repeat for {flags}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": runner.attempted,
        "warm_up_s": warm_up,
        "untraced_ops": len(untraced),
        "speed": speed.speed(*span),
        "wall_op_s_p50": statistics.median(b - a for a, b in untraced),
        "wall_setup_s": wall_setup_s,
        "fail_ratio": runner.failed / runner.attempted,
        "deviations": runner.deviations[:10],
        "count_flags": flags,
        **environment(VERIFY_THREADS),
    }
    print(json.dumps({"perfbench": report}))
    print(json.dumps({
        "correct": not runner.deviations,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
