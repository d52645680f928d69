"""Record reference.json: the outputs every benchmark op must reproduce.

Runs each fixed workload input and every certify pool instance once and
stores the values the gate compares bit for bit (see workloads.observe).
Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the BLAS thread pin before numpy loads
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from robuststop.cli import main as cli_main

    work = run.WORK / "record"
    ref = {}
    try:
        for workload, kind in (("solve-deep", "solve"), ("demo-wide", "demo")):
            (op,) = wl.build_ops(workload, 0, str(work), 1, {})
            op.prepare()
            results = op.run(cli_main)
            if any(r["code"] != 0 for r in results):
                raise SystemExit(f"{workload} failed: {[r['code'] for r in results]}")
            ref[kind] = wl.observe(kind, results)

        pool = wl.certify_pool()
        instances = []
        ops = wl.build_ops("certify", 0, str(work), 1, {}, instances=range(len(pool)))
        for op in ops:
            results = op.run(cli_main)
            obs = wl.observe("certify", results)
            if results[0]["code"] != 0 or results[1]["code"] != 0:
                raise SystemExit(f"{op.key}: oracle or clean verify failed")
            instances.append(obs)
        ref["certify"] = {
            "pool_seed": wl.POOL_SEED,
            "pool_digest": wl.pool_digest(pool),
            "instances": instances,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missed = sum(bool(i["misses"]) for i in ref["certify"]["instances"])
    # one line per certify instance keeps the file short and diffable
    lines = [json.dumps(i, sort_keys=True) for i in ref["certify"]["instances"]]
    text = json.dumps({**ref, "certify": {**ref["certify"], "instances": "@"}},
                      sort_keys=True, indent=1)
    text = text.replace('"@"', "[\n   " + ",\n   ".join(lines) + "\n  ]") + "\n"
    (run.HERE / "reference.json").write_text(text, encoding="utf-8")
    print(f"recorded {len(instances)} certify instances, {missed} with unrejected mutations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
