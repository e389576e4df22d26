"""Shows that every check of the benchmark passes on the program's output and
rejects a deliberately wrong one, and that BENCHMARK.json lists exactly the
per-layer metrics the traced run prints.

    python3 bench/selftest.py [--seed N]

Runs each operation of each workload once (about a minute in all) and exits
with status 1 if any check accepts a perturbed value or rejects a true one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import METRICS  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bad = 0

    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    if [(m["name"], m["unit"], m["better"]) for m in listed] != list(METRICS):
        print("BENCHMARK.json per_layer differs from tracing.METRICS")
        bad += 1

    for workload in WORKLOADS:
        for op in build(workload, args.seed):
            out, expected = op.call(), op.reference()
            true_msg = op.check(out, expected)
            wrong_msg = op.check(op.perturb(out), expected)
            ok = true_msg is None and wrong_msg is not None
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:10s} {op.name}: "
                  f"true -> {(true_msg or 'accepted')[:80]}; "
                  f"perturbed -> {(wrong_msg or 'accepted')[:80]}")
    print(f"{bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
