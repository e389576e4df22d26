"""One workload in one process: set up, warm up, then timed passes.

Started by run.py, which times set-up from the moment it starts this
process to the moment the READY line arrives.  Set-up is interpreter start,
imports, input generation and one untimed warm-up pass, so first-call
costs never land in a timed pass.  With --setup-only the process exits
there; otherwise it computes the references, checks the warm-up outputs
and runs whole passes until --seconds have elapsed, checking every output.
The last line on stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import halfspace6v  # noqa: E402

if not Path(halfspace6v.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"halfspace6v imported from {halfspace6v.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

MIN_PASSES = 3


def run_pass(ops) -> list:
    """Call every operation once, in order; an exception is kept as the output."""
    out = []
    for op in ops:
        try:
            out.append(op.call())
        except Exception as e:  # a failed operation is counted, not fatal
            out.append(e)
    return out


class Tally:
    def __init__(self, ops, refs):
        self.ops, self.refs = ops, refs
        self.attempted = self.failed = self.wrong = 0

    def check(self, outputs):
        for op, ref, out in zip(self.ops, self.refs, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self._note(op, "".join(traceback.format_exception_only(out)).strip())
                continue
            msg = op.check(out, ref)
            if msg is not None:
                self.wrong += 1
                self._note(op, msg)

    def _note(self, op, msg):
        if self.failed + self.wrong <= 20:
            print(f"CHECK FAILED {op.name}: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = build(args.workload, args.seed)
    warm = run_pass(ops)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally(ops, [op.reference() for op in ops])
    tally.check(warm)

    untraced, traced, per_pass, spans = [], [], [], []
    tracer = tracing.Tracer()
    deadline = perf_counter() + args.seconds
    while True:
        t0 = perf_counter()
        outputs = run_pass(ops)
        untraced.append(perf_counter() - t0)
        tally.check(outputs)
        if args.trace:
            tracer.install()
            t0 = perf_counter()
            try:
                outputs = run_pass(ops)
                traced.append(perf_counter() - t0)
            finally:
                tracer.uninstall()
            per_pass.append(tracing.pass_metrics(tracer.spans, traced[-1]))
            spans.append(list(tracer.spans))
            tally.check(outputs)
        if perf_counter() >= deadline and len(untraced) >= MIN_PASSES:
            break

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.wrong == 0,
        "pass_s": untraced,
        "batch_s": min(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = tracing.summarise(per_pass, traced, untraced)
        tracing.write_spans(
            ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl", spans
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
