"""HumMer benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload token_3k --seed 47 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 47 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  ``--workload all`` runs every workload in this one
process.  ``--scale tiny`` shrinks every input (the self-test uses it).
The last line of standard output is the JSON result; the line before it
records provenance, sample counts and the tail percentiles used.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402

IN_PROCESS = ("allpairs_default", "token_3k", "fuseby_key")
WORKLOADS = IN_PROCESS + ("service_mixed",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def run_workload(name: str, args) -> "harness.RunResult":
    tiny = args.scale == "tiny"
    trace = bool(args.trace)
    if name == "service_mixed":
        import service_mixed

        return service_mixed.run(args.seed, args.seconds, trace, tiny)
    import inprocess

    return inprocess.run(name, args.seed, args.seconds, trace, tiny)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "__init__.py")):
        print(f"perfbench: no HumMer sources under {harness.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not os.path.isfile(harness.BENCHMARK_FILE):
        print("perfbench: BENCHMARK.json not found in the working directory", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    benchmark = harness.load_benchmark()
    names = [metric["name"] for metric in
             benchmark["per_layer" if args.trace else "end_to_end"]]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    try:
        results = [run_workload(name, args) for name in workloads]
    except Exception:
        traceback.print_exc()
        return 1
    info = harness.provenance(args.seed, args.seconds, bool(args.trace), args.scale)
    harness.emit(results, names, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
