"""Check the log of a ``bench/run.py --workload all`` run.

    python3 .github/scripts/check_bench_log.py LOG --metrics per-layer   # a --trace 1 log
    python3 .github/scripts/check_bench_log.py LOG --metrics end-to-end  # a --trace 0 log

run.py exits 0 even when a check fails, so this reads its result lines: each
workload must be correct with no failed operation and report every metric
of the family that ``BENCHMARK.json`` lists (a number; an end-to-end one
also above 0).  The log and ``BENCHMARK.json`` are only read.  Exits 1 if a
workload is incorrect, failed, missing or lacks a metric, and 0 otherwise.
"""

import argparse
import json
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("log")
    parser.add_argument("--metrics", required=True, choices=("per-layer", "end-to-end"))
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec[args.metrics.replace("-", "_")]]
    with open(args.log, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    workloads = [line[3:] for line in lines if line.startswith("== ")]
    results = [json.loads(line) for line in lines if line.startswith("{")]
    ok = bool(workloads) and len(results) == len(workloads)
    for name, r in zip(workloads, results):
        values = {k: r["metrics"].get(k, {}).get("value") for k in names}
        missing = [k for k, v in values.items() if not isinstance(v, (int, float))
                   or args.metrics == "end-to-end" and not v > 0]
        print(name, "correct:", r["correct"], "failed:", r["failed"],
              "%s metrics:" % args.metrics, len(names) - len(missing), "of", len(names),
              "missing:", missing, *([values] if args.metrics == "end-to-end" else []))
        ok = ok and r["correct"] is True and r["failed"] == 0 and not missing
    if not ok:
        print("bench run: a workload is incorrect, failed, missing or lacks one of its %s "
              "metrics" % args.metrics, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
