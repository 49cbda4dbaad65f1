#!/usr/bin/env python3
"""Record the dataset.arff digest of each workload for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-31 [--workload demo ...]

Each seed runs once, untraced, and is checked like a benchmark run; only a
run that passes every check has its digest written to digests.json. Later
benchmark runs on a recorded seed then fail when dataset.arff changes.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))

    path = run.BENCH_DIR / "digests.json"
    digests = run.load_json(path)
    recorded = digests.setdefault("dataset_arff", {})
    for name in args.workload or list(run.WORKLOADS):
        for seed in range(first, last + 1):
            result = run.run_benchmark(run.WORKLOADS[name], seed, 0, False, digests)
            if result["problems"]:
                print(f"{name} seed {seed}: not recorded: {result['problems']}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = result["arff_digests"][0]
            print(f"{name} seed {seed}: {result['arff_digests'][0]}")
            path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
