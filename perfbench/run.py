#!/usr/bin/env python3
"""Benchmark of the socialminer batch pipeline.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed (excluded from timing), then
runs the pipeline in fresh child processes, one run each, single-threaded,
until ``--seconds`` of runs have been measured. Every run's output tree is
checked (see check.py). Times are in reference seconds, which take out the
shared host's speed drift (see hostspeed.py). With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics, taken from traced runs that alternate with untraced ones so the
tracing overhead shows.
The last line of standard output is the result as one JSON object; the lines
before it give every metric by name and unit, tagged with the Python version,
core count, git commit, workload sizes and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 60

for _required in (ROOT / "src" / "socialminer", ROOT / "tests" / "knn_oracle.py"):
    if not _required.exists():
        sys.exit(f"perfbench: {_required} is missing; run from the root of a socialminer checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from socialminer import synth  # noqa: E402

import check  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "run": the run subcommand; "stepwise": the five stage subcommands
    profiles: int
    docs_per_class: int
    oracle_sample: int  # profiles checked against the O(docs^2) brute-force oracle


WORKLOADS = {
    w.name: w
    for w in (
        # The shipped fixture shape, run as users run it; distance is about
        # 98% of the run.
        Workload("demo", "run", 1340, 60, 30),
        # Corpus load and the per-target sort of 6,000 rows become visible. It
        # runs the five subcommands, so the cli layer and the stage-file reads
        # are measured too; with 100 profiles they cost a few milliseconds.
        Workload("large_corpus", "stepwise", 100, 600, 1),
        # Record-level layers dominate: parsing, validation, stage-file writes
        # and reads, binning, ARFF and reports; distance is about a quarter.
        Workload("wide_batch_stepwise", "stepwise", 20000, 1, 200),
    )
}


def input_seeds(seed: int) -> tuple[int, int]:
    """Corpus and profile generator seeds; seed 0 gives the shipped fixtures."""
    return synth.DEFAULT_CORPUS_SEED + 2 * seed, synth.DEFAULT_PROFILE_SEED + 2 * seed


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def git_commit() -> str:
    """HEAD's commit read from the .git directory; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tags(workload: Workload, seed: int) -> dict:
    corpus_seed, profile_seed = input_seeds(seed)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload.name,
        "profiles": workload.profiles,
        "corpus_docs": workload.docs_per_class * len(synth.PERSONALITY_LABELS),
        "seed": seed,
        "corpus_seed": corpus_seed,
        "profile_seed": profile_seed,
    }


def generate(workload: Workload, seed: int, inputs: Path) -> tuple[list[dict], list[dict]]:
    corpus_seed, profile_seed = input_seeds(seed)
    corpus = synth.make_corpus_records(corpus_seed, workload.docs_per_class)
    profiles = synth.make_profile_records(workload.profiles, profile_seed)
    inputs.mkdir(parents=True)
    synth.write_jsonl(inputs / "sample_corpus.jsonl", corpus)
    synth.write_jsonl(inputs / "profiles.jsonl", profiles)
    return profiles, corpus


def run_child(workload: Workload, run_dir: Path, index: int, traced: bool, run_id: str) -> list[str]:
    """Run the workload once in a child process on the inputs in
    ``run_dir/inputs``. The child writes ``out-<index>/`` and
    ``result-<index>.json``; returns the problems that make it a failed run."""
    spec = {
        "mode": workload.mode,
        "profiles": str(run_dir / "inputs" / "profiles.jsonl"),
        "corpus": str(run_dir / "inputs" / "sample_corpus.jsonl"),
        "out": str(run_dir / f"out-{index}"),
        "trace": traced,
        "run_id": run_id,
        "spans": str(run_dir / "spans.jsonl"),
        "result": str(run_dir / f"result-{index}.json"),
    }
    spec_path = run_dir / f"spec-{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return [f"run timed out after {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0:
        return [f"run exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    return []


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, digests: dict) -> dict:
    """Generate inputs, run and check children for ``seconds``; returns the
    raw per-run results, the problems found and the tree digests."""
    run_dir = WORK / f"{workload.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    profiles, corpus = generate(workload, seed, run_dir / "inputs")

    problems: list[str] = []
    input_digests = {
        name: check.sha256_file(run_dir / "inputs" / name)
        for name in ("profiles.jsonl", "sample_corpus.jsonl")
    }
    recorded_inputs = digests.get("inputs", {}).get(workload.name, {}).get(str(seed))
    if recorded_inputs is not None and recorded_inputs != input_digests:
        problems.append(f"generated inputs differ from the recorded digests {recorded_inputs}")
    arff_digest = digests.get("dataset_arff", {}).get(workload.name, {}).get(str(seed))

    kinds = ("untraced", "traced") if trace else ("untraced",)
    results: dict[str, list[dict]] = {kind: [] for kind in kinds}
    durations: list[float] = []
    oracle_cache: dict = {}
    tree_digests: set[str] = set()
    failed = 0
    while True:
        index = len(durations)
        kind = kinds[index % len(kinds)]
        out = run_dir / f"out-{index}"
        started = time.perf_counter()
        run_problems = run_child(workload, run_dir, index, kind == "traced",
                                 f"{workload.name}-seed{seed}-run{index}")
        durations.append(time.perf_counter() - started)
        if not run_problems:
            run_problems = check.check_output(
                out, workload.mode, profiles, corpus, workload.oracle_sample,
                arff_digest, oracle_cache,
            )
        if run_problems:
            failed += 1
            problems.extend(f"run {index}: {p}" for p in run_problems)
        else:
            results[kind].append(load_json(run_dir / f"result-{index}.json"))
            tree_digests.add(check.sha256_file(out / "dataset.arff"))
        shutil.rmtree(out, ignore_errors=True)
        # Stop when another run would more likely end past the budget than before it.
        if index + 1 >= len(kinds) and sum(durations) + statistics.median(durations) / 2 > seconds:
            break
    shutil.rmtree(run_dir / "inputs")
    if len(tree_digests) > 1:
        problems.append("dataset.arff differs between runs of the same inputs")
    return {
        "results": results,
        "attempted": len(durations),
        "failed": failed,
        "problems": problems,
        "accepted": len(profiles),
        "arff_digests": sorted(tree_digests),
    }


def end_to_end(run: dict) -> dict[str, float]:
    runs = run["results"]["untraced"]
    run_s = statistics.median(r["run_s"] for r in runs)
    return {
        "run_s": run_s,
        "profiles_per_s": run["accepted"] / run_s,
        "setup_s": statistics.median(s for r in runs for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = run["results"]["traced"]
    layers = [r["layers"] for r in traced]
    # Counts must repeat exactly; only times may differ between runs.
    for name in layers[0]:
        if not name.endswith(".s") and len({layer[name] for layer in layers}) > 1:
            run["problems"].append(f"count {name} differs between traced runs")
    metrics = {
        name: statistics.median(layer[name] for layer in layers) if name.endswith(".s") else value
        for name, value in layers[0].items()
    }
    untraced_s = statistics.median(r["run_s"] for r in run["results"]["untraced"])
    metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - untraced_s
    return metrics


def describe(run: dict, trace: bool) -> list[str]:
    """Human-readable lines that go with the result."""
    runs = run["results"]["untraced"]
    run_s = sorted(r["run_s"] for r in runs)
    lines = [
        f"failed_frac {run['failed'] / run['attempted']} ({run['failed']} of {run['attempted']} runs)",
        f"run_s median {statistics.median(run_s)} s, max {run_s[-1]} s, n={len(run_s)} runs "
        "(no percentile above the median has 10 runs beyond it, so the max is given)",
        f"run wall time median {statistics.median(r['run_wall_s'] for r in runs)} s; "
        f"reference seconds per wall second median {statistics.median(r['speed_factor'] for r in runs)}",
    ]
    if trace:
        traced = run["results"]["traced"]
        lines.append(
            f"blocking path: self times sum to {statistics.median(r['self_sum_s'] for r in traced)} s "
            f"in the traced run, against an untraced run_s of {statistics.median(run_s)} s"
        )
    lines.extend(f"problem: {p}" for p in run["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = load_json(ROOT / "BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    run = run_benchmark(workload, args.seed, args.seconds, bool(args.trace),
                        load_json(BENCH_DIR / "digests.json"))
    if not all(run["results"].values()):
        print("\n".join(run["problems"]), file=sys.stderr)
        print("perfbench: no run succeeded, so no metric can be reported", file=sys.stderr)
        return 1
    values = per_layer(run) if args.trace else end_to_end(run)
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {"tags": tags(workload, args.seed), "trace": args.trace, **result,
              "problems": run["problems"], "arff_digests": run["arff_digests"]}
    (WORK / f"{workload.name}-seed{args.seed}" / "result.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("tags " + json.dumps(record["tags"]))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print("\n".join(describe(run, bool(args.trace))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
