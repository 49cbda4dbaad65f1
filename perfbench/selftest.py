#!/usr/bin/env python3
"""Self-test of the benchmark on tiny workload sizes, stdlib only:

    python3 perfbench/selftest.py

Checks that every metric declared in BENCHMARK.json is printed with its unit
in both modes, that per-layer counts repeat exactly, that the output check
fails on corrupted output trees and that failed runs are counted, that the
demo inputs at seed 0 are the shipped fixtures, and that the benchmark
refuses to report anything when the program's sources are absent.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

import run  # sets up the import paths check needs

import check
import hostspeed

SEED = 9001  # outside the recorded digest range, so tiny runs never collide with it
TINY = {
    "demo": replace(run.WORKLOADS["demo"], profiles=40, docs_per_class=3, oracle_sample=40),
    "large_corpus": replace(run.WORKLOADS["large_corpus"], profiles=10, docs_per_class=6, oracle_sample=10),
    "wide_batch_stepwise": replace(run.WORKLOADS["wide_batch_stepwise"], profiles=60, oracle_sample=60),
}
DECLARED = run.load_json(run.ROOT / "BENCHMARK.json")


def bench(name: str, trace: int) -> tuple[dict, str]:
    """Run the benchmark's command line on a tiny workload; returns the
    result line parsed and the whole standard output."""
    out = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, TINY), contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.5",
                         "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{name} trace={trace} exited with {code}")
    return json.loads(out.getvalue().splitlines()[-1]), out.getvalue()


def tiny_tree(workload: run.Workload, name: str) -> tuple[Path, list[dict], list[dict]]:
    """One checked-good output tree of a tiny workload."""
    base = run.WORK / f"selftest-{name}"
    shutil.rmtree(base, ignore_errors=True)
    profiles, corpus = run.generate(workload, SEED, base / "inputs")
    assert run.run_child(workload, base, 0, False, "selftest") == []
    return base / "out-0", profiles, corpus


class MetricsEmitted(unittest.TestCase):
    def test_every_declared_metric_with_its_unit(self):
        for name in TINY:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, text = bench(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1 + trace)
                    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
                    emitted = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    for metric_name, unit in declared.items():
                        self.assertIn(f"\n{metric_name} ", "\n" + text)
                        self.assertIsInstance(result["metrics"][metric_name]["value"], (int, float))
                    self.assertIn('"python"', text)
                    self.assertIn("failed_frac 0.0", text)

    def test_counts_repeat_exactly(self):
        first, _ = bench("demo", 1)
        second, _ = bench("demo", 1)
        counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] != "s"]
        for name in counts:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)
        self.assertEqual(first["metrics"]["knn.classify_text.calls"]["value"], 40)
        self.assertEqual(first["metrics"]["knn.rows_scored"]["value"], 40 * 30)


class HostSpeed(unittest.TestCase):
    def test_scale_drops_reference_loops_and_rescales(self):
        calibrator = hostspeed.Calibrator()
        calibrator.start()
        start = time.perf_counter()
        for _ in range(4):
            calibrator.sample()
        end = time.perf_counter()
        calibrator.stop()
        loops = sum(calibrator.durations[1:5])
        self.assertAlmostEqual(calibrator.busy(start, end), loops)
        self.assertEqual(calibrator.busy(end, end + 1), calibrator.durations[-1])
        self.assertGreater(calibrator.factor, 0)
        self.assertAlmostEqual(calibrator.scale(start, end), (end - start - loops) * calibrator.factor)


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = TINY["demo"]
        cls.good, cls.profiles, cls.corpus = tiny_tree(cls.workload, "demo")

    def problems(self, tree: Path, arff_digest=None) -> list[str]:
        return check.check_output(tree, self.workload.mode, self.profiles, self.corpus,
                                  self.workload.oracle_sample, arff_digest)

    def corrupted(self, edit) -> list[str]:
        tree = self.good.parent / "bad"
        shutil.rmtree(tree, ignore_errors=True)
        shutil.copytree(self.good, tree)
        edit(tree)
        return self.problems(tree)

    def test_good_tree_passes(self):
        self.assertEqual(self.problems(self.good), [])
        digest = check.sha256_file(self.good / "dataset.arff")
        self.assertEqual(self.problems(self.good, digest), [])
        self.assertNotEqual(self.problems(self.good, "0" * 64), [])

    def test_stepwise_tree_passes(self):
        workload = TINY["large_corpus"]
        tree, profiles, corpus = tiny_tree(workload, "large_corpus")
        self.assertEqual(check.check_output(tree, workload.mode, profiles, corpus, 10), [])

    def test_corruptions_fail(self):
        def drop_arff_row(tree):
            lines = (tree / "dataset.arff").read_text().splitlines(keepends=True)
            (tree / "dataset.arff").write_text("".join(lines[:-1]))

        def relabel(tree):
            path = tree / "classified.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            rows[0]["about_me_class"] = "Lazy" if rows[0]["about_me_class"] != "Lazy" else "Honest"
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))

        def failed_marker(tree):
            (tree / "FAILED").write_text("StorageError: disk full\n")

        def table_count(tree):
            table = next((tree / "reports" / "run" / "tables").glob("about_me_age_*.csv"))
            lines = table.read_text().splitlines()
            bucket, count, percent = lines[1].split(",")
            lines[1] = f"{bucket},{int(count) + 1},{percent}"
            table.write_text("\n".join(lines) + "\n")

        def summary_counts(tree):
            summary = json.loads((tree / "summary.json").read_text())
            summary["counts"]["classified"] += 1
            (tree / "summary.json").write_text(json.dumps(summary))

        def missing_arff(tree):
            (tree / "dataset.arff").unlink()

        for edit in (drop_arff_row, relabel, failed_marker, table_count, summary_counts, missing_arff):
            with self.subTest(edit=edit.__name__):
                self.assertNotEqual(self.corrupted(edit), [])

    def test_failed_runs_are_counted(self):
        broken = replace(TINY["demo"], docs_per_class=0)  # empty corpus: every run raises
        result = run.run_benchmark(broken, SEED, 0.3, False, {})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["results"]["untraced"], [])
        self.assertTrue(result["problems"])


class Inputs(unittest.TestCase):
    def test_demo_seed_zero_is_the_shipped_fixture(self):
        base = run.WORK / "selftest-inputs"
        shutil.rmtree(base, ignore_errors=True)
        run.generate(run.WORKLOADS["demo"], 0, base)
        recorded = run.load_json(run.BENCH_DIR / "digests.json")["inputs"]["demo"]["0"]
        for name, digest in recorded.items():
            self.assertEqual(check.sha256_file(base / name), digest)
            shipped = run.ROOT / "data" / name
            self.assertEqual(check.sha256_file(shipped), digest)


class WithoutProgram(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
