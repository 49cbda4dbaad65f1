"""Spans around calls into socialminer's modules, recorded from outside.

Each public function is wrapped at the module attribute its caller resolves
(``knn.distance_matrix`` is looked up in ``knn``'s globals by
``classify_text``; ``stage_bin`` in ``pipeline``'s globals by
``run_pipeline``), so nothing under ``src/`` changes. Per-row helpers such as
``count_vector`` and ``squared_diff_row`` are left alone: a span per row would
cost more than the row. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from socialminer import cli, ingest, knn, pipeline

STAGES = ("ingest", "classify", "bin", "arff", "report")


class Tracer:
    """Spans of one run: name, start, end and parent index, plus counters
    taken from the wrapped calls' arguments and results."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a function that records a span around
        each call; ``count(counts, args, result)`` runs after the span ends."""
        func = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)

    def self_times(self, duration) -> list[float]:
        """Each span's duration minus the part its child spans cover, where
        ``duration(start, end)`` measures an interval."""
        own = [duration(start, end) for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= duration(start, end)
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"run_id": self.run_id, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _file_bytes(key: str, position: int):
    def count(counts, args, result):
        counts[key] += os.path.getsize(args[position])
    return count


def _count(key: str, measure):
    def count(counts, args, result):
        counts[key] += measure(result)
    return count


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken from."""
    docs = _count("knn.corpus_docs", len)
    # stage_report returns one manifest entry per artifact written.
    artifacts = {"report": _count("report.artifacts", len)}
    for module in (pipeline, cli):
        tracer.wrap(module, "load_sample_corpus", "knn.load_sample_corpus", docs)
        for stage in STAGES:
            tracer.wrap(module, f"stage_{stage}", f"pipeline.stage_{stage}", artifacts.get(stage))
    tracer.wrap(cli, "run_pipeline", "pipeline.run_pipeline")
    tracer.wrap(
        pipeline, "classify_text", "knn.classify_text",
        _count("knn.unclassifiable", lambda label: label is knn.ClassLabel.UNCLASSIFIABLE),
    )
    tracer.wrap(knn, "prepare", "textprep.prepare")
    for name in ("term_counts", "term_frequency", "select_features"):
        tracer.wrap(knn, name, f"features.{name}")
    tracer.wrap(knn, "distance_matrix", "knn.distance_matrix", _count("knn.rows_scored", len))
    tracer.wrap(knn, "knn_classify", "knn.knn_classify",
                _count("knn.rows_voted", lambda result: len(result[1])))
    tracer.wrap(pipeline, "load_profiles", "ingest.load_profiles")
    tracer.wrap(pipeline, "validate_and_filter", "ingest.validate_and_filter",
                _count("ingest.rejected", lambda result: len(result[1].rejected)))
    tracer.wrap(pipeline, "persist_corpus", "ingest.persist_corpus",
                _file_bytes("ingest.persist_corpus.bytes", 1))
    tracer.wrap(cli, "load_corpus", "ingest.load_corpus", _file_bytes("ingest.load_corpus.bytes", 0))
    for module in (pipeline, ingest):
        tracer.wrap(module, "atomic_write_text", "io_utils.atomic_write_text",
                    _file_bytes("io_utils.atomic_write_text.bytes", 0))
    tracer.wrap(pipeline, "build_dataset", "arff.build_dataset")
    tracer.wrap(pipeline, "emit_arff", "arff.emit_arff",
                _count("arff.bytes", lambda text: len(text.encode("utf-8"))))
    tracer.wrap(pipeline, "aggregate", "report.aggregate")
    for name in ("emit_table", "emit_chart", "emit_comparison_chart"):
        tracer.wrap(pipeline, name, "report.render")


def layer_metrics(tracer: Tracer, duration) -> dict[str, float]:
    """Per-layer times (seconds, summed over calls), call counts and counters.
    ``duration(start, end)`` measures a span; the benchmark passes one that
    gives reference seconds.

    Stage spans and ``cli.s`` (the cli layer's own work: parsing arguments,
    printing) report self time; every other span reports its inclusive time.
    ``features.s`` counts only feature calls made by ``classify_text``, not
    the ones made while the sample corpus loads. ``ingest.load.s`` covers
    both readers: raw profiles and the stage files the subcommands read back.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    features_s = 0.0
    for (name, start, end, parent), self_s in zip(tracer.spans, tracer.self_times(duration)):
        span_s = duration(start, end)
        total[name] += span_s
        own[name] += self_s
        calls[name] += 1
        if name.startswith("features.") and parent >= 0 \
                and tracer.spans[parent][0] == "knn.classify_text":
            features_s += span_s
    counts = tracer.counts
    metrics = {
        "knn.distance_matrix.s": total["knn.distance_matrix"],
        "knn.rows_scored": counts["knn.rows_scored"],
        "knn.vote_yield": counts["knn.rows_voted"] / counts["knn.rows_scored"]
        if counts["knn.rows_scored"] else 0.0,
        "knn.knn_classify.s": total["knn.knn_classify"],
        "knn.load_sample_corpus.s": total["knn.load_sample_corpus"],
        "knn.corpus_docs": counts["knn.corpus_docs"],
        "knn.classify_text.calls": calls["knn.classify_text"],
        "knn.unclassifiable": counts["knn.unclassifiable"],
        "textprep.prepare.s": total["textprep.prepare"],
        "textprep.prepare.calls": calls["textprep.prepare"],
        "features.s": features_s,
        "ingest.load.s": total["ingest.load_profiles"] + total["ingest.load_corpus"],
        "ingest.validate_and_filter.s": total["ingest.validate_and_filter"],
        "ingest.rejected": counts["ingest.rejected"],
        "ingest.persist_corpus.s": total["ingest.persist_corpus"],
        "ingest.persist_corpus.bytes": counts["ingest.persist_corpus.bytes"],
        "ingest.load_corpus.bytes": counts["ingest.load_corpus.bytes"],
        "io_utils.atomic_write_text.calls": calls["io_utils.atomic_write_text"],
        "io_utils.atomic_write_text.s": total["io_utils.atomic_write_text"],
        "io_utils.atomic_write_text.bytes": counts["io_utils.atomic_write_text.bytes"],
        "arff.build_dataset.s": total["arff.build_dataset"],
        "arff.emit_arff.s": total["arff.emit_arff"],
        "arff.bytes": counts["arff.bytes"],
        "report.aggregate.s": total["report.aggregate"],
        "report.render.s": total["report.render"],
        "report.artifacts": counts["report.artifacts"],
    }
    for stage in STAGES:
        metrics[f"pipeline.stage_{stage}.s"] = own[f"pipeline.stage_{stage}"]
    cli_spans = [name for name in calls if name.startswith("cli.")]
    metrics["cli.s"] = sum(own[name] for name in cli_spans)
    metrics["cli.calls"] = sum(calls[name] for name in cli_spans)
    return metrics
