"""Orchestrate the full flow: ingest, classify, bin, ARFF emission and
reports. Every stage persists its output under the run's output directory so
stages can also be run (and re-run) one at a time; identical inputs and
configuration produce byte-identical output trees."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .arff import build_dataset, emit_arff
from .binning import (
    GapPolicy,
    age_from_birthday,
    age_range,
    bin_activities_interests,
    bin_music_share,
    bin_wall_count,
)
from .errors import ParameterError
from .ingest import (
    ParseIssue,
    Profile,
    RejectionReport,
    load_profiles,
    parse_birthday,
    persist_corpus,
    validate_and_filter,
)
from .io_utils import atomic_write_text, make_output_dir
from .knn import ClassLabel, CorpusIndex, SampleDocument, classify_text, load_sample_corpus
from .report import aggregate, compare, emit_chart, emit_comparison_chart, emit_table
from .textprep import DEFAULT_STOPWORDS, load_stopwords

ACCEPTED_FILE = "accepted.jsonl"
REJECTIONS_FILE = "rejections.json"
CLASSIFIED_FILE = "classified.jsonl"
BINNED_FILE = "binned.jsonl"
ARFF_FILE = "dataset.arff"
SUMMARY_FILE = "summary.json"
FAILURE_MARKER = "FAILED"

_GENDER_MEASURES = (
    ("about_me_class", "about_me"),
    ("wall_count_class", "wall_count"),
    ("music_share_class", "music_share"),
    ("activity_interest_class", "activity_interest"),
)
_ARTIFACT_KINDS = {".csv": "table", ".svg": "chart", ".json": "manifest"}


def _group_slug(population: str) -> str:
    """'age_range=UpTo19' -> 'upto19'."""
    return population.split("=", 1)[1].lower()


@dataclass
class RunConfig:
    input_path: Path
    corpus_path: Path
    reference_date: date
    output_dir: Path
    stopword_path: Optional[Path] = None
    n_features: int = 50
    k: int = 5
    gap_policy: GapPolicy = GapPolicy.FIVE_IS_LOW
    run_id: str = "run"

    def validate(self) -> None:
        if self.n_features < 1:
            raise ParameterError(f"n_features must be >= 1, got {self.n_features}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        for name, value in (("input", self.input_path), ("corpus", self.corpus_path)):
            if not str(value):
                raise ParameterError(f"{name} path must be non-empty")
        if not str(self.output_dir):
            raise ParameterError("output directory must be non-empty")
        check_run_id(self.run_id)


@dataclass
class RunSummary:
    accepted: int = 0
    rejected: int = 0
    malformed: int = 0
    unclassifiable: int = 0
    artifacts: list[str] = field(default_factory=list)

    @property
    def ingested(self) -> int:
        return self.accepted + self.rejected

    @property
    def classified(self) -> int:
        return self.accepted - self.unclassifiable

    def to_record(self) -> dict:
        return {
            "counts": {
                "ingested": self.ingested,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "malformed": self.malformed,
                "classified": self.classified,
                "unclassifiable": self.unclassifiable,
            },
            "artifacts": self.artifacts,
        }


def stage_ingest(
    input_path: Path, out_dir: Path
) -> tuple[list[Profile], RejectionReport, list[ParseIssue]]:
    """Load, validate and persist the accepted corpus plus the rejection report."""
    raws, issues = load_profiles(input_path)
    profiles, report = validate_and_filter(raws)
    persist_corpus(profiles, out_dir / ACCEPTED_FILE)
    record = report.to_record()
    record["malformed_lines"] = [
        {"line_no": issue.line_no, "message": issue.message} for issue in issues
    ]
    atomic_write_text(out_dir / REJECTIONS_FILE, json.dumps(record, indent=2) + "\n")
    return profiles, report, issues


def stage_classify(
    profiles: list[Profile],
    corpus: Sequence[SampleDocument],
    n_features: int,
    k: int,
    stopwords: frozenset[str],
    out_dir: Path,
) -> tuple[int, int]:
    """Label every profile's about_me text; returns (classified, unclassifiable).
    The corpus is indexed once, and k and n_features are checked before any
    text, so a bad value fails even when there are no profiles."""
    index = CorpusIndex.build(corpus)
    index.check_k(k)
    if n_features < 1:
        raise ParameterError(f"n_features={n_features} must be >= 1")
    unclassifiable = 0
    for profile in profiles:
        label = classify_text(profile.about_me, index, n_features, k, stopwords)
        profile.about_me_class = label
        if label is ClassLabel.UNCLASSIFIABLE:
            unclassifiable += 1
    persist_corpus(profiles, out_dir / CLASSIFIED_FILE)
    return len(profiles) - unclassifiable, unclassifiable


def stage_bin(
    profiles: list[Profile],
    reference_date: date,
    gap_policy: GapPolicy,
    out_dir: Path,
) -> None:
    """Derive age ranges and group classes for every profile."""
    for profile in profiles:
        birthday = parse_birthday(profile.birthday) if profile.birthday else None
        profile.age_range = age_range(age_from_birthday(birthday, reference_date))
        profile.wall_count_class = bin_wall_count(profile.wall_count)
        profile.music_share_class = bin_music_share(profile.music_count, gap_policy)
        profile.activity_interest_class = bin_activities_interests(
            profile.activity_interest_count, gap_policy
        )
    persist_corpus(profiles, out_dir / BINNED_FILE)


def stage_arff(profiles: list[Profile], out_dir: Path) -> None:
    atomic_write_text(out_dir / ARFF_FILE, emit_arff(build_dataset(profiles)))


def check_run_id(run_id: str) -> None:
    """A run id names one directory under reports/: it must be non-empty,
    not '.' or '..', and hold no '/' or '\\'."""
    if run_id in ("", ".", "..") or "/" in run_id or "\\" in run_id:
        raise ParameterError(f"bad run id {run_id!r}: it must name one directory")


def stage_report(profiles: list[Profile], out_dir: Path, run_id: str) -> list[dict]:
    """Write distribution tables and charts: pie charts of personality
    classes per age range, per-gender line charts, and male/female
    comparison charts for every binned measure."""
    check_run_id(run_id)
    base = out_dir / "reports" / run_id
    artifacts: list[dict] = []

    def write(
        name: str, text: str, population: str, measure: str, chart_type: Optional[str] = None
    ) -> None:
        path = base / name
        atomic_write_text(path, text)
        entry = {
            "path": path.relative_to(out_dir).as_posix(),
            "kind": _ARTIFACT_KINDS[path.suffix],
        }
        if chart_type is not None:
            entry["chart_type"] = chart_type
        artifacts.append({**entry, "filter": population, "measure": measure})

    for dist in aggregate(profiles, "age_range", "about_me_class"):
        slug = _group_slug(dist.population)
        write(f"tables/about_me_age_{slug}.csv", emit_table(dist), dist.population, dist.dimension)
        if dist.total > 0:
            write(
                f"charts/pie_about_me_age_{slug}.svg", emit_chart(dist, "pie"),
                dist.population, dist.dimension, "pie",
            )

    for measure, slug in _GENDER_MEASURES:
        dists = aggregate(profiles, "gender", measure)
        for dist in dists:
            group = _group_slug(dist.population)
            write(f"tables/{slug}_gender_{group}.csv", emit_table(dist), dist.population, measure)
        male, female = dists[:2]
        for dist in (male, female):
            group = _group_slug(dist.population)
            write(
                f"charts/line_{slug}_{group}.svg", emit_chart(dist, "line"),
                dist.population, measure, "line",
            )
        comparison = compare(male, female)
        population = f"{male.population} vs {female.population}"
        write(
            f"tables/comparison_{slug}_male_female.csv", emit_table(comparison),
            population, measure,
        )
        write(
            f"charts/cmp_{slug}_male_vs_female.svg", emit_comparison_chart(comparison),
            population, measure, "comparison",
        )

    manifest = {"run_id": run_id, "artifacts": artifacts}
    write(SUMMARY_FILE, json.dumps(manifest, indent=2) + "\n", "all", "all")
    return artifacts


@contextmanager
def failure_marker(out_dir: Path) -> Iterator[None]:
    """Remove a stale failure marker from ``out_dir``; if the body raises,
    write ``"<Type>: <message>"`` to a new marker and re-raise. Partial
    outputs are kept. A lone surrogate in the message (a path that is not
    UTF-8, as Python decodes it) is written as its ``\\udcXX`` escape."""
    marker = out_dir / FAILURE_MARKER
    marker.unlink(missing_ok=True)
    try:
        yield
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}\n"
        atomic_write_text(marker, text.encode("utf-8", "backslashreplace").decode("utf-8"))
        raise


def run_pipeline(config: RunConfig) -> RunSummary:
    """Run every stage in order, under a failure marker."""
    config.validate()
    out_dir = Path(config.output_dir)
    make_output_dir(out_dir)
    with failure_marker(out_dir):
        stopwords = (
            load_stopwords(config.stopword_path)
            if config.stopword_path is not None
            else DEFAULT_STOPWORDS
        )
        corpus = load_sample_corpus(config.corpus_path, stopwords)

        profiles, report, issues = stage_ingest(Path(config.input_path), out_dir)
        _, unclassifiable = stage_classify(
            profiles, corpus, config.n_features, config.k, stopwords, out_dir
        )
        stage_bin(profiles, config.reference_date, config.gap_policy, out_dir)
        stage_arff(profiles, out_dir)
        report_artifacts = stage_report(profiles, out_dir, config.run_id)

        summary = RunSummary(
            accepted=report.accepted_count,
            rejected=report.rejected_count,
            malformed=len(issues),
            unclassifiable=unclassifiable,
            artifacts=[ACCEPTED_FILE, REJECTIONS_FILE, CLASSIFIED_FILE, BINNED_FILE, ARFF_FILE]
            + [entry["path"] for entry in report_artifacts],
        )
        atomic_write_text(
            out_dir / SUMMARY_FILE, json.dumps(summary.to_record(), indent=2) + "\n"
        )
        return summary
