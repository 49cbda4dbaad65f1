"""Orchestrate the full flow: one table of stages (``STAGES``) and one
runner (``run_stages``). Every stage persists its output under the run's
output directory so stages can also be run (and re-run) one at a time;
identical inputs and configuration produce byte-identical output trees."""

from __future__ import annotations

import json
from collections import Counter, deque, namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from datetime import date
from pathlib import Path

from .arff import build_dataset, emit_arff
from .binning import (
    GapPolicy,
    age_from_birthday,
    age_range,
    bin_activities_interests,
    bin_music_share,
    bin_wall_count,
)
from .errors import ParameterError, StorageError
from .ingest import (FIELD_ENUMS, STAGE_RECORD, load_profiles, parse_birthday, persist_batches,
                     validate_and_filter)
from .ingest import persist_corpus  # noqa: F401 (perfbench/tracer.py wraps it here)
from .io_utils import atomic_write_text, atomic_writer, batches, make_output_dir
from .knn import ClassLabel, CorpusIndex, classify_text, load_sample_corpus
from .report import REPORT_TABLES, aggregate, emit_chart, emit_comparison_chart, emit_table, tally
from .textprep import DEFAULT_STOPWORDS, load_stopwords

ACCEPTED_FILE = "accepted.jsonl"
REJECTIONS_FILE = "rejections.json"
CLASSIFIED_FILE = "classified.jsonl"
BINNED_FILE = "binned.jsonl"
ARFF_FILE = "dataset.arff"
SUMMARY_FILE = "summary.json"
FAILURE_MARKER = "FAILED"

_ARTIFACT_KINDS = {".csv": "table", ".svg": "chart", ".json": "manifest"}


class RunConfig:
    """The options of one command. ``run`` takes them all; a stage
    subcommand takes those of its row in ``STAGES``, and the others keep
    their defaults, which are also class attributes (the CLI's help shows
    them). ``output_dir=Path("")`` is ``Path(".")``, so the run writes into
    the working directory; only the CLI, which refuses an empty path, can
    tell the two apart."""

    n_features, k, gap_policy, run_id = 50, 5, GapPolicy.FIVE_IS_LOW, "run"

    def __init__(self, input_path: Path, output_dir: Path, corpus_path: Path | None = None,
                 reference_date: date | None = None, stopword_path: Path | None = None,
                 n_features: int = n_features, k: int = k, gap_policy: GapPolicy = gap_policy,
                 run_id: str = run_id) -> None:
        self.input_path, self.output_dir, self.corpus_path = input_path, output_dir, corpus_path
        self.reference_date, self.stopword_path = reference_date, stopword_path
        self.n_features, self.k, self.run_id = n_features, k, run_id
        self.gap_policy = GapPolicy(gap_policy)

    def validate(self) -> None:
        """What ``run`` checks before it makes the output directory."""
        for name, value in (("input path", self.input_path), ("corpus path", self.corpus_path),
                            ("output directory", self.output_dir),
                            ("reference date", self.reference_date)):
            if not str(value or ""):
                raise ParameterError(f"{name} must be non-empty")
        check_run_id(self.run_id)


class RunSummary:
    """The counts the stages run so far returned, and the files they wrote.
    Every stage counts the accepted profiles it handled."""

    def __init__(self) -> None:
        self.accepted = self.rejected = self.malformed = self.unclassifiable = 0
        self.artifacts: list[str] = []

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


# One step of the chain. ``run_stages`` calls ``stage_<name>`` of this module,
# looked up when it is called, on the batches the stage before it yields: lists
# of (profile, line) pairs, where the line is the one the profile was read from
# or written as, or None (encode the profile whole). Every stage but report is
# a generator that yields each batch once it has written it and returns its
# counts; report counts every batch and returns its manifest. A stage drops a
# batch once it has passed it on (``del batch``), so that while the stages
# before it make the next one, no stage keeps the last. ``reads`` is the
# stage file its subcommand reads (None: the raw profiles), ``writes`` the
# files it always writes, ``options`` the ``RunConfig`` fields it takes beside
# the input and output paths, and ``prints`` its subcommand's stdout, filled
# from the ``RunSummary``'s counts, ``artifacts`` (how many files were
# written), ``files`` (their paths) and ``out``.
Stage = namedtuple("Stage", "name help reads writes options prints")

STAGES = (
    Stage("ingest", "load, validate and persist profiles", None,
          (ACCEPTED_FILE, REJECTIONS_FILE), (),
          "accepted: {accepted}\nrejected: {rejected}\nmalformed: {malformed}"),
    Stage("classify", "classify an ingested corpus", ACCEPTED_FILE, (CLASSIFIED_FILE,),
          ("corpus_path", "stopword_path", "n_features", "k"),
          "classified: {classified}\nunclassifiable: {unclassifiable}"),
    Stage("bin", "bin a classified corpus", CLASSIFIED_FILE, (BINNED_FILE,),
          ("reference_date", "gap_policy"), "binned: {accepted}"),
    Stage("arff", "emit the ARFF dataset", BINNED_FILE, (ARFF_FILE,), (), "wrote {files[0]}"),
    Stage("report", "emit distribution tables and charts", BINNED_FILE, (), ("run_id",),
          "wrote {artifacts} report artifacts under {out}"),
)


def stage_ingest(_: None, config: RunConfig, out_dir: Path) -> Iterator[list]:
    """Load and validate the raw profiles and persist the accepted ones, one
    batch at a time, yielding each batch of accepted profiles once written;
    then write the rejection report of the whole file and return the
    counts. Ingest reads the raw profiles itself: it is fed no batches."""
    records, issues = load_profiles(config.input_path)
    rejected: list[tuple[str, str]] = []

    def accepted() -> Iterator[list]:
        for batch in batches(records):
            batch, report = validate_and_filter(batch)
            rejected.extend(report.rejected)
            if batch:  # arff starts its file with the first batch it gets
                yield [(profile, None) for profile in batch]
            del batch

    written = yield from persist_batches(accepted(), out_dir / ACCEPTED_FILE)
    record = {
        "accepted_count": written,
        "rejected_count": len(rejected),
        "rejected": [{"id": record_id, "reason": reason} for record_id, reason in rejected],
        "malformed_lines": [
            {"line_no": issue.line_no, "message": issue.message} for issue in issues
        ],
    }
    atomic_write_text(out_dir / REJECTIONS_FILE, json.dumps(record, indent=2) + "\n")
    return {"accepted": written, "rejected": len(rejected), "malformed": len(issues)}


def stage_classify(stream: Iterable[list], config: RunConfig, out_dir: Path) -> Iterator[list]:
    """Label every profile's about_me text and persist it, one batch at a
    time (``ingest.persist_batches``), yielding each batch once written. The
    stopwords and the sample corpus are loaded and indexed once, and k and
    n_features are checked, when the stage starts and before it reads a
    batch, so a bad value fails even when there are no profiles."""
    path = config.stopword_path
    stopwords = DEFAULT_STOPWORDS if path is None else load_stopwords(path)
    index = CorpusIndex.build(load_sample_corpus(config.corpus_path, stopwords))
    n_features, k = config.n_features, config.k
    index.check_k(k)
    if n_features < 1:
        raise ParameterError(f"n_features={n_features} must be >= 1")
    unclassifiable = 0

    def classify_one(profile: dict) -> None:
        nonlocal unclassifiable
        label = classify_text(profile["about_me"], index, n_features, k, stopwords)
        profile["about_me_class"] = label._value_
        if label is ClassLabel.UNCLASSIFIABLE:
            unclassifiable += 1

    written = yield from persist_batches(stream, out_dir / CLASSIFIED_FILE, classify_one,
                                         STAGE_RECORD["classify"])
    return {"accepted": written, "unclassifiable": unclassifiable}


def stage_bin(stream: Iterable[list], config: RunConfig, out_dir: Path) -> Iterator[list]:
    """Derive age ranges and group classes for every profile and persist
    it, one batch at a time (``ingest.persist_batches``), yielding each batch
    once written. Every profile has passed ``ingest.rejection_reason``, so a
    birthday, if given, is a date."""
    reference_date, gap_policy = config.reference_date, config.gap_policy

    def bin_one(profile: dict) -> None:
        birthday = profile.get("birthday")
        birthday = None if birthday is None else parse_birthday(birthday)
        profile["age_range"] = age_range(age_from_birthday(birthday, reference_date))._value_
        profile["wall_count_class"] = bin_wall_count(profile["wall_count"])._value_
        profile["music_share_class"] = bin_music_share(profile["music_count"], gap_policy)._value_
        profile["activity_interest_class"] = bin_activities_interests(
            profile["activity_interest_count"], gap_policy)._value_

    written = yield from persist_batches(stream, out_dir / BINNED_FILE, bin_one,
                                         STAGE_RECORD["bin"])
    return {"accepted": written}


def stage_arff(stream: Iterable[list], config: RunConfig, out_dir: Path) -> Iterator[list]:
    """Write the ARFF dataset one batch of profiles at a time, yielding each
    batch once written: the header with the first batch's rows (alone when
    there are no profiles), then the rows of each later batch, numbered from
    the start of the file."""
    row_no = 1
    with atomic_writer(out_dir / ARFF_FILE) as write:
        for batch in stream:
            write(emit_arff(build_dataset(profile for profile, _ in batch), row_no))
            row_no += len(batch)
            yield batch
            del batch
        if row_no == 1:
            write(emit_arff(build_dataset(())))
    return {}


def check_run_id(run_id: str) -> None:
    """A run id names one directory under reports/: it must be non-empty,
    not '.' or '..', and hold no '/' or '\\'."""
    if run_id in ("", ".", "..") or "/" in run_id or "\\" in run_id:
        raise ParameterError(f"bad run id {run_id!r}: it must name one directory")


def stage_report(stream: Iterable[list], config: RunConfig, out_dir: Path) -> list[dict]:
    """Write a table per group of each of ``report.REPORT_TABLES``, in order,
    named after its measure without ``_class``, its group field's first word
    and the group's value in lower case. By age range, each non-empty group
    also gets a pie chart, and an empty one's pie from an earlier run into
    ``out_dir`` is removed; by gender, Male and Female get a line chart each,
    then their comparison table and chart. The profiles of every batch it is
    fed are counted before any file is written, so in a chain the report
    runs the stages before it. Returns the manifest: one entry per file
    written."""
    run_id = config.run_id
    check_run_id(run_id)
    base = out_dir / "reports" / run_id
    artifacts: list[dict] = []
    counts: Counter = Counter()
    for batch in stream:
        counts.update(tally(profile for profile, _ in batch))
        del batch

    def write(
        name: str, text: str, population: str, measure: str, chart_type: str | None = None
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

    for group_by, measure in REPORT_TABLES:
        slug, by = measure.removesuffix("_class"), group_by.split("_")[0]
        dists = aggregate(counts, group_by, measure)
        groups = [member.value.lower() for member in FIELD_ENUMS[group_by]]
        for group, dist in zip(groups, dists):
            write(f"tables/{slug}_{by}_{group}.csv", emit_table(dist), dist.population, measure)
            if group_by == "age_range":
                pie = f"charts/pie_{slug}_{by}_{group}.svg"
                if dist.total > 0:
                    write(pie, emit_chart(dist, "pie"), dist.population, measure, "pie")
                else:  # a pie of an earlier run into this directory
                    try:
                        (base / pie).unlink(missing_ok=True)
                    except OSError as exc:
                        raise StorageError(f"cannot remove {base / pie}: {exc}") from exc
        if group_by == "gender":
            male, female = dists[:2]
            for group, dist in zip(groups, (male, female)):
                write(f"charts/line_{slug}_{group}.svg", emit_chart(dist, "line"),
                      dist.population, measure, "line")
            population = f"{male.population} vs {female.population}"
            write(f"tables/comparison_{slug}_male_female.csv", emit_table(male, female),
                  population, measure)
            write(f"charts/cmp_{slug}_male_vs_female.svg", emit_comparison_chart(male, female),
                  population, measure, "comparison")

    manifest = {"run_id": run_id, "artifacts": artifacts}
    write(SUMMARY_FILE, json.dumps(manifest, indent=2) + "\n", "all", "all")
    return artifacts


@contextmanager
def failure_marker(out_dir: Path) -> Iterator[None]:
    """Remove a stale failure marker from ``out_dir`` (StorageError if it
    cannot be removed); if the body raises, write ``"<Type>: <message>"`` to
    a new marker and re-raise. Partial outputs are kept. A lone surrogate in
    the message (a path that is not UTF-8, as Python decodes it) is written
    as its ``\\udcXX`` escape."""
    marker = out_dir / FAILURE_MARKER
    try:
        marker.unlink(missing_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot remove {marker}: {exc}") from exc
    try:
        yield
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}\n"
        atomic_write_text(marker, text.encode("utf-8", "backslashreplace").decode("utf-8"))
        raise


def run_stages(
    config: RunConfig,
    stages: Sequence[Stage] = STAGES,
    read: Callable[[Path], Iterator[tuple[dict, str]]] | None = None,
) -> RunSummary:
    """Make the output directory, then run ``stages`` as one chain under one
    failure marker: each stage is fed the batches the one before it yields,
    so a batch passes through every stage before the next is read. The
    first stage reads ``--input``: ingest the raw profiles, any other stage
    the (record, line) pairs that ``read`` (a subcommand passes
    ``ingest.load_corpus``, which opens the file at its first ``next``)
    yields. ``summary.json`` is written last when ``read`` is not given.
    When a stage fails, the stages before it are first drained to their
    end, and a fault one of them meets replaces the later one: a failure
    leaves the files, and raises the fault, of running the stages one after
    another."""
    out_dir = Path(config.output_dir)
    make_output_dir(out_dir)
    with failure_marker(out_dir):
        results: list = []  # what each stage returned, in table order
        links: list[Iterator[list]] = []  # the batches each stage but report yields
        stream = None
        if read is not None and stages[0].reads is not None:
            stream = batches(read(config.input_path))
        fault = None
        try:
            for stage in stages:
                step = globals()[f"stage_{stage.name}"](stream, config, out_dir)
                if isinstance(step, list):  # report's manifest: the chain has run
                    results.append(step)
                else:
                    stream = _returning(step, results)
                    links.append(stream)
        except Exception as exc:
            fault = exc
        # Run the chain to its end, then drain each stage a fault stopped, the
        # last first. A stage meets only its own faults and those of the
        # stages before it, so the last fault met is the earliest stage's.
        for link in reversed(links):
            try:
                deque(link, maxlen=0)
            except Exception as exc:
                fault = exc
        if fault is not None:
            raise fault
        summary = RunSummary()
        for stage, result in zip(stages, results):
            summary.artifacts += stage.writes
            if isinstance(result, dict):
                vars(summary).update(result)
            else:
                summary.artifacts += [entry["path"] for entry in result]
        if read is None:
            atomic_write_text(
                out_dir / SUMMARY_FILE, json.dumps(summary.to_record(), indent=2) + "\n"
            )
        return summary


def _returning(step: Iterator[list], results: list) -> Iterator[list]:
    """The batches ``step`` yields; what it returns is appended to ``results``."""
    results.append((yield from step))


def run_pipeline(config: RunConfig) -> RunSummary:
    """Check the options, then run every stage in order on the raw profiles."""
    config.validate()
    return run_stages(config)
