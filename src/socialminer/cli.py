"""Command line interface. `run` drives the whole pipeline; the other
subcommands run one stage at a time on the previous stage's persisted output."""

from __future__ import annotations

import argparse
import sys
from datetime import date
from pathlib import Path

from .binning import GapPolicy
from .errors import SocialMinerError
from .ingest import load_corpus
from .io_utils import make_output_dir
from .knn import load_sample_corpus
from .pipeline import (
    ACCEPTED_FILE,
    ARFF_FILE,
    BINNED_FILE,
    CLASSIFIED_FILE,
    RunConfig,
    failure_marker,
    run_pipeline,
    stage_arff,
    stage_bin,
    stage_classify,
    stage_ingest,
    stage_report,
)
from .textprep import DEFAULT_STOPWORDS, load_stopwords


def _iso_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}") from exc


def _add_classify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, type=Path, help="sample corpus JSONL")
    parser.add_argument("--stopwords", type=Path, help="stopword file (one word per line)")
    parser.add_argument("--features", type=int, default=RunConfig.n_features, metavar="N",
                        help="feature count (default %(default)s)")
    parser.add_argument("--k", type=int, default=RunConfig.k, help="neighbors to vote (default %(default)s)")


def _add_bin_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ref-date", required=True, type=_iso_date, help="reference date for ages (YYYY-MM-DD)")
    parser.add_argument(
        "--gap-policy",
        choices=[p.value for p in GapPolicy],
        default=RunConfig.gap_policy.value,
        help="bucket for the unassigned share value 5 (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialminer",
        description="Classify profile texts, bin numeric attributes, emit ARFF and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline")
    run.add_argument("--input", required=True, type=Path, help="raw profiles JSONL")
    _add_classify_options(run)
    _add_bin_options(run)
    run.add_argument("--out", required=True, type=Path, help="output directory")

    ingest = sub.add_parser("ingest", help="load, validate and persist profiles")
    ingest.add_argument("--input", required=True, type=Path, help="raw profiles JSONL")
    ingest.add_argument("--out", required=True, type=Path)

    classify = sub.add_parser("classify", help="classify an ingested corpus")
    classify.add_argument("--input", required=True, type=Path, help=f"{ACCEPTED_FILE} from ingest")
    _add_classify_options(classify)
    classify.add_argument("--out", required=True, type=Path)

    binning = sub.add_parser("bin", help="bin a classified corpus")
    binning.add_argument("--input", required=True, type=Path, help=f"{CLASSIFIED_FILE} from classify")
    _add_bin_options(binning)
    binning.add_argument("--out", required=True, type=Path)

    arff = sub.add_parser("arff", help="emit the ARFF dataset")
    arff.add_argument("--input", required=True, type=Path, help=f"{BINNED_FILE} from bin")
    arff.add_argument("--out", required=True, type=Path)

    report = sub.add_parser("report", help="emit distribution tables and charts")
    report.add_argument("--input", required=True, type=Path, help=f"{BINNED_FILE} from bin")
    report.add_argument("--out", required=True, type=Path)

    for command in (run, report):
        command.add_argument("--run-id", default=RunConfig.run_id,
                             help="name of the reports subdirectory (default %(default)s)")
    return parser


def _stopwords_from(args) -> frozenset[str]:
    return load_stopwords(args.stopwords) if args.stopwords else DEFAULT_STOPWORDS


def _cmd_run(args) -> int:
    config = RunConfig(
        input_path=args.input,
        corpus_path=args.corpus,
        reference_date=args.ref_date,
        output_dir=args.out,
        stopword_path=args.stopwords,
        n_features=args.features,
        k=args.k,
        gap_policy=GapPolicy(args.gap_policy),
        run_id=args.run_id,
    )
    summary = run_pipeline(config)
    for name, value in summary.to_record()["counts"].items():
        print(f"{name}: {value}")
    print(f"artifacts: {len(summary.artifacts)} under {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    profiles, report, issues = stage_ingest(args.input, args.out)
    print(f"accepted: {report.accepted_count}")
    print(f"rejected: {report.rejected_count}")
    print(f"malformed: {len(issues)}")
    return 0


def _cmd_classify(args) -> int:
    stopwords = _stopwords_from(args)
    profiles = load_corpus(args.input)
    corpus = load_sample_corpus(args.corpus, stopwords)
    classified, unclassifiable = stage_classify(
        profiles, corpus, args.features, args.k, stopwords, args.out
    )
    print(f"classified: {classified}")
    print(f"unclassifiable: {unclassifiable}")
    return 0


def _cmd_bin(args) -> int:
    profiles = load_corpus(args.input)
    stage_bin(profiles, args.ref_date, GapPolicy(args.gap_policy), args.out)
    print(f"binned: {len(profiles)}")
    return 0


def _cmd_arff(args) -> int:
    stage_arff(load_corpus(args.input), args.out)
    print(f"wrote {args.out / ARFF_FILE}")
    return 0


def _cmd_report(args) -> int:
    artifacts = stage_report(load_corpus(args.input), args.out, args.run_id)
    print(f"wrote {len(artifacts)} report artifacts under {args.out}")
    return 0


_STAGE_COMMANDS = {
    "ingest": _cmd_ingest,
    "classify": _cmd_classify,
    "bin": _cmd_bin,
    "arff": _cmd_arff,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)  # run_pipeline keeps its own failure marker
        make_output_dir(args.out)
        with failure_marker(args.out):
            return _STAGE_COMMANDS[args.command](args)
    except SocialMinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
