"""Command line interface. `run` drives the whole pipeline; the other
subcommands run one stage at a time on the previous stage's persisted output.
The commands, their options and what they print come from
``pipeline.STAGES``."""

from __future__ import annotations

import argparse
import os
import sys
from datetime import date
from pathlib import Path

from .binning import GapPolicy
from .errors import SocialMinerError
from .ingest import load_corpus, parse_birthday
from .knn import load_sample_corpus  # noqa: F401 (perfbench/tracer.py wraps cli.load_sample_corpus)
from .pipeline import STAGES, RunConfig, run_pipeline, run_stages
from .pipeline import (  # noqa: F401 (perfbench/tracer.py wraps cli.stage_*)
    stage_arff,
    stage_bin,
    stage_classify,
    stage_ingest,
    stage_report,
)


def _iso_date(text: str) -> date:
    """A date as ingest takes a birthday (``ingest.parse_birthday``)."""
    parsed = parse_birthday(text)
    if parsed is None:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}")
    return parsed


def _path(text: str) -> Path:
    """A path argument; "" is refused, where ``Path`` would make it "."."""
    if not text:
        raise argparse.ArgumentTypeError("the path must be non-empty")
    return Path(text)


# Every option, keyed by the RunConfig field it sets, in the order a command
# lists them. A command takes --input, --out and the options of its stages.
_OPTIONS = {
    "input_path": ("--input", dict(required=True, type=_path, metavar="INPUT")),
    "corpus_path": ("--corpus", dict(required=True, type=_path, metavar="CORPUS",
                                     help="sample corpus JSONL")),
    "stopword_path": ("--stopwords", dict(type=_path, metavar="STOPWORDS",
                                          help="stopword file (one word per line)")),
    "n_features": ("--features", dict(type=int, default=RunConfig.n_features, metavar="N",
                                      help="feature count (default %(default)s)")),
    "k": ("--k", dict(type=int, default=RunConfig.k, metavar="K",
                      help="neighbors to vote (default %(default)s)")),
    "reference_date": ("--ref-date", dict(required=True, type=_iso_date, metavar="REF_DATE",
                                          help="reference date for ages (YYYY-MM-DD)")),
    "gap_policy": ("--gap-policy", dict(choices=[p.value for p in GapPolicy],
                                        default=RunConfig.gap_policy.value,
                                        help="bucket for the unassigned share value 5"
                                             " (default %(default)s)")),
    "output_dir": ("--out", dict(required=True, type=_path, metavar="OUT")),
    "run_id": ("--run-id", dict(default=RunConfig.run_id, metavar="RUN_ID",
                                help="name of the reports subdirectory (default %(default)s)")),
}


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, with the width it would take from
    ``shutil.get_terminal_size`` found without importing ``shutil`` (and,
    through it, zlib, bz2 and lzma): a positive COLUMNS, else the width of
    the terminal on stdout, else 80, less 2."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            try:
                width = int(os.environ["COLUMNS"])
            except (KeyError, ValueError):
                width = 0
            if width <= 0:
                try:
                    width = os.get_terminal_size(sys.__stdout__.fileno()).columns
                except (AttributeError, ValueError, OSError):
                    width = 0
                width = width or 80
            width -= 2
        super().__init__(prog, indent_increment, max_help_position, width)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialminer",
        description="Classify profile texts, bin numeric attributes, emit ARFF and reports.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    made_by = {name: stage.name for stage in STAGES for name in stage.writes}
    for name, help_text, stages in [("run", "run the full pipeline", STAGES)] + [
        (stage.name, stage.help, (stage,)) for stage in STAGES
    ]:
        command = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
        reads = stages[0].reads
        helps = {"input_path": f"{reads} from {made_by[reads]}" if reads else "raw profiles JSONL",
                 "output_dir": "output directory" if name == "run" else None}
        taken = {"input_path", "output_dir"}.union(*(stage.options for stage in stages))
        for field_name, (flag, options) in _OPTIONS.items():
            if field_name in taken:
                command.add_argument(flag, dest=field_name, **{"help": helps.get(field_name), **options})
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config = RunConfig(**args)
    try:
        if command == "run":
            summary = run_pipeline(config)
            lines = [f"{name}: {value}" for name, value in summary.to_record()["counts"].items()]
            text = "\n".join(lines + ["artifacts: {artifacts} under {out}"])
        else:
            stage = next(stage for stage in STAGES if stage.name == command)
            summary = run_stages(config, (stage,), read=load_corpus)
            text = stage.prints
    except SocialMinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = config.output_dir
    files = [out / name for name in summary.artifacts]
    print(text.format(**summary.to_record()["counts"], artifacts=len(files), out=out, files=files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
