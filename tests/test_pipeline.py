import codecs
import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import socialminer

from socialminer.arff import ArffAttribute, ArffDataset
from socialminer.binning import GapPolicy
from socialminer.cli import main
from socialminer import knn
from socialminer.errors import DomainError, ParameterError, StorageError
from socialminer.ingest import (STAGE_RECORD, ParseIssue, RejectionReport, load_corpus,
                                validate_and_filter)
from socialminer.knn import load_sample_corpus
from socialminer.pipeline import (STAGES, RunConfig, RunSummary, run_pipeline, run_stages,
                                  stage_bin, stage_classify, stage_ingest)
from socialminer.report import Distribution
from socialminer.synth import make_corpus_records, make_profile_records, write_jsonl

import reference_paths
from arff_oracle import parse_arff

REF = date(2015, 6, 1)
REPO = Path(__file__).parent.parent


def write_corpus(path: Path) -> None:
    write_jsonl(path, make_corpus_records(docs_per_class=3))


def record(i, **overrides):
    base = {
        "id": f"u{i}",
        "birthday": "1990-01-15",
        "about_me": "truthful genuine integrity fair candid upfront",
        "activities": "reading, hiking",
        "gender": "female" if i % 2 else "male",
        "interests": "chess",
        "wall_count": 12 * i,
        "music_count": i,
    }
    base.update(overrides)
    return base


def config_for(tmp_path: Path, out_name="out", **overrides) -> RunConfig:
    fields = dict(
        input_path=tmp_path / "profiles.jsonl",
        corpus_path=tmp_path / "corpus.jsonl",
        reference_date=REF,
        output_dir=tmp_path / out_name,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRunPipeline:
    def test_empty_input(self, tmp_path):
        (tmp_path / "profiles.jsonl").write_text("", encoding="utf-8")
        write_corpus(tmp_path / "corpus.jsonl")
        summary = run_pipeline(config_for(tmp_path))
        counts = summary.to_record()["counts"]
        assert all(v == 0 for v in counts.values())
        out = tmp_path / "out"
        ds = parse_arff((out / "dataset.arff").read_text(encoding="utf-8"))
        assert len(ds.attributes) == 9 and ds.rows == []
        table = out / "reports" / "run" / "tables" / "about_me_age_upto19.csv"
        assert all(line.endswith(",0,0.00") for line in table.read_text().splitlines()[1:])

    def test_mixed_fixture_counts(self, tmp_path):
        records = [record(i) for i in range(8)]
        records.append(record(8, about_me=None))
        records.append(record(9, music_count=-2))
        write_jsonl(tmp_path / "profiles.jsonl", records)
        write_corpus(tmp_path / "corpus.jsonl")
        summary = run_pipeline(config_for(tmp_path))
        assert summary.ingested == 10
        assert summary.accepted == 8
        assert summary.rejected == 2
        assert summary.accepted == summary.classified + summary.unclassifiable
        rejections = json.loads((tmp_path / "out" / "rejections.json").read_text())
        assert {r["reason"] for r in rejections["rejected"]} == {
            "MISSING_TEXT",
            "NEGATIVE_NUMERIC",
        }

    def test_malformed_lines_counted_not_dropped(self, tmp_path):
        lines = [json.dumps(record(0)), "{broken", json.dumps(record(1))]
        (tmp_path / "profiles.jsonl").write_text("\n".join(lines), encoding="utf-8")
        write_corpus(tmp_path / "corpus.jsonl")
        summary = run_pipeline(config_for(tmp_path))
        assert summary.ingested == 2 and summary.malformed == 1
        rejections = json.loads((tmp_path / "out" / "rejections.json").read_text())
        assert rejections["malformed_lines"][0]["line_no"] == 2

    def test_unclassifiable_text_flows_to_arff(self, tmp_path):
        records = [record(0), record(1, about_me="i am the and of to")]
        write_jsonl(tmp_path / "profiles.jsonl", records)
        write_corpus(tmp_path / "corpus.jsonl")
        summary = run_pipeline(config_for(tmp_path))
        assert summary.unclassifiable == 1
        arff_text = (tmp_path / "out" / "dataset.arff").read_text(encoding="utf-8")
        assert any("Unclassifiable" in line for line in arff_text.splitlines()[11:])

    def test_rerun_is_byte_identical(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(6)])
        write_corpus(tmp_path / "corpus.jsonl")
        run_pipeline(config_for(tmp_path, "out1"))
        run_pipeline(config_for(tmp_path, "out2"))
        assert tree_bytes(tmp_path / "out1") == tree_bytes(tmp_path / "out2")

    def test_missing_corpus_writes_failure_marker(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(0)])
        with pytest.raises(StorageError):
            run_pipeline(config_for(tmp_path))
        assert (tmp_path / "out" / "FAILED").exists()

    def test_future_birthday_fails_binning_stage(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(0, birthday="2030-01-01")])
        write_corpus(tmp_path / "corpus.jsonl")
        with pytest.raises(DomainError):
            run_pipeline(config_for(tmp_path))
        out = tmp_path / "out"
        assert (out / "FAILED").exists()
        # partial outputs from earlier stages are retained
        assert (out / "accepted.jsonl").exists()
        assert (out / "classified.jsonl").exists()

    def test_marker_cleared_on_successful_rerun(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(0)])
        with pytest.raises(StorageError):
            run_pipeline(config_for(tmp_path))
        write_corpus(tmp_path / "corpus.jsonl")
        run_pipeline(config_for(tmp_path))
        assert not (tmp_path / "out" / "FAILED").exists()

    def test_summary_artifacts_exist(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(4)])
        write_corpus(tmp_path / "corpus.jsonl")
        summary = run_pipeline(config_for(tmp_path))
        out = tmp_path / "out"
        for artifact in summary.artifacts:
            assert (out / artifact).is_file(), artifact
        saved = json.loads((out / "summary.json").read_text())
        assert saved == summary.to_record()


class TestStageClassify:
    def test_index_built_once_per_stage(self, tmp_path, monkeypatch):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(7)])
        write_corpus(tmp_path / "corpus.jsonl")
        config = config_for(tmp_path)
        run_stages(config, STAGES[:1], read=load_corpus)
        corpus = load_sample_corpus(tmp_path / "corpus.jsonl")
        builds = []
        build = knn.CorpusIndex.build

        def counting_build(corpus):
            builds.append(len(corpus))
            return build(corpus)

        monkeypatch.setattr(knn.CorpusIndex, "build", counting_build)
        accepted = config_for(tmp_path, input_path=config.output_dir / "accepted.jsonl")
        summary = run_stages(accepted, STAGES[1:2], read=load_corpus)
        assert (summary.accepted, summary.unclassifiable) == (7, 0)
        assert builds == [len(corpus)]

    def test_k_checked_before_any_text(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(0, about_me="i am the and of to")])
        write_corpus(tmp_path / "corpus.jsonl")
        accepted = list(stage_ingest(None, config_for(tmp_path), tmp_path))
        corpus = load_sample_corpus(tmp_path / "corpus.jsonl")
        classify = stage_classify(iter(accepted), config_for(tmp_path, k=len(corpus) + 1), tmp_path)
        with pytest.raises(ParameterError):
            next(classify)
        assert not (tmp_path / "classified.jsonl").exists()

    def test_k_above_corpus_fails_run_on_stopword_texts(self, tmp_path, capsys):
        write_jsonl(
            tmp_path / "profiles.jsonl",
            [record(i, about_me="i am the and of to") for i in range(3)],
        )
        write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        code = main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"),
             "--ref-date", "2015-06-01", "--out", str(out), "--k", "10000"]
        )
        assert code == 1
        assert "k=10000" in capsys.readouterr().err
        assert (out / "FAILED").read_text().startswith("ParameterError")

    def test_classify_checks_k_before_it_opens_its_input(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["classify", "--input", str(tmp_path / "missing.jsonl"),
             "--corpus", str(REPO / "data" / "sample_corpus.jsonl"),
             "--k", "100000", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: k=100000 outside [1, 600]\n"
        assert (out / "FAILED").read_text().startswith("ParameterError")


class TestCli:
    def run_inputs(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(5)])
        write_corpus(tmp_path / "corpus.jsonl")

    def test_run_command_layout(self, tmp_path, capsys):
        self.run_inputs(tmp_path)
        code = main(
            [
                "run",
                "--input", str(tmp_path / "profiles.jsonl"),
                "--corpus", str(tmp_path / "corpus.jsonl"),
                "--ref-date", "2015-06-01",
                "--out", str(tmp_path / "full"),
                "--run-id", "demo",
            ]
        )
        assert code == 0
        out = tmp_path / "full"
        for name in ("accepted.jsonl", "rejections.json", "classified.jsonl", "binned.jsonl", "dataset.arff", "summary.json"):
            assert (out / name).is_file()
        assert (out / "reports" / "demo" / "tables").is_dir()
        assert (out / "reports" / "demo" / "charts").is_dir()
        assert (out / "reports" / "demo" / "summary.json").is_file()
        assert "accepted: 5" in capsys.readouterr().out

    def test_stage_subcommands_reproduce_full_run(self, tmp_path):
        self.run_inputs(tmp_path)
        full = tmp_path / "full"
        staged = tmp_path / "staged"
        args_common = ["--corpus", str(tmp_path / "corpus.jsonl")]
        assert main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"), *args_common,
             "--ref-date", "2015-06-01", "--out", str(full)]
        ) == 0
        assert main(["ingest", "--input", str(tmp_path / "profiles.jsonl"), "--out", str(staged)]) == 0
        assert main(["classify", "--input", str(staged / "accepted.jsonl"), *args_common, "--out", str(staged)]) == 0
        assert main(["bin", "--input", str(staged / "classified.jsonl"), "--ref-date", "2015-06-01", "--out", str(staged)]) == 0
        assert main(["arff", "--input", str(staged / "binned.jsonl"), "--out", str(staged)]) == 0
        assert main(["report", "--input", str(staged / "binned.jsonl"), "--out", str(staged)]) == 0
        staged_files = tree_bytes(staged)
        full_files = tree_bytes(full)
        assert set(staged_files) == set(full_files) - {"summary.json"}
        for name, content in staged_files.items():
            assert content == full_files[name], name

    def test_line_separator_characters_survive_the_stage_files(self, tmp_path):
        # json.dumps escapes them in the input; the stage files hold them raw
        text = "truthful\u2028genuine\u2029integrity\x85fair candid upfront"
        records = [record(i) for i in range(3)] + [record(3, about_me=text)]
        (tmp_path / "profiles.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="ascii"
        )
        write_corpus(tmp_path / "corpus.jsonl")
        full, staged = tmp_path / "full", tmp_path / "staged"
        args_common = ["--corpus", str(tmp_path / "corpus.jsonl")]
        assert main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"), *args_common,
             "--ref-date", "2015-06-01", "--out", str(full)]
        ) == 0
        assert main(["ingest", "--input", str(tmp_path / "profiles.jsonl"), "--out", str(staged)]) == 0
        assert text in (staged / "accepted.jsonl").read_text(encoding="utf-8")
        assert main(["classify", "--input", str(staged / "accepted.jsonl"), *args_common, "--out", str(staged)]) == 0
        assert main(["bin", "--input", str(staged / "classified.jsonl"), "--ref-date", "2015-06-01", "--out", str(staged)]) == 0
        assert main(["arff", "--input", str(staged / "binned.jsonl"), "--out", str(staged)]) == 0
        assert main(["report", "--input", str(staged / "binned.jsonl"), "--out", str(staged)]) == 0
        for name in ("accepted.jsonl", "classified.jsonl", "binned.jsonl", "dataset.arff"):
            assert (staged / name).read_bytes() == (full / name).read_bytes(), name
        assert len(parse_arff((staged / "dataset.arff").read_text(encoding="utf-8")).rows) == 4

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(
            ["arff", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    # 20150601 and 2015-W23-1 are ISO 8601 dates that date.fromisoformat
    # takes from Python 3.11 on; --ref-date, like a birthday, takes YYYY-MM-DD only.
    @pytest.mark.parametrize("text", ["June 1st", "20150601", "2015-W23-1"])
    def test_bad_date_rejected_by_parser(self, tmp_path, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["bin", "--input", "x", "--ref-date", text, "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: socialminer bin ")
        assert err.endswith(f"error: argument --ref-date: not a YYYY-MM-DD date: {text!r}\n")

    def test_stopword_override_makes_text_unclassifiable(self, tmp_path):
        self.run_inputs(tmp_path)
        stops = tmp_path / "stops.txt"
        stops.write_text(
            "# silence the fixture's vocabulary\n"
            "truthful\ngenuine\nintegrity\nfair\ncandid\nupfront\n",
            encoding="utf-8",
        )
        out = tmp_path / "stopped"
        assert main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"),
             "--stopwords", str(stops),
             "--ref-date", "2015-06-01", "--out", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"]["unclassifiable"] == 5

    def test_gap_policy_flag_changes_bins(self, tmp_path):
        self.run_inputs(tmp_path)
        write_jsonl(tmp_path / "profiles.jsonl", [record(0, music_count=5)])
        for policy, expected in (("five_is_low", "Low"), ("five_is_medium", "Medium")):
            out = tmp_path / policy
            assert main(
                ["run", "--input", str(tmp_path / "profiles.jsonl"),
                 "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--ref-date", "2015-06-01", "--out", str(out),
                 "--gap-policy", policy]
            ) == 0
            binned = json.loads((out / "binned.jsonl").read_text().splitlines()[0])
            assert binned["music_share_class"] == expected


class TestByteOrderMark:
    """A UTF-8 byte-order mark that starts an input file is dropped, so each
    of the four inputs gives the same bytes with and without one. A mark
    anywhere else stays in its line (``json_object``'s "bom" cases)."""

    @staticmethod
    def marked(path, mark, copy_dir):
        """``path``, or a copy of it in ``copy_dir`` that starts with a mark."""
        if not mark:
            return str(path)
        copy_dir.mkdir(exist_ok=True)
        copy = copy_dir / path.name
        copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return str(copy)

    def outputs(self, tmp_path, mark_on):
        """The trees ``run`` and the five stage subcommands write, with a mark
        starting the input file ``mark_on``; "stage files" marks each stage
        file a subcommand reads back."""
        inputs = tmp_path / mark_on
        inputs.mkdir()
        # u4's text is a stopword alone, so it is Unclassifiable only if the
        # stopwords file's first entry is read as written
        write_jsonl(inputs / "profiles.jsonl", [record(i) for i in range(4)] + [record(4, about_me="truthful")])
        write_corpus(inputs / "corpus.jsonl")
        (inputs / "stops.txt").write_text("truthful\nthe\n", encoding="utf-8")
        marks = inputs / "marked"
        profiles, corpus, stops = (
            self.marked(inputs / name, name == mark_on, marks)
            for name in ("profiles.jsonl", "corpus.jsonl", "stops.txt")
        )
        stage_mark = mark_on == "stage files"
        common = ["--corpus", corpus, "--stopwords", stops]
        full, staged = inputs / "full", inputs / "staged"
        assert main(["run", "--input", profiles, *common, "--ref-date", "2015-06-01",
                     "--out", str(full)]) == 0
        assert main(["ingest", "--input", profiles, "--out", str(staged)]) == 0
        for command, read, extra in (
            ("classify", "accepted.jsonl", common),
            ("bin", "classified.jsonl", ["--ref-date", "2015-06-01"]),
            ("arff", "binned.jsonl", []),
            ("report", "binned.jsonl", []),
        ):
            stage_file = self.marked(staged / read, stage_mark, marks)
            assert main([command, "--input", stage_file, *extra, "--out", str(staged)]) == 0
        return tree_bytes(full), tree_bytes(staged)

    @pytest.mark.parametrize("mark_on", ["profiles.jsonl", "corpus.jsonl", "stops.txt", "stage files"])
    def test_input_gives_the_same_bytes_with_a_mark(self, tmp_path, mark_on):
        plain = self.outputs(tmp_path, "none")
        assert self.outputs(tmp_path, mark_on) == plain
        full, _ = plain
        assert b'"about_me_class": "Unclassifiable"' in full["classified.jsonl"]


def cli_child(*argv: str) -> subprocess.CompletedProcess:
    """``python -m socialminer`` in a child process, so that a traceback
    would show on its stderr."""
    src = str(Path(socialminer.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "socialminer", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


# Modules that start-up and a run need not load: dataclasses (which pulls in
# inspect, ast, dis and tokenize), tempfile (which pulls in random), typing,
# and shutil (which pulls in the compressors zlib, bz2 and lzma), which
# argparse's help formatter imports unless it is given a width.
HEAVY_MODULES = ("dataclasses", "inspect", "tempfile", "random", "typing", "shutil", "zlib", "bz2", "lzma")
LEAN_IMPORTS_CHILD = """
import json, sys
heavy = sys.argv[1].split(",")
import socialminer.cli
after_import = [name for name in heavy if name in sys.modules]
code = socialminer.cli.main(sys.argv[2:])
print(json.dumps([after_import, code, [name for name in heavy if name in sys.modules]]))
"""


def test_startup_and_a_run_load_no_heavy_module(tmp_path):
    """In an interpreter without ``site`` (whose ``.pth`` files may import
    anything), importing the CLI and running it on a few ``data/`` records
    loads none of ``HEAVY_MODULES``."""
    profiles = tmp_path / "profiles.jsonl"
    with open(REPO / "data" / "profiles.jsonl", encoding="utf-8") as handle:
        profiles.write_text("".join(next(handle) for _ in range(5)), encoding="utf-8")
    argv = ["run", "--input", str(profiles), "--corpus", str(REPO / "data" / "sample_corpus.jsonl"),
            "--ref-date", "2015-06-01", "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_IMPORTS_CHILD, ",".join(HEAVY_MODULES), *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(socialminer.__file__).parent.parent)},
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout.splitlines()[-1]) == [[], 0, []]
    assert "accepted: 5" in result.stdout


class TestRecordClasses:
    """The plain classes and named tuples that carry a run's values."""

    def test_run_config_defaults(self, tmp_path):
        config = RunConfig(tmp_path / "in.jsonl", tmp_path)
        assert (config.input_path, config.output_dir) == (tmp_path / "in.jsonl", tmp_path)
        assert (config.corpus_path, config.reference_date, config.stopword_path) == (None,) * 3
        assert (config.n_features, config.k, config.run_id) == (50, 5, "run")
        assert config.gap_policy is GapPolicy.FIVE_IS_LOW
        # the CLI's --help reads the defaults from the class
        assert (RunConfig.n_features, RunConfig.k, RunConfig.run_id) == (50, 5, "run")
        assert RunConfig.gap_policy is GapPolicy.FIVE_IS_LOW

    def test_run_config_takes_every_option_in_order(self, tmp_path):
        config = RunConfig(tmp_path / "in", tmp_path / "out", tmp_path / "corpus", REF,
                           tmp_path / "stops", 7, 3, GapPolicy.FIVE_IS_MEDIUM, "r1")
        assert vars(config) == {
            "input_path": tmp_path / "in", "output_dir": tmp_path / "out",
            "corpus_path": tmp_path / "corpus", "reference_date": REF,
            "stopword_path": tmp_path / "stops", "n_features": 7, "k": 3,
            "gap_policy": GapPolicy.FIVE_IS_MEDIUM, "run_id": "r1",
        }

    def test_run_config_coerces_the_gap_policy(self, tmp_path):
        config = RunConfig(tmp_path, tmp_path, gap_policy=GapPolicy.FIVE_IS_MEDIUM.value)
        assert config.gap_policy is GapPolicy.FIVE_IS_MEDIUM
        with pytest.raises(ValueError, match="^'bogus' is not a valid GapPolicy$"):
            RunConfig(tmp_path, tmp_path, gap_policy="bogus")

    def test_mutable_defaults_are_new_per_instance(self):
        first, second = RunSummary(), RunSummary()
        assert first.to_record() == {"counts": dict.fromkeys(
            ("ingested", "accepted", "rejected", "malformed", "classified", "unclassifiable"), 0),
            "artifacts": []}
        first.artifacts.append("x")
        assert second.artifacts == []
        reports = RejectionReport(), RejectionReport()
        reports[0].rejected.append(("u1", "MISSING_TEXT"))
        assert reports[1].rejected == []
        datasets = ArffDataset("r", []), ArffDataset("r", [])
        datasets[0].rows.append(())
        assert datasets[1].rows == []

    def test_values_compare_by_their_fields(self):
        assert ParseIssue(2, "not valid JSON") == ParseIssue(2, "not valid JSON")
        assert ParseIssue(2, "x") != ParseIssue(3, "x")
        attribute = ArffAttribute("c", "nominal", ("a",))
        assert ArffAttribute("n", "numeric").domain == ()
        assert ArffDataset("r", [attribute], [("a",)]) == ArffDataset("r", [attribute], [("a",)])
        assert ArffDataset("r", [attribute]) != ArffDataset("r", [attribute], [("a",)])
        assert Distribution("m", "p", {"a": 1}) == Distribution("m", "p", {"a": 1})
        assert Distribution("m", "p", {"a": 1, "b": 2}).total == 3

    @pytest.mark.parametrize("value,field", [
        (ParseIssue(1, "x"), "message"),
        (STAGES[0], "name"),
        (ArffAttribute("n", "numeric"), "kind"),
    ])
    def test_immutable_values_refuse_assignment(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, "other")
        with pytest.raises(AttributeError):
            value.extra = 1


class TestStdout:
    """The exact stdout of every command on a small input, with the --out
    path written as OUT."""

    def outputs(self, tmp_path, capsys):
        lines = [json.dumps(record(i)) for i in range(4)]
        lines += [json.dumps(record(4, about_me=None)),
                  json.dumps(record(5, about_me="i am the and of to")), "{broken"]
        profiles, corpus = tmp_path / "profiles.jsonl", tmp_path / "corpus.jsonl"
        profiles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_corpus(corpus)
        full, staged = tmp_path / "full", tmp_path / "staged"
        outputs = {}
        for argv, out in (
            (["run", "--input", str(profiles), "--corpus", str(corpus),
              "--ref-date", "2015-06-01"], full),
            (["ingest", "--input", str(profiles)], staged),
            (["classify", "--input", str(staged / "accepted.jsonl"), "--corpus", str(corpus)],
             staged),
            (["bin", "--input", str(staged / "classified.jsonl"), "--ref-date", "2015-06-01"],
             staged),
            (["arff", "--input", str(staged / "binned.jsonl")], staged),
            (["report", "--input", str(staged / "binned.jsonl")], staged),
        ):
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == 0, argv[0]
            outputs[argv[0]] = capsys.readouterr().out.replace(str(out), "OUT")
        return outputs

    def test_every_command(self, tmp_path, capsys):
        assert self.outputs(tmp_path, capsys) == {
            "run": "ingested: 6\naccepted: 5\nrejected: 1\nmalformed: 1\nclassified: 4\n"
                   "unclassifiable: 1\nartifacts: 40 under OUT\n",
            "ingest": "accepted: 5\nrejected: 1\nmalformed: 1\n",
            "classify": "classified: 4\nunclassifiable: 1\n",
            "bin": "binned: 5\n",
            "arff": "wrote OUT/dataset.arff\n",
            "report": "wrote 35 report artifacts under OUT\n",
        }

    @pytest.mark.parametrize("command", [None, "run", "ingest", "classify", "bin", "arff", "report"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exit:
            main([command, "--help"] if command else ["--help"])
        assert exit.value.code == 0
        assert capsys.readouterr().out.startswith("usage: socialminer")


# Run in a child with perfbench/ on the path: instrument the package as the
# benchmark does, run `run` and the five subcommands, then print how many
# spans each name got and the tracer's counters.
TRACED_COMMANDS = """
import contextlib, io, json, sys
from collections import Counter
from pathlib import Path
from tracer import Tracer, instrument
from socialminer import cli
from socialminer.synth import make_corpus_records, make_profile_records, write_jsonl

tracer = Tracer("t")
instrument(tracer)
tmp = Path(sys.argv[1])
profiles, corpus = tmp / "profiles.jsonl", tmp / "corpus.jsonl"
write_jsonl(profiles, make_profile_records(12, seed=1) + [{"id": "x", "wall_count": 1}])
write_jsonl(corpus, make_corpus_records(docs_per_class=3))
full, staged = tmp / "full", tmp / "staged"
steps = (
    ["run", "--input", profiles, "--corpus", corpus, "--ref-date", "2015-06-01", "--out", full],
    ["ingest", "--input", profiles, "--out", staged],
    ["classify", "--input", staged / "accepted.jsonl", "--corpus", corpus, "--out", staged],
    ["bin", "--input", staged / "classified.jsonl", "--ref-date", "2015-06-01", "--out", staged],
    ["arff", "--input", staged / "binned.jsonl", "--out", staged],
    ["report", "--input", staged / "binned.jsonl", "--out", staged],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([str(arg) for arg in argv]) for argv in steps]
spans = Counter(span[0] for span in tracer.spans)
print(json.dumps({"codes": codes, "spans": spans, "counts": tracer.counts}, sort_keys=True))
"""

# What the benchmark's spans and counters read for TRACED_COMMANDS: each of
# `run` and the subcommands calls every stage once, and the four later
# subcommands read their input back. `run` streams each batch through every
# stage; the stages write their stage files and dataset.arff through one
# `io_utils.atomic_writer` each, so no `persist_corpus` span and no
# `atomic_write_text` span covers those files.
TRACED_SPANS = {
    "arff.build_dataset": 2, "arff.emit_arff": 2, "features.term_counts": 84,
    "ingest.load_corpus": 4, "ingest.load_profiles": 2, "ingest.validate_and_filter": 2,
    "io_utils.atomic_write_text": 81, "knn.classify_text": 24,
    "knn.load_sample_corpus": 2, "pipeline.run_pipeline": 1, "pipeline.stage_arff": 2,
    "pipeline.stage_bin": 2, "pipeline.stage_classify": 2, "pipeline.stage_ingest": 2,
    "pipeline.stage_report": 2, "report.aggregate": 10, "report.render": 76,
    "textprep.prepare": 84,
}
TRACED_COUNTS = {
    "arff.bytes": 2398, "ingest.load_corpus.bytes": 26844, "ingest.rejected": 2,
    "io_utils.atomic_write_text.bytes": 128545, "knn.corpus_docs": 60,
    "knn.unclassifiable": 0, "report.artifacts": 78,
}


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    """``perfbench/tracer.py`` wraps package functions by module attribute
    name; a renamed or removed one fails ``instrument`` with AttributeError.
    A wrapped name the package no longer calls through its module attribute
    (say, a function object kept in a table) changes the span counts."""
    root = Path(__file__).parent.parent
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    result = subprocess.run(
        [sys.executable, "-c", TRACED_COMMANDS, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (result.returncode, result.stderr) == (0, "")
    traced = json.loads(result.stdout)
    assert traced == {"codes": [0] * 6, "spans": TRACED_SPANS, "counts": TRACED_COUNTS}


# JSON lines the C scanner leaves to json.loads, each with the refusal text
# every Python version gives: a trailing comma (whose json.loads message
# differs between 3.12 and 3.13), nesting past the recursion limit and an
# integer longer than sys.get_int_max_str_digits().
HOSTILE_LINES = [
    pytest.param('{"id": "x", "label": "Honest", "text": "x",}', "not valid JSON",
                 id="trailing_comma"),
    pytest.param("[" * 100_000 + "]" * 100_000, "not valid JSON: nested too deeply", id="nested"),
    pytest.param(
        '{"id": "x", "label": "Honest", "text": "x", "n": ' + "1" * 5000 + "}",
        "not valid JSON: a number has too many digits",
        id="long_int",
        marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
        ),
    ),
]


class TestBadInputEndsCleanly:
    """Each bad input ends in exit 1 with an error line, or in a reported
    malformed line, never in a traceback."""

    def staged(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(3)])
        write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(tmp_path / "profiles.jsonl"), "--out", str(out)]) == 0
        return out

    def classify(self, tmp_path, out, *extra):
        return main(
            ["classify", "--input", str(out / "accepted.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"), *extra, "--out", str(out)]
        )

    def test_non_object_stage_line(self, tmp_path, capsys):
        out = self.staged(tmp_path)
        with (out / "accepted.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("[1,2]\n")
        capsys.readouterr()
        assert self.classify(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt corpus") and "accepted.jsonl:4" in err

    def test_mistyped_stage_field(self, tmp_path, capsys):
        out = self.staged(tmp_path)
        lines = (out / "accepted.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace('"wall_count": 12', '"wall_count": "12"')
        (out / "accepted.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(
            ["bin", "--input", str(out / "accepted.jsonl"), "--ref-date", "2015-06-01",
             "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt corpus") and "accepted.jsonl:2: wall_count" in err

    def test_invalid_utf8_stage_file(self, tmp_path, capsys):
        # Invalid UTF-8 fails its own line, like any other malformed line.
        out = self.staged(tmp_path)
        with (out / "accepted.jsonl").open("ab") as handle:
            handle.write(b'{"id": "\xff"}\n')
        capsys.readouterr()
        assert self.classify(tmp_path, out) == 1
        message = f"corrupt corpus {out / 'accepted.jsonl'}:4: not valid UTF-8"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (out / "FAILED").read_text(encoding="utf-8") == f"StorageError: {message}\n"

    def test_escaped_lone_surrogate_in_stage_file(self, tmp_path):
        # Valid JSON whose string no UTF-8 file can hold: the line is corrupt,
        # instead of the next write failing on it.
        out = self.staged(tmp_path)
        accepted = out / "accepted.jsonl"
        lines = accepted.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace("truthful", "truthful \\ud800")
        accepted.write_text("".join(lines), encoding="utf-8")
        result = cli_child(
            "classify", "--input", str(accepted),
            "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out),
        )
        message = f"corrupt corpus {accepted}:2: about_me is not valid UTF-8: lone surrogate"
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: {message}\n")
        assert (out / "FAILED").read_text(encoding="utf-8") == f"StorageError: {message}\n"
        assert not (out / "classified.jsonl").exists()

    def test_unknown_key_in_stage_file(self, tmp_path):
        # A key no stage writes is a corrupt line, not one the next stage
        # file silently drops.
        out = self.staged(tmp_path)
        accepted = out / "accepted.jsonl"
        accepted.write_text(
            accepted.read_text(encoding="utf-8").replace('{"id"', '{"bogus": 1, "id"', 1),
            encoding="utf-8",
        )
        result = cli_child(
            "classify", "--input", str(accepted),
            "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out),
        )
        message = f"corrupt corpus {accepted}:1: unknown keys: ['bogus']"
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: {message}\n")
        assert (out / "FAILED").read_text(encoding="utf-8") == f"StorageError: {message}\n"
        assert not (out / "classified.jsonl").exists()

    @pytest.mark.parametrize("command", ["classify", "bin", "arff", "report"])
    @pytest.mark.parametrize(
        "key,value,reason",
        [("id", "", "id must be a non-empty string"),
         ("wall_count", -5, "ingest would reject it: NEGATIVE_NUMERIC"),
         ("music_count", -1, "ingest would reject it: NEGATIVE_NUMERIC"),
         ("activity_interest_count", -2, "ingest would reject it: NEGATIVE_NUMERIC"),
         ("about_me", "   ", "ingest would reject it: MISSING_TEXT"),
         ("birthday", "2015-02-30", "ingest would reject it: BAD_BIRTHDAY"),
         ("birthday", "not a date", "ingest would reject it: BAD_BIRTHDAY"),
         ("birthday", "", "ingest would reject it: BAD_BIRTHDAY")],
    )
    def test_stage_line_that_ingest_would_reject(self, tmp_path, capsys, command, key, value, reason):
        out = self.staged(tmp_path)
        assert self.classify(tmp_path, out) == 0
        assert main(["bin", "--input", str(out / "classified.jsonl"), "--ref-date", "2015-06-01",
                     "--out", str(out)]) == 0
        stage_file = out / {"classify": "accepted.jsonl", "bin": "classified.jsonl"}.get(
            command, "binned.jsonl")
        lines = stage_file.read_text(encoding="utf-8").splitlines(keepends=True)
        broken = json.loads(lines[1])
        broken[key] = value
        lines[1] = json.dumps(broken) + "\n"
        stage_file.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        options = {"classify": ["--corpus", str(tmp_path / "corpus.jsonl")],
                   "bin": ["--ref-date", "2015-06-01"]}
        failed = tmp_path / "failed"
        argv = [command, "--input", str(stage_file), *options.get(command, []), "--out", str(failed)]
        assert main(argv) == 1
        message = f"corrupt corpus {stage_file}:2: {reason}"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert (failed / "FAILED").read_text(encoding="utf-8") == f"StorageError: {message}\n"
        assert [path.name for path in failed.rglob("*")] == ["FAILED"]

    @pytest.mark.parametrize(
        "argv",
        [["run", "--input", "", "--corpus", "c.jsonl", "--ref-date", "2015-06-01", "--out", "o"],
         ["run", "--input", "p.jsonl", "--corpus", "", "--ref-date", "2015-06-01", "--out", "o"],
         ["run", "--input", "p.jsonl", "--corpus", "c.jsonl", "--stopwords", "",
          "--ref-date", "2015-06-01", "--out", "o"],
         ["run", "--input", "p.jsonl", "--corpus", "c.jsonl", "--ref-date", "2015-06-01",
          "--out", ""],
         ["ingest", "--input", "", "--out", ""],
         ["classify", "--input", "accepted.jsonl", "--corpus", "", "--out", "o"],
         ["report", "--input", "binned.jsonl", "--out", ""]],
        ids=["run-input", "run-corpus", "run-stopwords", "run-out", "ingest", "classify", "report"],
    )
    def test_empty_path_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # Path("") is ".", so an empty --out would write into the working
        # directory and an empty --input would read it.
        write_jsonl(tmp_path / "p.jsonl", [record(i) for i in range(3)])
        write_corpus(tmp_path / "c.jsonl")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: socialminer") and "the path must be non-empty" in err
        assert sorted(tmp_path.iterdir()) == before

    def test_raw_line_separators_stay_inside_a_profile_text(self, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl")
        about = "truthful\u2028genuine\u2029integrity\x85fair"
        write_jsonl(tmp_path / "profiles.jsonl", [record(1, about_me=about), record(2)])
        out = tmp_path / "out"
        assert main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"),
             "--ref-date", "2015-06-01", "--out", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert (summary["counts"]["accepted"], summary["counts"]["malformed"]) == (2, 0)
        lines = (out / "accepted.jsonl").read_text(encoding="utf-8").split("\n")
        assert json.loads(lines[0])["about_me"] == about
        assert about in lines[0]  # written raw, as the encoder writes it

    def test_missing_stopwords_file(self, tmp_path, capsys):
        out = self.staged(tmp_path)
        capsys.readouterr()
        assert self.classify(tmp_path, out, "--stopwords", str(tmp_path / "nope.txt")) == 1
        assert capsys.readouterr().err.startswith("error: cannot read stopwords")
        run_out = tmp_path / "run"
        assert main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"),
             "--stopwords", str(tmp_path / "nope.txt"),
             "--ref-date", "2015-06-01", "--out", str(run_out)]
        ) == 1
        assert capsys.readouterr().err.startswith("error: cannot read stopwords")
        assert (run_out / "FAILED").read_text().startswith("StorageError")

    def test_classify_rejects_bad_features_with_no_profiles(self, tmp_path, capsys):
        (tmp_path / "profiles.jsonl").write_text("", encoding="utf-8")
        write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(tmp_path / "profiles.jsonl"), "--out", str(out)]) == 0
        assert (out / "accepted.jsonl").read_text(encoding="utf-8") == ""
        for features in ("0", "-3"):
            capsys.readouterr()
            assert self.classify(tmp_path, out, "--features", features) == 1
            assert capsys.readouterr().err.startswith(f"error: n_features={features}")
            assert (out / "FAILED").read_text().startswith("ParameterError")
            assert not (out / "classified.jsonl").exists()

    def test_stage_subcommand_failure_writes_marker(self, tmp_path, capsys):
        write_jsonl(tmp_path / "profiles.jsonl", [record(0, birthday="2030-01-01")])
        write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(tmp_path / "profiles.jsonl"), "--out", str(out)]) == 0
        assert self.classify(tmp_path, out) == 0
        assert not (out / "FAILED").exists()

        def bin_at(ref_date):
            return main(
                ["bin", "--input", str(out / "classified.jsonl"), "--ref-date", ref_date,
                 "--out", str(out)]
            )

        capsys.readouterr()
        assert bin_at("2015-06-01") == 1
        assert capsys.readouterr().err.startswith("error:")
        assert (out / "FAILED").read_text().startswith("DomainError: ")
        assert not (out / "binned.jsonl").exists()
        assert bin_at("2031-01-01") == 0
        assert not (out / "FAILED").exists()
        assert (out / "binned.jsonl").is_file()

    def test_out_naming_a_file_is_an_error_line(self, tmp_path, capsys):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(3)])
        write_corpus(tmp_path / "corpus.jsonl")
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        for out in (taken, taken / "sub"):
            for argv in (
                ["run", "--input", str(tmp_path / "profiles.jsonl"),
                 "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--ref-date", "2015-06-01", "--out", str(out)],
                ["ingest", "--input", str(tmp_path / "profiles.jsonl"), "--out", str(out)],
            ):
                capsys.readouterr()
                assert main(argv) == 1
                assert capsys.readouterr().err.startswith(
                    f"error: cannot create output directory {out}: "
                )
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith("taken")] == ["taken"]
        assert taken.read_text(encoding="utf-8") == "keep\n"
        with pytest.raises(StorageError, match="cannot create output directory"):
            run_pipeline(config_for(tmp_path, out_name="taken"))

    BAD_RUN_IDS = ("", ".", "..", "a/b", "a\\b", "../../x", "/abs")

    def test_run_rejects_bad_run_id(self, tmp_path, capsys):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(3)])
        write_corpus(tmp_path / "corpus.jsonl")
        for run_id in self.BAD_RUN_IDS:
            capsys.readouterr()
            assert main(
                ["run", "--input", str(tmp_path / "profiles.jsonl"),
                 "--corpus", str(tmp_path / "corpus.jsonl"), "--ref-date", "2015-06-01",
                 "--out", str(tmp_path / "deep" / "out"), "--run-id", run_id]
            ) == 1
            assert capsys.readouterr().err.startswith(f"error: bad run id {run_id!r}")
            assert not (tmp_path / "deep").exists()

    def test_report_rejects_bad_run_id(self, tmp_path, capsys):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(3)])
        write_corpus(tmp_path / "corpus.jsonl")
        binned = tmp_path / "full" / "binned.jsonl"
        assert main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"), "--ref-date", "2015-06-01",
             "--out", str(binned.parent)]
        ) == 0
        deep = tmp_path / "deep"
        for run_id in self.BAD_RUN_IDS:
            capsys.readouterr()
            assert main(
                ["report", "--input", str(binned), "--out", str(deep / "out"), "--run-id", run_id]
            ) == 1
            assert capsys.readouterr().err.startswith(f"error: bad run id {run_id!r}")
            assert sorted(p.relative_to(deep).as_posix() for p in deep.rglob("*")) == [
                "out",
                "out/FAILED",
            ]
            assert (deep / "out" / "FAILED").read_text().startswith("ParameterError: bad run id")

    def test_invalid_utf8_sample_corpus(self, tmp_path, capsys):
        out = self.staged(tmp_path)
        (tmp_path / "corpus.jsonl").write_bytes(
            b'{"id": "s1", "label": "Honest", "text": "\xc0\xaf"}\n'
        )
        capsys.readouterr()
        assert self.classify(tmp_path, out) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_profile_line_is_reported(self, tmp_path, capsys):
        write_corpus(tmp_path / "corpus.jsonl")
        (tmp_path / "profiles.jsonl").write_bytes(
            json.dumps(record(1)).encode() + b"\n"
            + json.dumps(record(2)).encode().replace(b"truthful", b"truth\xffful") + b"\n"
        )
        out = tmp_path / "out"
        assert main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"),
             "--ref-date", "2015-06-01", "--out", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"]["accepted"] == 1 and summary["counts"]["malformed"] == 1
        rejections = json.loads((out / "rejections.json").read_text())
        assert rejections["malformed_lines"] == [{"line_no": 2, "message": "not valid UTF-8"}]

    def test_input_path_that_is_not_utf8(self, tmp_path):
        # Python decodes such an argument with surrogateescape, so the error
        # message holds a lone surrogate; the marker spells it as an escape.
        try:
            (tmp_path / "probe-\udcff").touch()
        except (OSError, UnicodeEncodeError):
            pytest.skip("the file system refuses names that are not UTF-8")
        write_corpus(tmp_path / "corpus.jsonl")
        missing = tmp_path / "missing-\udcff.jsonl"
        for argv in (
            ["ingest", "--input", str(missing)],
            ["run", "--input", str(missing), "--corpus", str(tmp_path / "corpus.jsonl"),
             "--ref-date", "2015-06-01"],
        ):
            out = tmp_path / argv[0]
            result = cli_child(*argv, "--out", str(out))
            assert "Traceback" not in result.stderr
            assert result.returncode == 1
            assert result.stderr.startswith("error: cannot read ")
            marker = (out / "FAILED").read_text(encoding="utf-8")
            assert marker.startswith(f"StorageError: cannot read {tmp_path}/missing-\\udcff.jsonl: ")

    def test_failure_marker_that_is_a_directory(self, tmp_path):
        profiles, out = tmp_path / "profiles.jsonl", tmp_path / "out"
        write_jsonl(profiles, [record(i) for i in range(3)])
        (out / "FAILED").mkdir(parents=True)
        result = cli_child("ingest", "--input", str(profiles), "--out", str(out))
        assert "Traceback" not in result.stderr
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: cannot remove {out / 'FAILED'}: ")
        assert result.stderr.count("\n") == 1
        assert not (out / "accepted.jsonl").exists()

    @pytest.mark.parametrize("line,refusal", HOSTILE_LINES)
    def test_hostile_json_profile_line_is_malformed(self, tmp_path, line, refusal):
        profiles = tmp_path / "profiles.jsonl"
        write_jsonl(profiles, [record(1), record(2)])
        with profiles.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        out = tmp_path / "out"
        result = cli_child("ingest", "--input", str(profiles), "--out", str(out))
        assert "Traceback" not in result.stderr
        assert result.returncode == 0, result.stderr
        assert "accepted: 2" in result.stdout and "malformed: 1" in result.stdout
        assert not (out / "FAILED").exists()
        rejections = json.loads((out / "rejections.json").read_text(encoding="utf-8"))
        assert rejections["malformed_lines"] == [{"line_no": 3, "message": refusal}]

    @pytest.mark.parametrize("line,refusal", HOSTILE_LINES)
    def test_hostile_json_stage_line_is_storage_error(self, tmp_path, line, refusal):
        out = self.staged(tmp_path)
        with (out / "accepted.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        result = cli_child(
            "classify", "--input", str(out / "accepted.jsonl"),
            "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out),
        )
        assert "Traceback" not in result.stderr
        assert result.returncode == 1
        message = f"corrupt corpus {out / 'accepted.jsonl'}:4: {refusal}"
        assert result.stderr == f"error: {message}\n"
        assert (out / "FAILED").read_text(encoding="utf-8") == f"StorageError: {message}\n"

    @pytest.mark.parametrize("line,refusal", HOSTILE_LINES)
    def test_hostile_json_sample_corpus_line_is_corpus_error(self, tmp_path, line, refusal):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(3)])
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus)
        with corpus.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        out = tmp_path / "out"
        result = cli_child(
            "run", "--input", str(tmp_path / "profiles.jsonl"), "--corpus", str(corpus),
            "--ref-date", "2015-06-01", "--out", str(out),
        )
        message = f"{corpus}:31: {refusal}"
        assert (result.returncode, result.stderr) == (1, f"error: {message}\n")
        assert (out / "FAILED").read_text(encoding="utf-8") == f"CorpusError: {message}\n"


# The stage file each stage subcommand reads, and its options beside --input.
STAGE_READS = {
    "classify": ("accepted.jsonl", ["--corpus", "{dir}/corpus.jsonl"]),
    "bin": ("classified.jsonl", ["--ref-date", "2015-06-01"]),
    "arff": ("binned.jsonl", []),
    "report": ("binned.jsonl", []),
}


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    """A directory holding a sample corpus and the stage files that ingest,
    classify and bin wrote for three profiles."""
    directory = tmp_path_factory.mktemp("stage_files")
    write_jsonl(directory / "profiles.jsonl", [record(i) for i in range(3)])
    write_corpus(directory / "corpus.jsonl")
    for argv in (["ingest", "--input", f"{directory}/profiles.jsonl"],
                 ["classify", "--input", f"{directory}/accepted.jsonl",
                  "--corpus", f"{directory}/corpus.jsonl"],
                 ["bin", "--input", f"{directory}/classified.jsonl", "--ref-date", "2015-06-01"]):
        assert main([*argv, "--out", str(directory)]) == 0
    return directory


class TestStageLineForm:
    """Every stage reader refuses a line that no stage writes: a null
    optional text, or a blank before the object's "{" or after its "}"."""

    @pytest.mark.parametrize(
        "fault,refusal",
        [(lambda line: line[:-2] + ', "political": null}\n', "political must be a string, got None"),
         (lambda line: " " + line, "blanks outside the object"),
         (lambda line: line[:-1] + " \t\n", "blanks outside the object")],
        ids=["null optional text", "leading blank", "blanks after the object"],
    )
    @pytest.mark.parametrize("command", sorted(STAGE_READS))
    def test_line_is_refused(self, stage_files, tmp_path, capsys, command, fault, refusal):
        name, options = STAGE_READS[command]
        lines = (stage_files / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = fault(lines[1])
        given = tmp_path / name
        given.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        argv = [command, "--input", str(given),
                *(option.format(dir=stage_files) for option in options), "--out", str(out)]
        assert main(argv) == 1
        message = f"corrupt corpus {given}:2: {refusal}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (out / "FAILED").read_text(encoding="utf-8") == f"StorageError: {message}\n"
        assert [path.name for path in out.iterdir()] == ["FAILED"]


class TestRerunIntoOneDirectory:
    """A run into a directory that holds an earlier run's output leaves the
    tree a run into a fresh directory writes: no pie chart of an age group
    that is now empty stays behind."""

    @staticmethod
    def inputs(tmp_path):
        """Input directories a and b: 40 profiles, then 3 of them without a
        birthday, so that b fills only the Hidden age group."""
        records = make_profile_records(40, seed=1)
        hidden = [{k: v for k, v in r.items() if k != "birthday"} for r in records[:3]]
        for name, given in (("a", records), ("b", hidden)):
            (tmp_path / name).mkdir()
            write_jsonl(tmp_path / name / "profiles.jsonl", given)
            write_corpus(tmp_path / name / "corpus.jsonl")
        return tmp_path / "a", tmp_path / "b"

    @staticmethod
    def run(inputs, out):
        assert main(["run", "--input", str(inputs / "profiles.jsonl"),
                     "--corpus", str(inputs / "corpus.jsonl"), "--ref-date", "2015-06-01",
                     "--out", str(out)]) == 0

    @staticmethod
    def pies(out):
        return len(list(out.rglob("pie_*.svg")))

    def test_run_then_run(self, tmp_path):
        first, second = self.inputs(tmp_path)
        self.run(first, tmp_path / "both")
        self.run(second, tmp_path / "fresh")
        assert self.pies(tmp_path / "both") > self.pies(tmp_path / "fresh") == 1
        self.run(second, tmp_path / "both")
        assert tree_bytes(tmp_path / "both") == tree_bytes(tmp_path / "fresh")

    def test_report_then_report(self, tmp_path):
        first, second = self.inputs(tmp_path)
        for inputs in (first, second):
            self.run(inputs, inputs / "run")
        for inputs, out in ((first, "both"), (second, "both"), (second, "fresh")):
            assert main(["report", "--input", str(inputs / "run" / "binned.jsonl"),
                         "--out", str(tmp_path / out)]) == 0
        assert tree_bytes(tmp_path / "both") == tree_bytes(tmp_path / "fresh")

    def test_pie_that_cannot_be_removed(self, stage_files, tmp_path, capsys):
        # Every profile of stage_files is 25 on the reference date, so UpTo19 is empty.
        pie = tmp_path / "reports" / "run" / "charts" / "pie_about_me_age_upto19.svg"
        pie.mkdir(parents=True)
        capsys.readouterr()
        assert main(["report", "--input", str(stage_files / "binned.jsonl"),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot remove {pie}: ")
        assert (tmp_path / "FAILED").read_text(encoding="utf-8") == f"StorageError: {err[7:]}"


# Lines a profiles file may hold beside valid records, each with the number
# of records it adds to the accepted and to the malformed count: a blank line,
# invalid bytes, a record ended by \r\n, a raw U+2028 inside a text, a
# non-object line, an escaped lone surrogate and an unknown key.
HOSTILE_PROFILE_LINES = [
    (b"\n", 0, 0),
    (b"\xff\xfe not UTF-8\n", 0, 1),
    (b'{"id": "h1", "about_me": "honest kind", "wall_count": 3, "music_count": 1}\r\n', 1, 0),
    ('{"id": "h2", "about_me": "honest\u2028kind", "wall_count": 4, "music_count": 2}\n'.encode(),
     1, 0),
    (b"[1, 2]\n", 0, 1),
    (b'{"id": "h3", "about_me": "honest \\ud800", "wall_count": 5, "music_count": 3}\n', 0, 1),
    (b'{"id": "h4", "about_me": "honest", "wall_count": 6, "music_count": 4, "bogus": 1}\n', 0, 1),
]


class TestRunMatchesStageSubcommands:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        n=st.integers(0, 8),
        hostile=st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from(HOSTILE_PROFILE_LINES)),
            max_size=5, unique_by=lambda drawn: drawn[1],
        ),
    )
    def test_same_tree_with_hostile_profile_lines(self, seed, n, hostile):
        lines = [
            json.dumps(r, ensure_ascii=False).encode("utf-8") + b"\n"
            for r in make_profile_records(n, seed=seed)
        ]
        for position, (line, _, _) in hostile:
            lines.insert(position, line)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            profiles, corpus = tmp / "profiles.jsonl", tmp / "corpus.jsonl"
            profiles.write_bytes(b"".join(lines))
            write_jsonl(corpus, make_corpus_records(seed=seed, docs_per_class=3))
            full, staged = tmp / "full", tmp / "staged"
            assert main(
                ["run", "--input", str(profiles), "--corpus", str(corpus),
                 "--ref-date", "2015-06-01", "--out", str(full)]
            ) == 0
            for argv in (
                ["ingest", "--input", str(profiles)],
                ["classify", "--input", str(staged / "accepted.jsonl"), "--corpus", str(corpus)],
                ["bin", "--input", str(staged / "classified.jsonl"), "--ref-date", "2015-06-01"],
                ["arff", "--input", str(staged / "binned.jsonl")],
                ["report", "--input", str(staged / "binned.jsonl")],
            ):
                assert main([*argv, "--out", str(staged)]) == 0, argv[0]
            full_files = tree_bytes(full)
            counts = json.loads(full_files.pop("summary.json"))["counts"]
            assert tree_bytes(staged) == full_files
        assert (counts["accepted"], counts["malformed"]) == (
            n + sum(accepted for _, (_, accepted, _) in hostile),
            sum(malformed for _, (_, _, malformed) in hostile),
        )


class TestStageRecordKeyOrder:
    """ingest, classify and bin write each record with its keys in one order
    (README, "Input formats"); a record read from a stage file keeps the
    order its line has."""

    CLASSES = ("about_me_class", "age_range", "wall_count_class", "music_share_class",
               "activity_interest_class")

    def stages(self, tmp_path, out, *commands):
        options = {
            "ingest": ["--input", str(tmp_path / "profiles.jsonl")],
            "classify": ["--input", str(out / "accepted.jsonl"),
                         "--corpus", str(tmp_path / "corpus.jsonl")],
            "bin": ["--input", str(out / "classified.jsonl"), "--ref-date", "2015-06-01"],
            "arff": ["--input", str(out / "binned.jsonl")],
            "report": ["--input", str(out / "binned.jsonl")],
        }
        for command in commands:
            assert main([command, *options[command], "--out", str(out)]) == 0, command

    @staticmethod
    def lines(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def test_ingest_classify_and_bin_write_the_listed_order(self, tmp_path):
        given = {"birthday": "1990-01-15", "activities": "reading", "interests": "chess",
                 "political": "none"}
        optional, absent = tuple(given), dict.fromkeys(given)
        # All optional keys, none and each alone, each record also given with
        # its keys reversed.
        records = [record(0, **given), record(1, **absent)]
        records += [record(2 + j, **{**absent, key: value})
                    for j, (key, value) in enumerate(given.items())]
        records += [dict(reversed(r.items())) | {"id": r["id"] + "r"} for r in records]
        write_jsonl(tmp_path / "profiles.jsonl", records)
        write_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        self.stages(tmp_path, out, "ingest", "classify", "bin")
        order = reference_paths.STAGE_KEY_ORDER
        for name, classes in (("accepted", ()), ("classified", self.CLASSES[:1]),
                              ("binned", self.CLASSES)):
            written = self.lines(out / f"{name}.jsonl")
            assert len(written) == len(records), name
            for raw, line in zip(records, written):
                present = [key for key in order[:10]
                           if key not in optional or raw.get(key) is not None]
                assert list(line) == present + list(classes), (name, line)

    def test_the_table_gives_every_key_in_order(self):
        assert list(STAGE_RECORD) == ["ingest", "classify", "bin"]
        keys = [key for added in STAGE_RECORD.values() for key in added]
        assert keys == list(reference_paths.STAGE_KEY_ORDER)

    def test_classify_and_bin_add_the_keys_of_their_row(self, tmp_path):
        # A key a stage sets but the table lacks would fail no run:
        # persist_batches would encode each record whole instead.
        write_corpus(tmp_path / "corpus.jsonl")
        config = config_for(tmp_path)
        config.output_dir.mkdir()
        profiles, _ = validate_and_filter([record(1, political="none")])
        assert list(profiles[0]) == list(STAGE_RECORD["ingest"])
        for name, stage in (("classify", stage_classify), ("bin", stage_bin)):
            before = list(profiles[0])
            list(stage([[(profiles[0], None)]], config, config.output_dir))
            assert list(profiles[0]) == before + list(STAGE_RECORD[name]), name

    def test_hand_edited_key_order_is_kept(self, tmp_path):
        write_jsonl(tmp_path / "profiles.jsonl", [record(i) for i in range(4)])
        write_corpus(tmp_path / "corpus.jsonl")
        plain, edited = tmp_path / "plain", tmp_path / "edited"
        self.stages(tmp_path, plain, "ingest", "classify", "bin", "arff", "report")
        self.stages(tmp_path, edited, "ingest")
        accepted = edited / "accepted.jsonl"
        lines = self.lines(accepted)
        lines[1] = dict(reversed(lines[1].items()))
        accepted.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        self.stages(tmp_path, edited, "classify", "bin", "arff", "report")
        reversed_keys = list(lines[1])
        assert list(self.lines(edited / "classified.jsonl")[1]) == reversed_keys + ["about_me_class"]
        assert list(self.lines(edited / "binned.jsonl")[1]) == reversed_keys + list(self.CLASSES)
        for name in ("classified.jsonl", "binned.jsonl"):
            assert self.lines(edited / name) == self.lines(plain / name)
        plain_files, edited_files = tree_bytes(plain), tree_bytes(edited)
        for name in ("accepted.jsonl", "classified.jsonl", "binned.jsonl"):
            del plain_files[name], edited_files[name]
        assert edited_files == plain_files

    def test_hand_edited_line_is_written_back_as_read(self, tmp_path):
        """classify and bin write a hand-edited line as it was read, plus the
        keys they add: compact separators, an escaped "é", -0 and a repeated
        key stay. The next stage reads the record the whole encode gives, and
        arff and report write the bytes of the plain input."""
        records = [record(0), record(1, about_me="café truthful genuine integrity"),
                   record(2), record(3)]
        write_jsonl(tmp_path / "profiles.jsonl", records)
        write_corpus(tmp_path / "corpus.jsonl")
        plain, edited = tmp_path / "plain", tmp_path / "edited"
        self.stages(tmp_path, plain, "ingest", "classify", "bin", "arff", "report")
        self.stages(tmp_path, edited, "ingest")
        accepted = edited / "accepted.jsonl"
        lines = accepted.read_text(encoding="utf-8").splitlines(keepends=True)
        edits = [('"wall_count": 0,', '"wall_count": -0,'),
                 ("café", "caf\\u00e9"),
                 ('"wall_count": 24,', '"wall_count": 99, "wall_count": 24,')]
        for i, (old, new) in enumerate(edits):
            assert old in lines[i]
            lines[i] = lines[i].replace(old, new)
        compact = json.dumps(json.loads(lines[3]), separators=(",", ":"), ensure_ascii=False)
        lines[3] = compact + "\n"
        accepted.write_text("".join(lines), encoding="utf-8")
        self.stages(tmp_path, edited, "classify", "bin", "arff", "report")
        read = lines
        for name, keys in (("classified", self.CLASSES[:1]), ("binned", self.CLASSES[1:])):
            written = (edited / f"{name}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
            assert len(written) == len(read)
            for line, was_read, plain_record in zip(written, read, self.lines(plain / f"{name}.jsonl")):
                added = {key: plain_record[key] for key in keys}
                assert line == was_read[:-2] + ", " + json.dumps(added)[1:] + "\n"
                assert json.loads(line) == plain_record
            read = written
        plain_files, edited_files = tree_bytes(plain), tree_bytes(edited)
        for name in ("accepted.jsonl", "classified.jsonl", "binned.jsonl"):
            del plain_files[name], edited_files[name]
        assert edited_files == plain_files


class TestFilesAfterFailure:
    """Which files a failed `run` or stage subcommand leaves in its output
    directory. Every failure writes the FAILED marker. A file the failed
    stage would have written is absent, or keeps the bytes of an earlier
    run; no temporary file is left."""

    N = 600  # more than two batches of the stages' batch size

    def inputs(self, tmp_path, records=None):
        write_jsonl(tmp_path / "profiles.jsonl", records or [record(i) for i in range(self.N)])
        write_corpus(tmp_path / "corpus.jsonl")

    def stage(self, tmp_path, out, command, *extra):
        options = {
            "ingest": ["--input", str(tmp_path / "profiles.jsonl")],
            "classify": ["--input", str(out / "accepted.jsonl"),
                         "--corpus", str(tmp_path / "corpus.jsonl")],
            "bin": ["--input", str(out / "classified.jsonl"), "--ref-date", "2015-06-01"],
            "arff": ["--input", str(out / "binned.jsonl")],
            "report": ["--input", str(out / "binned.jsonl")],
        }
        return main([command, *options[command], *extra, "--out", str(out)])

    def run(self, tmp_path, out, *extra):
        return main(
            ["run", "--input", str(tmp_path / "profiles.jsonl"),
             "--corpus", str(tmp_path / "corpus.jsonl"), "--ref-date", "2015-06-01",
             *extra, "--out", str(out)]
        )

    def duplicated(self):
        records = [record(i) for i in range(self.N)]
        records.insert(500, record(3))
        return records

    def test_duplicate_id_writes_no_files(self, tmp_path):
        self.inputs(tmp_path, self.duplicated())
        assert self.run(tmp_path, tmp_path / "run") == 1
        assert self.stage(tmp_path, tmp_path / "staged", "ingest") == 1
        for out in (tmp_path / "run", tmp_path / "staged"):
            assert sorted(tree_bytes(out)) == ["FAILED"]
            assert (out / "FAILED").read_text().startswith("DuplicateIdError: ")

    def test_duplicate_id_keeps_earlier_ingest_files(self, tmp_path):
        self.inputs(tmp_path)
        out = tmp_path / "out"
        assert self.stage(tmp_path, out, "ingest") == 0
        before = tree_bytes(out)
        self.inputs(tmp_path, self.duplicated())
        assert self.stage(tmp_path, out, "ingest") == 1
        after = tree_bytes(out)
        assert after.pop("FAILED").startswith(b"DuplicateIdError: ")
        assert after == before

    def test_classify_failure_in_run_keeps_ingest_files(self, tmp_path):
        self.inputs(tmp_path)
        out = tmp_path / "run"
        assert self.run(tmp_path, out, "--k", "1000") == 1
        assert sorted(tree_bytes(out)) == ["FAILED", "accepted.jsonl", "rejections.json"]
        assert (out / "FAILED").read_text().startswith("ParameterError: ")

    def test_missing_corpus_in_run_keeps_ingest_files(self, tmp_path):
        self.inputs(tmp_path)
        (tmp_path / "corpus.jsonl").unlink()
        out = tmp_path / "run"
        assert self.run(tmp_path, out) == 1
        assert sorted(tree_bytes(out)) == ["FAILED", "accepted.jsonl", "rejections.json"]
        assert (out / "FAILED").read_text().startswith("StorageError: cannot read sample corpus")

    def test_bin_failure_in_run_leaves_whole_earlier_files(self, tmp_path):
        """A future birthday at record 400 fails bin in its second batch. The
        stages before it still run to their end, so `run` leaves the files
        and the marker that `ingest`, `classify` and `bin` leave."""
        records = [record(i) for i in range(self.N)]
        records[400]["birthday"] = "2030-01-01"
        self.inputs(tmp_path, records)
        staged = tmp_path / "staged"
        for step, code in (("ingest", 0), ("classify", 0), ("bin", 1)):
            assert self.stage(tmp_path, staged, step) == code, step
        assert self.run(tmp_path, tmp_path / "run") == 1
        assert tree_bytes(tmp_path / "run") == tree_bytes(staged)
        assert sorted(tree_bytes(staged)) == [
            "FAILED", "accepted.jsonl", "classified.jsonl", "rejections.json"]

    def test_earliest_stage_fault_wins_in_run(self, tmp_path):
        """A future birthday at record 10 fails bin in the first batch, but
        ingest, the earlier stage, meets a duplicate id at record 500: its
        fault is the one `run` reports, and no file is left."""
        records = self.duplicated()
        records[10]["birthday"] = "2030-01-01"
        self.inputs(tmp_path, records)
        out = tmp_path / "run"
        assert self.run(tmp_path, out) == 1
        assert sorted(tree_bytes(out)) == ["FAILED"]
        assert (out / "FAILED").read_text().startswith("DuplicateIdError: ")

    @pytest.mark.parametrize(
        "command,input_name",
        [("classify", "accepted.jsonl"), ("bin", "classified.jsonl"),
         ("arff", "binned.jsonl"), ("report", "binned.jsonl")],
    )
    def test_corrupt_line_after_first_batch(self, tmp_path, command, input_name):
        self.inputs(tmp_path)
        out = tmp_path / "out"
        for step in ("ingest", "classify", "bin", "arff", "report"):
            assert self.stage(tmp_path, out, step) == 0, step
        lines = (out / input_name).read_bytes().splitlines(keepends=True)
        lines[299] = b"{not json\n"
        (out / input_name).write_bytes(b"".join(lines))
        before = tree_bytes(out)
        assert self.stage(tmp_path, out, command) == 1
        after = tree_bytes(out)
        assert after.pop("FAILED") == (
            f"StorageError: corrupt corpus {out / input_name}:300: not valid JSON\n"
        ).encode()
        assert after == before

    def test_corrupt_line_after_first_batch_writes_no_new_file(self, tmp_path):
        self.inputs(tmp_path)
        staged, out = tmp_path / "staged", tmp_path / "out"
        assert self.stage(tmp_path, staged, "ingest") == 0
        assert self.stage(tmp_path, staged, "classify") == 0
        lines = (staged / "classified.jsonl").read_bytes().splitlines(keepends=True)
        lines[299] = b"[1, 2]\n"
        out.mkdir()
        (out / "classified.jsonl").write_bytes(b"".join(lines))
        assert self.stage(tmp_path, out, "bin") == 1
        assert sorted(tree_bytes(out)) == ["FAILED", "classified.jsonl"]


class TestFileMode:
    """Every file `run` and the stage subcommands write, the FAILED marker
    included, has mode 0600 whatever the umask: ``io_utils.atomic_writer``
    creates it with ``os.open(..., 0o600)``, which a umask can only narrow."""

    def test_every_output_file_is_0600(self, tmp_path):
        self.check_every_output_file(tmp_path, 0)

    def test_every_output_file_is_0600_under_umask_077(self, tmp_path):
        self.check_every_output_file(tmp_path, 0o077)

    def check_every_output_file(self, tmp_path, umask):
        profiles, corpus = tmp_path / "profiles.jsonl", tmp_path / "corpus.jsonl"
        write_jsonl(profiles, [record(i) for i in range(5)])
        write_corpus(corpus)
        run, staged, failed = tmp_path / "run", tmp_path / "staged", tmp_path / "failed"
        commands = [
            ["run", "--input", str(profiles), "--corpus", str(corpus), "--ref-date", "2015-06-01",
             "--out", str(run)],
            ["ingest", "--input", str(profiles)],
            ["classify", "--input", str(staged / "accepted.jsonl"), "--corpus", str(corpus)],
            ["bin", "--input", str(staged / "classified.jsonl"), "--ref-date", "2015-06-01"],
            ["arff", "--input", str(staged / "binned.jsonl")],
            ["report", "--input", str(staged / "binned.jsonl")],
        ]
        umask = os.umask(umask)
        try:
            for argv in commands:
                out = [] if argv[0] == "run" else ["--out", str(staged)]
                assert main([*argv, *out]) == 0, argv[0]
            # raw profiles are no stage file: bin fails and writes FAILED
            assert main(["bin", "--input", str(profiles), "--ref-date", "2015-06-01",
                         "--out", str(failed)]) == 1
        finally:
            os.umask(umask)
        files = [path for out in (run, staged, failed) for path in out.rglob("*") if path.is_file()]
        assert failed / "FAILED" in files and run / "summary.json" in files
        modes = {path.relative_to(tmp_path).as_posix(): oct(stat.S_IMODE(path.stat().st_mode))
                 for path in files}
        assert modes == dict.fromkeys(modes, "0o600")



# The lines CI's "Stage subcommands reproduce the run subcommand" step appends
# to data/profiles.jsonl: a blank line, invalid bytes, a record ended by \r\n,
# a raw U+2028 inside a text, a non-object line, an escaped lone surrogate, a
# trailing comma and a 5,000-digit integer.
CI_HOSTILE_LINES = b"".join([
    b"\n\xff\xfe not UTF-8\n",
    b'{"id": "h1", "about_me": "honest kind", "wall_count": 3, "music_count": 1}\r\n',
    '{"id": "h2", "about_me": "honest\u2028kind", "wall_count": 4, "music_count": 2}\n'.encode(),
    b"[1, 2]\n",
    b'{"id": "h3", "about_me": "honest \\ud800", "wall_count": 5, "music_count": 3}\n',
    b'{"id": "h4", "about_me": "honest", "wall_count": 6, "music_count": 4,}\n',
    b'{"id": "h5", "about_me": "honest", "wall_count": ' + b"7" * 5000 + b', "music_count": 5}\n',
])


class TestRunDigests:
    """Every byte `run` writes for the shipped `data/` fixture, pinned by
    sha256 in tests/data/run_digests.json, so each Python version the tests
    run on checks the same bytes."""

    def test_data_run_tree_matches_recorded_digests(self, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["run", "--input", str(REPO / "data" / "profiles.jsonl"),
             "--corpus", str(REPO / "data" / "sample_corpus.jsonl"),
             "--ref-date", "2015-06-01", "--out", str(out)]
        ) == 0
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
        recorded = json.loads((REPO / "tests" / "data" / "run_digests.json").read_text(encoding="utf-8"))
        assert digests == recorded


class TestHostileRunDigests:
    """Every byte `run` writes for `data/` with CI's hostile lines appended,
    pinned by sha256 in tests/data/hostile_run_digests.json: a refusal's text
    is the same on each Python version the tests run on."""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_hostile_run_tree_matches_recorded_digests(self, tmp_path):
        profiles, out = tmp_path / "profiles.jsonl", tmp_path / "out"
        profiles.write_bytes((REPO / "data" / "profiles.jsonl").read_bytes() + CI_HOSTILE_LINES)
        assert main(
            ["run", "--input", str(profiles),
             "--corpus", str(REPO / "data" / "sample_corpus.jsonl"),
             "--ref-date", "2015-06-01", "--out", str(out)]
        ) == 0
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
        recorded = json.loads(
            (REPO / "tests" / "data" / "hostile_run_digests.json").read_text(encoding="utf-8"))
        assert digests == recorded


def rejected_record(j: int) -> dict:
    """A profile ingest rejects: no text, or a negative count."""
    if j % 2:
        return {"id": f"r{j}", "about_me": " ", "wall_count": 1, "music_count": 1}
    return {"id": f"r{j}", "about_me": "honest", "wall_count": -1, "music_count": 1}


class TestInputOrder:
    """Shuffling the lines of both input files moves no output but the order
    of the rows in the stage files and the ARFF data."""

    @staticmethod
    def lines_by_id(text: bytes) -> dict:
        lines = text.decode("utf-8").splitlines()
        by_id = {json.loads(line)["id"]: line for line in lines}
        assert len(by_id) == len(lines)
        return by_id

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 3),
        n=st.integers(0, 12),
        rejected=st.integers(0, 3),
        rng=st.randoms(use_true_random=False),
    )
    def test_shuffled_inputs_give_the_same_outputs(self, seed, n, rejected, rng):
        profiles = make_profile_records(n, seed=seed) + [rejected_record(j) for j in range(rejected)]
        corpus = make_corpus_records(seed=seed, docs_per_class=3)
        trees = []
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name in ("given", "shuffled"):
                if name == "shuffled":
                    rng.shuffle(profiles)
                    rng.shuffle(corpus)
                write_jsonl(tmp / f"{name}-profiles.jsonl", profiles)
                write_jsonl(tmp / f"{name}-corpus.jsonl", corpus)
                assert main(
                    ["run", "--input", str(tmp / f"{name}-profiles.jsonl"),
                     "--corpus", str(tmp / f"{name}-corpus.jsonl"),
                     "--ref-date", "2015-06-01", "--out", str(tmp / name)]
                ) == 0
                trees.append(tree_bytes(tmp / name))
        given_tree, shuffled_tree = trees
        assert sorted(given_tree) == sorted(shuffled_tree)
        for name, data in given_tree.items():
            if name == "summary.json" or name.startswith("reports/"):
                assert shuffled_tree[name] == data, name
        for name in ("accepted.jsonl", "classified.jsonl", "binned.jsonl"):
            assert self.lines_by_id(shuffled_tree[name]) == self.lines_by_id(given_tree[name])
        given_rejections, shuffled_rejections = (
            json.loads(tree["rejections.json"]) for tree in trees
        )
        for rejections in (given_rejections, shuffled_rejections):
            rejections["rejected"].sort(key=json.dumps)
        assert shuffled_rejections == given_rejections
        assert len(given_rejections["rejected"]) == rejected
        given_header, given_rows = given_tree["dataset.arff"].split(b"@data\n")
        shuffled_header, shuffled_rows = shuffled_tree["dataset.arff"].split(b"@data\n")
        assert shuffled_header == given_header
        assert sorted(shuffled_rows.splitlines()) == sorted(given_rows.splitlines())
