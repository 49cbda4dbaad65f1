"""Output checks run after every benchmark run.

A run counts as failed when it leaves a ``FAILED`` marker, when its counts
disagree with each other or with the generated input, when the ARFF file or
the report tables do not cover every accepted profile, when a sampled label
differs from the independent brute-force oracle in ``tests/knn_oracle.py``,
or when ``dataset.arff`` differs from the digest recorded for its seed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from knn_oracle import brute_classify, brute_distance
from socialminer.textprep import DEFAULT_STOPWORDS, prepare

UNCLASSIFIABLE = "Unclassifiable"
# Defaults of RunConfig and of the CLI, which every workload runs with.
N_FEATURES = 50
K = 5
GENDER_MEASURES = ("about_me", "wall_count", "music_share", "activity_interest")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _table_total(path: Path) -> int:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return sum(int(row.split(",")[1]) for row in rows)


def oracle_sample(profile_records: list[dict], size: int) -> list[dict]:
    """A fixed, evenly spaced sample of the generated profiles."""
    size = min(size, len(profile_records))
    return [profile_records[i * len(profile_records) // size] for i in range(size)]


def oracle_label(text: str, corpus: list[tuple[str, str, Counter]]) -> str:
    """Label of one text by brute force. Tokens come from the shared
    ``textprep.prepare``; features are the target's most frequent terms (ties
    alphabetical); distances and the vote come from the oracle module."""
    tokens = prepare(text, DEFAULT_STOPWORDS)
    if not tokens:
        return UNCLASSIFIABLE
    counts = Counter(tokens)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    features = [term for term, _ in ranked[:N_FEATURES]]
    target = [counts[term] for term in features]
    rows = [
        (doc_id, label, brute_distance(target, [doc_counts[term] for term in features]))
        for doc_id, label, doc_counts in corpus
    ]
    return brute_classify(rows, K)


def oracle_problems(labels: dict[str, str], sample: list[dict], corpus_records: list[dict]) -> list[str]:
    corpus = [
        (r["id"], r["label"], Counter(prepare(r["text"], DEFAULT_STOPWORDS)))
        for r in corpus_records
    ]
    problems = []
    for record in sample:
        expected = oracle_label(record["about_me"], corpus)
        got = labels.get(record["id"])
        if got != expected:
            problems.append(f"profile {record['id']}: label {got!r}, oracle says {expected!r}")
    return problems


def check_output(
    out_dir: Path,
    mode: str,
    profile_records: list[dict],
    corpus_records: list[dict],
    sample_size: int,
    arff_digest: str | None = None,
    oracle_cache: dict | None = None,
) -> list[str]:
    """Every problem found in one output tree; an empty list means correct.

    ``oracle_cache`` maps a ``classified.jsonl`` digest to the oracle's
    verdict on it, so identical trees are compared with the oracle once.
    """
    out_dir = Path(out_dir)
    try:
        return _problems(out_dir, mode, profile_records, corpus_records, sample_size,
                         arff_digest, {} if oracle_cache is None else oracle_cache)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output in {out_dir}: {type(exc).__name__}: {exc}"]


def _problems(out_dir, mode, profile_records, corpus_records, sample_size, arff_digest, oracle_cache):
    problems = []
    if (out_dir / "FAILED").exists():
        problems.append("FAILED marker: " + (out_dir / "FAILED").read_text(encoding="utf-8").strip())

    # The generator makes only valid records, so every one must be accepted.
    accepted = json.loads((out_dir / "rejections.json").read_text(encoding="utf-8"))["accepted_count"]
    if accepted != len(profile_records):
        problems.append(f"accepted {accepted} of {len(profile_records)} valid profiles")
    if len(_jsonl(out_dir / "accepted.jsonl")) != accepted:
        problems.append("accepted.jsonl length differs from accepted_count")

    classified_rows = _jsonl(out_dir / "classified.jsonl")
    labels = {row["id"]: row["about_me_class"] for row in classified_rows}
    unclassifiable = sum(1 for label in labels.values() if label == UNCLASSIFIABLE)
    classified = len(labels) - unclassifiable
    if accepted != classified + unclassifiable:
        problems.append(f"accepted {accepted} != classified {classified} + unclassifiable {unclassifiable}")
    if mode == "run":
        counts = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["counts"]
        if counts["accepted"] != counts["classified"] + counts["unclassifiable"]:
            problems.append(f"summary.json: accepted != classified + unclassifiable in {counts}")
        if counts["ingested"] != counts["accepted"] + counts["rejected"]:
            problems.append(f"summary.json: ingested != accepted + rejected in {counts}")
        if (counts["accepted"], counts["classified"], counts["unclassifiable"]) != (
            accepted, classified, unclassifiable
        ):
            problems.append(f"summary.json counts {counts} disagree with the output files")

    arff_lines = (out_dir / "dataset.arff").read_text(encoding="utf-8").splitlines()
    data_rows = [line for line in arff_lines[arff_lines.index("@data") + 1:] if line]
    if len(data_rows) != accepted:
        problems.append(f"dataset.arff has {len(data_rows)} rows for {accepted} accepted profiles")

    tables = out_dir / "reports" / "run" / "tables"
    sums = {"about_me by age": sum(_table_total(p) for p in tables.glob("about_me_age_*.csv"))}
    for measure in GENDER_MEASURES:
        sums[f"{measure} by gender"] = sum(
            _table_total(p) for p in tables.glob(f"{measure}_gender_*.csv")
        )
    for name, total in sums.items():
        if total != accepted:
            problems.append(f"report tables {name} sum to {total}, not {accepted}")

    digest = sha256_file(out_dir / "classified.jsonl")
    if digest not in oracle_cache:
        sample = oracle_sample(profile_records, sample_size)
        oracle_cache[digest] = oracle_problems(labels, sample, corpus_records)
    problems.extend(oracle_cache[digest])

    if arff_digest is not None and sha256_file(out_dir / "dataset.arff") != arff_digest:
        problems.append("dataset.arff differs from the digest recorded for this seed")
    return problems
