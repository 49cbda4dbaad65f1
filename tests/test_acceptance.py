"""Acceptance suite: one test per criterion, each reported with a PASS/FAIL
line (see conftest). Expected values come from independent oracles: a
brute-force classifier written before the package, hand tallies over a fixed
20-profile fixture, and hand-authored golden files."""

import random
import time
from datetime import date
from pathlib import Path

from socialminer.arff import ArffAttribute, ArffDataset, NOMINAL, NUMERIC, STRING, build_dataset, emit_arff
from socialminer.binning import (
    WallCountClass,
    ShareClass,
    bin_activities_interests,
    bin_music_share,
    bin_wall_count,
)
from socialminer.features import term_counts, term_frequency
from socialminer.ingest import Gender
from socialminer.knn import (
    ClassLabel,
    PERSONALITY_LABELS,
    CorpusIndex,
    SampleDocument,
    classify_text,
    load_sample_corpus,
)
from socialminer.pipeline import RunConfig, run_pipeline
from socialminer.synth import CLASS_WORDS, make_corpus_records, make_profile_records, write_jsonl

from arff_oracle import parse_arff
from reference_paths import stage_record
from knn_oracle import brute_classify, brute_distance

DATA_DIR = Path(__file__).parent / "data"
REF_DATE = date(2015, 6, 1)


def test_tf_normalization():
    """1,000 random token lists: TF values sum to 1 +- 1e-9, each in (0,1]."""
    rng = random.Random(42)
    words = [f"w{i}" for i in range(30)]
    start = time.perf_counter()
    for _ in range(1000):
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 60))]
        tf = term_frequency(term_counts(tokens))
        assert abs(sum(tf.values()) - 1.0) <= 1e-9
        assert all(0.0 < value <= 1.0 for value in tf.values())
    assert time.perf_counter() - start < 1.0


def nearest_distances(index, target, features):
    """The distance from ``target`` to every document of ``index``, by id, as
    ``CorpusIndex.nearest`` ranks them."""
    rows = index.nearest(target, features, len(index.doc_ids))
    return {row.doc_id: row.distance for row in rows}


def test_metric_axioms():
    """10,000 random vector pairs/triples (dim <= 8, values <= 100), with
    distances from ``CorpusIndex.nearest``: non-negativity, identity,
    symmetry, triangle inequality, homogeneity, and the oracle's value."""
    rng = random.Random(43)
    start = time.perf_counter()
    for _ in range(10_000):
        dim = rng.randint(1, 8)
        x = [rng.randint(0, 100) for _ in range(dim)]
        y = [rng.randint(0, 100) for _ in range(dim)]
        z = [rng.randint(0, 100) for _ in range(dim)]
        c = rng.randint(0, 100)

        features = [f"f{i}" for i in range(dim)]
        vectors = {"x": x, "y": y, "z": z, "cy": [c * v for v in y]}
        index = CorpusIndex.build(
            [SampleDocument(name, ClassLabel.HONEST, dict(zip(features, vec)))
             for name, vec in vectors.items()]
        )
        from_x = nearest_distances(index, x, features)
        from_y = nearest_distances(index, y, features)
        d_xy = from_x["y"]
        assert d_xy >= 0.0
        assert d_xy == brute_distance(x, y)
        assert from_x["x"] == 0.0
        assert from_y["x"] == d_xy
        assert from_x["z"] <= d_xy + from_y["z"] + 1e-9
        scaled = nearest_distances(index, [c * v for v in x], features)["cy"]
        assert abs(scaled - c * d_xy) <= 1e-9
    assert time.perf_counter() - start < 2.0


def test_knn_oracle_equivalence():
    """500 randomized instances (t <= 20 samples, <= 4 features, every
    k <= t): ``CorpusIndex.nearest`` ranks the samples at the oracle's
    distances, and ``CorpusIndex.vote`` agrees 100% with the independent
    brute-force classifier."""
    rng = random.Random(44)
    start = time.perf_counter()
    for _ in range(500):
        t = rng.randint(1, 20)
        dim = rng.randint(1, 4)
        features = [f"f{i}" for i in range(dim)]
        target_vec = [rng.randint(0, 5) for _ in range(dim)]

        samples, oracle_rows = [], []
        for i in range(t):
            vec = [rng.randint(0, 5) for _ in range(dim)]
            label = rng.choice(PERSONALITY_LABELS)
            samples.append(SampleDocument(f"d{i:02d}", label, dict(zip(features, vec))))
            oracle_rows.append((f"d{i:02d}", label.value, brute_distance(target_vec, vec)))

        index = CorpusIndex.build(samples)
        rows = index.nearest(target_vec, features, t)
        assert [(r.doc_id, r.label.value, r.distance) for r in rows] == sorted(
            oracle_rows, key=lambda row: (row[2], row[0])
        )
        for k in range(1, t + 1):
            label = index.vote(target_vec, features, k)
            assert label.value == brute_classify(oracle_rows, k)
    assert time.perf_counter() - start < 5.0


def test_binning_conformance():
    """Published boundary values map exactly as printed; scan over 0..1000
    shows totality and monotonicity with no gaps or dual assignment."""
    start = time.perf_counter()
    wall_expected = {
        9: WallCountClass.VERY_LOW,
        10: WallCountClass.LOW,
        50: WallCountClass.LOW,
        51: WallCountClass.MEDIUM,
        100: WallCountClass.MEDIUM,
        101: WallCountClass.HIGH,
        200: WallCountClass.HIGH,
        201: WallCountClass.VERY_HIGH,
    }
    for n, expected in wall_expected.items():
        assert bin_wall_count(n) is expected
    share_expected = {
        4: ShareClass.LOW,
        6: ShareClass.MEDIUM,
        15: ShareClass.MEDIUM,
        16: ShareClass.HIGH,
    }
    for n, expected in share_expected.items():
        assert bin_music_share(n) is expected
        assert bin_activities_interests(n) is expected

    wall_order = list(WallCountClass)
    share_order = list(ShareClass)
    seen_wall, seen_share = set(), set()
    previous = None
    for n in range(0, 1001):
        wall, share = bin_wall_count(n), bin_music_share(n)
        seen_wall.add(wall)
        seen_share.add(share)
        if previous is not None:
            assert wall_order.index(wall) >= wall_order.index(previous[0])
            assert share_order.index(share) >= share_order.index(previous[1])
        previous = (wall, share)
    assert seen_wall == set(WallCountClass)
    assert seen_share == set(ShareClass)
    assert time.perf_counter() - start < 1.0


def _random_dataset(rng: random.Random) -> ArffDataset:
    chars = "abcXYZ 19,'%{}\\?_-"

    def text(min_len=0):
        s = "".join(rng.choice(chars) for _ in range(rng.randint(min_len, 10)))
        return s.strip() if min_len else s

    attributes = []
    for i in range(rng.randint(1, 5)):
        kind = rng.choice([NUMERIC, NOMINAL, STRING])
        name = f"a{i}_{text(1) or 'x'}"
        if kind == NOMINAL:
            values = [f"v{j}_{text()}" for j in range(rng.randint(1, 4))]
            attributes.append(ArffAttribute(name, NOMINAL, tuple(dict.fromkeys(values))))
        else:
            attributes.append(ArffAttribute(name, kind))

    rows = []
    for _ in range(rng.randint(0, 6)):
        row = []
        for attr in attributes:
            if rng.random() < 0.15:
                row.append(None)
            elif attr.kind == NUMERIC:
                row.append(rng.randint(-999, 999) if rng.random() < 0.5 else rng.uniform(-50, 50))
            elif attr.kind == NOMINAL:
                row.append(rng.choice(attr.domain))
            else:
                row.append(text())
        rows.append(tuple(row))
    return ArffDataset(f"rel_{text(1) or 'r'}", attributes, rows)


def test_arff_round_trip():
    """200 generated datasets survive parse(emit(d)) = d; the emitted profile
    dataset matches the hand-authored golden file byte for byte."""
    rng = random.Random(45)
    start = time.perf_counter()
    for _ in range(200):
        ds = _random_dataset(rng)
        back = parse_arff(emit_arff(ds))
        assert back == ds
        for row, orig in zip(back.rows, ds.rows):
            assert [type(v) for v in row] == [type(v) for v in orig]

    golden_profiles = [
        _profile("g1", ClassLabel.HONEST, "male", "1998-07-01", 10, 3, 4),
        _profile("g2", ClassLabel.UNCLASSIFIABLE, "", None, 250, 0, 0),
        _profile("g3", ClassLabel.EAGER_TO_LEARN, "female", "1975-03-10", 75, 16, 6),
    ]
    _bin_all(golden_profiles)
    emitted = emit_arff(build_dataset(golden_profiles))
    golden = (DATA_DIR / "golden_profiles.arff").read_text(encoding="utf-8")
    assert emitted == golden
    assert time.perf_counter() - start < 2.0


def _profile(record_id, label, gender_text, birthday, wall, music, acts) -> dict:
    gender = {"male": Gender.MALE, "female": Gender.FEMALE}.get(gender_text, Gender.UNSPECIFIED)
    return stage_record(
        record_id=record_id,
        about_me="placeholder",
        gender=gender,
        wall_count=wall,
        music_count=music,
        activity_interest_count=acts,
        birthday=birthday,
        about_me_class=label,
    )


def _bin_all(profiles):
    from socialminer.binning import GapPolicy, age_from_birthday, age_range
    from socialminer.ingest import parse_birthday

    for p in profiles:
        born = parse_birthday(p["birthday"]) if p.get("birthday") else None
        p["age_range"] = age_range(age_from_birthday(born, REF_DATE)).value
        p["wall_count_class"] = bin_wall_count(p["wall_count"]).value
        p["music_share_class"] = bin_music_share(p["music_count"], GapPolicy.FIVE_IS_LOW).value
        p["activity_interest_class"] = bin_activities_interests(
            p["activity_interest_count"], GapPolicy.FIVE_IS_LOW).value


def _class_text(label: ClassLabel) -> str:
    words = CLASS_WORDS[label][:8]
    return " ".join(w for w in words for _ in range(2))


# Hand-designed 20-profile fixture: (id, class, gender, birthday, wall, music, a+i).
# Age buckets at REF_DATE 2015-06-01: 1998-07-01 -> 16, 1990-01-15 -> 25,
# 1975-03-10 -> 40, 1960-02-20 -> 55, None -> Hidden.
FIXTURE_ROWS = [
    ("p01", ClassLabel.HONEST, "male", "1998-07-01", 5, 2, 3),
    ("p02", ClassLabel.HONEST, "female", "1998-07-01", 10, 5, 5),
    ("p03", ClassLabel.HONEST, "female", "1990-01-15", 51, 6, 6),
    ("p04", ClassLabel.AGGRESSIVE, "male", "1990-01-15", 201, 16, 16),
    ("p05", ClassLabel.AGGRESSIVE, "male", "1975-03-10", 100, 15, 15),
    ("p06", ClassLabel.ROMANTIC, "female", "1960-02-20", 200, 0, 0),
    ("p07", ClassLabel.ROMANTIC, "female", None, 101, 7, 2),
    ("p08", ClassLabel.SINCERE, "male", "1998-07-01", 9, 20, 20),
    ("p09", ClassLabel.DISHONEST, "male", "1990-01-15", 50, 4, 4),
    ("p10", ClassLabel.FRIENDLY, "female", "1990-01-15", 75, 10, 8),
    ("p11", ClassLabel.EAGER_TO_LEARN, "male", "1975-03-10", 120, 3, 12),
    ("p12", ClassLabel.CONSERVATIVE, "female", "1960-02-20", 30, 1, 1),
    ("p13", ClassLabel.EMOTIONAL, "female", None, 0, 0, 0),
    ("p14", ClassLabel.LAZY, "male", "1998-07-01", 300, 25, 5),
    ("p15", ClassLabel.HONEST, "male", "1975-03-10", 60, 8, 7),
    ("p16", ClassLabel.AGGRESSIVE, "female", "1960-02-20", 15, 12, 9),
    ("p17", ClassLabel.FRIENDLY, "male", None, 45, 2, 3),
    ("p18", ClassLabel.SINCERE, "female", "1990-01-15", 110, 18, 18),
    ("p19", None, "male", "1998-07-01", 20, 6, 2),  # stopword-only about_me
    ("p20", ClassLabel.LAZY, "female", "1990-01-15", 250, 5, 10),
]

# Hand tallies over FIXTURE_ROWS (nonzero buckets only).
EXPECTED_ABOUT_ME_BY_AGE = {
    "UpTo19": {"Honest": 2, "Sincere": 1, "Lazy": 1, "Unclassifiable": 1},
    "From20To32": {"Honest": 1, "Aggressive": 1, "Dishonest": 1, "Friendly": 1, "Sincere": 1, "Lazy": 1},
    "From33To45": {"Aggressive": 1, "Eager_to_Learn": 1, "Honest": 1},
    "Over45": {"Romantic": 1, "Conservative": 1, "Aggressive": 1},
    "Hidden": {"Romantic": 1, "Emotional": 1, "Friendly": 1},
}
EXPECTED_ABOUT_ME_BY_GENDER = {
    "male": {
        "Honest": 2, "Aggressive": 2, "Sincere": 1, "Dishonest": 1,
        "Eager_to_Learn": 1, "Lazy": 1, "Friendly": 1, "Unclassifiable": 1,
    },
    "female": {
        "Honest": 2, "Romantic": 2, "Friendly": 1, "Conservative": 1,
        "Emotional": 1, "Aggressive": 1, "Sincere": 1, "Lazy": 1,
    },
}
EXPECTED_WALL_BY_GENDER = {
    "male": {"VeryLow": 2, "Low": 3, "Medium": 2, "High": 1, "VeryHigh": 2},
    "female": {"VeryLow": 1, "Low": 3, "Medium": 2, "High": 3, "VeryHigh": 1},
}
EXPECTED_MUSIC_BY_GENDER = {
    "male": {"Low": 4, "Medium": 3, "High": 3},
    "female": {"Low": 5, "Medium": 4, "High": 1},
}
EXPECTED_ACTIVITY_BY_GENDER = {
    "male": {"Low": 5, "Medium": 3, "High": 2},
    "female": {"Low": 5, "Medium": 4, "High": 1},
}


def _fixture_records() -> list[dict]:
    records = []
    for record_id, label, gender, birthday, wall, music, acts in FIXTURE_ROWS:
        about_me = _class_text(label) if label else "i am the and of to so very"
        record = {
            "id": record_id,
            "about_me": about_me,
            "gender": gender,
            "wall_count": wall,
            "music_count": music,
        }
        if birthday:
            record["birthday"] = birthday
        if acts:
            record["activities"] = ", ".join(f"act{j}" for j in range(acts))
        records.append(record)
    return records


def _read_counts(table_path: Path) -> dict[str, int]:
    counts = {}
    for line in table_path.read_text(encoding="utf-8").splitlines()[1:]:
        bucket, count, _ = line.split(",")
        counts[bucket] = int(count)
    return counts


def _zero_filled(expected: dict[str, int], domain) -> dict[str, int]:
    full = {member.value: 0 for member in domain}
    full.update(expected)
    return full


def test_synthetic_end_to_end(tmp_path):
    """Held-out accuracy >= 0.90 on the synthetic 10-class corpus; the full
    pipeline handles 1,340 profiles in under 30 s and reproduces the
    hand-tallied distributions of the 20-profile fixture exactly."""
    # 1) corpus generation + holdout accuracy
    records = make_corpus_records(docs_per_class=60)
    by_label: dict[str, list[dict]] = {}
    for record in records:
        by_label.setdefault(record["label"], []).append(record)
    train, held_out = [], []
    for label_records in by_label.values():
        train.extend(label_records[:50])
        held_out.extend(label_records[50:])
    write_jsonl(tmp_path / "train.jsonl", train)
    index = CorpusIndex.build(load_sample_corpus(tmp_path / "train.jsonl"))
    assert len(held_out) == 100
    correct = sum(
        classify_text(r["text"], index, n_features=50, k=5).value == r["label"]
        for r in held_out
    )
    assert correct / len(held_out) >= 0.90

    # 2) full pipeline over 1,340 synthetic profiles in < 30 s
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    write_jsonl(tmp_path / "profiles.jsonl", make_profile_records(1340))
    start = time.perf_counter()
    summary = run_pipeline(
        RunConfig(
            input_path=tmp_path / "profiles.jsonl",
            corpus_path=corpus_path,
            reference_date=REF_DATE,
            output_dir=tmp_path / "big",
        )
    )
    assert time.perf_counter() - start < 30.0
    assert summary.ingested == 1340
    assert summary.accepted == summary.classified + summary.unclassifiable

    # 3) hand-tallied distributions on the 20-profile fixture
    write_jsonl(tmp_path / "fixture.jsonl", _fixture_records())
    summary = run_pipeline(
        RunConfig(
            input_path=tmp_path / "fixture.jsonl",
            corpus_path=corpus_path,
            reference_date=REF_DATE,
            output_dir=tmp_path / "small",
        )
    )
    assert summary.accepted == 20
    tables = tmp_path / "small" / "reports" / "run" / "tables"
    for age_bucket, expected in EXPECTED_ABOUT_ME_BY_AGE.items():
        actual = _read_counts(tables / f"about_me_age_{age_bucket.lower()}.csv")
        assert actual == _zero_filled(expected, ClassLabel), age_bucket
    for gender, expected in EXPECTED_ABOUT_ME_BY_GENDER.items():
        actual = _read_counts(tables / f"about_me_gender_{gender}.csv")
        assert actual == _zero_filled(expected, ClassLabel), gender
    for gender, expected in EXPECTED_WALL_BY_GENDER.items():
        actual = _read_counts(tables / f"wall_count_gender_{gender}.csv")
        assert actual == _zero_filled(expected, WallCountClass), gender
    for gender, expected in EXPECTED_MUSIC_BY_GENDER.items():
        actual = _read_counts(tables / f"music_share_gender_{gender}.csv")
        assert actual == _zero_filled(expected, ShareClass), gender
    for gender, expected in EXPECTED_ACTIVITY_BY_GENDER.items():
        actual = _read_counts(tables / f"activity_interest_gender_{gender}.csv")
        assert actual == _zero_filled(expected, ShareClass), gender


def test_determinism():
    """Two full pipeline runs on identical inputs produce byte-identical
    output trees."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        write_jsonl(tmp_path / "corpus.jsonl", make_corpus_records(docs_per_class=10))
        write_jsonl(tmp_path / "profiles.jsonl", make_profile_records(200))

        def run(out_name: str) -> dict[str, bytes]:
            run_pipeline(
                RunConfig(
                    input_path=tmp_path / "profiles.jsonl",
                    corpus_path=tmp_path / "corpus.jsonl",
                    reference_date=REF_DATE,
                    output_dir=tmp_path / out_name,
                )
            )
            root = tmp_path / out_name
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        first, second = run("one"), run("two")
        assert first == second
