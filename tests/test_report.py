import csv
import hashlib
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from socialminer.binning import AgeRange, ShareClass, WallCountClass
from socialminer.errors import ChartError, ReportError
from socialminer.ingest import Gender, Profile
from socialminer.knn import ClassLabel
from socialminer.pipeline import RunConfig, stage_report
from socialminer.report import (
    Distribution,
    aggregate,
    compare,
    emit_chart,
    emit_comparison_chart,
    emit_table,
    pie_angles,
    tally,
)

DATA = Path(__file__).parent / "data"


def distributions(profiles, group_by, measure):
    """``aggregate`` over a ``tally`` of the profiles."""
    return aggregate(tally(profiles), group_by, measure)


def profile(i, gender, age_bucket, label):
    return Profile(
        record_id=f"u{i}",
        about_me="text",
        gender=gender,
        wall_count=10,
        music_count=3,
        activity_interest_count=2,
        about_me_class=label,
        age_range=age_bucket,
        wall_count_class=WallCountClass.LOW,
        music_share_class=ShareClass.LOW,
        activity_interest_class=ShareClass.LOW,
    )

M, F = Gender.MALE, Gender.FEMALE
TEN_PROFILES = [
    profile(1, M, AgeRange.UP_TO_19, ClassLabel.HONEST),
    profile(2, M, AgeRange.UP_TO_19, ClassLabel.HONEST),
    profile(3, F, AgeRange.UP_TO_19, ClassLabel.ROMANTIC),
    profile(4, F, AgeRange.FROM_20_TO_32, ClassLabel.HONEST),
    profile(5, F, AgeRange.FROM_20_TO_32, ClassLabel.LAZY),
    profile(6, M, AgeRange.FROM_33_TO_45, ClassLabel.AGGRESSIVE),
    profile(7, M, AgeRange.OVER_45, ClassLabel.SINCERE),
    profile(8, F, AgeRange.HIDDEN, ClassLabel.UNCLASSIFIABLE),
    profile(9, M, AgeRange.HIDDEN, ClassLabel.EMOTIONAL),
    profile(10, F, AgeRange.FROM_20_TO_32, ClassLabel.ROMANTIC),
]

class TestAggregate:
    def test_no_profiles_gives_zero_distributions(self):
        dists = distributions([], "age_range", "about_me_class")
        assert len(dists) == len(AgeRange)
        assert all(set(d.bucket_counts.values()) == {0} for d in dists)

    def test_single_bucket(self):
        profiles = [profile(i, M, AgeRange.UP_TO_19, ClassLabel.HONEST) for i in range(3)]
        dists = distributions(profiles, "age_range", "about_me_class")
        young = dists[0]
        assert young.population == "age_range=UpTo19"
        assert young.bucket_counts["Honest"] == 3
        assert sum(young.bucket_counts.values()) == 3
        assert all(sum(d.bucket_counts.values()) == 0 for d in dists[1:])

    def test_hand_tally_by_age(self):
        dists = {d.population: d for d in distributions(TEN_PROFILES, "age_range", "about_me_class")}
        assert dists["age_range=UpTo19"].bucket_counts["Honest"] == 2
        assert dists["age_range=UpTo19"].bucket_counts["Romantic"] == 1
        assert dists["age_range=From20To32"].bucket_counts["Honest"] == 1
        assert dists["age_range=From20To32"].bucket_counts["Lazy"] == 1
        assert dists["age_range=From20To32"].bucket_counts["Romantic"] == 1
        assert dists["age_range=From33To45"].bucket_counts["Aggressive"] == 1
        assert dists["age_range=Over45"].bucket_counts["Sincere"] == 1
        assert dists["age_range=Hidden"].bucket_counts["Unclassifiable"] == 1
        assert dists["age_range=Hidden"].bucket_counts["Emotional"] == 1

    def test_hand_tally_by_gender(self):
        dists = {d.population: d for d in distributions(TEN_PROFILES, "gender", "about_me_class")}
        male = dists["gender=Male"].bucket_counts
        female = dists["gender=Female"].bucket_counts
        assert (male["Honest"], male["Aggressive"], male["Sincere"], male["Emotional"]) == (2, 1, 1, 1)
        assert (female["Romantic"], female["Honest"], female["Lazy"], female["Unclassifiable"]) == (2, 1, 1, 1)
        assert sum(dists["gender=Unspecified"].bucket_counts.values()) == 0

    def test_buckets_in_enumeration_order(self):
        d = distributions(TEN_PROFILES, "gender", "wall_count_class")[0]
        assert list(d.bucket_counts) == [v.value for v in WallCountClass]

    def test_unknown_dimension(self):
        with pytest.raises(ReportError):
            aggregate(tally([]), "age_range", "wall_count")
        with pytest.raises(ReportError):
            aggregate(tally([]), "about_me_class", "wall_count_class")

    def test_unclassified_profile_rejected(self):
        p = profile(1, M, AgeRange.UP_TO_19, ClassLabel.HONEST)
        p.about_me_class = None
        with pytest.raises(ReportError, match="^profile 'u1' missing age_range or about_me_class$"):
            distributions([p], "age_range", "about_me_class")

    def test_conservation_and_permutation_invariance(self):
        dists = distributions(TEN_PROFILES, "age_range", "about_me_class")
        assert sum(sum(d.bucket_counts.values()) for d in dists) == len(TEN_PROFILES)
        shuffled = TEN_PROFILES[:]
        random.Random(5).shuffle(shuffled)
        assert distributions(shuffled, "age_range", "about_me_class") == dists

class TestCompare:
    def test_identical_sides(self):
        d = distributions(TEN_PROFILES, "gender", "about_me_class")[0]
        c = compare(d, d)
        assert c.left == c.right == d

    def test_paired_counts(self):
        male, female = distributions(TEN_PROFILES, "gender", "about_me_class")[:2]
        c = compare(male, female)
        assert c.left.population == "gender=Male" and c.right.population == "gender=Female"
        assert c.left.bucket_counts["Honest"] == 2
        assert c.right.bucket_counts["Honest"] == 1

    def test_disjoint_nonzero_buckets_align_on_zero_filled_sets(self):
        left = Distribution("m", "left", {"a": 1, "b": 0})
        right = Distribution("m", "right", {"a": 0, "b": 3})
        c = compare(left, right)
        assert list(c.left.bucket_counts) == list(c.right.bucket_counts)

    def test_bucket_mismatch(self):
        left = Distribution("m", "left", {"a": 1})
        right = Distribution("m", "right", {"b": 1})
        with pytest.raises(ReportError):
            compare(left, right)

class TestEmitTable:
    def test_distribution_shape(self):
        d = distributions(TEN_PROFILES, "age_range", "about_me_class")[0]
        lines = emit_table(d).splitlines()
        assert lines[0] == "bucket,count,percent"
        assert len(lines) == 1 + len(ClassLabel)

    def test_zero_distribution(self):
        d = Distribution("about_me_class", "x", {v.value: 0 for v in ClassLabel})
        lines = emit_table(d).splitlines()
        assert all(line.endswith(",0,0.00") for line in lines[1:])

    def test_round_trip_through_csv_reader(self):
        d = distributions(TEN_PROFILES, "age_range", "about_me_class")[0]
        parsed = list(csv.reader(io.StringIO(emit_table(d))))
        assert parsed[0] == ["bucket", "count", "percent"]
        recovered = {row[0]: int(row[1]) for row in parsed[1:]}
        assert recovered == d.bucket_counts

    def test_comparison_table(self):
        male, female = distributions(TEN_PROFILES, "gender", "about_me_class")[:2]
        text = emit_table(compare(male, female))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["bucket", "gender=Male", "gender=Female"]
        honest = next(row for row in parsed[1:] if row[0] == "Honest")
        assert honest == ["Honest", "2", "1"]

    def test_lf_endings(self):
        d = distributions(TEN_PROFILES, "age_range", "about_me_class")[0]
        assert "\r" not in emit_table(d)

class TestPieAngles:
    def test_single_bucket_full_circle(self):
        assert pie_angles([7]) == [360.0]

    def test_two_equal_halves(self):
        assert pie_angles([2, 2]) == [180.0, 180.0]

    def test_proportional(self):
        assert pie_angles([1, 3]) == [90.0, 270.0]

    def test_all_zero_raises(self):
        with pytest.raises(ChartError):
            pie_angles([0, 0])

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=12))
    def test_sum_is_360(self, counts):
        if sum(counts) == 0:
            return
        assert abs(sum(pie_angles(counts)) - 360.0) < 1e-6

class TestEmitChart:
    def dist(self):
        return Distribution("about_me_class", "age_range=UpTo19", {"Honest": 1, "Lazy": 3})

    def test_pie_is_svg_with_labels(self):
        svg = emit_chart(self.dist(), "pie")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "Honest" in svg and "Lazy" in svg
        assert ">1<" in svg or "1 " in svg  # counts appear in legend text
        assert "Honest — 1" in svg and "Lazy — 3" in svg

    def test_line_chart_labels(self):
        svg = emit_chart(self.dist(), "line")
        assert "<polyline" in svg
        assert "Honest" in svg and "Lazy" in svg

    def test_all_zero_pie_rejected(self):
        with pytest.raises(ChartError):
            emit_chart(Distribution("m", "p", {"a": 0}), "pie")

    def test_zero_line_chart_allowed(self):
        svg = emit_chart(Distribution("m", "p", {"a": 0, "b": 0}), "line")
        assert "<polyline" in svg

    def test_unknown_kind(self):
        with pytest.raises(ChartError):
            emit_chart(self.dist(), "bars")

    def test_deterministic(self):
        assert emit_chart(self.dist(), "pie") == emit_chart(self.dist(), "pie")

    def test_comparison_chart(self):
        male, female = distributions(TEN_PROFILES, "gender", "about_me_class")[:2]
        svg = emit_comparison_chart(compare(male, female))
        assert svg.count("<polyline") == 2
        assert "gender=Male" in svg and "gender=Female" in svg

    def test_text_is_escaped(self):
        d = Distribution("m", "a<b", {"x&y": 1})
        svg = emit_chart(d, "pie")
        assert "x&amp;y" in svg and "a&lt;b" in svg


def binned(i, gender, age_bucket, label, wall, music, activity):
    return Profile(
        record_id=f"d{i}",
        about_me="text",
        gender=gender,
        wall_count=0,
        music_count=0,
        activity_interest_count=0,
        about_me_class=label,
        age_range=age_bucket,
        wall_count_class=wall,
        music_share_class=music,
        activity_interest_class=activity,
    )


W, S = WallCountClass, ShareClass
# No Female profile (an all-zero line chart) and no Over45 one (a skipped pie).
DIGEST_PROFILES = [
    binned(1, M, AgeRange.UP_TO_19, ClassLabel.HONEST, W.VERY_LOW, S.LOW, S.HIGH),
    binned(2, M, AgeRange.UP_TO_19, ClassLabel.LAZY, W.LOW, S.MEDIUM, S.LOW),
    binned(3, M, AgeRange.FROM_20_TO_32, ClassLabel.HONEST, W.MEDIUM, S.HIGH, S.LOW),
    binned(4, M, AgeRange.FROM_20_TO_32, ClassLabel.ROMANTIC, W.VERY_HIGH, S.LOW, S.MEDIUM),
    binned(5, Gender.UNSPECIFIED, AgeRange.FROM_20_TO_32, ClassLabel.UNCLASSIFIABLE, W.HIGH, S.LOW, S.LOW),
    binned(6, M, AgeRange.FROM_33_TO_45, ClassLabel.AGGRESSIVE, W.LOW, S.LOW, S.HIGH),
    binned(7, Gender.UNSPECIFIED, AgeRange.HIDDEN, ClassLabel.EMOTIONAL, W.LOW, S.HIGH, S.HIGH),
]


class TestReportDigests:
    """Every byte `stage_report` writes, pinned by sha256 in
    tests/data/report_digests.json."""

    def test_report_tree_matches_recorded_digests(self, tmp_path):
        config = RunConfig(input_path=tmp_path / "binned.jsonl", output_dir=tmp_path, run_id="digests")
        artifacts = stage_report(DIGEST_PROFILES, config, tmp_path)
        base = tmp_path / "reports" / "digests"
        digests = {
            path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(base.rglob("*"))
            if path.is_file()
        }
        recorded = json.loads((DATA / "report_digests.json").read_text(encoding="utf-8"))
        assert digests == recorded
        assert "charts/line_about_me_female.svg" in digests
        assert "charts/pie_about_me_age_over45.svg" not in digests
        assert len(artifacts) == len(digests)
