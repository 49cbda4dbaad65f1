import json
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from socialminer.arff import (
    ArffAttribute,
    ArffDataset,
    NOMINAL,
    NUMERIC,
    STRING,
    build_dataset,
    emit_arff,
)
from socialminer.binning import AgeRange, ShareClass, WallCountClass
from socialminer.cli import main
from socialminer.errors import ArffEncodeError
from socialminer.ingest import Gender
from socialminer.io_utils import BATCH_SIZE, batches
from socialminer.knn import ClassLabel
from socialminer.pipeline import RunConfig, stage_arff

import reference_paths
from arff_oracle import ArffParseError, parse_arff


def enriched_profile(i=0, **overrides):
    fields = dict(
        record_id=f"u{i}",
        about_me="honest honest kind",
        gender=Gender.MALE,
        wall_count=10,
        music_count=3,
        activity_interest_count=4,
        birthday="1998-07-01",
        about_me_class=ClassLabel.HONEST,
        age_range=AgeRange.UP_TO_19,
        wall_count_class=WallCountClass.LOW,
        music_share_class=ShareClass.LOW,
        activity_interest_class=ShareClass.LOW,
    )
    fields.update(overrides)
    return reference_paths.stage_record(**fields)


GOLDEN_HEADER = """@relation social_profiles
@attribute age_range {UpTo19,From20To32,From33To45,Over45,Hidden}
@attribute gender {Male,Female,Unspecified}
@attribute about_me_class {Aggressive,Honest,Romantic,Sincere,Dishonest,Friendly,Eager_to_Learn,Conservative,Emotional,Lazy,Unclassifiable}
@attribute wall_count numeric
@attribute wall_count_class {VeryLow,Low,Medium,High,VeryHigh}
@attribute music_count numeric
@attribute music_share_class {Low,Medium,High}
@attribute activity_interest_count numeric
@attribute activity_interest_class {Low,Medium,High}
@data
"""


class TestBuildDataset:
    def test_empty_is_header_only(self):
        ds = build_dataset([])
        assert len(ds.attributes) == 9
        assert ds.rows == []
        assert ds.relation == "social_profiles"

    def test_one_full_profile_has_no_missing(self):
        ds = build_dataset([enriched_profile()])
        assert len(ds.rows) == 1
        assert None not in ds.rows[0]

    def test_honest_wall_10_row(self):
        ds = build_dataset([enriched_profile()])
        row = ds.rows[0]
        assert "Honest" in row and "Low" in row and 10 in row

    def test_rows_in_corpus_order(self):
        ds = build_dataset([enriched_profile(0), enriched_profile(1, gender=Gender.FEMALE)])
        assert [r[1] for r in ds.rows] == ["Male", "Female"]

    def test_unbinned_profile_rejected(self):
        p = enriched_profile()
        del p["wall_count_class"]
        with pytest.raises(ArffEncodeError):
            build_dataset([p])


class TestEmit:
    def test_header_only(self):
        text = emit_arff(build_dataset([]))
        assert text == GOLDEN_HEADER
        assert text.endswith("@data\n")

    def test_golden_file(self):
        profiles = [
            enriched_profile(),
            enriched_profile(
                1,
                gender=Gender.UNSPECIFIED,
                wall_count=250,
                music_count=0,
                activity_interest_count=0,
                birthday=None,
                about_me_class=ClassLabel.UNCLASSIFIABLE,
                age_range=AgeRange.HIDDEN,
                wall_count_class=WallCountClass.VERY_HIGH,
                music_share_class=ShareClass.LOW,
                activity_interest_class=ShareClass.LOW,
            ),
        ]
        expected = (
            GOLDEN_HEADER
            + "UpTo19,Male,Honest,10,Low,3,Low,4,Low\n"
            + "Hidden,Unspecified,Unclassifiable,250,VeryHigh,0,Low,0,Low\n"
        )
        assert emit_arff(build_dataset(profiles)) == expected

    def test_missing_becomes_question_mark(self):
        ds = ArffDataset("r", [ArffAttribute("x", NUMERIC)], [(None,)])
        assert emit_arff(ds).endswith("@data\n?\n")

    def test_nominal_value_without_reserved_chars_unquoted(self):
        ds = ArffDataset(
            "r",
            [ArffAttribute("c", NOMINAL, ("Eager_to_Learn", "Lazy"))],
            [("Eager_to_Learn",)],
        )
        assert "Eager_to_Learn\n" in emit_arff(ds)
        assert "'Eager_to_Learn'" not in emit_arff(ds)

    def test_quoting_by_hand(self):
        ds = ArffDataset(
            "my relation",
            [ArffAttribute("s", STRING)],
            [("a,b",), ("it's",), ("",), ("?",)],
        )
        text = emit_arff(ds)
        assert text.splitlines()[0] == "@relation 'my relation'"
        assert "'a,b'" in text
        assert "'it\\'s'" in text
        assert "\n''\n" in text
        assert "\n'?'\n" in text

    def test_row_arity_checked(self):
        ds = ArffDataset("r", [ArffAttribute("x", NUMERIC)], [(1, 2)])
        with pytest.raises(ArffEncodeError, match="row 1"):
            emit_arff(ds)

    def test_nominal_domain_membership_checked(self):
        ds = ArffDataset("r", [ArffAttribute("c", NOMINAL, ("a",))], [("b",)])
        with pytest.raises(ArffEncodeError, match="c"):
            emit_arff(ds)

    def test_determinism(self):
        ds = build_dataset([enriched_profile()])
        assert emit_arff(ds) == emit_arff(ds)


class TestParse:
    def test_header_only_round_trip(self):
        ds = build_dataset([])
        assert parse_arff(emit_arff(ds)) == ds

    def test_three_row_mixed_round_trip(self):
        ds = ArffDataset(
            "mixed",
            [
                ArffAttribute("n", NUMERIC),
                ArffAttribute("c", NOMINAL, ("x", "y z", "w,v")),
                ArffAttribute("s", STRING),
            ],
            [
                (1, "x", "plain"),
                (2.5, "y z", "with space"),
                (None, None, None),
            ],
        )
        back = parse_arff(emit_arff(ds))
        assert back == ds
        assert isinstance(back.rows[0][0], int)
        assert isinstance(back.rows[1][0], float)

    def test_comments_and_blank_lines_accepted(self):
        text = (
            "% a comment\n\n@relation r\n@attribute x numeric\n"
            "% another\n@data\n% rows next\n1\n\n2\n"
        )
        ds = parse_arff(text)
        assert ds.rows == [(1,), (2,)]

    def test_arity_mismatch_is_error_with_line(self):
        text = "@relation r\n@attribute x numeric\n@attribute y numeric\n@data\n1\n"
        with pytest.raises(ArffParseError) as err:
            parse_arff(text)
        assert err.value.line_no == 5

    def test_nominal_value_outside_domain(self):
        text = "@relation r\n@attribute c {a,b}\n@data\nz\n"
        with pytest.raises(ArffParseError):
            parse_arff(text)

    def test_unknown_attribute_kind(self):
        text = "@relation r\n@attribute x relational\n@data\n"
        with pytest.raises(ArffParseError):
            parse_arff(text)

    def test_missing_data_section(self):
        with pytest.raises(ArffParseError):
            parse_arff("@relation r\n@attribute x numeric\n")


safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)
name_text = safe_text.filter(lambda s: s.strip() == s and s != "")


def attribute_strategy():
    numeric = st.builds(lambda n: ArffAttribute(n, NUMERIC), name_text)
    nominal = st.builds(
        lambda n, dom: ArffAttribute(n, NOMINAL, tuple(dom)),
        name_text,
        st.lists(safe_text.filter(bool), min_size=1, max_size=4, unique=True),
    )
    string = st.builds(lambda n: ArffAttribute(n, STRING), name_text)
    return st.one_of(numeric, nominal, string)


def value_for(attr: ArffAttribute):
    if attr.kind == NUMERIC:
        base = st.one_of(
            st.integers(min_value=-10**9, max_value=10**9),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    elif attr.kind == NOMINAL:
        base = st.sampled_from(list(attr.domain))
    else:
        base = safe_text
    return st.one_of(st.none(), base)


@st.composite
def dataset_strategy(draw):
    relation = draw(name_text)
    attributes = draw(st.lists(attribute_strategy(), min_size=1, max_size=4))
    n_rows = draw(st.integers(min_value=0, max_value=5))
    rows = [
        tuple(draw(value_for(attr)) for attr in attributes) for _ in range(n_rows)
    ]
    return ArffDataset(relation, attributes, rows)


class TestRoundTripProperty:
    @given(dataset_strategy())
    @settings(max_examples=150)
    def test_parse_inverts_emit(self, ds):
        back = parse_arff(emit_arff(ds))
        assert back == ds
        for row, orig in zip(back.rows, ds.rows):
            assert [type(v) for v in row] == [type(v) for v in orig]


# Values that need quoting or escaping, plus plain ones.
quote_text = st.sampled_from(
    ["", "?", "a b", "it's", "x,y", "{", "}", "%", "\t", "back\\slash", "'", "Low", "ok"]
)
cell_text = st.one_of(quote_text, safe_text)


def emitted_or_error(emit, ds):
    try:
        return emit(ds)
    except ArffEncodeError as exc:
        return f"ArffEncodeError: {exc}"


@st.composite
def loose_dataset_strategy(draw):
    """Datasets whose cells may break the attribute's invariants: text outside
    the nominal domain, wrong types, non-finite floats, enum members."""
    nominal = st.builds(
        lambda n, dom: ArffAttribute(n, NOMINAL, tuple(dom)),
        name_text,
        st.lists(cell_text, min_size=1, max_size=5, unique=True),
    )
    attributes = draw(
        st.lists(st.one_of(attribute_strategy(), nominal), min_size=1, max_size=5)
    )
    def cell(attr):
        good = value_for(attr)
        bad = st.one_of(
            cell_text,
            st.integers(min_value=-5, max_value=5),
            st.floats(),
            st.booleans(),
            st.sampled_from([ShareClass.LOW, Gender.MALE, ("Low",), b"Low"]),
        )
        return draw(st.one_of(good, good, good, bad))
    rows = [
        tuple(cell(attr) for attr in attributes)
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]
    return ArffDataset(draw(name_text), attributes, rows)


class TestEmitEquivalence:
    @given(loose_dataset_strategy(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=300)
    def test_matches_per_cell_emitter(self, ds, split):
        """Also when the rows are emitted in two parts, the second numbered
        from row ``split + 1`` (empty when ``split`` passes the last row)."""
        expected = emitted_or_error(reference_paths.emit_arff, ds)
        assert emitted_or_error(emit_arff, ds) == expected
        head = ArffDataset(ds.relation, ds.attributes, ds.rows[:split])
        tail = ArffDataset(ds.relation, ds.attributes, ds.rows[split:])
        parts = emitted_or_error(lambda _: emit_arff(head) + emit_arff(tail, split + 1), ds)
        assert parts == expected

    def test_out_of_domain_message_unchanged(self):
        attr = ArffAttribute("c", NOMINAL, ("a b", "x"))
        ds = ArffDataset("r", [attr], [("x",), ("a b",), ("y",)])
        with pytest.raises(ArffEncodeError) as got:
            emit_arff(ds)
        assert str(got.value) == "row 3, column 'c': 'y' not in nominal domain"
        assert emitted_or_error(reference_paths.emit_arff, ds) == f"ArffEncodeError: {got.value}"

    def test_profile_dataset_matches(self):
        profiles = [
            enriched_profile(i, gender=gender, about_me_class=label)
            for i, (gender, label) in enumerate(
                zip(list(Gender) * 4, list(ClassLabel))
            )
        ]
        ds = build_dataset(profiles)
        assert emit_arff(ds) == reference_paths.emit_arff(ds)


def varied_profile(i):
    """A binned profile whose row differs from its neighbours'."""
    return enriched_profile(
        i, gender=list(Gender)[i % 3], about_me_class=list(ClassLabel)[i % len(ClassLabel)],
        wall_count=i, music_count=i % 7, age_range=list(AgeRange)[i % 5],
    )


class TestStreamedFile:
    """stage_arff writes the file one batch of rows at a time."""

    @pytest.mark.parametrize(
        "n", [0, 1, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1, 2 * BATCH_SIZE + 1]
    )
    def test_arff_subcommand_writes_the_whole_dataset_text(self, tmp_path, n):
        profiles = [varied_profile(i) for i in range(n)]
        binned = tmp_path / "binned.jsonl"
        binned.write_text("".join(json.dumps(p) + "\n" for p in profiles), encoding="utf-8")
        assert main(["arff", "--input", str(binned), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "dataset.arff").read_text(encoding="utf-8")
        assert text == emit_arff(build_dataset(profiles))
        assert text.startswith(GOLDEN_HEADER) and text.count("@relation") == 1
        if n == 0:
            assert text == GOLDEN_HEADER

    def test_cell_error_in_a_later_batch_names_its_file_row(self, tmp_path):
        profiles = [varied_profile(i) for i in range(2 * BATCH_SIZE + 1)]
        profiles[BATCH_SIZE + 43]["wall_count"] = "many"
        config = RunConfig(tmp_path / "binned.jsonl", tmp_path)
        with pytest.raises(ArffEncodeError) as got:
            for _ in stage_arff(batches(zip(profiles, repeat(None))), config, tmp_path):
                pass
        row = BATCH_SIZE + 44
        assert str(got.value) == f"row {row}, column 'wall_count': numeric value expected, got 'many'"
        assert not (tmp_path / "dataset.arff").exists()
