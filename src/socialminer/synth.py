"""Deterministic synthetic fixtures: a 10-class sample corpus with
overlapping-but-biased vocabularies, plus raw profile records for demo and
benchmark runs. The real corpus behind the published class levels is not
available, so a pluggable synthetic one ships in its place."""

from __future__ import annotations

import json
import random
from pathlib import Path

from .io_utils import atomic_write_text
from .knn import PERSONALITY_LABELS, ClassLabel

DEFAULT_CORPUS_SEED = 20240601
DEFAULT_PROFILE_SEED = 20240602

# Words every class draws from, so vocabularies overlap.
SHARED_WORDS = (
    "life love people time things world day friends family music work "
    "school good great happy fun enjoy like always never really think know "
    "want make live new best everything someone everyone little big "
    "sometimes every years moments dreams simple true"
).split()

# Words exclusive to one class, so vocabularies stay biased.
CLASS_WORDS: dict[ClassLabel, list[str]] = {
    ClassLabel.AGGRESSIVE: (
        "fierce dominate fighter bold intense compete conquer relentless "
        "fearless attack storm crush tough daring"
    ).split(),
    ClassLabel.HONEST: (
        "truthful genuine transparent integrity trustworthy fair candid "
        "upfront reliable principled straightforward earnest loyal dependable"
    ).split(),
    ClassLabel.ROMANTIC: (
        "candlelight roses sunset poetry serenade devotion sweetheart "
        "moonlight passion tender longing embrace valentine adore"
    ).split(),
    ClassLabel.SINCERE: (
        "heartfelt meaningful depth caring devoted warm thoughtful "
        "considerate gentle attentive compassion humble kindness soulful"
    ).split(),
    ClassLabel.DISHONEST: (
        "trick scheme bluff sneaky shortcut mislead gossip twist cunning "
        "shady pretend excuse manipulate alibi"
    ).split(),
    ClassLabel.FRIENDLY: (
        "buddies hangout laughter welcoming cheerful outgoing sociable "
        "parties chatting smiles neighborly playful easygoing greeting"
    ).split(),
    ClassLabel.EAGER_TO_LEARN: (
        "curious study books knowledge courses explore research questions "
        "discover lectures skills practice tutorials experiments"
    ).split(),
    ClassLabel.CONSERVATIVE: (
        "tradition discipline order values prudent cautious heritage "
        "routine stability modest formal duty custom restraint"
    ).split(),
    ClassLabel.EMOTIONAL: (
        "feelings tears moods sensitive crying overwhelmed empathy touched "
        "expressive vulnerable dramatic weeping trembling nostalgia"
    ).split(),
    ClassLabel.LAZY: (
        "naps couch sleeping procrastinate snooze idle lounging slow relax "
        "whatever later comfy yawning chill"
    ).split(),
}

HOBBY_WORDS = (
    "reading cycling painting photography cooking gardening chess hiking "
    "swimming running guitar piano dancing traveling fishing sketching "
    "baking climbing camping writing puzzles skating yoga movies"
).split()

GENDER_SPELLINGS = ("male", "Male", "MALE", "female", "Female", "FEMALE")


def _class_text(rng: random.Random, label: ClassLabel, bias: float = 0.7) -> str:
    length = rng.randint(24, 40)
    words = [
        rng.choice(CLASS_WORDS[label]) if rng.random() < bias else rng.choice(SHARED_WORDS)
        for _ in range(length)
    ]
    return " ".join(words)


def make_corpus_records(
    seed: int = DEFAULT_CORPUS_SEED, docs_per_class: int = 60
) -> list[dict]:
    """Sample corpus as raw records (id, label, text), deterministic in seed."""
    rng = random.Random(seed)
    records = []
    for label in PERSONALITY_LABELS:
        for i in range(docs_per_class):
            records.append(
                {
                    "id": f"{label.value.lower()}-{i:03d}",
                    "label": label.value,
                    "text": _class_text(rng, label),
                }
            )
    return records


def _birthday(rng: random.Random) -> str | None:
    if rng.random() < 0.12:
        return None
    import datetime

    start = datetime.date(1945, 1, 1).toordinal()
    end = datetime.date(2008, 12, 31).toordinal()
    return datetime.date.fromordinal(rng.randint(start, end)).isoformat()


def _comma_list(rng: random.Random, max_items: int = 8) -> str | None:
    n = rng.randint(0, max_items)
    if n == 0:
        return None
    return ", ".join(rng.sample(HOBBY_WORDS, n))


def make_profile_records(
    n: int = 1340, seed: int = DEFAULT_PROFILE_SEED
) -> list[dict]:
    """Raw input records for the pipeline, all valid, deterministic in seed."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        label = rng.choice(PERSONALITY_LABELS)
        record = {
            "id": f"u{i:05d}",
            "about_me": _class_text(rng, label),
            "wall_count": rng.randint(0, 400),
            "music_count": rng.randint(0, 30),
        }
        birthday = _birthday(rng)
        if birthday is not None:
            record["birthday"] = birthday
        roll = rng.random()
        if roll < 0.46:
            record["gender"] = rng.choice(GENDER_SPELLINGS[:3])
        elif roll < 0.92:
            record["gender"] = rng.choice(GENDER_SPELLINGS[3:])
        elif roll < 0.96:
            record["gender"] = "prefer not to say"
        activities = _comma_list(rng)
        if activities is not None:
            record["activities"] = activities
        interests = _comma_list(rng)
        if interests is not None:
            record["interests"] = interests
        if rng.random() < 0.2:
            record["political"] = rng.choice(["liberal", "moderate", "conservative"])
        records.append(record)
    return records


def write_jsonl(path: str | Path, records: list[dict]) -> None:
    atomic_write_text(
        path, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    )
