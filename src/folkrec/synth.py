"""Seeded synthetic folksonomies with per-user interest drift.

Items and tags are partitioned into topics. Every user starts in one topic
and switches to a second partway through their timeline, so the newest
bookmarks (the ones a chronological split hides) carry tags the user was
using most recently. That gives recency-aware rankers a real signal while
keeping enough user overlap per topic for plain CF to beat popularity.

``SynthConfig`` holds the sizes callers vary; the module constants below fix
the timeline shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from .errors import ConfigError, is_integer
from .model import Assignment, Folksonomy, Vocab, build_folksonomy, write_lines

POSTS_PER_USER = (12, 18)
TAGS_PER_POST = (2, 4)
NOISE = 0.1  # chance a chosen tag is replaced by a uniform random one
SWITCH_FRACTION = 0.6  # share of a user's posts before the topic switch
START = 1_500_000_000  # earliest timestamp; every other adds non-negative offsets
STEP_SECONDS = 7 * 86400


@dataclass(frozen=True)
class SynthConfig:
    """The size of a generated folksonomy; every field is checked when built."""

    users: int = 200
    items: int = 300
    tags: int = 100
    topics: int = 20

    def __post_init__(self) -> None:
        if not (is_integer(self.topics) and self.topics >= 2):
            raise ConfigError(f"topics must be an integer >= 2, got {self.topics!r}")
        if not (is_integer(self.users) and self.users >= 1):
            raise ConfigError(f"users must be an integer >= 1, got {self.users!r}")
        # each topic needs at least one item and one tag
        for name, value in (("items", self.items), ("tags", self.tags)):
            if not (is_integer(value) and value >= self.topics):
                raise ConfigError(f"{name} must be an integer >= topics ({self.topics}), got {value!r}")


def _partition(count: int, topics: int) -> List[List[int]]:
    """Split range(count) into `topics` contiguous chunks, sizes as even as possible."""
    base, extra = divmod(count, topics)
    chunks = []
    cursor = 0
    for topic in range(topics):
        size = base + (1 if topic < extra else 0)
        chunks.append(list(range(cursor, cursor + size)))
        cursor += size
    return chunks


def generate(config: SynthConfig, seed: int) -> Folksonomy:
    """Build one drifting folksonomy; identical (config, seed) gives identical output."""
    rng = random.Random(seed)
    item_topics = _partition(config.items, config.topics)
    tag_topics = _partition(config.tags, config.topics)

    vocab = Vocab()
    user_ids = [vocab.users.intern(f"u{index:04d}") for index in range(config.users)]
    item_ids = [vocab.items.intern(f"i{index:04d}") for index in range(config.items)]
    tag_ids = [vocab.tags.intern(f"t{index:04d}") for index in range(config.tags)]

    assignments: List[Assignment] = []
    for user in user_ids:
        early_topic, late_topic = rng.sample(range(config.topics), 2)
        n_posts = rng.randint(*POSTS_PER_USER)
        n_early = max(1, min(n_posts - 1, round(SWITCH_FRACTION * n_posts)))
        plan = [early_topic] * n_early + [late_topic] * (n_posts - n_early)
        picked = {
            early_topic: rng.sample(item_topics[early_topic], min(n_early, len(item_topics[early_topic]))),
            late_topic: rng.sample(item_topics[late_topic], min(n_posts - n_early, len(item_topics[late_topic]))),
        }
        offset = rng.randrange(STEP_SECONDS)
        for position, topic in enumerate(plan):
            if not picked[topic]:
                continue
            item = item_ids[picked[topic].pop()]
            ts = START + offset + position * STEP_SECONDS + rng.randrange(STEP_SECONDS // 2 + 1)
            n_tags = min(rng.randint(*TAGS_PER_POST), len(tag_topics[topic]))
            for tag in rng.sample(tag_topics[topic], n_tags):
                if rng.random() < NOISE:
                    tag = rng.randrange(config.tags)
                assignments.append((user, item, tag_ids[tag], ts))
    return build_folksonomy(assignments, vocab)


def write_tsv(folksonomy: Folksonomy, path: str) -> None:
    """Dump as the plain 4-column input format the ingest pipeline reads, in post order."""
    write_lines(path, folksonomy.rows())
