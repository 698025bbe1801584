"""Seeded synthetic folksonomies with per-user interest drift.

Items and tags are partitioned into topics. Every user starts in one topic
and switches to a second partway through their timeline, so the newest
bookmarks (the ones a chronological split hides) carry tags the user was
using most recently. That gives recency-aware rankers a real signal while
keeping enough user overlap per topic for plain CF to beat popularity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .errors import ConfigError
from .model import Assignment, Folksonomy, Vocab, build_folksonomy


@dataclass(frozen=True)
class SynthConfig:
    users: int = 200
    items: int = 300
    tags: int = 100
    topics: int = 20
    posts_per_user: Tuple[int, int] = (12, 18)
    tags_per_post: Tuple[int, int] = (2, 4)
    noise: float = 0.1  # chance a chosen tag is replaced by a uniform random one
    switch_fraction: float = 0.6  # share of a user's posts before the topic switch
    start: int = 1_500_000_000
    step_seconds: int = 7 * 86400

    def __post_init__(self) -> None:
        if self.topics < 2:
            raise ConfigError(f"need at least 2 topics, got {self.topics}")
        if self.items < self.topics or self.tags < self.topics:
            raise ConfigError("each topic needs at least one item and one tag")
        if self.users < 1:
            raise ConfigError(f"need at least one user, got {self.users}")
        lo, hi = self.posts_per_user
        if not 1 <= lo <= hi:
            raise ConfigError(f"bad posts_per_user range {self.posts_per_user}")
        lo, hi = self.tags_per_post
        if not 1 <= lo <= hi:
            raise ConfigError(f"bad tags_per_post range {self.tags_per_post}")
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigError(f"noise must be in [0, 1], got {self.noise}")
        if not 0.0 < self.switch_fraction < 1.0:
            raise ConfigError(f"switch_fraction must be in (0, 1), got {self.switch_fraction}")
        if self.step_seconds < 1:
            raise ConfigError(f"step_seconds must be >= 1, got {self.step_seconds}")
        # every generated timestamp is start plus non-negative offsets
        if self.start < 0:
            raise ConfigError(f"start must be >= 0, got {self.start}")


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
        n_posts = rng.randint(*config.posts_per_user)
        n_early = max(1, min(n_posts - 1, round(config.switch_fraction * n_posts)))
        plan = [early_topic] * n_early + [late_topic] * (n_posts - n_early)
        picked = {
            early_topic: rng.sample(item_topics[early_topic], min(n_early, len(item_topics[early_topic]))),
            late_topic: rng.sample(item_topics[late_topic], min(n_posts - n_early, len(item_topics[late_topic]))),
        }
        offset = rng.randrange(config.step_seconds)
        for position, topic in enumerate(plan):
            if not picked[topic]:
                continue
            item = item_ids[picked[topic].pop()]
            ts = config.start + offset + position * config.step_seconds + rng.randrange(config.step_seconds // 2 + 1)
            n_tags = min(rng.randint(*config.tags_per_post), len(tag_topics[topic]))
            chosen = rng.sample(tag_topics[topic], n_tags)
            for raw_tag in chosen:
                tag = raw_tag
                if rng.random() < config.noise:
                    tag = rng.randrange(config.tags)
                assignments.append((user, item, tag_ids[tag], ts))
    return build_folksonomy(assignments, vocab)


def write_tsv(folksonomy: Folksonomy, path: str) -> None:
    """Dump as the plain 4-column input format the ingest pipeline reads."""
    vocab = folksonomy.vocab
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for post in folksonomy.posts:
            user = vocab.users.label_of(post.user)
            item = vocab.items.label_of(post.item)
            for tag, ts in post.tag_times:
                handle.write(f"{user}\t{item}\t{vocab.tags.label_of(tag)}\t{ts}\n")
